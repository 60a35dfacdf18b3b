"""Laurent polynomials over Novikov scalars, and potential functions.

A Laurent polynomial is a finite sum of terms  c_a * y^a  with integer
exponent vectors a and Novikov-scalar coefficients c_a.  The potential of a
polytope is built from its facet monomials  z_j = T^{lambda_j} y^{v_j},
optionally rescaled by degree-2 bulk coefficients and extended by
higher-order correction terms  T^rho * coeff * prod z_j^{k_j}.

The frame change y_i = T^{u_i} ybar_i recenters the series at the fiber
over an interior point u; it only shifts coefficient exponents and is exact.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import CorrectionNotPositive, NotInterior
from .novikov import NovikovScalar, format_fraction
from .polytope import BulkCoefficients, Correction, MomentPolytope

ExpVec = tuple[int, ...]


class LaurentPoly:
    """Immutable sparse Laurent polynomial in n variables."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Iterable[tuple[ExpVec, NovikovScalar]] = ()):
        acc: dict[ExpVec, NovikovScalar] = {}
        for a, c in terms:
            if len(a) != nvars or any(isinstance(x, bool) or int(x) != x for x in a):
                raise ValueError(f"exponent {tuple(a)} is not {nvars} integers")
            a = tuple(map(int, a))
            acc[a] = acc[a] + c if a in acc else c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(
            self, "_terms", {a: c for a, c in acc.items() if not c.is_zero()}
        )

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], coeff: NovikovScalar) -> "LaurentPoly":
        return cls(nvars, [(tuple(exps), coeff)])

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars)

    @property
    def terms(self) -> Mapping[ExpVec, NovikovScalar]:
        return self._terms

    def sorted_terms(self) -> list[tuple[ExpVec, NovikovScalar]]:
        return sorted(
            self._terms.items(),
            key=lambda item: (item[1].valuation(), tuple(-x for x in item[0])),
        )

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch")
        return LaurentPoly(
            self.nvars, list(self._terms.items()) + list(other._terms.items())
        )

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.nvars, ((a, -c) for a, c in self._terms.items()))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            if self.nvars != other.nvars:
                raise ValueError("arity mismatch")
            out: list[tuple[ExpVec, NovikovScalar]] = []
            for a1, c1 in self._terms.items():
                for a2, c2 in other._terms.items():
                    out.append(
                        (tuple(x + y for x, y in zip(a1, a2)), c1 * c2)
                    )
            return LaurentPoly(self.nvars, out)
        return LaurentPoly(
            self.nvars, ((a, c * other) for a, c in self._terms.items())
        )

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.nvars == other.nvars
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self._terms.items())))

    def log_derivative(self, i: int) -> "LaurentPoly":
        """The operator y_i d/dy_i: multiplies each term by its i-th exponent.
        Invariant under the frame change, so it can be applied in any frame."""
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range")
        return LaurentPoly(
            self.nvars,
            ((a, c * a[i]) for a, c in self._terms.items() if a[i] != 0),
        )

    def change_frame(self, u: Sequence) -> "LaurentPoly":
        """Rewrite in the variables ybar_i = T^{-u_i} y_i: each coefficient
        picks up T^{<a,u>}.  change_frame(-u) inverts exactly."""
        uf = [Fraction(x) for x in u]
        return LaurentPoly(
            self.nvars,
            (
                (a, c.shift(sum(x * e for x, e in zip(uf, a))))
                for a, c in self._terms.items()
            ),
        )

    def term_values(
        self, ys: Sequence[NovikovScalar]
    ) -> list[tuple[ExpVec, NovikovScalar]]:
        """The values c_a * y^a of the terms at invertible scalars ys, in
        term order; negative powers are powers of one inverse of y_i."""
        if len(ys) != self.nvars:
            raise ValueError("arity mismatch")
        powers: dict[tuple[int, int], NovikovScalar] = {}

        def power(i: int, e: int) -> NovikovScalar:
            if (i, e) not in powers:
                powers[i, e] = (
                    ys[i] ** e if e > 0 else power(i, -1) ** -e if e < -1
                    else ys[i].invert()
                )
            return powers[i, e]

        out = []
        for a, c in self._terms.items():
            for i, e in enumerate(a):
                if e:
                    c = c * power(i, e)
            out.append((a, c))
        return out

    def evaluate(self, ys: Sequence[NovikovScalar]) -> NovikovScalar:
        """Substitute invertible scalars for the variables: the sum of the
        term values."""
        return sum((t for _, t in self.term_values(ys)), NovikovScalar.zero())

    def __repr__(self) -> str:
        return render_poly(self)


def z_monomial(p: MomentPolytope, j: int) -> LaurentPoly:
    """The facet monomial z_j = T^{lambda_j} y^{v_j}."""
    if not 0 <= j < p.nfacets:
        raise IndexError(f"facet index {j} out of range")
    f = p.facets[j]
    return LaurentPoly.monomial(
        p.dim, f.normal, NovikovScalar.monomial(f.constant)
    )


@dataclass(frozen=True)
class Potential:
    """Potential function of a toric fiber family: the leading part
    sum_j c_j z_j  plus any higher-order corrections."""

    polytope: MomentPolytope
    bulk: BulkCoefficients
    corrections: tuple[Correction, ...] = ()

    @cached_property
    def poly(self) -> LaurentPoly:
        """The potential expanded as a single Laurent polynomial in y."""
        p = self.polytope
        terms = [(f.normal, b.shift(f.constant)) for f, b in zip(p.facets, self.bulk.values)]
        for corr in self.corrections:
            # prod_j z_j^{k_j} = T^{sum k_j lambda_j} y^{sum k_j v_j}
            ks = list(zip(corr.z_exponents, p.facets))
            a = tuple(sum(k * f.normal[i] for k, f in ks) for i in range(p.dim))
            lam = corr.extra_t + sum(k * f.constant for k, f in ks)
            terms.append((a, corr.coeff.shift(lam)))
        return LaurentPoly(p.dim, terms)

    def change_frame(self, u: Sequence) -> LaurentPoly:
        if not self.polytope.interior_contains(u):
            raise NotInterior(f"{tuple(Fraction(x) for x in u)} is not interior")
        return self.poly.change_frame(u)


def build_potential(
    p: MomentPolytope,
    bulk: BulkCoefficients | None = None,
    corrections: Sequence[Correction] = (),
    assume_fano: bool = False,
) -> Potential:
    """Assemble the potential of a polytope.

    Correction terms must have the form T^rho * coeff * prod z_j^{k_j} with
    rho > 0, every k_j >= 0 and coeff of valuation >= 0.  A bulk value or
    correction coefficient with a NaN or infinite term is refused.  When the
    polytope is not detectably fano and no corrections are supplied, the
    leading part may differ from the true potential by unknown higher-order
    terms; a warning records that the fano assumption is in force.
    """
    p.require_valid()
    if bulk is None:
        bulk = BulkCoefficients.ones(p.nfacets)
    if len(bulk.values) != p.nfacets:
        raise ValueError("bulk coefficient count does not match facets")
    named = [(f"bulk coefficient {j}", c) for j, c in enumerate(bulk.values)]
    named += [(f"correction {k} coefficient", c.coeff) for k, c in enumerate(corrections)]
    for name, c in named:
        if not all(map(cmath.isfinite, c.lattice()[2])):
            raise ValueError(f"{name} has a NaN or infinite term")
    for corr in corrections:
        if corr.extra_t <= 0:
            raise CorrectionNotPositive(
                f"correction with extra T-power {corr.extra_t} <= 0"
            )
        if any(k < 0 for k in corr.z_exponents):
            raise CorrectionNotPositive(
                f"correction with negative z-exponent in {list(corr.z_exponents)}"
            )
        if corr.coeff.valuation() < 0:
            raise CorrectionNotPositive(
                f"correction coefficient of valuation {corr.coeff.valuation()} < 0"
            )
        if len(corr.z_exponents) != p.nfacets:
            raise ValueError("correction monomial arity does not match facets")
    if not corrections and not assume_fano and p.fano_type() != "fano":
        warnings.warn(
            "polytope is not detectably fano and no corrections were given; "
            "using the leading-order potential only",
            stacklevel=2,
        )
    return Potential(p, bulk, tuple(corrections))


# -- rendering ------------------------------------------------------------------


def _render_monomial(a: ExpVec) -> str:
    if all(x == -1 for x in a) and len(a) > 1:
        inner = " ".join(f"y{i + 1}" for i in range(len(a)))
        return f"({inner})^-1"
    parts = []
    for i, e in enumerate(a):
        if e == 0:
            continue
        parts.append(f"y{i + 1}" if e == 1 else f"y{i + 1}^{e}")
    return " ".join(parts)


def _render_number(z: complex) -> str:
    if z.imag == 0 and z.real == int(z.real):
        return str(int(z.real))
    return f"({z:.6g})"


def _render_coeff(c: NovikovScalar) -> str:
    if len(c.terms) == 1:
        e, z = c.terms[0]
        coeff = "" if z == 1 else _render_number(z)
        if e == 0:
            return coeff or "1"
        tpart = "T" if e == 1 else f"T^{format_fraction(e)}"
        return f"{coeff} {tpart}".strip()
    v = c.valuation()
    inner = []
    for e, z in c.shift(-v).terms:
        num, t = _render_number(z), f"T^{format_fraction(e)}"
        inner.append(num if e == 0 else t if num == "1" else f"{num} {t}")
    grouped = "(" + "+".join(inner) + ")"
    return grouped if v == 0 else f"T^{format_fraction(v)} {grouped}"


def render_poly(f: LaurentPoly, varname: str = "y") -> str:
    if f.is_zero():
        return "0"
    parts = []
    for a, c in f.sorted_terms():
        mono = _render_monomial(a)
        coeff = _render_coeff(c)
        if not mono:
            parts.append(coeff)
        elif coeff == "1":
            parts.append(mono)
        else:
            parts.append(f"{coeff} {mono}")
    out = " + ".join(parts).replace("+ -", "- ")
    if varname != "y":
        out = out.replace("y", varname)
    return out
