"""Scalars of the universal Novikov field with exact rational exponents.

A scalar is a finite sum  sum_i  c_i * T^{e_i}  with complex coefficients
c_i and rational exponents e_i, together with a truncation order: exponents
at or above the truncation order are unknown and silently dropped.  A
truncation order of ``None`` means the scalar is exact (all of its terms are
known).  Exponent arithmetic is exact (``fractions.Fraction``); coefficient
arithmetic is complex floating point, with magnitudes below the configured
``eps_coeff`` pruned on construction.

The valuation of a scalar is the least exponent carrying a nonzero
coefficient, and ``math.inf`` for the zero scalar.  Scalars with
nonnegative valuation form the subring on which ``exp`` and ``log`` below
operate.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from numbers import Number
from typing import Iterable, Union

import numpy as np

from .config import get_config
from .errors import NotInLambdaZero, ZeroLeadingCoefficient

ExponentLike = Union[Fraction, int, str]
INF = math.inf


def _as_fraction(e: ExponentLike) -> Fraction:
    if isinstance(e, Fraction):
        return e
    if isinstance(e, (int, str)):
        return Fraction(e)
    raise TypeError(f"exponent must be rational, got {type(e).__name__}: {e!r}")


def _min_trunc(a: Fraction | None, b: Fraction | None) -> Fraction | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class NovikovScalar:
    """Immutable truncated series  sum c_i T^{e_i}."""

    __slots__ = ("_terms", "_trunc")

    def __init__(
        self,
        terms: Iterable[tuple[ExponentLike, complex]] = (),
        trunc: Fraction | int | str | None = None,
    ):
        if trunc is not None:
            trunc = _as_fraction(trunc)
        eps = get_config().eps_coeff
        acc: dict[Fraction, complex] = {}
        for e, c in terms:
            e = _as_fraction(e)
            if trunc is not None and e >= trunc:
                continue
            acc[e] = acc.get(e, 0j) + complex(c)
        object.__setattr__(
            self,
            "_terms",
            tuple(sorted((e, c) for e, c in acc.items() if abs(c) > eps)),
        )
        object.__setattr__(self, "_trunc", trunc)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _raw(
        cls,
        sorted_terms: tuple[tuple[Fraction, complex], ...],
        trunc: Fraction | None,
    ) -> "NovikovScalar":
        """Wrap terms already sorted, merged, pruned, and under the order."""
        s = object.__new__(cls)
        object.__setattr__(s, "_terms", sorted_terms)
        object.__setattr__(s, "_trunc", trunc)
        return s

    @classmethod
    def zero(cls, trunc: Fraction | None = None) -> "NovikovScalar":
        return cls((), trunc)

    @classmethod
    def one(cls) -> "NovikovScalar":
        return cls(((Fraction(0), 1.0),))

    @classmethod
    def from_number(cls, c: complex) -> "NovikovScalar":
        return cls(((Fraction(0), complex(c)),))

    @classmethod
    def monomial(
        cls, exp: ExponentLike, coeff: complex = 1.0, trunc=None
    ) -> "NovikovScalar":
        return cls(((_as_fraction(exp), complex(coeff)),), trunc)

    # -- basic accessors -------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[Fraction, complex], ...]:
        return self._terms

    @property
    def trunc(self) -> Fraction | None:
        return self._trunc

    def is_zero(self) -> bool:
        """True when no terms are known; with a finite truncation order this
        means zero modulo that order."""
        return not self._terms

    def valuation(self) -> Fraction | float:
        """Least exponent with nonzero coefficient; ``inf`` for zero."""
        return self._terms[0][0] if self._terms else INF

    def leading(self) -> tuple[Fraction, complex]:
        if not self._terms:
            raise ZeroLeadingCoefficient("zero scalar has no leading term")
        return self._terms[0]

    def coeff_at(self, exp: ExponentLike) -> complex:
        e = _as_fraction(exp)
        for te, tc in self._terms:
            if te == e:
                return tc
            if te > e:
                break
        return 0j

    def max_abs_coeff(self) -> float:
        return max((abs(c) for _, c in self._terms), default=0.0)

    def in_lambda_zero(self) -> bool:
        return self.is_zero() or self._terms[0][0] >= 0

    def in_lambda_plus(self) -> bool:
        return self.is_zero() or self._terms[0][0] > 0

    # -- ring operations -------------------------------------------------------

    def _coerce(self, other) -> "NovikovScalar | None":
        if isinstance(other, NovikovScalar):
            return other
        if isinstance(other, Number):
            return NovikovScalar.from_number(other)
        return None

    def __add__(self, other) -> "NovikovScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return NovikovScalar(
            self._terms + o._terms, _min_trunc(self._trunc, o._trunc)
        )

    __radd__ = __add__

    def __neg__(self) -> "NovikovScalar":
        return NovikovScalar(((e, -c) for e, c in self._terms), self._trunc)

    def __sub__(self, other) -> "NovikovScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "NovikovScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "NovikovScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # knowing a mod T^s and b mod T^t gives ab mod T^min(s + val b, t + val a),
        # where a scalar that is zero mod T^t still has valuation >= t
        def lowest_possible(s: "NovikovScalar"):
            if s._terms:
                return s._terms[0][0]
            return s._trunc if s._trunc is not None else INF

        bounds = []
        if self._trunc is not None and lowest_possible(o) != INF:
            bounds.append(self._trunc + lowest_possible(o))
        if o._trunc is not None and lowest_possible(self) != INF:
            bounds.append(o._trunc + lowest_possible(self))
        tr = min(bounds) if bounds else None
        if len(self._terms) * len(o._terms) > 64:
            return _lattice_multiply(self, o, tr)
        out: dict[Fraction, complex] = {}
        for e1, c1 in self._terms:
            for e2, c2 in o._terms:
                e = e1 + e2
                if tr is not None and e >= tr:
                    continue
                out[e] = out.get(e, 0j) + c1 * c2
        return NovikovScalar(out.items(), tr)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "NovikovScalar":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.invert() ** (-n)
        result = NovikovScalar.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def shift(self, exp: ExponentLike) -> "NovikovScalar":
        """Multiply by the exact monomial T^exp."""
        d = _as_fraction(exp)
        return NovikovScalar(
            ((e + d, c) for e, c in self._terms),
            None if self._trunc is None else self._trunc + d,
        )

    def truncate(self, order: ExponentLike) -> "NovikovScalar":
        return NovikovScalar(self._terms, _min_trunc(self._trunc, _as_fraction(order)))

    def invert(self) -> "NovikovScalar":
        """Multiplicative inverse.

        Exact for a single-term scalar.  Otherwise the unit part is inverted
        by Newton doubling up to the knowledge window of the input, or to the
        configured default order for exact inputs.
        """
        if self.is_zero():
            raise ZeroLeadingCoefficient("cannot invert zero scalar")
        v, c0 = self._terms[0]
        if len(self._terms) == 1:
            return NovikovScalar(
                (((-v), 1.0 / c0),),
                None if self._trunc is None else self._trunc - 2 * v,
            )
        # s = c0 T^v (1 + r), r strictly higher order
        window = (
            self._trunc - v if self._trunc is not None
            else get_config().truncation_order
        )
        if window is None:
            raise ValueError(
                "inverting a multi-term scalar needs a finite truncation order"
            )
        unit = NovikovScalar(((e - v, c / c0) for e, c in self._terms), window)
        two = NovikovScalar.monomial(0, 2.0)
        inv = NovikovScalar.one().truncate(window)
        known = unit._terms[1][0]  # g <- g(2 - sg) doubles the correct order
        while known < window:
            inv = inv * (two - unit * inv)
            known *= 2
        return inv.shift(-v) * (1.0 / c0)

    def __truediv__(self, other) -> "NovikovScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.invert()

    def __rtruediv__(self, other) -> "NovikovScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.invert()

    # -- comparisons -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms and self._trunc == o._trunc

    def __hash__(self) -> int:
        return hash((self._terms, self._trunc))

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"exp": str(e), "re": c.real, "im": c.imag}
                for e, c in self._terms
            ],
            "trunc": "inf" if self._trunc is None else str(self._trunc),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "NovikovScalar":
        trunc = None if d.get("trunc", "inf") == "inf" else Fraction(d["trunc"])
        return cls(
            ((Fraction(t["exp"]), complex(t["re"], t["im"])) for t in d["terms"]),
            trunc,
        )

    def __repr__(self) -> str:
        return render_scalar(self)


def _lattice_multiply(
    a: NovikovScalar, b: NovikovScalar, tr: Fraction | None
) -> NovikovScalar:
    """Large products: put the exponents on a common integer lattice and let
    numpy accumulate the convolution."""
    lcm = 1
    for e, _ in a._terms:
        lcm = lcm * e.denominator // math.gcd(lcm, e.denominator)
    for e, _ in b._terms:
        lcm = lcm * e.denominator // math.gcd(lcm, e.denominator)
    ea = np.array(
        [e.numerator * (lcm // e.denominator) for e, _ in a._terms], dtype=np.int64
    )
    eb = np.array(
        [e.numerator * (lcm // e.denominator) for e, _ in b._terms], dtype=np.int64
    )
    ca = np.array([c for _, c in a._terms], dtype=complex)
    cb = np.array([c for _, c in b._terms], dtype=complex)
    exps = (ea[:, None] + eb[None, :]).ravel()
    coeffs = (ca[:, None] * cb[None, :]).ravel()
    if tr is not None:
        keep = exps * tr.denominator < tr.numerator * lcm
        exps = exps[keep]
        coeffs = coeffs[keep]
    eps = get_config().eps_coeff
    if len(exps) == 0:
        return NovikovScalar._raw((), tr)
    lo = int(exps.min())
    width = int(exps.max()) - lo + 1
    if width <= 4 * len(exps):
        shifted = exps - lo
        acc = np.bincount(shifted, weights=coeffs.real, minlength=width) + 1j * (
            np.bincount(shifted, weights=coeffs.imag, minlength=width)
        )
        nz = np.nonzero(np.abs(acc) > eps)[0]
        terms = tuple(
            (Fraction(int(k) + lo, lcm), complex(acc[k])) for k in nz
        )
    else:
        uniq, inv = np.unique(exps, return_inverse=True)
        acc = np.zeros(len(uniq), dtype=complex)
        np.add.at(acc, inv, coeffs)
        keep = np.abs(acc) > eps
        terms = tuple(
            (Fraction(int(e), lcm), complex(c))
            for e, c in zip(uniq[keep], acc[keep])
        )
    return NovikovScalar._raw(terms, tr)


def novikov_exp(x: NovikovScalar) -> NovikovScalar:
    """exp on the valuation >= 0 subring: split x = x0 + x+, with x0 the
    exponent-zero coefficient, and return e^{x0} * sum x+^k / k!."""
    if not x.in_lambda_zero():
        raise NotInLambdaZero(f"exp needs valuation >= 0, got {x.valuation()}")
    x0 = x.coeff_at(0)
    xplus = NovikovScalar(
        ((e, c) for e, c in x.terms if e > 0), x.trunc
    )
    head = cmath.exp(x0)
    if xplus.is_zero():
        return NovikovScalar.monomial(0, head, x.trunc)
    window = x.trunc if x.trunc is not None else get_config().truncation_order
    out = NovikovScalar.one().truncate(window)
    power = NovikovScalar.one().truncate(window)
    k = 0
    while power.valuation() < window:
        k += 1
        power = power * xplus * (1.0 / k)
        out = out + power
        if power.is_zero():
            break
    return out * head


def novikov_log(y: NovikovScalar) -> NovikovScalar:
    """Principal-branch log of a valuation-zero scalar with nonzero leading
    coefficient: log(c0) + log(1 + r) as a Taylor series."""
    if y.is_zero() or y.valuation() != 0:
        raise ZeroLeadingCoefficient("log needs valuation exactly 0")
    c0 = y.coeff_at(0)
    if len(y.terms) == 1:
        return NovikovScalar.monomial(0, cmath.log(c0), y.trunc)
    window = y.trunc if y.trunc is not None else get_config().truncation_order
    r = NovikovScalar(((e, c / c0) for e, c in y.terms if e > 0), window)
    out = NovikovScalar.monomial(0, cmath.log(c0), window)
    power = NovikovScalar.one().truncate(window)
    k = 0
    while power.valuation() < window:
        k += 1
        power = power * r
        term = power * ((-1.0) ** (k + 1) / k)
        out = out + term
        if power.is_zero():
            break
    return out


def format_fraction(e: Fraction) -> str:
    """Exact human-friendly exponent: decimal when terminating, else p/q."""
    if e.denominator == 1:
        return str(e.numerator)
    den = e.denominator
    while den % 2 == 0:
        den //= 2
    while den % 5 == 0:
        den //= 5
    if den == 1:
        value = e.numerator / e.denominator
        return repr(value)
    return f"{e.numerator}/{e.denominator}"


def _format_coeff(c: complex) -> str:
    # display rounding only; the stored coefficients stay untouched
    scale = max(abs(c.real), abs(c.imag), 1.0)
    if abs(c.imag) <= 1e-12 * scale:
        r = c.real
        if r == int(r):
            return str(int(r))
        return f"{r:.10g}"
    if abs(c.real) <= 1e-12 * scale:
        return f"{c.imag:.10g}j"
    return f"({c.real:.10g}{c.imag:+.10g}j)"


def render_scalar(s: NovikovScalar) -> str:
    if s.is_zero():
        body = "0"
    else:
        parts = []
        for e, c in s.terms:
            cs = _format_coeff(c)
            if e == 0:
                parts.append(cs)
            else:
                tpow = "T" if e == 1 else f"T^{format_fraction(e)}"
                if cs == "1":
                    parts.append(tpow)
                elif cs == "-1":
                    parts.append(f"-{tpow}")
                else:
                    parts.append(f"{cs} {tpow}")
        body = " + ".join(parts).replace("+ -", "- ")
    if s.trunc is not None:
        body += f" + O(T^{format_fraction(s.trunc)})"
    return body
