"""Moment polytopes of smooth projective toric manifolds.

A polytope is stored by its facet data: integer inward normals v_j and
rational constants lambda_j, defining ell_j(u) = <v_j, u> + lambda_j >= 0.
Validation checks boundedness, simplicity, the unimodularity of vertex
normal sets, and facet non-redundancy, all in exact rational arithmetic.

The built-in catalog covers the projective spaces, the one- and two-point
blow-ups of the projective plane, and the Hirzebruch surfaces; for the
second Hirzebruch surface the known higher-order potential correction is
attached.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from ._intlinalg import det_int, frac_rank, frac_solve
from .errors import InvalidPolytope, ParamOutOfRange, UnknownName
from .novikov import NovikovScalar

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class Facet:
    normal: tuple[int, ...]
    constant: Fraction
    name: str = ""

    def ell(self, u: Sequence) -> Fraction:
        return sum(
            (Fraction(n) * Fraction(x) for n, x in zip(self.normal, u)),
            start=self.constant,
        )


@dataclass(frozen=True)
class Vertex:
    point: Point
    tight: tuple[int, ...]  # indices of facets vanishing here


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    issues: tuple[str, ...]
    vertex_count: int


class MomentPolytope:
    def __init__(self, dim: int, facets: Iterable[Facet]):
        self.dim = int(dim)
        self.facets: tuple[Facet, ...] = tuple(facets)
        if self.dim < 1:
            raise InvalidPolytope("dimension must be positive")
        for f in self.facets:
            if len(f.normal) != self.dim:
                raise InvalidPolytope(f"normal {f.normal} has wrong length")
        self._vertices: tuple[Vertex, ...] | None = None
        self._report: ValidationReport | None = None
        self._fano_type: str | None = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_inequalities(cls, rows: Sequence[tuple[Sequence[int], object]],
                          names: Sequence[str] | None = None) -> "MomentPolytope":
        dim = len(rows[0][0])
        facets = []
        for j, (normal, const) in enumerate(rows):
            name = names[j] if names else f"ell{j}"
            facets.append(Facet(tuple(int(x) for x in normal), Fraction(const), name))
        return cls(dim, facets)

    # -- linear data -----------------------------------------------------------

    @property
    def nfacets(self) -> int:
        return len(self.facets)

    def ell(self, j: int, u: Sequence) -> Fraction:
        return self.facets[j].ell(u)

    def support_values(self, u: Sequence) -> list[Fraction]:
        return [f.ell(u) for f in self.facets]

    def contains(self, u: Sequence) -> bool:
        return all(v >= 0 for v in self.support_values(u))

    def interior_contains(self, u: Sequence) -> bool:
        return all(v > 0 for v in self.support_values(u))

    # -- combinatorics ---------------------------------------------------------

    def vertices(self) -> tuple[Vertex, ...]:
        """All 0-faces with their incident facet sets, by exhaustive
        intersection of dim-subsets of facet hyperplanes."""
        if self._vertices is not None:
            return self._vertices
        n = self.dim
        seen: dict[Point, set[int]] = {}
        for subset in itertools.combinations(range(self.nfacets), n):
            a = [list(self.facets[j].normal) for j in subset]
            b = [-self.facets[j].constant for j in subset]
            sol = frac_solve(a, b)
            if sol is None or sol[1]:
                continue
            point = tuple(sol[0])
            values = self.support_values(point)
            if all(v >= 0 for v in values):
                tight = seen.setdefault(point, set())
                tight.update(j for j, v in enumerate(values) if v == 0)
        verts = tuple(
            Vertex(p, tuple(sorted(t))) for p, t in sorted(seen.items())
        )
        self._vertices = verts
        return verts

    def total_betti(self) -> int:
        """Rank of the rational cohomology of the toric manifold: the number
        of vertices (= number of maximal cones of the normal fan)."""
        self.require_valid()
        return len(self.vertices())

    # -- validation ------------------------------------------------------------

    def validate(self) -> ValidationReport:
        if self._report is None:
            self._report = self._validation_report()
        return self._report

    def _validation_report(self) -> ValidationReport:
        issues: list[str] = []
        n = self.dim
        normals = [list(f.normal) for f in self.facets]
        for j, f in enumerate(self.facets):
            if all(x == 0 for x in f.normal):
                issues.append(f"facet {j}: zero normal")
            else:
                g = 0
                for x in f.normal:
                    g = gcd(g, abs(x))
                if g != 1:
                    issues.append(f"facet {j}: normal {f.normal} not primitive")
        if len({f.normal for f in self.facets}) < self.nfacets:
            issues.append("duplicate facet normals")
        if frac_rank(normals) < n:
            issues.append("normals do not span; polytope unbounded or degenerate")
        elif ray := self._recession_ray():
            issues.append(f"unbounded: recession direction {ray}")
        verts = self.vertices()
        if not verts:
            issues.append("no vertices; polytope empty or unbounded")
        for v in verts:
            if len(v.tight) != n:
                issues.append(
                    f"vertex {v.point}: {len(v.tight)} facets meet (not simple)"
                )
                continue
            d = det_int([list(self.facets[j].normal) for j in v.tight])
            if abs(d) != 1:
                issues.append(
                    f"vertex {v.point}: normal determinant {d} (not unimodular)"
                )
        if verts:
            pts = [v.point for v in verts]
            diffs = [
                [p[i] - pts[0][i] for i in range(n)] for p in pts[1:]
            ]
            if frac_rank(diffs) < n:
                issues.append("polytope is not full-dimensional (empty interior)")
            for j in range(self.nfacets):
                on_facet = [v.point for v in verts if j in v.tight]
                if not on_facet:
                    issues.append(f"facet {j}: redundant (touches no vertex)")
                    continue
                fd = [
                    [p[i] - on_facet[0][i] for i in range(n)]
                    for p in on_facet[1:]
                ]
                if frac_rank(fd) < n - 1:
                    issues.append(
                        f"facet {j}: tight set has dimension < {n - 1} (redundant)"
                    )
        return ValidationReport(not issues, tuple(issues), len(verts))

    def _recession_ray(self) -> tuple | None:
        """A nonzero direction d with <v_j, d> >= 0 for all j, if one exists.
        Extreme rays of the recession cone satisfy dim-1 independent equalities,
        so scanning those subsets is exhaustive once the normals span."""
        n = self.dim
        normals = [list(f.normal) for f in self.facets]
        if n == 1:
            for d in ((Fraction(1),), (Fraction(-1),)):
                if all(Fraction(v[0]) * d[0] >= 0 for v in normals):
                    return d
            return None
        for subset in itertools.combinations(range(self.nfacets), n - 1):
            a = [normals[j] for j in subset]
            sol = frac_solve(a, [0] * (n - 1))
            if sol is None:
                continue
            _, null = sol
            if len(null) != 1:
                continue
            d = tuple(null[0])
            for cand in (d, tuple(-x for x in d)):
                vals = [
                    sum(Fraction(vj) * x for vj, x in zip(v, cand))
                    for v in normals
                ]
                if all(val >= 0 for val in vals):
                    return cand
        return None

    def require_valid(self) -> None:
        report = self.validate()
        if not report.ok:
            raise InvalidPolytope("; ".join(report.issues))

    # -- Fano heuristic ---------------------------------------------------------

    def fano_type(self) -> str:
        """Strict convexity of the anticanonical support function across the
        walls of the normal fan.

        For each pair of adjacent vertices, take the linear functional m_p
        equal to 1 on the normals at vertex p and evaluate it on the one
        normal of the neighbour not shared with p.  With inward normals,
        values < 1 at every wall mean the function is strictly convex
        (fano); equality somewhere means nef-only; a value > 1 breaks
        convexity (neither).  The orientation is fixed by the catalog:
        projective spaces and one-point blow-ups are fano, the second
        Hirzebruch surface is nef-only.
        """
        if self._fano_type is None:
            self._fano_type = self._fano_type_of_fan()
        return self._fano_type

    def _fano_type_of_fan(self) -> str:
        self.require_valid()
        verts = self.vertices()
        n = self.dim
        functionals: dict[int, list[Fraction]] = {}
        for i, v in enumerate(verts):
            a = [list(self.facets[j].normal) for j in v.tight]
            sol = frac_solve(a, [1] * n)
            assert sol is not None and not sol[1]
            functionals[i] = sol[0]
        strict = True
        for i, p in enumerate(verts):
            for k, q in enumerate(verts):
                if i == k:
                    continue
                shared = set(p.tight) & set(q.tight)
                if len(shared) != n - 1:
                    continue
                (off,) = set(q.tight) - shared
                value = sum(
                    Fraction(m) * Fraction(x)
                    for m, x in zip(functionals[i], self.facets[off].normal)
                )
                if value > 1:
                    return "neither"
                if value == 1:
                    strict = False
        return "fano" if strict else "nef-only"

    # -- bounds ------------------------------------------------------------------

    def bounding_box(self) -> list[tuple[Fraction, Fraction]]:
        verts = self.vertices()
        if not verts:
            raise InvalidPolytope("no vertices")
        return [
            (
                min(v.point[i] for v in verts),
                max(v.point[i] for v in verts),
            )
            for i in range(self.dim)
        ]

    def barycenter(self) -> Point:
        verts = self.vertices()
        k = len(verts)
        return tuple(
            sum((v.point[i] for v in verts), start=Fraction(0)) / k
            for i in range(self.dim)
        )

    # -- serialization -------------------------------------------------------------

    def to_json_dict(self, corrections: "Sequence[Correction]" = ()) -> dict:
        return {
            "dim": self.dim,
            "facets": [
                {
                    "normal": list(f.normal),
                    "constant": str(f.constant),
                    "name": f.name,
                }
                for f in self.facets
            ],
            "corrections": [c.to_json_dict() for c in corrections],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "tuple[MomentPolytope, list[Correction]]":
        if not isinstance(d, dict):
            raise InvalidPolytope(
                f"polytope JSON must be an object, got {type(d).__name__}"
            )
        try:
            facets = [
                Facet(
                    tuple(int(x) for x in fd["normal"]),
                    Fraction(fd["constant"]),
                    fd.get("name", f"ell{j}"),
                )
                for j, fd in enumerate(d["facets"])
            ]
            p = cls(int(d["dim"]), facets)
            corrections = [
                Correction.from_json_dict(cd) for cd in d.get("corrections", [])
            ]
        except KeyError as exc:
            raise InvalidPolytope(f"polytope JSON lacks key {exc}") from None
        except TypeError as exc:
            raise InvalidPolytope(f"malformed polytope JSON: {exc}") from None
        return p, corrections

    def __repr__(self) -> str:
        rows = ", ".join(
            f"{f.name}: <{list(f.normal)},u>+{f.constant}>=0" for f in self.facets
        )
        return f"MomentPolytope(dim={self.dim}, {rows})"


@dataclass(frozen=True)
class BulkCoefficients:
    """Degree-2 bulk deformation data: one valuation-zero unit per facet."""

    values: tuple[NovikovScalar, ...]

    def __post_init__(self):
        for j, c in enumerate(self.values):
            if c.is_zero() or c.valuation() != 0:
                raise InvalidPolytope(
                    f"bulk coefficient {j} must have valuation 0"
                )

    @classmethod
    def ones(cls, m: int) -> "BulkCoefficients":
        return cls(tuple(NovikovScalar.one() for _ in range(m)))

    def leading(self) -> tuple[complex, ...]:
        return tuple(c.coeff_at(0) for c in self.values)


@dataclass(frozen=True)
class Correction:
    """Higher-order potential term  T^extra_t * coeff * prod z_j^{k_j}."""

    extra_t: Fraction
    z_exponents: tuple[int, ...]
    coeff: NovikovScalar = field(default_factory=NovikovScalar.one)

    def to_json_dict(self) -> dict:
        c = self.coeff
        if c.trunc is None and len(c.terms) == 1 and c.terms[0][0] == 0:
            coeff = {"re": c.terms[0][1].real, "im": c.terms[0][1].imag}
        else:
            coeff = c.to_json_dict()
        return {
            "monomial_z": list(self.z_exponents),
            "extra_T": str(self.extra_t),
            "coeff": coeff,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Correction":
        if not isinstance(d, dict):
            raise InvalidPolytope(
                f"correction JSON must be an object, got {type(d).__name__}"
            )
        try:
            raw = d.get("coeff", {"re": 1.0, "im": 0.0})
            if isinstance(raw, dict) and "terms" in raw:
                coeff = NovikovScalar.from_json_dict(raw)
            elif isinstance(raw, dict):
                coeff = NovikovScalar.from_number(
                    complex(raw.get("re", 0.0), raw.get("im", 0.0))
                )
            else:
                coeff = NovikovScalar.from_number(complex(raw))
            return cls(
                Fraction(d["extra_T"]), tuple(int(x) for x in d["monomial_z"]), coeff
            )
        except KeyError as exc:
            raise InvalidPolytope(f"correction JSON lacks key {exc}") from None
        except TypeError as exc:
            raise InvalidPolytope(f"malformed correction JSON: {exc}") from None


@dataclass(frozen=True)
class CatalogEntry:
    polytope: MomentPolytope
    corrections: tuple[Correction, ...] = ()


def _check_open_unit(name: str, value: Fraction) -> None:
    if not 0 < value < 1:
        raise ParamOutOfRange(f"{name} must lie in (0,1), got {value}")


def catalog(name: str, *params) -> CatalogEntry:
    """Built-in example polytopes.

    simplex(n)          projective n-space, unit simplex
    blowup1(a)          one-point blow-up of the projective plane
    blowup2(a, a2)      two-point blow-up of the projective plane
    hirzebruch(k, a)    Hirzebruch surface; k=2 carries its correction term
    """
    params = tuple(Fraction(x) for x in params)
    if name == "simplex":
        if len(params) != 1 or params[0].denominator != 1 or params[0] < 1:
            raise ParamOutOfRange("simplex(n) needs a positive integer n")
        n = int(params[0])
        rows: list[tuple[list[int], Fraction]] = [
            ([-1] * n, Fraction(1))
        ] + [
            ([1 if i == j else 0 for i in range(n)], Fraction(0))
            for j in range(n)
        ]
        names = ["ell0"] + [f"ell{j + 1}" for j in range(n)]
        return CatalogEntry(MomentPolytope.from_inequalities(rows, names))
    if name == "blowup1":
        if len(params) != 1:
            raise ParamOutOfRange("blowup1(a) needs one parameter")
        (alpha,) = params
        _check_open_unit("alpha", alpha)
        rows = [
            ([-1, -1], Fraction(1)),
            ([1, 0], Fraction(0)),
            ([0, 1], Fraction(0)),
            ([0, -1], 1 - alpha),
        ]
        return CatalogEntry(
            MomentPolytope.from_inequalities(rows, ["ell0", "ell1", "ell2", "ell3"])
        )
    if name == "blowup2":
        if len(params) != 2:
            raise ParamOutOfRange("blowup2(a, a2) needs two parameters")
        alpha, alpha2 = params
        _check_open_unit("alpha", alpha)
        if not 0 < alpha2 or not alpha + alpha2 < 1:
            raise ParamOutOfRange("need 0 < a2 and a + a2 < 1")
        rows = [
            ([-1, -1], Fraction(1)),
            ([1, 0], Fraction(0)),
            ([0, 1], Fraction(0)),
            ([0, -1], 1 - alpha),
            ([1, 1], -alpha2),
        ]
        return CatalogEntry(
            MomentPolytope.from_inequalities(
                rows, ["ell0", "ell1", "ell2", "ell3", "ell4"]
            )
        )
    if name == "hirzebruch":
        if len(params) != 2 or params[0].denominator != 1 or params[0] < 1:
            raise ParamOutOfRange("hirzebruch(k, a) needs integer k >= 1")
        k = int(params[0])
        alpha = params[1]
        _check_open_unit("alpha", alpha)
        rows = [
            ([1, 0], Fraction(0)),
            ([0, 1], Fraction(0)),
            ([-1, -k], Fraction(k)),
            ([0, -1], 1 - alpha),
        ]
        p = MomentPolytope.from_inequalities(
            rows, ["ell1", "ell2", "ell3", "ell4"]
        )
        corrections: tuple[Correction, ...] = ()
        if k == 2:
            # the known exceptional-class contribution: T^{2a} * z_4
            corrections = (
                Correction(2 * alpha, (0, 0, 0, 1), NovikovScalar.one()),
            )
        return CatalogEntry(p, corrections)
    raise UnknownName(f"no catalog entry named {name!r}")


CATALOG_SIGNATURES = {
    "simplex": "simplex:n — projective n-space (unit simplex), n >= 1",
    "blowup1": "blowup1:a — one-point blow-up of the projective plane, 0 < a < 1",
    "blowup2": "blowup2:a,a2 — two-point blow-up, 0 < a2, a + a2 < 1",
    "hirzebruch": "hirzebruch:k,a — Hirzebruch surface, k >= 1, 0 < a < 1 "
    "(k=2 includes its potential correction term)",
}
