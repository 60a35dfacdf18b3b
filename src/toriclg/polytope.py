"""Moment polytopes of smooth projective toric manifolds.

A polytope is stored by its facet data: integer inward normals v_j and
rational constants lambda_j, defining ell_j(u) = <v_j, u> + lambda_j >= 0.
Validation checks boundedness, simplicity, the unimodularity of vertex
normal sets, and facet non-redundancy, all in exact arithmetic.  The
vertices, edges and walls come from one walk of the vertex graph on
integer support values (Avis-Fukuda pivoting): each vertex is left along
its edges, and a ratio test over the facets finds the next vertex.

The built-in catalog covers the projective spaces, the one- and two-point
blow-ups of the projective plane, and the Hirzebruch surfaces; for the
second Hirzebruch surface the known higher-order potential correction is
attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

# frac_solve is not called here; bench/tracer.py binds it in this module
from ._intlinalg import (  # noqa: F401
    adapted_basis,
    adjugate,
    frac_solve,
    over_common_denominator,
)
from .errors import InvalidPolytope, ParamOutOfRange, UnknownName
from .novikov import NovikovScalar, json_fraction

Point = tuple[Fraction, ...]


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _json_int(x, what: str) -> int:
    """An integer field: booleans and numbers that ``int`` would change
    (1.5, Fraction(3, 2), inf) are refused, integer strings are read."""
    if isinstance(x, bool) or not isinstance(x, str) and (
        not x.is_integer() if isinstance(x, float) else int(x) != x
    ):
        raise InvalidPolytope(f"{what} must be an integer, got {x!r}")
    return int(x)


@dataclass(frozen=True)
class Facet:
    normal: tuple[int, ...]
    constant: Fraction
    name: str = ""

    def ell(self, u: Sequence) -> Fraction:
        nums, den = over_common_denominator(u)
        return Fraction(_dot(self.normal, nums), den) + self.constant


@dataclass(frozen=True)
class Vertex:
    point: Point
    tight: tuple[int, ...]  # indices of facets vanishing here


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    issues: tuple[str, ...]
    vertex_count: int


class _Edge(NamedTuple):
    direction: tuple[int, ...]
    off: int | None  # the first facet met at the far end; None for a ray


class _Corner(NamedTuple):
    vertex: Vertex
    det: int | None  # of the tight normals in index order, when simple
    edges: tuple[_Edge, ...]


class _VertexGraph(NamedTuple):
    corners: tuple[_Corner, ...]  # in increasing order of the point
    spans: bool  # the normals span R^n
    walls: tuple[int, ...]  # <m_p, v_off> over the walls at unimodular corners


class MomentPolytope:
    def __init__(self, dim: int, facets: Iterable[Facet]):
        self.dim = int(dim)
        self.facets: tuple[Facet, ...] = tuple(facets)
        if self.dim < 1:
            raise InvalidPolytope("dimension must be positive")
        for f in self.facets:
            if len(f.normal) != self.dim:
                raise InvalidPolytope(f"normal {f.normal} has wrong length")
        # D ell_j(u) = <v_j, D u> + c_j with integers c_j over one denominator D
        self._den = lcm(*(f.constant.denominator for f in self.facets))
        self._consts = [
            f.constant.numerator * (self._den // f.constant.denominator)
            for f in self.facets
        ]
        self._graph: _VertexGraph | None = None
        self._report: ValidationReport | None = None
        self._fano_type: str | None = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_inequalities(cls, rows: Sequence[tuple[Sequence[int], object]],
                          names: Sequence[str] | None = None) -> "MomentPolytope":
        if not rows:
            raise InvalidPolytope("no inequalities: the dimension is unknown")
        if names is not None and len(names) != len(rows):
            raise InvalidPolytope(f"{len(names)} names for {len(rows)} inequalities")
        facets = []
        for j, (normal, const) in enumerate(rows):
            normal = tuple(_json_int(x, "normal entry") for x in normal)
            facets.append(Facet(normal, Fraction(const), names[j] if names else f"ell{j}"))
        return cls(len(rows[0][0]), facets)

    # -- linear data -----------------------------------------------------------

    @property
    def nfacets(self) -> int:
        return len(self.facets)

    def ell(self, j: int, u: Sequence) -> Fraction:
        return self.facets[j].ell(u)

    def _scaled_support(self, u: Sequence) -> tuple[list[int], int]:
        """Integer numerators of every ell_j(u) over one positive denominator."""
        if len(u) != self.dim:
            raise ValueError(
                f"point has {len(u)} coordinates, the polytope has dimension {self.dim}"
            )
        nums, den = over_common_denominator(u)
        return [
            _dot(f.normal, nums) * self._den + c * den
            for f, c in zip(self.facets, self._consts)
        ], den * self._den

    def support_values(self, u: Sequence) -> list[Fraction]:
        values, den = self._scaled_support(u)
        return [Fraction(v, den) for v in values]

    def contains(self, u: Sequence) -> bool:
        return all(v >= 0 for v in self._scaled_support(u)[0])

    def interior_contains(self, u: Sequence) -> bool:
        return all(v > 0 for v in self._scaled_support(u)[0])

    # -- combinatorics ---------------------------------------------------------

    def vertices(self) -> tuple[Vertex, ...]:
        """All 0-faces with their incident facet sets, in increasing order
        of the point, from one walk of the vertex graph."""
        return tuple(c.vertex for c in self._vertex_graph().corners)

    def total_betti(self) -> int:
        """Rank of the rational cohomology of the toric manifold: the number
        of vertices (= number of maximal cones of the normal fan)."""
        self.require_valid()
        return len(self.vertices())

    def _vertex_graph(self) -> _VertexGraph:
        if self._graph is None:
            self._graph = self._walk()
        return self._graph

    def _walk(self) -> _VertexGraph:
        """Every vertex with its tight set and edges, by pivoting.

        Points are x = D u, kept as integer numerators X over a positive
        denominator g, so the support values at a point are the integers
        s_j = <v_j, X> + g c_j over g D.  The first vertex is the first
        n-subset of facets, in index order, whose intersection point is
        feasible.  From each vertex every edge direction e gets a ratio
        test: the least s_j / -<v_j, e> over the facets with <v_j, e> < 0
        gives the next vertex and the first facet that blocks the edge,
        which is the wall's off-facet on a simple polytope; an edge that
        no facet blocks is a ray.  The graph of a polyhedron with a
        vertex is connected (Balinski), so the walk finds every vertex.
        """
        n, consts = self.dim, self._consts
        normals = [f.normal for f in self.facets]

        def slacks(X, g):
            return [_dot(v, X) + g * c for v, c in zip(normals, consts)]

        spans, start = False, None
        for basis in combinations(range(self.nfacets), n):
            det, adj = adjugate([normals[j] for j in basis])
            if not det:
                continue
            spans = True
            # <v_j, x> = -c_j on the basis: x = -adj c / det
            c = [consts[j] for j in basis]
            X, g = _reduced([-_dot(row, c) for row in adj], det)
            if all(s >= 0 for s in slacks(X, g)):
                start = (X, g)
                break
        corners: list[_Corner] = []
        walls: list[int] = []
        seen = {start}
        todo = [start] if start else []
        while todo:
            X, g = todo.pop()
            s = slacks(X, g)
            tight = tuple(j for j, x in enumerate(s) if x == 0)
            det, directions = self._edge_directions(tight)
            edges, rates_of = [], []
            for e in directions:
                rates = [_dot(v, e) for v in normals]  # <v_j, e> for every j
                rates_of.append(rates)
                off, best_s, best_r = None, 0, 1
                for j, r in enumerate(rates):
                    if r < 0 and (off is None or s[j] * best_r < best_s * -r):
                        off, best_s, best_r = j, s[j], -r
                edges.append(_Edge(e, off))
                if off is not None:
                    # x + t e with t = best_s / (g best_r)
                    nxt = _reduced(
                        [x * best_r + best_s * y for x, y in zip(X, e)],
                        g * best_r,
                    )
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
            if det in (1, -1):
                # m_p = sum of the edge directions solves <v_t, m_p> = 1 on
                # the tight facets; each wall adds <m_p, v_off>
                walls += [
                    sum(rates[edge.off] for rates in rates_of)
                    for edge in edges
                    if edge.off is not None
                ]
            point = tuple(Fraction(x, g * self._den) for x in X)
            corners.append(_Corner(Vertex(point, tight), det, tuple(edges)))
        corners.sort(key=lambda c: c.vertex.point)
        return _VertexGraph(tuple(corners), spans, tuple(walls))

    def _edge_directions(
        self, tight: Sequence[int]
    ) -> tuple[int | None, list[tuple[int, ...]]]:
        """Edge directions of the cone {d : <v_j, d> >= 0 for j in tight}.

        Each is the primitive null direction (the last column of the
        unimodular ``adapted_basis`` inverse) of a rank-(n-1) subset of the
        tight normals that keeps every tight facet >= 0, listed in the
        combination order of the subsets (with the subset's direction
        taken before its negative).  With exactly n tight facets, the
        directions are the columns of the adjugate, and their determinant
        comes back too (None otherwise).
        """
        n, normals = self.dim, [self.facets[j].normal for j in tight]
        if len(tight) == n:
            det, adj = adjugate(normals)
            sign = 1 if det > 0 else -1
            # column k frees facet tight[k]; the last column comes first
            return det, [
                tuple(sign * row[k] for row in adj) for k in reversed(range(n))
            ]
        directions: list[tuple[int, ...]] = []
        for sub in combinations(normals, n - 1):
            ranks, _, inverse = adapted_basis(sub, n)
            if ranks and ranks[-1] < n - 1:
                continue
            d = tuple(row[-1] for row in inverse)
            dots = [_dot(v, d) for v in normals]
            if all(x <= 0 for x in dots) and any(dots):
                d = tuple(-x for x in d)
            elif not all(x >= 0 for x in dots):
                continue
            if d not in directions:
                directions.append(d)
        return None, directions

    # -- validation ------------------------------------------------------------

    def validate(self) -> ValidationReport:
        if self._report is None:
            self._report = self._validation_report()
        return self._report

    def _validation_report(self) -> ValidationReport:
        issues: list[str] = []
        n = self.dim
        for j, f in enumerate(self.facets):
            if all(x == 0 for x in f.normal):
                issues.append(f"facet {j}: zero normal")
            elif gcd(*f.normal) != 1:
                issues.append(f"facet {j}: normal {f.normal} not primitive")
        if len({f.normal for f in self.facets}) < self.nfacets:
            issues.append("duplicate facet normals")
        graph = self._vertex_graph()
        corners = graph.corners
        rays = any(e.off is None for c in corners for e in c.edges)
        if not graph.spans:
            issues.append("normals do not span; polytope unbounded or degenerate")
        elif (rays or not corners) and (ray := self._recession_ray()):
            issues.append(f"unbounded: recession direction {ray}")
        if not corners:
            issues.append("no vertices; polytope empty or unbounded")
        for c in corners:
            if c.det is None:
                issues.append(
                    f"vertex {c.vertex.point}: "
                    f"{len(c.vertex.tight)} facets meet (not simple)"
                )
            elif abs(c.det) != 1:
                issues.append(
                    f"vertex {c.vertex.point}: "
                    f"normal determinant {c.det} (not unimodular)"
                )
        if corners:
            # the vertices of a face are joined by its bounded edges, so the
            # face's affine dimension is the rank of their directions; a
            # simple corner with n bounded edges spans every face through it
            bounded = [
                (c, e) for c in corners for e in c.edges if e.off is not None
            ]
            full = [
                c for c in corners
                if c.det and all(e.off is not None for e in c.edges)
            ]
            if not full and _rank([e.direction for _, e in bounded], n) < n:
                issues.append("polytope is not full-dimensional (empty interior)")
            touched = {j for c in corners for j in c.vertex.tight}
            spanned = {j for c in full for j in c.vertex.tight}
            for j, f in enumerate(self.facets):
                if j not in touched:
                    issues.append(f"facet {j}: redundant (touches no vertex)")
                elif j not in spanned and _rank(
                    [
                        e.direction
                        for c, e in bounded
                        if j in c.vertex.tight and not _dot(f.normal, e.direction)
                    ],
                    n,
                ) < n - 1:
                    issues.append(
                        f"facet {j}: tight set has dimension < {n - 1} (redundant)"
                    )
        return ValidationReport(not issues, tuple(issues), len(corners))

    def _recession_ray(self) -> tuple[Fraction, ...] | None:
        """The first edge direction of the recession cone {d : <v_j, d> >= 0},
        whose apex has every facet tight, scaled so that its last nonzero
        entry is +-1; None when the cone is the origin.  Edges come in the
        order of the (n-1)-subsets of facets that cut them out, so this is
        the ray an exhaustive scan of those subsets meets first.  It runs
        only when the walk found a ray or no vertex."""
        directions = self._edge_directions(range(self.nfacets))[1]
        if not directions:
            return None
        d = directions[0]
        last = next(abs(x) for x in reversed(d) if x)
        return tuple(Fraction(x, last) for x in d)

    def require_valid(self) -> None:
        report = self.validate()
        if not report.ok:
            raise InvalidPolytope("; ".join(report.issues))

    # -- Fano heuristic ---------------------------------------------------------

    def fano_type(self) -> str:
        """Strict convexity of the anticanonical support function across the
        walls of the normal fan.

        Each edge of the polytope from vertex p is a wall: take the linear
        functional m_p equal to 1 on the normals at p and evaluate it on
        the normal of the facet that blocks the edge.  With inward normals,
        values < 1 at every wall mean the function is strictly convex
        (fano); equality somewhere means nef-only; a value > 1 breaks
        convexity (neither).  The orientation is fixed by the catalog:
        projective spaces and one-point blow-ups are fano, the second
        Hirzebruch surface is nef-only.
        """
        if self._fano_type is None:
            self.require_valid()
            top = max(self._vertex_graph().walls)
            self._fano_type = (
                "neither" if top > 1 else "nef-only" if top == 1 else "fano"
            )
        return self._fano_type

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
                    tuple(_json_int(x, "normal entry") for x in fd["normal"]),
                    json_fraction(fd["constant"], "facet constant"),
                    fd.get("name", f"ell{j}"),
                )
                for j, fd in enumerate(d["facets"])
            ]
            p = cls(_json_int(d["dim"], "dim"), facets)
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


def _reduced(x: list[int], g: int) -> tuple[tuple[int, ...], int]:
    """The point x / g as coprime numerators over a positive denominator."""
    h = gcd(g, *x) * (1 if g > 0 else -1)
    return tuple(v // h for v in x), g // h


def _rank(rows: list[tuple[int, ...]], n: int) -> int:
    return adapted_basis(rows, n)[0][-1] if rows else 0


@dataclass(frozen=True)
class BulkCoefficients:
    """Degree-2 bulk deformation data: one valuation-zero unit per facet."""

    values: tuple[NovikovScalar, ...]
    _leading: tuple[complex, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for j, c in enumerate(self.values):
            if c.is_zero() or c.valuation() != 0:
                raise InvalidPolytope(
                    f"bulk coefficient {j} must have valuation 0"
                )
        # read by every cascade of a grid scan
        object.__setattr__(self, "_leading", tuple(c.coeff_at(0) for c in self.values))

    @classmethod
    def ones(cls, m: int) -> "BulkCoefficients":
        return cls(tuple(NovikovScalar.one() for _ in range(m)))

    def leading(self) -> tuple[complex, ...]:
        return self._leading


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
                json_fraction(d["extra_T"], "extra_T"),
                tuple(_json_int(x, "monomial_z entry") for x in d["monomial_z"]),
                coeff,
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
        return CatalogEntry(MomentPolytope.from_inequalities(rows))
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
        return CatalogEntry(MomentPolytope.from_inequalities(rows))
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
        return CatalogEntry(MomentPolytope.from_inequalities(rows))
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
