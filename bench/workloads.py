"""Workload definitions and the seeded input generator.

An item is one call of the command line front end: ``analyze`` on one
polytope, or one ``lte --grid`` scan.  Polytopes either come from the
built-in catalog (passed as ``--catalog name:params``) or are generated
here from the seed and handed over as polytope JSON files with
``--assume-fano``.  The generator is self-contained on purpose: the
workloads must not move when the test helpers change.

Facet rows are ``(normal, constant)`` with ``<normal, u> + constant >= 0``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

Row = tuple[tuple[int, ...], Fraction]

WORKLOADS = ("analyze-small", "analyze-series", "lte-scan")

# monotone catalog entries: every critical point sits at one u
SMALL_CATALOG = (
    "simplex:1",
    "simplex:2",
    "simplex:3",
    "simplex:4",
    "blowup1:1/3",
    # known defect at the time the benchmark was written: 3 of 5 points in
    # equality mode, trace residual 1.66; it stays in and counts as failed
    "blowup2:1/3,1/3",
    "hirzebruch:1,1/3",
)

SERIES_CATALOG = (
    "blowup1:1/5",
    "blowup2:1/2,1/5",
    "hirzebruch:1,1/2",
    "hirzebruch:1,2/5",
    "hirzebruch:2,1/2",
    "hirzebruch:2,2/5",
)

_F = Fraction
_BOX3: tuple[Row, ...] = (
    ((1, 0, 0), _F(0)),
    ((0, 1, 0), _F(0)),
    ((0, 0, 1), _F(0)),
    ((-1, 0, 0), _F(1)),
    ((0, -1, 0), _F(3, 2)),
    ((0, 0, -1), _F(2)),
)
_SIMPLEX3: tuple[Row, ...] = (
    ((1, 0, 0), _F(0)),
    ((0, 1, 0), _F(0)),
    ((0, 0, 1), _F(0)),
    ((-1, -1, -1), _F(1)),
)

# fixed non-monotone polytopes given as files
SERIES_FIXED: tuple[tuple[str, tuple[Row, ...]], ...] = (
    ("box3-edge-cut", _BOX3 + (((1, 1, 0), _F(-1, 3)),)),
    ("box3-corner-cut", _BOX3 + (((1, 1, 1), _F(-1, 3)),)),
    ("blpt-cp3", _SIMPLEX3 + (((1, 1, 1), _F(-1, 3)),)),
    # Bl_2 CP^2 as a cut box: five points of valuation 3/4 exist, the
    # search returns two and a cell, so this item is incomplete
    (
        "bl2-box-reproducer",
        (
            ((1, 0), _F(0)),
            ((0, 1), _F(0)),
            ((-1, 0), _F(3, 2)),
            ((0, -1), _F(5, 2)),
            ((1, 1), _F(-3, 4)),
        ),
    ),
)

LTE_SCANS = (
    ("hirzebruch:2,1/2", 40),
    ("blowup2:1/2,1/5", 40),
    ("blowup2:1/2,1/4", 40),  # carries a balanced segment
    ("blowup1:1/5", 50),
    ("hirzebruch:1,2/5", 40),
    ("simplex:3", 12),
)

# per-seed counts of generated items
N_BOXES2, N_BOXES3, N_PRISMS = 12, 9, 9
N_CHOPPED = 1


@dataclass(frozen=True)
class Item:
    """One timed call.  ``rows`` is set for generated polytopes, which the
    pass writes to a JSON file during set-up; ``catalog`` otherwise."""

    id: str
    command: str  # "analyze" or "lte"
    catalog: str | None = None
    rows: tuple[Row, ...] | None = None
    grid: int | None = None


def rows_id(rows: tuple[Row, ...]) -> str:
    """Canonical text of a facet list; equal polytopes give equal ids."""
    return ";".join(
        ",".join(map(str, normal)) + ":" + str(c) for normal, c in sorted(rows)
    )


def polytope_json(rows: tuple[Row, ...]) -> dict:
    """Polytope file contents in the format ``--polytope`` reads."""
    return {
        "dim": len(rows[0][0]),
        "facets": [
            {"normal": list(normal), "constant": str(c), "name": f"ell{j}"}
            for j, (normal, c) in enumerate(rows)
        ],
        "corrections": [],
    }


# -- seeded generator -----------------------------------------------------------


def _side(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 4)))


def random_box(rng: random.Random, dim: int) -> tuple[Row, ...]:
    """[0, a_1] x ... x [0, a_dim] with random rational sides."""
    rows: list[Row] = []
    for i in range(dim):
        e = tuple(1 if k == i else 0 for k in range(dim))
        rows.append((e, Fraction(0)))
        rows.append((tuple(-x for x in e), _side(rng)))
    return tuple(rows)


def random_prism(rng: random.Random) -> tuple[Row, ...]:
    """CP^2 x CP^1: a triangle of random size times a random interval."""
    a, b = _side(rng), _side(rng)
    return (
        ((1, 0, 0), Fraction(0)),
        ((0, 1, 0), Fraction(0)),
        ((-1, -1, 0), a),
        ((0, 0, 1), Fraction(0)),
        ((0, 0, -1), b),
    )


_CHOP_SIDES = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3))
_CHOP_CUTS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))


def _solve2(r1: Row, r2: Row) -> tuple[Fraction, Fraction] | None:
    (a, b), c = r1
    (d, e), f = r2
    det = a * e - b * d
    if det == 0:
        return None
    # a x + b y = -c, d x + e y = -f
    return (Fraction(-c * e + b * f, det), Fraction(-a * f + c * d, det))


def _ell(row: Row, u) -> Fraction:
    normal, c = row
    return c + sum(n * x for n, x in zip(normal, u))


def polygon_vertices(rows: tuple[Row, ...]) -> list[tuple[tuple[Fraction, ...], tuple[int, int]]]:
    """Vertices of a polygon with the pair of facets through each."""
    out = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            u = _solve2(rows[i], rows[j])
            if u is not None and all(_ell(r, u) >= 0 for r in rows):
                out.append((u, (i, j)))
    return out


def _is_delzant_polygon(rows: tuple[Row, ...]) -> bool:
    verts = polygon_vertices(rows)
    if len(verts) != len(rows) or len({u for u, _ in verts}) != len(verts):
        return False
    for _, (i, j) in verts:
        (a, b), (d, e) = rows[i][0], rows[j][0]
        if abs(a * e - b * d) != 1:
            return False
    return True


def random_chopped_polygon(rng: random.Random) -> tuple[Row, ...]:
    """A box or triangle with one corner cut off.

    Each cut uses the sum of the two normals at a vertex, placed below the
    value that sum takes at every other vertex, so only that corner goes and
    the result stays Delzant.
    """
    while True:
        if rng.random() < 0.5:
            rows: tuple[Row, ...] = (
                ((1, 0), Fraction(0)),
                ((0, 1), Fraction(0)),
                ((-1, 0), rng.choice(_CHOP_SIDES)),
                ((0, -1), rng.choice(_CHOP_SIDES)),
            )
        else:
            rows = (
                ((1, 0), Fraction(0)),
                ((0, 1), Fraction(0)),
                ((-1, -1), rng.choice(_CHOP_SIDES)),
            )
        verts = polygon_vertices(rows)
        _, (i, j) = rng.choice(verts)
        (ni, ci), (nj, cj) = rows[i], rows[j]
        normal = (ni[0] + nj[0], ni[1] + nj[1])
        room = min(_ell(rows[i], w) + _ell(rows[j], w) for w, t in verts if t != (i, j))
        cut = (normal, ci + cj - room * rng.choice(_CHOP_CUTS))
        if room > 0 and _is_delzant_polygon(rows + (cut,)):
            return rows + (cut,)


# -- workload item lists ---------------------------------------------------------


def items(workload: str, seed: int) -> list[Item]:
    """The ordered input list of one pass; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "analyze-small":
        out = [Item(spec, "analyze", catalog=spec) for spec in SMALL_CATALOG]
        gen = (
            [random_box(rng, 2) for _ in range(N_BOXES2)]
            + [random_box(rng, 3) for _ in range(N_BOXES3)]
            + [random_prism(rng) for _ in range(N_PRISMS)]
        )
        out += [Item(rows_id(r), "analyze", rows=r) for r in gen]
    elif workload == "analyze-series":
        out = [Item(spec, "analyze", catalog=spec) for spec in SERIES_CATALOG]
        out += [Item(name, "analyze", rows=r) for name, r in SERIES_FIXED]
        out += [
            Item(rows_id(r), "analyze", rows=r)
            for r in (random_chopped_polygon(rng) for _ in range(N_CHOPPED))
        ]
    elif workload == "lte-scan":
        # the scans are fixed; the seed only sets their order
        out = [Item(f"{spec}@{g}", "lte", catalog=spec, grid=g) for spec, g in LTE_SCANS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(out)
    return out
