"""Residue pairing and quantum-cohomology sanity identities.

For a Morse potential the Jacobian ring splits over the critical points;
the residue pairing is diagonal with entry 1/Z at each point, where Z is
the determinant of the logarithmic Hessian.  The residue data of a lifted
point come from the Newton lift's final full-width system on its exponent
lattice (``tropical.LatticeSystem``): Z = T^(sum s_i) det J from the
log-Jacobian J by an expansion over minors, 1/Z by one unit inverse and the
critical value from one more weight row, all on dense arrays, with the
potential's constant term added at the end.  The residue report makes no
term evaluation of its own.  ``hessian_matrix`` at any given point
evaluates on the same kind of lattice.  Two checks fall out at desk scale:
the traces of the idempotents sum to zero, and on projective space the
basis built from powers of the hyperplane class is exactly Poincare dual to
itself.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .config import get_config
from .errors import SingularHessian
from .laurent import Potential, build_potential
from .novikov import INF, NovikovScalar, format_fraction
from .polytope import catalog
from .tropical import CriticalPoint, CriticalReport, _Lattice, _scalar, _sums, _term_arrays


def hessian_matrix(potential: Potential, u, ys_local) -> list[list[NovikovScalar]]:
    """Logarithmic Hessian  theta_i theta_j PO = sum_a a_i a_j T_a  at a
    point given in the frame centered at u by scalars of valuation 0, from
    one evaluation of the terms on an exponent lattice at y = y0 (1 + x).
    Entry (i, j) is known modulo T^(m + t), m the least leading power among
    its terms and t the least truncation order of the ys (the configured
    order when they are exact), capped as in the lift."""
    if any(y.valuation() != 0 for y in ys_local):
        raise ValueError("the point needs coordinates of valuation 0 in the frame at u")
    order = min(
        (y.trunc for y in ys_local if y.trunc is not None),
        default=get_config().truncation_order,
    )
    y0 = [y.coeff_at(0) for y in ys_local]
    lat = _Lattice(potential, u, y0, order, [y.lattice()[0] for y in ys_local])
    x = np.zeros((len(y0), lat.size), complex)
    for row, y, c in zip(x, ys_local, y0):
        d, es, cs = y.lattice()
        ks = np.array(es) * (lat.den // d)
        keep = ks < lat.size
        row[ks[keep]] = np.array(cs)[keep] / c
    x[:, 0] -= 1
    sums = _sums(lat, _term_arrays(lat, x, lat.size), lat.size)
    n = len(y0)
    h = [[NovikovScalar.zero()] * n for _ in range(n)]
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        m = min((p for p, a in zip(lat.place, lat.exps) if a[i] and a[j]), default=None)
        if m is not None:
            row = sums[1 + i * (n + 1) + 1 + j, m : m + lat.size]
            h[i][j] = h[j][i] = _scalar(row, lat.den, m + lat.low)
    return h


def novikov_det(m: list[list[NovikovScalar]]) -> NovikovScalar:
    """Determinant by cofactor expansion; fine for the small sizes here."""
    n = len(m)
    if n == 0:
        return NovikovScalar.one()
    if n == 1:
        return m[0][0]
    total = NovikovScalar.zero()
    for j in range(n):
        entry = m[0][j]
        if entry.is_zero():
            continue
        minor = [
            [m[r][c] for c in range(n) if c != j] for r in range(1, n)
        ]
        term = entry * novikov_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def z_value(potential: Potential, point: CriticalPoint) -> NovikovScalar:
    """Hessian determinant at a lifted critical point, from the lift's final
    system."""
    if point.system is None:
        raise SingularHessian(
            "no series solution stored; the point was degenerate at leading order"
        )
    z = point.system.z()
    if z.is_zero():
        raise SingularHessian(f"Hessian determinant vanishes at u={point.u}")
    return z


def z_exactness(potential: Potential) -> str:
    """How far the Hessian determinant can be trusted as the quantum Euler
    class: exact for surfaces and for nef spaces with facet-degree bulk,
    leading-order only otherwise."""
    if potential.polytope.dim == 2:
        return "surface"
    if potential.polytope.fano_type() in ("fano", "nef-only"):
        return "nef-deg2"
    return "leading-order-only"


@dataclass
class ResidueReport:
    z_values: list[NovikovScalar]
    critical_values: list[NovikovScalar]
    pairing_diag: list[NovikovScalar]
    trace_sum: NovikovScalar | None
    trace_ok: bool | None
    trace_residual: float | None
    morse_total: int | None
    betti: int
    morse_mode: str  # "equality" | "lower-bound"
    morse_ok: bool
    exactness: str
    notes: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "z_values": [z.to_json_dict() for z in self.z_values],
            "critical_values": [v.to_json_dict() for v in self.critical_values],
            "pairing_diag": [p.to_json_dict() for p in self.pairing_diag],
            "trace_sum": None if self.trace_sum is None else self.trace_sum.to_json_dict(),
            "trace_ok": self.trace_ok,
            "trace_residual": self.trace_residual,
            "morse_total": self.morse_total,
            "betti": self.betti,
            "morse_mode": self.morse_mode,
            "morse_ok": self.morse_ok,
            "exactness": self.exactness,
            "notes": self.notes,
        }


def morse_count_check(
    potential: Potential, report: CriticalReport
) -> tuple[bool, int | None, int, str]:
    """Sum of multiplicities against the Betti number of the ambient space.
    Equality is expected only when every candidate resolved into isolated
    points with known multiplicity."""
    betti = potential.polytope.total_betti()
    total = report.multiplicity_total()
    exhaustive = not report.cells and total is not None
    if exhaustive:
        return total == betti, total, betti, "equality"
    known = sum(p.multiplicity or 0 for p in report.points)
    return known <= betti, known, betti, "lower-bound"


def residue_report(
    potential: Potential, report: CriticalReport
) -> ResidueReport:
    cfg = get_config()
    notes: list[str] = []
    zs: list[NovikovScalar] = []
    values: list[NovikovScalar] = []
    inv: list[NovikovScalar] = []
    all_lifted = bool(report.points)
    constant = potential.poly.terms.get((0,) * potential.polytope.dim)
    for pt in report.points:
        if pt.y_local is None:
            all_lifted = False
            why = "did not lift" if pt.nondegenerate else "is degenerate"
            notes.append(
                f"point at u={tuple(map(format_fraction, pt.u))} {why}; "
                "no residue data"
            )
            continue
        zs.append(z_value(potential, pt))
        inv.append(pt.system.z_inverse())
        value = pt.system.critical_value()
        values.append(value + constant if constant is not None else value)
    trace_sum = None
    trace_ok: bool | None = None
    trace_residual: float | None = None
    if all_lifted and not report.cells and inv:
        s = sum(inv, NovikovScalar.zero())
        scale = max(t.max_abs_coeff() for t in inv)
        trace_residual = s.max_abs_coeff() / max(scale, 1e-30)
        trace_ok = s.is_zero() or trace_residual <= cfg.tol_zero
        cut = cfg.tol_zero * scale  # the written sum leaves out rounding residue
        trace_sum = NovikovScalar(((e, c) for e, c in s.terms if abs(c) > cut), s.trunc)
    elif report.cells:
        notes.append("positive-dimensional candidate cells: trace check skipped")
    elif report.points and not all_lifted:
        notes.append("degenerate or unlifted points present: trace check skipped")
    else:
        notes.append("no critical points found: trace check skipped")
    morse_ok, total, betti, mode = morse_count_check(potential, report)
    return ResidueReport(
        z_values=zs,
        critical_values=values,
        pairing_diag=inv,
        trace_sum=trace_sum,
        trace_ok=trace_ok,
        trace_residual=trace_residual,
        morse_total=total,
        betti=betti,
        morse_mode=mode,
        morse_ok=morse_ok,
        exactness=z_exactness(potential),
        notes=notes,
    )


def z_valuation_consistency(potential: Potential, point: CriticalPoint) -> bool:
    """Cross-check the valuation of the Hessian determinant against the
    assignment bound from the entry valuations.

    The determinant valuation can never drop below the minimum over
    permutations of the summed entry valuations; when the leading
    coefficients along the minimizing permutations do not cancel, the two
    agree exactly."""
    h = hessian_matrix(potential, point.u, point.y_local)
    n = len(h)
    vals = [[e.valuation() for e in row] for row in h]
    best = INF
    lead_det = 0j
    for perm in itertools.permutations(range(n)):
        s = sum(vals[i][perm[i]] for i in range(n))
        if s < best:
            best = s
            lead_det = 0j
        if s == best and s != INF:
            sign = _perm_sign(perm)
            prod = complex(sign)
            for i in range(n):
                prod *= h[i][perm[i]].coeff_at(vals[i][perm[i]])
            lead_det += prod
    z = novikov_det(h)
    if z.is_zero() or best == INF:
        return False
    if abs(lead_det) > 1e-9:
        return z.valuation() == best
    return z.valuation() >= best


def _perm_sign(perm: tuple[int, ...]) -> int:
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return -1 if inversions % 2 else 1


# -- projective space duality -------------------------------------------------


@dataclass
class DualityReport:
    n: int
    z_ok: bool
    pairing_ok: bool
    max_error: float
    z_values: list[NovikovScalar]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "z_ok": self.z_ok,
            "pairing_ok": self.pairing_ok,
            "max_error": self.max_error,
            "z_values": [z.to_json_dict() for z in self.z_values],
        }


def cpn_duality(n: int, tol: float = 1e-9) -> DualityReport:
    """Self-duality of the hyperplane-power basis on projective n-space.

    The critical points are known in closed form, so everything here is
    exact Novikov arithmetic: y_i = T^{1/(n+1)} zeta^k with zeta a
    primitive (n+1)-st root of unity.  The basis element built from the
    degree-2l class pairs to 1 against the one from degree 2(n-l) and to
    0 against every other.
    """
    if n < 1 or n > 6:
        raise ValueError("duality check supports 1 <= n <= 6")
    entry = catalog("simplex", n)
    pot = build_potential(entry.polytope)
    um = tuple(Fraction(1, n + 1) for _ in range(n))
    zeta = cmath.exp(2j * cmath.pi / (n + 1))
    points_local = [
        tuple(NovikovScalar.from_number(zeta ** k) for _ in range(n))
        for k in range(n + 1)
    ]
    zs = [
        novikov_det(hessian_matrix(pot, um, ys)) for ys in points_local
    ]
    max_err = 0.0
    z_ok = True
    for k, z in enumerate(zs):
        expect = NovikovScalar.monomial(
            Fraction(n, n + 1), (n + 1) * zeta ** (k * n)
        )
        diff = (z - expect).max_abs_coeff()
        max_err = max(max_err, diff)
        if diff > tol:
            z_ok = False
    inv = [z.invert() for z in zs]
    pairing_ok = True
    for a in range(n + 1):
        for b in range(n + 1):
            s = NovikovScalar.zero()
            for k in range(n + 1):
                w = (zeta ** (k * a)) * (zeta ** (k * b))
                s = s + inv[k] * NovikovScalar.from_number(w)
            s = s.shift(Fraction(a + b, n + 1))
            expect = 1.0 if a + b == n else 0.0
            err = (s - NovikovScalar.from_number(expect)).max_abs_coeff()
            max_err = max(max_err, err)
            if err > tol:
                pairing_ok = False
    return DualityReport(
        n=n, z_ok=z_ok, pairing_ok=pairing_ok, max_error=max_err, z_values=zs
    )
