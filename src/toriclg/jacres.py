"""Residue pairing and the trace identity.

For a Morse potential the Jacobian ring splits over the critical points;
the residue pairing is diagonal with entry 1/Z at each point, where Z is
the determinant of the logarithmic Hessian.  The residue data of a lifted
point come from the Newton lift's final full-width system on its exponent
lattice (``tropical.LatticeSystem``): Z = T^(sum s_i) det J from the
log-Jacobian J by an expansion over minors, 1/Z by one unit inverse and the
critical value from one more weight row, all on dense arrays, with the
potential's constant term added at the end.  The residue report makes no
term evaluation of its own, and checks that the traces of the idempotents,
the 1/Z, sum to zero.  ``hessian_matrix`` gives the log-Hessian at any
point by sparse evaluation of the second log-derivatives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .config import get_config
from .errors import SingularHessian
# build_potential is not called here; bench/tracer.py binds it in this module
from .laurent import Potential, build_potential  # noqa: F401
from .novikov import NovikovScalar, format_fraction
from .tropical import CriticalPoint, CriticalReport


def hessian_matrix(potential: Potential, u, ys_local) -> list[list[NovikovScalar]]:
    """Logarithmic Hessian  theta_i theta_j PO = sum_a a_i a_j T_a  at a
    point given in the frame centered at u, each entry evaluated term by term
    on the frame-shifted potential."""
    g = potential.change_frame(u)
    n = len(ys_local)
    h = [[NovikovScalar.zero()] * n for _ in range(n)]
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        h[i][j] = h[j][i] = g.log_derivative(i).log_derivative(j).evaluate(ys_local)
    return h


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
