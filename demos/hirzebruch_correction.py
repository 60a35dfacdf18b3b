"""
The Hirzebruch surface F_2 and its correction term
==================================================

F_2 is the first non-Fano case: one facet class carries a holomorphic
sphere of Chern number zero, and the naive facet-counting potential misses
its contribution.  The catalog ships the known correction, an extra
T^{2a} y2 monomial, turning the y2^{-1} coefficient into T^a (1 + T^{2a}).

With the correction in place the machinery finds four balanced fibers over
u = (3/4, 1/4) whose Hessian determinants are exactly {4T, 4T, -4T, -4T}.
"""

from fractions import Fraction

from toriclg import (
    build_potential,
    catalog,
    find_critical_points,
    render_poly,
    render_scalar,
    residue_report,
)

F = Fraction

entry = catalog("hirzebruch", 2, F(1, 2))
print("facets:")
for f in entry.polytope.facets:
    print("  ", f.normal, "+", f.constant)
print("fano type:", entry.polytope.fano_type())

naive = build_potential(entry.polytope, assume_fano=True)
fixed = build_potential(entry.polytope, corrections=entry.corrections)
print("naive potential:    PO =", render_poly(naive.poly))
print("corrected potential: PO =", render_poly(fixed.poly))

rep = find_critical_points(fixed)
u0 = tuple(map(str, rep.points[0].u))
print(f"\n{len(rep.points)} critical fibers, all over u = {u0}")
for p in rep.points:
    y1, y2 = p.y_local
    print("  ybar2 =", render_scalar(y2.truncate(F(3, 2))),
          "  ybar1 =", render_scalar(y1.truncate(F(3, 2))))

rr = residue_report(fixed, rep)
print("\nHessian determinants:")
for z in rr.z_values:
    print("  det =", render_scalar(z.truncate(F(2))))

print("\ntrace of 1/Z vanishes:", rr.trace_ok,
      f"(residual {rr.trace_residual:.2e})")
print("multiplicities:", rep.multiplicity_total(),
      "vs betti total", entry.polytope.total_betti())
