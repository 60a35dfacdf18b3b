"""
Projective spaces: potentials, balanced fibers, eigenvalues
===========================================================

The n-simplex is the moment polytope of complex projective n-space.  Its
potential has n+1 terms, one per facet, and the balanced fiber sits over
the barycenter with holonomies running through the (n+1)st roots of unity.
"""

from fractions import Fraction

from toriclg import (
    NovikovScalar,
    build_potential,
    catalog,
    find_critical_points,
    render_poly,
    render_scalar,
    residue_report,
)

for n in (1, 2, 3, 4):
    entry = catalog("simplex", n)
    pot = build_potential(entry.polytope)
    print(f"--- CP^{n} ---")
    print("PO =", render_poly(pot.poly))

    rep = find_critical_points(pot)
    u0 = tuple(map(str, rep.points[0].u))
    print(f"{len(rep.points)} critical fibers, all over u = {u0}")
    for p in rep.points:
        y = p.y_absolute()[0]
        print("  y_i =", render_scalar(y), " (shared by every coordinate)")

    # each critical value is an eigenvalue of quantum multiplication by c1:
    # (n+1) zeta^k T^{1/(n+1)}, so its (n+1)st power is (n+1)^{n+1} T
    rr = residue_report(pot, rep)
    lead = rr.critical_values[0].leading()[1]
    power = lead ** (n + 1)
    print(f"first critical value: {render_scalar(rr.critical_values[0])}")
    print(f"  (value)^{n+1} coefficient = {power.real:.6f} "
          f"(expect {(n + 1) ** (n + 1)})")
    print("trace of 1/Z vanishes:", rr.trace_ok)

    # the point with y_i = zeta T^{1/(n+1)} has Z = (n+1) zeta^n T^{n/(n+1)},
    # and the basis built from powers of the hyperplane class is self-dual:
    # sum_zeta zeta^m / Z * T^{m/(n+1)} is 1 for m = n and 0 for other m
    zetas = [p.y_initial[0] for p in rep.points]
    z_err = max(
        (z - NovikovScalar.monomial(Fraction(n, n + 1), (n + 1) * zeta**n)).max_abs_coeff()
        for z, zeta in zip(rr.z_values, zetas)
    )
    pair_err = 0.0
    for m in range(2 * n + 1):
        s = sum(
            (inv * zeta**m for inv, zeta in zip(rr.pairing_diag, zetas)),
            NovikovScalar.zero(),
        ).shift(Fraction(m, n + 1))
        pair_err = max(pair_err, (s - (1.0 if m == n else 0.0)).max_abs_coeff())
    print(f"residue pairing vs closed form: max error {z_err:.2e} in Z, "
          f"{pair_err:.2e} in the pairing")
    print()

# the k=0 fiber of CP^2 in full: y1 = y2 = T^{1/3}
pot = build_potential(catalog("simplex", 2).polytope)
rep = find_critical_points(pot)
real = next(p for p in rep.points if abs(p.y_initial[0] - 1) < 1e-9)
print("CP^2 real fiber, absolute coordinates:")
for y in real.y_absolute():
    print("  ", render_scalar(y))
