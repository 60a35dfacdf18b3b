"""Isolated-root solving for small complex Laurent polynomial systems.

Systems arrive as dictionaries mapping integer exponent vectors (possibly
negative) to complex coefficients.  Solutions are sought in the algebraic
torus, i.e. every coordinate nonzero, so each polynomial may be multiplied
by a monomial: stripping monomial content is an exact symmetry.

Input contract: every coefficient is read as the exact rational it is, a
float as a dyadic and a complex number as a Gaussian rational.  One power
of two scales each equation into Z[i][x], so the elimination below runs
without rounding.  A coefficient meant as 1/3 that arrives as the nearest
double is solved as that double.

Strategy: eliminate the last variable with Sylvester resultants of a pivot
equation against the others (fraction-free Bareiss determinants over
Z[i][x]) down to one eliminant in the first variable.  Its square-free
decomposition (Yun) gives factors with exponents; an exponent is the
multiplicity shared by the solutions over each root of its factor.  That
count holds for a single resultant, not for a resultant of resultants,
which carries extraneous factors: there no multiplicity is reported.  Exact
gcds run only where a gcd modulo a prime is not constant.  The equations
of every level are reduced modulo each factor, after splitting the factor
by gcds, so that a term vanishing on the fibre over the first coordinate
is dropped by an exact test; past it the fibre equations are evaluated at
numeric partial roots.  Only roots are numeric: those of the square-free
factors and of the reduced fibre equations, found from companion matrices
and polished by Newton's method on the original system.  Every numeric
point goes through one evaluation of the terms c x^a and one cut, a sum
that cancels to EVAL_REL of its term magnitudes is zero: it serves
substitution, fibre roots and polished roots.  A vanishing resultant, or a
fibre on which every equation of a level vanishes, signals a
positive-dimensional solution set and aborts the search.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import add

import numpy as np

from .config import get_config
from .errors import EliminationFailed, PositiveDimensionalInitialLocus, ToricLGError

CPoly = dict[tuple[int, ...], complex]
Gauss = tuple[int, int]  # a + b i
ZPoly = dict[tuple[int, ...], Gauss]

_ZERO: Gauss = (0, 0)

# the one cancellation cut of ``substitute``: a coefficient that cancels to
# this share of its term magnitudes at numeric values is zero.  It serves the
# fibre equations past the first level and the LTE levels in ``lte``, and as
# ``_is_root`` it accepts fibre roots (back substitution) and polished roots
EVAL_REL = 1e-6


def degree_in(p, i: int) -> int:
    return max((a[i] for a in p), default=0)


def _term_values(p: CPoly, values) -> list[tuple[tuple[int, ...], complex]]:
    """Each term c x^a of p, keyed by its exponent vector a, with the first
    len(values) variables fixed at values."""
    out = []
    for a, c in p.items():
        for x, e in zip(values, a):
            if e:
                c *= x ** e
        out.append((a, c))
    return out


def substitute(p: CPoly, values, rel: float = 0.0) -> CPoly:
    """Fix the first len(values) variables; the others keep their exponents
    as keys.  A coefficient that cancels to rel of the summed magnitude of
    its terms is dropped (rel = 0 drops exact zeros only); one whose terms
    are not all finite never is."""
    k = len(values)
    out: CPoly = {}
    mag: dict[tuple[int, ...], float] = {}
    for a, t in _term_values(p, values):
        out[a[k:]] = out.get(a[k:], 0j) + t
        mag[a[k:]] = mag.get(a[k:], 0.0) + abs(t)
    return {a: c for a, c in out.items() if abs(c) > rel * mag[a] or not math.isfinite(mag[a])}


def _require_finite(coeffs) -> None:
    """Refuse a NaN or infinite coefficient: it has no roots to find."""
    if not all(map(cmath.isfinite, coeffs)):
        raise ToricLGError("a polynomial to solve has a NaN or infinite coefficient")


def univariate_roots(p: dict[int, complex]) -> list[complex]:
    """Torus roots via the companion matrix.  Exact zero coefficients are
    dropped and the monomial content removed; no other cut is made.  A NaN
    or infinite coefficient raises ToricLGError."""
    _require_finite(p.values())
    p = {e: c for e, c in p.items() if c != 0}
    if not p:
        raise PositiveDimensionalInitialLocus("zero univariate polynomial")
    lo = min(p)
    hi = max(p)
    if hi == lo:
        return []
    coeffs = np.zeros(hi - lo + 1, dtype=complex)
    for e, c in p.items():
        coeffs[hi - e] = c  # highest degree first
    coeffs /= np.abs(coeffs).max()
    if hi - lo == 1:
        return [complex(-coeffs[1] / coeffs[0])]
    # the companion matrix that np.roots builds (no zero end coefficient to trim)
    companion = np.diag(np.ones(hi - lo - 1, dtype=complex), -1)
    companion[0] = -coeffs[1:] / coeffs[0]
    return [complex(r) for r in np.linalg.eigvals(companion)]


# -- exact polynomials over Z[i] -----------------------------------------------


def _gdiv(a: Gauss, b: Gauss) -> Gauss:
    """Exact quotient a / b in Z[i]."""
    n = b[0] * b[0] + b[1] * b[1]
    re, r1 = divmod(a[0] * b[0] + a[1] * b[1], n)
    im, r2 = divmod(a[1] * b[0] - a[0] * b[1], n)
    assert not (r1 or r2), "inexact division in Z[i]"
    return (re, im)


def _ggcd(a: Gauss, b: Gauss) -> Gauss:
    """Euclid in Z[i], each quotient rounded to the nearest Gaussian integer."""
    while b != _ZERO:
        n = b[0] * b[0] + b[1] * b[1]
        q0 = (2 * (a[0] * b[0] + a[1] * b[1]) + n) // (2 * n)
        q1 = (2 * (a[1] * b[0] - a[0] * b[1]) + n) // (2 * n)
        a, b = b, (a[0] - q0 * b[0] + q1 * b[1], a[1] - q0 * b[1] - q1 * b[0])
    return a


def _primitive(p: ZPoly) -> ZPoly:
    """p divided by its monomial content and its content in Z[i]."""
    if not p:
        return {}
    mins = [min(col) for col in zip(*p)]
    g = _ZERO
    for c in p.values():
        g = _ggcd(c, g)
    return {tuple(x - m for x, m in zip(a, mins)): _gdiv(c, g) for a, c in p.items()}


def exact_poly(p: CPoly) -> ZPoly:
    """p read exactly (floats as dyadic rationals) and scaled into Z[i]."""
    parts = {a: (Fraction(c.real), Fraction(c.imag)) for a, c in p.items() if c}
    den = math.lcm(*(x.denominator for c in parts.values() for x in c))
    return _primitive(
        {a: (int(re * den), int(im * den)) for a, (re, im) in parts.items()}
    )


def to_cpoly(p: ZPoly) -> CPoly:
    """Complex coefficients scaled so that the largest part is 1."""
    s = max(abs(x) for c in p.values() for x in c)
    return {a: complex(re / s, im / s) for a, (re, im) in p.items()}


def _mul(p: ZPoly, q: ZPoly) -> ZPoly:
    out: ZPoly = {}
    for a, (ar, ai) in p.items():
        for b, (br, bi) in q.items():
            k = tuple(map(add, a, b))
            cr, ci = out.get(k, _ZERO)
            out[k] = (cr + ar * br - ai * bi, ci + ar * bi + ai * br)
    return {k: c for k, c in out.items() if c != _ZERO}


def _sub(p: ZPoly, q: ZPoly) -> ZPoly:
    out = dict(p)
    for a, (re, im) in q.items():
        x, y = out.get(a, _ZERO)
        out[a] = (x - re, y - im)
        if out[a] == _ZERO:
            del out[a]
    return out


def _div(p: ZPoly, q: ZPoly) -> ZPoly:
    """Exact quotient p / q, by division on lexicographic leading terms."""
    lead = max(q)
    out: ZPoly = {}
    while p:
        top = max(p)
        e = tuple(x - y for x, y in zip(top, lead))
        out[e] = c = _gdiv(p[top], q[lead])
        p = _sub(p, _mul({e: c}, q))
    return out


def _bareiss(m: list[list[ZPoly]]) -> ZPoly:
    """Determinant, up to sign, by fraction-free elimination: every division
    by the previous pivot is exact."""
    n = len(m)
    prev: ZPoly | None = None
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return {}
            m[k], m[swap] = m[swap], m[k]
        piv, top = m[k][k], m[k]
        for row in m[k + 1:]:
            for j in range(k + 1, n):
                v = _mul(piv, row[j])
                if row[k] and top[j]:
                    v = _sub(v, _mul(row[k], top[j]))
                row[j] = _div(v, prev) if prev and v else v
        prev = piv
    return m[n - 1][n - 1]


def resultant_last(p: ZPoly, q: ZPoly) -> ZPoly:
    """Resultant of p and q in their last variable, an exact polynomial in
    the others with monomial and Z[i] content removed."""
    pc: list[ZPoly] = [{} for _ in range(degree_in(p, -1) + 1)]
    qc: list[ZPoly] = [{} for _ in range(degree_in(q, -1) + 1)]
    for poly, cs in ((p, pc), (q, qc)):
        for a, c in poly.items():
            cs[a[-1]][a[:-1]] = c
    dp, dq = len(pc) - 1, len(qc) - 1
    if dp == 0 or dq == 0:
        raise EliminationFailed("pivot does not involve the variable")
    rows = [[{}] * r + pc[::-1] + [{}] * (dq - 1 - r) for r in range(dq)]
    rows += [[{}] * r + qc[::-1] + [{}] * (dp - 1 - r) for r in range(dp)]
    return _primitive(_bareiss(rows))


# univariate polynomials keep the same representation, keys of length one


def _prem(f: ZPoly, g: ZPoly) -> ZPoly:
    """Pseudo-remainder lc(g)^k f mod g, by exact ring operations only."""
    lead = max(g)
    while f and max(f)[0] >= lead[0]:
        top = max(f)
        f = _sub(_mul(f, {(0,): g[lead]}), _mul({(top[0] - lead[0],): f[top]}, g))
    return f


# a prime 1 mod 4 and a square root of -1 modulo it: i -> _I maps Z[i] onto
# Z/_P, so a gcd of degree 0 there certifies coprimality over Q(i) and the
# exact gcds below are only run on polynomials that share a root
_P = 2**64 - 59
_I = next(r for g in range(2, 99) if (r := pow(g, _P // 4, _P)) ** 2 % _P == _P - 1)


def _coprime(f: ZPoly, g: ZPoly) -> bool:
    """True when univariate f and g certainly have no common root: their gcd
    modulo _P is constant and _P keeps the leading coefficient of f."""
    a, b = ([0] * (max(h, default=(0,))[0] + 1) for h in (f, g))
    for h, v in ((f, a), (g, b)):
        for (k,), (re, im) in h.items():
            v[k] = (re + im * _I) % _P
    if not a[-1]:
        return False
    while any(b):
        while not b[-1]:
            b.pop()
        inv = pow(b[-1], -1, _P)
        while len(a) >= len(b):
            q = a.pop() * inv % _P
            for j, c in enumerate(b[:-1], len(a) - len(b) + 1):
                a[j] = (a[j] - q * c) % _P
        a, b = b, a
    return len(a) == 1


def _gcd(f: ZPoly, g: ZPoly) -> ZPoly:
    """Primitive gcd of univariate polynomials, a unit when coprime."""
    if _coprime(f, g):
        return {(0,): (1, 0)}
    while g:
        f, g = g, _primitive(_prem(f, g))
    return _primitive(f)


def _deriv(f: ZPoly) -> ZPoly:
    return {(k - 1,): (k * re, k * im) for (k,), (re, im) in f.items() if k}


def squarefree_decomposition(f: ZPoly) -> list[tuple[ZPoly, int]]:
    """Yun's algorithm: pairwise coprime square-free factors, with their
    exponents, of a univariate f with nonzero constant term (the gcds drop
    monomial content), f = unit * prod(factor ** exponent)."""
    a = _gcd(f, _deriv(f))
    b, c = _div(f, a), _div(_deriv(f), a)
    out = []
    k = 1
    while max(b)[0] > 0:
        d = _sub(c, _deriv(b))
        a = _gcd(b, d)
        if max(a)[0] > 0:
            out.append((a, k))
        b, c, k = _div(b, a), _div(d, a), k + 1
    return out


def _split(factors: list[tuple[ZPoly, int]], coeffs: list[ZPoly]):
    """Refine the factors so that each coefficient vanishes either at every
    root of a factor or at none."""
    for c in coeffs:
        refined = []
        for f, e in factors:
            g = _gcd(f, c)
            if 0 < max(g)[0] < max(f)[0]:
                refined += [(g, e), (_div(f, g), e)]
            else:
                refined.append((f, e))
        factors = refined
    return factors


def _x0_groups(p: ZPoly) -> dict[tuple[int, ...], ZPoly]:
    """Coefficients of p as polynomials in the first variable, keyed by the
    exponents of the others."""
    groups: dict[tuple[int, ...], ZPoly] = {}
    for a, c in p.items():
        groups.setdefault(a[1:], {})[a[:1]] = c
    return groups


def _on_factor(p: ZPoly, f: ZPoly) -> ZPoly:
    """The terms of p whose coefficient in the first variable does not
    vanish on the roots of f."""
    keep = {k for k, c in _x0_groups(p).items() if _prem(c, f)}
    return {a: c for a, c in p.items() if a[1:] in keep}


# -- system layer ---------------------------------------------------------------


@dataclass
class SystemSolution:
    roots: list[tuple[complex, ...]]
    eliminant: list[complex] | None  # monic in variable 0, degree 0 upward
    # per root: the exponent of its eliminant factor split evenly over the
    # roots with the same first coordinate, None when it does not split or
    # the eliminant came from resultants of resultants
    multiplicities: list[int | None]


def _eliminate(
    polys: list[ZPoly], nvars: int
) -> tuple[list[list[ZPoly]], ZPoly, int | None]:
    """Resultant cascade: for k = 1 .. nvars-1 the equations involving
    variable k once k+1.. are eliminated, the eliminant in variable 0, and
    the factor its exponents miss where an equation alone involves its
    variable (its resultant with q would be q to the power of its degree).
    The factor is None when a resultant is taken of a resultant, or the
    eliminant is the gcd of several: then it carries extraneous factors and
    its exponents count nothing."""
    levels: list[list[ZPoly]] = []
    weight: int | None = 1
    eqs = [(p, False) for p in polys]  # (equation, is it a resultant)
    for k in range(nvars - 1, 0, -1):
        involving = [(p, r) for p, r in eqs if degree_in(p, k) > 0]
        eqs = [({a[:-1]: c for a, c in p.items()}, r) for p, r in eqs if degree_in(p, k) == 0]
        if not involving:
            raise PositiveDimensionalInitialLocus(
                f"no equation involves variable {k + 1}"
            )
        if len(involving) == 1 and not eqs:
            raise PositiveDimensionalInitialLocus(
                "fewer independent equations than variables"
            )
        if len(involving) == 1:
            weight = weight and weight * degree_in(involving[0][0], k)
        else:
            pivot = min(involving, key=lambda pr: degree_in(pr[0], k))
            for q in involving:
                if q is not pivot:
                    res = resultant_last(pivot[0], q[0])
                    if not res:
                        raise PositiveDimensionalInitialLocus(
                            "vanishing resultant: common positive-dimensional component"
                        )
                    weight = None if pivot[1] or q[1] else weight
                    eqs.append((res, True))
        levels.append([p for p, _ in involving])
    levels.reverse()
    elim: ZPoly = {}
    for p, _ in eqs:
        elim = _gcd(elim, p)
    return levels, elim, weight if len(eqs) == 1 else None


def _is_root(p: CPoly, point: tuple[complex, ...]) -> bool:
    return not substitute(p, point, EVAL_REL)


def _fibre_roots(unis: list[CPoly]) -> list[complex]:
    """Common torus roots of the one-variable fibre equations: the roots of
    the lowest degree nonzero one at which the others vanish."""
    unis = sorted((u for u in unis if u), key=lambda u: max(u)[0] - min(u)[0])
    if not unis:
        raise PositiveDimensionalInitialLocus(
            "all equations vanish identically on this fibre"
        )
    roots = univariate_roots({a[0]: c for a, c in unis[0].items()})
    return [r for r in roots if all(_is_root(u, (r,)) for u in unis[1:])]


def _newton_polish(
    polys: list[CPoly], point: tuple[complex, ...], iterations: int = 25
) -> tuple[complex, ...]:
    """Newton's method on the terms T_a of each equation: f_i = sum T_a, its
    scale sum |T_a| and d f_i / d x_j = sum a_j T_a / x_j.  It stops at
    1e-15 of the scale, where doubles stop improving.  A point with a zero
    coordinate or with terms past the finite range returns the seed."""
    x = list(point)
    for _ in range(iterations):
        try:
            terms = [_term_values(p, x) for p in polys]
            jac = [[sum(a[j] * t for a, t in ts) / v for j, v in enumerate(x)] for ts in terms]
            f = [sum(t for _, t in ts) for ts in terms]
            scale = max(sum(abs(t) for _, t in ts) for ts in terms)
        except (OverflowError, ZeroDivisionError):
            return point
        if not math.isfinite(scale):
            return point
        if max(map(abs, f)) < 1e-15 * max(scale, 1e-30):
            break
        try:
            step = np.linalg.solve(np.array(jac), np.array(f))
        except np.linalg.LinAlgError:
            break
        x = (np.array(x) - step).tolist()
        if not all(v and cmath.isfinite(v) for v in x):
            return point
    return tuple(x)


def solve_torus_system(polys: list[CPoly], nvars: int) -> SystemSolution:
    """All isolated torus solutions of a system of Laurent polynomials,
    with the multiplicities the exact eliminant assigns them.

    Raises PositiveDimensionalInitialLocus when a positive-dimensional
    component is detected, and ToricLGError on a NaN or infinite
    coefficient.
    """
    _require_finite(c for p in polys for c in p.values())
    # exact reading keeps the nonzero coefficients: test their count first
    nonzero = [sum(map(bool, p.values())) for p in polys]
    if 0 in nonzero:
        raise PositiveDimensionalInitialLocus("identically zero equation")
    if 1 in nonzero:
        return SystemSolution([], None, [])  # single monomial: no torus zeros
    exact = [exact_poly(p) for p in polys]
    levels, elim, weight = _eliminate(exact, nvars)
    # a monomial coefficient vanishes at no root of a factor: the roots are nonzero
    groups = [c for level in levels for p in level for c in _x0_groups(p).values()]
    coeffs = [c for c in groups if len(c) > 1]
    cleared = [to_cpoly(p) for p in exact]
    eps = get_config().eps_sol
    found: list[tuple[tuple[complex, ...], complex, int]] = []  # point, x0, exponent
    for f, e in _split(squarefree_decomposition(elim), coeffs):
        fibre_eqs = [
            [to_cpoly(q) for q in (_on_factor(p, f) for p in level) if q]
            for level in levels
        ]
        for x0 in univariate_roots({a[0]: c for a, c in to_cpoly(f).items()}):
            partials = [(x0,)]
            for level, eqs in enumerate(fibre_eqs):
                # past x0 the partial roots are numeric: a coefficient that
                # cancels to roundoff there is zero
                rel = EVAL_REL if level else 0.0
                partials = [
                    part + (r,)
                    for part in partials
                    for r in _fibre_roots([substitute(q, part, rel) for q in eqs])
                ]
            for cand in partials:
                point = _newton_polish(cleared, cand)
                if all(_is_root(p, point) for p in cleared) and not any(
                    all(abs(a - b) <= eps * max(1.0, abs(b)) for a, b in zip(point, seen))
                    for seen, _, _ in found
                ):
                    found.append((point, x0, e * weight if weight else 0))
    found.sort(key=lambda t: tuple((round(x.real, 9), round(x.imag, 9)) for x in t[0]))
    share = Counter(x0 for _, x0, _ in found)
    el = to_cpoly(elim)
    top = max(el)[0]
    return SystemSolution(
        [point for point, _, _ in found],
        [el.get((k,), 0j) / el[(top,)] for k in range(top + 1)],
        [m // share[x0] if m and m % share[x0] == 0 else None for _, x0, m in found],
    )
