"""Output checks and fingerprints for one item.

Each check returns a list of problems, split in two kinds:

* ``failed``: the item did not produce a certified answer.  Every problem
  counts here, including the ones the program reports about itself
  (``morse_ok`` or ``trace_ok`` false in equality mode).
* ``wrong``: the output contradicts an independent check: the call
  crashed or exited nonzero, the JSON does not round-trip, a residual is
  below the truncation order, or the program certifies a count or a trace
  that a recount from the emitted data does not reproduce.  A wrong item
  makes the whole run incorrect; a failure the program owns up to does
  not.

The Betti recount, the trace recomputation and the round-trip check use
only the emitted JSON and the facet inequalities.  The LTE checks ask the
library's tropical stage about the grid points, as the specification of
the ``lte`` verdicts refers to it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction

COEFF_REL = 1e-9  # fingerprint coefficient tolerance, relative to the series scale


class Verdict:
    def __init__(self) -> None:
        self.failed: list[str] = []
        self.wrong: list[str] = []
        self.complete = False

    def fail(self, why: str, wrong: bool = False) -> None:
        self.failed.append(why)
        if wrong:
            self.wrong.append(why)


# -- independent recounts ---------------------------------------------------------


def _solve(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """Unique solution of a square rational system, or None."""
    n = len(a)
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


def vertex_count(rows) -> int:
    """Vertices of {u : <v_j, u> + c_j >= 0}, which is the total Betti number
    of a smooth projective toric manifold."""
    rows = [(tuple(map(Fraction, v)), Fraction(c)) for v, c in rows]
    n = len(rows[0][0])
    seen = set()
    for subset in itertools.combinations(rows, n):
        u = _solve([list(v) for v, _ in subset], [-c for _, c in subset])
        if u is None:
            continue
        if all(c + sum(x * y for x, y in zip(v, u)) >= 0 for v, c in rows):
            seen.add(tuple(u))
    return len(seen)


def _scalar_terms(d: dict) -> list[tuple[Fraction, complex]]:
    return [(Fraction(t["exp"]), complex(t["re"], t["im"])) for t in d["terms"]]


def trace_residual(pairing_diag: list[dict]) -> float:
    """max |sum_p <1,1>_p| over the largest coefficient of any summand,
    from the JSON terms.  The sum is known only below the smallest
    truncation order of its summands."""
    known = min(
        (Fraction(d["trunc"]) for d in pairing_diag if d["trunc"] != "inf"),
        default=None,
    )
    total: dict[Fraction, complex] = {}
    scale = 0.0
    for d in pairing_diag:
        for e, c in _scalar_terms(d):
            scale = max(scale, abs(c))
            if known is None or e < known:
                total[e] = total.get(e, 0j) + c
    top = max((abs(c) for c in total.values()), default=0.0)
    return top / max(scale, 1e-30)


def round_trips(text: str) -> bool:
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


# -- analyze ----------------------------------------------------------------------------


def check_analyze(text: str, rc: int | None, rows) -> Verdict:
    """Oracles for one ``analyze --format json`` output; ``rows`` are the
    facet inequalities of the input polytope."""
    from toriclg import RunConfig

    cfg = RunConfig()  # the benchmark runs every item with the defaults
    v = Verdict()
    if rc != 0:
        v.fail(f"exit code {rc}", wrong=True)
        return v
    if not round_trips(text):
        v.fail("JSON does not re-serialize byte-identically", wrong=True)
    doc = json.loads(text)
    points = doc["critical"]["points"]
    res = doc["residue"]
    lifted = [p for p in points if "y_local" in p]
    for p in lifted:
        rv = p.get("residual_valuation")
        if rv != "inf" and (rv is None or Fraction(rv) < cfg.truncation_order):
            v.fail(f"point at u={p['u']} has residual valuation {rv}", wrong=True)

    betti = vertex_count(rows)
    if res["betti"] != betti:
        v.fail(f"reported betti {res['betti']}, recount {betti}", wrong=True)
    if res["morse_mode"] == "equality":
        mults = [p["multiplicity"] for p in points]
        total = None if None in mults else sum(mults)
        if not res["morse_ok"]:
            v.fail(f"multiplicity total {res['morse_total']} vs betti {res['betti']}")
        elif total != betti:
            v.fail(f"certified count, but the points sum to {total} of {betti}", wrong=True)
        if not res["trace_ok"]:
            v.fail(f"trace residual {res['trace_residual']}")
        elif len(res["pairing_diag"]) != len(lifted):
            v.fail("pairing entries do not match the lifted points", wrong=True)
        elif trace_residual(res["pairing_diag"]) > cfg.tol_zero:
            v.fail("certified trace, but the pairing does not sum to zero", wrong=True)
    else:
        known = sum(p["multiplicity"] or 0 for p in points)
        if not res["morse_ok"]:
            v.fail(f"lower bound {res['morse_total']} exceeds betti {res['betti']}")
        elif known > betti:
            v.fail(f"certified lower bound {known} exceeds betti {betti}", wrong=True)
    v.complete = (
        not v.failed
        and res["morse_mode"] == "equality"
        and bool(res["morse_ok"])
        and bool(res["trace_ok"])
    )
    return v


# -- lte ---------------------------------------------------------------------------------


def check_lte(text: str, rc: int | None, potential) -> Verdict:
    """Oracles for one ``lte --grid --format json`` output."""
    from toriclg.errors import PositiveDimensionalInitialLocus
    from toriclg.polysolve import solve_torus_system
    from toriclg.tropical import balanced_at, initial_system, tropical_candidates

    v = Verdict()
    if rc != 0:
        v.fail(f"exit code {rc}", wrong=True)
        return v
    if not round_trips(text):
        v.fail("JSON does not re-serialize byte-identically", wrong=True)
    doc = json.loads(text)
    verdicts = {tuple(map(Fraction, r["u"])): r["status"] for r in doc["verdicts"]}
    for u, status in verdicts.items():
        if status == "balanced" and not balanced_at(potential, u):
            v.fail(f"balanced at {u} but not tropically balanced", wrong=True)
    points, _ = tropical_candidates(potential)
    n = potential.polytope.dim
    for u in points:
        if u not in verdicts:
            continue
        polys, _ = initial_system(potential, u)
        try:
            roots = solve_torus_system(polys, n).roots
        except PositiveDimensionalInitialLocus:
            continue
        if roots and verdicts[u] != "balanced":
            v.fail(f"initial system has a torus root at {u} but verdict {verdicts[u]}", wrong=True)
    v.complete = not v.failed and "unknown" not in verdicts.values()
    return v


# -- fingerprints ------------------------------------------------------------------------


def _round(x: float) -> float:
    # 12 significant digits keep the reference file small and sit far
    # below the COEFF_REL tolerance
    return float(f"{x:.12g}")


def _coeffs(pairs) -> list:
    """Complex coefficients; a real one is stored as a plain number."""
    return [_round(re) if im == 0 else [_round(re), _round(im)] for re, im in pairs]


def _complex(z) -> complex:
    return complex(*z) if isinstance(z, list) else complex(z)


def _scalar_fp(d: dict, exact: list, coeffs: list) -> None:
    terms = d["terms"]
    exact.append([t["exp"] for t in terms] + [d["trunc"]])
    coeffs.append(_coeffs((t["re"], t["im"]) for t in terms))


def fingerprint(command: str, text: str) -> dict:
    """Exact data (u, multiplicities, verdicts, exponents) as a digest, and
    the float coefficients grouped per series for a tolerance compare."""
    doc = json.loads(text)
    exact: list = []
    coeffs: list = []
    if command == "lte":
        exact = [[r["u"], r["status"]] for r in doc["verdicts"]]
    else:
        crit, res = doc["critical"], doc["residue"]
        for p in crit["points"]:
            exact.append([p["u"], p["multiplicity"], p["nondegenerate"],
                          p.get("residual_valuation")])
            coeffs.append(_coeffs(p["y_initial"]))
            for y in p.get("y_local", []):
                _scalar_fp(y, exact, coeffs)
        exact.append([[c["dimension"], c["sample_u"]] for c in crit["cells"]])
        for e in crit["eliminants"]:
            exact.append(e["u"])
            coeffs.append(_coeffs(e["coeffs"]))
        for key in ("z_values", "critical_values", "pairing_diag"):
            for s in res[key]:
                _scalar_fp(s, exact, coeffs)
        exact.append([res[k] for k in ("morse_mode", "morse_total", "betti",
                                       "morse_ok", "trace_ok", "exactness")])
        exact.append([doc["fano_type"], doc["validation"]["ok"]])
    digest = hashlib.sha256(json.dumps(exact).encode()).hexdigest()
    return {"exact": digest, "coeffs": coeffs}


def same_output(fp: dict, ref: dict) -> bool:
    """Equal exact data and coefficients within COEFF_REL of each series'
    largest coefficient."""
    if fp["exact"] != ref["exact"] or len(fp["coeffs"]) != len(ref["coeffs"]):
        return False
    for a, b in zip(fp["coeffs"], ref["coeffs"]):
        if len(a) != len(b):
            return False
        scale = max((abs(_complex(z)) for z in b), default=0.0)
        for x, y in zip(a, b):
            if abs(_complex(x) - _complex(y)) > COEFF_REL * scale:
                return False
    return True
