"""Command line front end.

Subcommands mirror the library layers: ``potential`` renders the
potential function, ``critical-points`` runs the full tropical search,
``lte`` answers balancing queries (per point or over a grid),
``residue-check`` prints the residue pairing report, ``betti`` counts
vertices, ``analyze`` chains everything, and ``catalog-list`` shows the
built-in polytopes.

Inputs come either from ``--catalog name:p1,p2`` (parameters parsed as
exact rationals: "1/3" or "0.4" both work, never floats) or from a JSON
polytope file via ``--polytope``.  Reports print as text by default and
as deterministic JSON with ``--format json``.

Exit codes: 0 success, 2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .config import get_config, update_config
from .errors import (
    CorrectionNotPositive,
    DimensionUnsupported,
    EliminationFailed,
    IntegralityFailure,
    InvalidPolytope,
    LevelUnderdetermined,
    NoConvergence,
    NotInLambdaZero,
    NotInterior,
    OutsideDomain,
    ParamOutOfRange,
    PositiveDimensionalInitialLocus,
    SingularHessian,
    SingularInitialJacobian,
    UnknownName,
    ZeroLeadingCoefficient,
)
from .jacres import residue_report, z_exactness
from .laurent import Potential, build_potential, render_poly
from .lte import balanced_positions, solve_lte
from .novikov import format_fraction, render_scalar
from .polytope import (
    CATALOG_SIGNATURES,
    Correction,
    MomentPolytope,
    catalog,
)
from .tropical import find_critical_points

_VALIDATION_ERRORS = (
    InvalidPolytope,
    UnknownName,
    ParamOutOfRange,
    CorrectionNotPositive,
    OutsideDomain,
    NotInterior,
    DimensionUnsupported,
    NotInLambdaZero,
    json.JSONDecodeError,
    OSError,
)
_NUMERICAL_ERRORS = (
    NoConvergence,
    EliminationFailed,
    SingularInitialJacobian,
    SingularHessian,
    PositiveDimensionalInitialLocus,
    LevelUnderdetermined,
    IntegralityFailure,
    ZeroLeadingCoefficient,
)

CONFIG_ENV = "TORICLG_CONFIG"


def parse_rational(text: str) -> Fraction:
    """Exact rational from "p/q", an integer, or a decimal literal."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def parse_point(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(x) for x in text.split(","))


def _load_env_config() -> None:
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return
    with open(path) as fh:
        data = json.load(fh)
    updates = {}
    if "truncation" in data:
        v = data["truncation"]
        updates["truncation_order"] = None if v is None else Fraction(str(v))
    for key in ("eps_coeff", "eps_sol", "eps_degenerate", "tol_zero"):
        if key in data:
            updates[key] = float(data[key])
    if updates:
        update_config(**updates)


def _resolve_polytope(args) -> tuple[MomentPolytope, tuple[Correction, ...]]:
    if bool(args.catalog) == bool(args.polytope):
        raise InvalidPolytope("give exactly one of --catalog or --polytope")
    if args.catalog:
        name, _, rest = args.catalog.partition(":")
        params = [parse_rational(x) for x in rest.split(",") if x.strip()]
        entry = catalog(name.strip(), *params)
        return entry.polytope, tuple(entry.corrections)
    with open(args.polytope) as fh:
        data = json.load(fh)
    return MomentPolytope.from_json_dict(data)


def _build_potential(args) -> Potential:
    p, corrections = _resolve_polytope(args)
    if getattr(args, "corrections", None):
        with open(args.corrections) as fh:
            data = json.load(fh)
        corrections = tuple(Correction.from_json_dict(d) for d in data)
    return build_potential(p, corrections=corrections, assume_fano=args.assume_fano)


def _poly_json(poly) -> list[dict]:
    return [
        {"exponents": list(a), "coeff": c.to_json_dict()}
        for a, c in poly.sorted_terms()
    ]


def _emit(args, doc: dict, text: str) -> int:
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(text)
    return 0


def _fmt_u(u) -> str:
    return "(" + ", ".join(format_fraction(x) for x in u) + ")"


def _fmt_z(z: complex) -> str:
    # display rounding only; emitted JSON keeps the raw values
    if abs(z.real) < 5e-13:
        z = complex(0.0, z.imag)
    if abs(z.imag) < 5e-13:
        z = complex(z.real, 0.0)
    if z.imag == 0:
        return f"{z.real:.6g}"
    return f"{z:.6g}"


# -- subcommands ----------------------------------------------------------------


def cmd_catalog_list(args) -> int:
    entries = [
        {"name": name, "signature": sig}
        for name, sig in sorted(CATALOG_SIGNATURES.items())
    ]
    text = "\n".join(f"{e['name']:<12} {e['signature']}" for e in entries)
    return _emit(args, {"catalog": entries}, text)


def cmd_betti(args) -> int:
    p, _ = _resolve_polytope(args)
    n = p.total_betti()
    return _emit(args, {"betti": n}, str(n))


def cmd_potential(args) -> int:
    pot = _build_potential(args)
    lines = [f"PO = {render_poly(pot.poly)}"]
    doc = {
        "dim": pot.polytope.dim,
        "facets": pot.polytope.nfacets,
        "terms": _poly_json(pot.poly),
    }
    if args.u is not None:
        local = pot.change_frame(args.u)
        lines.append(
            f"at u={_fmt_u(args.u)}: PO = {render_poly(local, 'ybar')}"
        )
        doc["frame_u"] = [format_fraction(x) for x in args.u]
        doc["terms_at_u"] = _poly_json(local)
    return _emit(args, doc, "\n".join(lines))


def _critical_text(report) -> str:
    lines = [f"critical points: {len(report.points)}"]
    for pt in report.points:
        root = ", ".join(_fmt_z(z) for z in pt.y_initial)
        tag = "nondegenerate" if pt.nondegenerate else "degenerate"
        mult = "?" if pt.multiplicity is None else str(pt.multiplicity)
        lines.append(f"  u={_fmt_u(pt.u)}  ybar0=({root})  mult={mult}  {tag}")
        if pt.y_local is not None:
            for i, y in enumerate(pt.y_local):
                lines.append(f"    ybar{i + 1} = {render_scalar(y)}")
    for cell in report.cells:
        extra = f" note: {cell.note}" if cell.note else ""
        lines.append(
            f"  cell dim={cell.dimension} through u={_fmt_u(cell.sample_u)}{extra}"
        )
    for rec in report.eliminants:
        coeffs = ", ".join(_fmt_z(c) for c in rec.coeffs)
        lines.append(f"  eliminant at u={_fmt_u(rec.u)}: [{coeffs}]")
    return "\n".join(lines)


def cmd_critical_points(args) -> int:
    pot = _build_potential(args)
    report = find_critical_points(pot, order=get_config().truncation_order)
    return _emit(args, report.to_json_dict(), _critical_text(report))


def cmd_lte(args) -> int:
    pot = _build_potential(args)
    if args.u is None and args.grid is None:
        raise InvalidPolytope("lte needs --u or --grid")
    if args.u is not None:
        res = solve_lte(pot, args.u)
        lines = [f"levels at u={_fmt_u(args.u)}:"]
        for lv in res.frame.levels[: res.frame.depth]:
            facets = ", ".join(str(j + 1) for j in lv.facet_indices)
            lines.append(
                f"  S={format_fraction(lv.value)}: facets [{facets}]"
                f" rank +{lv.new_rank}"
            )
        lines.append(f"status: {res.status}")
        for w in res.witnesses_y():
            lines.append(
                "  witness ybar=(" + ", ".join(_fmt_z(z) for z in w) + ")"
            )
        return _emit(args, res.to_json_dict(), "\n".join(lines))
    rows = balanced_positions(pot, args.grid)
    doc = {
        "grid": args.grid,
        "verdicts": [
            {"u": [format_fraction(x) for x in u], "status": s} for u, s in rows
        ],
    }
    balanced = [u for u, s in rows if s == "balanced"]
    shape = "x".join([str(args.grid)] * pot.polytope.dim)
    lines = [f"grid {shape}: {len(rows)} interior points"]
    lines += [f"  balanced at u={_fmt_u(u)}" for u in balanced]
    unknown = sum(1 for _, s in rows if s == "unknown")
    if unknown:
        lines.append(f"  ({unknown} points undetermined)")
    return _emit(args, doc, "\n".join(lines))


def cmd_residue_check(args) -> int:
    pot = _build_potential(args)
    report = find_critical_points(pot, order=get_config().truncation_order)
    res = residue_report(pot, report)
    lines = [f"exactness: {res.exactness}"]
    for pt, z, inv in zip(
        [p for p in report.points if p.y_local is not None],
        res.z_values,
        res.pairing_diag,
    ):
        lines.append(f"  u={_fmt_u(pt.u)}  Z = {render_scalar(z)}")
        lines.append(f"    <1,1> = {render_scalar(inv)}")
    if res.trace_ok is None:
        lines.append("trace check: skipped")
    else:
        lines.append(
            f"trace sum residual: {res.trace_residual:.3e}"
            f" -> {'ok' if res.trace_ok else 'FAIL'}"
        )
    lines.append(
        f"multiplicity count: {res.morse_total} vs betti {res.betti}"
        f" ({res.morse_mode}) -> {'ok' if res.morse_ok else 'FAIL'}"
    )
    for note in res.notes:
        lines.append(f"note: {note}")
    doc = {
        "critical": report.to_json_dict(),
        "residue": res.to_json_dict(),
    }
    return _emit(args, doc, "\n".join(lines))


def cmd_analyze(args) -> int:
    pot = _build_potential(args)
    p = pot.polytope
    validation = p.validate()
    fano_type = p.fano_type()
    report = find_critical_points(pot, order=get_config().truncation_order)
    res = residue_report(pot, report)
    doc = {
        "validation": {
            "ok": validation.ok,
            "issues": validation.issues,
            "vertices": validation.vertex_count,
        },
        "fano_type": fano_type,
        "betti": p.total_betti(),
        "potential": _poly_json(pot.poly),
        "critical": report.to_json_dict(),
        "residue": res.to_json_dict(),
    }
    lines = [
        f"polytope: dim {p.dim}, {p.nfacets} facets, "
        f"{validation.vertex_count} vertices, fano type: {fano_type}",
        f"PO = {render_poly(pot.poly)}",
        _critical_text(report),
        f"exactness: {res.exactness}",
        f"multiplicity count {res.morse_total} vs betti {res.betti}"
        f" ({res.morse_mode}) -> {'ok' if res.morse_ok else 'FAIL'}",
    ]
    if res.trace_ok is not None:
        lines.append(
            f"trace residual {res.trace_residual:.3e}"
            f" -> {'ok' if res.trace_ok else 'FAIL'}"
        )
    return _emit(args, doc, "\n".join(lines))


# -- wiring ----------------------------------------------------------------------


def _make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--catalog",
        help="built-in polytope, e.g. simplex:2 or hirzebruch:2,1/2",
    )
    common.add_argument("--polytope", help="path to a polytope JSON file")
    common.add_argument(
        "--corrections",
        help="path to a JSON list of correction terms (overrides catalog data)",
    )
    common.add_argument(
        "--assume-fano",
        action="store_true",
        help="suppress the missing-corrections warning for non-fano input",
    )
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    common.add_argument(
        "--truncation",
        type=parse_rational,
        default=None,
        help="working order E for series arithmetic (rational)",
    )

    parser = argparse.ArgumentParser(
        prog="toriclg",
        description="potential functions and balanced fibers of toric manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("catalog-list", parents=[common], help="list built-ins")
    sp.set_defaults(fn=cmd_catalog_list)

    sp = sub.add_parser("betti", parents=[common], help="count vertices")
    sp.set_defaults(fn=cmd_betti)

    sp = sub.add_parser("potential", parents=[common], help="render the potential")
    sp.add_argument("--u", type=parse_point, help="interior point for the local frame")
    sp.set_defaults(fn=cmd_potential)

    sp = sub.add_parser(
        "critical-points", parents=[common], help="find critical fibers"
    )
    sp.set_defaults(fn=cmd_critical_points)

    sp = sub.add_parser("lte", parents=[common], help="leading term equations")
    sp.add_argument("--u", type=parse_point, help="interior point to test")
    sp.add_argument("--grid", type=int, help="grid resolution for a scan")
    sp.set_defaults(fn=cmd_lte)

    sp = sub.add_parser(
        "residue-check", parents=[common], help="residue pairing identities"
    )
    sp.set_defaults(fn=cmd_residue_check)

    sp = sub.add_parser("analyze", parents=[common], help="full pipeline")
    sp.set_defaults(fn=cmd_analyze)
    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        _load_env_config()
        if args.truncation is not None:
            update_config(truncation_order=args.truncation)
        return args.fn(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except _VALIDATION_ERRORS as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
