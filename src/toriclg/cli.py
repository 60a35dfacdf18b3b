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

Exit codes: 0 success, 2 invalid input (a ValueError, UnknownName or
OSError), 3 numerical failure (any other ToricLGError).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import isfinite
from typing import Callable

from .config import configured
from .errors import InvalidPolytope, ToricLGError, UnknownName
from .jacres import residue_report
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

CONFIG_ENV = "TORICLG_CONFIG"


def parse_rational(text: str) -> Fraction:
    """Exact rational from "p/q", an integer, or a decimal literal."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def parse_point(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(x) for x in text.split(","))


def _positive_truncation(order: Fraction, option: str) -> Fraction:
    if order <= 0:
        raise ValueError(f"{option} must be positive, got {format_fraction(order)}")
    return order


def _config_number(data: dict, key: str):
    v = data[key]
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise ValueError(
            f"{CONFIG_ENV} {key} must be a number, got {type(v).__name__}"
        )
    return v


def _load_env_config() -> dict:
    """The configuration updates that the file named by TORICLG_CONFIG asks for."""
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(
            f"{CONFIG_ENV} file must hold a JSON object, got {type(data).__name__}"
        )
    tolerances = ("eps_coeff", "eps_sol", "eps_degenerate", "tol_zero")
    unknown = sorted(set(data) - {"truncation", *tolerances})
    if unknown:
        raise ValueError(
            f"{CONFIG_ENV} has unknown keys {', '.join(map(json.dumps, unknown))};"
            f" it reads truncation, {', '.join(tolerances)}"
        )
    updates = {}
    if "truncation" in data:
        updates["truncation_order"] = _positive_truncation(
            Fraction(str(_config_number(data, "truncation"))),
            f"{CONFIG_ENV} truncation",
        )
    for key in tolerances:
        if key in data:
            value = float(_config_number(data, key))
            if not (isfinite(value) and value >= 0):
                raise ValueError(
                    f"{CONFIG_ENV} {key} must be a finite non-negative number,"
                    f" got {json.dumps(data[key])}"
                )
            updates[key] = value
    return updates


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
        if not isinstance(data, list):
            raise InvalidPolytope(
                f"corrections JSON must be a list, got {type(data).__name__}"
            )
        corrections = tuple(Correction.from_json_dict(d) for d in data)
    return build_potential(p, corrections=corrections, assume_fano=args.assume_fano)


def _poly_json(poly) -> list[dict]:
    return [
        {"exponents": list(a), "coeff": c.to_json_dict()}
        for a, c in poly.sorted_terms()
    ]


_FLOAT_TEXT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_TERM_KEYS = {"exp", "im", "re"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _FLOAT_TEXT.get(text, text)


def json_text(doc) -> str:
    """The text of ``json.dumps(doc, indent=2, sort_keys=True)``, written in
    one pass into one list.

    The stdlib's ``indent`` forces its pure-Python encoder before Python
    3.13; this writer takes about a third of its time on the CLI's series
    reports.  Values are tested in the stdlib's order (str, None, bool, int,
    float, list or tuple, dict), so subclasses come out as the stdlib writes
    them, and anything else raises TypeError.  Dict keys must be str, the
    only keys the CLI writes.  A Novikov term ``{"exp": str, "im": float,
    "re": float}`` is written as one string.
    """
    out: list[str] = []
    _write(doc, "\n", out.append)
    return "".join(out)


def _write(o, indent: str, append: Callable[[str], object]) -> None:
    if isinstance(o, str):
        append(encode_basestring_ascii(o))
    elif o is None:
        append("null")
    elif o is True:
        append("true")
    elif o is False:
        append("false")
    elif isinstance(o, int):
        append(int.__repr__(o))
    elif isinstance(o, float):
        append(_float_text(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            append("[]")
            return
        inner = indent + "  "
        lead, sep = "[" + inner, "," + inner
        for v in o:
            if type(v) is str:
                append(lead + encode_basestring_ascii(v))
            else:
                append(lead)
                _write(v, inner, append)
            lead = sep
        append(indent + "]")
    elif isinstance(o, dict):
        if not o:
            append("{}")
            return
        inner = indent + "  "
        if o.keys() == _TERM_KEYS:
            # repr writes nan and inf where JSON has NaN and Infinity, so a
            # term with a non-finite part takes the generic path
            exp, im, re = o["exp"], o["im"], o["re"]
            if (
                type(exp) is str and type(im) is float and type(re) is float
                and isfinite(im) and isfinite(re)
            ):
                append(
                    f'{{{inner}"exp": {encode_basestring_ascii(exp)},'
                    f'{inner}"im": {im!r},{inner}"re": {re!r}{indent}}}'
                )
                return
        lead, sep = "{" + inner, "," + inner
        for k, v in sorted(o.items()):
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            head = f"{lead}{encode_basestring_ascii(k)}: "
            if type(v) is str:
                append(head + encode_basestring_ascii(v))
            else:
                append(head)
                _write(v, inner, append)
            lead = sep
        append(indent + "}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _emit(args, doc: dict, text: Callable[[], str]) -> int:
    """Print the report; the text is rendered only for ``--format text``."""
    if args.format == "json":
        print(json_text(doc))
    else:
        print(text())
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
    return _emit(args, {"catalog": entries}, lambda: text)


def cmd_betti(args) -> int:
    p, _ = _resolve_polytope(args)
    n = p.total_betti()
    return _emit(args, {"betti": n}, lambda: str(n))


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
    return _emit(args, doc, lambda: "\n".join(lines))


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
    report = find_critical_points(pot)
    return _emit(args, report.to_json_dict(), lambda: _critical_text(report))


def cmd_lte(args) -> int:
    pot = _build_potential(args)
    if (args.u is None) == (args.grid is None):
        raise InvalidPolytope("lte needs exactly one of --u or --grid")
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
        return _emit(args, res.to_json_dict(), lambda: "\n".join(lines))
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
    return _emit(args, doc, lambda: "\n".join(lines))


def _count_verdict(res) -> str:
    """A lower bound that holds is not a certificate: 'incomplete', not 'ok'."""
    holds = "incomplete" if res.morse_mode == "lower-bound" else "ok"
    return holds if res.morse_ok else "FAIL"


def cmd_residue_check(args) -> int:
    pot = _build_potential(args)
    report = find_critical_points(pot)
    res = residue_report(pot, report)
    doc = {
        "critical": report.to_json_dict(),
        "residue": res.to_json_dict(),
    }

    def text() -> str:
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
            f" ({res.morse_mode}) -> {_count_verdict(res)}"
        )
        lines += [f"note: {note}" for note in res.notes]
        return "\n".join(lines)

    return _emit(args, doc, text)


def cmd_analyze(args) -> int:
    pot = _build_potential(args)
    p = pot.polytope
    validation = p.validate()
    fano_type = p.fano_type()
    report = find_critical_points(pot)
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

    def text() -> str:
        lines = [
            f"polytope: dim {p.dim}, {p.nfacets} facets, "
            f"{validation.vertex_count} vertices, fano type: {fano_type}",
            f"PO = {render_poly(pot.poly)}",
            _critical_text(report),
            f"exactness: {res.exactness}",
            f"multiplicity count {res.morse_total} vs betti {res.betti}"
            f" ({res.morse_mode}) -> {_count_verdict(res)}",
        ]
        if res.trace_ok is not None:
            lines.append(
                f"trace residual {res.trace_residual:.3e}"
                f" -> {'ok' if res.trace_ok else 'FAIL'}"
            )
        return "\n".join(lines)

    return _emit(args, doc, text)


# -- wiring ----------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
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


def _print_warning(message, *_) -> None:
    """A library warning as one line, without the source location."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        updates = _load_env_config()
        if args.truncation is not None:
            updates["truncation_order"] = _positive_truncation(args.truncation, "--truncation")
        with configured(**updates), warnings.catch_warnings():
            warnings.showwarning = _print_warning
            return args.fn(args)
    except (ValueError, UnknownName, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except ToricLGError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
