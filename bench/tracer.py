"""Span tracing of the library's layers from outside the library.

Each traced function is replaced, at the binding its caller looks up, by
a wrapper that records one span: name, start, end and the enclosing span.
Functions imported by name are wrapped in the importing module (the
``from .x import f`` copies), methods on their class.  Spans stay in
memory in flat arrays and are reduced to per-name call counts and self
times when the pass ends.  Self time is a span's duration minus the time
its direct child spans cover; spans nest strictly because the pass is
single-threaded.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict

# span name -> bindings "module:Attr.path" that callers look up
TARGETS: dict[str, tuple[str, ...]] = {
    "polytope.validate": ("toriclg.polytope:MomentPolytope.validate",),
    "polytope.fano_type": ("toriclg.polytope:MomentPolytope.fano_type",),
    "polytope.interior_contains": (
        "toriclg.polytope:MomentPolytope.interior_contains",
    ),
    "novikov.mul": (
        "toriclg.novikov:NovikovScalar.__mul__",
        "toriclg.novikov:NovikovScalar.__rmul__",
    ),
    "novikov.invert": ("toriclg.novikov:NovikovScalar.invert",),
    "novikov.add": (
        "toriclg.novikov:NovikovScalar.__add__",
        "toriclg.novikov:NovikovScalar.__radd__",
        "toriclg.novikov:NovikovScalar.__sub__",
        "toriclg.novikov:NovikovScalar.__rsub__",
        "toriclg.novikov:NovikovScalar.__neg__",
    ),
    "novikov.new": ("toriclg.novikov:NovikovScalar.__init__",),
    "novikov.exp": ("toriclg.novikov:novikov_exp",),
    "laurent.evaluate": ("toriclg.laurent:LaurentPoly.evaluate",),
    "laurent.change_frame": ("toriclg.laurent:LaurentPoly.change_frame",),
    "laurent.build_potential": (
        "toriclg.cli:build_potential",
        "toriclg.jacres:build_potential",
    ),
    "tropical.candidates": ("toriclg.tropical:tropical_candidates",),
    "tropical.newton_lift": ("toriclg.tropical:newton_lift",),
    "tropical.lambda_solve": ("toriclg.tropical:lambda_solve",),
    "tropical.find": ("toriclg.cli:find_critical_points",),
    "polysolve.solve": (
        "toriclg.tropical:solve_torus_system",
        "toriclg.lte:solve_torus_system",
    ),
    "lte.solve_lte": ("toriclg.lte:solve_lte", "toriclg.cli:solve_lte"),
    "lte.adapted_frame": ("toriclg.lte:adapted_frame",),
    "intlinalg.frac_solve": (
        "toriclg._intlinalg:frac_solve",
        "toriclg.polytope:frac_solve",
        "toriclg.tropical:frac_solve",
        "toriclg.lte:frac_solve",
    ),
    "intlinalg.smith": ("toriclg._intlinalg:smith_normal_form",),
    "jacres.residue_report": ("toriclg.cli:residue_report",),
    "jacres.z_value": ("toriclg.jacres:z_value",),
    "jacres.hessian": ("toriclg.jacres:hessian_matrix",),
    "cli.main": ("toriclg.cli:main",),
}


class Tracer:
    """In-memory span store with per-name counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def record(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Store a finished span; returns its index."""
        self.name_ids.append(self._name_id(name))
        self.parents.append(parent)
        self.starts.append(start)
        self.ends.append(end)
        return len(self.starts) - 1

    def wrap(self, fn, name: str, on_result=None, on_error=None):
        nid = self._name_id(name)
        name_ids, parents, starts, ends = (
            self.name_ids, self.parents, self.starts, self.ends
        )
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, hooks: dict[str, tuple] | None = None) -> None:
        """Wrap every binding in TARGETS; ``hooks`` maps a span name to
        ``(on_result, on_error)``."""
        hooks = hooks or {}
        for name, bindings in TARGETS.items():
            on_result, on_error = hooks.get(name, (None, None))
            for binding in bindings:
                module, _, path = binding.partition(":")
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(fn, name, on_result, on_error))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        return self_times(self.names, self.name_ids, self.parents, self.starts, self.ends)


def self_times(names, name_ids, parents, starts, ends) -> dict[str, dict[str, float]]:
    n = len(starts)
    covered = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            covered[p] += ends[i] - starts[i]
    out: dict[str, dict[str, float]] = {}
    for i in range(n):
        rec = out.setdefault(names[name_ids[i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        dur = ends[i] - starts[i]
        rec["calls"] += 1
        rec["total_s"] += dur
        rec["self_s"] += dur - covered[i]
    return out
