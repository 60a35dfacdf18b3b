"""The benchmark under ``bench/`` uses the library by name.

``bench/tracer.py`` lists the bindings the traced run wraps in ``TARGETS``
as ``"module:Attr.path"`` strings.  A binding that a refactor removes or
renames makes every traced run crash, so each one must still resolve the
way the tracer resolves it: methods on the class itself, functions as
module attributes.  The same holds for the names the benchmark files import
from ``toriclg`` and the ``RunConfig`` fields they read.  The files are
parsed, not imported, so the tests only read them.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


def _targets() -> dict[str, tuple[str, ...]]:
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == "TARGETS"
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS table in bench/tracer.py")


BINDINGS = sorted(
    (name, binding) for name, bs in _targets().items() for binding in bs
)


def test_targets_table_is_not_empty():
    assert len(BINDINGS) >= 20


@pytest.mark.parametrize("name, binding", BINDINGS, ids=[b for _, b in BINDINGS])
def test_binding_resolves(name, binding):
    module, _, path = binding.partition(":")
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        assert attr in owner.__dict__, f"{name}: {binding} is not defined on the class"
        fn = owner.__dict__[attr]
    else:
        assert hasattr(owner, attr), f"{name}: {binding} is gone"
        fn = getattr(owner, attr)
    assert callable(fn), f"{name}: {binding} is not callable"


def _bench_trees() -> list[tuple[str, ast.Module]]:
    return [(p.name, ast.parse(p.read_text())) for p in sorted(BENCH.glob("*.py"))]


def _bench_imports() -> list[tuple[str, str, str]]:
    """(file, module, name) of every ``from toriclg... import name``."""
    return [
        (file, node.module, alias.name)
        for file, tree in _bench_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.level == 0
        and (node.module == "toriclg" or node.module.startswith("toriclg."))
        for alias in node.names
    ]


def test_bench_imports_resolve():
    imports = _bench_imports()
    names = {name for _, _, name in imports}
    assert {
        "balanced_at", "initial_system", "tropical_candidates",
        "solve_torus_system", "PositiveDimensionalInitialLocus",
        "NovikovScalar", "RunConfig", "set_config", "cli", "catalog",
        "build_potential",
    } <= names
    for file, module, name in imports:
        assert hasattr(importlib.import_module(module), name), (
            f"bench/{file}: from {module} import {name} no longer resolves"
        )


def test_bench_config_fields_exist():
    """Every attribute the benchmark reads off a ``RunConfig()`` value."""
    from toriclg import RunConfig

    read = set()
    for _, tree in _bench_trees():
        holders = {
            target.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id == "RunConfig"
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        read |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in holders
        }
    assert {"truncation_order", "tol_zero"} <= read
    cfg = RunConfig()
    for attr in read:
        assert hasattr(cfg, attr), f"RunConfig has no {attr}, which bench/ reads"
