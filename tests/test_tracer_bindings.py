"""The traced benchmark run wraps library functions at named bindings.

``bench/tracer.py`` lists them in ``TARGETS`` as ``"module:Attr.path"``
strings.  A binding that a refactor removes or renames makes every traced
run crash, so each one must still resolve the way the tracer resolves it:
methods on the class itself, functions as module attributes.  The file is
parsed, not imported, so the test only reads it.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
