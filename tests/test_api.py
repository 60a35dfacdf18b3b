"""The package's public names: ``toriclg.__all__`` lists exactly what the
package exports, and every listed name resolves."""

import types

import toriclg


def test_all_is_the_exported_set():
    assert len(set(toriclg.__all__)) == len(toriclg.__all__)
    for name in toriclg.__all__:
        assert hasattr(toriclg, name), f"{name} is in __all__ but not defined"
    exported = {
        name
        for name, value in vars(toriclg).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(toriclg.__all__) == exported
