"""Run-wide numeric knobs.

All tolerances live here so that library code, the command line driver and
the tests agree on one set of defaults.  ``set_config`` swaps the active
configuration; ``configured`` does so for a ``with`` block.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from fractions import Fraction


@dataclass(frozen=True)
class RunConfig:
    # default series truncation order E_max for operations that must choose
    # one (inverting or exponentiating an exact series, Newton lifting)
    truncation_order: Fraction = Fraction(5)
    # coefficients with magnitude below this are dropped on construction
    eps_coeff: float = 1e-12
    # complex solutions closer than this are considered duplicates
    eps_sol: float = 1e-8
    # |det| of a leading Jacobian below this counts as degenerate
    eps_degenerate: float = 1e-8
    # relative factor for accepting a series as zero in identity checks
    tol_zero: float = 1e-9


_ACTIVE = RunConfig()


def get_config() -> RunConfig:
    return _ACTIVE


def set_config(cfg: RunConfig) -> None:
    global _ACTIVE
    _ACTIVE = cfg


def update_config(**kwargs) -> RunConfig:
    """Replace selected fields of the active configuration."""
    cfg = replace(_ACTIVE, **kwargs)
    set_config(cfg)
    return cfg


@contextlib.contextmanager
def configured(**kwargs):
    """Temporarily override configuration fields."""
    old = get_config()
    try:
        update_config(**kwargs)
        yield get_config()
    finally:
        set_config(old)
