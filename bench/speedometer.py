"""Wall times corrected for the speed of a shared host.

On a host whose cores are shared with other tenants, the same Python code
runs up to about 1.7 times slower for seconds at a time, and a busy minute
moves every time of a run together.  A profiling timer interrupts the
process every ``INTERVAL`` seconds of CPU time and times a fixed probe of
``Fraction`` arithmetic, the kind of work the library spends its time on.
Among the probes tried, this one tracked the host's speed best.  It runs on
a private copy of the ``fractions`` module: a probe on the shared module ran
about 10% slower on ``lte-scan`` than on ``analyze-small``, because the
program's own ``Fraction`` calls respecialise the shared bytecode.  The
probe runs twice and only the second run is timed, so it runs warm whatever
the program did before, and the garbage collector is off meanwhile, so it
never collects the program's objects.  An interval between two marks is
then reported at nominal speed:

    (wall time - time spent in probes) * mean(NOMINAL_PROBE_S / probe time)

over the probes taken inside it.  ``NOMINAL_PROBE_S`` is the probe's time
in the fast state of the machine the benchmark was written on (2-core
x86-64 VM, Python 3.11), which switches between a fast and a slow state
about 1.7 times apart every few seconds; there the corrected time reads as
the wall time of the fast state.  On an idle host the correction changes nothing but
that constant factor, and it cancels when two commits are compared on one
machine.  The probes cost about 0.8% of the CPU time.  ``speed_check.py``
checks that the factor does not depend on the workload.
"""

from __future__ import annotations

import fractions
import gc
import importlib.util
import signal
import time

INTERVAL = 0.01
NOMINAL_PROBE_S = 28e-6


def _private_fractions():
    """A second copy of the standard ``fractions`` module: the same code as
    ``Fraction``, with code objects of its own."""
    spec = importlib.util.spec_from_file_location("_probe_fractions", fractions.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Fraction


_Fraction = _private_fractions()
_A, _B = _Fraction(1, 3), _Fraction(2, 7)


def probe() -> None:
    for i in range(10):
        _A * _B + _Fraction(i, 5)


class Speedometer:
    def __init__(self) -> None:
        self.probes = 0
        self.inverse_sum = 0.0  # sum of 1 / probe time
        self.spent = 0.0  # seconds spent in probes
        self.times: list[float] = []  # every probe's time
        self.last_factor = 1.0

    def _tick(self, signum, frame) -> None:
        t0 = time.monotonic()
        enabled = gc.isenabled()
        gc.disable()
        probe()  # warm-up
        t1 = time.monotonic()
        probe()
        d = time.monotonic() - t1
        if enabled:
            gc.enable()
        self.probes += 1
        self.times.append(d)
        self.inverse_sum += 1.0 / d
        self.spent += time.monotonic() - t0
        self.last_factor = NOMINAL_PROBE_S / d

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def mark(self) -> tuple[float, int, float, float]:
        return time.monotonic(), self.probes, self.inverse_sum, self.spent

    def factor(self, start: tuple, end: tuple) -> float:
        """Mean factor from wall to nominal time over the probes between two
        marks; the last probe's factor when there were none."""
        n = end[1] - start[1]
        return NOMINAL_PROBE_S * (end[2] - start[2]) / n if n else self.last_factor

    def nominal(self, start: tuple, end: tuple | None = None) -> float:
        """Nominal seconds between two marks (``end`` defaults to now).
        ``start`` may carry a wall time from before the timer started."""
        end = end or self.mark()
        return (end[0] - start[0] - (end[3] - start[3])) * self.factor(start, end)
