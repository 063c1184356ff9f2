"""Machine-speed reference for the benchmark's timings.

The benchmark runs on a small shared machine whose single-thread speed
drifts by up to about 2x within seconds, from load outside this process;
CPU time drifts with wall time, so it is the processor, not the scheduler.
Each timed step is therefore bracketed by a fixed reference pass that does
not touch the package, and its wall time is rescaled to the speed at which
the pass takes its nominal time. A faster program shows fully in the
rescaled time; a slower machine largely does not.

A pass is made of parts, and each workload names the parts that resemble
its own work: "interpreter" (a JSON round trip of floats; dict, tuple and
list allocation with a sort) for the interpreter-bound workloads, plus
"blas" (a symmetric eigendecomposition and a matrix product) for the
workload whose rounds are half linear algebra.
"""

import gc
import json
import time

import numpy as np

# Each part takes about this long on the 2-core machine the benchmark was
# defined on, when nothing else loads it; rescaled times are then close to
# wall times on that machine.
NOMINAL_S = {"interpreter": 0.0023, "blas": 0.0015}

_FLOATS = [i * 0.37 for i in range(1500)]
_rng = np.random.default_rng(0)
_SQUARE = _rng.standard_normal((256, 256))
_SPD = _SQUARE[:96, :96] @ _SQUARE[:96, :96].T


def _interpreter():
    json.loads(json.dumps(_FLOATS))
    table = {}
    for i in range(3000):
        table[(i, str(i))] = [i, i + 1.0]
    sorted(table, key=lambda k: -k[0])


def _blas():
    np.linalg.eigh(_SPD)
    _SQUARE @ _SQUARE


PARTS = {"interpreter": _interpreter, "blas": _blas}


class Reference:
    """Brackets timed steps with reference passes made of ``parts`` and
    keeps every pass, so that a run's results can show how the passes
    before and after a step compare."""

    def __init__(self, parts):
        self.parts = tuple(parts)
        self.nominal_s = sum(NOMINAL_S[p] for p in self.parts)
        self.passes = []    # (before, after) per bracketed step, seconds per part

    def _pass(self) -> tuple:
        # Collector off: a collection would charge the program's live
        # objects to the reference.
        gc.disable()
        try:
            times = []
            for part in self.parts:
                t0 = time.perf_counter()
                PARTS[part]()
                times.append(time.perf_counter() - t0)
            return tuple(times)
        finally:
            gc.enable()

    def bracket(self, fn, *args):
        """Run fn between two reference passes; returns (result, wall_s,
        scale), where wall_s * scale is the time at the nominal reference
        speed. The faster pass sets the scale, so one pass hit by an
        interrupt does not."""
        before = self._pass()
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        after = self._pass()
        self.passes.append((before, after))
        return result, wall, self.nominal_s / min(sum(before), sum(after))
