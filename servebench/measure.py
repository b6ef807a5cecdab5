"""The summary statistics, and a machine-speed diagnostic.

Every request duration this benchmark reports is a raw ``perf_counter``
interval.  The sandbox it runs in is a shared micro-VM that switches, for
tens of seconds to minutes at a time and with no steal time reported to the
guest, between a fast and a slow state about 27 % apart, so each run also
times a small fixed kernel around its work and records the median as
``machine.kernel_ms``: a reader of two result files can see whether the
machine, not the program, differed.  Noise in request timings is handled the
way the metrics guide says — alternating parent/change pairs, and an
``unresolved`` verdict where the spread exceeds the bound.

One duration is scaled by the kernel: ``setup_s``.  It is the only timing
the benchmark's driver gates automatically, by comparing medians of runs
made many minutes apart, and no alternating pairs are available there; the
kernel follows the machine's two states to within 3 % of what set-up does
(kernel 1.72 -> 2.20 ms, set-up 1.10 -> 1.40 s), so set-up seconds are
reported at :data:`REFERENCE_KERNEL_MS`.
"""
from __future__ import annotations

import math
import random
import statistics
import time
from typing import List, Sequence

#: the percentile rule of the metrics guide: report a percentile only with
#: at least this many samples beyond it
SAMPLES_BEYOND_PERCENTILE = 10

_KERNEL_ROWS = 20_000
#: ``setup_s`` is "seconds on a machine whose kernel call takes this long"
REFERENCE_KERNEL_MS = 2.0


class MachineSpeed:
    """Times a fixed pure-Python kernel shaped like generated query code: a
    tuple-keyed hash aggregation, a filtered grouped sum over two columns
    and a bulk ``sum``.  It lives outside ``src/``, so no change to the
    program can make it faster."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._values = [rng.random() for _ in range(_KERNEL_ROWS)]
        self._keys = [rng.randrange(500) for _ in range(_KERNEL_ROWS)]
        #: seconds of every kernel call made
        self.samples: List[float] = []

    def _kernel(self) -> float:
        table: dict = {}
        for i in range(3000):
            key = (i & 63, i % 7)
            slot = table.get(key)
            if slot is None:
                table[key] = slot = [0.0, 0]
            slot[0] += i * 0.5
            slot[1] += 1
        groups: dict = {}
        for key, value in zip(self._keys, self._values):
            if value > 0.3:
                groups[key] = groups.get(key, 0.0) + value * (1.0 - value)
        return len(table) + len(groups) + sum(self._values)

    def sample(self, calls: int = 40) -> float:
        """Time ``calls`` kernel calls; their median in milliseconds."""
        for _ in range(calls):
            start = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - start)
        return 1000.0 * statistics.median(self.samples[-calls:])

    @property
    def kernel_ms(self) -> float:
        return 1000.0 * statistics.median(self.samples)


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than the rule allows."""


def percentile(values: Sequence[float], percent: float) -> float:
    """Nearest-rank percentile; refuses when fewer than
    :data:`SAMPLES_BEYOND_PERCENTILE` samples lie beyond it."""
    beyond = len(values) * (1.0 - percent / 100.0)
    if beyond < SAMPLES_BEYOND_PERCENTILE:
        raise TooFewSamples(
            f"p{percent:g} of {len(values)} samples leaves {beyond:.1f} beyond "
            f"it; {SAMPLES_BEYOND_PERCENTILE} are required")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * percent / 100.0))
    return ordered[rank - 1]


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the steadiness measure the acceptance runs use."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)
