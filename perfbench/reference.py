"""Reference loop: how fast this machine runs Python at the moment.

The machine the benchmark runs on is shared. Other tenants' load slows the
whole process, often by 1.5x and sometimes by 2x, in phases that last from
a fraction of a second to minutes, and CPU time slows with wall time. So a
run times this fixed loop between its ops, and reports every time scaled to
the reference speed:

    time at reference speed = measured time * REF_S / (mean reference sample)

where the mean is over the sample taken just before the op and the one
taken just after it (or over the samples just before and after a set-up).

The loop uses only builtins, never streamcert, so no change to the program
changes it. It does the kinds of work the program does: building, sorting
and hashing short-lived containers, and making small objects, bytes slices
and strings and raising exceptions. Each sample is preceded by an untimed
pass, because the first pass after an op runs slower: the op evicted the
loop's data from the caches.

Of the loops tried, this mix tracked the program best. In 30 s runs of each
workload on a shared 2-vCPU VM (Intel Xeon, CPython 3.11.7), the coefficient
of variation of round throughput within a run was, as measured and then
scaled by this loop: 11% and 2% on ``soundness_fuzz``, 13% and 3% on
``stream_verify``. A loop of integer arithmetic, the same containers and
random reads from an 8 MB array did worse: 3% and 5%.
"""

from __future__ import annotations

import statistics
import time

#: seconds one sample takes at the reference speed: the 10th percentile of
#: 4,295 samples on a shared 2-vCPU Intel Xeon VM under CPython 3.11.7. It
#: only sets the scale: times at reference speed read close to the times a
#: quiet machine of that kind measures
REF_S = 0.00047
#: samples taken before, and again after, a set-up
BLOCK = 8

perf = time.perf_counter


class _Item:
    __slots__ = ("key", "data")

    def __init__(self, key, data):
        self.key = key
        self.data = data


class Reference:
    def _pass(self) -> None:
        items = [(i * 7919) % 10007 for i in range(1500)]
        seen = set(items)
        items.sort()
        index = {v: i for i, v in enumerate(items)}
        caught = 0
        for i in range(300):
            item = _Item(i, bytes(16))
            try:
                if i % 3 == 0:
                    raise ValueError(i)
            except ValueError:
                caught += 1
            kept = (item.key, item.data[:4], str(i))
        del seen, index, kept

    def sample(self) -> float:
        """Seconds one warmed pass of the loop takes now."""
        self._pass()
        t0 = perf()
        self._pass()
        return perf() - t0

    def block(self) -> list[float]:
        return [self.sample() for _ in range(BLOCK)]


def scale(samples: list[float]) -> float:
    """Factor from time as measured to time at the reference speed."""
    return REF_S / statistics.fmean(samples)
