"""A fixed pure-Python loop that tracks the speed of the CPU the harness runs on.

Shared hosts drift: identical passes in fresh processes differ by 10-30%
from one minute to the next, while the ratio of a pass to this loop, timed in
the same process around it, drifts about half as much.  Every
benchmark timing is therefore reported in calibrated seconds: wall seconds
times ``NOMINAL_S / loop time``, i.e. seconds on a CPU that runs this loop in
``NOMINAL_S``.  The loop never touches the program under test, and the cyclic
garbage collector is off while it runs, so the program's heap cannot change
its time.
"""

from __future__ import annotations

import gc
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

NOMINAL_S = 0.06    # typical loop time on a 2-vCPU Intel Xeon VM at 2.1 GHz

_BIG = [(7 ** (300 + i)) | 1 for i in range(200)]


@dataclass(frozen=True)
class _Cell:
    tag: int
    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(sorted(self.parts)))

    def key(self) -> tuple:
        return self.tag, self.parts[0]


def _loop() -> None:
    """Dict/tuple churn, frozen-dataclass objects, Fraction sums, bignum
    products and a sort: the mix of work the library workloads do, in
    proportions no single one of them has."""
    acc: dict = {}
    for i in range(40000):
        key = (i % 61, i % 53)
        acc[key] = acc.get(key, 0) + ((i * 7) ^ (i >> 3))
    seen: Counter = Counter()
    for i in range(6000):
        seen[_Cell(i % 97, (i % 7, i % 5, i % 3)).key()] += 1
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i, i + 7)
    x = 1
    for a in _BIG:
        x = (x * a) // ((a >> 300) | 1)
    rows = [(i, str(i), (i, i)) for i in range(20000)]
    rows.sort(key=lambda r: r[1])


def measure() -> float:
    """Seconds one run of the loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
