"""Fixed pure-Python reference workloads that share no code with the
program, timed next to the measured work to track how fast the machine
runs.

Their wall times are the units of the gated times, so changing a loop
changes that unit: results before and after are not comparable.
"""

from __future__ import annotations

import time


def reference_work() -> int:
    # Imported here, so that importing this module loads nothing that the
    # program's import, timed next to plain_reference_seconds, would need.
    from fractions import Fraction

    acc = Fraction(0)
    table: dict[tuple[int, int], Fraction] = {}
    for i in range(1, 4000):
        acc += Fraction(i % 97, i % 13 + 1)
        table[i, i % 7] = acc
    return len(set(table))


def reference_seconds() -> float:
    """Wall time of the reference loop; the unit of operation times."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def plain_reference_seconds() -> float:
    """Wall time of a loop that imports nothing; the unit of set-up time."""
    start = time.perf_counter()
    acc = 0
    table: dict[tuple[int, int], str] = {}
    for i in range(1, 20000):
        acc = (acc * 31 + i % 97) % 1000003
        table[i, i % 7] = str(acc)
    len(set(table))
    return time.perf_counter() - start
