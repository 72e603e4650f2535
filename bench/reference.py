"""A fixed pure-Python loop, timed between operations, that gauges the machine.

The shared host this benchmark runs on slows down by up to 1.6x for minutes
at a time (see README.md, Noise on this machine). The loop below does the
same kinds of work as the program (dict stores, tuple and str building, a
keyed sort, bytes and int conversion) but none of its code, so its time
tracks the machine and not the program. ``Reference.slowdown`` is the
run's lower-decile loop time over ``NOMINAL_S``, a fixed figure close to
it on a quiet machine; run.py divides every timing by it.
"""

from __future__ import annotations

from time import perf_counter

NOMINAL_S = 0.27e-3  # a fixed scale: the loop's lower decile was 0.23-0.27 ms in quiet runs
EVERY_S = 0.02  # at most one probe per this many seconds, about 1.5% of a run


def reference_work() -> bytes:
    table = {}
    for i in range(400):
        table[(i * 7919) % 1009] = (i, str(i), (i * 2654435761) & 0xFFFFFFFF)
    rows = sorted(table.items(), key=lambda kv: kv[1][2])
    total = sum(v[2] for _, v in rows)
    return bytes(v[0] & 0xFF for _, v in rows) + total.to_bytes(8, "big")


class Reference:
    """Probe times of the reference loop over one run."""

    def __init__(self):
        self.times: list[float] = []
        self.last = float("-inf")

    def maybe_probe(self) -> None:
        """Time the loop, unless the last probe was under EVERY_S ago.

        The loop runs once untimed first, so that its own code and data are
        back in cache after the program's operation.
        """
        if perf_counter() - self.last < EVERY_S:
            return
        reference_work()
        started = perf_counter()
        reference_work()
        self.last = perf_counter()
        self.times.append(self.last - started)

    def lower_decile(self) -> float:
        return sorted(self.times)[len(self.times) // 10]

    def slowdown(self) -> float:
        return self.lower_decile() / NOMINAL_S
