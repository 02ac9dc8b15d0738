"""CPU speed meter: a fixed loop of Python and small numpy operations,
pinned to one CPU, that logs how many chunks of it run per CPU second.

    python3 perfbench/meter.py --cpu K --log FILE

It runs until it is terminated.  Every ``ROW_S`` seconds it appends one line
``monotonic cpu_s chunks`` to ``--log`` and flushes it.

On a shared host the speed of a CPU moves by 15-20% over seconds to minutes,
and a process's CPU time moves with it: the slowdown is not time spent
descheduled, so CPU time alone does not remove it.  A meter that shares the
CPU with a workload process at the same time slows down with it, and
``at_reference_speed`` scales the workload's CPU time to the speed at which
the meter runs ``REFERENCE_RATE`` chunks per CPU second.
"""

import argparse
import os
import sys
import time

import numpy as np

ROW_S = 0.05
# chunks per CPU second at the reference speed: about the median rate on a
# 2-vCPU Intel Xeon VM while a workload process shares the CPU
REFERENCE_RATE = 1100.0
# workload CPU time goes as rate ** -SENSITIVITY: the log-log slope fitted to
# the processes of both workloads on that VM was 1.19-1.34 (1.0 would mean
# the workload slows down exactly as much as the meter)
SENSITIVITY = 1.25


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


_X = np.linspace(0.0, 1.0, 256)


def _chunk() -> int:
    s = 0
    for i in range(10_000):
        s += i * i
    x = _X
    for _ in range(40):
        x = np.sin(x) * 0.5 + _X[::-1]
    return s


def read_log(path) -> list[tuple[float, float, int]]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.endswith("\n"):  # not a line cut by the termination
                t, cpu_s, chunks = line.split()
                rows.append((float(t), float(cpu_s), int(chunks)))
    return rows


def rate(rows, start: float, end: float) -> float:
    """Meter chunks per CPU second between monotonic times ``start`` and
    ``end``: from the last row at or before ``start`` to the first row at or
    after ``end`` (the log's first and last rows where it does not reach)."""
    if len(rows) < 2:
        raise ValueError("the meter logged fewer than two rows")
    i = max((k for k, r in enumerate(rows) if r[0] <= start), default=0)
    j = min((k for k, r in enumerate(rows) if r[0] >= end), default=len(rows) - 1)
    if j <= i:
        i, j = max(0, j - 1), max(j, 1)
    return (rows[j][2] - rows[i][2]) / (rows[j][1] - rows[i][1])


def at_reference_speed(cpu_s: float, rows, start: float, end: float) -> float:
    """CPU seconds spent between ``start`` and ``end``, scaled to the
    reference speed by the meter log ``rows`` of the same CPU."""
    return cpu_s * (rate(rows, start, end) / REFERENCE_RATE) ** SENSITIVITY


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--cpu", type=int, required=True)
    p.add_argument("--log", required=True)
    args = p.parse_args()
    os.sched_setaffinity(0, {args.cpu})
    chunks = 0
    with open(args.log, "w", encoding="utf-8") as fh:
        last = -ROW_S
        while True:
            _chunk()
            chunks += 1
            now = _monotonic()
            if now - last >= ROW_S:
                fh.write(f"{now!r} {time.process_time()!r} {chunks}\n")
                fh.flush()
                last = now


if __name__ == "__main__":
    sys.exit(main())
