"""Drift-calibrated timing.

CPU speed on a shared machine moves by tens of percent within seconds,
so raw wall time does not repeat.  Each instance is bracketed by a short,
fixed CPython workload timed just before and just after it; the
instance's times are rescaled by ``REF_CAL_S / mean(before, after)``,
which reports them in seconds at a fixed reference speed.  The raw
seconds and calibration times stay in the output.

``REF_CAL_S`` is part of the benchmark's definition: changing it moves
every time metric, so it must stay fixed across commits.
"""

from __future__ import annotations

import time

clock = time.perf_counter

CAL_ITERATIONS = 4000
REF_CAL_S = 0.0007  # the calibration loop's duration at the reference speed


def _calibration_work(n: int) -> int:
    # dict stores, list indexing, a call and integer arithmetic: the
    # operations the solver spends its time on
    table = {}
    cells = [0] * 16
    total = 0
    for i in range(n):
        cells[i & 15] = total
        table[i & 31] = cells[(i + 3) & 15]
        total += abs(i * i % 7 - 3)
    return total


def calibrate() -> float:
    """Seconds taken by the fixed calibration workload right now."""
    start = clock()
    _calibration_work(CAL_ITERATIONS)
    return clock() - start


def speed_factor(cal_before: float, cal_after: float) -> float:
    """Multiplier that turns raw seconds into reference seconds."""
    return REF_CAL_S / ((cal_before + cal_after) / 2)


def is_time(name: str) -> bool:
    return name.endswith("_s") and not name.endswith("_per_s")


def scale_times(metrics: dict, factor: float) -> dict:
    """Rescale the time metrics (names ending in ``_s``); counts and rates
    pass through."""
    return {k: v * factor if is_time(k) else v for k, v in metrics.items()}
