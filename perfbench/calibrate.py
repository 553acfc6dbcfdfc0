"""Machine-speed calibration for the benchmark's timings.

The host this benchmark runs on may change speed by half or more for tens
of seconds at a time (shared cores), which would swamp a 25% bound. So the
benchmark times a fixed piece of pure-Python work of its own beside the
library calls and reports each timing scaled to a reference speed:

    reported = measured * REFERENCE_S / calibration time measured beside it

A change to the library moves the measured times but not the calibration,
so the scaled figures still show it; a slower or faster host moves both.
The work is a full group-law scan of Z_16 by `reference`'s term evaluator,
which is the same kind of work as the library's (table lookups, tuple
indexing, Python calls) and imports nothing from the library.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import reference as ref

REFERENCE_S = 0.004  # what one calibration takes at reference speed
BURST = 3  # calibrations per calibration point
_N = 16
_OPS = {
    "m": (2, tuple((x + y) % _N for x in range(_N) for y in range(_N))),
    "i": (1, tuple(-x % _N for x in range(_N))),
    "e": (0, (0,)),
}


def calibrate() -> float:
    """Seconds one pass of the fixed work takes now."""
    start = perf_counter()
    if ref.first_failure(_N, _OPS, "group") is not None:
        raise AssertionError("calibration work went wrong")
    return perf_counter() - start


def calibration_point() -> float:
    """Median of a short burst of calibrations: one pass alone is off by up
    to a quarter either way, while the host's speed drifts over a second."""
    return statistics.median(calibrate() for _ in range(BURST))


def speed_scale(samples: list[float]) -> float:
    """Factor that turns times measured beside `samples` (calibration times
    or points) into reference-speed times: REFERENCE_S over their median."""
    return REFERENCE_S / statistics.median(samples)
