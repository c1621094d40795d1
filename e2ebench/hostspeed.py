"""Host-speed scaling for the end-to-end wall times.

The shared host this benchmark runs on changes speed by up to 2x over
minutes (other tenants, frequency), far more than the regressions the
bounds must catch.  Before every item, outside its timed region, the
benchmark times one fixed pure-Python loop, and each item's latency is
reported at reference speed, ``seconds * (REFERENCE_S / kernel_s) **
elasticity``, with ``kernel_s`` the median of the loop times taken
within ``WINDOW`` items of it (near enough to follow the host's drift,
five samples to damp the single loop's jitter) and ``elasticity`` how
strongly the workload's item time follows the loop.  The loop is
benchmark code, so a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time

# About the loop's median time on the host the benchmark was tuned on
# (2-vCPU Intel Xeon VM, CPython 3.11).  Any constant would do; this
# one keeps the scaled times close to that host's raw times.
REFERENCE_S = 0.010

WINDOW = 2  # loop samples on each side of an item


def kernel_seconds() -> float:
    """Seconds the fixed loop takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return time.perf_counter() - start


def scaled(seconds: float, kernel_s: float, elasticity: float = 1.0) -> float:
    """``seconds`` as they would read at reference host speed, for work
    whose time goes as ``kernel_s ** elasticity``."""
    return seconds * (REFERENCE_S / kernel_s) ** elasticity


def scaled_latencies(latencies: list[float], kernels: list[float],
                     elasticity: float = 1.0) -> list[float]:
    """Each item latency at reference speed; ``kernels[i]`` is the loop
    time taken just before item ``i``."""
    return [
        scaled(seconds, statistics.median(kernels[max(0, i - WINDOW): i + WINDOW + 1]),
               elasticity)
        for i, seconds in enumerate(latencies)
    ]
