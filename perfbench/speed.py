"""The machine's speed, read off a fixed reference loop.

The benchmark runs on shared machines whose speed drifts, from minute to
minute, by more than the bounds in BENCHMARK.json allow: the same code read
15-30% slower in one set of runs than in the next.  So each run also times
this loop, a fixed piece of pure-Python work of the kind herbrandkit does,
between requests and next to every set-up sample.  The end-to-end times are
scaled by ``NOMINAL_S`` over the loop's typical time in the run (see
``typical_s``), and rates by the inverse, so they read as on a machine on
which the loop takes ``NOMINAL_S``.

The loop lives in the benchmark, so no change to herbrandkit changes it.
The collector is off while it runs, so the heap the toolkit keeps cannot
slow it down.
"""

from __future__ import annotations

import gc
import time

# about the loop's median time on a shared 2-core x86-64 VM, CPython 3.11
NOMINAL_S = 0.02
# share of the samples dropped at each end by typical_s
TRIM = 0.1


def _term(depth: int, i: int) -> tuple:
    if depth == 0:
        return ("c%d" % (i % 7),)
    return ("f", _term(depth - 1, 2 * i), _term(depth - 1, 2 * i + 1))


def _height(t: tuple, memo: dict) -> int:
    h = memo.get(t)
    if h is None:
        h = 1 + max((_height(a, memo) for a in t[1:]), default=-1)
        memo[t] = h
    return h


def reference_s() -> float:
    """Seconds the reference loop takes now: build term trees and measure
    their heights through a memo, as the champ does, then count and sort
    formatted names, as parsing and printing do."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for r in range(4):
            _height(_term(11, r), {})
        counts: dict = {}
        names = []
        for i in range(15000):
            key = ("x%d" % (i % 500), i & 7)
            counts[key] = counts.get(key, 0) + 1
            names.append(key[0])
        names.sort()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def typical_s(samples: list[float]) -> float:
    """The loop's typical time over a run: the mean of its samples without
    the fastest and the slowest tenth.

    The machine flips between a fast and a slow state many times a second,
    so the samples are bimodal: a mean follows the share of the run spent
    in each state, a median does not.  But when the machine is crowded, a
    few samples are stalled for several times their length, far more than
    the toolkit's requests slow down on average; the trimmed mean keeps
    them from setting the scale.
    """
    ordered = sorted(samples)
    cut = int(len(ordered) * TRIM)
    return sum(ordered[cut:len(ordered) - cut]) / (len(ordered) - 2 * cut)
