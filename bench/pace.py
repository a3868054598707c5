"""The host's pace, read from a fixed reference kernel.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to about 30 % over seconds to minutes, and pure-Python and numpy work
slow down together.  ``child.py`` times gaps of passes of
``reference_pass`` (``gap``) between the commands of a round and between
the steps of a set-up; ``run.py`` scales each command's or step's wall
time by ``NOMINAL_S`` over the pace around it (``scale``).  The kernel
never touches hermsurf, so a change to the program moves the scaled
times exactly as it moves the raw ones, while a slow spell of the host
moves the kernel too and cancels out.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# One pass of the kernel at the host's quiet pace, in seconds (2.1 GHz
# shared x86-64 core, Python 3.11, numpy 2.4).  Scaled times read in
# seconds at this pace.
NOMINAL_S = 0.0036

# A gap between commands runs passes for at least this share of the
# command before it, so that a long command's pace is read from many
# passes and a short command's from one.
GAP_SHARE = 0.02

# Fixed pseudo-random operands, made without numpy.random, whose import
# would add about 6 MB to the peak RSS that the benchmark reports.
_TABLE = (np.arange(32 * 2048, dtype=np.int64) * 2654435761 % 251).astype(np.int16)
_TABLE = _TABLE.reshape(32, 2048)
_INDEX = np.arange(2048) * 1031 % 2048


def reference_pass() -> float:
    """Wall time of one pass: an interpreted loop over ints and a dict,
    then int16 gathers and reductions like the program's scan kernel."""
    t0 = perf_counter()
    s, seen = 0, {}
    for i in range(15000):
        s = (s * 31 + i) % 65521
        seen[s & 1023] = i
    for _ in range(8):
        s += int(np.bitwise_xor(_TABLE[:, _INDEX], _TABLE).sum())
    return perf_counter() - t0


def gap(after_s: float) -> list[float]:
    """The pass times of one gap: at least one pass, and passes for at
    least ``GAP_SHARE`` of ``after_s``, the command before the gap."""
    times = [reference_pass()]
    while sum(times) < GAP_SHARE * after_s:
        times.append(reference_pass())
    return times


def scale(times: list[float], gaps: list[list[float]]) -> list[float]:
    """Each of a sequence of timed steps at the nominal pace.  ``gaps[i]``
    holds the passes timed just before step ``i``, and the last gap those
    after the last step.  A step is scaled by the median of the passes in
    the four gaps nearest to it, two before and two after, so one pass
    that the host interrupted moves it little."""
    return [t * NOMINAL_S / statistics.median(p for g in gaps[max(0, i - 1):i + 3] for p in g)
            for i, t in enumerate(times)]
