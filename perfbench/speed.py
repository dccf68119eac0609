"""The host's speed over time, from a fixed reference computation timed between calls.

On a shared host the same pure-Python work runs anywhere from 1.0x to 3x its
fastest time, in stretches of a second to minutes, and the level shifts from
one run to the next. A fixed computation timed every few tens of milliseconds
tracks that speed, and a call's time divided by the speed around it is much
steadier than the call's raw time: in trials of whole ladder passes, the
coefficient of variation fell from 14% raw to 4% scaled.

The reference does two kinds of work that slow down differently: a
breadth-first search over a fixed random digraph with string-labelled nodes,
as in dualcast's flow layer, and GF(2^8) products through log tables, one
method call each, as in its code evaluation and verification. In those
trials, the BFS alone left verification times with 5% variation, the two
together 2%.
"""

from __future__ import annotations

import bisect
import random
from array import array
from time import perf_counter_ns

# The reference's duration on an undisturbed host of the kind the benchmark
# was written on (2-vCPU Intel Xeon VM, CPython 3.11). Scaled times are the
# times the calls would take at that speed.
REFERENCE_NS = 550_000
TICK_NS = 25_000_000

_rng = random.Random(0)
_NODES = 2000
_ADJ = {f"n{i}": [f"n{_rng.randrange(_NODES)}" for _ in range(3)] for i in range(_NODES)}


class _LogTables:
    """GF(2^8) modulo 0x11D."""

    def __init__(self) -> None:
        self.exp = [1] * 255
        for i in range(1, 255):
            x = self.exp[i - 1] << 1
            self.exp[i] = x ^ 0x11D if x & 0x100 else x
        self.log = [0] * 256
        for i, v in enumerate(self.exp):
            self.log[v] = i

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % 255]


_GF = _LogTables()


def reference() -> int:
    seen = {"n0": None}
    queue = ["n0"]
    for u in queue:
        for v in _ADJ[u]:
            if v not in seen:
                seen[v] = u
                queue.append(v)
    acc = 0
    for a in range(1, 256):
        for b in (3, 7, 29, 113):
            acc ^= _GF.mul(a, b)
    return len(seen) + acc


class Speedometer:
    """Times the reference at most every TICK_NS, when tick() is called between calls."""

    def __init__(self) -> None:
        self.at = array("q")  # midpoint of each reference run
        self.took = array("q")
        self.tick(force=True)

    def tick(self, force: bool = False) -> None:
        t0 = perf_counter_ns()
        if not force and t0 - self.at[-1] < TICK_NS:
            return
        reference()
        t1 = perf_counter_ns()
        self.at.append((t0 + t1) // 2)
        self.took.append(t1 - t0)

    def factor(self, at_ns: int) -> float:
        """How much faster the reference speed is than the host at at_ns.

        Taken from the two reference runs around at_ns.
        """
        i = bisect.bisect(self.at, at_ns)
        before = self.took[max(0, i - 1)]
        after = self.took[min(len(self.took) - 1, i)]
        return 2 * REFERENCE_NS / (before + after)

    def scale(self, start_ns: int, duration_ns: int) -> float:
        """A call's duration at the reference speed."""
        return duration_ns * self.factor(start_ns + duration_ns // 2)
