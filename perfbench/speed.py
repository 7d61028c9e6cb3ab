"""The machine's speed over a run, measured by a fixed pure-Python kernel.

The benchmark runs on shared virtual machines whose speed steps by up to
30% for minutes at a time, which no amount of averaging inside one run
removes. So host-time figures are reported in *reference seconds*: host
seconds ÷ the program's slowdown over the run, worked out from the
kernel's mean pass time, sampled between the reps of the run. The kernel
is the benchmark's own code, so a change to the program moves the
program's time and not the yardstick. The speed also jitters within a
second, and a short kernel sample jitters more than a rep several seconds
long, so one slowdown over all of a run's samples steadies the figures
more than one per rep does.

The kernel does the kind of work the simulator does (a heap of pending
events, dictionaries of per-site state, small tuples and floats, calls),
so the interpreter and cache behaviour that a slow period hurts hurts it
the same way.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter
from typing import List, Sequence

#: mean kernel pass time on the reference machine (a shared 2-vCPU Intel
#: Xeon virtual machine, CPython 3), so reference seconds stay close to
#: host seconds there
REFERENCE_S = 0.1

#: how strongly the program's time follows the kernel's: the program moves
#: by the kernel's slowdown to this power. A slow period hurts the kernel
#: more, likely because it stays in cache and the program does not.
#: Fitted on that machine over ten runs of each of four workloads (log-log
#: slopes 0.59 to 0.90); a power of 1 left the spread of jobs_per_s over
#: seeds wider on three of them.
SENSITIVITY = 0.7

_SITES = 64
_EVENTS = 60_000


def sample(seconds: float) -> List[float]:
    """Times of whole kernel passes run until ``seconds`` have passed (at least one).

    The cyclic garbage collector is paused over the sample, so its time does
    not depend on how much garbage the rep before it left behind.
    """
    passes: List[float] = []
    gc.disable()
    try:
        t0 = perf_counter()
        while not passes or perf_counter() - t0 < seconds:
            passes.append(_timed_pass())
    finally:
        gc.enable()
    return passes


def slowdown(passes: Sequence[float]) -> float:
    """The program's slowdown against the reference machine.

    That is the kernel's, its mean pass time ÷ ``REFERENCE_S``, to the
    power ``SENSITIVITY``.
    """
    return (sum(passes) / len(passes) / REFERENCE_S) ** SENSITIVITY


def _timed_pass() -> float:
    t0 = perf_counter()
    state = {s: {"busy": 0.0, "done": 0, "inbox": []} for s in range(_SITES)}
    heap = [(float(s), s, s, 0) for s in range(_SITES)]
    x = 12345
    for _ in range(_EVENTS):
        now, _, site, hops = heapq.heappop(heap)
        st = state[site]
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        dest = x % _SITES
        st["busy"] = max(st["busy"], now) + (x & 1023) / 1024.0
        st["done"] += 1
        st["inbox"].append((now, dest))
        if len(st["inbox"]) > 8:
            st["inbox"].pop(0)
        heapq.heappush(heap, (now + 0.2 + (x >> 20) / 2048.0, x, dest, hops + 1))
    assert sum(st["done"] for st in state.values()) == _EVENTS
    return perf_counter() - t0
