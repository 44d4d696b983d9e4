"""Host-speed calibration: a fixed pure-Python kernel timed between points.

The shared host the benchmark runs on changes speed by tens of percent
within seconds, and a change lasts from seconds to minutes.  The kernel
below is a tiny input-queued crossbar written in the simulator's idiom
(slotted objects, deques, ``random.Random``, round-robin arbitration),
so host drift slows it as it slows the simulator; it uses nothing
from ``src/``, so no change to the simulator moves it.

:func:`slice_s` times one kernel call.  The benchmark runs a slice
before the first point of a pass and after every point, and multiplies
each point's host time by :func:`scale` of the mean of the two slices
around it.  The result reads as seconds on a host whose kernel call
takes ``REFERENCE_S``: drift of the host's speed largely cancels, a
change to the simulator's speed does not.
"""

from __future__ import annotations

import gc
import random
import time
from collections import deque

#: Seconds one :func:`kernel` call takes on the development host (a
#: shared 2-core VM, Python 3.11) in its fast state: the lowest decile
#: of the slices of five ``switch-r64`` runs.  A fixed constant, so
#: that scaled times of two commits compare directly.
REFERENCE_S = 0.0075

#: How strongly the simulator's host time follows the kernel's.  When
#: the development host turns slow the kernel slows by 1.55-1.75x and
#: the simulator's points by 1.2-1.55x (least where numpy does the
#: work), about the kernel's slowdown to the power 0.75.  Of the powers
#: 0.5-1.0, 0.75 gave the smallest worst run-to-run spread over ten
#: sets of five or ten runs of the four workloads.
ELASTICITY = 0.75

CYCLES = 500
PORTS = 16
LOAD = 0.6


class _Packet:
    __slots__ = ("dest", "born")

    def __init__(self, dest: int, born: int) -> None:
        self.dest = dest
        self.born = born


class _Port:
    __slots__ = ("index", "queue", "pointer", "credits")

    def __init__(self, index: int) -> None:
        self.index = index
        self.queue = deque()
        self.pointer = 0
        self.credits = 4

    def head_dest(self) -> int:
        return self.queue[0].dest if self.queue else -1


def kernel() -> int:
    """Deterministic crossbar run; returns the packets delivered."""
    rng = random.Random(7)
    ports = [_Port(i) for i in range(PORTS)]
    latencies = []
    for now in range(CYCLES):
        for port in ports:
            if rng.random() < LOAD:
                port.queue.append(_Packet(rng.randrange(PORTS), now))
        requests = {}
        for port in ports:
            dest = port.head_dest()
            if dest >= 0:
                requests.setdefault(dest, []).append(port.index)
        for out in ports:
            want = requests.get(out.index)
            if not want or out.credits == 0:
                if out.credits < 4:
                    out.credits += 1
                continue
            winner = min(want, key=lambda i, p=out.pointer: (i - p) % PORTS)
            out.pointer = (winner + 1) % PORTS
            latencies.append(now - ports[winner].queue.popleft().born)
            out.credits -= 1
    return len(latencies)


def slice_s() -> float:
    """CPU seconds of one kernel call, with the cyclic collector off.

    The kernel makes no reference cycles, so turning the collector off
    only keeps a collection of the simulator's heap out of the slice.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        kernel()
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()


def scale(cal_s: float) -> float:
    """Factor from host seconds to seconds at ``REFERENCE_S``."""
    return (REFERENCE_S / cal_s) ** ELASTICITY
