"""A fixed reference loop that measures how fast the host runs right now.

The benchmark runs on shared machines whose speed drifts: on a 2-vCPU VM
the same pure-Python code ran up to 2x slower for seconds at a time, and
workload medians moved by up to 29% between sets of runs minutes apart.
The program's own wall time cannot tell such drift from a change in the
program, so the benchmark times this loop next to every unit and scales the
unit's wall time by how much slower than :data:`REFERENCE_S` the loop ran.

The loop is the benchmark's own code and never changes with the program.
It mimics the program's mix — small slotted objects, method calls, a deque,
a dict and a seeded ``random.Random`` — so that it slows down under the
same contention the program does.
"""

from __future__ import annotations

import random
from collections import deque
from time import perf_counter

#: Seconds the reference loop takes at the host's nominal speed (its
#: typical time on a 2-vCPU x86_64 VM, Python 3.11).  Scaled figures read
#: as seconds at that speed; the constant only sets their scale.
REFERENCE_S = 0.025

_ROUNDS = 20_000


class _Station:
    __slots__ = ("seq", "nonce", "log")

    def __init__(self) -> None:
        self.seq = 0
        self.nonce = 0
        self.log = {}

    def on_packet(self, seq: int, nonce: int):
        if seq == self.seq:
            self.seq += 1
            self.nonce = (nonce * 1103515245 + 12345) & 0xFFFFFFFF
        self.log[seq & 255] = nonce
        return seq, self.nonce


def _reference_work() -> int:
    rng = random.Random(7)
    sender, receiver = _Station(), _Station()
    queue = deque()
    for i in range(_ROUNDS):
        queue.append((i, rng.getrandbits(32)))
        if rng.random() < 0.8:
            seq, nonce = queue.popleft()
            receiver.on_packet(*sender.on_packet(seq, nonce))
    return sender.seq + receiver.seq


def reference_s() -> float:
    """Seconds one run of the reference loop takes now."""
    started = perf_counter()
    _reference_work()
    return perf_counter() - started
