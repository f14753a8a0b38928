"""A fixed reference kernel that measures how fast the host runs Python now.

A small virtual machine on a shared host does not run at one speed:
other tenants on the same cores and caches slow the same code by up to
a factor of two for a minute or more at a time, and CPU time slows with
it.  Within one run the speed is nearly constant; between runs it is
not.  The benchmark therefore runs this kernel between operations and
scales its CPU times by ``REFERENCE_S / median(kernel times)``: CPU
seconds at the reference host's speed.  On the reference host, over
nine minutes in which the raw run medians spread by about 50 %, the
scaled ones spread by 3-9 %.

The kernel is part of the benchmark, never of the program, so no change
to the program can speed it up or slow it down.  It is timed on its own
thread's CPU clock with the garbage collector off, so neither threads
the program leaves running nor the program's collector settings reach
it.  It mimics the interpreter work the simulators do: attribute reads,
method calls, small-integer arithmetic, dict stores and set building.
"""

from __future__ import annotations

import gc
from time import thread_time

#: kernel CPU time on the reference host (2-vCPU Xeon virtual machine,
#: Python 3.11) with idle neighbours, estimated from the ratio of
#: table1 operation time to kernel time and table1's idle-host time
REFERENCE_S = 0.06

_NODES = 200
_FANOUT = 3
_ROUNDS = 1200


class _Node:
    __slots__ = ("name", "value", "succ")

    def __init__(self, name: str, value: int) -> None:
        self.name = name
        self.value = value
        self.succ: list = []

    def step(self, table: dict) -> int:
        value = self.value
        for succ in self.succ:
            value = (value * 31 + succ.value) & 0xFFFF
        table[self.name] = value
        return value


def _kernel() -> int:
    nodes = [_Node(f"n{i}", i) for i in range(_NODES)]
    for i, node in enumerate(nodes):
        node.succ = [nodes[(i * 7 + k) % _NODES] for k in range(_FANOUT)]
    table: dict = {}
    acc = 0
    for _ in range(_ROUNDS):
        for node in nodes:
            acc ^= node.step(table)
        acc += len({v & 0xFF for v in table.values()})
    return acc


def sample() -> float:
    """CPU seconds one run of the kernel takes on this thread now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = thread_time()
        _kernel()
        return thread_time() - start
    finally:
        if enabled:
            gc.enable()
