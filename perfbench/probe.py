"""A host-speed probe, read around every timed call.

The benchmark runs on a few cores of a shared host.  Every few seconds the
speed of pure-Python code drops to about half and comes back (the
neighbours' load on the same physical cores), and the share of slow time
moves from run to run and from hour to hour.  Wall seconds therefore
measure the neighbours as much as the program.

:class:`Stopwatch` times a block and reads :func:`probe_seconds`, a fixed
pure-Python loop, right before and right after it; for a block that mostly
waits on worker processes, a thread also reads it every ``sample_every``
seconds during the block.  ``run.py`` rescales each sample to the
reference speed with :func:`at_reference_speed`, which estimates what the
sample would have taken on an undisturbed core.  The loop is the
benchmark's own code, so no change to ``repro`` moves it.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import List, Optional, Tuple

#: Loop iterations of one probe: about 1.7 ms on a 2.1 GHz Xeon core.
PROBE_ROUNDS = 10000
#: The probe's reading on that core in a fast phase: the reference speed.
REFERENCE_PROBE_S = 1.7e-3
#: A sample slows by (probe reading / reference) to this power: when the
#: probe reads 2x, compiles and validations take 1.62x (see README.md).
SLOWDOWN_EXPONENT = 0.7
_KEYS = 0xFFF


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value: float) -> None:
        self.value = value
        self.next = self


def _ring(size: int) -> _Node:
    nodes = [_Node(float(i % 97)) for i in range(size)]
    for i, node in enumerate(nodes):
        node.next = nodes[(i * 31 + 1) % size]
    return nodes[0]


_RING = _ring(4096)
_TABLE = {key: 0.0 for key in range(_KEYS + 1)}


def _step(table: dict, node: _Node, i: int) -> _Node:
    key = (i * 7919) & _KEYS
    table[key] = table.get(key, 0.0) * 0.5 + node.value
    return node.next


def probe_seconds(rounds: int = PROBE_ROUNDS) -> float:
    """CPU seconds of a fixed loop of calls, dict updates and attribute reads.

    Thread CPU time, not wall time: a slow phase shows in both, but time
    spent waiting for the GIL or for a core shows only in wall time.
    """
    table, node = _TABLE, _RING
    start = time.thread_time()
    for i in range(rounds):
        node = _step(table, node, i)
    return time.thread_time() - start


class Stopwatch:
    """Wall seconds of a block, with the mean probe reading around it.

    With ``sample_every``, a thread also probes every that many seconds
    while the block runs.  Meant for blocks whose work runs in worker
    processes: every 0.25 s, the probes take about 1 % of a core.
    """

    seconds = 0.0
    probe = 0.0

    def __init__(self, sample_every: Optional[float] = None) -> None:
        self.sample_every = sample_every
        self._readings: List[float] = []
        self._done = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _sample(self) -> None:
        assert self.sample_every is not None
        while not self._done.wait(self.sample_every):
            self._readings.append(probe_seconds())

    def __enter__(self) -> "Stopwatch":
        self._readings.append(probe_seconds())
        if self.sample_every is not None:
            self._thread = threading.Thread(target=self._sample, daemon=True)
            self._thread.start()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.seconds = time.perf_counter() - self._start
        if self._thread is not None:
            self._done.set()
            self._thread.join()
        self._readings.append(probe_seconds())
        self.probe = statistics.fmean(self._readings)
        return False

    def sample(self, ops: int) -> Tuple[int, float, float]:
        """``(operations, seconds, probe seconds)``: one timing sample."""
        return ops, self.seconds, self.probe


def at_reference_speed(seconds: float, probe: float) -> float:
    """``seconds`` measured while the probe read ``probe``, at reference speed."""
    return seconds * (REFERENCE_PROBE_S / probe) ** SLOWDOWN_EXPONENT


probe_seconds()  # the first call pays for warming the loop up
