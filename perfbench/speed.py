"""Host-speed gauge: small fixed kernels timed between items.

On a shared host the CPU's throughput drifts by tens of percent over tens of
seconds, for the library and for any other code alike, so raw times of two
runs of the same code differ by more than a regression bound.  A run
therefore also times small kernels of the benchmark's own between its items,
outside the item timings, and scales its timings to the reference speed, at
which each kernel takes its REFERENCE seconds.

The kernels never call the library, so a change to the library cannot move
them.  Each has the operation mix of one kind of layer, and each workload
names the mix of kernels whose speed tracks its own (workloads.Workload.gauge).
"""

from __future__ import annotations

import functools
import math
import mmap
import time

import numpy as np

PROBE_EVERY = 0.1  # seconds of item time between two probes


def _interp() -> int:
    """Interpreter work: integer arithmetic, tuples, dict updates, a sort."""
    acc, x, seen = 0, 12345, {}
    for _ in range(3000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        t = (x & 31, (x >> 5) & 31, (x >> 10) & 31)
        seen[t] = seen.get(t, 0) + 1
        acc ^= min(t) | (max(t) << 5)
    return acc + len(sorted(seen.values()))


_SMALL = np.arange(1 << 16, dtype=np.uint64)


def _cached() -> int:
    """Array work that stays in cache: hashing, masking, a small unique."""
    out = 0
    for r in range(4):
        h = (_SMALL + np.uint64(r)) * np.uint64(0x9E3779B97F4A7C15)
        h ^= h >> np.uint64(29)
        out += int(np.count_nonzero((h >> np.uint64(11)) < np.uint64(1 << 50)))
        out += int(np.unique(h[:4096] & np.uint64(1023)).size)
    return out


@functools.cache
def _stream_buffers():
    """Allocated on first use, so only workloads that use _stream hold them."""
    ranks = np.arange(1 << 19, dtype=np.uint64)
    return ranks, np.empty_like(ranks), np.empty_like(ranks), np.empty(ranks.shape, dtype=bool)


def _stream() -> int:
    """Array work larger than cache, into preallocated buffers: hash ranks, compare."""
    ranks, z, tmp, hit = _stream_buffers()
    np.multiply(ranks, np.uint64(0x9E3779B97F4A7C15), out=z)
    np.right_shift(z, np.uint64(30), out=tmp)
    np.bitwise_xor(z, tmp, out=z)
    np.multiply(z, np.uint64(0xBF58476D1CE4E5B9), out=z)
    np.right_shift(z, np.uint64(27), out=tmp)
    np.bitwise_xor(z, tmp, out=z)
    np.right_shift(z, np.uint64(11), out=tmp)
    np.less(tmp, np.uint64(1 << 45), out=hit)
    return int(np.count_nonzero(hit))


def _fault(pages: int = 1024) -> int:
    """Page faults: map fresh anonymous memory and touch each page once.

    Large numpy arrays come from fresh pages too, so the cost of a fault is
    part of the time of array work on large inputs.
    """
    with mmap.mmap(-1, pages * mmap.PAGESIZE) as mem:
        for offset in range(0, len(mem), mmap.PAGESIZE):
            mem[offset] = 1
    return pages


def _graph(n: int = 512, p: float = 0.06, edges: int = 1024):
    rng = np.random.default_rng(7)
    adj = np.triu(rng.random((n, n)) < p, 1)
    eu, ev = np.nonzero(adj)
    adj |= adj.T
    comb2 = np.array([math.comb(x, 2) for x in range(n)], dtype=np.int64)
    comb3 = np.array([math.comb(x, 3) for x in range(n)], dtype=np.int64)
    cut = np.packbits(np.triu(np.ones((n, n), dtype=bool), k=1), axis=1)
    return n, np.packbits(adj, axis=1), cut, eu[:edges], ev[:edges], comb2, comb3


_GRAPH = _graph()


def _gather() -> int:
    """Row gathers of packed bits, unpacking and nonzero: common neighbours of edges."""
    n, packed, cut, eu, ev, comb2, comb3 = _GRAPH
    flat = np.unpackbits(packed[eu] & packed[ev] & cut[ev], axis=1, count=n)
    ei, w = np.nonzero(flat)
    z = (eu[ei] + comb2[ev[ei]] + comb3[w]).astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(31)
    return int(np.count_nonzero((z >> np.uint64(11)) < np.uint64(1 << 50)))


KERNELS = {
    "interp": _interp,
    "cached": _cached,
    "stream": _stream,
    "fault": _fault,
    "gather": _gather,
}

# seconds per kernel at the reference speed: medians over several minutes of
# probes on a shared 2-vCPU x86-64 VM (Python 3.11, numpy 2.4)
REFERENCE = {
    "interp": 0.0045,
    "cached": 0.0025,
    "stream": 0.0040,
    "fault": 0.0035,
    "gather": 0.0030,
}


class Gauge:
    """Slowdown of the host against the reference, sampled between items.

    tick() after each item probes once PROBE_EVERY seconds of item time have
    passed since the last probe; the probe's reading stands for that stretch
    of time.  factor() is the time-weighted mean reading since the last call.
    A reading is the mix's weighted sum of kernel time / reference time.
    """

    def __init__(self, mix: dict[str, float]):
        total = sum(mix.values())
        self.mix = {name: w / total for name, w in mix.items()}
        self.pending = 0.0
        self.readings: list[tuple[float, float]] = []  # (weight, reading)
        self.spent = 0.0  # seconds spent in probes since the last factor()
        for name in self.mix:  # warm-up
            KERNELS[name]()

    def probe(self, weight: float) -> None:
        start = time.perf_counter()
        reading = 0.0
        for name, share in self.mix.items():
            t0 = time.perf_counter()
            KERNELS[name]()
            reading += share * (time.perf_counter() - t0) / REFERENCE[name]
        self.spent += time.perf_counter() - start
        self.readings.append((weight, reading))

    def tick(self, seconds: float) -> None:
        self.pending += seconds
        if self.pending >= PROBE_EVERY:
            self.probe(self.pending)
            self.pending = 0.0

    def factor(self) -> tuple[float, float]:
        """(slowdown, probe seconds) since the last call; starts a new stretch."""
        if self.pending > 0 or not self.readings:
            self.probe(max(self.pending, 1e-9))
        total = sum(w for w, _ in self.readings)
        slowdown = sum(w * r for w, r in self.readings) / total
        spent = self.spent
        self.pending, self.readings, self.spent = 0.0, [], 0.0
        return slowdown, spent
