"""Labeled, log-bucketed latency histograms.

Engine counters are plain :class:`~repro.runtime.stats.RuntimeStats`
fields; a histogram is the one thing a scalar field cannot hold.  The
serving scheduler observes per-request queue/exec/latency seconds into
three histograms labeled by ``(tenant, program)``, which ``RuntimeStats``
owns, and ``serving_summary()`` extracts p50/p95/p99 from them (the flat
``serve_*_seconds`` totals stay fields).

Histograms are log-bucketed: bucket ``i >= 1`` covers
``(base * 2**(i-1), base * 2**i]`` seconds with ``base = 1e-6`` (the
underflow bucket 0 covers ``[0, base]``).  Percentiles interpolate
linearly inside the crossing bucket and clamp to the observed min/max,
so a histogram fed constant values reports that constant exactly.

Thread-safety: all cell mutations of one histogram happen under its
own tracked lock (lockset-checked).
"""

from __future__ import annotations

import math

from repro.analysis import lockset

#: Lower bound of the first histogram bucket [seconds].
BUCKET_BASE = 1e-6
#: Highest bucket index (2**64 * base covers any conceivable latency).
MAX_BUCKET = 64


def bucket_index(value: float) -> int:
    """The log-bucket index holding ``value`` (seconds)."""
    if value <= BUCKET_BASE:
        return 0
    return min(MAX_BUCKET,
               max(1, math.ceil(math.log2(value / BUCKET_BASE))))


def bucket_bounds(index: int) -> tuple[float, float]:
    """The (lo, hi] value range of one bucket index."""
    if index == 0:
        return 0.0, BUCKET_BASE
    return BUCKET_BASE * 2.0 ** (index - 1), BUCKET_BASE * 2.0 ** index


class HistogramCell:
    """Aggregated observations of one label combination."""

    __slots__ = ("count", "total", "vmin", "vmax", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.vmin = min(self.vmin, value)
        self.vmax = max(self.vmax, value)
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def combine(self, other: "HistogramCell") -> None:
        self.count += other.count
        self.total += other.total
        self.vmin = min(self.vmin, other.vmin)
        self.vmax = max(self.vmax, other.vmax)
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (``q`` in (0, 100])."""
        if self.count == 0:
            return 0.0
        target = q / 100.0 * self.count
        cumulative = 0
        for index in sorted(self.buckets):
            in_bucket = self.buckets[index]
            if cumulative + in_bucket >= target:
                lo, hi = bucket_bounds(index)
                fraction = (target - cumulative) / in_bucket
                value = lo + (hi - lo) * fraction
                return min(max(value, self.vmin), self.vmax)
            cumulative += in_bucket
        return self.vmax


class Histogram:
    """Labeled log-bucketed histogram with percentile extraction."""

    def __init__(self):
        # Tracked: serving workers observe while summary readers
        # snapshot; lockset-checked like stats.lock.
        self._lock = lockset.make_lock("Histogram._lock")
        self._cells: dict[tuple, HistogramCell] = {}

    def _cell(self, labels: dict) -> HistogramCell:
        """The cell of one label set (caller holds ``_lock``)."""
        lockset.note_access("Histogram", self, "cells")
        key = tuple(sorted(labels.items()))
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = HistogramCell()
        return cell

    def observe(self, value: float, **labels) -> None:
        with self._lock:
            self._cell(labels).observe(float(value))

    def cells(self) -> list[tuple[dict, HistogramCell]]:
        """Snapshot of every (labels, cell) pair."""
        with self._lock:
            lockset.note_access("Histogram", self, "cells")
            snapshot = []
            for key, cell in self._cells.items():
                copy = HistogramCell()
                copy.combine(cell)
                snapshot.append((dict(key), copy))
            return snapshot

    def aggregate(self, **label_filter) -> HistogramCell:
        """One combined cell over all labels matching ``label_filter``."""
        combined = HistogramCell()
        for labels, cell in self.cells():
            if all(labels.get(k) == v for k, v in label_filter.items()):
                combined.combine(cell)
        return combined

    def grouped(self, label: str) -> dict[str, HistogramCell]:
        """Combined cells keyed by one label's values."""
        groups: dict[str, HistogramCell] = {}
        for labels, cell in self.cells():
            key = labels.get(label, "")
            groups.setdefault(key, HistogramCell()).combine(cell)
        return groups

    def merge(self, other: "Histogram") -> None:
        """Accumulate another histogram's cells into this one."""
        for labels, cell in other.cells():
            with self._lock:
                self._cell(labels).combine(cell)


__all__ = [
    "Histogram",
    "HistogramCell",
    "bucket_index",
    "bucket_bounds",
]
