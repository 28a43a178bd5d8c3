"""Fixed-bucket histograms for telemetry distributions.

A :class:`FixedHistogram` folds a stream of non-negative numbers into
one fixed set of upper-inclusive power-of-two bucket bounds
(:data:`DEFAULT_BOUNDS`), so the buckets are stable across processes
and merges never re-bucket.
It keeps exact ``count`` / ``total`` / ``min`` / ``max`` alongside the
bucketed distribution, supports nearest-rank percentile estimates, and
merges associatively — the property the runner relies on when folding
per-cell telemetry back together in grid order.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

#: Default upper-inclusive bucket bounds: 1, 2, 4, ..., 2**30.  Values
#: above the last bound land in the implicit overflow bucket.
DEFAULT_BOUNDS: Tuple[int, ...] = tuple(2 ** i for i in range(31))


class FixedHistogram:
    """Counts of observations per fixed bucket; see the module docstring."""

    __slots__ = ("buckets", "count", "total", "min", "max")

    #: Every histogram's bucket bounds.
    bounds = DEFAULT_BOUNDS

    def __init__(self) -> None:
        # One slot per bound plus the overflow bucket.
        self.buckets: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float, times: int = 1) -> None:
        """Fold ``times`` observations of ``value`` into the histogram."""
        if times <= 0:
            return
        self.buckets[bisect_left(self.bounds, value)] += times
        self.count += times
        self.total += value * times
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile estimate (a bucket upper bound).

        Returns the upper bound of the bucket containing the q-quantile
        observation, clamped to the exact observed ``max`` so the tail
        estimate never exceeds reality.  0 when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must lie in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = max(1, int(q * self.count + 0.5))
        acc = 0
        for i, bucket_count in enumerate(self.buckets):
            acc += bucket_count
            if acc >= rank:
                bound = (
                    self.bounds[i] if i < len(self.bounds) else self.max
                )
                return min(float(bound), float(self.max))
        return float(self.max)

    def merge(self, other: "FixedHistogram") -> None:
        """Fold ``other`` into this histogram."""
        for i, bucket_count in enumerate(other.buckets):
            self.buckets[i] += bucket_count
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def summary(self) -> Dict[str, float]:
        """Compact stats for reports: count, mean, p50, p95, min, max."""
        return {
            "count": self.count,
            "mean": self.mean(),
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "min": self.min if self.min is not None else 0,
            "max": self.max if self.max is not None else 0,
        }

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form that survives a process boundary.

        Buckets are stored sparsely, keyed by the stringified upper
        bound (``"+inf"`` for the overflow bucket) so the payload stays
        JSON-stable.
        """
        sparse: Dict[str, int] = {}
        for i, bucket_count in enumerate(self.buckets):
            if bucket_count:
                key = "+inf" if i >= len(self.bounds) else repr(self.bounds[i])
                sparse[key] = bucket_count
        return {
            "bounds": list(self.bounds),
            "buckets": sparse,
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FixedHistogram":
        """Rebuild :meth:`to_dict` output; a payload stored with other
        bounds than :data:`DEFAULT_BOUNDS` raises :class:`ValueError`."""
        if tuple(data["bounds"]) != DEFAULT_BOUNDS:  # type: ignore[arg-type]
            raise ValueError(
                "histogram bounds differ from the power-of-two bounds "
                "every histogram uses"
            )
        hist = cls()
        index_of = {repr(b): i for i, b in enumerate(hist.bounds)}
        index_of["+inf"] = len(hist.bounds)
        for key, bucket_count in dict(data["buckets"]).items():  # type: ignore[arg-type]
            hist.buckets[index_of[str(key)]] = int(bucket_count)
        hist.count = int(data["count"])  # type: ignore[arg-type]
        hist.total = float(data["total"])  # type: ignore[arg-type]
        hist.min = data.get("min")  # type: ignore[assignment]
        hist.max = data.get("max")  # type: ignore[assignment]
        return hist

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FixedHistogram):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (
            f"FixedHistogram(count={self.count}, min={self.min}, "
            f"max={self.max})"
        )
