"""Pure aggregation kernel — vertex's merge semantics, bit-for-bit.

This module has no Ray dependency; it is the scalar statement of
observation and merge semantics. The array kernel (stages/kernel) is
property-tested against it through the brute-force rollup oracle of the
test spec (tests/rollup_spec.py).

Contracts (from /root/reference):

- ``MetricValue::merge`` (lib/event/src/metric/mod.rs:42-64):
  Sum: ``s += f``; Gauge: ``g = f`` (last write wins); Histogram:
  ``count += 1; sum += f; for b in buckets: if f <= b.upper: b.count += 1``
  (cumulative "le" buckets, +Inf implicit == count); Summary: no-op.
- metricalize value init (src/transforms/metricalize.rs:104-121):
  first observation creates the state; histogram first obs has count=1,
  sum=v, bucket.count = 1 if v <= upper else 0.
- Kind-mismatch reset (src/transforms/metricalize.rs:236-252): if an
  existing series changes metric kind, state is REPLACED by the new
  initial value (caller counts a failure).
- Tier merge (FIXTURES.md §F4): sum+sum, count+count, min(min), max(max),
  last by latest observation timestamp, element-wise bucket add. Mean is
  NEVER stored — it is derived from (sum, count) at read time only.

Exactness note: the flagship pipeline's observed values (counter
increments of 1.0, integer-second latencies) are exactly representable
doubles, so every float sum here is exact and therefore independent of
merge order — this is what makes the rollup bit-for-bit reproducible
across parallelism levels (SURVEY.md §7.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from vertex_ray.schema import DEFAULT_BUCKETS_ARR, KIND_HISTOGRAM, N_BUCKETS


@dataclass
class AggState:
    """Windowed aggregate state for one (series, window)."""

    kind: int
    sum: float = 0.0
    count: int = 0
    min: float = np.nan
    max: float = np.nan
    last: float = np.nan
    last_ts: int = -(2**62)
    bucket_counts: np.ndarray = field(
        default_factory=lambda: np.zeros(N_BUCKETS, dtype=np.int64)
    )

    def observe(self, value: float, ts_us: int) -> None:
        """Fold one observation in — MetricValue::merge semantics plus the
        min/max/last rollup extensions (FIXTURES.md §F3)."""
        v = float(value)
        self.count += 1
        self.sum += v
        self.min = v if not (self.min <= v) else self.min  # NaN-safe first obs
        self.max = v if not (self.max >= v) else self.max
        if ts_us >= self.last_ts:
            self.last = v
            self.last_ts = ts_us
        if self.kind == KIND_HISTOGRAM:
            self.bucket_counts += (v <= DEFAULT_BUCKETS_ARR).astype(np.int64)

    def merge(self, other: "AggState") -> "AggState":
        """Merge another partial for the same (series, window) — associative
        and (given exact-double inputs) order-independent."""
        if other.kind != self.kind:
            # kind-mismatch reset (metricalize.rs:236-252): the reference
            # resets on ARRIVAL of the new observation, but a tree/parallel
            # reduction has no arrival order — break the tie by last_ts so
            # the survivor is merge-order-independent. NOTE: in this engine
            # kind is invariant per series (the series_key embeds the
            # metric name, which fixes the kind), so this path is
            # defensive, not load-bearing.
            return other if other.last_ts >= self.last_ts else self
        self.sum += other.sum
        self.count += other.count
        if not (self.min <= other.min):
            self.min = other.min
        if not (self.max >= other.max):
            self.max = other.max
        if other.last_ts >= self.last_ts:
            self.last = other.last
            self.last_ts = other.last_ts
        self.bucket_counts += other.bucket_counts
        return self

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else np.nan


def observe_many(kind: int, values, ts_us) -> AggState:
    st = AggState(kind)
    for v, t in zip(values, ts_us):
        st.observe(v, t)
    return st

