"""Golden aggregation vectors ported from the reference's metricalize tests
(src/transforms/metricalize.rs:296-457) and MetricValue::merge
(lib/event/src/metric/mod.rs:42-64) — see FIXTURES.md §F4."""

import numpy as np
import pytest

from aggregate_spec import AggState, observe_many
from vertex_ray.schema import (
    DEFAULT_BUCKETS,
    KIND_GAUGE,
    KIND_HISTOGRAM,
    KIND_SUM,
)


def test_counter_occurrences():
    # F4.1: 2 rows with the field present → Sum(2.0)
    st = observe_many(KIND_SUM, [1.0, 1.0], [1, 2])
    assert st.sum == 2.0 and st.count == 2


def test_counter_increment_by_value():
    # F4.2: values ["bar"(skipped upstream), "1.2", 2, 3, 4.3] → Sum(10.5)
    st = observe_many(KIND_SUM, [1.2, 2.0, 3.0, 4.3], [1, 2, 3, 4])
    assert st.sum == pytest.approx(10.5, abs=0) or st.sum == 10.5
    assert st.sum == 10.5  # exact in double: 1.2+2+3+4.3 == 10.5 bitwise
    assert st.count == 4


def test_gauge_last_write_wins():
    # F4.4: values ["1"→1.0, 2.1] → Gauge(2.1)
    st = observe_many(KIND_GAUGE, [1.0, 2.1], [10, 20])
    assert st.last == 2.1
    # out-of-order timestamps: earlier ts must not overwrite
    st.observe(5.0, 15)
    assert st.last == 2.1 and st.last_ts == 20


def test_histogram_merge_vector():
    # F4.5: [0.0005, 5.0] with default uppers → count=2, sum=5.0005,
    # cumulative buckets [1,1,1,1,1,1,1,1,1,2,2] (f <= upper; 5 hits the 5.0
    # bucket; +Inf bucket == count).
    st = observe_many(KIND_HISTOGRAM, [0.0005, 5.0], [1, 2])
    assert st.count == 2
    assert st.sum == 5.0005
    np.testing.assert_array_equal(st.bucket_counts, [1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2])


def test_histogram_init():
    # F4.7: first observation → count=1, sum=v, bucket = (v <= upper)
    st = observe_many(KIND_HISTOGRAM, [0.3], [1])
    assert st.count == 1 and st.sum == 0.3
    np.testing.assert_array_equal(
        st.bucket_counts, [1 if 0.3 <= u else 0 for u in DEFAULT_BUCKETS]
    )


def test_histogram_boundary_le():
    # exact boundary: f == upper increments that bucket (note `<=`)
    st = observe_many(KIND_HISTOGRAM, [0.25], [1])
    assert st.bucket_counts[list(DEFAULT_BUCKETS).index(0.25)] == 1


def test_kind_mismatch_reset():
    # F4.6: series changing kind → state replaced by the new initial value
    st = observe_many(KIND_SUM, [3.0], [1])
    new = observe_many(KIND_GAUGE, [7.0], [2])
    st = st.merge(new)
    assert st.kind == KIND_GAUGE and st.last == 7.0 and st.count == 1


def test_tier_merge():
    # F4 tier-merge vector: sums/counts add, min/max fold, last by latest ts,
    # element-wise bucket add; mean derived only after final merge.
    a = observe_many(KIND_HISTOGRAM, [0.001, 2.0], [100, 200])
    b = observe_many(KIND_HISTOGRAM, [0.3], [150])
    m = observe_many(KIND_HISTOGRAM, [0.001, 2.0, 0.3], [100, 200, 150])
    merged = a.merge(b)
    assert merged.sum == m.sum and merged.count == m.count
    assert merged.min == m.min and merged.max == m.max
    assert merged.last == m.last and merged.last_ts == m.last_ts
    np.testing.assert_array_equal(merged.bucket_counts, m.bucket_counts)
    assert merged.mean == m.sum / m.count


def test_merge_order_independent_exact_inputs():
    # integer-valued doubles → exact sums → any merge order is bit-identical
    rng = np.random.default_rng(0)
    vals = rng.integers(1, 600, size=200).astype(float)
    ts = np.arange(200) * 1_000_000
    whole = observe_many(KIND_SUM, vals, ts)
    parts = [observe_many(KIND_SUM, vals[i::7], ts[i::7]) for i in range(7)]
    acc = parts[3]
    for p in [parts[5], parts[0], parts[6], parts[1], parts[4], parts[2]]:
        acc = acc.merge(p)
    assert acc.sum == whole.sum and acc.count == whole.count
    assert acc.min == whole.min and acc.max == whole.max
    assert acc.last == whole.last


def test_min_max_nan_safe_first_obs():
    st = AggState(KIND_GAUGE)
    st.observe(-3.0, 1)
    assert st.min == -3.0 and st.max == -3.0
    st.observe(5.0, 2)
    assert st.min == -3.0 and st.max == 5.0
