"""Vectorized rollup ≡ AggState oracle (bit-for-bit), salted ≡ unsalted."""

import numpy as np
import pandas as pd
import pytest

from rollup_spec import (
    derive_points_arrays,
    merge_agg,
    rollup_bucket,
    rollup_oracle,
    window_agg_points,
)
from vertex_ray.schema import BUCKET_COLS, KIND_HISTOGRAM
from vertex_ray.synth import generate_transcripts


@pytest.fixture(scope="module")
def turns():
    t = generate_transcripts(8000).to_pandas()
    t["bucket"] = 0
    return t


def points_of(turns):
    t = turns.sort_values(["conv_id", "turn_idx"], kind="stable")
    return derive_points_arrays(
        t["conv_id"].to_numpy(dtype=object),
        t["turn_idx"].to_numpy(),
        t["role"].to_numpy(dtype=object),
        t["tool"].to_numpy(dtype=object),
        t["ts"].to_numpy().astype("datetime64[us]").astype(np.int64),
    )


def assert_matches_oracle(agg: pd.DataFrame, pts, window_seconds):
    oracle = rollup_oracle(
        pts["series_key"], pts["kind"], pts["value"], pts["ts"], window_seconds
    )
    assert len(agg) == len(oracle)
    for row in agg.itertuples(index=False):
        st = oracle[(row.series_key, row.window_start)]
        assert row.sum == st.sum, (row.series_key, row.window_start)
        assert row.count == st.count
        assert row.min == st.min and row.max == st.max
        assert row.last == st.last and row.last_ts == st.last_ts
        got = np.array([getattr(row, b) for b in BUCKET_COLS])
        np.testing.assert_array_equal(got, st.bucket_counts)


def test_window_agg_matches_oracle(turns):
    pts = points_of(turns)
    agg = window_agg_points(
        pts["series_key"], pts["name"], pts["kind"], pts["ts"], pts["value"], 60, 0
    )
    assert_matches_oracle(agg, pts, 60)
    # histogram rows actually have bucket mass
    hist = agg[agg["kind"] == KIND_HISTOGRAM]
    assert len(hist) > 0 and hist[list(BUCKET_COLS)].to_numpy().sum() > 0


def test_rollup_bucket_salted_equals_unsalted(turns):
    a = rollup_bucket(turns, 60, salt=1).sort_values(["series_key", "window_start"])
    b = rollup_bucket(turns, 60, salt=4).sort_values(["series_key", "window_start"])
    a, b = a.reset_index(drop=True), b.reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_exact=True)


def test_tier_merge_equals_direct(turns):
    """Cascading 1m → 5m → 1h equals aggregating raw points directly at
    each granularity — the continuous-aggregate contract."""
    pts = points_of(turns)
    agg1 = rollup_bucket(turns, 60)
    for coarse in (300, 3600):
        cascaded = (
            merge_agg(agg1, coarse)
            .sort_values(["series_key", "window_start"])
            .reset_index(drop=True)
        )
        direct = (
            window_agg_points(
                pts["series_key"], pts["name"], pts["kind"], pts["ts"], pts["value"],
                coarse, 0,
            )
            .sort_values(["series_key", "window_start"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(cascaded, direct, check_exact=True)
        assert_matches_oracle(direct, pts, coarse)
