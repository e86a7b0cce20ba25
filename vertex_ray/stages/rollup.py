"""Windowed rollup — the engine's heart.

The reference accumulates ``HashMap<MetricSeries, MetricValue>`` per
process and flushes on an interval tick
(src/transforms/metricalize.rs:195-283). Re-expressed Ray-Data-first,
the rollup is ONE hash shuffle per run:

    read_parquet → map_batches(derive projection)           # prune + bucket
      → groupby("bucket").map_groups(rollup_bucket)         # all the rest

Inside a bucket group everything is vectorized pandas/numpy: sort by
(conv_id, turn_idx), derive points (stage 1), floor timestamps to window
starts, and aggregate per (series_key, window) with exact-double
arithmetic that reproduces AggState/MetricValue::merge bit-for-bit
(property-tested in tests/test_rollup.py).

Skew: hashing by conv_id spreads hot conversations' *series* but a
single conversation still lands in one bucket. ``salt`` therefore
splits each bucket's rows into S deterministic sub-groups aggregated
independently and merged — the two-phase salted aggregate demanded for
hot keys (SURVEY.md §4). With exact-double inputs the salted and
unsalted paths are bit-identical (tested).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from vertex_ray.schema import (
    AGG_SCHEMA,
    BUCKET_COLS,
    DEFAULT_BUCKETS_ARR,
    KIND_HISTOGRAM,
    N_BUCKETS,
    US_PER_SECOND,
)
from vertex_ray.stages.derive import derive_points_arrays

AGG_COLS = list(AGG_SCHEMA.names)

_AGG_DTYPES = {
    "bucket": np.int32,
    "series_key": object,
    "name": object,
    "kind": np.uint8,
    "window_start": np.int64,
    "sum": np.float64,
    "count": np.int64,
    "min": np.float64,
    "max": np.float64,
    "last": np.float64,
    "last_ts": np.int64,
    **{b: np.int64 for b in BUCKET_COLS},
}


def empty_agg_df() -> pd.DataFrame:
    return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _AGG_DTYPES.items()})


def ts_to_us(ts_col: pd.Series) -> np.ndarray:
    """Pandas timestamp column (ns or us resolution) → epoch microseconds."""
    if ts_col.dtype.kind == "M":
        return ts_col.to_numpy().astype("datetime64[us]").astype(np.int64)
    return ts_col.to_numpy().astype(np.int64)


def window_agg_points(
    series_key: np.ndarray,
    name: np.ndarray,
    kind: np.ndarray,
    ts_us: np.ndarray,
    value: np.ndarray,
    window_seconds: int,
    bucket_id: int,
) -> pd.DataFrame:
    """Aggregate point observations into per-(series, window) rows.

    Exact-double arithmetic; ``last`` is the value with the greatest
    observation timestamp (ties broken by input order, matching
    last-write-wins on equal timestamps)."""
    w = (ts_us // US_PER_SECOND) // window_seconds * window_seconds
    df = pd.DataFrame(
        {
            "series_key": series_key,
            "name": name,
            "kind": kind,
            "window_start": w,
            "ts": ts_us,
            "value": value,
        }
    )
    # stable sort by ts so groupby(...).last() is last-write-wins
    df = df.sort_values("ts", kind="stable")
    is_hist = df["kind"].to_numpy() == KIND_HISTOGRAM
    vals = df["value"].to_numpy()
    for i in range(N_BUCKETS):
        df[BUCKET_COLS[i]] = np.where(
            is_hist & (vals <= DEFAULT_BUCKETS_ARR[i]), 1, 0
        ).astype(np.int64)
    g = df.groupby(["series_key", "window_start"], sort=False)
    out = g.agg(
        name=("name", "first"),
        kind=("kind", "first"),
        sum=("value", "sum"),
        count=("value", "size"),
        min=("value", "min"),
        max=("value", "max"),
        last=("value", "last"),
        last_ts=("ts", "last"),
        **{b: (b, "sum") for b in BUCKET_COLS},
    ).reset_index()
    out["bucket"] = np.int32(bucket_id)
    out["count"] = out["count"].astype(np.int64)
    return out[AGG_COLS]


def merge_agg(df: pd.DataFrame, window_seconds: int) -> pd.DataFrame:
    """Merge aggregate partials into (coarser) windows — the tier-merge
    contract of FIXTURES.md §F4: sums/counts add, min/max fold, last by
    latest last_ts, element-wise bucket adds. Used by both the salted
    second phase (same window size) and the tier cascade (coarser).

    KIND_SUMMARY rows follow the NO-OP merge instead
    (MetricValue::merge does nothing for Summary,
    lib/event/src/metric/mod.rs:33-39): the coarser window keeps the
    FIRST accumulated state — earliest last_ts, positionally (NaN-safe),
    every column untouched."""
    from vertex_ray.schema import KIND_SUMMARY

    df = df.copy()
    df["window_start"] = df["window_start"] // window_seconds * window_seconds
    df = df.sort_values("last_ts", kind="stable")
    is_summary = df["kind"].to_numpy() == KIND_SUMMARY
    if is_summary.any():
        first = (df[is_summary]
                 .drop_duplicates(["series_key", "window_start"],
                                  keep="first"))
        rest = df[~is_summary]
        if not len(rest):
            return first[AGG_COLS]
        return pd.concat([merge_agg(rest, window_seconds),
                          first[AGG_COLS]], ignore_index=True)
    g = df.groupby(["series_key", "window_start"], sort=False)
    out = g.agg(
        bucket=("bucket", "first"),
        name=("name", "first"),
        kind=("kind", "first"),
        sum=("sum", "sum"),
        count=("count", "sum"),
        min=("min", "min"),
        max=("max", "max"),
        last=("last", "last"),
        last_ts=("last_ts", "last"),
        **{b: (b, "sum") for b in BUCKET_COLS},
    ).reset_index()
    return out[AGG_COLS]


def rollup_bucket(
    group: pd.DataFrame,
    window_seconds: int = 60,
    salt: int = 1,
) -> pd.DataFrame:
    """Per-bucket group body: raw pruned turns → tier aggregate rows."""
    if len(group) == 0:
        return empty_agg_df()
    group = group.sort_values(["conv_id", "turn_idx"], kind="stable")
    bucket_id = int(group["bucket"].iloc[0])
    conv = group["conv_id"].to_numpy(dtype=object)
    ts_us = ts_to_us(group["ts"])
    pts = derive_points_arrays(
        conv,
        group["turn_idx"].to_numpy(),
        group["role"].to_numpy(dtype=object),
        group["tool"].to_numpy(dtype=object),
        ts_us,
    )
    if salt <= 1:
        return window_agg_points(
            pts["series_key"], pts["name"], pts["kind"], pts["ts"], pts["value"],
            window_seconds, bucket_id,
        )
    # two-phase salted aggregate: deterministic sub-split, per-salt partials,
    # then a final merge at the same window size.
    s = (pts["ts"] // US_PER_SECOND) % salt  # deterministic, spreads hot windows
    partials = [
        window_agg_points(
            pts["series_key"][s == i], pts["name"][s == i], pts["kind"][s == i],
            pts["ts"][s == i], pts["value"][s == i], window_seconds, bucket_id,
        )
        for i in range(salt)
        if int((s == i).sum())
    ]
    return merge_agg(pd.concat(partials, ignore_index=True), window_seconds)
