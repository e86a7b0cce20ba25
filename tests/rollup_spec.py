"""The readable pandas spec of the engine's aggregation, kept as the
reference the array kernel (vertex_ray/stages/kernel.py) is tested
against; no engine path calls it.

- ``window_agg_points`` / ``merge_agg`` / ``rollup_bucket``: per-point
  series-key strings aggregated with pandas groupby — the FIXTURES §F4
  merge contract (sums/counts add, min/max fold, ``last`` by latest
  ``last_ts``, summaries keep their first row).
- ``derive_points_arrays``: the flagship's four metrics as per-point
  string-keyed rows (FIXTURES §F2).
- ``fill_bucket_df`` / ``pack_series``: materialised LOCF fills, stale
  markers (FIXTURES §F5) and their dense per-series packing — what the
  run codes (kernel.fill_runs) and the expansion (fill.expand_runs_*)
  must reproduce bit for bit.
- ``rollup_oracle``: the brute-force per-(series, window) ``AggState``
  rollup.

pandas ``groupby().sum/min/max/last`` skip NaN; the kernel's positional
reductions do not (a NaN sample poisons its window), so compare the two
on NaN-free inputs only.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from aggregate_spec import AggState
from vertex_ray.schema import (
    AGG_SCHEMA,
    BUCKET_COLS,
    DEFAULT_BUCKETS_ARR,
    KIND_GAUGE,
    KIND_HISTOGRAM,
    KIND_SUM,
    N_BUCKETS,
    STALE_NAN,
    STALE_NAN_BITS,
    STALENESS_SECONDS,
    US_PER_SECOND,
)
from vertex_ray.series import series_key_arrays

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


def derive_points_arrays(
    conv_id: np.ndarray,
    turn_idx: np.ndarray,
    role: np.ndarray,
    tool: np.ndarray,
    ts_us: np.ndarray,
) -> dict[str, np.ndarray]:
    """Vectorized points derivation over conversation-contiguous arrays
    sorted by (conv_id, turn_idx). Returns parallel numpy columns matching
    the derived points table of FIXTURES.md §F2."""
    n = len(conv_id)
    empty = np.full(n, "", dtype=object)

    # turns_total: one observation of 1.0 per turn
    sk_turns = series_key_arrays("turns_total", conv_id=conv_id, role=role)

    # tool_invocations_total: turns that invoked a tool
    tool_mask = np.asarray(tool, dtype=object) != ""
    sk_tool = series_key_arrays(
        "tool_invocations_total",
        conv_id=conv_id[tool_mask],
        tool=np.asarray(tool, dtype=object)[tool_mask],
    )

    # inter_turn_latency_seconds: gap to previous turn of the same conv.
    # Input is conv-contiguous and turn-sorted, so the previous row is the
    # previous turn except at conversation starts (turn_idx == 0).
    lat_mask = np.asarray(turn_idx) > 0
    prev_ts = np.empty(n, dtype=np.int64)
    prev_ts[1:] = ts_us[:-1]
    prev_ts[0] = 0
    lat = (ts_us - prev_ts).astype(np.float64) / 1e6
    sk_lat = series_key_arrays("inter_turn_latency_seconds", conv_id=conv_id[lat_mask])

    # conv_turn_idx: gauge of the last-written turn index per conversation
    sk_gauge = series_key_arrays("conv_turn_idx", conv_id=conv_id)

    def block(sk, name, cids, roles, tools, ts, kind, vals):
        m = len(sk)
        return {
            "series_key": sk,
            "name": np.full(m, name, dtype=object),
            "conv_id": cids,
            "role": roles,
            "tool": tools,
            "ts": ts,
            "kind": np.full(m, kind, dtype=np.uint8),
            "value": vals,
        }

    blocks = [
        block(
            sk_turns, "turns_total", conv_id, role, empty, ts_us, KIND_SUM,
            np.ones(n, dtype=np.float64),
        ),
        block(
            sk_tool,
            "tool_invocations_total",
            conv_id[tool_mask],
            empty[: int(tool_mask.sum())],
            np.asarray(tool, dtype=object)[tool_mask],
            ts_us[tool_mask],
            KIND_SUM,
            np.ones(int(tool_mask.sum()), dtype=np.float64),
        ),
        block(
            sk_lat,
            "inter_turn_latency_seconds",
            conv_id[lat_mask],
            empty[: int(lat_mask.sum())],
            empty[: int(lat_mask.sum())],
            ts_us[lat_mask],
            KIND_HISTOGRAM,
            lat[lat_mask],
        ),
        block(
            sk_gauge, "conv_turn_idx", conv_id, empty, empty, ts_us, KIND_GAUGE,
            np.asarray(turn_idx, dtype=np.float64),
        ),
    ]
    return {
        k: np.concatenate([b[k] for b in blocks])
        for k in blocks[0]
    }


FILL_COLS = AGG_COLS + ["filled", "stale"]


def empty_fill_df() -> pd.DataFrame:
    """Typed empty agg+fill frame (FILL_COLS) for the spec above."""
    df = empty_agg_df()
    df["filled"] = pd.Series(dtype=bool)
    df["stale"] = pd.Series(dtype=bool)
    return df[FILL_COLS]


def fill_bucket_df(
    df: pd.DataFrame,
    window_seconds: int,
    global_end_window: int,
    horizon_seconds: int = STALENESS_SECONDS,
) -> pd.DataFrame:
    """Insert LOCF fill rows and stale markers for one bucket's agg rows
    (the materialised spec of kernel.fill_runs; test-only)."""
    if len(df) == 0:
        out = df.copy()
        out["filled"] = pd.Series(dtype=bool)
        out["stale"] = pd.Series(dtype=bool)
        return out
    df = df.sort_values(["series_key", "window_start"], kind="stable").reset_index(
        drop=True
    )
    n = len(df)
    w = df["window_start"].to_numpy(np.int64)
    sk = df["series_key"].to_numpy(dtype=object)
    same_next = np.zeros(n, dtype=bool)
    same_next[:-1] = sk[:-1] == sk[1:]
    next_w = np.empty(n, dtype=np.int64)
    next_w[:-1] = w[1:]
    limit = np.where(same_next, next_w, np.int64(global_end_window + window_seconds))

    hw = horizon_seconds // window_seconds  # LOCF windows per gap
    gap_windows = (limit - w) // window_seconds - 1
    n_fill = np.clip(gap_windows, 0, hw)
    stale_w = w + (hw + 1) * window_seconds
    stale_mask = stale_w < limit

    total = int(n_fill.sum())
    parts = [df.assign(filled=False, stale=False)]
    if total:
        idx = np.repeat(np.arange(n), n_fill)
        pos = np.arange(total) - np.repeat(np.cumsum(n_fill) - n_fill, n_fill) + 1
        src = df.iloc[idx]
        fill = pd.DataFrame(
            {
                "bucket": src["bucket"].to_numpy(),
                "series_key": src["series_key"].to_numpy(),
                "name": src["name"].to_numpy(),
                "kind": src["kind"].to_numpy(),
                "window_start": w[idx] + pos * window_seconds,
                "last_ts": src["last_ts"].to_numpy(),
                "filled": True,
                "stale": False,
            }
        )
        kind = src["kind"].to_numpy()
        is_ctr = kind == KIND_SUM
        is_gauge = kind == KIND_GAUGE
        is_hist = kind == KIND_HISTOGRAM
        last = src["last"].to_numpy()
        fill["sum"] = np.where(is_ctr, 0.0, np.where(is_gauge, last, src["sum"].to_numpy()))
        fill["count"] = np.where(is_hist, src["count"].to_numpy(), 0)
        fill["min"] = np.where(is_ctr, np.nan, np.where(is_gauge, last, src["min"].to_numpy()))
        fill["max"] = np.where(is_ctr, np.nan, np.where(is_gauge, last, src["max"].to_numpy()))
        fill["last"] = np.where(is_ctr, 0.0, last)
        for b in BUCKET_COLS:
            fill[b] = np.where(is_hist, src[b].to_numpy(), 0)
        parts.append(fill[FILL_COLS])
    if stale_mask.any():
        src = df.iloc[np.flatnonzero(stale_mask)]
        m = len(src)
        stale = pd.DataFrame(
            {
                "bucket": src["bucket"].to_numpy(),
                "series_key": src["series_key"].to_numpy(),
                "name": src["name"].to_numpy(),
                "kind": src["kind"].to_numpy(),
                "window_start": stale_w[stale_mask],
                "sum": np.full(m, STALE_NAN),
                "count": np.zeros(m, dtype=np.int64),
                "min": np.full(m, STALE_NAN),
                "max": np.full(m, STALE_NAN),
                "last": np.full(m, STALE_NAN),
                "last_ts": src["last_ts"].to_numpy(),
                "filled": False,
                "stale": True,
            }
        )
        for b in BUCKET_COLS:
            stale[b] = np.zeros(m, dtype=np.int64)
        parts.append(stale[FILL_COLS])
    out = pd.concat(parts, ignore_index=True)
    out = out.sort_values(["series_key", "window_start"], kind="stable").reset_index(
        drop=True
    )
    out["count"] = out["count"].astype(np.int64)
    for b in BUCKET_COLS:
        out[b] = out[b].astype(np.int64)
    return out[FILL_COLS]


def pack_series(df: pd.DataFrame) -> pa.Table:
    """Filled agg rows (one bucket, sorted by series_key/window) → one row
    per series with parallel dense list columns (fills materialised; the
    bucket lists on histogram series only): the spec layout the writers'
    run-coded packing (encode.pack_rows) is tested against; no
    production path calls it."""
    cols = {
        "bucket": pa.int32(),
        "series_key": pa.string(),
        "name": pa.string(),
        "kind": pa.uint8(),
    }
    if len(df) == 0:
        empty = {k: pa.array([], type=t) for k, t in cols.items()}
        empty["window_starts"] = pa.array([], type=pa.list_(pa.int64()))
        for s in ["sum", "count", "min", "max", "last"]:
            empty[f"vals_{s}"] = pa.array([], type=pa.list_(pa.float64()))
        for b in BUCKET_COLS:
            empty[f"vals_{b}"] = pa.array([], type=pa.list_(pa.float64()))
        empty["flags"] = pa.array([], type=pa.list_(pa.uint8()))
        return pa.table(empty)
    sk = df["series_key"].to_numpy(dtype=object)
    change = np.flatnonzero(np.concatenate([[True], sk[1:] != sk[:-1]]))
    offsets = np.concatenate([change, [len(sk)]]).astype(np.int32)

    def lst(values, typ):
        return pa.ListArray.from_arrays(offsets, pa.array(values, type=typ))

    stale_mask = df["stale"].to_numpy().astype(bool)
    flags = df["filled"].to_numpy().astype(np.uint8) | (
        stale_mask.astype(np.uint8) << 1
    )

    def stamp_stale(vals: np.ndarray) -> np.ndarray:
        # pandas concat canonicalizes NaN payloads, so the Prometheus stale
        # payload (0x7ff0000000000002) is stamped here, through a uint64
        # view (bit-exact), before the values reach the Gorilla encoder.
        out = np.ascontiguousarray(vals, dtype=np.float64).copy()
        out.view(np.uint64)[stale_mask] = STALE_NAN_BITS
        return out
    out = {
        "bucket": pa.array(df["bucket"].to_numpy()[change], type=pa.int32()),
        "series_key": pa.array(sk[change], type=pa.string()),
        "name": pa.array(df["name"].to_numpy(dtype=object)[change], type=pa.string()),
        "kind": pa.array(df["kind"].to_numpy()[change], type=pa.uint8()),
        "window_starts": lst(df["window_start"].to_numpy(np.int64), pa.int64()),
    }
    for s in ["sum", "count", "min", "max", "last"]:
        vals = df[s].to_numpy(np.float64)
        if s != "count":
            vals = stamp_stale(vals)
        out[f"vals_{s}"] = lst(vals, pa.float64())
    # bucket streams hold the histogram series' points only, the packed
    # layout GorillaEncode reads (kernel.pack_arrays_virtual)
    hist = df["kind"].to_numpy() == KIND_HISTOGRAM
    counts_h = np.where(hist[change], np.diff(offsets), 0)
    offs_h = np.concatenate([[0], np.cumsum(counts_h)]).astype(np.int32)
    for b in BUCKET_COLS:
        out[f"vals_{b}"] = pa.ListArray.from_arrays(
            offs_h, pa.array(df[b].to_numpy(np.float64)[hist],
                             type=pa.float64()))
    out["flags"] = lst(flags, pa.uint8())
    return pa.table(out)


def rollup_oracle(
    series_keys,
    kinds,
    values,
    ts_us,
    window_seconds: int,
) -> dict[tuple[str, int], AggState]:
    """Brute-force per-(series, window) rollup used as the test oracle."""
    out: dict[tuple[str, int], AggState] = {}
    for sk, k, v, t in zip(series_keys, kinds, values, ts_us):
        w = (int(t) // 1_000_000) // window_seconds * window_seconds
        st = out.get((sk, w))
        if st is None or st.kind != int(k):
            st = AggState(int(k))
            out[(sk, w)] = st
        st.observe(float(v), int(t))
    return out
