"""metricalize — logs → windowed metrics (src/transforms/metricalize.rs).

Reference semantics reproduced:
- counter without increment_by_value: each record with the field present
  adds 1.0 (metricalize.rs:220-235; golden vector F4.1);
- counter with increment_by_value: numeric values (or numeric strings)
  add their value; unparseable strings are skipped (F4.2);
- one NaN rule for every value type: a value that is not finite (NaN or
  ±inf, as a number or as a string such as "NaN") is skipped like an
  unparseable string — it is not counted and feeds no sum/min/max/last;
- gauge: last write wins by timestamp (F4.4);
- histogram: cumulative "le" buckets, f <= upper (F4.5/F4.7).

Ray-first: per-batch partial aggregation (one row per (tags, window) per
batch) followed by a tiny groupby merge — the partial/combine split that
replaces the reference's per-process HashMap + interval flush. All
arithmetic is the same exact-double AggState contract as the flagship
rollup (vertex_ray.aggregate).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from vertex_ray.schema import US_PER_SECOND


def parse_numeric(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(parsed float64, ok mask) — finite numbers and numeric strings
    parse; anything else, non-finite values included, is skipped."""
    out = np.full(len(vals), np.nan)
    ok = np.zeros(len(vals), dtype=bool)
    for i, v in enumerate(vals):
        if v is None:
            continue
        if isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool):
            out[i] = float(v)
            ok[i] = True
        elif isinstance(v, str):
            try:
                out[i] = float(v)
                ok[i] = True
            except ValueError:
                pass
    return out, ok & np.isfinite(out)


def metricalize_partial(
    t: pa.Table,
    tag_cols: list[str],
    value_col: str,
    ts_col: str,
    window_seconds: int,
    uppers: list[float],
    increment_by_value: bool = True,
    order_col: str | None = None,
) -> pd.DataFrame:
    """Partial (per-batch) windowed aggregate of one metric rule.

    ``order_col``: deterministic tie-break for ``last`` among equal
    timestamps (last = row with max (ts, order)). Without it, equal-ts
    ties fall back to batch arrival order, which Ray does not fix across
    runs — pass a unique column (e.g. an event id) whenever the ts column
    can repeat within one (tags, window) group."""
    ts = t[ts_col].cast(pa.int64()).to_numpy()
    w = ts // (window_seconds * US_PER_SECOND) * window_seconds
    raw = t[value_col].to_numpy(zero_copy_only=False)
    if increment_by_value:
        vals, ok = (
            (raw.astype(np.float64), np.isfinite(raw.astype(np.float64)))
            if raw.dtype.kind in "fiu"
            else parse_numeric(raw)
        )
    else:
        vals = np.ones(len(raw), dtype=np.float64)
        ok = np.array([v is not None for v in raw])
    df = pd.DataFrame({c: t[c].to_numpy(zero_copy_only=False) for c in tag_cols})
    df["window_start"] = w
    df["value"] = vals
    df["__ts"] = ts
    df["__ord"] = (
        t[order_col].to_numpy(zero_copy_only=False)
        if order_col
        else np.arange(len(raw), dtype=np.int64)
    )
    df = df[ok]
    df = df.sort_values(["__ts", "__ord"], kind="stable")
    for i, u in enumerate(uppers):
        df[f"b{i:02d}"] = (df["value"] <= u).astype(np.int64)
    g = df.groupby(tag_cols + ["window_start"], sort=False)
    out = g.agg(
        sum=("value", "sum"),
        count=("value", "size"),
        min=("value", "min"),
        max=("value", "max"),
        last=("value", "last"),
        last_ts=("__ts", "last"),
        last_ord=("__ord", "last"),
        **{f"b{i:02d}": (f"b{i:02d}", "sum") for i in range(len(uppers))},
    ).reset_index()
    out["count"] = out["count"].astype(np.int64)
    return out


def metricalize_merge(df: pd.DataFrame, tag_cols: list[str], n_buckets: int) -> pd.DataFrame:
    """Final merge of partials — AggState.merge semantics; ``last`` ties
    on equal last_ts break by last_ord (deterministic across runs and
    merge orders when the caller supplied order_col)."""
    sort_keys = ["last_ts"] + (["last_ord"] if "last_ord" in df.columns else [])
    df = df.sort_values(sort_keys, kind="stable")
    g = df.groupby(tag_cols + ["window_start"], sort=False)
    out = g.agg(
        sum=("sum", "sum"),
        count=("count", "sum"),
        min=("min", "min"),
        max=("max", "max"),
        last=("last", "last"),
        last_ts=("last_ts", "last"),
        last_ord=("last_ord", "last"),
        **{f"b{i:02d}": (f"b{i:02d}", "sum") for i in range(n_buckets)},
    ).reset_index()
    return out


def metricalize(
    ds,
    tag_cols: list[str],
    value_col: str,
    ts_col: str,
    window_seconds: int = 60,
    uppers: list[float] | None = None,
    increment_by_value: bool = True,
    order_col: str | None = None,
):
    """Full operator: partial per batch → small groupby merge."""
    uppers = uppers or []

    def partial(t: pa.Table) -> pd.DataFrame:
        return metricalize_partial(
            t, tag_cols, value_col, ts_col, window_seconds, uppers,
            increment_by_value, order_col,
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return metricalize_merge(g, tag_cols, len(uppers))

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(tag_cols + ["window_start"])
        .map_groups(merge, batch_format="pandas")
    )


def summarize(
    ds,
    tag_cols: list[str],
    value_col: str,
    ts_col: str,
    window_seconds: int = 60,
    quantiles: tuple[float, ...] = (0.5, 0.9, 0.99),
    n_buckets: int = 64,
):
    """Summary metric kind (MetricValue::Summary — count, sum, quantiles;
    lib/event/src/metric/mod.rs:33-39): per (tags, window) exact discrete
    quantiles + count + sum.

    Unlike Sum/Gauge/Histogram, vertex's Summary merge is a NO-OP
    (quantiles are not mergeable, metric/mod.rs merge), so there is no
    partial/combine split: each (tags, window) group must see all its raw
    values once. One hash-bucketed shuffle co-locates ~n_groups/n_buckets
    groups per task; inside, quantiles for EVERY group come from one sort
    + one gather (index ceil(q*n)-1 of the sorted group — DuckDB
    quantile_disc's rule, so the oracle matches bit-for-bit on doubles)."""

    def add_cols(t: pa.Table) -> pa.Table:
        ts = t[ts_col].cast(pa.int64()).to_numpy()
        w = ts // (window_seconds * US_PER_SECOND) * window_seconds
        keys = t[tag_cols[0]].to_numpy(zero_copy_only=False).astype(str)
        for c in tag_cols[1:]:
            keys = np.char.add(
                np.char.add(keys, "\x1f"),
                t[c].to_numpy(zero_copy_only=False).astype(str),
            )
        bucket = (pd.util.hash_array(keys) % np.uint64(n_buckets)).astype(np.int64)
        return t.append_column(
            "window_start", pa.array(w, type=pa.int64())
        ).append_column("__bucket", pa.array(bucket))

    gcols = tag_cols + ["window_start"]

    def bucket_summaries(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(gcols + [value_col], kind="stable")
        vals = g[value_col].to_numpy()
        grp = g.groupby(gcols, sort=False)
        sizes = grp.size().to_numpy()
        starts = np.cumsum(sizes) - sizes
        out = grp.agg(count=(value_col, "size"), sum=(value_col, "sum")).reset_index()
        out["count"] = out["count"].astype(np.int64)
        for q in quantiles:
            idx = starts + np.maximum(np.ceil(q * sizes).astype(np.int64) - 1, 0)
            out[f"q{int(q * 100):02d}"] = vals[idx]
        return out

    return (
        ds.map_batches(add_cols, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(bucket_summaries, batch_format="pandas")
    )
