"""Stream-shaped windowed analytics over an ordered, keyed log.

Ray Data has no event-time windowing; per the engine's streaming story
(SURVEY.md §2.1 TaskTransform mapping), windows become groupbys:

- tumbling windows: floor(ts) keys — see stages/metricalize (that IS the
  reference's interval-flush model in batch form).
- sliding windows: each row is exploded to the W/S windows it belongs to
  (a vectorized np.repeat inside map_batches), then a per-window groupby.
- session windows: per key, sort by time and cut where the gap exceeds
  the timeout (the same TTL/gap logic as the staleness model) inside
  ``groupby(key).map_groups``. Partitioning assumption: one key's events
  fit one task (same contract the reference's per-process state had).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from vertex_ray.schema import US_PER_SECOND
from vertex_ray.stages.executor import exchange


def sliding_count(
    ds,
    key_col: str,
    ts_col: str,
    window_seconds: int,
    step_seconds: int,
):
    """Count rows per (key, sliding window). window must be a multiple of
    step; each row lands in window/step windows."""
    k = window_seconds // step_seconds

    def explode(t: pa.Table) -> pd.DataFrame:
        ts = t[ts_col].cast(pa.int64()).to_numpy()
        base = ts // (step_seconds * US_PER_SECOND)
        keys = t[key_col].to_numpy(zero_copy_only=False)
        n = len(ts)
        offs = np.tile(np.arange(k, dtype=np.int64), n)
        ws = (np.repeat(base, k) - offs) * step_seconds
        df = pd.DataFrame(
            {key_col: np.repeat(keys, k), "window_start": ws}
        )
        g = df.groupby([key_col, "window_start"], sort=False).size()
        return g.rename("count").reset_index()

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby([key_col, "window_start"], sort=False)["count"].sum()
        return out.reset_index()

    # merge partials grouped by key only (few keys): one vectorized pandas
    # groupby per task instead of a Python call per (key, window) group
    return (
        ds.map_batches(explode, batch_format="pyarrow")
        .groupby(key_col)
        .map_groups(merge, batch_format="pandas")
    )


def sessionize(
    ds,
    key_col: str,
    ts_col: str,
    gap_seconds: int,
    tie_col: str,
):
    """Assign session ids per key: a new session starts when the gap to
    the previous event exceeds gap_seconds. Returns one row per session:
    (key, session_id, n_events, start_ts, end_ts)."""

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([ts_col, tie_col], kind="stable")
        ts = g[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        new = np.ones(len(g), dtype=np.int64)
        new[1:] = (ts[1:] - ts[:-1]) > gap_seconds * US_PER_SECOND
        sid = np.cumsum(new) - 1
        out = pd.DataFrame({"session_id": sid, "ts": ts})
        agg = out.groupby("session_id").agg(
            n_events=("ts", "size"), start_ts=("ts", "min"), end_ts=("ts", "max")
        ).reset_index()
        agg[key_col] = g[key_col].iloc[0]
        return agg[[key_col, "session_id", "n_events", "start_ts", "end_ts"]]

    return ds.groupby(key_col).map_groups(per_key, batch_format="pandas")


def late_data_flag(
    ds,
    key_col: str,
    ts_col: str,
    seq_col: str,
    allowed_lateness_s: int,
    window_s: int,
):
    """Streaming watermark semantics replayed over a batch table: process
    each key's events in ARRIVAL order (``seq_col`` — the ingest sequence),
    advance a per-key high watermark = max(event time seen so far) −
    allowed lateness, and flag every event whose event time has already
    fallen behind the watermark at its arrival. On-time rows get their
    tumbling ``window_start``; late rows get −1 (the reference's dropped
    port: a downstream filter splits the two streams).

    One ``groupby(key)`` exchange; the per-key kernel is a vectorized
    prefix max (np.maximum.accumulate) — no Python loop. Partitioning
    assumption: one key's events fit one task (same bound sessionize has);
    the watermark is per-key, so keys never synchronize — exactly the
    property that lets a real stream shard by key.
    """

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(seq_col, kind="stable")
        ts = g[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        high = np.empty(len(ts), dtype=np.int64)
        if len(ts):
            # sentinel far below any timestamp but safe against int64
            # underflow when the lateness is subtracted
            high[0] = -(2**62)
            np.maximum.accumulate(ts[:-1], out=high[1:])
        late = ts < (high - allowed_lateness_s * US_PER_SECOND)
        win = np.where(late, -1, ts // (window_s * US_PER_SECOND) * window_s)
        return pd.DataFrame({
            key_col: g[key_col].to_numpy(),
            seq_col: g[seq_col].to_numpy(),
            "late": late,
            "window_start": win.astype(np.int64),
        })

    return ds.groupby(key_col).map_groups(per_key, batch_format="pandas")


def series_delta(ds, key_col: str, order_col: str, value_col: str,
                 out_col: str = "delta", n_buckets: int = 64):
    """PromQL ``delta()`` primitive: per-series difference of a value
    between consecutive windows (first window of each series emits
    nothing, like ``lag`` being NULL). Series are hash-bucketed so ONE
    exchange co-locates each series and the kernel is a single vectorized
    sort + shifted subtraction per bucket — no per-series task."""
    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, order_col], kind="stable")
        k = g[key_col].to_numpy()
        v = g[value_col].to_numpy()
        same = np.zeros(len(g), dtype=bool)
        same[1:] = k[1:] == k[:-1]
        d = np.empty(len(g), dtype=np.float64)
        d[1:] = v[1:] - v[:-1]
        out = g.loc[same, [key_col, order_col]].copy()
        out[out_col] = d[same]
        return out

    return exchange(ds, kernel, key_col, n_buckets)
