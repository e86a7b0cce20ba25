"""Integer-coded numpy aggregation arrays — the hot path of the flagship
pipeline. The bucket body that drives them, for one-shot and epoch runs
alike, is stages/kernel_epoch.epoch_kernel.

It is the engine's one aggregation implementation. The readable
pandas spec it is tested against (per-point series-key strings,
groupby over object columns, materialised fills: tests/rollup_spec.py)
was memory-bandwidth-bound under 32-way parallelism (~94µs/turn
measured). This kernel computes the identical result (bit-for-bit,
property-tested against that spec) entirely on int64/float64 numpy
arrays:

- conversations are identified by their conv_id strings and numbered in
  the order of their 64-bit content hash (derive.conv_hash64), then the
  string, so hash collisions cannot merge two conversations;
- a series is a packed int64 uid ``metric<<40 | conv_ord<<8 | sub_code``;
  the canonical sorted-tag series_key string is rendered once per unique
  series at pack time, never per point;
- grouping is stable lexsort + ``ufunc.reduceat`` segments; histogram
  buckets come from one searchsorted + bincount per tier;
- the continuous-aggregate cascade reuses the same segment machinery
  with no further sorting beyond one int lexsort each; gap-fill is one
  run code per real row (``fill_runs``), never materialized.

All sums stay exact (counter increments of 1.0, integer-second latencies),
so reduction order cannot change a single bit — the property that makes
the whole engine reproducible across parallelism levels.

String-keyed agg rows (scrape, incremental scrape, cascade, span
rollups) enter the same arrays through a small adapter (``keyed_agg``,
``keyed_rows``, ``merge_keyed``): ``series_key`` is factorized and the
uid becomes ``kind << 40 | code``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from vertex_ray.schema import (
    BUCKET_COLS,
    DEFAULT_BUCKETS_ARR,
    KIND_GAUGE,
    KIND_HISTOGRAM,
    KIND_SUM,
    KIND_SUMMARY,
    N_BUCKETS,
    ROLES,
    STALENESS_SECONDS,
    TOOLS,
    US_PER_SECOND,
)
from vertex_ray.stages.encode import pack_rows

METRIC_NAMES = (
    "turns_total",
    "tool_invocations_total",
    "inter_turn_latency_seconds",
    "conv_turn_idx",
)
METRIC_KINDS = (KIND_SUM, KIND_SUM, KIND_HISTOGRAM, KIND_GAUGE)

_UID_METRIC_SHIFT = np.int64(40)
_UID_CONV_SHIFT = np.int64(8)

# the (single) histogram metric's index in METRIC_NAMES/METRIC_KINDS —
# the sparse bucket representation relies on its uid range being one
# contiguous block in (uid, window)-sorted arrays
HIST_METRIC = np.int64(METRIC_KINDS.index(KIND_HISTOGRAM))


def _hist_range(uid_sorted: np.ndarray) -> tuple[int, int]:
    """[lo, hi) row range of the histogram metric in uid-sorted arrays."""
    lo = int(np.searchsorted(uid_sorted, HIST_METRIC << _UID_METRIC_SHIFT))
    hi = int(np.searchsorted(uid_sorted,
                             (HIST_METRIC + 1) << _UID_METRIC_SHIFT))
    return lo, hi


# agg-row scalar columns in row order; AggArrays calls window_start
# ``window``
AGG_SCALARS = ("window_start", "sum", "count", "min", "max", "last",
               "last_ts")


class AggArrays(dict):
    """dict of parallel arrays: uid, window, sum, count, min, max, last,
    last_ts — plus ``buckets``, a SPARSE histogram matrix: row k of
    ``buckets`` belongs to the k-th agg row whose metric is the histogram
    metric (``uid >> 40 == HIST_METRIC``), in array order. Non-histogram
    rows carry no bucket storage at all — they were 30 always-zero float
    lanes flowing through every concat/sort/merge/fill/pack pass (~85% of
    rows), the single largest useless memory stream of the flagship
    kernel. When the arrays are (uid, window)-sorted the histogram rows
    are contiguous (metric is the uid's top bits), so segment ops reduce
    the matrix with rebased offsets."""


def _segments(*keys: np.ndarray):
    """Boundary starts for consecutive equal tuples in pre-sorted arrays."""
    n = len(keys[0])
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    change = np.zeros(n, dtype=bool)
    change[0] = True
    for k in keys:
        change[1:] |= k[1:] != k[:-1]
    return np.flatnonzero(change)


def _empty_agg() -> AggArrays:
    return AggArrays(
        uid=np.zeros(0, np.int64),
        window=np.zeros(0, np.int64),
        sum=np.zeros(0),
        count=np.zeros(0, np.int64),
        min=np.zeros(0),
        max=np.zeros(0),
        last=np.zeros(0),
        last_ts=np.zeros(0, np.int64),
        buckets=np.zeros((0, N_BUCKETS), np.int64),
    )


def _reduce(uid, w, ts_us, vals, starts, hist: bool) -> AggArrays:
    n = len(uid)
    if n == 0:
        return _empty_agg()
    ends = np.concatenate([starts[1:], [n]])
    out = AggArrays()
    out["uid"] = uid[starts]
    out["window"] = w[starts]
    out["count"] = (ends - starts).astype(np.int64)
    out["sum"] = np.add.reduceat(vals, starts) if n else np.zeros(0)
    out["min"] = np.minimum.reduceat(vals, starts) if n else np.zeros(0)
    out["max"] = np.maximum.reduceat(vals, starts) if n else np.zeros(0)
    out["last"] = vals[ends - 1]
    out["last_ts"] = ts_us[ends - 1]
    g = len(starts)
    if hist and n:
        cat = np.searchsorted(DEFAULT_BUCKETS_ARR, vals, side="left")
        seg = np.repeat(np.arange(g), out["count"])
        bc = np.bincount(
            seg * (N_BUCKETS + 1) + np.minimum(cat, N_BUCKETS),
            minlength=g * (N_BUCKETS + 1),
        ).reshape(g, N_BUCKETS + 1)
        out["buckets"] = np.cumsum(bc, axis=1)[:, :N_BUCKETS].astype(np.int64)
    else:
        # sparse representation: non-histogram rows carry NO bucket rows
        out["buckets"] = np.zeros((0, N_BUCKETS), dtype=np.int64)
    return out


def window_agg(uid, ts_us, vals, window_seconds: int, hist: bool) -> AggArrays:
    """Aggregate observations into (uid, window) rows. ``ts_us`` is part
    of the (stable) sort key so ``last`` is last-BY-TIMESTAMP even when
    input arrival order is not time order (the FIXTURES §F4 contract and
    what the pandas spec path does); equal timestamps tie-break by input
    order on both paths."""
    w = ts_us // US_PER_SECOND // window_seconds * window_seconds
    order = np.lexsort((ts_us, w, uid))
    uid, w, ts_us, vals = uid[order], w[order], ts_us[order], vals[order]
    return _reduce(uid, w, ts_us, vals, _segments(uid, w), hist)


def concat_agg(parts: list[AggArrays]) -> AggArrays:
    """Row-wise concatenation of every array the parts hold."""
    return AggArrays({k: np.concatenate([p[k] for p in parts], axis=0)
                      for k in parts[0]})


def sort_agg(agg: AggArrays) -> AggArrays:
    order = np.lexsort((agg["window"], agg["uid"]))
    out = AggArrays({k: v[order] for k, v in agg.items() if k != "buckets"})
    if agg["buckets"].shape[0] == 0:
        out["buckets"] = agg["buckets"]
    else:
        # permute the sparse matrix: k-th hist row of the output gathers
        # the matrix row of its source position
        is_hist = (agg["uid"] >> _UID_METRIC_SHIFT) == HIST_METRIC
        hist_ord = np.cumsum(is_hist) - 1  # source row -> matrix row
        src = order[is_hist[order]]
        out["buckets"] = agg["buckets"][hist_ord[src]]
    return out


def merge_agg_arrays(agg: AggArrays, window_seconds: int) -> AggArrays:
    """Tier-merge partials into (coarser) windows — FIXTURES §F4 contract.
    Input sorted by (uid, window[, last_ts]) ⇒ coarse groups are
    contiguous and last_ts is non-decreasing within a uid, so ``last`` is
    the segment's final element."""
    uid = agg["uid"]
    n = len(uid)
    if n == 0:
        return _empty_agg()
    cw = agg["window"] // window_seconds * window_seconds
    starts = _segments(uid, cw)
    ends = np.concatenate([starts[1:], [n]])
    out = AggArrays()
    out["uid"] = uid[starts]
    out["window"] = cw[starts]
    out["sum"] = np.add.reduceat(agg["sum"], starts) if n else np.zeros(0)
    out["count"] = np.add.reduceat(agg["count"], starts) if n else np.zeros(0, np.int64)
    out["min"] = np.minimum.reduceat(agg["min"], starts) if n else np.zeros(0)
    out["max"] = np.maximum.reduceat(agg["max"], starts) if n else np.zeros(0)
    out["last"] = agg["last"][ends - 1]
    out["last_ts"] = agg["last_ts"][ends - 1]
    lo, hi = _hist_range(uid)
    if hi > lo and agg["buckets"].shape[0]:
        # coarse groups never straddle the metric boundary (metric is the
        # uid's top bits), so segment starts inside [lo, hi) rebase 1:1
        # onto the sparse matrix
        starts_h = starts[(starts >= lo) & (starts < hi)] - lo
        out["buckets"] = np.add.reduceat(agg["buckets"], starts_h, axis=0)
    else:
        out["buckets"] = np.zeros((0, N_BUCKETS), dtype=np.int64)
    return out


# ---------------------------------------------------------------------------
# string-keyed agg rows: scrape, incremental scrape, cascade, span rollups
# ---------------------------------------------------------------------------

_UID_CODE_MASK = (np.int64(1) << _UID_METRIC_SHIFT) - 1


def factorize(col) -> tuple[np.ndarray, pa.Array]:
    """String column → (int64 first-appearance codes, unique values)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_dictionary(col.type):
        col = col.cast(col.type.value_type)
    d = col.dictionary_encode()
    return d.indices.to_numpy().astype(np.int64), d.dictionary


def keyed_uids(kind, code: np.ndarray) -> np.ndarray:
    """``kind << 40 | series code``: the kind in the top bits keeps the
    histogram rows one uid range (KIND_HISTOGRAM == HIST_METRIC == 2),
    so the sparse bucket matrix and ``_hist_range`` work unchanged."""
    return (np.asarray(kind, dtype=np.int64) << _UID_METRIC_SHIFT) | code


def series_table(keys: pa.Array, bucket, name=None) -> pa.Table:
    """Per-series identity indexed by series code, rendered once per
    series; ``name`` defaults to the key's text before ``{``."""
    if name is None:
        name = pc.list_element(pc.split_pattern(keys, "{", max_splits=1), 0)
    bucket = np.broadcast_to(np.asarray(bucket, np.int32), (len(keys),))
    return pa.table({"series_key": keys, "name": name,
                     "bucket": pa.array(bucket)})


def keyed_agg(rows: pa.Table) -> tuple[AggArrays, pa.Table]:
    """Agg rows keyed by ``series_key`` strings → (AggArrays sorted by
    (uid, window, last_ts), per-series table): a merge's ``last`` is the
    latest ``last_ts`` and a summary's first the earliest (input order
    breaks ties)."""
    code, keys = factorize(rows["series_key"])
    kind = rows["kind"].to_numpy()
    first = np.unique(code, return_index=True)[1]
    series = series_table(keys, rows["bucket"].to_numpy()[first],
                          rows["name"].take(pa.array(first)))
    col = {k: rows[k].to_numpy() for k in rows.column_names
           if k in AGG_SCALARS or k in BUCKET_COLS}
    uid = keyed_uids(kind, code)
    order = np.lexsort((col["last_ts"], col["window_start"], uid))
    agg = AggArrays(uid=uid[order], window=col["window_start"][order],
                    **{k: col[k][order] for k in AGG_SCALARS[1:]})
    hist = order[kind[order] == KIND_HISTOGRAM]
    agg["buckets"] = (np.column_stack([col[b][hist] for b in BUCKET_COLS])
                      if BUCKET_COLS[0] in col
                      else np.zeros((len(hist), N_BUCKETS), np.int64))
    return agg, series


def keyed_rows(agg: AggArrays, series: pa.Table) -> pa.Table:
    """Inverse of ``keyed_agg``: one agg row per entry, identity columns
    taken from the per-series table, dense ``b00..b10``."""
    ids = series.take(pa.array(agg["uid"] & _UID_CODE_MASK))
    kind = (agg["uid"] >> _UID_METRIC_SHIFT).astype(np.uint8)
    out = {"bucket": ids["bucket"], "series_key": ids["series_key"],
           "name": ids["name"], "kind": pa.array(kind),
           "window_start": pa.array(agg["window"])}
    out.update({k: pa.array(agg[k]) for k in AGG_SCALARS[1:]})
    b = np.zeros((len(kind), N_BUCKETS), dtype=agg["buckets"].dtype)
    b[kind == KIND_HISTOGRAM] = agg["buckets"]
    out.update({name: pa.array(b[:, j]) for j, name in enumerate(BUCKET_COLS)})
    return pa.table(out)


def take_agg(agg: AggArrays, mask: np.ndarray) -> AggArrays:
    """Rows of ``agg`` where ``mask``, sparse bucket rows included."""
    is_hist = (agg["uid"] >> _UID_METRIC_SHIFT) == HIST_METRIC
    out = AggArrays({k: v[mask] for k, v in agg.items() if k != "buckets"})
    out["buckets"] = agg["buckets"][mask[is_hist]]
    return out


def merge_keyed(agg: AggArrays, window_seconds: int) -> AggArrays:
    """§F4 merge of ``keyed_agg`` partials into ``window_seconds``
    windows; summary rows follow the no-op merge (FIXTURES §F10): each
    window keeps its earliest-``last_ts`` row, every column untouched.
    The rule lives here, not in ``merge_agg_arrays``: a keyed uid's top
    bits are the row's kind column, a flagship uid's a metric index (3 is
    the conv_turn_idx gauge)."""
    summary = (agg["uid"] >> _UID_METRIC_SHIFT) == KIND_SUMMARY
    if not summary.any():
        return merge_agg_arrays(agg, window_seconds)
    rest = merge_agg_arrays(take_agg(agg, ~summary), window_seconds)
    s = take_agg(agg, summary)
    cw = s["window"] // window_seconds * window_seconds
    first = np.zeros(len(cw), dtype=bool)
    first[_segments(s["uid"], cw)] = True
    s = take_agg(s, first)
    s["window"] = cw[first]
    return sort_agg(concat_agg([rest, s]))


def fill_windows(horizon_seconds: int, window_seconds: int) -> int:
    """LOCF fill windows per gap; ValueError when a run code cannot hold
    them (over 32,767)."""
    from vertex_ray.stages.fill import RUN_FILL_MASK

    hw = horizon_seconds // window_seconds
    if hw > int(RUN_FILL_MASK):
        raise ValueError(
            f"fill_runs: horizon {horizon_seconds}s / window "
            f"{window_seconds}s = {hw} fill windows exceeds the uint16 "
            "run-code range"
        )
    return hw


def fill_runs(
    agg: AggArrays,
    window_seconds: int,
    global_end_window: int,
    horizon_seconds: int = STALENESS_SECONDS,
) -> np.ndarray:
    """VIRTUAL gap-fill + LOCF + stale markers (semantics of the test
    fill spec in tests/rollup_spec.py, §F5) in run-length form.

    Returns one uint16 code per (real) agg row — ``n_fill | stale << 15``
    — describing the LOCF fill windows and optional stale marker that
    follow it, WITHOUT materializing them. Every synthesized row is a
    pure function of (kind, source row, position), so the code is a
    complete description: stages/fill.expand_runs_* rebuilds the dense
    layout bit-for-bit. Fills were 58.5% of all agg points at sf0.1 —
    this keeps them out of the fill/pack/encode memory streams entirely
    (the single-box DRAM-bandwidth limiter of the 8→32 scaling pair).

    Precondition: ``agg`` sorted by (uid, window). Raises ValueError when
    the horizon spans more fill windows than a code holds (32,767); the
    pipelines' 300 s horizon is at most 300 windows.
    """
    from vertex_ray.stages.fill import RUN_STALE_SHIFT

    uid, w = agg["uid"], agg["window"]
    n = len(uid)
    hw = fill_windows(horizon_seconds, window_seconds)
    same_next = np.zeros(n, dtype=bool)
    same_next[:-1] = uid[:-1] == uid[1:]
    next_w = np.empty(n, dtype=np.int64)
    if n:
        next_w[:-1] = w[1:]
    limit = np.where(same_next, next_w, np.int64(global_end_window + window_seconds))
    gap_windows = (limit - w) // window_seconds - 1
    n_fill = np.clip(gap_windows, 0, hw).astype(np.uint16)
    stale = (w + (hw + 1) * window_seconds) < limit
    return n_fill | (stale.astype(np.uint16) << RUN_STALE_SHIFT)


def pack_arrays_virtual(
    agg: AggArrays,
    run_codes: np.ndarray,
    conv_strs: np.ndarray,
    bucket_id: int,
    window_seconds: int,
    flags: np.ndarray | None = None,
) -> pa.Table:
    """Stored rows (sorted by uid, window) → per-series packed rows:
    series-key rendering plus the writers' packing core
    (stages/encode.pack_rows) — run codes as a ``runs`` list column, the
    tier's window size per series, SPARSE ``vals_b*`` bucket streams.

    ``flags`` (uint8 per stored row, 1 = filled, 2 = stale) adds a
    ``flags`` list column: the epoch kernel stores carried fills as
    points (their values already stale-stamped) with code 0. Without it
    every stored row is real."""
    uid = agg["uid"]
    starts = _segments(uid)
    keys, names, kinds = render_series_keys(uid[starts], conv_strs)
    meta = {
        "bucket": pa.array(np.full(len(starts), bucket_id, dtype=np.int32)),
        "series_key": pa.array(keys, type=pa.string()),
        "name": pa.array(names, type=pa.string()),
        "kind": pa.array(kinds, type=pa.uint8()),
    }
    return pack_rows(meta, np.concatenate([starts, [len(uid)]]), agg,
                     run_codes, np.full(len(starts), window_seconds), flags)


# ---------------------------------------------------------------------------
# series key rendering (once per unique series)
# ---------------------------------------------------------------------------


def render_series_keys(uids: np.ndarray, conv_strs: np.ndarray):
    metric = (uids >> _UID_METRIC_SHIFT).astype(np.int64)
    conv_ord = ((uids >> _UID_CONV_SHIFT) & np.int64((1 << 32) - 1)).astype(np.int64)
    sub = (uids & np.int64(0xFF)).astype(np.int64)
    keys = np.empty(len(uids), dtype=object)
    names = np.empty(len(uids), dtype=object)
    kinds = np.empty(len(uids), dtype=np.uint8)
    for i in range(len(uids)):
        m, c, sc = metric[i], conv_strs[conv_ord[i]], sub[i]
        names[i] = METRIC_NAMES[m]
        kinds[i] = METRIC_KINDS[m]
        if m == 0:
            keys[i] = f"turns_total{{conv_id={c},role={ROLES[sc]}}}"
        elif m == 1:
            keys[i] = f"tool_invocations_total{{conv_id={c},tool={TOOLS[sc - 1]}}}"
        elif m == 2:
            keys[i] = f"inter_turn_latency_seconds{{conv_id={c}}}"
        else:
            keys[i] = f"conv_turn_idx{{conv_id={c}}}"
    return keys, names, kinds
