"""Gap-fill + LOCF + staleness markers (per tier).

Models the reference's series-TTL staleness: prometheus_exporter keeps a
per-series entry refreshed on every write with ``expired_at = ts + ttl``
(default 5 min, src/sinks/prometheus_exporter.rs:59-61, 491-512), GC'd
once expired (463-481). In batch form (FIXTURES.md §F5): after the last
observation of a series, windows within the staleness horizon emit LOCF
rows; the first window past the horizon emits exactly ONE stale marker
(the Prometheus stale NaN payload 0x7ff0000000000002); later windows
emit nothing until the series has a real sample again.

LOCF per kind:
- gauge:     carry ``last`` (sum/min/max mirror it), count = 0
- counter:   zero increment — sum = 0, count = 0, min/max NaN, last = 0
- histogram: carry the whole cumulative state (count/sum/buckets/…)

Fill rows are flagged ``filled``; stale rows ``stale``. The tier cascade
consumes only real rows — fills and stale markers never feed coarser
tiers (a coarser window containing only markers stays a gap).

Writers never materialise fills: they store one run code per real row
(stages/kernel.fill_runs, stages/encode.encode_agg_rows), and
``expand_runs_*`` below rebuild the dense rows bit-for-bit at read;
``fold_fills`` is the inverse, for rewrites that decode a store.
The materialised fill rows and their dense packing are the readable
spec in tests/rollup_spec.py that the run codes are tested against.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from vertex_ray.schema import (
    BUCKET_COLS,
    KIND_GAUGE,
    KIND_HISTOGRAM,
    STALE_NAN_BITS,
)


# ---------------------------------------------------------------------------
# Virtual fill runs (stages/kernel.fill_runs) — expansion back to the dense
# layout. A run code (uint16, ``n_fill | stale << 15``) describes the LOCF
# fill rows and optional stale marker that follow one stored row; every
# synthesized row is a pure function of (kind, source row, position), so
# expansion is bit-for-bit identical to the spec's materialized fill rows
# (tests/rollup_spec.py).
# ---------------------------------------------------------------------------


# THE run-code layout (single source — kernel.fill_runs, encode.GorillaEncode
# and rollup_pipeline.agg_expanded_rows all import these):
# uint16 code = n_fill | stale << RUN_STALE_SHIFT.
RUN_FILL_MASK = np.uint16(0x7FFF)
RUN_STALE_SHIFT = np.uint16(15)


def _run_parts(codes: np.ndarray):
    """Decompose run codes into born-sorted scatter geometry: n_fill,
    stale mask, per-row extra count, each stored row's output position,
    and the expanded total."""
    codes = np.asarray(codes)
    n_fill = (codes & RUN_FILL_MASK).astype(np.int64)
    stale = (codes >> RUN_STALE_SHIFT).astype(np.int64)
    extra = n_fill + stale
    off = np.zeros(len(codes), dtype=np.int64)
    if len(codes) > 1:
        off[1:] = np.cumsum(extra[:-1])
    dst0 = np.arange(len(codes), dtype=np.int64) + off
    return n_fill, stale.astype(bool), extra, dst0, int(len(codes) + extra.sum())


def expand_runs_scalars(
    w: np.ndarray,
    sums: np.ndarray,
    cnts: np.ndarray,
    mins: np.ndarray,
    maxs: np.ndarray,
    lasts: np.ndarray,
    kind_pt: np.ndarray,
    codes: np.ndarray,
    ws_pt: np.ndarray,
    stored_flags: np.ndarray | None = None,
) -> dict:
    """Expand stored per-point streams (float64 scalars, int64 windows)
    into the dense fill layout: stored row, then its fills, then its stale
    marker. ``kind_pt`` / ``ws_pt`` / ``stored_flags`` are per STORED point
    (kind code, window seconds, flags — None means every stored point is
    real). A stored point with a nonzero flag is a fill or stale marker
    kept as a point (an epoch's carried fills); its code is 0.
    Returns the expanded streams plus the per-point ``flags`` (uint8:
    1 = filled, 2 = stale) — bit-for-bit the spec's materialized fill
    rows and their dense packing (canonical NaN for counter fill
    min/max, STALE_NAN payload on stale scalar streams, count never
    stamped)."""
    n = len(codes)
    n_fill, stale_m, extra, dst0, n_out = _run_parts(codes)
    out_w = np.empty(n_out, dtype=np.int64)
    o_sum = np.empty(n_out, dtype=np.float64)
    o_cnt = np.empty(n_out, dtype=np.float64)
    o_min = np.empty(n_out, dtype=np.float64)
    o_max = np.empty(n_out, dtype=np.float64)
    o_last = np.empty(n_out, dtype=np.float64)
    flags = np.zeros(n_out, dtype=np.uint8)
    if stored_flags is not None:
        flags[dst0] = stored_flags

    out_w[dst0] = w
    o_sum[dst0] = sums
    o_cnt[dst0] = cnts
    o_min[dst0] = mins
    o_max[dst0] = maxs
    o_last[dst0] = lasts

    total = int(n_fill.sum())
    if total:
        idx = np.repeat(np.arange(n), n_fill)
        pos = np.arange(total) - np.repeat(np.cumsum(n_fill) - n_fill, n_fill) + 1
        dstf = dst0[idx] + pos
        is_hist = kind_pt[idx] == KIND_HISTOGRAM
        is_gauge = kind_pt[idx] == KIND_GAUGE
        is_ctr = ~(is_hist | is_gauge)
        last = lasts[idx]
        out_w[dstf] = w[idx] + pos * ws_pt[idx]
        o_sum[dstf] = np.where(is_ctr, 0.0, np.where(is_gauge, last, sums[idx]))
        o_cnt[dstf] = np.where(is_hist, cnts[idx], 0)
        o_min[dstf] = np.where(is_ctr, np.nan, np.where(is_gauge, last, mins[idx]))
        o_max[dstf] = np.where(is_ctr, np.nan, np.where(is_gauge, last, maxs[idx]))
        o_last[dstf] = np.where(is_ctr, 0.0, last)
        flags[dstf] = 1
    if stale_m.any():
        src = np.flatnonzero(stale_m)
        dsts = dst0[src] + n_fill[src] + 1
        out_w[dsts] = w[src] + (n_fill[src] + 1) * ws_pt[src]
        # stale scalar streams carry the Prometheus stale NaN payload
        # bit-exactly (a uint64-view stamp, as in the spec's packing)
        for o in (o_sum, o_min, o_max, o_last):
            o.view(np.uint64)[dsts] = STALE_NAN_BITS
        o_cnt[dsts] = 0.0
        flags[dsts] = 2
    return {
        "window": out_w,
        "sum": o_sum,
        "count": o_cnt,
        "min": o_min,
        "max": o_max,
        "last": o_last,
        "flags": flags,
    }


def expand_runs_carry(vals: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Expand one carry-through stream (histogram bucket counts, float64
    or int64 — dtype preserved; a 2-D array expands its rows): fills copy
    the source value, stale rows are zero."""
    n = len(codes)
    n_fill, stale_m, extra, dst0, n_out = _run_parts(codes)
    vals = np.asarray(vals)
    out = np.empty((n_out,) + vals.shape[1:], dtype=vals.dtype)
    out[dst0] = vals
    total = int(n_fill.sum())
    if total:
        idx = np.repeat(np.arange(n), n_fill)
        pos = np.arange(total) - np.repeat(np.cumsum(n_fill) - n_fill, n_fill) + 1
        out[dst0[idx] + pos] = vals[idx]
    if stale_m.any():
        src = np.flatnonzero(stale_m)
        out[dst0[src] + n_fill[src] + 1] = 0.0
    return out


def fold_fills(w: np.ndarray, flags: np.ndarray, ws: np.ndarray,
               new_row: np.ndarray):
    """Inverse of ``expand_runs_*``: fold materialised fills and stale
    markers back into run codes. Points are sorted by (row, window);
    ``flags`` per point (1 = filled, 2 = stale), ``ws`` per point the
    window seconds of its SOURCE row (0 = unknown: the point stays
    stored), ``new_row`` marks each output row's first point.

    A flagged point folds into the code of the real point heading its
    chain when it sits in the same row, its window is the previous
    point's + ``ws``, the previous point is not stale, and the chain
    head is real; a chain over the code's 32,767 fills folds nowhere.
    Everything else stays a stored point with code 0 (the carried-fill
    form). Returns ``(stored mask, codes of the stored points)``."""
    n = len(w)
    fl = np.asarray(flags, dtype=np.uint8)
    link = np.zeros(n, dtype=bool)
    link[1:] = (~new_row[1:] & ((fl[1:] == 1) | (fl[1:] == 2))
                & (ws[1:] > 0) & (w[1:] == w[:-1] + ws[1:]) & (fl[:-1] != 2))
    head = np.maximum.accumulate(np.where(link, 0, np.arange(n)))
    fold = link & (fl[head] == 0)
    n_fill = np.bincount(head[fold & (fl == 1)], minlength=n)
    stale = np.bincount(head[fold & (fl == 2)], minlength=n)
    too_long = n_fill > int(RUN_FILL_MASK)
    if too_long.any():
        fold &= ~too_long[head]
        n_fill[too_long] = stale[too_long] = 0
    codes = n_fill.astype(np.uint16) | (stale.astype(np.uint16)
                                        << RUN_STALE_SHIFT)
    return ~fold, codes[~fold]


def expanded_counts(counts: np.ndarray, codes: np.ndarray,
                    offsets: np.ndarray) -> np.ndarray:
    """Per-series point counts after expansion (counts + Σ extra per
    series); ``offsets`` are the real-point list offsets."""
    _, _, extra, _, _ = _run_parts(codes)
    ce = np.zeros(len(extra) + 1, dtype=np.int64)
    np.cumsum(extra, out=ce[1:])
    offsets = np.asarray(offsets, dtype=np.int64)
    return np.asarray(counts, dtype=np.int64) + (
        ce[offsets[1:]] - ce[offsets[:-1]]
    )


def expand_packed(batch: pa.Table) -> pa.Table:
    """Virtual-fill packed rows (``runs`` + ``window_seconds`` columns,
    stages/kernel.pack_arrays_virtual) → the dense packed layout with a
    ``flags`` column, bit-for-bit. A stored ``flags`` column (an epoch's
    carried fills) stays on its stored points. One row per series either
    way — only the list columns change; per-series columns (and any
    appended extras such as ``tier``) pass through untouched."""
    batch = batch.combine_chunks()
    if batch.num_rows == 0:
        # same column order as the non-empty branch: known packed columns,
        # then flags, then pass-through extras (e.g. tier) — one schema
        # regardless of which branch a bucket's expansion took
        known = [n for n in batch.schema.names
                 if n not in ("runs", "window_seconds", "flags")
                 and (n.startswith("vals_") or n in (
                     "bucket", "series_key", "name", "kind", "window_starts"))]
        dense = {name: batch[name] for name in known}
        dense["flags"] = pa.array([], type=pa.list_(pa.uint8()))
        for name in batch.schema.names:
            if name not in dense and name not in ("runs", "window_seconds"):
                dense[name] = batch[name]
        return pa.table(dense)

    def arr(name):
        col = batch[name]
        return col.chunk(0) if isinstance(col, pa.ChunkedArray) else col

    ws_col = arr("window_starts")
    offsets = ws_col.offsets.to_numpy().astype(np.int64)
    offsets = offsets - offsets[0]
    counts = np.diff(offsets)
    codes = arr("runs").flatten().to_numpy(zero_copy_only=False)
    kinds = batch["kind"].to_numpy(zero_copy_only=False)
    ws_series = batch["window_seconds"].to_numpy().astype(np.int64)
    kind_pt = np.repeat(kinds, counts)
    ws_pt = np.repeat(ws_series, counts)

    def flat(name):
        return arr(name).flatten().to_numpy(zero_copy_only=False)

    exp = expand_runs_scalars(
        flat("window_starts"),
        flat("vals_sum"),
        flat("vals_count"),
        flat("vals_min"),
        flat("vals_max"),
        flat("vals_last"),
        kind_pt,
        codes,
        ws_pt,
        flat("flags") if "flags" in batch.schema.names else None,
    )
    new_counts = expanded_counts(counts, codes, offsets)
    new_offsets = np.zeros(len(new_counts) + 1, dtype=np.int32)
    np.cumsum(new_counts, out=new_offsets[1:])

    def lst(values, typ):
        return pa.ListArray.from_arrays(new_offsets, pa.array(values, type=typ))

    # sparse bucket streams: expand the histogram series' points only
    hist_series = kinds == KIND_HISTOGRAM
    hist_pt = np.repeat(hist_series, counts)
    codes_h = codes[hist_pt]
    counts_bh = np.where(hist_series, new_counts, 0).astype(np.int32)
    offs_b = np.zeros(len(counts_bh) + 1, dtype=np.int32)
    np.cumsum(counts_bh, out=offs_b[1:])

    dense = {
        "bucket": batch["bucket"],
        "series_key": batch["series_key"],
        "name": batch["name"],
        "kind": batch["kind"],
        "window_starts": lst(exp["window"], pa.int64()),
        "vals_sum": lst(exp["sum"], pa.float64()),
        "vals_count": lst(exp["count"], pa.float64()),
        "vals_min": lst(exp["min"], pa.float64()),
        "vals_max": lst(exp["max"], pa.float64()),
        "vals_last": lst(exp["last"], pa.float64()),
    }
    for b in BUCKET_COLS:
        v = flat(f"vals_{b}")
        dense[f"vals_{b}"] = pa.ListArray.from_arrays(
            offs_b,
            pa.array(expand_runs_carry(v, codes_h), type=pa.float64()),
        )
    dense["flags"] = lst(exp["flags"], pa.uint8())
    known = set(dense) | {"runs", "window_seconds"}
    for name in batch.schema.names:
        if name not in known:
            dense[name] = batch[name]
    return pa.table(dense)


def unpack_series(batch: pa.Table, dict_encode: bool = False,
                  sparse_fills: bool = False) -> pa.Table:
    """Per-series array rows (the packed layout) → flat tier rows
    (AGG columns + tier + filled + stale). Pure Arrow/numpy explode — the
    tier aggregate tables are derived from the packed representation with
    no extra shuffle.

    ``dict_encode=True`` (the parquet-sink path) emits series_key /
    name / tier as Arrow DICTIONARY arrays whose indices are the repeat
    vector and whose dictionary is the per-series column — ZERO string
    copying instead of replicating every key once per window (the
    dominant memory traffic of the agg write at 32-way: ~45 B × ~300
    windows per series). Parquet roundtrips dictionary columns back to
    plain strings, so readers are unaffected.

    ``sparse_fills=True`` (virtual-fill packed input only) keeps the agg
    rows SPARSE: one row per stored point (its stored flags as
    filled/stale), with two extra columns — ``fill_runs`` (the uint16 run
    code) and ``window_seconds`` — instead of the materialized LOCF/stale
    rows. ~58% fewer agg rows through the sink; ``expand_agg_table``
    rebuilds the dense rows bit-for-bit at read
    (rollup_pipeline.read_stage_files does it transparently)."""
    sparse = "runs" in batch.schema.names
    if sparse and not sparse_fills:
        # materialize the fills/stale markers once, here at the sink
        # boundary — the only place the dense rows are actually needed
        batch = expand_packed(batch)
        sparse = False
    if batch.num_rows == 0:
        # typed empty (epoch pipeline: sentinel-only bucket groups) so the
        # Dataset keeps ONE schema and parquet writes of empty blocks work;
        # under dict_encode the string columns must be dictionary-typed
        # too, or a sentinel-only bucket would put a second schema in the
        # same Dataset (plain string vs dictionary<int32,string>)
        s_type = (pa.dictionary(pa.int32(), pa.string()) if dict_encode
                  else pa.string())
        fields = [
            ("bucket", pa.int32()), ("series_key", s_type),
            ("name", s_type), ("kind", pa.uint8()), ("tier", s_type),
            ("window_start", pa.int64()), ("sum", pa.float64()),
            ("count", pa.int64()), ("min", pa.float64()), ("max", pa.float64()),
            ("last", pa.float64()),
        ] + [(b, pa.int64()) for b in BUCKET_COLS] + [
            ("filled", pa.bool_()), ("stale", pa.bool_()),
        ]
        if sparse:
            fields += [("fill_runs", pa.uint16()),
                       ("window_seconds", pa.int32())]
        return pa.schema(fields).empty_table()
    batch = batch.combine_chunks()
    ws = batch["window_starts"].combine_chunks()
    counts = np.diff(ws.offsets.to_numpy())
    reps = np.repeat(np.arange(batch.num_rows), counts)
    total = int(counts.sum())

    def flat(col):
        return col.combine_chunks().values

    if dict_encode:
        idx = pa.array(reps.astype(np.int32))
        sk = pa.DictionaryArray.from_arrays(
            idx, batch["series_key"].combine_chunks())
        nm = pa.DictionaryArray.from_arrays(
            idx, batch["name"].combine_chunks())
        tr = pa.DictionaryArray.from_arrays(
            idx, batch["tier"].combine_chunks())
    else:
        sk = batch["series_key"].take(reps)
        nm = batch["name"].take(reps)
        tr = batch["tier"].take(reps)
    out = {
        "bucket": batch["bucket"].take(reps),
        "series_key": sk,
        "name": nm,
        "kind": batch["kind"].take(reps),
        "tier": tr,
        "window_start": ws.values,
        "sum": flat(batch["vals_sum"]),
        "count": flat(batch["vals_count"]).cast(pa.int64()),
        "min": flat(batch["vals_min"]),
        "max": flat(batch["vals_max"]),
        "last": flat(batch["vals_last"]),
    }
    kinds = batch["kind"].to_numpy(zero_copy_only=False)
    hist_mask = None  # per-point mask, built lazily for sparse layouts
    for b in BUCKET_COLS:
        v = flat(batch[f"vals_{b}"])
        if len(v) != total:
            # SPARSE bucket streams (kernel.pack_arrays_virtual): only
            # histogram series carry points — scatter into zero columns
            # (np.zeros is calloc'd, untouched pages stay virtual)
            if hist_mask is None:
                hist_mask = np.repeat(kinds == KIND_HISTOGRAM, counts)
            col = np.zeros(total, dtype=np.int64)
            if len(v):
                col[hist_mask] = v.to_numpy(
                    zero_copy_only=False).astype(np.int64)
            out[b] = pa.array(col, type=pa.int64())
        else:
            out[b] = v.cast(pa.int64())
    flags = (np.asarray(flat(batch["flags"]))
             if "flags" in batch.schema.names
             else np.zeros(total, dtype=np.uint8))
    out["filled"] = pa.array((flags & 1).astype(bool))
    out["stale"] = pa.array(((flags >> 1) & 1).astype(bool))
    if sparse:
        out["fill_runs"] = flat(batch["runs"]).cast(pa.uint16())
        out["window_seconds"] = pa.array(
            np.repeat(batch["window_seconds"].to_numpy().astype(np.int32),
                      counts))
    return pa.table(out)


def expand_agg_table(t: pa.Table) -> pa.Table:
    """Read-side inverse of ``unpack_series(sparse_fills=True)``: sparse
    agg rows (``fill_runs`` + ``window_seconds`` columns) → dense flat
    tier rows, bit-for-bit the materialized sink. Stored filled/stale
    rows (an epoch's carried fills) keep their flags. Purely row-local,
    so any batch/row-group split of the stored table expands correctly."""
    if "fill_runs" not in t.schema.names:
        return t
    t = t.combine_chunks()
    base_cols = [c for c in t.schema.names
                 if c not in ("fill_runs", "window_seconds")]
    codes = t["fill_runs"].to_numpy()
    if t.num_rows == 0 or not codes.any():
        return t.select(base_cols)
    kind = t["kind"].to_numpy(zero_copy_only=False)
    ws = t["window_seconds"].to_numpy().astype(np.int64)

    def col_np(name):
        return t[name].to_numpy(zero_copy_only=False)

    exp = expand_runs_scalars(
        col_np("window_start").astype(np.int64),
        col_np("sum"),
        col_np("count").astype(np.float64),
        col_np("min"),
        col_np("max"),
        col_np("last"),
        kind,
        codes,
        ws,
        col_np("filled").astype(np.uint8)
        | (col_np("stale").astype(np.uint8) << 1),
    )
    _, _, extra, _, _ = _run_parts(codes)
    row_ix = pa.array(np.repeat(np.arange(t.num_rows, dtype=np.int64),
                                1 + extra))
    flags = exp["flags"]
    scalar_map = {
        "window_start": pa.array(exp["window"], type=pa.int64()),
        "sum": pa.array(exp["sum"], type=pa.float64()),
        "count": pa.array(exp["count"].astype(np.int64), type=pa.int64()),
        "min": pa.array(exp["min"], type=pa.float64()),
        "max": pa.array(exp["max"], type=pa.float64()),
        "last": pa.array(exp["last"], type=pa.float64()),
        "filled": pa.array((flags & 1).astype(bool)),
        "stale": pa.array(((flags >> 1) & 1).astype(bool)),
    }
    out = {}
    for name in base_cols:
        if name in scalar_map:
            out[name] = scalar_map[name]
        elif name in BUCKET_COLS:
            out[name] = pa.array(
                expand_runs_carry(col_np(name).astype(np.int64), codes),
                type=pa.int64())
        else:  # per-series identity columns: bucket/series_key/name/kind/tier
            out[name] = t[name].take(row_ix)
    return pa.table(out)
