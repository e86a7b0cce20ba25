"""Gorilla block writer and decoder.

``encode_agg_rows`` is THE block writer: every store-writing path that
starts from agg rows (scrape, incremental scrape, cascade, record rules,
span rollups, compaction, retention) calls it. It sorts by (tier,
series, window) on integer codes, computes run codes (``fill_runs`` when
the caller gap-fills, or folds already-materialised fills back into
codes, stages/fill.fold_fills), packs with ``pack_rows`` and encodes with
``GorillaEncode``. The flagship and epoch kernels pack through the same
``pack_rows`` (stages/kernel.pack_arrays_virtual) and encode with
``GorillaEncode``.

``GorillaEncode`` is a stateful-actor-shaped stage (the geoip pattern,
src/transforms/geoip.rs:85-91): pass the CLASS to
``map_batches(GorillaEncode, batch_format="pyarrow", concurrency=N)``
or call an instance on one packed table. Input rows are per-series
arrays, so batches never split a series.

One block layout: a row's streams hold its STORED points, plus two
optional sections.

- ``runs``: ``[window_seconds: u32 LE][one u16 LE code per stored
  point]``, code = ``n_fill | stale << 15`` — the LOCF fill windows and
  stale marker that follow the point (stages/kernel.fill_runs), rebuilt
  bit-for-bit at decode (stages/fill.expand_runs_*). Written exactly on
  the rows of a gap-filled tier: packed input whose ``window_seconds``
  is > 0. Rows of tiers without fills (scrape without staleness,
  cascade, record rules, span rollups) carry ``b""``.
- ``flags``: 2 bits per stored point (1 = filled, 2 = stale). Written
  only on a row that holds a flagged stored point — a fill whose real
  source lies outside the row (an epoch's carried fills, a retention
  cut, a source block without runs) — whatever the layout. Otherwise
  ``b""``.

A row without a runs section decodes as zero codes; one without a flags
section as all-real points. ``n_points`` is always the EXPANDED total,
so retention / tsdb_status point counts do not depend on the layout.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from vertex_ray.gorilla import (
    decode_flags_multi,
    decode_timestamps_multi_flat,
    decode_values_multi_flat,
    encode_flags_multi,
    encode_timestamps_multi,
    encode_values_multi_shared,
)
from vertex_ray.schema import (
    BLOCK_SCHEMA,
    BUCKET_COLS,
    KIND_HISTOGRAM,
    N_BUCKETS,
    SCALAR_STREAMS,
    STALE_NAN_BITS,
)

# The block layout's version, stamped into every ingest's lineage: a
# store whose blocks were written in another layout is recomputed on
# resume, never mixed into one stage. Bump it on any format change.
BLOCK_FORMAT = "gorilla-columnar-v3-virtual-fills"

# the on-disk value-stream order is schema.SCALAR_STREAMS — aliased here
# only for brevity; never redefine it (format contract)
_SCALARS = SCALAR_STREAMS


class GorillaEncode:
    """Actor-pool stage: per-series array rows (with a ``tier`` column)
    → Gorilla block rows."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        batch = batch.combine_chunks()
        kinds = batch["kind"].to_numpy(zero_copy_only=False)
        virtual = "runs" in batch.schema.names

        def flat(col_name):
            col = batch[col_name].combine_chunks()
            arr = col.chunk(0) if isinstance(col, pa.ChunkedArray) else col
            return arr.offsets.to_numpy(), arr.values.to_numpy(zero_copy_only=False)

        ws_off, ws_val = flat("window_starts")
        counts = np.diff(ws_off)
        if len(ws_val):
            block_start = np.where(
                counts > 0, ws_val[np.minimum(ws_off[:-1], len(ws_val) - 1)], 0
            )
            # last window of each block: windows are sorted within a series,
            # so the block's time extent is [block_start, block_end]. Stored
            # so retention GC and range selectors can drop/keep whole blocks
            # from footer stats without decoding.
            block_end = np.where(
                counts > 0, ws_val[np.maximum(ws_off[1:] - 1, 0)], 0
            )
        else:
            block_start = np.zeros(n, dtype=np.int64)
            block_end = np.zeros(n, dtype=np.int64)

        runs_col = [b""] * n
        n_points = counts.astype(np.int32)
        if virtual:
            from vertex_ray.stages.fill import RUN_FILL_MASK, RUN_STALE_SHIFT

            _, codes = flat("runs")
            codes = codes.astype(np.uint16, copy=False)
            n_fill = (codes & RUN_FILL_MASK).astype(np.int64)
            extra = n_fill + (codes >> RUN_STALE_SHIFT).astype(np.int64)
            ce = np.zeros(len(extra) + 1, dtype=np.int64)
            np.cumsum(extra, out=ce[1:])
            extra_per = ce[ws_off[1:]] - ce[ws_off[:-1]]
            ws_series = batch["window_seconds"].to_numpy().astype(np.int64)
            n_points = (counts + extra_per).astype(np.int32)
            # the block's time extent includes the virtual tail windows
            last_ix = np.maximum(ws_off[1:] - 1, 0)
            block_end = np.where(
                counts > 0,
                block_end + extra[last_ix] * ws_series,
                0,
            )
            raw = np.ascontiguousarray(codes.astype("<u2")).tobytes()
            runs_col = [
                (struct.pack("<I", int(ws_series[i]))
                 + raw[2 * int(ws_off[i]): 2 * int(ws_off[i + 1])])
                if counts[i] > 0 and ws_series[i] > 0 else b""
                for i in range(n)
            ]
        flag_blocks = [b""] * n
        if "flags" in batch.schema.names:
            fl_off, fl_val = flat("flags")
            # a flags section only on rows holding a flagged point
            nz = np.zeros(len(fl_val) + 1, dtype=np.int64)
            np.cumsum(fl_val != 0, out=nz[1:])
            flagged = nz[fl_off[1:]] > nz[fl_off[:-1]]
            flag_blocks = [b if f else b""
                           for b, f in zip(encode_flags_multi(fl_val, fl_off),
                                           flagged)]

        ts_blocks = encode_timestamps_multi(ws_val, ws_off)
        scalar_blocks = encode_values_multi_shared(
            [flat(f"vals_{s}")[1] for s in _SCALARS], ws_off)

        hist = kinds == KIND_HISTOGRAM
        bucket_blocks: dict[int, list[bytes]] = {}
        if hist.any():
            hist_rows = np.flatnonzero(hist)
            sub_off = np.zeros(int(hist.sum()) + 1, dtype=np.int64)
            np.cumsum(counts[hist], out=sub_off[1:])
            b0_off, b0_val = flat(f"vals_{BUCKET_COLS[0]}")
            if len(b0_val) == int(sub_off[-1]) and len(b0_val) != len(ws_val):
                # SPARSE bucket streams (kernel.pack_arrays_virtual): values are
                # already the histogram series' points only — encode as-is
                # (bit-identical: same values, same per-series geometry)
                per_bucket = encode_values_multi_shared(
                    [flat(f"vals_{b}")[1] for b in BUCKET_COLS], sub_off)
            else:
                # dense per-point layout (the test spec's packing /
                # expand_packed output, which only tests feed in to build
                # legacy-layout blocks): gather the histogram rows' points
                el_mask = np.repeat(hist, counts)
                per_bucket = encode_values_multi_shared(
                    [flat(f"vals_{b}")[1][el_mask] for b in BUCKET_COLS],
                    sub_off)
            bucket_blocks = {
                int(r): [pb[j] for pb in per_bucket] for j, r in enumerate(hist_rows)
            }

        val_blocks = [
            [sb[i] for sb in scalar_blocks] + bucket_blocks.get(i, [])
            for i in range(n)
        ]
        return pa.table(
            {
                "bucket": batch["bucket"],
                "series_key": batch["series_key"],
                "name": batch["name"],
                "kind": batch["kind"],
                "tier": batch["tier"],
                "block_start": pa.array(block_start, type=pa.int64()),
                "block_end": pa.array(block_end, type=pa.int64()),
                "n_points": pa.array(n_points, type=pa.int32()),
                "ts_block": pa.array(ts_blocks, type=pa.binary()),
                "val_blocks": pa.array(val_blocks, type=pa.list_(pa.binary())),
                "flags": pa.array(flag_blocks, type=pa.binary()),
                "runs": pa.array(runs_col, type=pa.binary()),
            },
            schema=BLOCK_SCHEMA,
        )


def pack_rows(meta: dict, offsets: np.ndarray, pts: dict, codes: np.ndarray,
              window_seconds: np.ndarray,
              flags: np.ndarray | None = None) -> pa.Table:
    """The packing core: stored points sorted by (row, window) → the
    per-row list layout ``GorillaEncode`` reads. ``meta``: per-row Arrow
    identity columns (bucket, series_key, name, kind[, tier]); ``pts``:
    per-point ``window``, scalar streams and ``buckets``, a SPARSE matrix
    over the histogram rows' points (the kernel's AggArrays form);
    ``codes``: run codes; ``window_seconds``: per row, 0 = no runs
    section; ``flags`` (1 = filled, 2 = stale, values stale-stamped)
    adds a ``flags`` column."""
    offsets = np.asarray(offsets, dtype=np.int32)

    def lst(values, typ):
        return pa.ListArray.from_arrays(offsets, pa.array(values, type=typ))

    out = {k: meta[k] for k in ("bucket", "series_key", "name", "kind")}
    out["window_starts"] = lst(pts["window"], pa.int64())
    for s in _SCALARS:
        out[f"vals_{s}"] = lst(
            np.ascontiguousarray(pts[s], dtype=np.float64), pa.float64())
    kinds = meta["kind"].to_numpy(zero_copy_only=False)
    counts_b = np.where(kinds == KIND_HISTOGRAM, np.diff(offsets), 0)
    offs_b = np.zeros(len(counts_b) + 1, dtype=np.int32)
    np.cumsum(counts_b, out=offs_b[1:])
    b = pts["buckets"]
    for j in range(N_BUCKETS):
        out[f"vals_b{j:02d}"] = pa.ListArray.from_arrays(
            offs_b, pa.array(b[:, j].astype(np.float64), type=pa.float64()))
    if flags is not None:
        out["flags"] = lst(np.asarray(flags, dtype=np.uint8), pa.uint8())
    out["runs"] = lst(np.asarray(codes, dtype=np.uint16), pa.uint16())
    out["window_seconds"] = pa.array(
        np.asarray(window_seconds, dtype=np.int32))
    out.update({k: v for k, v in meta.items() if k not in out})
    return pa.table(out)


def pack_agg_rows(rows, *, tier: str | None = None,
                  fill: tuple[int, int, int] | None = None,
                  max_block_windows: int | None = None) -> pa.Table:
    """Agg rows (Arrow table or pandas DataFrame) → packed block rows,
    one per (tier, series), or per ``max_block_windows`` chunk of it.

    Columns: bucket, series_key, name, kind, window_start, the scalar
    streams, optionally the bucket columns, ``tier`` (unless passed as
    ``tier``), ``filled``/``stale`` and a per-point ``window_seconds``
    (its source row's runs header, 0 for none: decode_blocks_points).
    ``fill`` = ``(window_seconds, until_s, horizon_seconds)`` gap-fills
    real rows of one tier: the run codes come from ``kernel.fill_runs``.
    Without it, flagged points fold back into the code of the real point
    heading their chain (fill.fold_fills) and the rest stay stored,
    stale-stamped. A row gets a runs section exactly when its tier is
    gap-filled: ``fill`` is given or its source points carry a window
    size."""
    from vertex_ray.stages.fill import fold_fills
    from vertex_ray.stages.kernel import fill_runs

    if not isinstance(rows, pa.Table):
        rows = pa.Table.from_pandas(rows, preserve_index=False)
    rows = rows.combine_chunks()
    n = rows.num_rows

    def col(name, dtype, ix=slice(None)):
        return rows[name].to_numpy()[ix].astype(dtype, copy=False)

    def factorize(name):  # first-appearance integer codes + uniques
        d = rows[name].chunk(0).dictionary_encode()
        return d.indices.to_numpy(), d.dictionary

    sk, sk_uniq = factorize("series_key")
    tr, tr_uniq = (factorize("tier") if tier is None
                   else (np.zeros(n, np.int32), pa.array([tier])))
    w = col("window_start", np.int64)
    order = np.lexsort((w, sk, tr))
    w, sk, tr = w[order], sk[order], tr[order]
    new_row = np.ones(n, dtype=bool)
    new_row[1:] = (sk[1:] != sk[:-1]) | (tr[1:] != tr[:-1])
    if max_block_windows:
        pos = np.arange(n) - np.maximum.accumulate(
            np.where(new_row, np.arange(n), 0))
        new_row |= pos % max_block_windows == 0
    first = np.flatnonzero(new_row)
    row_of = np.cumsum(new_row) - 1

    flags = np.zeros(n, dtype=np.uint8)
    if "filled" in rows.column_names:
        flags = (col("filled", np.uint8) | col("stale", np.uint8) << 1)[order]
    if "window_seconds" in rows.column_names:
        ws_pt = col("window_seconds", np.int64)[order]
    else:
        ws_pt = np.full(n, fill[0] if fill else 0)
    ws_row = np.maximum.reduceat(ws_pt, first) if n else ws_pt
    if fill:
        window_seconds, until_s, horizon_seconds = fill
        stored = np.ones(n, dtype=bool)
        codes = fill_runs({"uid": row_of, "window": w}, window_seconds,
                          until_s // window_seconds * window_seconds,
                          horizon_seconds)
    else:
        stored, codes = fold_fills(w, flags, ws_pt, new_row)
    src, flags = order[stored], flags[stored]
    counts = np.bincount(row_of[stored], minlength=len(first))
    offsets = np.concatenate([[0], np.cumsum(counts)])

    kinds = col("kind", np.uint8, order[first])
    meta = {
        "bucket": pa.array(col("bucket", np.int32, order[first])),
        "series_key": sk_uniq.take(pa.array(sk[first])),
        "name": rows["name"].take(pa.array(order[first])),
        "kind": pa.array(kinds, type=pa.uint8()),
        "tier": tr_uniq.take(pa.array(tr[first])),
    }
    pts = {"window": w[stored]}
    for s in _SCALARS:
        pts[s] = v = col(s, np.float64, src)
        if s != "count":
            # a pandas hop may canonicalise NaN payloads: stored stale
            # markers get the Prometheus stale payload back, bit-exact
            v.view(np.uint64)[flags == 2] = STALE_NAN_BITS
    hist = src[np.repeat(kinds == KIND_HISTOGRAM, counts)]
    pts["buckets"] = (
        np.column_stack([col(b, np.float64, hist) for b in BUCKET_COLS])
        if BUCKET_COLS[0] in rows.column_names
        else np.zeros((len(hist), N_BUCKETS)))
    return pack_rows(meta, offsets, pts, codes, ws_row,
                     flags if flags.any() else None)


def encode_agg_rows(rows, *, tier: str | None = None,
                    fill: tuple[int, int, int] | None = None,
                    max_block_windows: int | None = None) -> pa.Table:
    """THE block writer: agg rows → Gorilla block rows (BLOCK_SCHEMA):
    ``pack_agg_rows`` (sort, run codes, pack), then ``GorillaEncode``."""
    if len(rows) == 0:
        return BLOCK_SCHEMA.empty_table()
    return GorillaEncode()(pack_agg_rows(
        rows, tier=tier, fill=fill, max_block_windows=max_block_windows))


def _parse_runs(batch: pa.Table, n_points: np.ndarray):
    """Split block rows into stored-point counts + run codes.

    Returns ``(n_stored, codes, ws_row, v3_mask)`` — ``codes`` is the flat
    uint16 run-code stream over all rows' STORED points (zeros for dense
    rows), ``ws_row`` the per-row window seconds (0 for dense rows) — or
    ``(n_points, None, None, None)`` when every row is dense."""
    if "runs" not in batch.schema.names:
        return n_points, None, None, None
    import pyarrow.compute as pc

    col = batch["runs"].combine_chunks()
    # vectorized dense-detect: no per-row Python objects when every row
    # is b'' (the common all-dense store)
    lens = pc.binary_length(pc.fill_null(col, b"")).to_numpy(
        zero_copy_only=False).astype(np.int64)
    v3 = lens >= 4
    if not v3.any():
        return n_points, None, None, None
    n_rows = len(col)
    n_stored = np.where(v3, (lens - 4) // 2, n_points)
    off = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(n_stored, out=off[1:])
    codes = np.zeros(int(off[-1]), dtype=np.uint16)
    ws_row = np.zeros(n_rows, dtype=np.int64)
    # vectorized payload slicing straight off the Arrow binary buffers
    # (offsets + values) — no to_pylist, no per-row Python loop even
    # when only a few rows in the batch are virtual
    odt = np.int64 if pa.types.is_large_binary(col.type) else np.int32
    starts = np.frombuffer(col.buffers()[1], dtype=odt)[
        col.offset: col.offset + n_rows].astype(np.int64)
    values = np.frombuffer(col.buffers()[2], dtype=np.uint8)
    v3i = np.flatnonzero(v3)
    st = starts[v3i]
    ws_row[v3i] = (values[st].astype(np.int64)
                   | values[st + 1].astype(np.int64) << 8
                   | values[st + 2].astype(np.int64) << 16
                   | values[st + 3].astype(np.int64) << 24)
    c = n_stored[v3i]
    within = np.arange(int(c.sum()), dtype=np.int64) \
        - np.repeat(np.cumsum(c) - c, c)
    dst = np.repeat(off[v3i], c) + within
    src = np.repeat(st + 4, c) + 2 * within
    codes[dst] = (values[src].astype(np.uint16)
                  | values[src + 1].astype(np.uint16) << np.uint16(8))
    return n_stored, codes, ws_row, v3


def decode_blocks_flat(batch: pa.Table):
    """Decode a combined batch of block rows — dense v2 and/or
    virtual-fill v3 — to flat per-point arrays with fills EXPANDED
    (bit-for-bit the dense representation).

    Returns ``(counts, streams)``: ``counts`` is the per-row expanded
    point count; ``streams`` holds ``window_start`` (int64), the five
    scalar streams as float64, ``flags`` (uint8), and ``buckets`` — a
    dict of DENSE float64 arrays (zeros on non-histogram points).

    One flat vectorized decode per stream over the WHOLE batch (the
    columnar-v2 decoders reconstruct every series with segmented scans —
    no per-point loop, no length-skew sensitivity); index geometry is
    shared across the 5 scalar (and 11 bucket) streams. Pure numpy/Arrow
    — a pandas hop here would canonicalize the stale NaN payload and
    break the bit-for-bit contract."""
    from vertex_ray.gorilla import _ZGeom

    n_rows = batch.num_rows
    batch = batch.combine_chunks()
    n_points = batch["n_points"].to_numpy().astype(np.int64)
    n_stored, codes, ws_row, v3 = _parse_runs(batch, n_points)
    kinds = batch["kind"].to_numpy(zero_copy_only=False)
    ts_blocks = batch["ts_block"].to_pylist()
    val_blocks = batch["val_blocks"].to_pylist()
    flag_blocks = batch["flags"].to_pylist() \
        if "flags" in batch.schema.names else [b""] * n_rows

    zn = np.maximum(n_stored - 1, 0)
    geom = _ZGeom(n_stored, zn)
    scalars = {
        s: decode_values_multi_flat([vb[i] for vb in val_blocks],
                                    n_stored, geom=geom)
        for i, s in enumerate(_SCALARS)
    }
    ws = decode_timestamps_multi_flat(ts_blocks, n_stored)
    hist_rows = np.flatnonzero(kinds == KIND_HISTOGRAM)
    hgeom = (_ZGeom(n_stored[hist_rows],
                    np.maximum(n_stored[hist_rows] - 1, 0))
             if len(hist_rows) else None)
    bucket_real = {
        b_col: decode_values_multi_flat(
            [val_blocks[i][len(_SCALARS) + b_i] for i in hist_rows],
            n_stored[hist_rows], geom=hgeom,
        ) if len(hist_rows) else np.zeros(0, dtype=np.float64)
        for b_i, b_col in enumerate(BUCKET_COLS)
    }

    # stored flags: a dense row flags every stored point, a v3 row only
    # when it holds fills stored as points (epoch carries); b"" = real
    flags = np.zeros(int(n_stored.sum()), dtype=np.uint8)
    has_flags = np.fromiter((bool(b) for b in flag_blocks), dtype=bool,
                            count=n_rows)
    if has_flags.any():
        flags[np.repeat(has_flags, n_stored)] = np.concatenate(
            decode_flags_multi([flag_blocks[i] for i in np.flatnonzero(has_flags)],
                               n_stored[has_flags]))

    if v3 is None:
        counts = n_stored
        total = int(counts.sum())
        el_hist = np.repeat(kinds == KIND_HISTOGRAM, counts)
        buckets = {}
        for b_col in BUCKET_COLS:
            col = np.zeros(total, dtype=np.float64)
            if len(hist_rows):
                col[el_hist] = bucket_real[b_col]
            buckets[b_col] = col
        streams = {"window_start": ws, "flags": flags, "buckets": buckets,
                   "window_seconds": np.zeros(n_rows, dtype=np.int64),
                   **scalars}
        return counts, streams

    from vertex_ray.stages.fill import (
        expand_runs_carry,
        expand_runs_scalars,
        expanded_counts,
    )

    kind_pt = np.repeat(kinds, n_stored)
    ws_pt = np.repeat(ws_row, n_stored)
    exp = expand_runs_scalars(
        ws, scalars["sum"], scalars["count"], scalars["min"],
        scalars["max"], scalars["last"], kind_pt, codes, ws_pt, flags,
    )
    off_real = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(n_stored, out=off_real[1:])
    counts = expanded_counts(n_stored, codes, off_real)
    if not np.array_equal(counts, n_points):
        raise ValueError(
            "decode_blocks_flat: expanded point counts disagree with the "
            "stored n_points metadata — corrupt runs payload"
        )
    total = int(counts.sum())
    hist_pt = np.repeat(kinds == KIND_HISTOGRAM, n_stored)
    codes_h = codes[hist_pt]
    el_hist = np.repeat(kinds == KIND_HISTOGRAM, counts)
    buckets = {}
    for b_col in BUCKET_COLS:
        col = np.zeros(total, dtype=np.float64)
        if len(hist_rows):
            col[el_hist] = expand_runs_carry(bucket_real[b_col], codes_h)
        buckets[b_col] = col
    streams = {
        "window_start": exp["window"],
        "sum": exp["sum"],
        "count": exp["count"],
        "min": exp["min"],
        "max": exp["max"],
        "last": exp["last"],
        "flags": exp["flags"],
        "buckets": buckets,
        "window_seconds": ws_row,
    }
    return counts, streams


def decode_blocks_batch(batch: pa.Table) -> pa.Table:
    """map_batches body: block rows → decoded tier rows (verification and
    read path), virtual fills expanded bit-for-bit."""
    return _decoded_table(batch, source=False)


def decode_blocks_points(batch: pa.Table) -> pa.Table:
    """Block rows → decoded tier rows plus each point's ``bucket`` and
    its source row's ``window_seconds`` (0 when the row had no runs
    section): the input of ``encode_agg_rows`` for a rewrite that
    decodes a store (compaction, retention)."""
    return _decoded_table(batch, source=True)


def _decoded_table(batch: pa.Table, source: bool) -> pa.Table:
    n_rows = batch.num_rows
    counts, streams = decode_blocks_flat(batch)
    batch = batch.combine_chunks()
    row_ix = pa.array(np.repeat(np.arange(n_rows, dtype=np.int64), counts))
    out = {"bucket": batch["bucket"].take(row_ix)} if source else {}
    out.update({
        "series_key": batch["series_key"].take(row_ix),
        "name": batch["name"].take(row_ix),
        "kind": batch["kind"].take(row_ix),
        "window_start": pa.array(streams["window_start"], type=pa.int64()),
        "sum": pa.array(streams["sum"], type=pa.float64()),
        "count": pa.array(streams["count"].astype(np.int64), type=pa.int64()),
        "min": pa.array(streams["min"], type=pa.float64()),
        "max": pa.array(streams["max"], type=pa.float64()),
        "last": pa.array(streams["last"], type=pa.float64()),
    })
    if "tier" in batch.schema.names:
        out["tier"] = batch["tier"].take(row_ix)
    for b_col in BUCKET_COLS:
        out[b_col] = pa.array(
            streams["buckets"][b_col].astype(np.int64), type=pa.int64())
    flags = streams["flags"]
    out["filled"] = pa.array((flags & 1).astype(bool))
    out["stale"] = pa.array(((flags >> 1) & 1).astype(bool))
    if source:
        out["window_seconds"] = pa.array(
            np.repeat(streams["window_seconds"], counts))
    return pa.table(out)
