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

``GorillaEncode()(packed)`` encodes one packed table (per-series array
rows) into block rows; ``decode_blocks_flat`` / ``decode_blocks_batch``
read them back. Both sides work on Arrow buffers with no per-series
Python object: the writer encodes each stream of all rows at once
(vertex_ray/gorilla) into one ``binary`` array, and lays ``val_blocks``
out from the streams with one ``take``; the reader decodes each stream
of a batch from one padded copy of its column's data, locating every
row's block by the column's binary offsets. A block whose bytes
disagree with its ``n_points`` raises ValueError.

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

import numpy as np
import pyarrow as pa

from vertex_ray.gorilla import (
    _ZGeom,
    binary_array,
    decode_flags_multi_flat,
    decode_timestamps_multi_flat,
    decode_values_multi_flat,
    encode_flags_multi,
    encode_timestamps_multi,
    encode_values_multi_shared,
    join_sections,
    stream_buffer,
)
from vertex_ray.schema import (
    BLOCK_SCHEMA,
    BUCKET_COLS,
    KIND_HISTOGRAM,
    N_BUCKETS,
    SCALAR_STREAMS,
    STALE_NAN_BITS,
)
from vertex_ray.stages.fill import (
    RUN_FILL_MASK,
    RUN_STALE_SHIFT,
    expand_runs_carry,
    expand_runs_scalars,
    expanded_counts,
    fold_fills,
)

# The block layout's version, stamped into every ingest's lineage: a
# store whose blocks were written in another layout is recomputed on
# resume, never mixed into one stage. Bump it on any format change.
BLOCK_FORMAT = "gorilla-columnar-v3-virtual-fills"

# the on-disk value-stream order is schema.SCALAR_STREAMS — aliased here
# only for brevity; never redefine it (format contract)
_SCALARS = SCALAR_STREAMS


class GorillaEncode:
    """Per-series array rows (with a ``tier`` column) → Gorilla block
    rows."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        batch = batch.combine_chunks()
        kinds = batch["kind"].to_numpy(zero_copy_only=False)
        virtual = "runs" in batch.schema.names

        def flat(col_name):
            arr = _arr(batch, col_name)
            off = arr.offsets.to_numpy().astype(np.int64)
            return off - off[0], arr.flatten().to_numpy(zero_copy_only=False)

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

        empty = binary_array(b"", np.zeros(n, dtype=np.int64))
        runs = empty
        n_points = counts.astype(np.int32)
        if virtual:
            _, codes = flat("runs")
            codes = codes.astype(np.uint16, copy=False)
            n_fill = (codes & RUN_FILL_MASK).astype(np.int64)
            extra = n_fill + (codes >> RUN_STALE_SHIFT).astype(np.int64)
            ce = np.concatenate([[0], np.cumsum(extra)])
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
            # [window_seconds: u32 LE][u16 LE code per stored point]
            has = (counts > 0) & (ws_series > 0)
            runs = join_sections([
                (ws_series[has].astype("<u4"), 4 * has),
                (codes[np.repeat(has, counts)].astype("<u2"),
                 2 * counts * has),
            ])
        flags = empty
        if "flags" in batch.schema.names:
            fl_off, fl_val = flat("flags")
            fl_counts = np.diff(fl_off)
            # a flags section only on rows holding a flagged point
            nz = np.concatenate([[0], np.cumsum(fl_val != 0)])
            flagged = nz[fl_off[1:]] > nz[fl_off[:-1]]
            kept = np.where(flagged, fl_counts, 0)
            flags = encode_flags_multi(
                fl_val[np.repeat(flagged, fl_counts)],
                np.concatenate([[0], np.cumsum(kept)]))

        streams = encode_values_multi_shared(
            [flat(f"vals_{s}")[1] for s in _SCALARS], ws_off)
        # bucket streams hold the histogram rows' points only
        # (kernel.pack_arrays_virtual, pack_rows)
        hist = kinds == KIND_HISTOGRAM
        n_hist = int(hist.sum())
        if n_hist:
            sub_off = np.concatenate([[0], np.cumsum(counts[hist])])
            streams += encode_values_multi_shared(
                [flat(f"vals_{b}")[1] for b in BUCKET_COLS], sub_off)
        # row r lists its scalar streams, then (a histogram row) its
        # bucket streams: idx[r, k] is stream k's entry for row r
        ns, nb = len(_SCALARS), len(streams) - len(_SCALARS)
        idx = np.full((n, ns + nb), -1, dtype=np.int64)
        idx[:, :ns] = np.arange(ns) * n + np.arange(n)[:, None]
        idx[hist, ns:] = (ns * n + np.arange(nb) * n_hist
                          + np.arange(n_hist)[:, None])
        list_off = np.concatenate([[0], np.cumsum(ns + nb * hist)])
        val_blocks = pa.ListArray.from_arrays(
            pa.array(list_off.astype(np.int32)),
            pa.concat_arrays(streams).take(pa.array(idx[idx >= 0])))
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
                "ts_block": encode_timestamps_multi(ws_val, ws_off),
                "val_blocks": val_blocks,
                "flags": flags,
                "runs": runs,
            },
            schema=BLOCK_SCHEMA,
        )


def _arr(table: pa.Table, name: str) -> pa.Array:
    """A combined table's column as one array (no copy when it already
    is one chunk)."""
    col = table[name]
    return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()


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


def _stored_counts(batch: pa.Table, n_points: np.ndarray):
    """Stored points per block row, from its runs section's length:
    ``(n_stored, runs)``. ``runs`` is None when no row has a runs section
    (every row dense: its n_points are all stored), else the runs
    column's ``(buffer, offsets, has-runs mask)`` for ``_run_codes``."""
    if "runs" not in batch.schema.names:
        return n_points, None
    buf, off = stream_buffer(_arr(batch, "runs"))
    lens = np.diff(off)
    v3 = lens >= 4
    if not v3.any():
        return n_points, None
    return np.where(v3, (lens - 4) // 2, n_points), (buf, off, v3)


def _run_codes(n_stored: np.ndarray, buf: np.ndarray, off: np.ndarray,
               v3: np.ndarray):
    """``(codes, ws_row)``: the flat uint16 run-code stream over all rows'
    STORED points (zeros for dense rows) and the per-row window seconds
    (0 for dense rows), read off the runs column's buffer."""
    codes = np.zeros(int(n_stored.sum()), dtype=np.uint16)
    ws_row = np.zeros(len(v3), dtype=np.int64)
    v3i = np.flatnonzero(v3)
    st = off[v3i]
    ws_row[v3i] = (buf[st].astype(np.int64)
                   | buf[st + 1].astype(np.int64) << 8
                   | buf[st + 2].astype(np.int64) << 16
                   | buf[st + 3].astype(np.int64) << 24)
    c = n_stored[v3i]
    within = np.arange(int(c.sum()), dtype=np.int64) \
        - np.repeat(np.cumsum(c) - c, c)
    dst = np.repeat(np.concatenate([[0], np.cumsum(n_stored)])[v3i], c) \
        + within
    src = np.repeat(st + 4, c) + 2 * within
    codes[dst] = (buf[src].astype(np.uint16)
                  | buf[src + 1].astype(np.uint16) << np.uint16(8))
    return codes, ws_row


def decode_blocks_flat(batch: pa.Table):
    """Decode a combined batch of block rows — dense v2 and/or
    virtual-fill v3 — to flat per-point arrays with fills EXPANDED
    (bit-for-bit the dense representation).

    Returns ``(counts, streams)``: ``counts`` is the per-row expanded
    point count; ``streams`` holds ``window_start`` (int64), the five
    scalar streams as float64, ``flags`` (uint8), and ``buckets`` — a
    dict of DENSE float64 arrays (zeros on non-histogram points).

    One flat vectorized decode per stream over the WHOLE batch, read off
    the columns' Arrow buffers: one padded copy of each column's data
    (``val_blocks``' 5 scalar and 11 bucket streams share one), each
    row's stream located by its binary offsets — no per-row Python
    object. The columnar decoders reconstruct every series with
    segmented scans (no per-point loop, no length-skew sensitivity);
    index geometry is shared across the 5 scalar (and 11 bucket)
    streams. A block whose bytes disagree with its ``n_points`` raises
    ValueError. Pure numpy/Arrow — a pandas hop here would canonicalize
    the stale NaN payload and break the bit-for-bit contract."""
    n_rows = batch.num_rows
    batch = batch.combine_chunks()
    n_points = batch["n_points"].to_numpy().astype(np.int64)
    if (n_points < 0).any():
        raise ValueError("decode_blocks_flat: negative n_points")
    n_stored, runs = _stored_counts(batch, n_points)
    kinds = batch["kind"].to_numpy(zero_copy_only=False)
    hist_rows = np.flatnonzero(kinds == KIND_HISTOGRAM)

    # timestamps first: their blocks bound n_stored before anything
    # per stored point is allocated
    buf, off = stream_buffer(_arr(batch, "ts_block"))
    ws = decode_timestamps_multi_flat(buf, 8 * off[:-1], 8 * off[1:],
                                      n_stored)
    if runs is not None:
        codes, ws_row = _run_codes(n_stored, *runs)

    vb = _arr(batch, "val_blocks")
    first = vb.offsets.to_numpy().astype(np.int64)
    per_row = len(_SCALARS) + len(BUCKET_COLS) * (kinds == KIND_HISTOGRAM)
    if not np.array_equal(np.diff(first), per_row):
        raise ValueError("decode_blocks_flat: a row's val_blocks count "
                         "does not match its kind")
    vbuf, voff = stream_buffer(vb.values)
    vbits = 8 * voff

    def values(elem, counts, geom):
        return decode_values_multi_flat(vbuf, vbits[elem], vbits[elem + 1],
                                        counts, geom=geom)

    geom = _ZGeom(n_stored, np.maximum(n_stored - 1, 0))
    scalars = {s: values(first[:-1] + i, n_stored, geom)
               for i, s in enumerate(_SCALARS)}
    n_hist = n_stored[hist_rows]
    hgeom = _ZGeom(n_hist, np.maximum(n_hist - 1, 0))
    bucket_real = {
        b_col: values(first[hist_rows] + len(_SCALARS) + b_i, n_hist, hgeom)
        for b_i, b_col in enumerate(BUCKET_COLS)
    }

    # stored flags: a dense row flags every stored point, a v3 row only
    # when it holds fills stored as points (epoch carries); b"" = real
    flags = np.zeros(int(n_stored.sum()), dtype=np.uint8)
    if "flags" in batch.schema.names:
        buf, off = stream_buffer(_arr(batch, "flags"))
        has = np.diff(off) > 0
        if has.any():
            flags[np.repeat(has, n_stored)] = decode_flags_multi_flat(
                buf, 8 * off[:-1][has], 8 * off[1:][has], n_stored[has])

    hist_pt = np.repeat(kinds == KIND_HISTOGRAM, n_stored)
    if runs is None:
        counts, codes_h = n_stored, None
        streams = {"window_start": ws, "flags": flags,
                   "window_seconds": np.zeros(n_rows, dtype=np.int64),
                   **scalars}
    else:
        counts = expanded_counts(n_stored, codes,
                                 np.concatenate([[0], np.cumsum(n_stored)]))
        if not np.array_equal(counts, n_points):
            raise ValueError(
                "decode_blocks_flat: expanded point counts disagree with the "
                "stored n_points metadata — corrupt runs payload"
            )
        exp = expand_runs_scalars(
            ws, scalars["sum"], scalars["count"], scalars["min"],
            scalars["max"], scalars["last"], np.repeat(kinds, n_stored),
            codes, np.repeat(ws_row, n_stored), flags,
        )
        streams = {"window_start": exp.pop("window"), "window_seconds": ws_row,
                   **exp}
        codes_h = codes[hist_pt]
    el_hist = np.repeat(kinds == KIND_HISTOGRAM, counts)
    streams["buckets"] = {}
    for b_col in BUCKET_COLS:
        col = np.zeros(int(counts.sum()), dtype=np.float64)
        if len(hist_rows):
            real = bucket_real[b_col]
            col[el_hist] = real if codes_h is None else expand_runs_carry(
                real, codes_h)
        streams["buckets"][b_col] = col
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
