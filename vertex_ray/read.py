"""The store's query façade — the prometheus_exporter read surface as an
API (reference: the exporter sink exposes series for PromQL range /
instant queries and skips expired entries at read time,
/root/reference src/sinks/prometheus_exporter.rs:351-356; here the same
two verbs run directly over the committed Gorilla block store, with
staleness materialized as the filled/stale flags the fill stage wrote).

- ``query_range``   — tier rows for a metric + label-regex + time range.
  Selection is applied to BLOCK rows before any decode (name/key match,
  block_start/block_end footer overlap), so decompression work is
  proportional to the selection, not the store — the same
  prune-then-decode shape as ``select_series_1m_latency``.
- ``instant_query`` — the latest real sample per series at time ``at``
  within a ``lookback`` window (PromQL instant-vector semantics: a
  series with no sample inside the lookback is absent).

Every verb returns a Dataset, so every `stages.promql` function composes
on top (``over_time(query_range(...), ...)``).

Two executors, one set of logic. A verb is a read of candidate part
files, per-batch steps (prune, decode, shape) and at most one exchange
(``merge``). A point read's candidates are the one part per store (per
epoch) its conversation hashes to; a range or metadata read's are every
part of the stage. Two constants pick where the work runs:

- Read gate. When the candidates hold fewer than
  ``DRIVER_READ_MAX_BYTES`` bytes, the driver reads them with the same
  tier / metric pushdown and column selection as Ray Data's scan, runs
  the same steps on one ``pa.Table`` and a single ``merge`` over the
  whole of it, and returns ``ray.data.from_arrow`` of the result. Larger
  reads run the steps as a Ray Data plan. The gate is Ray's fixed CPU
  cost of one execution over the driver's read price per stage byte.
- Memory guard. A range read the driver has read and pruned decodes in
  the driver only while its kept block rows hold at most
  ``DRIVER_DECODE_MAX_POINTS`` points; above that, those rows go to Ray
  Data for decode and shape, one block per decode batch. A metadata
  verb decodes nothing, so only the read gate applies to it.

The read gate's prices, from four runs of ``scripts/read_prices.py`` on
a 100k-turn ``perfbench`` store (seed 960, 16 parts, 2.50 MB), Ray
pinned to 1 CPU, process-tree CPU: an empty-selection ``query_range`` on
Ray Data costs 0.52-0.63 s, and the driver reads the stage at 28-32 ns
per byte, so 18.6-22.5 MB, taken as 20 MB. A tier- or metric-filtered
scan reads the bytes of every candidate part but decodes only its slice;
one price for both (503 ns per byte, read and decode of every tier with
fills) kept every dashboard scan of that store on Ray. The parquet
footers cannot price the slice instead: each block part is one row group
holding all four tiers.

The memory guard comes from the driver's peak RSS, not from CPU: at 1
Ray CPU a decode on Ray Data costs more CPU than the same decode in the
driver (the 2.5M-point read below: 3.5 s against 2.0 s of process-tree
CPU, and 4.1 s with the read on Ray Data too). On a 760k-turn store of
18.1 MB, just under the read gate, at 184 MB resting RSS, a driver
decode peaked about 445 B per point above rest: 1,306 MB for a
2.5M-point 1m range read with fills, 2,725 MB for the whole 1m tier
(5.8M points). 350k points keep the peak near 160 MB above rest, what
the whole 1m tier with fills of a 1.06 MB store costs the driver;
measured, a 346k-point 5m read peaked at 326 MB. Above the guard
the two reads above peaked at 212 and 265 MB, and ``tsdb_status`` over
the whole 1m tier (read, no decode) at 247 MB. A small read is eager: it
reads (and, under the memory guard, decodes) when the verb is called,
not when the Dataset is consumed; a large read stays lazy.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from vertex_ray.schema import TIER_SECONDS

__all__ = ["query_range", "instant_query", "series_metadata",
           "label_values", "pick_tier", "query_range_auto", "tsdb_status",
           "label_cardinality", "query_range_multi",
           "query_range_stitched"]

_SCALAR_COLS = ["series_key", "window_start", "sum", "count", "min",
                "max", "last"]

# Read gate: a read whose candidate part files hold fewer bytes than
# this runs in the driver. Ray's fixed CPU cost of one execution (about
# 0.55 s, an empty-selection query_range) over the driver's read price
# (about 28 ns per stage byte), measured at 1 Ray CPU (module docstring).
DRIVER_READ_MAX_BYTES = 20_000_000
# Memory guard: a driver-read range selection holding more points than
# this decodes on Ray Data, so a driver decode peaks at about 160 MB
# above the driver's resting RSS (about 445 B per decoded point; module
# docstring).
DRIVER_DECODE_MAX_POINTS = 350_000
# what a metadata verb reads of a block row: identity and footer interval
_META_COLS = ["name", "series_key", "block_start", "block_end"]

_EMPTY = pa.table({})


def _verb(fn):
    """A read verb returns a Dataset. Its body returns the driver's
    ``pa.Table`` for a small read; ``verb.__wrapped__`` keeps that
    table for the verbs that compose reads in the driver."""
    @functools.wraps(fn)
    def verb(*args, **kwargs):
        out = fn(*args, **kwargs)
        return rd.from_arrow(out) if isinstance(out, pa.Table) else out

    return verb


def _map(x, fn):
    """One per-batch step over the driver's table or as ``map_batches``.
    Like Ray Data, the driver never calls ``fn`` on zero rows."""
    if isinstance(x, pa.Table):
        return fn(x) if x.num_rows else _EMPTY
    return x.map_batches(fn, batch_format="pyarrow")


def _one_bucket(t: pa.Table) -> pa.Table:
    return t.append_column("__bucket",
                           pa.array(np.zeros(len(t), dtype=np.int64)))


def _exchange(x, merge, key: str | None = None, n_buckets: int = 1):
    """A verb's one exchange: ``merge`` (pandas) per hash bucket of
    ``key`` (one bucket when None). In the driver the whole table is one
    bucket, so ``merge`` runs once."""
    if isinstance(x, pa.Table):
        return _map(x, lambda t: pa.Table.from_pandas(
            merge(_one_bucket(t).to_pandas()), preserve_index=False))
    from vertex_ray.stages.promql import _add_series_bucket

    bucket = _one_bucket if key is None else (
        lambda t: _add_series_bucket(t, key, n_buckets))
    return (x.map_batches(bucket, batch_format="pyarrow")
            .groupby("__bucket").map_groups(merge, batch_format="pandas"))


def _union(parts: list):
    """Concatenation of read results: in the driver when every part is a
    table, else a zero-shuffle ``Dataset.union``."""
    if all(isinstance(p, pa.Table) for p in parts):
        full = [p for p in parts if p.num_rows]
        return pa.concat_tables(full) if full else _EMPTY
    ds = [rd.from_arrow(p) if isinstance(p, pa.Table) else p for p in parts]
    return ds[0].union(*ds[1:]) if len(ds) > 1 else ds[0]


def _read_blocks(out_dir: str, tier: str | None, layout: str,
                 conv_id: str | None = None, metric: str | None = None,
                 columns: list[str] | None = None):
    """The block rows a read starts from (``columns`` of them, every
    column when None): a ``pa.Table`` read in the driver when its
    candidate part files hold fewer than ``DRIVER_READ_MAX_BYTES`` (or
    there are none), else a Ray Data scan. Sizes are summed only until
    they reach the threshold, so a large store costs a few size lookups,
    not one per part."""
    from vertex_ray.pipelines.epoch_pipeline import read_epochs_stage
    from vertex_ray.pipelines.rollup_pipeline import (
        read_stage,
        read_stage_files,
        read_block_table,
    )

    files, sizes, point = _candidate_parts(out_dir, layout, conv_id)
    if all(n < DRIVER_READ_MAX_BYTES for n in itertools.accumulate(sizes)):
        return read_block_table(files, tier, metric, columns)
    if point:
        return read_stage_files(files, tier, metric, columns=columns)
    if layout == "oneshot":
        return read_stage(out_dir, "blocks", tier, metric, columns)
    return read_epochs_stage(out_dir, "blocks", tier, metric, columns)


def _candidate_parts(out_dir: str, layout: str, conv_id: str | None):
    """``(files, sizes, point)``: every part file a read touches, their
    byte sizes (an iterable, read lazily), and whether the files were
    addressed by the conversation's bucket.

    A range read touches every part of the stage. A point read uses the
    store's hash partitioning by conversation (``bucket =
    blake2b64(conv_id) % n_buckets``, one ``part-<bucket>.parquet`` per
    bucket — the same sharding a real cluster spreads over nodes): a
    single-conversation selector touches exactly ONE part file per store
    (per epoch in the chunked layout), and its size comes from the stage
    manifest that gives ``n_buckets``. A conversation whose bucket file
    never materialized touches no part. Cost is O(selection),
    independent of store width."""
    import hashlib
    import posixpath

    from vertex_ray.state import fsio
    from vertex_ray.state.checkpoint import part_path, read_manifest, stage_files

    if layout == "oneshot":
        roots = [posixpath.join(out_dir, "blocks")]
    elif layout == "epochs":
        from vertex_ray.pipelines.epoch_pipeline import epoch_dirs

        roots = [posixpath.join(e, "blocks") for e in epoch_dirs(out_dir)]
    else:
        raise ValueError(f"unknown store layout: {layout!r}")
    if conv_id is not None:
        h = int.from_bytes(
            hashlib.blake2b(conv_id.encode(), digest_size=8).digest(), "big")
        files, sizes = [], []
        for root in roots:
            m = read_manifest(root)
            nb = m.get("lineage", {}).get("n_buckets")
            if nb is None:
                # a store whose files aren't bucket-addressed (e.g. a
                # compacted stage committed by write_stage) — the bucket
                # of this conv can't be mapped to a file; full scan is
                # the only correct read
                break
            path = part_path(root, h % int(nb))
            fname = posixpath.basename(path)
            if fname in m["files"]:
                files.append(path)
                sizes.append(int(m["files"][fname]["bytes"]))
        else:
            return files, sizes, True
    files = [f for root in roots for f in stage_files(root)]
    return files, map(fsio.file_size, files), False


@_verb
def query_range(out_dir: str, tier: str, metric: str | None = None,
                key_regex: str | None = None, start: int | None = None,
                end: int | None = None, include_filled: bool = False,
                columns: list[str] | None = None,
                tombstones: bool | list = True,
                layout: str = "oneshot",
                conv_id: str | None = None,
                offset: int = 0):
    """Tier rows from the committed block store for one range query.

    ``metric`` (exact name) and ``key_regex`` (RE2 over series_key) prune
    block ROWS; ``start``/``end`` (epoch seconds, inclusive) prune blocks
    by their footer interval before decode, then exact-filter the decoded
    windows. Gap-filled / stale-marker rows are dropped unless
    ``include_filled`` (real-sample reads vs dashboard LOCF reads).
    ``count`` is cast back to int64 (the tiers' storage flag layout keeps
    it unsigned).

    ``tombstones``: True (default) loads the store's delete tombstones
    (state/tombstones) once on the driver and applies them — a block
    fully covered by a stone never decodes, a partially-covered block
    drops the deleted points post-decode; False ignores them; an
    explicit list applies those stones (dry-run of a delete request).

    ``layout``: "oneshot" (default) reads ``out_dir/blocks``;
    "epochs" reads the time-chunked epoch store
    (``out_dir/epoch-*/blocks``, pipelines/epoch_pipeline) — the same
    verbs work unchanged over a continuously-ingesting deployment.

    ``offset``: the PromQL ``offset`` modifier in seconds — evaluate the
    whole query shifted ``offset`` into the past, then re-stamp the
    returned ``window_start`` forward into the caller's frame (so
    ``offset=86400`` under a start/end range yields yesterday's values
    carrying today's timestamps, ready for day-over-day ``binary_op``)."""
    from vertex_ray.pipelines.rollup_pipeline import (
        DECODE_BATCH_ROWS,
        decode_tier_blocks,
    )
    from vertex_ray.stages.encode import decode_blocks_batch
    from vertex_ray.state.tombstones import (
        block_keep_mask,
        load_tombstones,
        point_keep_mask,
    )

    import re as _re

    if offset:
        start = None if start is None else start - offset
        end = None if end is None else end - offset
    cols = columns or _SCALAR_COLS
    stones = (load_tombstones(out_dir) if tombstones is True
              else list(tombstones or []))
    conv_re = (rf"\{{conv_id={_re.escape(conv_id)}[,}}]"
               if conv_id is not None else None)

    def prune(t: pa.Table) -> pa.Table:
        m = pa.array(np.ones(len(t), dtype=bool))
        if metric is not None:
            m = pc.and_(m, pc.equal(t["name"], metric))
        if conv_re is not None:
            m = pc.and_(m, pc.match_substring_regex(t["series_key"],
                                                    conv_re))
        if key_regex is not None:
            m = pc.and_(m, pc.match_substring_regex(t["series_key"],
                                                    key_regex))
        if start is not None:
            m = pc.and_(m, pc.greater_equal(t["block_end"], start))
        if end is not None:
            m = pc.and_(m, pc.less_equal(t["block_start"], end))
        if stones:
            m = pc.and_(m, block_keep_mask(t, stones, tier))
        return t.filter(m)

    sel = _map(_read_blocks(out_dir, tier, layout, conv_id=conv_id,
                            metric=metric), prune)
    # the memory guard: a large selection decodes on Ray Data, one block
    # per decode batch so the decode can spread over the session's CPUs
    if (isinstance(sel, pa.Table) and sel.num_rows
            and pc.sum(sel["n_points"]).as_py() > DRIVER_DECODE_MAX_POINTS):
        n = DECODE_BATCH_ROWS
        sel = rd.from_arrow([sel.slice(i, n)
                             for i in range(0, sel.num_rows, n)])

    def shape(t: pa.Table) -> pa.Table:
        keep = pa.array(np.ones(len(t), dtype=bool))
        if not include_filled:
            keep = pc.and_(keep, pc.and_(pc.invert(t["filled"]),
                                         pc.invert(t["stale"])))
        if start is not None:
            keep = pc.and_(keep, pc.greater_equal(t["window_start"], start))
        if end is not None:
            keep = pc.and_(keep, pc.less_equal(t["window_start"], end))
        if stones:
            keep = pc.and_(keep, point_keep_mask(t, stones, tier))
        t = t.filter(keep).select(cols)
        if "count" in cols:
            i = t.schema.get_field_index("count")
            t = t.set_column(i, "count", pc.cast(t["count"], pa.int64()))
        if offset and "window_start" in cols:
            i = t.schema.get_field_index("window_start")
            t = t.set_column(i, "window_start",
                             pc.add(t["window_start"], offset))
        return t

    rows = (_map(sel, decode_blocks_batch) if isinstance(sel, pa.Table)
            else decode_tier_blocks(sel))
    return _map(rows, shape)


@_verb
def instant_query(out_dir: str, tier: str, at: int, lookback: int,
                  metric: str | None = None, key_regex: str | None = None,
                  columns: list[str] | None = None, n_buckets: int = 64,
                  tombstones: bool | list = True,
                  layout: str = "oneshot", conv_id: str | None = None,
                  offset: int = 0):
    """PromQL instant vector at evaluation time ``at``: per series, the
    newest real sample with ``at - lookback < window_start <= at``;
    series with none are absent. One hash-bucketed exchange over the
    already-pruned range read (the range covers only the lookback;
    ``conv_id`` takes the hash-bucket point-read fast path). ``offset``
    is the PromQL offset modifier: evaluate at ``at - offset``, re-stamp
    results into the caller's frame (query_range does both)."""
    cols = columns or _SCALAR_COLS
    rng = query_range.__wrapped__(
        out_dir, tier, metric=metric, key_regex=key_regex,
        start=at - lookback + 1, end=at, columns=cols,
        tombstones=tombstones, layout=layout, conv_id=conv_id,
        offset=offset)

    def newest(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["series_key", "window_start"], kind="stable")
        keep = np.ones(len(g), dtype=bool)
        k = g["series_key"].to_numpy()
        keep[:-1] = k[:-1] != k[1:]  # last row of each series run
        return g.loc[keep, cols]

    return _exchange(rng, newest, "series_key", n_buckets)


@_verb
def series_metadata(out_dir: str, tier: str, metric: str | None = None,
                    key_regex: str | None = None,
                    start: int | None = None, end: int | None = None,
                    layout: str = "oneshot"):
    """The ``/api/v1/series`` metadata read: distinct series matching a
    selector, WITHOUT decoding a single block — series identity and the
    footer interval live on the block rows themselves, so this is a
    prune + distinct over block metadata (columns
    ``name, series_key, first_seen, last_seen``). The read loads only
    the block index columns (``name, series_key, block_start,
    block_end``), never a payload column."""
    ds = _read_blocks(out_dir, tier, layout, metric=metric,
                      columns=_META_COLS)

    def prune(t: pa.Table) -> pa.Table:
        m = pa.array(np.ones(len(t), dtype=bool))
        if metric is not None:
            m = pc.and_(m, pc.equal(t["name"], metric))
        if key_regex is not None:
            m = pc.and_(m, pc.match_substring_regex(t["series_key"],
                                                    key_regex))
        if start is not None:
            m = pc.and_(m, pc.greater_equal(t["block_end"], start))
        if end is not None:
            m = pc.and_(m, pc.less_equal(t["block_start"], end))
        t = t.filter(m)
        # per-batch partial distinct BEFORE the exchange
        df = t.to_pandas()
        g = (df.groupby(["name", "series_key"], sort=False)
             .agg(first_seen=("block_start", "min"),
                  last_seen=("block_end", "max")).reset_index())
        return pa.Table.from_pandas(g, preserve_index=False)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby(["name", "series_key"], sort=False)
                .agg(first_seen=("first_seen", "min"),
                     last_seen=("last_seen", "max")).reset_index())

    return _exchange(_map(ds, prune), merge, "series_key", 64)


@_verb
def label_values(out_dir: str, tier: str, label: str,
                 metric: str | None = None, layout: str = "oneshot"):
    """The ``/api/v1/label/<label>/values`` metadata read: distinct
    values of one label across matching series — extract the label from
    series_key on block rows (no decode), partial-distinct per batch,
    one tiny exchange."""
    from vertex_ray.stages.promql import extract_label

    ds = _read_blocks(out_dir, tier, layout, metric=metric,
                      columns=_META_COLS)

    def prune(t: pa.Table) -> pa.Table:
        if metric is not None:
            t = t.filter(pc.equal(t["name"], metric))
        t = extract_label(t.select(["series_key"]), label)
        vals = pc.unique(t[label].combine_chunks())
        vals = vals.filter(pc.is_valid(vals))
        return pa.table({label: vals})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g[[label]].drop_duplicates()

    return _exchange(_map(ds, prune), merge)


def pick_tier(step_seconds: int,
              tiers: dict[str, int] | None = None) -> str:
    """Grafana-style resolution selection: the COARSEST tier whose
    window still resolves the requested step (largest tier_seconds <=
    step), falling back to the finest tier for sub-tier steps. Reading
    a 30-day dashboard at a 1h step from the 1h tier touches ~720
    points per series instead of ~43k from the 1m tier — the read cost
    scales with the pixels, not the retention."""
    ts = tiers or dict(TIER_SECONDS)
    fitting = [(s, t) for t, s in ts.items() if s <= step_seconds]
    if fitting:
        return max(fitting)[1]
    return min((s, t) for t, s in ts.items())[1]


def query_range_auto(out_dir: str, step_seconds: int, **kwargs):
    """query_range with the tier chosen by :func:`pick_tier` from the
    requested step — the dashboard entry point."""
    return query_range(out_dir, pick_tier(step_seconds), **kwargs)


@_verb
def tsdb_status(out_dir: str, tier: str, metric: str | None = None,
                layout: str = "oneshot"):
    """The ``/api/v1/status/tsdb`` analogue: per-metric store statistics
    — series count, block count, stored point count (real + gap-fill +
    stale-marker rows), and encoded payload bytes — computed entirely
    from block-row metadata, zero decode. Two metadata-sized combiner
    exchanges: (name, series) partials per batch, then per-name totals."""
    ds = _read_blocks(out_dir, tier, layout, metric=metric)

    def per_series(t: pa.Table) -> pa.Table:
        if metric is not None:
            t = t.filter(pc.equal(t["name"], metric))
        vb = t["val_blocks"].combine_chunks()
        # payload bytes = ts stream + every value stream + flags
        payload = pc.binary_length(t["ts_block"]).to_numpy().astype(np.int64)
        flat = pc.binary_length(vb.flatten()).to_numpy()
        off = vb.offsets.to_numpy()
        cum = np.zeros(len(flat) + 1, dtype=np.int64)
        np.cumsum(flat, out=cum[1:])
        payload = (payload + cum[off[1:]] - cum[off[:-1]]
                   + pc.binary_length(t["flags"]).to_numpy())
        if "runs" in t.schema.names:  # virtual-fill run payloads
            payload = payload + pc.binary_length(t["runs"]).to_numpy()
        df = pd.DataFrame({
            "name": t["name"].to_pandas(),
            "series_key": t["series_key"].to_pandas(),
            "n_points": t["n_points"].to_numpy().astype(np.int64),
            "bytes": payload.astype(np.int64),
        })
        g = (df.groupby(["name", "series_key"], sort=False)
             .agg(n_blocks=("n_points", "size"),
                  n_points=("n_points", "sum"),
                  bytes=("bytes", "sum")).reset_index())
        return pa.Table.from_pandas(g, preserve_index=False)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        per = (g.groupby(["name", "series_key"], sort=False)
               [["n_blocks", "n_points", "bytes"]].sum().reset_index())
        out = (per.groupby("name", sort=False)
               .agg(n_series=("series_key", "size"),
                    n_blocks=("n_blocks", "sum"),
                    n_points=("n_points", "sum"),
                    bytes=("bytes", "sum")).reset_index())
        return out

    return _exchange(_map(ds, per_series), merge, "name", 8)


@_verb
def label_cardinality(out_dir: str, tier: str, labels: list[str],
                      metric: str | None = None,
                      layout: str = "oneshot"):
    """The label-cardinality half of ``/api/v1/status/tsdb``: distinct
    value count per label name across matching series — extracted from
    series_key on block rows (zero decode), per-batch partial distinct
    before one tiny exchange. The first number to look at when a store's
    series count explodes (which label blew up?)."""
    from vertex_ray.stages.promql import extract_label

    ds = _read_blocks(out_dir, tier, layout, metric=metric,
                      columns=_META_COLS)

    def partial(t: pa.Table) -> pa.Table:
        if metric is not None:
            t = t.filter(pc.equal(t["name"], metric))
        outs = []
        for lbl in labels:
            e = extract_label(t.select(["series_key"]), lbl)
            vals = pc.unique(e[lbl].combine_chunks())
            vals = vals.filter(pc.is_valid(vals))
            outs.append(pa.table({
                "label": pa.array([lbl] * len(vals), type=pa.string()),
                "value": vals.cast(pa.string()),
            }))
        return pa.concat_tables(outs)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return (g.drop_duplicates(["label", "value"])
                .groupby("label", sort=False).size()
                .rename("n_values").reset_index())

    return _exchange(_map(ds, partial), merge)


@_verb
def query_range_multi(out_dirs: list[str], tier: str,
                      dedupe: bool = False, n_buckets: int = 64,
                      **kwargs):
    """Federated range read across a FLEET of stores (shards owning
    disjoint series — the multi-node deployment where each ingest shard
    commits its own block store): the union of per-store range reads.
    Each shard applies its own pruning and its own tombstone file;
    ``union`` is zero-shuffle in Ray Data, so federation adds no
    exchange — the cost is exactly the sum of the shard reads.

    ``dedupe=True`` is the HA-replica mode (the same series ingested by
    MORE than one store): per (series, window) exactly one sample
    survives, preferring the EARLIER store in ``out_dirs`` — this adds
    the one hash exchange that replica reconciliation fundamentally
    needs; leave it off for disjoint shards."""
    parts = [query_range.__wrapped__(d, tier, **kwargs) for d in out_dirs]
    if not parts:
        raise ValueError("query_range_multi needs at least one store")
    if not dedupe:
        return _union(parts)

    def stamp(i):
        return lambda t: t.append_column(
            "__store", pa.array(np.full(len(t), i, dtype=np.int8)))

    u = _union([_map(p, stamp(i)) for i, p in enumerate(parts)])

    def first(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["series_key", "window_start", "__store"],
                          kind="stable")
        keep = ~g.duplicated(["series_key", "window_start"])
        return g.loc[keep].drop(columns=["__store", "__bucket"])

    return _exchange(u, first, "series_key", n_buckets)


@_verb
def query_range_stitched(out_dir: str, coarse_tier: str, fine_tier: str,
                         boundary: int, metric: str | None = None,
                         key_regex: str | None = None,
                         start: int | None = None, end: int | None = None,
                         columns: list[str] | None = None,
                         tombstones: bool | list = True,
                         layout: str = "oneshot",
                         tiers: dict[str, int] | None = None):
    """Cross-resolution stitched range read — the dashboard pattern of
    serving deep history from a coarse tier and the recent tail at fine
    resolution in ONE vector: windows < ``boundary`` come from
    ``coarse_tier``, windows >= ``boundary`` from ``fine_tier``, with a
    ``tier`` column stamping each row's provenance. ``boundary`` must be
    aligned to the coarse tier's window so the two segments partition
    time exactly (no window is double-counted or split).

    Both legs are independent pruned block reads (footer-interval prune
    before decode), so cost is proportional to each segment's own
    selection; the union is a concatenation — of the two tables in the
    driver when both legs are small, else of block streams — no
    exchange."""
    ts = tiers or dict(TIER_SECONDS)
    cs = ts[coarse_tier]
    if boundary % cs:
        raise ValueError(
            f"boundary {boundary} not aligned to {coarse_tier} ({cs}s)")
    if ts[fine_tier] >= cs:
        raise ValueError("fine_tier must be finer than coarse_tier")
    common = dict(metric=metric, key_regex=key_regex, columns=columns,
                  tombstones=tombstones, layout=layout)
    coarse = query_range.__wrapped__(out_dir, coarse_tier, start=start,
                                     end=boundary - 1, **common)
    fine = query_range.__wrapped__(out_dir, fine_tier,
                                   start=boundary if start is None
                                   else max(start, boundary),
                                   end=end, **common)

    def stamp(tier):
        def fn(t: pa.Table) -> pa.Table:
            return t.append_column(
                "tier", pa.array([tier] * len(t), type=pa.string()))

        return fn

    return _union([_map(coarse, stamp(coarse_tier)),
                   _map(fine, stamp(fine_tier))])
