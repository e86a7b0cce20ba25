"""Incremental scrape ingest: successive scrape runs append epoch
increments to ONE store, carrying per-series normalize state between
runs — the resumable form of pipelines/scrape_pipeline, mirroring the
flagship's epoch pipeline (pipelines/epoch_pipeline):

- each run commits ``epoch-<seq>/{agg,blocks,state}`` as one stage set
  through the flagship's commit protocol (state/checkpoint); the group
  body writes every stage's part per bucket with ``write_part`` (atomic
  rename, idempotent — a retried task reuses finished buckets);
- a run is the one-shot scrape's chain over the executor seam
  (stages/executor) with one sentinel row per bucket: the lines scan
  (rollup_pipeline.scan) → the parse per batch → the body per bucket.
  A small sized input in a 1-CPU session runs in the driver, bucket by
  bucket; any other as one Ray execution whose group tasks write the
  parts. The finalize run has no input to size and runs on Ray (the
  driver's memory per byte of carried state is not priced);
- a run killed before its set committed leaves an uncommitted epoch.
  A driver run names its input in the lineage (a digest of the lines,
  plus the ``default_ts_ms`` that stamps the lines without a
  timestamp), so a rerun over the same lines at the same scrape time
  resumes it bucket by bucket and any other rerun rebuilds it; a Ray
  run's input is a Dataset no
  lineage names, so the next append wipes that epoch and rebuilds it
  from its own input;
- the carried state is the reference's ``MetricNormalizer`` memory
  (/root/reference lib/framework/src/sink/buffer/metrics.rs:100-146)
  persisted in its RAWEST form: each series' LAST raw scrape instant
  (one sample row for counters/gauges, the full 13-row family for
  histograms). Prepending those rows to the next run's samples makes
  the unchanged batch kernels reproduce seeding exactly — the
  first-sample/first-instant drop consumes the carried reference, so
  run N+1's first real sample EMITS a delta; no per-kind seeding code;
- the still-OPEN window's partial aggregate rides along as agg-shaped
  rows folded back in with the FIXTURES §F4 merge (stages/kernel's
  string-keyed ``merge_keyed``) — a window only
  emits when a later window for that series arrives (or at
  ``scrape_finalize``), so the store keeps its one-row-per-(series,
  window) invariant across arbitrary run boundaries;
- samples at or before a series' last accepted timestamp are dropped
  (at-least-once replay absorb, same rule as the streaming encoder).

All four kinds carry state. Summary's no-op merge needs no extra
machinery: a summary window row's ``last_ts`` is its FIRST sample's
instant (pipelines/scrape_pipeline._pick_agg), so the §F4 merge —
summary keeps the earliest-``last_ts`` row — always prefers the carried
open partial over the window re-derived from the replayed reference
row, which is exactly first-wins across run boundaries.

The resulting store is the epoch layout: query it with
``read_epochs_stage`` / the read façade's ``layout="epochs"``, compact
it with ``stages/compact``, GC it with ``stages/retention``.
"""

from __future__ import annotations

import functools
import hashlib
import posixpath
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from vertex_ray.pipelines.epoch_pipeline import epoch_dirs
from vertex_ray.pipelines.rollup_pipeline import scan
from vertex_ray.pipelines.scrape_pipeline import (
    _KIND_CODE,
    _normalize,
    _scrape_parser,
)
from vertex_ray.schema import AGG_FIELDS, BUCKET_COLS
from vertex_ray.stages.encode import BLOCK_FORMAT
from vertex_ray.stages.executor import per_batch, per_group, union
from vertex_ray.state import fsio
from vertex_ray.state.checkpoint import (
    committed,
    group_body,
    open_parts,
    part_path,
    read_manifest,
    seal,
    write_part,
)

__all__ = ["carry_step", "scrape_append", "scrape_finalize",
           "read_scrape_epochs"]

_SENTINEL_KIND = 255

# agg rows as the open-window state parts and the agg sink store them:
# float ``count`` and bucket columns, then the fill flags — the layout
# earlier versions wrote, so their stores resume unchanged
_AGG_SCHEMA = pa.schema(
    [(n, pa.float64() if n == "count" or n in BUCKET_COLS else t)
     for n, t in AGG_FIELDS])
_ROWS_SCHEMA = pa.schema(list(_AGG_SCHEMA)
                         + [("filled", pa.bool_()), ("stale", pa.bool_())])


def _with_flags(rows: pa.Table) -> pa.Table:
    n = rows.num_rows
    return (rows.append_column("filled", pa.array(np.zeros(n, bool)))
            .append_column("stale", pa.array(np.zeros(n, bool)))
            .cast(_ROWS_SCHEMA))


def _sentinels(n_buckets: int, with_hist: bool) -> pa.Table:
    """One synthetic row per bucket so EVERY bucket's group body runs —
    buckets whose series got no new samples must still carry their
    state forward (the flagship epoch pipeline's sentinel trick)."""
    cols = {
        "bucket": pa.array(np.arange(n_buckets, dtype=np.int32)),
        "series_key": pa.array([""] * n_buckets, type=pa.string()),
        "kind": pa.array(np.full(n_buckets, _SENTINEL_KIND, np.uint8)),
    }
    if with_hist:
        cols["role"] = pa.array([""] * n_buckets, type=pa.string())
        cols["le"] = pa.array(np.full(n_buckets, np.nan),
                              type=pa.float64())
    cols["ts_ms"] = pa.array(np.zeros(n_buckets, np.int64))
    cols["value"] = pa.array(np.zeros(n_buckets, np.float64))
    return pa.table(cols)


def _read_state(state_in_dir: str | None, name: str, bucket_id: int):
    if state_in_dir is None:
        return None
    p = part_path(state_in_dir, bucket_id, name)
    if not fsio.exists(p):
        return None
    t = fsio.read_parquet(p)
    return t if t.num_rows else None


def _latest_per_series(keys: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Per-row maximum of ``vals`` over the row's series (int codes)."""
    mx = np.full(int(keys.max()) + 1 if len(keys) else 0,
                 np.iinfo(np.int64).min)
    np.maximum.at(mx, keys, vals)
    return mx[keys]


def carry_step(samples: pa.Table, refs: pa.Table | None,
               open_rows: pa.Table | None, window_s: int, emit_all: bool):
    """The scrape carry step, shared by the incremental store and the
    streaming normalizer: one batch of parsed samples (series_key, kind,
    ts_ms, value; bucket, role and le as the parser gives them) folded
    into the carried state → ``(emitted, open_rows, refs, n_dropped)``.

    Prepend the carried reference rows, drop samples at or before each
    series' last accepted timestamp (replay absorb; ``n_dropped`` counts
    them), run the batch normalize kernels, fold the carried open
    partials in, and split each series' last window off as still open
    (none with ``emit_all``). ``emitted`` and ``open_rows`` are agg rows
    with fill flags; ``refs`` are every sample of each series' latest
    instant. No I/O."""
    from vertex_ray.schema import KIND_GAUGE
    from vertex_ray.stages.kernel import (
        _UID_CODE_MASK,
        _UID_METRIC_SHIFT,
        factorize,
        keyed_agg,
        keyed_rows,
        merge_keyed,
        take_agg,
    )

    # carried reference rows replay as each series' FIRST instant — the
    # kernels' first-sample/first-instant drop consumes them, so diffs
    # seed from the carried values with zero per-kind seeding code
    combined = (samples if refs is None else
                pa.concat_tables([refs, samples], promote_options="default"))
    code, _ = factorize(combined["series_key"])
    ts = combined["ts_ms"].to_numpy()
    n_dropped = 0
    if refs is not None:
        # replay absorb: drop samples at or before the series' last
        # accepted timestamp (the carried reference rows ARE that one)
        is_ref = np.arange(len(ts)) < refs.num_rows
        keep = is_ref | (ts > _latest_per_series(
            code, np.where(is_ref, ts, np.iinfo(np.int64).min)))
        n_dropped = int(len(keep) - keep.sum())
        combined = combined.filter(pa.array(keep))
        code, ts = code[keep], ts[keep]

    rows = keyed_rows(*_normalize(combined, window_s)).cast(_AGG_SCHEMA)
    if open_rows is not None:
        rows = pa.concat_tables([
            open_rows.select(_AGG_SCHEMA.names).cast(_AGG_SCHEMA), rows])
    agg, series = keyed_agg(rows)
    # gauge merge = replace: of a window's carried open partial and its
    # re-derived row (the reference sample replays into it), the latest
    # ``last_ts`` wins alone — adding them double-counts. This is not a
    # property of the §F4 merge, which adds gauge counts across windows.
    uid, w = agg["uid"], agg["window"]
    last_of = np.ones(len(uid), dtype=bool)
    last_of[:-1] = (uid[1:] != uid[:-1]) | (w[1:] != w[:-1])
    gauge = (uid >> _UID_METRIC_SHIFT) == KIND_GAUGE
    agg = merge_keyed(take_agg(agg, last_of | ~gauge), window_s)

    # split: each series' LAST window stays open (unless finalizing)
    if emit_all:
        open_mask = np.zeros(len(agg["uid"]), dtype=bool)
    else:
        w = agg["window"]
        open_mask = w == _latest_per_series(agg["uid"] & _UID_CODE_MASK, w)
    emit = _with_flags(keyed_rows(take_agg(agg, ~open_mask), series))
    opens = _with_flags(keyed_rows(take_agg(agg, open_mask), series))
    # next references: every row of each series' latest instant
    new_refs = combined.filter(pa.array(ts == _latest_per_series(code, ts)))
    return emit, opens, new_refs, n_dropped


def _bucket_body(g: pa.Table, *, window_s: int, tier: str, n_buckets: int,
                 state_in_dir: str | None, state_parts_dir: str,
                 blocks_parts_dir: str, emit_all: bool) -> pa.Table:
    """One bucket × one run: read the bucket's carried state, run the
    carry step, write its blocks + next state parts, return emitted agg
    rows."""
    from vertex_ray.stages.encode import encode_agg_rows

    bucket_id = int(g["bucket"][0].as_py())
    kinds_col = g["kind"].to_numpy(zero_copy_only=False)
    emit, opens, new_refs, _ = carry_step(
        g.filter(pa.array(kinds_col != _SENTINEL_KIND)),
        _read_state(state_in_dir, "refs", bucket_id),
        _read_state(state_in_dir, "open", bucket_id), window_s, emit_all)
    if emit.num_rows:
        write_part(blocks_parts_dir, bucket_id,
                   lambda: encode_agg_rows(emit, tier=tier))
    write_part(state_parts_dir, bucket_id, lambda: new_refs, "refs")
    write_part(state_parts_dir, bucket_id, lambda: opens, "open")
    return emit


def _stage_paths(edir: str) -> dict[str, str]:
    return {s: posixpath.join(edir, s) for s in ("agg", "blocks", "state")}


def scrape_append(lines_ds, out_dir: str, *, kinds: dict,
                  window_s: int = 60, tier: str = "1m",
                  n_buckets: int = 32,
                  default_ts_ms: int | None = None,
                  _emit_all: bool = False) -> dict:
    """Append one scrape run to the incremental store at ``out_dir``.

    ``kinds`` maps family name → ``counter|gauge|histogram|summary``
    and must stay identical across a store's runs (validated against
    the previous epoch's lineage). Summary families follow the
    first-wins open-window carry (module docstring). Returns this
    epoch's stage manifests."""
    bad = {m: k for m, k in kinds.items() if k not in _KIND_CODE}
    if bad:
        raise ValueError(f"unknown family kinds: {bad}")
    prev = epoch_dirs(out_dir)
    # a killed append: its stage set never committed
    killed = (prev.pop() if prev and committed(_stage_paths(prev[-1])) is None
              else None)
    if prev:
        plin = read_manifest(posixpath.join(prev[-1], "state"))["lineage"]
        if plin.get("finalize"):
            raise ValueError(
                "store is finalized (every open window emitted) — "
                "appending after scrape_finalize would re-emit windows")
        # new families may join mid-stream; an EXISTING family must not
        # change kind (its carried reference rows assume the old one)
        changed = {m: (k0, kinds[m])
                   for m, k0 in (plin.get("kinds") or {}).items()
                   if m in kinds and kinds[m] != k0}
        if changed:
            raise ValueError(
                f"family kind changed across runs: {changed}")
        if (plin.get("window_s"), plin.get("n_buckets")) != (window_s,
                                                             n_buckets):
            raise ValueError("window_s/n_buckets must stay identical "
                             "across a store's runs")
    state_in = posixpath.join(prev[-1], "state") if prev else None
    lines = scan(lines_ds)
    # a driver run knows its input's content, so a rerun over the same
    # lines with the same default_ts_ms reuses the killed run's parts
    # (open_parts compares the lineage); a Dataset's content is unknown
    # until it runs, so its killed epoch is rebuilt whole
    digest = _lines_digest(lines) if isinstance(lines, pa.Table) else None
    if killed is not None and digest is None:
        fsio.rmtree(killed)
    seq = len(prev)
    paths = _stage_paths(posixpath.join(out_dir, f"epoch-{seq}"))
    lineage = {"kinds": dict(sorted(kinds.items())), "tier": tier,
               "window_s": window_s, "n_buckets": n_buckets, "seq": seq,
               "finalize": _emit_all, "block_format": BLOCK_FORMAT,
               "input": digest, "default_ts_ms": default_ts_ms}
    t0 = time.time()
    parse = _scrape_parser(kinds=kinds, n_buckets=n_buckets,
                           default_ts_ms=default_ts_ms)
    sentinels = _sentinels(n_buckets,
                           any(k == "histogram" for k in kinds.values()))
    out = per_group(union([per_batch(lines, parse), sentinels]), group_body(
        open_parts(paths["agg"], lineage), functools.partial(
            _bucket_body, window_s=window_s, tier=tier, n_buckets=n_buckets,
            state_in_dir=state_in,
            state_parts_dir=open_parts(paths["state"], lineage),
            blocks_parts_dir=open_parts(paths["blocks"], lineage),
            emit_all=_emit_all)))
    return seal(out, paths, lineage, t0)


def scrape_finalize(out_dir: str, *, kinds: dict, window_s: int = 60,
                    tier: str = "1m", n_buckets: int = 32) -> dict:
    """Emit every still-open window as a final epoch (end of stream).
    Its input is an in-memory empty Dataset, which the scrape gate
    cannot size, so it runs on Ray."""
    return scrape_append(
        rd.from_arrow(pa.table({"text": pa.array([], type=pa.string())})),
        out_dir, kinds=kinds, window_s=window_s, tier=tier,
        n_buckets=n_buckets, _emit_all=True)


def _lines_digest(lines: pa.Table) -> str:
    """sha256 over the lines' 64-bit pandas hashes
    (``pd.util.hash_array`` of the ``text`` values, in order), whatever
    their chunking."""
    text = lines["text"].to_numpy(zero_copy_only=False)
    return hashlib.sha256(pd.util.hash_array(text).tobytes()).hexdigest()


def read_scrape_epochs(out_dir: str, metric: str | None = None):
    from vertex_ray.pipelines.epoch_pipeline import read_epochs_stage

    return read_epochs_stage(out_dir, "blocks", metric=metric)
