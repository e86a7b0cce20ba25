"""In-process replay of the engine's layers, one public call per span.

The ingests run inside Ray tasks, where the benchmark cannot open spans.
The traced run therefore replays, in this process and over the same
input, the calls its workload's operation makes, timing each layer's
public function from outside. A span is named after its layer; its self
time is reported as the per-layer metric ``<span>_s``.

    span                    oneshot (rollup_pipeline.fused_bucket_group)   append (epoch_pipeline.epoch_bucket_group)
    derive.project          derive.project_for_rollup_packed               derive.project_for_rollup_fast
    kernel.bucket           rollup_pipeline.bucket_kernel_group_packed     kernel_epoch.epoch_kernel
    encode.gorilla          encode.GorillaEncode                           encode.GorillaEncode
    fsio.io                 fsio.write_parquet_atomic                      fsio.write_parquet_atomic, fsio.read_parquet (state)
    fill.unpack             fill.unpack_series(sparse_fills=True)          fill.unpack_series (dense fills)
    checkpoint.finalize     checkpoint.finalize_stage                      checkpoint.finalize_stage (blocks, state)

    retention.pass          retention.retention_pass (oneshot)
    encode.decode           encode.decode_blocks_batch (dashboard)
    prometheus_text.decode  prometheus_text.decode_prometheus_samples (scrape)
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from vertex_ray.pipelines.epoch_pipeline import transcripts_span_s
from vertex_ray.pipelines.rollup_pipeline import (
    DEFAULT_N_BUCKETS,
    auto_n_buckets,
    bucket_kernel_group_packed,
    transcripts_end_ts,
)
from vertex_ray.schema import TIER_SECONDS, TIERS
from vertex_ray.sources.prometheus_text import decode_prometheus_samples
from vertex_ray.stages.derive import (
    PROJECT_COLUMNS,
    project_for_rollup_fast,
    project_for_rollup_packed,
)
from vertex_ray.stages.encode import GorillaEncode, decode_blocks_batch
from vertex_ray.stages.fill import RUN_FILL_MASK, RUN_STALE_SHIFT, unpack_series
from vertex_ray.stages.kernel_epoch import epoch_kernel
from vertex_ray.stages.retention import retention_cutoffs, retention_pass
from vertex_ray.state import fsio
from vertex_ray.state.checkpoint import finalize_stage

from perfbench.inputs import block_payload

# the layers an ingest (one-shot or epoch run) executes, in the order they run
WRITE_LAYERS = ("derive.project", "kernel.bucket", "encode.gorilla",
                "fsio.io", "fill.unpack", "checkpoint.finalize")
RETENTION_HORIZONS = {"1m": 86_400, "5m": 86_400}
EPOCH_SECONDS = 86_400
DECODE_BATCH_ROWS = 1024  # rollup_pipeline.decode_tier_blocks' batch size


def by_bucket(projected: pa.Table) -> dict[int, pa.Table]:
    """The exchange: each bucket's rows together (Ray's groupby sorts)."""
    projected = projected.take(pc.sort_indices(projected["bucket"]))
    bucket = projected["bucket"].to_numpy()
    cuts = np.flatnonzero(np.diff(bucket)) + 1
    bounds = np.concatenate([[0], cuts, [len(bucket)]]).astype(int)
    return {int(bucket[lo]): projected.slice(lo, hi - lo)
            for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo}


def fill_rows(agg: pa.Table) -> int:
    """Dense LOCF/stale rows among flat tier rows."""
    return int(pc.sum(pc.or_(agg["filled"], agg["stale"])).as_py() or 0) if agg.num_rows else 0


def write_part(table: pa.Table, parts: str, bucket: int, tr) -> None:
    with tr.span("fsio.io"):
        fsio.write_parquet_atomic(
            table, os.path.join(parts, f"part-{bucket:05d}.parquet"), token="0")


def replay_ingest(trans_dir: str, out_dir: str, tr) -> tuple[pa.Table, dict]:
    """The one-shot bucket body over ``trans_dir``, writing the blocks
    stage under ``out_dir``. Returns (block rows, layer counts)."""
    n_buckets = auto_n_buckets(trans_dir)
    end = transcripts_end_ts(trans_dir)
    table = pq.read_table(trans_dir, columns=PROJECT_COLUMNS)
    with tr.span("derive.project"):
        projected = project_for_rollup_packed(table, n_buckets=n_buckets)
    parts = os.path.join(out_dir, "blocks.__parts__")
    fsio.makedirs(parts)
    enc_all, n_real, n_fill, agg_rows = [], 0, 0, 0
    for b, group in by_bucket(projected).items():
        with tr.span("kernel.bucket"):
            packed = bucket_kernel_group_packed(group, TIERS, end, 1)
        if not packed.num_rows:
            continue
        codes = pc.list_flatten(packed["runs"]).to_numpy().astype(np.uint16)
        n_real += len(codes)
        n_fill += int((codes & RUN_FILL_MASK).astype(np.int64).sum()
                      + (codes >> RUN_STALE_SHIFT).astype(np.int64).sum())
        with tr.span("encode.gorilla"):
            enc = GorillaEncode()(packed)
        write_part(enc, parts, b, tr)
        with tr.span("fill.unpack"):
            agg = unpack_series(packed, dict_encode=True, sparse_fills=True)
        agg_rows += agg.num_rows
        enc_all.append(enc)
    with tr.span("checkpoint.finalize"):
        manifest = finalize_stage(parts, os.path.join(out_dir, "blocks"),
                                  {"n_buckets": n_buckets})
    blocks = pa.concat_tables(enc_all)
    payload, points = block_payload(blocks)
    counts = {
        "derive.rows_in": table.num_rows,
        "derive.rows_out": projected.num_rows,
        "kernel.points_real": n_real,
        "kernel.points_fill": n_fill,
        "encode.points": points,
        "encode.bytes": payload,
        "fill.agg_rows": agg_rows,
        "fsio.bytes_written": sum(f["bytes"] for f in manifest["files"].values()),
    }
    return blocks, counts


def replay_epochs(trans_dir: str, out_dir: str, tr) -> dict:
    """``run_pipeline_epochs(epoch_seconds=EPOCH_SECONDS)``'s bucket body
    over ``trans_dir``, epoch by epoch, every bucket in every epoch, with
    the carried state written and read back as parquet parts. Returns
    the layer counts."""
    n_buckets = DEFAULT_N_BUCKETS
    start_s, end_s = transcripts_span_s(trans_dir)
    starts = range(start_s // EPOCH_SECONDS * EPOCH_SECONDS, end_s + 1, EPOCH_SECONDS)
    table = pq.read_table(trans_dir, columns=PROJECT_COLUMNS)
    ts_us = table["ts"].cast(pa.int64())
    c = dict.fromkeys(("derive.rows_in", "derive.rows_out", "kernel.points_real",
                       "kernel.points_fill", "encode.points", "encode.bytes",
                       "fill.agg_rows", "fsio.bytes_written"), 0)
    state_dir = None
    for i, es in enumerate(starts):
        ee = es + EPOCH_SECONDS
        fill_end = end_s if i == len(starts) - 1 else ee - 1
        part = table.filter(pc.and_(pc.greater_equal(ts_us, es * 1_000_000),
                                    pc.less(ts_us, ee * 1_000_000)))
        with tr.span("derive.project"):
            projected = project_for_rollup_fast(part, n_buckets=n_buckets)
        c["derive.rows_in"] += part.num_rows
        c["derive.rows_out"] += projected.num_rows
        groups = by_bucket(projected)
        edir = os.path.join(out_dir, f"epoch-{es}")
        blocks_parts = os.path.join(edir, "blocks.__parts__")
        state_parts = os.path.join(edir, "state.__parts__")
        fsio.makedirs(blocks_parts)
        fsio.makedirs(state_parts)
        for b in range(n_buckets):
            g = groups.get(b, projected.slice(0, 0))
            state_in = None
            if state_dir is not None:
                with tr.span("fsio.io"):
                    state_in = fsio.read_parquet(
                        os.path.join(state_dir, f"part-{b:05d}.parquet"))
            with tr.span("kernel.bucket"):
                packed, state_out = epoch_kernel(
                    g["conv_id"].to_numpy(zero_copy_only=False),
                    g["turn_idx"].to_numpy(zero_copy_only=False),
                    g["role_code"].to_numpy(zero_copy_only=False),
                    g["tool_code"].to_numpy(zero_copy_only=False),
                    g["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False),
                    state_in, TIERS, es, ee, fill_end, b, 1)
            if packed.num_rows:
                with tr.span("encode.gorilla"):
                    enc = GorillaEncode()(packed)
                payload, points = block_payload(enc)
                c["encode.bytes"] += payload
                c["encode.points"] += points
                write_part(enc, blocks_parts, b, tr)
            write_part(state_out, state_parts, b, tr)
            with tr.span("fill.unpack"):
                agg = unpack_series(packed, dict_encode=True)
            fills = fill_rows(agg)
            c["kernel.points_real"] += agg.num_rows - fills
            c["kernel.points_fill"] += fills
            c["fill.agg_rows"] += agg.num_rows
        with tr.span("checkpoint.finalize"):
            for parts, stage in ((blocks_parts, "blocks"), (state_parts, "state")):
                m = finalize_stage(parts, os.path.join(edir, stage), {"epoch_start_s": es})
                c["fsio.bytes_written"] += sum(f["bytes"] for f in m["files"].values())
        state_dir = os.path.join(edir, "state")
    return c


def replay_retention(blocks: pa.Table, now_s: int, tr) -> int:
    """The retention GC's per-batch pass over every block row; returns
    how many rows straddle a cutoff (decoded, truncated, re-encoded)."""
    cutoffs = retention_cutoffs(RETENTION_HORIZONS, now_s, dict(TIER_SECONDS))
    cut = np.full(blocks.num_rows, np.iinfo(np.int64).min)
    tiers = blocks["tier"].to_numpy(zero_copy_only=False)
    for tier, c in cutoffs.items():
        cut[tiers == tier] = c
    start = blocks["block_start"].to_numpy()
    end = blocks["block_end"].to_numpy()
    straddle = int(((end >= cut) & (start < cut)).sum())
    with tr.span("retention.pass"):
        retention_pass(blocks, cutoffs)
    return straddle


def replay_decode(blocks: pa.Table, tr) -> int:
    """Decode block rows in the read path's batch size; returns rows out."""
    rows = 0
    with tr.span("encode.decode"):
        for lo in range(0, blocks.num_rows, DECODE_BATCH_ROWS):
            rows += decode_blocks_batch(blocks.slice(lo, DECODE_BATCH_ROWS)).num_rows
    return rows


def replay_scrape_parse(lines: pa.Table, tr) -> int:
    with tr.span("prometheus_text.decode"):
        return decode_prometheus_samples(lines).num_rows
