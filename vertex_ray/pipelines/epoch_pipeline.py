"""Epoch-incremental flagship pipeline — unbounded retention.

Batch analogue of the reference's continuous operation: where the
streaming daemon carries per-series state in RAM across ticks
(src/transforms/metricalize.rs:220-262, prometheus_exporter's TTL'd
series map), this pipeline processes the transcript stream one EPOCH at
a time and carries the cross-epoch state in per-bucket parquet parts.
Each epoch run is the one-shot flagship's chain over the executor seam
(stages/executor), on the same two executors (rollup_pipeline.scan picks
one per epoch from the input's bytes and the session's CPUs): a
ts-pruned scan → the run-packed projection
(derive.project_for_rollup_packed, one exchange row per conversation
run) plus one empty sentinel run per bucket → per bucket, the one group
body (rollup_pipeline.bucket_group, here over a bounded epoch), which
writes the bucket's blocks, state and agg parts. In the driver that runs
bucket by bucket with no Ray execution; on Ray it is one execution per
epoch, a bucket groupby whose group tasks write the parts.
Only the carry differs from the one-shot run: a per-bucket state read
at group entry and a state part write at group exit. No group ever
holds more than one epoch of one bucket — the unbounded-retention answer
to the one-shot design's "bucket holds its entire history" scale note.

Layout under ``out_dir``::

    epoch-<start_s>/agg/     flat tier rows for windows inside the epoch
    epoch-<start_s>/blocks/  Gorilla blocks for those windows
    epoch-<start_s>/state/   per-bucket carry state consumed by the NEXT epoch

Each epoch's three stages commit as one set with lineage
(state/checkpoint, the one-shot run's protocol); a killed run resumes at
the first incomplete epoch, reusing finished per-bucket parts inside it,
and epochs committed on one executor are reused by a run on the other.
Sequential epochs reproduce the one-shot output BIT-FOR-BIT
(tests/test_epoch_pipeline.py), so all the flagship's SQL oracles apply
unchanged to the epoched engine.
"""

from __future__ import annotations

import functools
import posixpath
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from vertex_ray.schema import TIERS
from vertex_ray.stages.derive import project_for_rollup_packed
from vertex_ray.stages.encode import BLOCK_FORMAT
from vertex_ray.stages.executor import per_batch, per_group, union
from vertex_ray.stages.kernel import METRIC_NAMES
from vertex_ray.state import fsio
from vertex_ray.state.checkpoint import (
    committed,
    group_body,
    open_parts,
    read_manifest,
    seal,
    stage_done,
    stage_files,
)
from vertex_ray.pipelines.rollup_pipeline import (
    _target_blocks,
    auto_n_buckets,
    bucket_group,
    read_block_table,
    read_stage_files,
    scan,
    transcripts_span_s,
)


def _sentinels(n_buckets: int) -> pa.Table:
    """One EMPTY run per bucket, in the run-packed projection's schema, so
    every bucket's group runs every epoch — idle buckets must still emit
    carried fills/stale markers and re-commit their state. An empty run
    explodes to no turn."""
    n = n_buckets

    def empty(typ):
        return pa.ListArray.from_arrays(np.zeros(n + 1, np.int32),
                                        pa.array([], type=typ))

    return pa.table(
        {
            "bucket": pa.array(np.arange(n, dtype=np.int32)),
            "conv_id": pa.array([""] * n, type=pa.string()),
            "turn_idx": empty(pa.int32()),
            "role_code": empty(pa.uint8()),
            "tool_code": empty(pa.uint8()),
            "ts_us": empty(pa.int64()),
        }
    )


def run_one_epoch(
    transcripts_path: str,
    edir: str,
    epoch_start_s: int,
    epoch_end_s: int,
    fill_end_s: int,
    state_in_dir: str | None,
    lineage: dict,
    n_buckets: int,
    salt: int,
    tiers,
) -> dict[str, dict]:
    """Commit (or reuse) one epoch's stage set."""
    paths = {s: posixpath.join(edir, s) for s in ("agg", "blocks", "state")}
    manifests = committed(paths, lineage)
    if manifests is not None:
        return manifests
    t0 = time.time()
    lo = pa.scalar(epoch_start_s * 1_000_000, type=pa.timestamp("us"))
    hi = pa.scalar(epoch_end_s * 1_000_000, type=pa.timestamp("us"))
    in_epoch = (pc.field("ts") >= lo) & (pc.field("ts") < hi)
    projected = per_batch(scan(transcripts_path, in_epoch), functools.partial(
        project_for_rollup_packed, n_buckets=n_buckets))
    out = per_group(union([projected, _sentinels(n_buckets)]), group_body(
        open_parts(paths["agg"], lineage), functools.partial(
            bucket_group,
            tiers=tiers,
            epoch_start_s=epoch_start_s,
            epoch_end_s=epoch_end_s,
            fill_end_s=fill_end_s,
            salt=salt,
            state_in_dir=state_in_dir,
            state_parts_dir=open_parts(paths["state"], lineage),
            blocks_parts_dir=open_parts(paths["blocks"], lineage),
        )))
    return seal(out, paths, lineage, t0)


def epoch_dirs(out_dir: str) -> list[str]:
    # filter BEFORE sorting: the store root also holds non-epoch entries
    # (tombstones.json after a delete, future sidecars) that must not
    # reach the epoch-number sort key
    if not fsio.exists(out_dir):
        return []
    epochs = [d for d in fsio.listdir(out_dir) if d.startswith("epoch-")]
    return [posixpath.join(out_dir, d)
            for d in sorted(epochs, key=lambda d: int(d.split("-", 1)[1]))]


def committed_n_buckets(out_dir: str) -> int | None:
    """Bucket width in the lineage of the store's first committed epoch;
    None when no epoch has committed yet."""
    for edir in epoch_dirs(out_dir):
        agg = posixpath.join(edir, "agg")
        if stage_done(agg):
            return read_manifest(agg)["lineage"].get("n_buckets")
    return None


def run_pipeline_epochs(
    transcripts_path: str,
    out_dir: str,
    epoch_seconds: int = 86_400,
    n_buckets: int | None = None,
    salt: int = 1,
    tiers=TIERS,
) -> dict[str, dict]:
    """Run (or resume) the flagship as a sequence of epoch increments.

    ``n_buckets=None`` resumes at the width of the store's first committed
    epoch, so a store never changes width partway through its history and
    a session of another size recomputes nothing; a new store gets
    ``auto_n_buckets``."""
    for tier, seconds in tiers:
        if epoch_seconds % seconds:
            raise ValueError(
                f"epoch_seconds={epoch_seconds} must be a multiple of the "
                f"{tier} tier width {seconds}s (windows may not straddle epochs)"
            )
    if n_buckets is None:
        n_buckets = (committed_n_buckets(out_dir)
                     or auto_n_buckets(transcripts_path))
    start_s, end_s = transcripts_span_s(transcripts_path)
    first = start_s // epoch_seconds * epoch_seconds
    starts = list(range(first, end_s + 1, epoch_seconds))
    manifests: dict[str, dict] = {}
    state_dir: str | None = None
    for i, es in enumerate(starts):
        ee = es + epoch_seconds
        fill_end = end_s if i == len(starts) - 1 else ee - 1
        edir = posixpath.join(out_dir, f"epoch-{es}")
        lineage = {
            "input": transcripts_path,
            "n_buckets": n_buckets,
            "salt": salt,
            "tiers": [t for t, _ in tiers],
            "metrics": list(METRIC_NAMES),
            "block_format": BLOCK_FORMAT,
            "epoch_seconds": epoch_seconds,
            "epoch_start_s": es,
            "fill_end_s": fill_end,
            "state_in": state_dir,
        }
        m = run_one_epoch(
            transcripts_path, edir, es, ee, fill_end, state_dir, lineage,
            n_buckets, salt, tiers,
        )
        for stage, manifest in m.items():
            manifests[f"epoch-{es}/{stage}"] = manifest
        state_dir = posixpath.join(edir, "state")
    return manifests


def read_epochs_stage(out_dir: str, stage: str, tier: str | None = None,
                      metric: str | None = None,
                      columns: list[str] | None = None) -> "rd.Dataset":
    """Read one stage across all committed epochs as a single Dataset
    (rollup_pipeline.read_stage_files: tier / metric-name pushdown,
    column selection, flat strings, sparse agg rows expanded)."""
    files: list[str] = []
    for edir in epoch_dirs(out_dir):
        files.extend(stage_files(posixpath.join(edir, stage)))
    if not files:
        # every committed epoch was empty (e.g. ingest of an empty source)
        return rd.from_arrow(read_block_table([], columns=columns))
    return read_stage_files(files, tier, metric, _target_blocks(), columns)
