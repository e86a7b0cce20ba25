"""The flagship pipeline: transcripts → 1m/5m/1h/1d Gorilla-compressed
retention tiers (SURVEY.md §3.3).

ONE all-to-all exchange and ONE Ray execution for the whole run:

    read_parquet(transcripts)                     # fragments = input shards
      → map_batches(project_for_rollup_packed)    # one row per conv run;
                                                  # int codes, text never shuffles
      → groupby("bucket").map_groups(             # THE shuffle
            bucket_group: explode runs → bucket kernel over the
            unbounded epoch (kernel_epoch.epoch_kernel): rollup 1m →
            cascade 5m/1h/1d → gap-fill run codes → pack
            → Gorilla-encode + side-write this bucket's blocks part
            → return the sparse tier agg rows)
      → write agg stage (commit protocol)
    blocks stage = the per-bucket side-written parts, sealed with a manifest

``rollup_dataset`` builds this plan for ``run_pipeline`` and for
``vertex stats``. ``bucket_group`` is the one group body of the one-shot
and epoch ingests (pipelines/epoch_pipeline): a one-shot run is the
epoch with nothing carried — no epoch bounds, no state in, no state out.

Everything after the bucket groupby is embarrassingly parallel because the
conversation-hash bucket co-locates every series of a conversation: the
continuous-aggregate cascade (coarser windows of the same series), the
gap-fill walk, and the per-series Gorilla blocks all stay inside the
bucket. The cascade consumes the finer tier's aggregate rows — raw turns
are read exactly once.

``global_end`` (the fill horizon for trailing LOCF/stale decisions) comes
from the transcript parquet column statistics — footer metadata only, no
data read.

The agg and blocks stages commit as one set through state/checkpoint
(``committed`` → ``open_parts`` → ``write_part`` per bucket → ``seal``):
a rerun skips a set committed under the same lineage, and a killed run
resumes reusing its finished per-bucket parts.
"""

from __future__ import annotations

import functools
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd

from vertex_ray.schema import TIERS
from vertex_ray.stages.derive import PROJECT_COLUMNS
from vertex_ray.stages.encode import (
    BLOCK_FORMAT,
    GorillaEncode,
    decode_blocks_batch,
)
from vertex_ray.stages.fill import unpack_series
from vertex_ray.stages.kernel import METRIC_NAMES
from vertex_ray.stages.kernel_epoch import epoch_kernel
from vertex_ray.state.checkpoint import (
    committed,
    open_parts,
    part_path,
    seal,
    stage_files,
    write_part,
)
from vertex_ray.state import fsio

DEFAULT_N_BUCKETS = 64

# One scan task per ~this many compressed input bytes once the input
# outgrows the small-input floor (Ray's own target block size; a read
# task streams its fragments into multiple output blocks split at
# DataContext.target_max_block_size, so per-task BYTES are not a heap
# concern — task COUNT is purely a parallelism/overhead knob).
TARGET_READ_TASK_BYTES = 128 * 2**20

# One reduce bucket per ~this many compressed input bytes once the input
# outgrows DEFAULT_N_BUCKETS (each bucket's group task holds its packed
# per-series arrays in heap, so the reduce width must grow with data).
TARGET_BUCKET_INPUT_BYTES = 512 * 2**20


def session_cpus() -> int:
    """CPUs of the live Ray session (8 when none is up yet)."""
    import ray

    return int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8


def _target_blocks() -> int:
    """Blocks sized to the session: parallelism downstream of a read (and
    of the sort shuffle) is bounded by the input block count, so a
    3-file input must still fan out to ~4 blocks per CPU."""
    return 4 * session_cpus()


def input_bytes(path: str) -> int:
    """Total compressed bytes of the transcript input (file sizes only,
    no data read); 0 when the path cannot be listed (remote glob etc.) so
    callers fall back to the small-input floor."""
    try:
        files = stage_files(path) if os.path.isdir(path) else [path]
        return sum(fsio.file_size(f) for f in files)
    except Exception:
        return 0


def read_num_blocks(path: str, *, nbytes: int | None = None,
                    cpus: int | None = None) -> int:
    """Map-side block count for the flagship scan:
    ``min(4·cpus, max(32, ceil(nbytes / 128 MiB)))``.

    The run-packed projection makes the exchange row-light, so on small
    inputs the map×reduce object matrix (blocks × n_buckets), not data
    volume, sets the cost. 32 blocks measured best at 32 CPUs / 256
    buckets (64 blocks 2.87 s, 48 → 2.04 s, 32 → 1.82 s through-kernel),
    so 32 is the small-input floor. Above it the count grows one task per
    ~128 MiB of input, so a ~100 TB input on a multi-node cluster gets no
    3 TB scan task and no 32-way ceiling on every downstream stage.

    The session's 4-blocks-per-CPU width caps both the floor and the
    growth. Below 8 CPUs that cap is under 32, so a small session does
    not pay for object-store traffic it has no CPUs to overlap:

      1 / 2 / 4 CPUs, any input              → 4 / 8 / 16
      8 or 32 CPUs, ≤ 4 GiB input (sandbox)  → 32 (the measured optimum)
      100 TB on a 256-node × 32-CPU cluster  → 32768 tasks (4/CPU),
        each task streaming its fragments as 128 MB-split output blocks.

    One ingest of a 200k-turn input with 1 Ray CPU (process tree pinned
    to 2 CPUs) measured 8.0–8.5 CPU s at 32 blocks × 64 buckets and
    3.2–3.6 CPU s at 4 × 16 (this rule); both stores hold the same
    Gorilla payload bytes.
    """
    if nbytes is None:
        nbytes = input_bytes(path)
    width = 4 * (session_cpus() if cpus is None else cpus)
    by_bytes = -(-nbytes // TARGET_READ_TASK_BYTES)  # ceil
    return min(width, max(32, by_bytes))


def auto_n_buckets(path: str, *, nbytes: int | None = None,
                   cpus: int | None = None) -> int:
    """Reduce width for THE exchange:
    ``max(min(DEFAULT_N_BUCKETS, 16·cpus), 2·cpus, ceil(nbytes / 512 MiB))``.

    DEFAULT_N_BUCKETS (64) is the width measured best at 32 CPUs. Below
    4 CPUs it is clamped to 16 buckets per CPU, because each bucket is one
    reduce task and one object per scan block, which a small session runs
    one after another. At least 2 buckets per CPU keep the reduce side of
    a wide cluster busy, and one bucket per ~512 MiB of input keeps a
    bucket's packed per-series arrays heap-bounded at 100× data:

      1 / 2 CPUs, ≤ 8 / 16 GiB input  → 16 / 32
      4 to 32 CPUs, sandbox input      → 64
      256 CPUs                         → ≥ 512

    With 1 Ray CPU, 4 scan blocks and a 200k-turn input, one ingest
    measured 3.7–4.7 CPU s at 64 buckets and 3.2–3.6 CPU s at 16. The
    stored blocks do not depend on the width: a series' blocks are the
    same whichever bucket it lands in.
    """
    if cpus is None:
        cpus = session_cpus()
    if nbytes is None:
        nbytes = input_bytes(path)
    by_bytes = -(-nbytes // TARGET_BUCKET_INPUT_BYTES)
    return max(min(DEFAULT_N_BUCKETS, 16 * cpus), 2 * cpus, by_bytes)


def read_transcripts(path: str) -> "rd.Dataset":
    return rd.read_parquet(
        path, columns=PROJECT_COLUMNS,
        override_num_blocks=read_num_blocks(path)
    )


def transcripts_span_s(path: str) -> tuple[int, int]:
    """(min, max) transcript timestamp in epoch seconds, from parquet
    footer statistics only (no data read)."""
    lo = hi = None

    def secs(v):
        return int(v.timestamp()) if hasattr(v, "timestamp") else int(v) // 1_000_000

    for f in stage_files(path) if os.path.isdir(path) else [path]:
        md = pq.ParquetFile(f).metadata
        idx = {md.schema.column(i).name: i for i in range(md.num_columns)}["ts"]
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(idx).statistics
            if st is None or st.min is None:
                continue
            lo = secs(st.min) if lo is None else min(lo, secs(st.min))
            hi = secs(st.max) if hi is None else max(hi, secs(st.max))
    if lo is None:
        raise ValueError(f"no ts statistics in {path}")
    return lo, hi


def transcripts_end_ts(path: str) -> int:
    """Max transcript timestamp in epoch seconds (``transcripts_span_s``)."""
    return transcripts_span_s(path)[1]


def explode_runs(group: pa.Table) -> tuple[int, tuple]:
    """A bucket's rows of the RUN-PACKED projection
    (derive.project_for_rollup_packed) → (bucket id, flat per-turn
    conv_id, turn_idx, role_code, tool_code, ts_us): one np.repeat for
    conv_id, one flatten per list column. An empty run (an epoch's
    per-bucket sentinel) explodes to nothing."""
    import numpy as np

    g = group.combine_chunks()

    def col(name):
        c = g[name]
        return c.chunk(0) if c.num_chunks else pa.array([], c.type)

    # flatten() honors slice offsets — .values would leak the whole
    # underlying child buffer when Ray hands us a sliced block
    counts = pc.list_value_length(col("turn_idx")).to_numpy(
        zero_copy_only=False)
    flat = [col(c).flatten().to_numpy(zero_copy_only=False)
            for c in ("turn_idx", "role_code", "tool_code", "ts_us")]
    conv = np.repeat(col("conv_id").to_numpy(zero_copy_only=False), counts)
    bucket_id = int(g["bucket"][0].as_py()) if g.num_rows else 0
    return bucket_id, (conv, *flat)


def bucket_group(
    group: pa.Table,
    tiers,
    epoch_start_s: int | None,
    epoch_end_s: int | None,
    fill_end_s: int,
    salt: int,
    state_in_dir: str | None,
    state_parts_dir: str | None,
    blocks_parts_dir: str,
) -> pa.Table:
    """THE group body, one bucket × one epoch: read the bucket's carried
    state, run the bucket kernel, side-write its blocks part and its
    next-epoch state part (state/checkpoint.write_part: skip-if-done,
    atomic, encoded only when missing) and return its sparse agg rows
    (one row per stored point + fill_runs/window_seconds, expanded back to
    the dense tier rows by read_stage_files). A one-shot run is the
    unbounded epoch: no epoch bounds, no state in, no state parts dir."""
    bucket_id, cols = explode_runs(group)
    state_in = None
    if state_in_dir is not None:
        p = part_path(state_in_dir, bucket_id)
        if fsio.exists(p):
            state_in = fsio.read_parquet(p)
    packed, state_out = epoch_kernel(*cols, state_in, tiers, epoch_start_s,
                                     epoch_end_s, fill_end_s, bucket_id, salt)
    if packed.num_rows:
        write_part(blocks_parts_dir, bucket_id, lambda: GorillaEncode()(packed))
    if state_parts_dir is not None:
        write_part(state_parts_dir, bucket_id, lambda: state_out)
    return unpack_series(packed, dict_encode=True, sparse_fills=True)


def bucket_kernel_group_packed(group: pa.Table, tiers, global_end_s: int,
                               salt: int) -> pa.Table:
    """The one-shot group body's kernel step alone, with no side-write:
    the bucket's runs, exploded, through the bucket kernel over the
    unbounded epoch (the benchmark's in-process replay and the kernel
    tests call it)."""
    bucket_id, cols = explode_runs(group)
    return epoch_kernel(*cols, None, tiers, None, None, global_end_s,
                        bucket_id, salt)[0]


def rollup_dataset(transcripts_path: str, global_end_s: int, n_buckets: int,
                   blocks_parts_dir: str, salt: int = 1,
                   tiers=TIERS) -> "rd.Dataset":
    """THE flagship plan: scan → run-packed projection → groupby(bucket)
    → ``bucket_group`` over the unbounded epoch, which side-writes each
    bucket's blocks under ``blocks_parts_dir`` and returns its sparse agg
    rows. ``run_pipeline`` writes it as the agg stage; ``vertex stats``
    materializes it for its operator stats."""
    from vertex_ray.stages.derive import project_for_rollup_packed

    projected = read_transcripts(transcripts_path).map_batches(
        functools.partial(project_for_rollup_packed, n_buckets=n_buckets),
        batch_format="pyarrow",
    )
    return projected.groupby("bucket").map_groups(
        functools.partial(
            bucket_group,
            tiers=tiers,
            epoch_start_s=None,
            epoch_end_s=None,
            fill_end_s=global_end_s,
            salt=salt,
            state_in_dir=None,
            state_parts_dir=None,
            blocks_parts_dir=blocks_parts_dir,
        ),
        batch_format="pyarrow",
    )


# The vectorized columnar-v2 decoder is flat in batch size, so size
# batches by OUTPUT volume: each block row explodes to ~n_points rows
# x ~140 B (strings replicated per point). 1024 rows = ~0.4M points =
# ~60 MB per task, well under the object-store block target; 32k rows
# (~2 GB/task) measured 17x slower end-to-end from spill pressure.
DECODE_BATCH_ROWS = 1024


def decode_tier_blocks(blocks: "rd.Dataset") -> "rd.Dataset":
    return blocks.map_batches(
        decode_blocks_batch, batch_format="pyarrow",
        batch_size=DECODE_BATCH_ROWS
    )


def pipeline_paths(out_dir: str) -> dict[str, str]:
    return {
        "packed": os.path.join(out_dir, "packed"),
        "agg": os.path.join(out_dir, "agg"),
        "blocks": os.path.join(out_dir, "blocks"),
    }


def read_stage(out_dir: str, stage: str, tier: str | None = None,
               metric: str | None = None,
               columns: list[str] | None = None) -> "rd.Dataset":
    """Read a committed stage (see read_stage_files)."""
    path = pipeline_paths(out_dir)[stage]
    # 4 blocks/CPU keeps the decode stage busy on small stores; a store
    # whose bytes outgrow that width adds one task per ~128 MiB so no
    # committed-stage scan task balloons at 100× data
    by_bytes = -(-input_bytes(path) // TARGET_READ_TASK_BYTES)
    return read_stage_files(stage_files(path), tier, metric,
                            max(_target_blocks(), by_bytes), columns)


def read_stage_files(files: list[str], tier: str | None = None,
                     metric: str | None = None,
                     num_blocks: int | None = None,
                     columns: list[str] | None = None) -> "rd.Dataset":
    """Committed stage parts → Dataset, the one stage reader of the
    one-shot, epoch and point-read paths. Optional tier / metric-name
    filters are pushed down to the parquet scan (row-group pruning + late
    materialization — non-matching rows never load their heavy
    ``val_blocks`` payload column); ``columns`` (every column when None)
    limits what is read at all. Agg stages are written
    dictionary-encoded and sparse (unpack_series dict_encode /
    sparse_fills); their batches are decoded back to flat strings and
    their LOCF/stale rows rebuilt, so consumers keep seeing the FIXTURES
    §F3 flat contract."""
    kwargs = {} if num_blocks is None else {"override_num_blocks": num_blocks}
    expr = _stage_filter(tier, metric)
    if expr is not None:
        kwargs["filter"] = expr
    if columns is not None:
        kwargs["columns"] = columns
    ds = rd.read_parquet(files, **kwargs)
    schema = ds.schema().base_schema
    if ("fill_runs" in schema.names
            or any(pa.types.is_dictionary(f.type) for f in schema)):
        ds = ds.map_batches(_flat_agg_batch, batch_format="pyarrow")
    return ds


def read_block_table(files: list[str], tier: str | None = None,
                     metric: str | None = None,
                     columns: list[str] | None = None) -> pa.Table:
    """Block-stage parts → one ``pa.Table`` in the calling process, with
    ``read_stage_files``' tier / metric-name pushdown and column
    selection (the read façade's small-read path). Parts are read one by
    one and concatenated with missing columns null, so a store that mixes
    block layouts reads as Ray Data's per-file blocks do."""
    from vertex_ray.schema import BLOCK_SCHEMA

    expr = _stage_filter(tier, metric)
    tables = []
    for f in files:
        fs, path = fsio.fs_path(f)
        tables.append(pq.read_table(path, filesystem=fs, filters=expr,
                                    columns=columns))
    if not tables:
        empty = BLOCK_SCHEMA.empty_table()
        return empty if columns is None else empty.select(columns)
    return pa.concat_tables(tables, promote_options="default")


def _stage_filter(tier: str | None, metric: str | None):
    expr = None
    if tier is not None:
        expr = pc.field("tier") == tier
    if metric is not None:
        e = pc.field("name") == metric
        expr = e if expr is None else expr & e
    return expr


def _flat_agg_batch(t: pa.Table) -> pa.Table:
    from vertex_ray.stages.fill import expand_agg_table

    return expand_agg_table(undict_table(t))


def agg_expanded_rows(out_dir: str) -> int:
    """Logical (dense) tier-point count of a committed agg stage — real
    rows plus virtual LOCF/stale rows — from the ``fill_runs`` column
    alone (no payload read). Dense stores just count rows."""
    import numpy as np
    import pyarrow.dataset as pads

    from vertex_ray.stages.fill import RUN_FILL_MASK, RUN_STALE_SHIFT

    d = pads.dataset(stage_files(pipeline_paths(out_dir)["agg"]))
    if "fill_runs" not in d.schema.names:
        return d.count_rows()
    n = 0
    for b in d.to_batches(columns=["fill_runs"]):
        c = b["fill_runs"].to_numpy(zero_copy_only=False)
        n += len(c) + int((c & RUN_FILL_MASK).astype(np.int64).sum())
        n += int((c >> RUN_STALE_SHIFT).astype(np.int64).sum())
    return n


def undict_table(t: pa.Table) -> pa.Table:
    """Cast any dictionary-encoded column back to its value type."""
    for i, f in enumerate(t.schema):
        if pa.types.is_dictionary(f.type):
            t = t.set_column(i, f.name, t[f.name].cast(f.type.value_type))
    return t


def run_pipeline(
    transcripts_path: str,
    out_dir: str,
    n_buckets: int | None = None,  # None → auto_n_buckets (scale-aware)
    salt: int = 1,
    tiers=TIERS,
) -> dict:
    """Run (or resume) the full tier cascade in ONE Ray execution.

    Outputs: ``agg/`` (flat tier rows, the Dataset sink) and ``blocks/``
    (Gorilla blocks, side-written per bucket inside the group tasks, then
    sealed with a manifest). The two commit as one set (state/checkpoint):
    a set committed under this run's lineage is returned as it is, and
    per-bucket block parts survive a crash and are reused on rerun."""
    if n_buckets is None:
        n_buckets = auto_n_buckets(transcripts_path)
    end = transcripts_end_ts(transcripts_path)
    lineage = {
        "input": transcripts_path,
        "n_buckets": n_buckets,
        "salt": salt,
        "global_end_s": end,
        "tiers": [t for t, _ in tiers],
        # the derived-metric set is part of the output contract: outputs
        # computed by an older engine (different metric list) must never
        # be resumed into
        "metrics": list(METRIC_NAMES),
        "block_format": BLOCK_FORMAT,
    }
    paths = {s: pipeline_paths(out_dir)[s] for s in ("agg", "blocks")}
    manifests = committed(paths, lineage)
    if manifests is not None:
        return manifests
    agg_ds = rollup_dataset(transcripts_path, end, n_buckets,
                            open_parts(paths["blocks"], lineage), salt, tiers)
    return seal(agg_ds, paths, lineage)
