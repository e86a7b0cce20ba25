"""The flagship pipeline: transcripts → 1m/5m/1h/1d Gorilla-compressed
retention tiers (SURVEY.md §3.3).

ONE chain for the whole run, built once over the executor seam
(stages/executor), whose ``scan`` picks the executor from the input's
bytes and the session's CPUs (``ingest_in_driver``):

    scan(transcripts)                             # PROJECT_COLUMNS only
      → per_batch(project_for_rollup_packed)      # one row per conv run;
                                                  # int codes, text never moves
      → per_group, THE exchange, the group body per bucket:
            bucket_group: explode runs → bucket kernel over the
            unbounded epoch (kernel_epoch.epoch_kernel): rollup 1m →
            cascade 5m/1h/1d → gap-fill run codes → pack
            → Gorilla-encode + write this bucket's blocks part
            → its sparse tier agg rows, written as its agg part
      → seal both stages (commit protocol)

``scan`` returns a driver table for a small input in a 1-CPU session
(``read_slice``: ``pq.read_table`` with the same columns), and the chain
then runs bucket by bucket in the calling process with no Ray execution.
Otherwise it returns a ``read_parquet`` Dataset, and the chain is ONE Ray
Data execution whose ``groupby("bucket").map_groups`` tasks run the same
group body. The stored blocks are the same bytes on both.
``bucket_group`` is also the one group body of the epoch ingest
(pipelines/epoch_pipeline): a one-shot run is the epoch with nothing
carried — no epoch bounds, no state in, no state out.

Everything after the bucket split is embarrassingly parallel because the
conversation-hash bucket co-locates every series of a conversation: the
continuous-aggregate cascade (coarser windows of the same series), the
gap-fill walk, and the per-series Gorilla blocks all stay inside the
bucket. The cascade consumes the finer tier's aggregate rows — raw turns
are read exactly once.

``global_end`` (the fill horizon for trailing LOCF/stale decisions) comes
from the transcript parquet column statistics — footer metadata only, no
data read.

The agg and blocks stages commit as one set through state/checkpoint
(``committed`` → ``open_parts`` → ``write_part`` per bucket in the group
body → ``seal``): a rerun skips a set committed under the same lineage,
on either executor, and a killed run resumes bucket by bucket, reusing
its finished per-bucket parts, on either executor.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd

from vertex_ray.schema import TIERS
from vertex_ray.stages.derive import PROJECT_COLUMNS, project_for_rollup_packed
from vertex_ray.stages.encode import (
    BLOCK_FORMAT,
    GorillaEncode,
    decode_blocks_batch,
)
from vertex_ray.stages.executor import per_batch, per_group
from vertex_ray.stages.fill import unpack_series
from vertex_ray.stages.kernel import METRIC_NAMES
from vertex_ray.stages.kernel_epoch import epoch_kernel
from vertex_ray.state.checkpoint import (
    committed,
    group_body,
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

# Ingest gate: in a 1-CPU Ray session, a one-shot run or an epoch whose
# input file(s) hold fewer bytes than this runs in the driver
# (``ingest_in_driver``). The input's size bounds any epoch's slice (a
# row group's statistics cannot size it). At 1 CPU Ray runs the same
# body plus a fixed cost per execution (``scripts/ingest_prices.py``,
# nproc = 1, Ray at 1 CPU, 5.3 MB 200k-turn input: 0.89-1.21 s of
# process-tree CPU per one-shot, 0.79-0.89 s per daily epoch), so the
# driver never costs more CPU and the gate only bounds the driver's peak
# RSS: about 10-11.8 B per input byte above rest (60 MB for the 5.3 MB
# input, 255 MB for a 25.5 MB 1M-turn one), so 48 MB keeps it near
# 512 MiB. The 10M-turn headline input (hundreds of MB) stays on Ray.
# At c > 1 CPUs Ray runs the body c-wide, so the driver wins only while
# its serial CPU for the slice stays under Ray's fixed cost plus that
# CPU over c. That rule is not measured at c > 1, so wider sessions
# keep every ingest on Ray.
DRIVER_INGEST_MAX_BYTES = 48_000_000
# The scrape ingests' gate, from the same 512 MiB budget: exposition
# text costs about 60-76 B of driver peak RSS per input byte (170 MB
# above rest for a 2.35 MB 200k-line parquet, 700 MB for an 11.6 MB
# one; ``scripts/ingest_prices.py --scrape``, nproc = 1), so about 7 MB.
# Ray's fixed cost per ``scrape_to_store`` is positive at 1 CPU (1.54 s
# of process-tree CPU on that 2.35 MB input: 2.93 s on Ray, 1.39 s in
# the driver), so here too the gate only bounds the driver's RSS.
DRIVER_SCRAPE_MAX_BYTES = 7_000_000


def session_cpus() -> int:
    """CPUs of the live Ray session (8 when none is up yet)."""
    import ray

    return int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8


def _target_blocks() -> int:
    """Blocks sized to the session: parallelism downstream of a read (and
    of the sort shuffle) is bounded by the input block count, so a
    3-file input must still fan out to ~4 blocks per CPU."""
    return 4 * session_cpus()


def input_files(path: str) -> list[str]:
    """The transcript input's parquet files: a directory's parts, or the
    one file."""
    return stage_files(path) if os.path.isdir(path) else [path]


def input_bytes(path: str | list[str]) -> int:
    """Total compressed bytes of the transcript input, or of a list of
    files (file sizes only, no data read); 0 when the path cannot be
    listed or a file sized (remote glob etc.) so callers fall back to
    the small-input floor."""
    files = path if isinstance(path, list) else input_files(path)
    try:
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


def ingest_in_driver(nbytes: int, scrape: bool = False) -> bool:
    """Whether an ingest of ``nbytes`` input bytes (``input_bytes``; 0,
    unknown, goes to Ray) runs in the driver rather than as a Ray
    execution: in a 1-CPU session, below ``DRIVER_INGEST_MAX_BYTES``
    (transcripts) or ``DRIVER_SCRAPE_MAX_BYTES`` (exposition lines)."""
    limit = DRIVER_SCRAPE_MAX_BYTES if scrape else DRIVER_INGEST_MAX_BYTES
    return session_cpus() == 1 and 0 < nbytes < limit


def read_transcripts(path: str) -> "rd.Dataset":
    return rd.read_parquet(
        path, columns=PROJECT_COLUMNS,
        override_num_blocks=read_num_blocks(path)
    )


def read_slice(path: str, filters=None) -> pa.Table:
    """The driver executor's scan: ``PROJECT_COLUMNS`` of every input
    file as one table, ``filters`` pushed into the parquet read as Ray
    Data's scan pushes its ``filter``."""
    tables = []
    for f in input_files(path):
        fs, p = fsio.fs_path(f)
        tables.append(pq.read_table(p, filesystem=fs, columns=PROJECT_COLUMNS,
                                    filters=filters))
    return pa.concat_tables(tables)


def scan(src, filters=None):
    """The ingests' one scan, where the executor is picked: ``src`` as
    one driver table when ``ingest_in_driver`` sends its bytes to the
    driver, else as a Dataset. ``src`` is a transcripts path
    (``read_slice`` with ``filters``, or ``read_parquet`` of the same
    columns with ``filters`` pushed into the scan) or an exposition
    lines Dataset, sized by the files ``Dataset.input_files`` names,
    which never executes the plan: a transformed or in-memory Dataset
    names none (0, unknown) and stays a Dataset. The lines table comes
    from the Dataset's own plan, so its read options hold."""
    if isinstance(src, str):
        nbytes = input_bytes(src)
        if ingest_in_driver(nbytes):
            return read_slice(src, filters)
        return rd.read_parquet(
            src, columns=PROJECT_COLUMNS, filter=filters,
            override_num_blocks=read_num_blocks(src, nbytes=nbytes))
    if not ingest_in_driver(input_bytes(src.input_files()), scrape=True):
        return src
    blocks = [b for b in ray.get(src.to_arrow_refs()) if b.num_rows]
    if not blocks:
        return pa.table({"text": pa.array([], type=pa.string())})
    return pa.concat_tables(blocks, promote_options="default")


def transcripts_span_s(path: str) -> tuple[int, int]:
    """(min, max) transcript timestamp in epoch seconds, from parquet
    footer statistics only (no data read)."""
    lo = hi = None

    def secs(v):
        return int(v.timestamp()) if hasattr(v, "timestamp") else int(v) // 1_000_000

    for f in input_files(path):
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
    state, run the bucket kernel, write its blocks part and its
    next-epoch state part (state/checkpoint.write_part: skip-if-done,
    atomic, encoded only when missing) and return its sparse agg rows
    (one row per stored point + fill_runs/window_seconds, expanded back to
    the dense tier rows by read_stage_files), which the ingest's
    ``group_body`` writes as its agg part. A one-shot run is the
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


def rollup_chain(src, global_end_s: int, n_buckets: int,
                 agg_parts_dir: str, blocks_parts_dir: str, salt: int = 1,
                 tiers=TIERS):
    """THE one-shot chain over ``src`` (``scan``'s table or Dataset):
    the run-packed projection, then per bucket ``bucket_group`` over the
    unbounded epoch, which writes the bucket's blocks part and returns
    its agg rows, written as the bucket's agg part (``group_body``).
    Returns the ``(bucket, rows)`` rows for ``seal``; ``vertex stats``
    materializes it over a Dataset for Ray's operator stats."""
    projected = per_batch(src, functools.partial(project_for_rollup_packed,
                                                 n_buckets=n_buckets))
    return per_group(projected, group_body(agg_parts_dir, functools.partial(
        bucket_group,
        tiers=tiers,
        epoch_start_s=None,
        epoch_end_s=None,
        fill_end_s=global_end_s,
        salt=salt,
        state_in_dir=None,
        state_parts_dir=None,
        blocks_parts_dir=blocks_parts_dir,
    )))


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
    """Run (or resume) the full tier cascade: ``bucket_group`` over the
    unbounded epoch, once per bucket.

    Outputs: ``agg/`` (sparse tier rows) and ``blocks/`` (Gorilla
    blocks), one part per bucket, committed as one set
    (state/checkpoint): a set committed under this run's lineage is
    returned as it is, and the per-bucket parts of a killed run are
    reused on rerun. ``scan`` picks the executor: a small input in a
    1-CPU session runs bucket by bucket in the driver, any other as ONE
    Ray execution whose group tasks write the parts. Both store the
    same blocks."""
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
    t0 = time.time()
    return seal(rollup_chain(scan(transcripts_path), end, n_buckets,
                             open_parts(paths["agg"], lineage),
                             open_parts(paths["blocks"], lineage), salt,
                             tiers),
                paths, lineage, t0)
