"""Checkpoint / manifest / lineage for resumable tier outputs.

The reference's durability model — tail-source fingerprint checkpoints
(lib/tail/src/checkpoint.rs:31-190) and end-to-end acks
(lib/finalize/src/finalization.rs) — becomes, for a batch engine, an
output-commit protocol (SURVEY.md §3.4): every stage writes to a temp
directory, is renamed into place atomically, and records a manifest
(per-file row counts + input lineage). A rerun skips any stage whose
manifest validates, so a killed run resumes where it stopped and
retried write tasks can never double-commit into a finalized stage.

The ingests (one-shot, epoch, incremental scrape) commit a stage SET —
one part per bucket in every stage — through four steps, each one
function here:

- ``committed``: the set's manifests when every stage validates under
  the run's lineage; otherwise the set's stage dirs are removed;
- ``open_parts``: a lineage-stamped parts dir per stage, whose parts
  survive a killed run of the same lineage;
- ``write_part``: skip-if-done atomic write of one bucket's part, which
  ``group_body`` wraps around an ingest's bucket body for the set's
  first stage;
- ``seal``: seal every parts dir into place.

The same group body runs on either executor (``stages/executor
.per_group``): bucket by bucket in the driver, or as the group tasks of
one Ray Data execution, which ``seal`` runs. It writes every stage's
part itself, the first stage's last, and skips a bucket whose first
part a killed run left, so a run resumes bucket by bucket on both.
Every manifest records the run's ``wall_seconds`` and ``executor``
(``RUN_KEYS``), which a resume does not compare: a set committed on one
executor is reused by a run on the other.

All paths go through ``state/fsio`` (pyarrow.fs), so stages work on local
disk and on shared-filesystem / object-store URIs alike — on a multi-node
cluster the driver's finalize sees the same store the workers wrote to.
"""

from __future__ import annotations

import functools
import os
import posixpath
import time

import pyarrow as pa

from vertex_ray.state import fsio

MANIFEST = "manifest.json"
SUCCESS = "_SUCCESS"
PARTS = ".__parts__"
LINEAGE_STAMP = "__lineage__.json"
# lineage keys that say how a run went, not what it computed
RUN_KEYS = ("wall_seconds", "executor")


def _footer_rows(paths: list[str]) -> list[int]:
    """Parquet footer row counts, read concurrently — a serial driver-side
    footer loop over hundreds of stage files is a fixed tail that does not
    shrink with cluster size."""
    from concurrent.futures import ThreadPoolExecutor

    if len(paths) <= 2:
        return [fsio.parquet_metadata(p).num_rows for p in paths]
    with ThreadPoolExecutor(max_workers=16) as ex:
        return list(ex.map(lambda p: fsio.parquet_metadata(p).num_rows, paths))


def stage_done(path: str) -> bool:
    """A stage is complete iff its manifest exists and matches the files
    actually present (guards against truncated/partial copies). A
    corrupt or missing manifest or part means "not done"; any other
    error (permissions, I/O) propagates instead of silently forcing a
    recompute."""
    mpath = posixpath.join(path, MANIFEST)
    if not fsio.exists(mpath):
        return False
    try:
        manifest = fsio.read_json(mpath)
        names = sorted(manifest["files"])
        rows = _footer_rows([posixpath.join(path, f) for f in names])
        return all(
            manifest["files"][f]["rows"] == r for f, r in zip(names, rows)
        )
    # ValueError covers json.JSONDecodeError and pyarrow.ArrowInvalid
    except (FileNotFoundError, KeyError, ValueError):
        return False


def finalize_stage(tmp_path: str, final_path: str, lineage: dict | None = None) -> dict:
    """Seal a stage: write manifest into the temp dir, then atomically
    rename it into place. Returns the manifest."""
    from concurrent.futures import ThreadPoolExecutor

    names = [f for f in fsio.listdir(tmp_path) if f.endswith(".parquet")]

    def meta(fname: str):
        fpath = posixpath.join(tmp_path, fname)
        md = fsio.parquet_metadata(fpath)
        # bytes = actual file size (serialized_size is only the parquet
        # FOOTER metadata size — it under-reported stage bytes ~1000x)
        return fname, {"rows": md.num_rows, "bytes": fsio.file_size(fpath)}

    with ThreadPoolExecutor(max_workers=16) as ex:
        files = dict(ex.map(meta, names))
    manifest = {"files": files, "rows": sum(m["rows"] for m in files.values()),
                "lineage": lineage or {}}
    fsio.write_json(posixpath.join(tmp_path, MANIFEST), manifest)
    fsio.write_text(posixpath.join(tmp_path, SUCCESS), "")
    parent = posixpath.dirname(final_path.rstrip("/"))
    if parent:
        fsio.makedirs(parent)
    if fsio.exists(final_path):
        fsio.rmtree(final_path)
    fsio.rename(tmp_path, final_path)
    return manifest


def stage_files(path: str) -> list[str]:
    """Data files of a stage (excludes manifest/_SUCCESS markers)."""
    return [
        posixpath.join(path, f) for f in fsio.listdir(path) if f.endswith(".parquet")
    ]


def read_manifest(path: str) -> dict:
    return fsio.read_json(posixpath.join(path, MANIFEST))


def pipeline_counters(out_dir: str):
    """Per-stage / per-partition counters table — the engine's analogue of
    the reference's internal_metrics source + `vertex top` view
    (src/sources/internal_metrics.rs:35-60, src/top.rs:42-55): one row per
    committed stage file plus a per-stage total row, with rows, bytes and
    the stage's recorded wall time. Reads only manifests (no data files),
    so it is free at any scale."""
    stages, files, rows, bytes_, wall = [], [], [], [], []
    names: list[str] = []
    for entry in sorted(fsio.listdir(out_dir)):
        if fsio.exists(posixpath.join(out_dir, entry, MANIFEST)):
            names.append(entry)
        else:
            # one nesting level: epoch-incremental layout (epoch-<s>/agg …)
            for sub in sorted(fsio.listdir(posixpath.join(out_dir, entry))):
                if fsio.exists(posixpath.join(out_dir, entry, sub, MANIFEST)):
                    names.append(f"{entry}/{sub}")
    for entry in names:
        mpath = posixpath.join(out_dir, entry, MANIFEST)
        manifest = fsio.read_json(mpath)
        w = float(manifest.get("lineage", {}).get("wall_seconds", float("nan")))
        for fname in sorted(manifest["files"]):
            meta = manifest["files"][fname]
            stages.append(entry)
            files.append(fname)
            rows.append(int(meta["rows"]))
            bytes_.append(int(meta["bytes"]))
            wall.append(float("nan"))
        stages.append(entry)
        files.append("__total__")
        rows.append(int(manifest["rows"]))
        bytes_.append(sum(int(m["bytes"]) for m in manifest["files"].values()))
        wall.append(w)
    return pa.table(
        {
            "stage": pa.array(stages, type=pa.string()),
            "file": pa.array(files, type=pa.string()),
            "rows": pa.array(rows, type=pa.int64()),
            "bytes": pa.array(bytes_, type=pa.int64()),
            "wall_seconds": pa.array(wall, type=pa.float64()),
        }
    )


def write_stage(ds, final_path: str, lineage: dict | None = None) -> dict:
    """Write a Dataset to a stage directory with commit semantics.

    If the stage already validates, it is skipped (resume path) and its
    existing manifest returned. Stage wall time is recorded in the
    manifest lineage (per-stage counters, SURVEY.md §3.4)."""
    if stage_done(final_path):
        return read_manifest(final_path)
    tmp = final_path.rstrip("/") + ".__tmp__"
    t0 = time.time()
    fsio.rmtree(tmp)  # never write onto a killed run's files
    ds.write_parquet(tmp)
    # an EMPTY dataset writes zero files and never creates the dir —
    # the stage must still commit (manifest with rows=0)
    fsio.makedirs(tmp)
    lineage = dict(lineage or {})
    lineage["wall_seconds"] = round(time.time() - t0, 3)
    return finalize_stage(tmp, final_path, lineage)


def committed(paths: dict[str, str], lineage: dict | None = None
              ) -> dict[str, dict] | None:
    """The manifests of a stage set whose every stage validates and
    carries ``lineage`` (any lineage when None). Otherwise None, after
    removing the set's stage dirs: a set commits whole, so a run that
    finds it partial or of another lineage rewrites all of it. Parts
    dirs are left to ``open_parts``."""
    if all(stage_done(p) for p in paths.values()):
        manifests = {s: read_manifest(p) for s, p in paths.items()}
        if lineage is None or all(
                {k: v for k, v in m.get("lineage", {}).items()
                 if k not in RUN_KEYS} == lineage
                for m in manifests.values()):
            return manifests
    for p in paths.values():
        if fsio.exists(p):
            fsio.rmtree(p)
    return None


def open_parts(stage_path: str, lineage: dict) -> str:
    """The parts dir of the stage at ``stage_path``, stamped with
    ``lineage``. Parts a killed run left under the same lineage stay for
    reuse; a parts dir of any other lineage is wiped first, so a rerun
    with other input or parameters never commits stale parts."""
    parts = stage_path.rstrip("/") + PARTS
    stamp = posixpath.join(parts, LINEAGE_STAMP)
    if fsio.exists(parts):
        old = fsio.read_json(stamp) if fsio.exists(stamp) else None
        if old != lineage:
            fsio.rmtree(parts)
    fsio.makedirs(parts)
    if not fsio.exists(stamp):
        fsio.write_json(stamp, lineage)
    return parts


def part_path(stage_dir: str, bucket_id: int, prefix: str = "part") -> str:
    """One bucket's part file in a stage (or parts) dir."""
    return posixpath.join(stage_dir, f"{prefix}-{bucket_id:05d}.parquet")


def write_part(parts_dir: str, bucket_id: int, build, prefix: str = "part"
               ) -> int | None:
    """Write one bucket's part unless it is already there, and return its
    rows (None when it was there). ``build()`` makes the table only when
    the part is missing, so a part reused after a killed run is never
    re-encoded. The write is atomic (a temp name per writer, renamed to
    the deterministic final name), so a retried or speculative task is
    idempotent."""
    final = part_path(parts_dir, bucket_id, prefix)
    if fsio.exists(final):
        return None
    table = build()
    fsio.write_parquet_atomic(table, final, str(os.getpid()))
    return table.num_rows


def group_body(parts_dir: str, body):
    """The group body of a stage set. ``body(group)`` writes the bucket's
    parts of every later stage and returns its rows of the first stage,
    which are written with ``write_part`` under ``parts_dir``; a bucket
    whose first-stage part a killed run left runs nothing. Returns one
    ``(bucket, rows)`` row, rows null for a reused part."""
    return functools.partial(_write_group, parts_dir, body)


def _write_group(parts_dir: str, body, group: pa.Table) -> pa.Table:
    bucket_id = group["bucket"][0].as_py() if group.num_rows else 0
    rows = write_part(parts_dir, bucket_id, functools.partial(body, group))
    return pa.table({"bucket": pa.array([bucket_id], pa.int64()),
                     "rows": pa.array([rows], pa.int64())})


def seal(out, paths: dict[str, str], lineage: dict, t0: float
         ) -> dict[str, dict]:
    """Commit a stage set whose run started at ``t0`` (``time.time()``).
    ``out`` is the set's ``group_body`` rows: a Dataset is executed here
    (its group tasks write the parts) and makes the run's executor
    "ray"; a driver table, whose bodies have run, makes it "driver".
    Then each parts dir is sealed into place with ``lineage`` plus the
    run's ``RUN_KEYS``. Returns the set's manifests."""
    import ray.data as rd

    on_ray = isinstance(out, rd.Dataset)
    if on_ray:
        out.materialize()
    run = {**lineage, "wall_seconds": round(time.time() - t0, 3),
           "executor": "ray" if on_ray else "driver"}
    return {s: finalize_stage(p.rstrip("/") + PARTS, p, run)
            for s, p in paths.items()}
