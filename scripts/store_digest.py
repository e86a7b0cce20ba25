"""Digests of the stores one transcript input builds, for bit-identity
checks between two versions of the engine.

Builds, in a temporary directory, one store per ingest path:

- ``oneshot``: ``run_pipeline`` over ``ensure_transcripts(<sf dir>)``;
- ``epochs``: ``run_pipeline_epochs`` (daily epochs) over the same input;
- ``scrape_incremental``: the ``scrape_incremental_1m_events`` oracle
  fixture's store — ``<sf dir>/events.parquet`` as cumulative counter
  exposition text, appended in three ``scrape_append`` runs (8 buckets)
  plus ``scrape_finalize``; each run's lines are written to a parquet
  file and read back with ``rd.read_parquet``, an input the scrape gate
  can size;

and each store once more on each ingest executor, the gates
(``rollup_pipeline.ingest_in_driver``) patched to force it:
``oneshot@ray``, ``oneshot@driver``, ``epochs@ray``, ``epochs@driver``,
``scrape_incremental@ray``, ``scrape_incremental@driver``. At 1 CPU the
gates send every sf input to the driver, so the forced Ray stores keep
the Ray executor under the digest. ``scrape_finalize`` has no input to
size and runs on Ray in every scrape store.

Then prints one JSON line:

- ``parts``: the sha256 of every ``blocks/`` part file of every store,
  keyed by its path under the store;
- ``rows``: one row-order-independent digest per store — its block rows
  sorted by (tier, series_key, block_start), plus each epoch's state
  rows: for the epoch store sorted by (stype, conv_id, metric, sub,
  tier, window), for the scrape store its ``refs`` and ``open`` parts
  each sorted by every column.

Byte-equal parts show an unchanged writer; equal ``rows`` digests show
the same stored content when only row order may differ. Equal
``rows`` for ``oneshot@ray`` and ``oneshot@driver`` (and for the epoch
and scrape pairs) show that the executors store the same content.

    python scripts/store_digest.py <sf dir>

Run it from any directory; it starts and stops its own local Ray
session with ``num_cpus=1``. The stores take the engine's
``auto_n_buckets`` width, which follows the session's CPU count, so the
fixed CPU count keeps the width, and the digests, comparable between
machines.
"""

import argparse
import contextlib
import hashlib
import json
import os
import posixpath
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

import numpy as np  # noqa: E402
import pyarrow as pa  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402

BLOCK_KEYS = ("tier", "series_key", "block_start")
STATE_KEYS = ("stype", "conv_id", "metric", "sub", "tier", "window")


def file_sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def table_digest(t: pa.Table, keys=None) -> str:
    """sha256 of ``t`` sorted by ``keys`` (every column when None);
    refuses a table whose keys are not unique, since its digest would
    depend on row order — unless the keys are every column, where rows
    equal on them are identical."""
    keys = t.column_names if keys is None else keys
    t = t.sort_by([(k, "ascending") for k in keys])
    key_rows = list(zip(*(t[k].to_pylist() for k in keys)))
    if len(set(key_rows)) != len(key_rows) and len(keys) < t.num_columns:
        raise ValueError(f"rows are not unique by {keys}")
    h = hashlib.sha256()
    for name in t.column_names:
        col = t[name].combine_chunks()
        h.update(f"{name}:{col.type}".encode())
        if pa.types.is_integer(col.type) or pa.types.is_floating(col.type):
            if col.null_count:
                # e.g. ``le`` of a non-histogram row in a scrape's refs
                h.update(col.is_null().to_numpy(
                    zero_copy_only=False).tobytes())
                col = col.fill_null(0)
            # raw bytes keep NaN payloads (stale markers) apart
            h.update(np.ascontiguousarray(col.to_numpy()).tobytes())
        else:
            h.update(repr(col.to_pylist()).encode())
    return h.hexdigest()


def read_parts(files: list[str]) -> pa.Table:
    return pa.concat_tables([pq.read_table(f) for f in files],
                            promote_options="default")


def store_digests(root: str, stage_dirs: list[str], state_dirs: list[str],
                  state_keys):
    """``state_keys`` maps a state part's file-name prefix to its sort
    keys (None: every column)."""
    from vertex_ray.state.checkpoint import stage_files

    parts, blocks = {}, []
    for d in stage_dirs:
        for f in sorted(stage_files(d)):
            parts[os.path.relpath(f, root)] = file_sha256(f)
            blocks.append(f)
    h = hashlib.sha256(table_digest(read_parts(blocks), BLOCK_KEYS).encode())
    for d in state_dirs:
        for prefix, keys in state_keys.items():
            files = [f for f in stage_files(d)
                     if os.path.basename(f).startswith(prefix + "-")]
            h.update(table_digest(read_parts(files), keys).encode())
    return parts, h.hexdigest()


@contextlib.contextmanager
def forced(executor: str):
    """Every ingest inside runs on ``executor`` ("ray" or "driver")."""
    import vertex_ray.pipelines.rollup_pipeline as rp

    gates = ("DRIVER_INGEST_MAX_BYTES", "DRIVER_SCRAPE_MAX_BYTES")
    saved = {g: getattr(rp, g, None) for g in gates}
    for g in gates:
        setattr(rp, g, {"ray": 0, "driver": 2**62}[executor])
    try:
        yield
    finally:
        for g, v in saved.items():
            setattr(rp, g, v)


def write_scrape_runs(sf_dir: str, runs_dir: str) -> list[str]:
    """The ``scrape_incremental_1m_events`` fixture's three runs of
    exposition lines, one parquet file each under ``runs_dir``."""
    import pyarrow.compute as pc
    import ray

    from vertex_ray.pipelines.op_queries import _ev, _scrape_counter_lines

    def to_lines_runs(g):
        lines = _scrape_counter_lines(g)
        lines["run"] = (np.arange(len(lines)) * 3) // max(len(lines), 1)
        return lines

    ds = _ev(sf_dir).groupby("event_type").map_groups(
        to_lines_runs, batch_format="pandas")
    lines = pa.concat_tables(
        [b for b in ray.get(ds.to_arrow_refs()) if b.num_rows])
    os.makedirs(runs_dir)
    paths = []
    for r in range(3):
        paths.append(os.path.join(runs_dir, f"run-{r}.parquet"))
        pq.write_table(lines.filter(pc.equal(lines["run"], r))
                       .select(["text"]), paths[-1])
    return paths


def build_scrape_incremental(runs: list[str], out: str) -> None:
    """The ``scrape_incremental_1m_events`` fixture's store at ``out``,
    from ``write_scrape_runs``' files."""
    import ray.data as rd

    from vertex_ray.pipelines.scrape_incremental import (
        scrape_append,
        scrape_finalize,
    )

    kinds = {"events_total": "counter"}
    for run in runs:
        scrape_append(rd.read_parquet(run), out, kinds=kinds, window_s=60,
                      tier="1m", n_buckets=8)
    scrape_finalize(out, kinds=kinds, window_s=60, tier="1m", n_buckets=8)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sf_dir", help="scale-factor directory, e.g. .../sf0.001")
    args = ap.parse_args()

    import ray

    # Ray workers import vertex_ray from the driver's working directory
    os.chdir(REPO)
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from vertex_ray.pipelines.epoch_pipeline import epoch_dirs, run_pipeline_epochs
    from vertex_ray.pipelines.rollup_pipeline import run_pipeline
    from vertex_ray.synth import ensure_transcripts

    trans = ensure_transcripts(args.sf_dir)
    out = {"input": os.path.basename(os.path.normpath(args.sf_dir)),
           "parts": {}, "rows": {}}
    try:
        with tempfile.TemporaryDirectory(prefix="store_digest_") as tmp:
            stores, epoch_stores = [], []
            runs = write_scrape_runs(args.sf_dir, os.path.join(tmp, "runs"))
            for suffix, gate in (("", contextlib.nullcontext()),
                                 ("@ray", forced("ray")),
                                 ("@driver", forced("driver"))):
                one = os.path.join(tmp, "oneshot" + suffix)
                epo = os.path.join(tmp, "epochs" + suffix)
                scr = os.path.join(tmp, "scrape_incremental" + suffix)
                with gate:
                    run_pipeline(trans, one)
                    run_pipeline_epochs(trans, epo, epoch_seconds=86_400)
                    build_scrape_incremental(runs, scr)
                stores.append(("oneshot" + suffix, one,
                               [posixpath.join(one, "blocks")], [], {}))
                epoch_stores += [
                    ("epochs" + suffix, epo, {"part": STATE_KEYS}),
                    ("scrape_incremental" + suffix, scr,
                     {"refs": None, "open": None})]
            for name, root, keys in epoch_stores:
                edirs = epoch_dirs(root)
                stores.append((name, root,
                               [posixpath.join(e, "blocks") for e in edirs],
                               [posixpath.join(e, "state") for e in edirs],
                               keys))
            for name, root, blocks, states, keys in stores:
                parts, digest = store_digests(root, blocks, states, keys)
                out["parts"].update({f"{name}/{k}": v for k, v in parts.items()})
                out["rows"][name] = digest
    finally:
        ray.shutdown()
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
