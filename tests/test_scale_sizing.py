"""Sizing of the flagship scan and reduce width from input bytes and CPUs.

Scan blocks are ``min(4·cpus, max(32, ceil(nbytes / 128 MiB)))`` and
reduce buckets ``max(min(64, 16·cpus), 2·cpus, ceil(nbytes / 512 MiB))``.
The floors of 32 blocks and 64 buckets were measured at 32 CPUs; at 8 or
more CPUs a sandbox input keeps exactly that plan, while a 100 TB input
on a wide cluster fans out to 4 blocks and ≥2 buckets per CPU. Below 8
CPUs the session width clamps the floors: 1 / 2 / 4 CPUs give 4 / 8 / 16
blocks and 16 / 32 / 64 buckets.

One ingest of a 200k-turn input with 1 Ray CPU (process tree pinned to
2 CPUs), in CPU seconds per run:

    32 blocks × 64 buckets (the unclamped floors)  8.0–8.5
     4 blocks × 64 buckets                         3.7–4.7
     4 blocks × 16 buckets (the clamped rule)      3.2–3.6

The stores hold the same Gorilla payload at every width
(tests/test_pipeline_e2e.py).
"""

import pytest

import pyarrow as pa
import pyarrow.parquet as pq

from vertex_ray.pipelines.rollup_pipeline import (
    DEFAULT_N_BUCKETS,
    TARGET_READ_TASK_BYTES,
    auto_n_buckets,
    input_bytes,
    read_num_blocks,
)

GiB = 2**30
TiB = 2**40


def test_small_input_keeps_measured_floor():
    # every sandbox fixture (253 MB sf0.1 … 2.5 GB sf1) stays at the
    # measured 32-block optimum at both 8 and 32 CPUs — the r4 scaling
    # evidence (0.867/0.936 sf1 8→32) survives this change by construction
    for nbytes in (253 * 2**20, 1 * GiB, int(2.5 * GiB)):
        for cpus in (8, 32):
            assert read_num_blocks("x", nbytes=nbytes, cpus=cpus) == 32


def test_blocks_grow_with_input_bytes():
    at = lambda nb: read_num_blocks("x", nbytes=nb, cpus=32)
    assert at(10 * GiB) == 80  # 10 GiB / 128 MiB
    assert at(16 * GiB) == 128  # hits the 4-blocks/CPU ceiling at 32 CPUs
    assert at(100 * TiB) == 128
    # monotone non-decreasing in bytes
    sizes = [1 * GiB, 4 * GiB, 10 * GiB, 100 * GiB, 1 * TiB, 100 * TiB]
    vals = [at(s) for s in sizes]
    assert vals == sorted(vals)


def test_blocks_grow_with_cluster_width():
    # 100 TB: 32 CPUs → 128 tasks; a 256-node × 32-CPU cluster → 32768
    # tasks (4/CPU), each streaming its fragments as target_max_block_size
    # output blocks — no 3 TB-per-task scan, no 32-way downstream ceiling
    assert read_num_blocks("x", nbytes=100 * TiB, cpus=32) == 128
    assert read_num_blocks("x", nbytes=100 * TiB, cpus=256) == 1024
    assert read_num_blocks("x", nbytes=100 * TiB, cpus=256 * 32) == 32768
    # ... but a tiny input on a huge cluster does NOT shatter into dust
    assert read_num_blocks("x", nbytes=64 * 2**20, cpus=256 * 32) == 32


def test_auto_n_buckets_floor_and_growth():
    # sandbox: the measured 64-bucket default at ≤32 CPUs
    assert auto_n_buckets("x", nbytes=253 * 2**20, cpus=4) == DEFAULT_N_BUCKETS
    assert auto_n_buckets("x", nbytes=int(2.5 * GiB), cpus=32) == DEFAULT_N_BUCKETS
    # reduce width grows with cluster width (≥2 buckets/CPU)...
    assert auto_n_buckets("x", nbytes=1 * GiB, cpus=256) == 512
    # ...and with input bytes (one bucket per ~512 MiB keeps each group
    # task's packed per-series arrays heap-bounded at 100× data)
    assert auto_n_buckets("x", nbytes=1 * TiB, cpus=32) == 2048
    assert auto_n_buckets("x", nbytes=100 * TiB, cpus=256 * 32) == 204800


@pytest.mark.parametrize("cpus, blocks, buckets", [
    (1, 4, 16), (2, 8, 32), (4, 16, 64),
])
def test_small_session_clamps_floors(cpus, blocks, buckets):
    # below 8 CPUs the session width caps the measured 32-CPU floors, for
    # sandbox inputs and for inputs far past them alike
    for nbytes in (253 * 2**20, int(2.5 * GiB)):
        assert read_num_blocks("x", nbytes=nbytes, cpus=cpus) == blocks
        assert auto_n_buckets("x", nbytes=nbytes, cpus=cpus) == buckets
    assert read_num_blocks("x", nbytes=100 * TiB, cpus=cpus) == blocks


def test_input_bytes_file_and_dir(tmp_path):
    t = pa.table({"a": list(range(1000))})
    f1 = tmp_path / "part-0.parquet"
    pq.write_table(t, f1)
    assert input_bytes(str(f1)) == f1.stat().st_size
    pq.write_table(t, tmp_path / "part-1.parquet")
    # directory: sums .parquet data files
    total = sum(p.stat().st_size for p in tmp_path.glob("*.parquet"))
    assert input_bytes(str(tmp_path)) == total
    # unreadable path → 0 → callers land on the small-input floor
    assert input_bytes(str(tmp_path / "missing")) == 0
    assert read_num_blocks(str(tmp_path / "missing"), cpus=32) == 32


def test_read_task_target_is_rays_block_size():
    assert TARGET_READ_TASK_BYTES == 128 * 2**20


def test_read_stage_blocks_grow_with_store_bytes(tmp_path, monkeypatch):
    """Committed-stage reads keep the 4-blocks/CPU floor locally but add
    one task per ~128 MiB once the store outgrows it."""
    import vertex_ray.pipelines.rollup_pipeline as rp

    monkeypatch.setattr(rp, "_target_blocks", lambda: 128)
    monkeypatch.setattr(rp, "input_bytes", lambda p: 253 * 2**20)
    captured = {}

    def fake_read(files, **kwargs):
        captured.update(kwargs)
        raise RuntimeError("stop")

    monkeypatch.setattr(rp, "stage_files", lambda p: ["f"])
    monkeypatch.setattr(rp.rd, "read_parquet", fake_read)
    with pytest.raises(RuntimeError):
        rp.read_stage(str(tmp_path), "agg")
    assert captured["override_num_blocks"] == 128  # small store: floor
    monkeypatch.setattr(rp, "input_bytes", lambda p: 100 * TiB)
    with pytest.raises(RuntimeError):
        rp.read_stage(str(tmp_path), "agg")
    assert captured["override_num_blocks"] == -(-100 * TiB // (128 * 2**20))
