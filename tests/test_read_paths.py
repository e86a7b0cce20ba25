"""The read façade's two executors (vertex_ray/read.py): a read whose
candidate part files are small runs in the driver on one table, a larger
one as a Ray Data execution. Both must return the same rows; the module
constant ``DRIVER_READ_MAX_BYTES`` picks the path, so each test forces a
path by patching it (0: Ray Data for every read that has a part to read;
huge: the driver for every read). The memory guard
``DRIVER_DECODE_MAX_POINTS`` = 0 adds a third path for range reads: the
driver reads and prunes, Ray Data decodes."""

import hashlib
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

import vertex_ray.pipelines.rollup_pipeline as rp
import vertex_ray.read as read
from vertex_ray.promql_lang import eval_promql
from vertex_ray.synth import ensure_transcripts

COLS = ["series_key", "window_start", "count"]
RAY, DRIVER = 0, 2**62


def _subset(path: str, n_convs: int) -> list[str]:
    """Write the turns of the first ``n_convs`` sf0.001 conversations to
    ``path``; returns their ids."""
    t = pq.read_table(ensure_transcripts(0.001,
                                         base="/tmp/vertex_ray_testdata"))
    convs = sorted(set(t["conv_id"].to_pylist()))[:n_convs]
    pq.write_table(t.filter(pc.is_in(t["conv_id"], pa.array(convs))), path)
    return convs


def _bucket(conv_id: str, n_buckets: int) -> int:
    h = hashlib.blake2b(conv_id.encode(), digest_size=8).digest()
    return int.from_bytes(h, "big") % n_buckets


@pytest.fixture(scope="module")
def stores(ray_session, tmp_path_factory):
    from vertex_ray.pipelines.epoch_pipeline import run_pipeline_epochs
    from vertex_ray.pipelines.rollup_pipeline import run_pipeline

    tmp = tmp_path_factory.mktemp("read_paths")
    trans = str(tmp / "transcripts.parquet")
    convs = _subset(trans, 24)
    one, epo = str(tmp / "oneshot"), str(tmp / "epochs")
    run_pipeline(trans, one, n_buckets=4)
    run_pipeline_epochs(trans, epo, epoch_seconds=86_400, n_buckets=4)
    return {"oneshot": one, "epochs": epo, "convs": convs}


def _rows(ds) -> pa.Table:
    parts = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(parts) if parts else pa.table({})


def _digest(t: pa.Table) -> tuple[int, str]:
    """Row count and order-independent digest (rows sorted by every
    column, hashed with their schema as Arrow IPC)."""
    if t.num_rows:
        t = t.sort_by([(n, "ascending") for n in t.schema.names])
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t.combine_chunks())
    return t.num_rows, hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()


def _both_paths(monkeypatch, query) -> tuple:
    """(digest on the Ray Data path, digest on the driver path, number
    of ``rd.read_parquet`` calls on each)."""
    calls = []
    real = rd.read_parquet

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(rd, "read_parquet", counting)
    out = []
    for limit in (RAY, DRIVER):
        monkeypatch.setattr(read, "DRIVER_READ_MAX_BYTES", limit)
        n0 = len(calls)
        out.append((_digest(_rows(query())), len(calls) - n0))
    (ray_d, ray_reads), (drv_d, drv_reads) = out
    return ray_d, drv_d, ray_reads, drv_reads


def _window(store: str, tier: str) -> tuple[int, int]:
    t = _rows(read.query_range(store, tier, metric="turns_total",
                               columns=COLS))
    w = sorted(set(t["window_start"].to_pylist()))
    return w[len(w) // 4], w[3 * len(w) // 4]


def _cases(s):
    one, epo, conv = s["oneshot"], s["epochs"], s["convs"][3]
    lo, hi = _window(one, "1h")
    partial = {"metric": "turns_total", "key_regex": r"role=assistant\}",
               "start": lo, "end": hi, "tiers": ["1h"]}
    full = {"metric": "turns_total", "key_regex": r"role=user\}",
            "start": None, "end": None, "tiers": None}
    qr = read.query_range
    kw = dict(metric="turns_total", columns=COLS)
    return {
        "range": lambda: qr(one, "1h", **kw),
        "range_filled": lambda: qr(one, "1m", include_filled=True, **kw),
        "range_start_end": lambda: qr(one, "1h", start=lo, end=hi, **kw),
        "range_offset": lambda: qr(one, "1h", start=lo, end=hi,
                                   offset=3600, **kw),
        "range_partial_stone": lambda: qr(one, "1h", tombstones=[partial],
                                          **kw),
        "range_full_stone": lambda: qr(one, "1h", tombstones=[full], **kw),
        "range_epochs": lambda: qr(epo, "1h", layout="epochs", **kw),
        "range_all_cols": lambda: qr(one, "1d"),
        "point": lambda: qr(one, "1m", conv_id=conv, **kw),
        "point_filled": lambda: qr(one, "1h", conv_id=conv,
                                   include_filled=True, start=lo, **kw),
        "point_epochs": lambda: qr(epo, "1h", conv_id=conv,
                                   layout="epochs", **kw),
        "instant": lambda: read.instant_query(one, "1h", at=hi,
                                              lookback=6 * 3600, **kw),
        "tsdb_status": lambda: read.tsdb_status(one, "1m"),
        "stitched": lambda: read.query_range_stitched(
            one, "1d", "1h", hi // 86_400 * 86_400, **kw),
        "promql": lambda: eval_promql(
            one, "sum by (role) (increase(turns_total[1h]))"),
        "series_metadata": lambda: read.series_metadata(
            one, "1h", metric="turns_total"),
        "label_values": lambda: read.label_values(one, "1h", "role"),
        "label_cardinality": lambda: read.label_cardinality(
            one, "1h", ["role", "conv_id"]),
        "multi_dedupe": lambda: read.query_range_multi(
            [one, one], "1h", dedupe=True, **kw),
    }


def test_driver_and_ray_paths_return_the_same_rows(stores, monkeypatch):
    for name, query in _cases(stores).items():
        ray_d, drv_d, ray_reads, drv_reads = _both_paths(monkeypatch, query)
        assert ray_d == drv_d, name
        assert ray_d[0] > 0, name  # every case selects rows
        assert ray_reads > 0, name  # 0 forces Ray Data
        assert drv_reads == 0, name  # huge forces the driver


def test_small_point_read_runs_in_the_driver(stores, monkeypatch):
    """Under the default constant a point read of a small store reads
    its part in the driver: no Ray Data read, a materialized result."""
    calls = []
    monkeypatch.setattr(rd, "read_parquet",
                        lambda *a, **k: calls.append(a))
    ds = read.query_range(stores["oneshot"], "1h", metric="turns_total",
                          conv_id=stores["convs"][0], columns=COLS)
    assert calls == []
    assert ds.count() > 0


def test_point_read_of_absent_bucket_reads_no_part(ray_session, tmp_path,
                                                   monkeypatch):
    """A conversation whose bucket file never materialized (more buckets
    than conversations) selects nothing, so no part file is read on
    either path."""
    from vertex_ray.pipelines.rollup_pipeline import run_pipeline
    from vertex_ray.state.checkpoint import read_manifest

    trans = str(tmp_path / "transcripts.parquet")
    _subset(trans, 2)
    out = str(tmp_path / "store")
    run_pipeline(trans, out, n_buckets=64)
    files = read_manifest(os.path.join(out, "blocks"))["files"]
    absent = next(c for c in (f"absent-{i}" for i in range(1000))
                  if f"part-{_bucket(c, 64):05d}.parquet" not in files)
    opened = []
    real_pq = rp.pq.read_table
    monkeypatch.setattr(rp.pq, "read_table",
                        lambda *a, **k: opened.append(a) or real_pq(*a, **k))
    real_rd = rd.read_parquet
    monkeypatch.setattr(rd, "read_parquet",
                        lambda *a, **k: opened.append(a) or real_rd(*a, **k))

    def absent_read() -> int:
        return read.query_range(out, "1h", metric="turns_total",
                                conv_id=absent, columns=COLS).count()

    assert absent_read() == 0
    assert opened == []
    for limit in (RAY, DRIVER):
        monkeypatch.setattr(read, "DRIVER_READ_MAX_BYTES", limit)
        assert absent_read() == 0
    assert opened == []


# the cases of ``_cases`` that decode nothing; every other one reads
# through ``query_range``
METADATA_CASES = ("tsdb_status", "series_metadata", "label_values",
                  "label_cardinality")


def test_driver_read_with_ray_decode_returns_the_same_rows(stores,
                                                           monkeypatch):
    """Memory guard 0 with the read gate huge: every range read is read
    and pruned in the driver and decoded on Ray Data, and returns the
    rows of the other two paths."""
    decodes, reads = [], []
    real_decode = rp.decode_tier_blocks
    monkeypatch.setattr(rp, "decode_tier_blocks",
                        lambda ds: decodes.append(ds) or real_decode(ds))
    real_read = rd.read_parquet

    def counting_read(*args, **kwargs):
        reads.append(args)
        return real_read(*args, **kwargs)

    default = read.DRIVER_DECODE_MAX_POINTS
    for name, query in _cases(stores).items():
        if name in METADATA_CASES:
            continue
        monkeypatch.setattr(rd, "read_parquet", counting_read)
        monkeypatch.setattr(read, "DRIVER_DECODE_MAX_POINTS", default)
        ray_d, drv_d, _, _ = _both_paths(monkeypatch, query)
        monkeypatch.setattr(read, "DRIVER_READ_MAX_BYTES", DRIVER)
        monkeypatch.setattr(read, "DRIVER_DECODE_MAX_POINTS", 0)
        n_decodes, n_reads = len(decodes), len(reads)
        mixed_d = _digest(_rows(query()))
        assert mixed_d == ray_d == drv_d, name
        assert len(decodes) > n_decodes, name  # Ray Data decoded
        assert len(reads) == n_reads, name  # the driver read


# the cases of ``_cases`` that the ``dashboard`` benchmark's scans run
DASHBOARD_SCANS = ("range", "instant", "tsdb_status", "stitched", "promql")


@pytest.fixture(scope="module")
def dashboard_store(ray_session, tmp_path_factory):
    """A one-shot store of every sf0.001 conversation. Its blocks stage
    (about 2.5 MB, like the ``dashboard`` benchmark's) is above 1 MB,
    where a price of read and decode per stage byte sent every scan to
    Ray Data, and below the read gate."""
    from vertex_ray.pipelines.rollup_pipeline import run_pipeline

    out = str(tmp_path_factory.mktemp("dashboard") / "store")
    run_pipeline(ensure_transcripts(0.001, base="/tmp/vertex_ray_testdata"),
                 out, n_buckets=4)
    return out


def test_dashboard_scans_read_in_the_driver(dashboard_store, monkeypatch):
    """Under the default constants the dashboard scans of a store between
    1 MB and the read gate start no Ray Data read."""
    from vertex_ray.state.checkpoint import stage_files

    size = sum(os.path.getsize(f) for f in
               stage_files(os.path.join(dashboard_store, "blocks")))
    assert size > 1_000_000
    cases = _cases({"oneshot": dashboard_store, "epochs": None,
                    "convs": [None] * 4})
    calls = []
    real = rd.read_parquet
    monkeypatch.setattr(rd, "read_parquet",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    for name in DASHBOARD_SCANS:
        assert _rows(cases[name]()).num_rows > 0, name
        assert calls == [], name


def test_metadata_verbs_read_only_index_columns(stores, monkeypatch):
    """series_metadata, label_values and label_cardinality read only the
    block index columns, on both paths."""
    cases = _cases(stores)
    cols = []
    real_pq, real_rd = rp.pq.read_table, rd.read_parquet
    monkeypatch.setattr(rp.pq, "read_table", lambda *a, **k: cols.append(
        k.get("columns")) or real_pq(*a, **k))
    monkeypatch.setattr(rd, "read_parquet", lambda *a, **k: cols.append(
        k.get("columns")) or real_rd(*a, **k))
    for limit in (RAY, DRIVER):
        monkeypatch.setattr(read, "DRIVER_READ_MAX_BYTES", limit)
        for name in ("series_metadata", "label_values", "label_cardinality"):
            assert _rows(cases[name]()).num_rows > 0, name
    assert cols and all(c == ["name", "series_key", "block_start",
                              "block_end"] for c in cols)
