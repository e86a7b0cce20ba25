"""The scrape ingests on their two executors: exposition lines whose
files the ingest gate can size (``scrape_pipeline.driver_lines``: a bare
``rd.read_parquet``) run in the driver in a 1-CPU session, anything
else as a Ray execution. Both executors store the same blocks, raise
the same errors and, for the incremental ingest, commit the same
epochs. Each test forces a path with the ``force_ingest`` fixture
(conftest), which patches the gates."""

import os
import re
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

import vertex_ray.pipelines.rollup_pipeline as rp
import vertex_ray.pipelines.scrape_incremental as si
import vertex_ray.pipelines.scrape_pipeline as sp
import vertex_ray.stages.executor as executor
from vertex_ray.pipelines.epoch_pipeline import epoch_dirs
from vertex_ray.schema import DEFAULT_BUCKETS
from vertex_ray.state.checkpoint import read_manifest, stage_done

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts"))
import store_digest  # noqa: E402

EXECUTORS = ("ray", "driver")
N_BUCKETS = 4
KINDS = {"req_total": "counter", "temp": "gauge", "lat": "summary",
         "rt": "histogram"}


def _stream(seed: int = 7, n: int = 40) -> list[str]:
    """Exposition lines of every kind, sorted by timestamp: six counter
    series (one with a reset), three gauges, a two-quantile summary with
    its _sum/_count, and a histogram on the store's bucket layout."""
    rng = np.random.default_rng(seed)
    rows = []
    for j in range(6):
        cum = 0
        for i in range(n):
            cum = 3 if (j == 0 and i == n // 2) else cum + int(rng.integers(0, 5))
            rows.append((i * 9_000 + j, f'req_total{{job="s{j}"}} {cum}'))
    for j in range(3):
        for i in range(n):
            v = float(rng.integers(-50, 50)) / 4
            rows.append((i * 7_000 + j, f'temp{{host="h{j}"}} {v}'))
    s_sum = s_count = 0
    for i in range(n):
        ts = i * 11_000
        s_sum, s_count = s_sum + int(rng.integers(0, 9)), s_count + 1
        rows += [(ts, f'lat{{quantile="0.5"}} {float(rng.integers(0, 99))}'),
                 (ts, f'lat{{quantile="0.9"}} {float(rng.integers(0, 99))}'),
                 (ts, f"lat_sum {s_sum}"), (ts, f"lat_count {s_count}")]
    obs = []
    for i in range(n):
        ts = i * 13_000
        obs += list(rng.choice([0.001, 0.02, 0.3, 4.0, 9.0], 2))
        o = np.asarray(obs)
        rows += [(ts, f'rt_count{{j="a"}} {len(obs)}'),
                 (ts, f'rt_sum{{j="a"}} {float(o.sum())}')]
        rows += [(ts, f'rt_bucket{{j="a",le="{u}"}} {int((o <= u).sum())}')
                 for u in DEFAULT_BUCKETS]
    rows.sort(key=lambda r: r[0])
    return [f"{text} {ts}" for ts, text in rows]


def _typed(rows: list[str]) -> list[str]:
    return [f"# TYPE {m} {k}" for m, k in KINDS.items()] + rows


def _read(tmp_path, rows: list[str], name: str = "lines"):
    """The lines as a parquet file, read back with ``rd.read_parquet`` —
    an input the gate can size."""
    path = str(tmp_path / f"{name}.parquet")
    if not os.path.exists(path):
        pq.write_table(pa.table({"text": pa.array(rows, pa.string())}), path)
    return rd.read_parquet(path)


def _blocks(ds) -> pa.Table:
    parts = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(parts) if parts else pa.table({})


def _digest(ds) -> tuple[int, str]:
    t = _blocks(ds)
    return t.num_rows, store_digest.table_digest(t, store_digest.BLOCK_KEYS)


@pytest.fixture
def splits(monkeypatch):
    """Counts ``split_by_bucket`` calls in the executor seam: the driver
    executor's exchange, which a Ray execution never calls."""
    calls = []
    real = executor.split_by_bucket

    def counting(t, n):
        calls.append(n)
        return real(t, n)

    monkeypatch.setattr(executor, "split_by_bucket", counting)
    return calls


def _on_both(force_ingest, splits, run) -> dict:
    """``run()`` once per executor; the result's digest per executor."""
    out = {}
    for executor in EXECUTORS:
        force_ingest(executor)
        n = len(splits)
        out[executor] = _digest(run())
        assert (len(splits) > n) == (executor == "driver"), executor
    return out


@pytest.mark.parametrize("metric", sorted(KINDS))
def test_scrape_to_store_blocks_equal_on_both_executors(
        ray_session, tmp_path, force_ingest, splits, metric):
    rows = _stream()
    got = _on_both(force_ingest, splits, lambda: sp.scrape_to_store(
        _read(tmp_path, rows), metric=metric, kind=KINDS[metric],
        n_buckets=N_BUCKETS))
    assert got["ray"][0] > 0 and got["ray"] == got["driver"]


def test_payload_kinds_from_type_lines_on_both_executors(
        ray_session, tmp_path, force_ingest, splits):
    rows = _typed(_stream(11)) + ["freeform 7.25 5000"]
    got = _on_both(force_ingest, splits, lambda: sp.scrape_payload_to_store(
        _read(tmp_path, rows), n_buckets=N_BUCKETS))
    assert got["ray"] == got["driver"]
    # every family, plus the untyped name's gauge fallback
    want = _digest(sp.scrape_payload_to_store(
        rd.from_arrow(pa.table({"text": rows})), kinds=dict(
            KINDS, freeform="gauge"), n_buckets=N_BUCKETS))
    assert got["ray"] == want


def test_fill_and_scrape_time_on_both_executors(ray_session, tmp_path,
                                                force_ingest, splits):
    rows = [r.rsplit(" ", 1)[0] if i % 5 == 0 and r.startswith("temp")
            else r for i, r in enumerate(_stream(5))]
    assert any(r.startswith("temp") and r.count(" ") == 1 for r in rows)
    got = _on_both(force_ingest, splits, lambda: sp.scrape_to_store(
        _read(tmp_path, rows), metric="temp", kind="gauge",
        n_buckets=N_BUCKETS, fill_until_s=900, staleness_s=120,
        default_ts_ms=200_000))
    assert got["ray"][0] > 0 and got["ray"] == got["driver"]


def _value_error(match: str, fn) -> None:
    """``fn()`` raises the ValueError ``match`` names: itself in the
    driver, wrapped in the Ray task error (whose text carries the remote
    traceback) on Ray."""
    with pytest.raises(Exception) as info:
        fn()
    e = info.value
    assert (isinstance(e, ValueError) and re.search(match, str(e))
            or re.search(f"ValueError: [^\\n]*{match}", str(e))), repr(e)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_errors_equal_on_both_executors(ray_session, tmp_path, force_ingest,
                                        executor):
    force_ingest(executor)
    foreign = ['rt_count{j="a"} 1 0', 'rt_sum{j="a"} 1.0 0',
               'rt_bucket{j="a",le="7.5"} 1 0',
               'rt_count{j="a"} 2 60000', 'rt_sum{j="a"} 2.0 60000',
               'rt_bucket{j="a",le="7.5"} 2 60000']
    _value_error("store layout", lambda: sp.scrape_to_store(
        _read(tmp_path, foreign, "foreign"), metric="rt", kind="histogram",
        n_buckets=2).materialize())
    no_ts = ['up{job="a"} 1', 'up{job="a"} 1 60000']
    _value_error("without timestamps", lambda: sp.scrape_to_store(
        _read(tmp_path, no_ts, "no_ts"), metric="up", kind="gauge",
        n_buckets=2).materialize())
    # a bad staleness fails before any input is read, on either executor
    with pytest.raises(ValueError, match="run-code range"):
        sp.scrape_to_store(_read(tmp_path, no_ts, "no_ts"), metric="up",
                           kind="gauge", window_s=1, fill_until_s=300,
                           staleness_s=40_000)


def test_gate_sizes_bare_reads_only(ray_session, tmp_path, monkeypatch):
    """A bare read in a 1-CPU session goes to the driver, the same read
    in a 2-CPU session to Ray; a transformed Dataset or an in-memory one
    reports no input files (size unknown) and goes to Ray."""
    rows = _stream()
    ds = _read(tmp_path, rows)
    nbytes = rp.input_bytes(ds.input_files())
    assert nbytes == os.path.getsize(tmp_path / "lines.parquet")
    monkeypatch.setattr(rp, "session_cpus", lambda: 1)
    got = sp.driver_lines(ds)
    assert isinstance(got, pa.Table) and got["text"].to_pylist() == rows
    assert not rp.ingest_in_driver(rp.DRIVER_SCRAPE_MAX_BYTES, scrape=True)
    assert rp.ingest_in_driver(rp.DRIVER_SCRAPE_MAX_BYTES)  # transcripts
    for other in (ds.map_batches(lambda t: t, batch_format="pyarrow"),
                  rd.from_arrow(pa.table({"text": rows}))):
        assert rp.input_bytes(other.input_files()) == 0
        assert sp.driver_lines(other) is other
    monkeypatch.setattr(rp, "session_cpus", lambda: 2)
    assert sp.driver_lines(ds) is ds


def _runs(rows: list[str], n: int = 3) -> list[list[str]]:
    cuts = np.linspace(0, len(rows), n + 1).astype(int)
    return [rows[a:b] for a, b in zip(cuts, cuts[1:])]


def _incremental(tmp_path, out: str, runs, plan, force_ingest) -> list:
    """Append ``runs``, run i on executor ``plan[i]``, and finalize
    (on Ray, whatever the gate: it has no input to size). Returns every
    epoch's executor."""
    for i, run in enumerate(runs):
        force_ingest(plan[i])
        si.scrape_append(_read(tmp_path, run, f"run{i}"), out, kinds=KINDS,
                         n_buckets=N_BUCKETS)
    si.scrape_finalize(out, kinds=KINDS, n_buckets=N_BUCKETS)
    return [read_manifest(os.path.join(e, "state"))["lineage"]["executor"]
            for e in epoch_dirs(out)]


def _store(out: str) -> str:
    edirs = epoch_dirs(out)
    return store_digest.store_digests(
        out, [os.path.join(e, "blocks") for e in edirs],
        [os.path.join(e, "state") for e in edirs],
        {"refs": None, "open": None})[1]


def test_incremental_equal_on_both_executors(ray_session, tmp_path,
                                             force_ingest):
    runs = _runs(_stream(13))
    digests = {}
    for executor in EXECUTORS:
        out = str(tmp_path / executor)
        got = _incremental(tmp_path, out, runs, [executor] * 3,
                           force_ingest)
        assert got == [executor] * 3 + ["ray"]
        digests[executor] = _store(out)
    assert digests["ray"] == digests["driver"]

    # runs committed on Ray, the last one in the driver
    mixed = str(tmp_path / "mixed")
    plan = ["ray", "ray", "driver"]
    got = _incremental(tmp_path, mixed, runs, plan, force_ingest)
    assert got == plan + ["ray"]
    assert _store(mixed) == digests["driver"]


def test_killed_driver_append_resumes_bucket_by_bucket(
        ray_session, tmp_path, force_ingest, monkeypatch):
    """A driver append killed after some buckets (an exception in
    ``_bucket_body``) resumes: the buckets whose parts it wrote are not
    run again, and the store equals an uninterrupted one. A rerun over
    other lines reuses none of the killed run's parts."""
    runs = _runs(_stream(17))
    want = str(tmp_path / "clean")
    _incremental(tmp_path, want, runs, ["driver"] * 3, force_ingest)

    real, calls, kill_at = si._bucket_body, [], 2
    state = {"kill": False}

    def body(group, **kwargs):
        if state["kill"] and len(calls) == kill_at:
            raise RuntimeError("killed")
        calls.append(int(group["bucket"][0].as_py()))
        return real(group, **kwargs)

    monkeypatch.setattr(si, "_bucket_body", body)
    out = str(tmp_path / "killed")
    si.scrape_append(_read(tmp_path, runs[0], "run0"), out, kinds=KINDS,
                     n_buckets=N_BUCKETS)
    state["kill"], calls[:] = True, []
    with pytest.raises(RuntimeError, match="killed"):
        si.scrape_append(_read(tmp_path, runs[1], "run1"), out, kinds=KINDS,
                         n_buckets=N_BUCKETS)
    done = list(calls)
    assert len(done) == kill_at

    state["kill"], calls[:] = False, []
    m = si.scrape_append(_read(tmp_path, runs[1], "run1"), out, kinds=KINDS,
                         n_buckets=N_BUCKETS)
    assert sorted(calls + done) == list(range(N_BUCKETS))
    assert {v["lineage"]["executor"] for v in m.values()} == {"driver"}
    si.scrape_append(_read(tmp_path, runs[2], "run2"), out, kinds=KINDS,
                     n_buckets=N_BUCKETS)
    si.scrape_finalize(out, kinds=KINDS, n_buckets=N_BUCKETS)
    assert _store(out) == _store(want)

    # killed again, then rerun over OTHER lines: every bucket runs anew
    other = str(tmp_path / "other")
    si.scrape_append(_read(tmp_path, runs[0], "run0"), other, kinds=KINDS,
                     n_buckets=N_BUCKETS)
    state["kill"], calls[:] = True, []
    with pytest.raises(RuntimeError, match="killed"):
        si.scrape_append(_read(tmp_path, runs[2], "run2"), other,
                         kinds=KINDS, n_buckets=N_BUCKETS)
    state["kill"], calls[:] = False, []
    si.scrape_append(_read(tmp_path, runs[1], "run1"), other, kinds=KINDS,
                     n_buckets=N_BUCKETS)
    assert sorted(calls) == list(range(N_BUCKETS))
    si.scrape_append(_read(tmp_path, runs[2], "run2"), other, kinds=KINDS,
                     n_buckets=N_BUCKETS)
    si.scrape_finalize(other, kinds=KINDS, n_buckets=N_BUCKETS)
    assert _store(other) == _store(want)


def _scrape(i: int) -> list[str]:
    """Scrape run ``i``'s lines without timestamps (its scrape time is
    the append's ``default_ts_ms``): counters, gauges and a histogram."""
    rows = [f'req_total{{job="s{j}"}} {i * 7 + j}' for j in range(6)]
    rows += [f'temp{{host="h{j}"}} {(i * 3 + j) % 5 - 2.5}' for j in range(3)]
    rows += [f'rt_count{{j="a"}} {2 * i}', f'rt_sum{{j="a"}} {0.5 * i}']
    rows += [f'rt_bucket{{j="a",le="{u}"}} {i * (k > 3) + i * (k > 8)}'
             for k, u in enumerate(DEFAULT_BUCKETS)]
    return rows


def test_killed_driver_append_rebuilds_at_another_scrape_time(
        ray_session, tmp_path, force_ingest, monkeypatch):
    """A driver append of lines without timestamps, killed, then rerun
    over the same lines with another ``default_ts_ms``: every bucket
    runs again, and the store equals an uninterrupted one at the
    rerun's scrape time — the killed run's parts carry the other
    scrape time and are not reused."""
    force_ingest("driver")
    times = [60_000, 120_000, 180_000]
    want = str(tmp_path / "clean")
    for i, ts in enumerate(times):
        si.scrape_append(_read(tmp_path, _scrape(i), f"scrape{i}"), want,
                         kinds=KINDS, n_buckets=N_BUCKETS, default_ts_ms=ts)
    si.scrape_finalize(want, kinds=KINDS, n_buckets=N_BUCKETS)

    real, calls, kill_at = si._bucket_body, [], 2
    state = {"kill": False}

    def body(group, **kwargs):
        if state["kill"] and len(calls) == kill_at:
            raise RuntimeError("killed")
        calls.append(int(group["bucket"][0].as_py()))
        return real(group, **kwargs)

    monkeypatch.setattr(si, "_bucket_body", body)
    out = str(tmp_path / "killed")
    si.scrape_append(_read(tmp_path, _scrape(0), "scrape0"), out,
                     kinds=KINDS, n_buckets=N_BUCKETS, default_ts_ms=times[0])
    state["kill"], calls[:] = True, []
    with pytest.raises(RuntimeError, match="killed"):
        si.scrape_append(_read(tmp_path, _scrape(1), "scrape1"), out,
                         kinds=KINDS, n_buckets=N_BUCKETS,
                         default_ts_ms=150_000)
    state["kill"], calls[:] = False, []
    si.scrape_append(_read(tmp_path, _scrape(1), "scrape1"), out,
                     kinds=KINDS, n_buckets=N_BUCKETS, default_ts_ms=times[1])
    assert sorted(calls) == list(range(N_BUCKETS))
    si.scrape_append(_read(tmp_path, _scrape(2), "scrape2"), out,
                     kinds=KINDS, n_buckets=N_BUCKETS, default_ts_ms=times[2])
    si.scrape_finalize(out, kinds=KINDS, n_buckets=N_BUCKETS)
    assert _store(out) == _store(want)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_append_killed_inside_seal_resumes(ray_session, tmp_path,
                                           force_ingest, seal_dies,
                                           executor):
    """An append that dies in ``seal``, between sealing its first stage
    and its second, leaves its epoch partial; a rerun over the same
    lines commits sha256-identical blocks parts and the rows of an
    uninterrupted append."""
    force_ingest(executor)
    runs = _runs(_stream(19))
    want, out = str(tmp_path / "clean"), str(tmp_path / "killed")
    for i, run in enumerate(runs[:2]):
        si.scrape_append(_read(tmp_path, run, f"run{i}"), want, kinds=KINDS,
                         n_buckets=N_BUCKETS)
    si.scrape_append(_read(tmp_path, runs[0], "run0"), out, kinds=KINDS,
                     n_buckets=N_BUCKETS)
    seal_dies()
    with pytest.raises(RuntimeError, match="killed in seal"):
        si.scrape_append(_read(tmp_path, runs[1], "run1"), out, kinds=KINDS,
                         n_buckets=N_BUCKETS)
    edir = epoch_dirs(out)[-1]
    assert stage_done(os.path.join(edir, "agg"))
    assert not os.path.exists(os.path.join(edir, "blocks"))
    m = si.scrape_append(_read(tmp_path, runs[1], "run1"), out, kinds=KINDS,
                         n_buckets=N_BUCKETS)
    assert {v["lineage"]["executor"] for v in m.values()} == {executor}

    def digests(root):
        edirs = epoch_dirs(root)
        return store_digest.store_digests(
            root, [os.path.join(e, "blocks") for e in edirs],
            [os.path.join(e, "state") for e in edirs],
            {"refs": None, "open": None})

    assert len(epoch_dirs(out)) == 2
    assert digests(out) == digests(want)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_no_sample_of_the_metric_gives_no_rows(ray_session, tmp_path,
                                               force_ingest, executor):
    """Lines with no sample of the ingested family: ``scrape_to_store``
    returns no block row (in the driver, with the block columns), and
    ``scrape_append`` commits a 0-row agg and blocks set, on either
    executor."""
    force_ingest(executor)
    lines = _read(tmp_path, _stream())
    ds = sp.scrape_to_store(lines, metric="absent", kind="counter",
                            n_buckets=N_BUCKETS)
    assert ds.count() == 0
    if executor == "driver":
        full = sp.scrape_to_store(lines, metric="req_total",
                                  n_buckets=N_BUCKETS)
        assert ds.schema().names == full.schema().names
    m = si.scrape_append(lines, str(tmp_path / "store"),
                         kinds={"absent": "counter"}, n_buckets=N_BUCKETS)
    assert {v["lineage"]["executor"] for v in m.values()} == {executor}
    assert m["agg"]["rows"] == m["blocks"]["rows"] == 0
