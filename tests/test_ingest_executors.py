"""The two ingest executors (rollup_pipeline.ingest_in_driver): a small
input runs the one bucket body in the driver, bucket by bucket; a larger
one runs as a Ray execution. Both commit through the same checkpoint
steps and store the same blocks. Each test forces a path with the
``force_ingest`` fixture (conftest), which patches the gate."""

import ast
import os
import pathlib
import shutil
import sys
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

import vertex_ray
import vertex_ray.pipelines.epoch_pipeline as ep
import vertex_ray.pipelines.rollup_pipeline as rp
from vertex_ray.state.checkpoint import (
    PARTS,
    pipeline_counters,
    stage_done,
    stage_files,
)
from vertex_ray.synth import ensure_transcripts

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts"))
import store_digest  # noqa: E402

EXECUTORS = ("ray", "driver")
N_BUCKETS = 4


def _sf0001() -> str:
    return ensure_transcripts(0.001, base="/tmp/vertex_ray_testdata")


@pytest.fixture(scope="module")
def transcripts(tmp_path_factory) -> str:
    """The turns of every 8th sf0.001 conversation (48 of them, spread
    over the input's six days)."""
    t = pq.read_table(_sf0001())
    convs = sorted(set(t["conv_id"].to_pylist()))[::8]
    path = str(tmp_path_factory.mktemp("ingest") / "transcripts.parquet")
    pq.write_table(t.filter(pc.is_in(t["conv_id"], pa.array(convs))), path)
    return path


def _oneshot(trans: str, out: str) -> dict:
    return rp.run_pipeline(trans, out, n_buckets=N_BUCKETS)


def _epochs(trans: str, out: str) -> dict:
    return ep.run_pipeline_epochs(trans, out, epoch_seconds=86_400,
                                  n_buckets=N_BUCKETS)


def _edirs(root: str, stage: str) -> list[str]:
    return [os.path.join(e, stage) for e in ep.epoch_dirs(root)]


def _oneshot_parts(root: str) -> dict[str, str]:
    """sha256 of every blocks part, by path under the store."""
    return store_digest.store_digests(
        root, [os.path.join(root, "blocks")], [], {})[0]


def _epoch_digest(root: str) -> str:
    """``scripts/store_digest.py``'s row-order-independent digest of an
    epoch store's block and state rows."""
    return store_digest.store_digests(
        root, _edirs(root, "blocks"), _edirs(root, "state"),
        {"part": store_digest.STATE_KEYS})[1]


def _agg_totals(agg_roots: list[str]) -> tuple[int, int]:
    """(expanded agg rows, Σcount of the stored agg rows)."""
    files = [f for r in agg_roots for f in stage_files(os.path.join(r, "agg"))]
    count = pads.dataset(files).to_table(columns=["count"])["count"]
    return (sum(rp.agg_expanded_rows(r) for r in agg_roots),
            pc.sum(count).as_py())


def _manifest_mtimes(root: str) -> dict[str, int]:
    out = {}
    for d, _, names in os.walk(root):
        if "manifest.json" in names:
            p = os.path.join(d, "manifest.json")
            out[p] = os.stat(p).st_mtime_ns
    return out


def _stage_walls(root: str) -> list[float]:
    t = pipeline_counters(root)
    return t.filter(pc.equal(t["file"], "__total__"))["wall_seconds"].to_pylist()


def test_gate_sends_small_inputs_to_the_driver(monkeypatch):
    """In a 1-CPU session a perfbench-sized input (200k turns, about
    5 MB) runs in the driver and the 10M-turn headline input on Ray. A
    wider session keeps every ingest on Ray."""
    per_100k_turns = rp.input_bytes(_sf0001())
    perfbench, headline = 2 * per_100k_turns, 100 * per_100k_turns
    assert 4_000_000 < perfbench < 6_000_000
    monkeypatch.setattr(rp, "session_cpus", lambda: 1)
    assert rp.ingest_in_driver(perfbench)
    assert not rp.ingest_in_driver(headline)
    assert not rp.ingest_in_driver(0)  # size unknown
    monkeypatch.setattr(rp, "session_cpus", lambda: 2)
    assert not rp.ingest_in_driver(perfbench)


def test_oneshot_blocks_identical_on_both_executors(ray_session, transcripts,
                                                    tmp_path, force_ingest):
    stores = {}
    for executor in EXECUTORS:
        force_ingest(executor)
        out = str(tmp_path / executor)
        m = _oneshot(transcripts, out)
        assert {s: v["lineage"]["executor"] for s, v in m.items()} == {
            "agg": executor, "blocks": executor}
        walls = _stage_walls(out)
        assert len(walls) == 2 and all(w >= 0 for w in walls)  # no NaN
        stores[executor] = out
    parts = {e: _oneshot_parts(out) for e, out in stores.items()}
    assert parts["ray"] and parts["ray"] == parts["driver"]
    totals = {e: _agg_totals([out]) for e, out in stores.items()}
    assert totals["ray"][0] > 0 and totals["ray"] == totals["driver"]

    # a store committed on one executor is reused whole on the other
    mtimes = _manifest_mtimes(stores["ray"])
    force_ingest("driver")
    m = _oneshot(transcripts, stores["ray"])
    assert {v["lineage"]["executor"] for v in m.values()} == {"ray"}
    assert _manifest_mtimes(stores["ray"]) == mtimes


def test_epochs_identical_on_both_executors(ray_session, transcripts,
                                            tmp_path, force_ingest):
    stores = {}
    for executor in EXECUTORS:
        force_ingest(executor)
        out = str(tmp_path / executor)
        m = _epochs(transcripts, out)
        assert {v["lineage"]["executor"] for v in m.values()} == {executor}
        walls = _stage_walls(out)
        assert len(walls) == len(m) and all(w >= 0 for w in walls)
        stores[executor] = out
    assert len(ep.epoch_dirs(stores["driver"])) >= 3
    digests = {e: _epoch_digest(out) for e, out in stores.items()}
    assert digests["ray"] == digests["driver"]
    totals = {e: _agg_totals(ep.epoch_dirs(out)) for e, out in stores.items()}
    assert totals["ray"][0] > 0 and totals["ray"] == totals["driver"]


def test_mixed_executor_resume(ray_session, transcripts, tmp_path,
                               force_ingest):
    """Epochs committed on Ray, the rest finished in the driver: the
    Ray epochs are reused as they are, and the store equals one built in
    the driver alone."""
    force_ingest("driver")
    want = str(tmp_path / "driver")
    _epochs(transcripts, want)

    out = str(tmp_path / "mixed")
    force_ingest("ray")
    _epochs(transcripts, out)
    dirs = ep.epoch_dirs(out)
    for d in dirs[1:]:
        shutil.rmtree(d)
    kept = _manifest_mtimes(dirs[0])
    force_ingest("driver")
    m = _epochs(transcripts, out)
    by_epoch = {k.split("/")[0]: v["lineage"]["executor"] for k, v in m.items()}
    assert list(by_epoch.values()) == ["ray"] + ["driver"] * (len(dirs) - 1)
    assert {k: v for k, v in _manifest_mtimes(out).items() if k in kept} == kept
    assert _epoch_digest(out) == _epoch_digest(want)


@pytest.mark.parametrize("ingest", ["oneshot", "epochs"])
def test_killed_driver_run_reuses_its_parts(ray_session, transcripts, tmp_path,
                                            force_ingest, monkeypatch, ingest):
    """A driver run killed after some buckets (an exception in
    ``bucket_group``) resumes: the buckets whose parts it wrote are not
    run again, and the store equals an uninterrupted one. The epoch run
    dies in its second epoch, so the first epoch's committed set is
    reused too."""
    run, module = {"oneshot": (_oneshot, rp), "epochs": (_epochs, ep)}[ingest]
    kill_at = 2 if ingest == "oneshot" else N_BUCKETS + 2
    real = rp.bucket_group
    calls = []

    def body(group, **kwargs):
        if len(calls) == kill_at and not finished:
            raise RuntimeError("killed")
        calls.append(1)
        return real(group, **kwargs)

    monkeypatch.setattr(module, "bucket_group", body)
    force_ingest("driver")
    finished = True
    want = str(tmp_path / "clean")
    run(transcripts, want)
    clean_calls, calls[:] = len(calls), []

    finished = False
    out = str(tmp_path / "killed")
    with pytest.raises(RuntimeError, match="killed"):
        run(transcripts, out)
    assert len(calls) == kill_at

    finished, calls[:] = True, []
    m = run(transcripts, out)
    assert len(calls) == clean_calls - kill_at
    assert {v["lineage"]["executor"] for v in m.values()} == {"driver"}
    if ingest == "oneshot":
        assert _oneshot_parts(out) == _oneshot_parts(want)
    else:
        assert _epoch_digest(out) == _epoch_digest(want)


def _part_mtimes(root: str, sealed: bool) -> dict[str, int]:
    """mtime of every agg and blocks part of a one-shot store, keyed by
    stage/name: in the sealed stage dirs, or in their parts dirs."""
    out = {}
    for stage in ("agg", "blocks"):
        d = os.path.join(root, stage if sealed else stage + PARTS)
        for f in stage_files(d):
            out[f"{stage}/{os.path.basename(f)}"] = os.stat(f).st_mtime_ns
    return out


def _oneshot_digests(root: str) -> tuple[dict[str, str], str]:
    """``scripts/store_digest.py``'s blocks part sha256s and row digest."""
    return store_digest.store_digests(root, [os.path.join(root, "blocks")],
                                      [], {})


@pytest.mark.parametrize("killed_on", EXECUTORS)
def test_ray_run_resumes_bucket_by_bucket(ray_session, transcripts, tmp_path,
                                          force_ingest, monkeypatch,
                                          killed_on):
    """A one-shot run killed after two buckets (an exception in
    ``bucket_group``), on either executor, then rerun on Ray: the
    finished buckets' agg and blocks parts are reused as they are (same
    mtimes), and the store equals an uninterrupted one."""
    force_ingest("ray")
    want = str(tmp_path / "clean")
    _oneshot(transcripts, want)

    out, slots = str(tmp_path / "killed"), str(tmp_path / "slots")
    os.makedirs(slots)
    agg_parts, kill_at, real = os.path.join(out, "agg" + PARTS), 2, rp.bucket_group

    def killing(group, **kwargs):
        # the first ``kill_at`` buckets to claim a slot run; any other
        # dies once theirs have written their agg parts (a Ray run may
        # run buckets side by side)
        for i in range(kill_at):
            try:
                os.close(os.open(os.path.join(slots, str(i)),
                                 os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                continue
            return real(group, **kwargs)
        deadline = time.time() + 120
        while (len([f for f in os.listdir(agg_parts)
                    if f.endswith(".parquet")]) < kill_at
               and time.time() < deadline):
            time.sleep(0.05)
        raise RuntimeError("killed")

    monkeypatch.setattr(rp, "bucket_group", killing)
    force_ingest(killed_on)
    with pytest.raises(Exception, match="killed"):
        _oneshot(transcripts, out)
    kept = _part_mtimes(out, sealed=False)
    assert sum(k.startswith("agg/") for k in kept) == kill_at

    monkeypatch.setattr(rp, "bucket_group", real)
    force_ingest("ray")
    m = _oneshot(transcripts, out)
    assert {v["lineage"]["executor"] for v in m.values()} == {"ray"}
    after = _part_mtimes(out, sealed=True)
    assert {k: after.get(k) for k in kept} == kept
    assert len(after) == len(_part_mtimes(want, sealed=True))
    assert _oneshot_digests(out) == _oneshot_digests(want)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_run_killed_inside_seal_resumes(ray_session, transcripts, tmp_path,
                                        force_ingest, seal_dies, executor):
    """A one-shot run that dies in ``seal``, between sealing its first
    stage and its second, leaves the set partial; a rerun commits
    sha256-identical blocks parts and the rows of an uninterrupted
    run."""
    force_ingest(executor)
    want = str(tmp_path / "clean")
    _oneshot(transcripts, want)
    out = str(tmp_path / "killed")
    seal_dies()
    with pytest.raises(RuntimeError, match="killed in seal"):
        _oneshot(transcripts, out)
    assert stage_done(os.path.join(out, "agg"))
    assert not os.path.exists(os.path.join(out, "blocks"))
    m = _oneshot(transcripts, out)
    assert {v["lineage"]["executor"] for v in m.values()} == {executor}
    assert _oneshot_digests(out) == _oneshot_digests(want)


def test_ingests_split_work_only_through_the_seam():
    """The ingest modules build their one exchange through
    stages/executor.per_group, the one place where work is split across
    executors: none calls ``.groupby(``, ``.map_groups(`` or
    ``split_by_bucket(`` itself."""
    root = pathlib.Path(vertex_ray.__file__).parent / "pipelines"
    hits = []
    for rel in ("rollup_pipeline.py", "epoch_pipeline.py",
                "scrape_pipeline.py", "scrape_incremental.py"):
        path = root / rel
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(
                f, "id", None)
            if (name == "split_by_bucket" or isinstance(f, ast.Attribute)
                    and name in ("groupby", "map_groups")):
                hits.append(f"{rel}:{node.lineno} {name}(")
    assert not hits, hits
