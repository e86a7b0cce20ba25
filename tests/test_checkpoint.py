"""stage_done: a corrupt or missing manifest or part means "not done";
any other error propagates instead of silently forcing a recompute."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from vertex_ray.state import checkpoint
from vertex_ray.state.checkpoint import MANIFEST, finalize_stage, stage_done


@pytest.fixture
def stage(tmp_path):
    parts = tmp_path / "s.__parts__"
    parts.mkdir()
    for i in range(2):
        pq.write_table(pa.table({"x": [i, i + 1]}),
                       str(parts / f"part-{i:05d}.parquet"))
    final = str(tmp_path / "s")
    finalize_stage(str(parts), final, {"k": 1})
    assert stage_done(final)
    return final


def test_truncated_manifest_is_not_done(stage):
    mpath = os.path.join(stage, MANIFEST)
    with open(mpath, "rb") as f:
        data = f.read()
    with open(mpath, "wb") as f:
        f.write(data[: len(data) // 2])
    assert not stage_done(stage)


def test_missing_part_is_not_done(stage):
    os.remove(os.path.join(stage, "part-00001.parquet"))
    assert not stage_done(stage)


def test_io_error_propagates(stage, monkeypatch):
    def denied(path):
        raise PermissionError(path)

    monkeypatch.setattr(checkpoint.fsio, "read_json", denied)
    with pytest.raises(PermissionError):
        stage_done(stage)


def test_committed_is_whole_set_under_lineage(tmp_path):
    from vertex_ray.state.checkpoint import committed

    paths = {}
    for name in ("a", "b"):
        parts = tmp_path / f"{name}.__parts__"
        parts.mkdir()
        pq.write_table(pa.table({"x": [1]}), str(parts / "part-00000.parquet"))
        paths[name] = str(tmp_path / name)
        finalize_stage(str(parts), paths[name], {"k": 1})
    assert set(committed(paths, {"k": 1})) == {"a", "b"}
    assert set(committed(paths)) == {"a", "b"}
    # another lineage: the whole set is removed, not just one stage
    assert committed(paths, {"k": 2}) is None
    assert not any(os.path.exists(p) for p in paths.values())


def test_parts_reused_only_under_same_lineage(tmp_path):
    from vertex_ray.state.checkpoint import open_parts, write_part

    stage = str(tmp_path / "blocks")
    built = []

    def build():
        built.append(1)
        return pa.table({"x": [1]})

    parts = open_parts(stage, {"k": 1})
    write_part(parts, 3, build)
    assert open_parts(stage, {"k": 1}) == parts
    write_part(parts, 3, build)
    assert len(built) == 1  # a reused part is never rebuilt
    open_parts(stage, {"k": 2})
    assert not os.path.exists(os.path.join(parts, "part-00003.parquet"))


def test_seal_records_the_run_on_every_stage(tmp_path):
    """With no Dataset (the driver executor) every stage is sealed from
    its parts dir, and every manifest records the run's wall time and
    executor, which ``committed`` does not compare."""
    import time

    from vertex_ray.state.checkpoint import committed, open_parts, seal, write_part

    paths = {s: str(tmp_path / s) for s in ("agg", "blocks")}
    t0 = time.time()
    for p in paths.values():
        write_part(open_parts(p, {"k": 1}), 0, lambda: pa.table({"x": [1]}))
    manifests = seal(None, paths, {"k": 1}, t0)
    for m in manifests.values():
        assert m["rows"] == 1
        assert m["lineage"]["executor"] == "driver"
        assert m["lineage"]["wall_seconds"] >= 0
    assert committed(paths, {"k": 1}) == manifests
