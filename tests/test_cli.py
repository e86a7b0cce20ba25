"""CLI surface: validate / run / top / fn (SURVEY §3.1-3.2 analogues)."""

import json
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from vertex_ray.cli import main


def _write_events(path: str) -> str:
    df = pd.DataFrame(
        {
            "event_id": range(10),
            "value": [float(i * 10) for i in range(10)],
            "tag": ["a", "b"] * 5,
        }
    )
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), path)
    return path


def test_validate_ok_and_errors(tmp_path, capsys):
    src = _write_events(str(tmp_path / "ev.parquet"))
    good = {
        "sources": {"ev": {"type": "parquet", "path": src}},
        "transforms": {
            "big": {"type": "filter", "inputs": ["ev"], "where": ["value", ">", 40]}
        },
        "sinks": {"out": {"inputs": ["big"]}},
    }
    cfg = tmp_path / "good.json"
    cfg.write_text(json.dumps(good))
    assert main(["validate", str(cfg)]) == 0

    bad = {
        "sources": {"ev": {"type": "nope", "path": src}},
        "transforms": {"t": {"type": "filter", "inputs": ["missing"]}},
        "sinks": {},
    }
    cfgb = tmp_path / "bad.json"
    cfgb.write_text(json.dumps(bad))
    assert main(["validate", str(cfgb)]) == 1
    err = capsys.readouterr().err
    assert "unknown type" in err and "undefined input" in err


def test_run_and_top(ray_session, tmp_path, capsys):
    src = _write_events(str(tmp_path / "ev.parquet"))
    out = str(tmp_path / "out")
    cfg = {
        "sources": {"ev": {"type": "parquet", "path": src}},
        "transforms": {
            "big": {"type": "filter", "inputs": ["ev"], "where": ["value", ">", 40]}
        },
        "sinks": {
            "out": {"type": "parquet", "inputs": ["big"], "path": out}
        },
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", str(p)]) == 0
    assert "wrote 5 rows" in capsys.readouterr().out

    # top over a committed flagship out_dir (manifests only)
    from vertex_ray.pipelines.rollup_pipeline import run_pipeline
    from vertex_ray.synth import ensure_transcripts

    trans = ensure_transcripts("/root/testdata/sf0.001")
    tiers_out = str(tmp_path / "tiers")
    run_pipeline(trans, tiers_out, n_buckets=4, tiers=(("1m", 60),))
    assert main(["top", tiers_out]) == 0
    top = capsys.readouterr().out
    assert "agg" in top and "__total__" in top


def test_fn_eval(capsys):
    assert main(["fn", "uppercase", "hello"]) == 0
    assert json.loads(capsys.readouterr().out) == "HELLO"
    assert main(["fn", "no_such_fn", "x"]) == 1


def test_eval_expr(tmp_path, capsys):
    # literal-only expression — one value
    assert main(["eval", 'uppercase("hi") + format(" {}!", 42)']) == 0
    assert json.loads(capsys.readouterr().out) == "HI 42!"
    # columns from a parquet table
    p = tmp_path / "t.parquet"
    pq.write_table(pa.table({"v": [1, 60, 3]}), str(p))
    assert main(["eval", "v * 10 > 100", "--table", str(p)]) == 0
    out = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
    assert out == [False, True, False]
    # diagnostics exit non-zero
    assert main(["eval", "no_such_fn(1)"]) == 1
    assert main(["eval", "v + 1"]) == 1  # unknown column, runtime error


def test_retention_cli(ray_session, tmp_path, capsys):
    from vertex_ray.pipelines.rollup_pipeline import run_pipeline
    from vertex_ray.synth import ensure_transcripts

    trans = ensure_transcripts(0.001, base="/tmp/vertex_ray_testdata")
    src = str(tmp_path / "tiers")
    run_pipeline(trans, src, n_buckets=8)
    dst = str(tmp_path / "gc")
    assert main(["retention", src, dst, "--keep", "1m=86400"]) == 0
    out = capsys.readouterr().out
    assert "rows retained" in out
    # bad tier spec
    assert main(["retention", src, dst, "--keep", "2m=1"]) == 2


def test_rollup_cli_default_width_follows_api(ray_session, tmp_path,
                                               monkeypatch):
    """`rollup` without --buckets gets the API's width rule (16 buckets in
    a 1-CPU session), not a fixed 64."""
    import vertex_ray.pipelines.rollup_pipeline as rp
    from vertex_ray.synth import ensure_transcripts

    monkeypatch.setattr(rp, "session_cpus", lambda: 1)
    trans = ensure_transcripts(0.001, base="/tmp/vertex_ray_testdata")
    out = str(tmp_path / "tiers")
    assert main(["rollup", trans, out]) == 0
    lineage = rp.read_manifest(os.path.join(out, "blocks"))["lineage"]
    assert lineage["n_buckets"] == 16


def test_compact_cli(ray_session, tmp_path, capsys):
    from vertex_ray.pipelines.epoch_pipeline import (
        read_epochs_stage,
        run_pipeline_epochs,
    )
    from vertex_ray.synth import ensure_transcripts

    trans = ensure_transcripts(0.001, base="/tmp/vertex_ray_testdata")
    src = str(tmp_path / "epochs")
    run_pipeline_epochs(trans, src, epoch_seconds=86_400, n_buckets=8)
    n_before = read_epochs_stage(src, "blocks").count()
    dst = str(tmp_path / "compacted")
    assert main(["compact", src, dst]) == 0
    out = capsys.readouterr().out
    assert "compacted rows" in out
    import ray.data as rd

    from vertex_ray.state.checkpoint import stage_files

    n_after = rd.read_parquet(stage_files(dst + "/blocks")).count()
    assert 0 < n_after < n_before


def test_query_cli(ray_session, tmp_path, capsys):
    from vertex_ray.pipelines.rollup_pipeline import run_pipeline
    from vertex_ray.synth import ensure_transcripts

    trans = ensure_transcripts(0.001, base="/tmp/vertex_ray_testdata")
    store = str(tmp_path / "tiers")
    run_pipeline(trans, store, n_buckets=8)

    assert main(["query", "range", store, "--step", "3600",
                 "--metric", "turns_total", "--match", r"role=user\}",
                 "--limit", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("series_key,") and "turns_total" in out
    assert len(out.strip().splitlines()) == 6  # header + 5 rows

    assert main(["query", "labels", store, "--tier", "1h",
                 "--metric", "turns_total"]) == 0
    out = capsys.readouterr().out
    got = set(out.strip().splitlines()[1:])
    assert got == {"user", "assistant", "tool"}

    assert main(["query", "series", store, "--tier", "1h",
                 "--metric", "turns_total", "--limit", "3"]) == 0
    out = capsys.readouterr().out
    assert "first_seen" in out.splitlines()[0]


def test_delete_and_clean_tombstones_cli(ray_session, tmp_path, capsys):
    """delete hides the selection from the next `query range`;
    clean-tombstones forgets the stones (the post-compaction step)."""
    from vertex_ray.pipelines.rollup_pipeline import run_pipeline
    from vertex_ray.synth import ensure_transcripts

    trans = ensure_transcripts("/root/testdata/sf0.001")
    store = str(tmp_path / "tiers")
    run_pipeline(trans, store, n_buckets=8)

    assert main(["query", "range", store, "--tier", "1h",
                 "--metric", "turns_total", "--match", r"role=user\}",
                 "--limit", "1"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2

    assert main(["delete", store, "--metric", "turns_total",
                 "--match", r"role=user\}"]) == 0
    assert "1 stones pending" in capsys.readouterr().out

    assert main(["query", "range", store, "--tier", "1h",
                 "--metric", "turns_total", "--match", r"role=user\}",
                 "--limit", "1"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) <= 1  # header only (or empty)

    assert main(["clean-tombstones", store]) == 0
    assert "cleared 1 stones" in capsys.readouterr().out
    assert main(["query", "range", store, "--tier", "1h",
                 "--metric", "turns_total", "--match", r"role=user\}",
                 "--limit", "1"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2


def test_snapshot_cli(ray_session, tmp_path, capsys):
    """snapshot hardlinks committed stages + manifests + tombstones; the
    snapshot answers queries identically to the live store."""
    from vertex_ray.pipelines.rollup_pipeline import run_pipeline
    from vertex_ray.synth import ensure_transcripts

    trans = ensure_transcripts("/root/testdata/sf0.001")
    store = str(tmp_path / "tiers")
    snap = str(tmp_path / "snap")
    run_pipeline(trans, store, n_buckets=8)
    assert main(["delete", store, "--metric", "turns_total",
                 "--match", r"role=tool\}"]) == 0
    capsys.readouterr()
    assert main(["snapshot", store, snap]) == 0
    out = capsys.readouterr().out
    assert "stages" in out

    live = main(["query", "range", store, "--tier", "1h",
                 "--metric", "turns_total"])
    a = capsys.readouterr().out
    assert live == 0
    assert main(["query", "range", snap, "--tier", "1h",
                 "--metric", "turns_total"]) == 0
    b = capsys.readouterr().out
    assert a == b and len(a.strip().splitlines()) > 1


def test_stats_verb_prints_live_operator_stats(ray_session, capsys):
    """`stats` = the vertex-top live tap: executed-operator wall
    times/rows from ds.stats() for the flagship pipeline."""
    from vertex_ray.synth import ensure_transcripts

    trans = ensure_transcripts("/root/testdata/sf0.001")
    assert main(["stats", trans, "--buckets", "4"]) == 0
    out = capsys.readouterr().out
    assert "Operator" in out            # ds.stats() per-operator blocks
    assert "MapBatches" in out or "Map" in out
    assert "TOTAL:" in out and "block rows" in out
