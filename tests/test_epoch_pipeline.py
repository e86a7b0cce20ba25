"""Epoch-incremental pipeline == one-shot pipeline, bit for bit.

The epoch kernel's contract (stages/kernel_epoch.py): processing epochs
sequentially with carried per-bucket state reproduces the one-shot
kernel's tier rows exactly — including cross-epoch inter-turn latency,
LOCF fills continuing across boundaries, and the single stale marker
landing in whichever epoch its window falls in.
"""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

TIERS_SMALL = (("1m", 60), ("5m", 300))
E0 = 1_700_000_000 // 3600 * 3600  # aligned epoch base


def _write_transcripts(path, rows):
    df = pd.DataFrame(rows, columns=["conv_id", "turn_idx", "role", "text", "tool", "ts"])
    df["turn_idx"] = df["turn_idx"].astype(np.int32)
    df["ts"] = (
        pd.to_datetime(df["ts"], unit="s", utc=True)
        .dt.tz_localize(None)
        .astype("datetime64[us]")
    )
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), path)
    return path


@pytest.fixture(scope="module")
def micro_transcripts(tmp_path_factory):
    """Conversations engineered to cross epoch boundaries in every way
    that matters: close-gap boundary latency (b), idle > staleness then
    resume (a), single turn then permanent silence (c), conversation
    born mid-stream (d)."""
    rows = []
    # a: two turns in epoch 0, resumes in epoch 2 after >2h idle
    rows += [("a", 0, "user", "t", "", E0 + 10),
             ("a", 1, "assistant", "t", "grep", E0 + 40),
             ("a", 2, "user", "t", "", E0 + 2 * 3600 + 125)]
    # b: turns straddling the epoch-0/1 boundary 15s apart
    rows += [("b", 0, "user", "t", "", E0 + 3590),
             ("b", 1, "assistant", "t", "", E0 + 3605),
             ("b", 2, "user", "t", "", E0 + 3660)]
    # c: one turn, then silence to the end of data
    rows += [("c", 0, "user", "t", "bash", E0 + 100)]
    # d: born in epoch 1
    rows += [("d", 0, "user", "t", "", E0 + 3700),
             ("d", 1, "assistant", "t", "", E0 + 3722)]
    # e: spans into epoch 3 so the run covers 4 epochs
    rows += [("e", 0, "user", "t", "", E0 + 50),
             ("e", 1, "assistant", "t", "", E0 + 3 * 3600 + 400)]
    p = tmp_path_factory.mktemp("micro") / "transcripts.parquet"
    return _write_transcripts(str(p), rows)


def _agg_frame(ds) -> pd.DataFrame:
    df = ds.to_pandas()
    df = df.sort_values(["tier", "series_key", "window_start"], kind="stable")
    return df.reset_index(drop=True)


def _assert_bitwise_equal(a: pd.DataFrame, b: pd.DataFrame):
    assert list(a.columns) == list(b.columns)
    assert len(a) == len(b), f"{len(a)} vs {len(b)} rows"
    for c in a.columns:
        va, vb = a[c].to_numpy(), b[c].to_numpy()
        if va.dtype == np.float64:
            # NaN payloads (stale markers) must survive — compare bits
            np.testing.assert_array_equal(va.view(np.uint64), vb.view(np.uint64), err_msg=c)
        else:
            np.testing.assert_array_equal(va, vb, err_msg=c)


def _run_both(trans, tmp, tiers, epoch_seconds, n_buckets=4):
    from vertex_ray.pipelines.epoch_pipeline import (
        read_epochs_stage,
        run_pipeline_epochs,
    )
    from vertex_ray.pipelines.rollup_pipeline import read_stage, run_pipeline

    one = os.path.join(tmp, "oneshot")
    epo = os.path.join(tmp, "epochs")
    run_pipeline(trans, one, n_buckets=n_buckets, tiers=tiers)
    run_pipeline_epochs(
        trans, epo, epoch_seconds=epoch_seconds, n_buckets=n_buckets, tiers=tiers
    )
    return (
        _agg_frame(read_stage(one, "agg")),
        _agg_frame(read_epochs_stage(epo, "agg")),
        one,
        epo,
    )


def test_micro_epoch_equals_oneshot(ray_session, micro_transcripts, tmp_path,
                                   force_ingest):
    for executor in ("ray", "driver"):
        force_ingest(executor)
        a, b, _, _ = _run_both(
            micro_transcripts, str(tmp_path / executor), TIERS_SMALL,
            epoch_seconds=3600
        )
        # sanity on the scenario itself: cross-boundary latency for conv b
        lat_b = b[(b.series_key == "inter_turn_latency_seconds{conv_id=b}")
                  & (b.tier == "1m") & ~b.filled & ~b.stale]
        assert lat_b["sum"].sum() == pytest.approx(15.0 + 55.0)
        # conv a has two idle-past-staleness gaps (after epoch 0, and again
        # after its epoch-2 resume): one stale marker per gap at 1m
        st_a = b[(b.series_key == "inter_turn_latency_seconds{conv_id=a}")
                 & (b.tier == "1m") & b.stale]
        assert sorted(st_a["window_start"] - E0) == [360, 7680]
        _assert_bitwise_equal(a, b)


def test_micro_epoch_sink_stores_real_plus_carried(ray_session,
                                                  micro_transcripts, tmp_path):
    """Epoch stores use the one-shot layout: the agg sink holds exactly
    one row per real point plus one per carried fill / stale marker
    (fills of a row from an earlier epoch, stored as flagged points),
    and every epoch block row carries a runs section over exactly those
    stored points."""
    import pyarrow.compute as pc

    from vertex_ray.pipelines.epoch_pipeline import (
        epoch_dirs,
        read_epochs_stage,
        run_pipeline_epochs,
    )
    from vertex_ray.state.checkpoint import stage_files

    epo = str(tmp_path / "epochs")
    run_pipeline_epochs(micro_transcripts, epo, epoch_seconds=3600,
                        n_buckets=4, tiers=TIERS_SMALL)

    def raw(stage):
        return pa.concat_tables([
            pq.read_table(f) for e in epoch_dirs(epo)
            for f in stage_files(os.path.join(e, stage))])

    sink = raw("agg")
    carried = pc.or_(sink["filled"], sink["stale"])
    n_carried = pc.sum(carried.cast(pa.int64())).as_py()
    assert n_carried > 0
    assert pc.all(pc.equal(pc.filter(sink["fill_runs"], carried), 0)).as_py()
    dense = read_epochs_stage(epo, "agg").to_pandas()
    n_real = int((~dense.filled & ~dense.stale).sum())
    assert len(dense) > sink.num_rows
    assert sink.num_rows == n_real + n_carried

    run_len = pc.binary_length(raw("blocks")["runs"]).to_numpy()
    assert (run_len >= 4).all()
    assert int(((run_len - 4) // 2).sum()) == sink.num_rows


def test_sf0001_epoch_equals_oneshot(ray_session, tmp_path, force_ingest):
    from vertex_ray.pipelines.epoch_pipeline import read_epochs_stage
    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks, read_stage
    from vertex_ray.synth import ensure_transcripts

    trans = ensure_transcripts("/root/testdata/sf0.001")
    for executor in ("ray", "driver"):
        force_ingest(executor)
        a, b, one, epo = _run_both(
            trans, str(tmp_path / executor), TIERS_SMALL,
            epoch_seconds=86_400, n_buckets=8
        )
        _assert_bitwise_equal(a, b)

        # Gorilla blocks: epoch blocks decode to the same points as one-shot
        da = _decoded_frame(decode_tier_blocks(read_stage(one, "blocks", "1m")))
        db = _decoded_frame(decode_tier_blocks(
            read_epochs_stage(epo, "blocks", "1m")))
        _assert_bitwise_equal(da, db)


def _decoded_frame(ds) -> pd.DataFrame:
    df = ds.to_pandas()
    df = df.sort_values(["series_key", "window_start"], kind="stable")
    return df.reset_index(drop=True)


def test_epoch_resume_and_lineage(ray_session, micro_transcripts, tmp_path):
    import shutil

    from vertex_ray.pipelines.epoch_pipeline import (
        epoch_dirs,
        read_epochs_stage,
        run_pipeline_epochs,
    )

    out = str(tmp_path / "epochs")
    run_pipeline_epochs(micro_transcripts, out, 3600, n_buckets=4, tiers=TIERS_SMALL)
    want = _agg_frame(read_epochs_stage(out, "agg"))

    # kill-and-resume: wipe the final epoch; rerun must rebuild only it
    dirs = epoch_dirs(out)
    assert len(dirs) == 4
    shutil.rmtree(dirs[-1])
    m = run_pipeline_epochs(
        micro_transcripts, out, 3600, n_buckets=4, tiers=TIERS_SMALL
    )
    got = _agg_frame(read_epochs_stage(out, "agg"))
    _assert_bitwise_equal(want, got)

    # changed lineage (different bucketing) must recompute, not reuse
    run_pipeline_epochs(micro_transcripts, out, 3600, n_buckets=2, tiers=TIERS_SMALL)
    got2 = _agg_frame(read_epochs_stage(out, "agg"))
    assert sorted(got2["series_key"].unique()) == sorted(want["series_key"].unique())
    b2 = got2[["tier", "series_key", "window_start", "sum"]]
    w2 = want[["tier", "series_key", "window_start", "sum"]]
    _assert_bitwise_equal(w2, b2)


def test_resume_keeps_committed_width(ray_session, micro_transcripts, tmp_path):
    """n_buckets=None resumes a store at the width of its first committed
    epoch, not at the width the session would pick for a new store (64 at
    4 CPUs): the rerun recomputes nothing."""
    import glob

    from vertex_ray.pipelines.epoch_pipeline import (
        committed_n_buckets,
        run_pipeline_epochs,
    )

    out = str(tmp_path / "epochs")
    assert committed_n_buckets(out) is None
    run_pipeline_epochs(micro_transcripts, out, 3600, n_buckets=8, tiers=TIERS_SMALL)
    manifests = sorted(glob.glob(os.path.join(out, "epoch-*", "*", "manifest.json")))
    assert len(manifests) == 4 * 3
    mtimes = [os.stat(p).st_mtime_ns for p in manifests]

    m = run_pipeline_epochs(micro_transcripts, out, 3600, tiers=TIERS_SMALL)
    assert {v["lineage"]["n_buckets"] for v in m.values()} == {8}
    assert [os.stat(p).st_mtime_ns for p in manifests] == mtimes


def test_nonmonotonic_ts_raises():
    """The epoch kernel refuses per-conv ts that decrease in turn order
    (would silently break one-shot parity)."""
    import numpy as np

    from vertex_ray.stages.kernel_epoch import epoch_kernel

    conv = np.array(["x", "x"], dtype=object)
    ti = np.array([0, 1], dtype=np.int64)
    rc = np.zeros(2, np.uint8)
    tc = np.zeros(2, np.uint8)
    ts = np.array([(E0 + 100) * 10**6, (E0 + 50) * 10**6], dtype=np.int64)
    import pytest as _pt

    with _pt.raises(ValueError, match="ts-monotonic"):
        epoch_kernel(conv, ti, rc, tc, ts, None, TIERS_SMALL,
                     E0, E0 + 3600, E0 + 3599, bucket_id=0)


def test_state_stays_bounded(ray_session, micro_transcripts, tmp_path):
    """Series carry rows are pruned once their stale marker has been
    emitted — state does not accumulate dead series."""
    from vertex_ray.pipelines.epoch_pipeline import epoch_dirs
    from vertex_ray.pipelines.epoch_pipeline import run_pipeline_epochs
    from vertex_ray.stages.kernel_epoch import STATE_SERIES
    import pyarrow.dataset as pads

    out = str(tmp_path / "epochs")
    run_pipeline_epochs(micro_transcripts, out, 3600, n_buckets=4, tiers=TIERS_SMALL)
    dirs = epoch_dirs(out)
    state_dir = os.path.join(dirs[-1], "state")
    parts = [
        os.path.join(state_dir, f)
        for f in os.listdir(state_dir)
        if f.endswith(".parquet")
    ]
    ser = pads.dataset(parts).to_table().to_pandas()
    ser = ser[ser.stype == STATE_SERIES]
    # conv c went silent in epoch 0; by the final epoch its series must
    # have been pruned from the carry state (stale already emitted)
    assert not ser["conv_id"].eq("c").any()


def test_compact_blocks_bitwise(ray_session, micro_transcripts, tmp_path):
    """TSDB-style compaction of the epoch store: fewer blocks (one per
    series x tier under the cap), decoded points bit-for-bit identical —
    including stale-NaN payloads; the windows cap splits long series into
    consecutive blocks without changing any point."""
    from vertex_ray.pipelines.epoch_pipeline import (
        read_epochs_stage,
        run_pipeline_epochs,
    )
    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.stages.compact import compact_blocks

    epo = os.path.join(str(tmp_path), "epochs")
    run_pipeline_epochs(micro_transcripts, epo, epoch_seconds=3600,
                        n_buckets=4, tiers=TIERS_SMALL)
    blocks = read_epochs_stage(epo, "blocks")
    n_before = blocks.count()

    comp = compact_blocks(blocks).materialize()
    n_after = comp.count()
    assert n_after < n_before
    per = comp.to_pandas().groupby(["series_key", "tier"]).size()
    assert per.max() == 1  # one block per (series, tier)

    def points(bds):
        return _agg_frame(decode_tier_blocks(bds))

    a, b = points(blocks), points(comp)
    _assert_bitwise_equal(a, b)

    # cap forces multiple consecutive blocks per series; points unchanged
    capped = compact_blocks(blocks, max_block_windows=3).materialize()
    assert capped.count() > n_after
    _assert_bitwise_equal(a, points(capped))


def test_retention_after_compaction(ray_session, micro_transcripts, tmp_path):
    """Lifecycle composition: epoch store → compact → retention GC on the
    compacted store. Retained points equal retention applied to the
    original epoch store directly (order-insensitive, bit-for-bit)."""
    import posixpath

    from vertex_ray.pipelines.epoch_pipeline import (
        epoch_dirs,
        read_epochs_stage,
        run_pipeline_epochs,
    )
    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks, read_stage
    from vertex_ray.schema import TIER_SECONDS
    from vertex_ray.stages.compact import compact_blocks
    from vertex_ray.stages.retention import apply_retention
    from vertex_ray.state.checkpoint import stage_files, write_stage

    epo = os.path.join(str(tmp_path), "epochs")
    m = run_pipeline_epochs(micro_transcripts, epo, epoch_seconds=3600,
                            n_buckets=4, tiers=TIERS_SMALL)
    # commit the compacted store like the CLI does
    comp_root = os.path.join(str(tmp_path), "compacted")
    write_stage(compact_blocks(read_epochs_stage(epo, "blocks")),
                os.path.join(comp_root, "blocks"), {"compacted_from": epo})

    now_s = E0 + 5 * 3600
    horizons = {"1m": 3600, "5m": 2 * 3600}
    tiers = dict(TIER_SECONDS)
    ret_a = apply_retention(comp_root, os.path.join(str(tmp_path), "gc_a"),
                            horizons, now_s=now_s, tier_seconds=tiers)
    epoch_files = [f for ed in epoch_dirs(epo)
                   for f in stage_files(posixpath.join(ed, "blocks"))]
    ret_b = apply_retention(epo, os.path.join(str(tmp_path), "gc_b"),
                            horizons, now_s=now_s, tier_seconds=tiers,
                            src_files=epoch_files)

    import ray.data as rd

    def points(root):
        return _agg_frame(decode_tier_blocks(read_stage(root, "blocks")))

    a = points(os.path.join(str(tmp_path), "gc_a"))
    b = points(os.path.join(str(tmp_path), "gc_b"))
    assert len(a) > 0
    _assert_bitwise_equal(a, b)


def test_query_facade_over_epoch_store(ray_session, micro_transcripts,
                                       tmp_path):
    """query_range(layout="epochs") reads the time-chunked store through
    the same façade: real rows equal the decode of all epoch blocks."""
    import pandas as pd
    import pyarrow.compute as pc

    from vertex_ray.pipelines.epoch_pipeline import (
        read_epochs_stage,
        run_pipeline_epochs,
    )
    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.read import query_range

    out = os.path.join(str(tmp_path), "epochs")
    run_pipeline_epochs(micro_transcripts, out, epoch_seconds=3600,
                        n_buckets=4, tiers=TIERS_SMALL)
    cols = ["series_key", "window_start", "count"]
    got = (query_range(out, "1m", metric="turns_total", columns=cols,
                       layout="epochs").to_pandas()
           .sort_values(cols).reset_index(drop=True))

    def shape(t):
        m = pc.and_(pc.invert(t["filled"]), pc.invert(t["stale"]))
        t = t.filter(pc.and_(m, pc.equal(t["name"], "turns_total")))
        t = t.select(cols)
        i = t.schema.get_field_index("count")
        return t.set_column(i, "count", pc.cast(t["count"], pa.int64()))

    want = (decode_tier_blocks(read_epochs_stage(out, "blocks", "1m"))
            .map_batches(shape, batch_format="pyarrow").to_pandas()
            .sort_values(cols).reset_index(drop=True))
    assert len(got) > 0
    pd.testing.assert_frame_equal(got, want)


def test_query_range_stitched(ray_session, micro_transcripts, tmp_path):
    """Stitched cross-tier read: the union of an explicit coarse read
    (< boundary) and fine read (>= boundary), with per-row tier
    provenance; misaligned boundaries are rejected."""
    from vertex_ray.pipelines.rollup_pipeline import run_pipeline
    from vertex_ray.read import query_range, query_range_stitched

    out = os.path.join(str(tmp_path), "oneshot")
    run_pipeline(micro_transcripts, out, n_buckets=4, tiers=TIERS_SMALL)
    tiers = {"1m": 60, "5m": 300}
    boundary = E0 + 2 * 3600  # 5m-aligned
    cols = ["series_key", "window_start", "count"]
    got = (query_range_stitched(out, "5m", "1m", boundary,
                                metric="turns_total", columns=cols,
                                tiers=tiers)
           .to_pandas().sort_values(cols).reset_index(drop=True))
    coarse = query_range(out, "5m", metric="turns_total", columns=cols,
                         end=boundary - 1).to_pandas()
    fine = query_range(out, "1m", metric="turns_total", columns=cols,
                       start=boundary).to_pandas()
    assert (got[got.tier == "5m"].window_start < boundary).all()
    assert (got[got.tier == "1m"].window_start >= boundary).all()
    want = pd.concat([coarse.assign(tier="5m"), fine.assign(tier="1m")])
    want = want.sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)
    assert len(got) > 0 and got.tier.nunique() == 2
    # no window double-served: coarse windows all strictly below boundary,
    # and every fine window at/above it
    with pytest.raises(ValueError, match="not aligned"):
        query_range_stitched(out, "5m", "1m", boundary + 60,
                             metric="turns_total", tiers=tiers)
    with pytest.raises(ValueError, match="finer"):
        query_range_stitched(out, "1m", "5m", boundary, tiers=tiers)


def test_point_read_fast_path(ray_session, micro_transcripts, tmp_path):
    """conv_id point read (one hash-bucket part file per store) returns
    exactly what the full-scan regex selector returns — on both layouts,
    including a conv whose bucket file may not exist (fallback)."""
    import re

    from vertex_ray.pipelines.epoch_pipeline import run_pipeline_epochs
    from vertex_ray.pipelines.rollup_pipeline import run_pipeline
    from vertex_ray.read import query_range

    one = os.path.join(str(tmp_path), "oneshot")
    epo = os.path.join(str(tmp_path), "epochs")
    run_pipeline(micro_transcripts, one, n_buckets=4, tiers=TIERS_SMALL)
    run_pipeline_epochs(micro_transcripts, epo, epoch_seconds=3600,
                        n_buckets=4, tiers=TIERS_SMALL)
    cols = ["series_key", "window_start", "count"]
    for store, layout in [(one, "oneshot"), (epo, "epochs")]:
        for conv in ["a", "e", "nosuchconv"]:
            point = query_range(store, "1m", metric="turns_total",
                                conv_id=conv, columns=cols,
                                layout=layout).to_pandas()
            rex = query_range(store, "1m", metric="turns_total",
                              key_regex=rf"\{{conv_id={re.escape(conv)}[,}}]",
                              columns=cols, layout=layout).to_pandas()
            assert (len(point) > 0) == (conv != "nosuchconv")
            assert len(point) == len(rex)
            if len(point):
                pd.testing.assert_frame_equal(
                    point.sort_values(cols).reset_index(drop=True),
                    rex.sort_values(cols).reset_index(drop=True))


def test_point_read_falls_back_on_compacted_store(ray_session,
                                                  micro_transcripts,
                                                  tmp_path):
    """A compacted store's files aren't bucket-addressed (write_stage
    commit, no n_buckets lineage) — the point read must detect that and
    fall back to the full scan rather than crash or silently miss
    data."""
    from vertex_ray.pipelines.epoch_pipeline import (
        read_epochs_stage,
        run_pipeline_epochs,
    )
    from vertex_ray.read import query_range
    from vertex_ray.stages.compact import compact_blocks
    from vertex_ray.state.checkpoint import write_stage

    epo = os.path.join(str(tmp_path), "epochs")
    run_pipeline_epochs(micro_transcripts, epo, epoch_seconds=3600,
                        n_buckets=4, tiers=TIERS_SMALL)
    comp = os.path.join(str(tmp_path), "compacted")
    write_stage(compact_blocks(read_epochs_stage(epo, "blocks")),
                os.path.join(comp, "blocks"), {"compacted_from": epo})
    cols = ["series_key", "window_start", "count"]
    point = (query_range(comp, "1m", metric="turns_total", conv_id="a",
                         columns=cols).to_pandas()
             .sort_values(cols).reset_index(drop=True))
    rex = (query_range(epo, "1m", metric="turns_total",
                       key_regex=r"\{conv_id=a[,}]", columns=cols,
                       layout="epochs").to_pandas()
           .sort_values(cols).reset_index(drop=True))
    assert len(point) > 0
    pd.testing.assert_frame_equal(point, rex)


def test_promql_parser_over_epoch_store(ray_session, micro_transcripts,
                                        tmp_path):
    """The PromQL text front-end reads the time-chunked epoch store
    unchanged: eval_promql(layout="epochs") equals the same aggregation
    built from the plain layout read."""
    import pandas as pd

    from vertex_ray.pipelines.epoch_pipeline import run_pipeline_epochs
    from vertex_ray.promql_lang import eval_promql
    from vertex_ray.read import query_range

    out = os.path.join(str(tmp_path), "epochs_pql")
    run_pipeline_epochs(micro_transcripts, out, epoch_seconds=3600,
                        n_buckets=4, tiers=TIERS_SMALL)
    got = (eval_promql(out, "sum by (role) (increase(turns_total[1m]))",
                       layout="epochs").to_pandas()
           .sort_values(["role", "window_start"]).reset_index(drop=True))
    base = query_range(out, "1m", metric="turns_total",
                       columns=["series_key", "window_start", "count"],
                       layout="epochs").to_pandas()
    base["role"] = base.series_key.str.extract(r"role=([^,}]*)")
    want = (base.groupby(["role", "window_start"])["count"].sum()
            .reset_index().rename(columns={"count": "value"})
            .sort_values(["role", "window_start"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_compacted_epoch_store_equals_oneshot_blocks(ray_session,
                                                     micro_transcripts,
                                                     tmp_path):
    """Compaction folds the fills an epoch carried as stored points back
    into run codes: every (tier, series) block of the compacted epoch
    store is byte-identical to the one-shot store's at the same width."""
    from vertex_ray.pipelines.epoch_pipeline import (
        read_epochs_stage,
        run_pipeline_epochs,
    )
    from vertex_ray.pipelines.rollup_pipeline import read_stage, run_pipeline
    from vertex_ray.stages.compact import compact_blocks

    one = str(tmp_path / "oneshot")
    epo = str(tmp_path / "epochs")
    run_pipeline(micro_transcripts, one, n_buckets=4, tiers=TIERS_SMALL)
    run_pipeline_epochs(micro_transcripts, epo, epoch_seconds=3600,
                        n_buckets=4, tiers=TIERS_SMALL)
    cols = ["ts_block", "val_blocks", "runs", "flags", "n_points"]

    def by_key(ds):
        df = ds.to_pandas()
        assert not df.duplicated(["tier", "series_key"]).any()
        return {(r["tier"], r["series_key"]): [r[c] if c != "val_blocks"
                                               else list(r[c]) for c in cols]
                for _, r in df.iterrows()}

    want = by_key(read_stage(one, "blocks"))
    got = by_key(compact_blocks(read_epochs_stage(epo, "blocks")))
    assert got.keys() == want.keys()
    # the epoch store did hold carried fills as flagged stored points
    assert set(read_epochs_stage(epo, "blocks").to_pandas()["flags"]) != {b""}
    for k in want:
        assert got[k] == want[k], k
