"""Retention GC over the block store: per-tier horizons, file/block-level
drop, boundary-block rewrite, bit-for-bit equality with decode-then-filter,
idempotent committed stage with policy lineage."""

import os

import numpy as np
import pandas as pd
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pytest

from vertex_ray.schema import TIER_SECONDS
from vertex_ray.state.checkpoint import read_manifest, stage_files
from vertex_ray.synth import ensure_transcripts


@pytest.fixture(scope="module")
def retained(ray_session, tmp_path_factory):
    from vertex_ray.pipelines.rollup_pipeline import run_pipeline
    from vertex_ray.stages.retention import apply_retention

    trans = ensure_transcripts(0.001, base="/tmp/vertex_ray_testdata")
    out = str(tmp_path_factory.mktemp("tiers_src"))
    manifests = run_pipeline(trans, out, n_buckets=8)
    gend = manifests["blocks"]["lineage"]["global_end_s"]
    dst = str(tmp_path_factory.mktemp("tiers_gc"))
    horizons = {"1m": 86_400, "5m": 86_400}  # 1h/1d unbounded
    apply_retention(out, dst, horizons, now_s=gend,
                    tier_seconds=dict(TIER_SECONDS))
    return out, dst, horizons, gend


def _decode_all(blocks_dir, tier):
    import ray.data as rd

    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks

    ds = rd.read_parquet(stage_files(blocks_dir),
                         filter=pc.field("tier") == tier)
    df = decode_tier_blocks(ds).to_pandas()
    order = ["series_key", "window_start"]
    return df.sort_values(order, kind="stable").reset_index(drop=True)


@pytest.mark.parametrize("tier", ["1m", "5m"])
def test_retained_equals_decode_then_filter(retained, tier):
    out, dst, horizons, gend = retained
    cut = (gend - horizons[tier]) // TIER_SECONDS[tier] * TIER_SECONDS[tier]
    full = _decode_all(os.path.join(out, "blocks"), tier)
    kept = _decode_all(os.path.join(dst, "blocks"), tier)
    exp = full[full["window_start"] >= cut].reset_index(drop=True)
    assert len(kept) == len(exp) > 0
    assert len(kept) < len(full)  # the horizon actually trimmed something
    for c in exp.columns:
        a, b = kept[c].to_numpy(), exp[c].to_numpy()
        if a.dtype.kind == "f":
            # bit-for-bit incl. the stale NaN payload
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), c
        else:
            assert np.array_equal(a, b), c


def test_unbounded_tier_passes_through_byte_identical(retained):
    out, dst, _, _ = retained
    cols = ["series_key", "block_start", "block_end", "n_points",
            "ts_block", "flags"]
    src = (pads.dataset(stage_files(os.path.join(out, "blocks")))
           .to_table(filter=pc.field("tier") == "1h", columns=cols)
           .to_pandas().sort_values(["series_key", "block_start"])
           .reset_index(drop=True))
    gc = (pads.dataset(stage_files(os.path.join(dst, "blocks")))
          .to_table(filter=pc.field("tier") == "1h", columns=cols)
          .to_pandas().sort_values(["series_key", "block_start"])
          .reset_index(drop=True))
    pd.testing.assert_frame_equal(src, gc)


def test_retention_pass_classes():
    """Direct 3-class check on constructed blocks (the flagship stores one
    block per series, so pass-through only arises with time-chunked blocks
    like the epoch store): expired dropped, inside-horizon pass-through
    byte-identical (never re-encoded), straddler truncated."""
    import pyarrow as pa

    from vertex_ray.stages.encode import GorillaEncode, decode_blocks_batch
    from vertex_ray.stages.retention import retention_pass

    def packed(sk, windows, vals):
        off = np.array([0, len(windows)], dtype=np.int32)

        def lst(v, typ):
            return pa.ListArray.from_arrays(off, pa.array(v, type=typ))

        cols = {
            "bucket": pa.array([0], type=pa.int32()),
            "series_key": pa.array([sk]),
            "name": pa.array(["m"]),
            "kind": pa.array([0], type=pa.uint8()),
            "window_starts": lst(np.asarray(windows, np.int64), pa.int64()),
        }
        for s in ["sum", "count", "min", "max", "last"]:
            cols[f"vals_{s}"] = lst(np.asarray(vals, np.float64), pa.float64())
        from vertex_ray.schema import BUCKET_COLS
        for b in BUCKET_COLS:
            cols[f"vals_{b}"] = lst(np.zeros(len(windows)), pa.float64())
        cols["flags"] = lst(np.zeros(len(windows), np.uint8), pa.uint8())
        return pa.table(cols).append_column("tier", pa.array(["1m"]))

    enc = GorillaEncode()
    expired = enc(packed("dead", [0, 60], [1.0, 2.0]))
    inside = enc(packed("live", [600, 660], [3.0, 4.0]))
    straddle = enc(packed("edge", [60, 120, 600], [5.0, 6.0, 7.0]))
    blocks = pa.concat_tables([expired, inside, straddle])

    out = retention_pass(blocks, {"1m": 300})
    keys = out["series_key"].to_pylist()
    assert "dead" not in keys and set(keys) == {"live", "edge"}
    # pass-through byte-identical
    live_row = out.filter(pc.equal(out["series_key"], "live"))
    assert live_row["ts_block"].to_pylist() == inside["ts_block"].to_pylist()
    assert live_row["val_blocks"].to_pylist() == inside["val_blocks"].to_pylist()
    # straddler truncated to windows >= 300
    dec = decode_blocks_batch(out.filter(pc.equal(out["series_key"], "edge")))
    assert dec["window_start"].to_pylist() == [600]
    assert dec["sum"].to_pylist() == [7.0]
    edge_row = out.filter(pc.equal(out["series_key"], "edge"))
    assert edge_row["block_start"].to_pylist() == [600]
    assert edge_row["block_end"].to_pylist() == [600]


def test_rerun_idempotent_and_policy_change_recomputes(retained, ray_session):
    from vertex_ray.stages.retention import apply_retention

    out, dst, horizons, gend = retained
    m1 = read_manifest(os.path.join(dst, "blocks"))
    m2 = apply_retention(out, dst, horizons, now_s=gend,
                         tier_seconds=dict(TIER_SECONDS))
    assert m2["files"] == m1["files"]  # resume: skipped, same commit
    # tighter policy into the SAME dst must recompute, not reuse
    tighter = {"1m": 43_200}
    m3 = apply_retention(out, dst, tighter, now_s=gend,
                         tier_seconds=dict(TIER_SECONDS))
    assert m3["lineage"]["horizons"] == {"1m": 43_200}
    kept = _decode_all(os.path.join(dst, "blocks"), "1m")
    cut = (gend - 43_200) // 60 * 60
    assert (kept["window_start"] >= cut).all()


def test_per_metric_horizons():
    """Per-metric retention overrides: with the tier default at 300 but
    metric 'keep' overridden to horizon 0-cut (keep everything), only
    the non-overridden metric's old windows are GC'd; overridden
    straddlers truncate at their own cut."""
    import pyarrow as pa

    from vertex_ray.stages.encode import GorillaEncode, decode_blocks_batch
    from vertex_ray.stages.retention import retention_pass

    def packed(sk, name, windows, vals):
        off = np.array([0, len(windows)], dtype=np.int32)

        def lst(v, typ):
            return pa.ListArray.from_arrays(off, pa.array(v, type=typ))

        cols = {
            "bucket": pa.array([0], type=pa.int32()),
            "series_key": pa.array([sk]),
            "name": pa.array([name]),
            "kind": pa.array([0], type=pa.uint8()),
            "window_starts": lst(np.asarray(windows, np.int64), pa.int64()),
        }
        for s in ["sum", "count", "min", "max", "last"]:
            cols[f"vals_{s}"] = lst(np.asarray(vals, np.float64),
                                    pa.float64())
        from vertex_ray.schema import BUCKET_COLS
        for b in BUCKET_COLS:
            cols[f"vals_{b}"] = lst(np.zeros(len(windows)), pa.float64())
        cols["flags"] = lst(np.zeros(len(windows), np.uint8), pa.uint8())
        return pa.table(cols).append_column("tier", pa.array(["1m"]))

    enc = GorillaEncode()
    blocks = pa.concat_tables([
        enc(packed("a", "gc_me", [0, 60], [1.0, 2.0])),      # expired
        enc(packed("b", "keep", [0, 60], [3.0, 4.0])),       # saved by override
        enc(packed("c", "gc_me", [60, 600], [5.0, 6.0])),    # straddles default
        enc(packed("d", "keep", [60, 600], [7.0, 8.0])),     # override: whole
    ])
    out = retention_pass(blocks, {"1m": 300},
                         name_cutoffs={("keep", "1m"): -10**9})
    keys = sorted(out["series_key"].to_pylist())
    assert keys == ["b", "c", "d"]
    dec = decode_blocks_batch(out).to_pandas()
    got = {k: sorted(g.window_start) for k, g in dec.groupby("series_key")}
    assert got == {"b": [0, 60], "c": [600], "d": [60, 600]}
    # override in the other direction: tighter cut for 'keep' only
    out2 = retention_pass(blocks, {"1m": 0},
                          name_cutoffs={("keep", "1m"): 300})
    dec2 = decode_blocks_batch(out2).to_pandas()
    got2 = {k: sorted(g.window_start) for k, g in dec2.groupby("series_key")}
    assert got2 == {"a": [0, 60], "c": [60, 600], "d": [600]}


def test_straddler_of_run_coded_store_keeps_runs():
    """A retention rewrite keeps the run-coded layout: the truncated row
    still carries a runs section (the surviving real point keeps its
    code), fills whose real source was cut off stay stored as flagged
    points, and the decoded points are the source's minus the cut."""
    import pyarrow as pa

    from vertex_ray.stages.encode import GorillaEncode, decode_blocks_batch
    from vertex_ray.stages.kernel import (
        fill_runs,
        pack_arrays_virtual,
        window_agg,
    )
    from vertex_ray.stages.retention import retention_pass

    # gauge series (metric 3): real windows 0 and 600, end at 1200 →
    # fills 60..300 + stale 360 after w0; fills 660..900 + stale 960
    uid = np.full(2, 3 << 40, dtype=np.int64)
    agg = window_agg(uid, np.array([0, 600_000_000]), np.array([4.0, 7.0]),
                     60, False)
    packed = pack_arrays_virtual(agg, fill_runs(agg, 60, 1200),
                                 np.array(["c"], dtype=object), 0, 60)
    src = GorillaEncode()(packed.append_column("tier", pa.array(["1m"])))
    assert src["flags"].to_pylist() == [b""]

    out = retention_pass(src, {"1m": 120})
    runs, flags = out["runs"][0].as_py(), out["flags"][0].as_py()
    assert int.from_bytes(runs[:4], "little") == 60
    # stored: fills 120..300, stale 360 (orphans, code 0), real 600
    assert np.frombuffer(runs[4:], "<u2").tolist() == [0] * 5 + [5 | 1 << 15]
    assert flags
    want = decode_blocks_batch(src).filter(
        pc.greater_equal(decode_blocks_batch(src)["window_start"], 120))
    got = decode_blocks_batch(out)
    assert got.num_rows == want.num_rows == 12
    for name in want.column_names:
        a = want[name].to_numpy(zero_copy_only=False)
        b = got[name].to_numpy(zero_copy_only=False)
        if a.dtype.kind == "f":
            a, b = a.view(np.uint64), b.view(np.uint64)
        np.testing.assert_array_equal(a, b, err_msg=name)
