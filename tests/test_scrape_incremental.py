"""Incremental scrape ingest (pipelines/scrape_incremental): successive
runs append epochs with carried normalize state; union == batch."""

import numpy as np
import pyarrow as pa
import ray.data as rd


def _lines(rows):
    return rd.from_arrow(pa.table({"text": pa.array(rows,
                                                    type=pa.string())}))


def _mk_stream(seed, kind_prefix, n_series=3, n=60):
    rows = []
    rng = np.random.default_rng(seed)
    for j in range(n_series):
        cum, t = 0, 0
        for _ in range(n):
            cum += int(rng.integers(0, 5))
            t += int(rng.integers(500, 40_000))
            rows.append(f'{kind_prefix}{{job="s{j}"}} {cum} {t}')
    rows.sort(key=lambda s: int(s.rsplit(" ", 1)[1]))
    return rows


def _decoded(store, metric, col):
    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.pipelines.scrape_incremental import read_scrape_epochs

    df = decode_tier_blocks(read_scrape_epochs(store, metric)).to_pandas()
    return {(r.series_key, int(r.window_start)): float(getattr(r, col))
            for r in df.itertuples()}


def test_incremental_counter_equals_batch(ray_session, tmp_path):
    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.pipelines.scrape_incremental import (
        scrape_append,
        scrape_finalize,
    )
    from vertex_ray.pipelines.scrape_pipeline import scrape_to_store

    rows = _mk_stream(3, "req_total")
    want_df = decode_tier_blocks(scrape_to_store(
        _lines(rows), metric="req_total", kind="counter",
        n_buckets=4)).to_pandas()
    want = {(r.series_key, int(r.window_start)): (r.sum, r.count, r.min,
                                                  r.max, r.last)
            for r in want_df.itertuples()}

    store = str(tmp_path / "inc")
    cuts = [0, len(rows) // 3, 2 * len(rows) // 3, len(rows)]
    for a, b in zip(cuts, cuts[1:]):
        scrape_append(_lines(rows[a:b]), store,
                      kinds={"req_total": "counter"}, n_buckets=4)
    scrape_finalize(store, kinds={"req_total": "counter"}, n_buckets=4)

    from vertex_ray.pipelines.scrape_incremental import read_scrape_epochs

    got_df = decode_tier_blocks(
        read_scrape_epochs(store, "req_total")).to_pandas()
    got = {(r.series_key, int(r.window_start)): (r.sum, r.count, r.min,
                                                 r.max, r.last)
           for r in got_df.itertuples()}
    assert got == want
    # one row per (series, window) across ALL epochs
    assert len(got_df) == len(got)


def test_incremental_gauge_and_replay_absorb(ray_session, tmp_path):
    from vertex_ray.pipelines.scrape_incremental import (
        scrape_append,
        scrape_finalize,
    )

    rows = [
        'temp{h="x"} 1.5 0',
        'temp{h="x"} 2.5 30000',
        'temp{h="x"} -4.0 61000',
    ]
    store = str(tmp_path / "inc")
    scrape_append(_lines(rows[:2]), store, kinds={"temp": "gauge"},
                  n_buckets=2)
    # replay of run 1 + the new sample: replayed samples absorb
    scrape_append(_lines(rows), store, kinds={"temp": "gauge"},
                  n_buckets=2)
    scrape_finalize(store, kinds={"temp": "gauge"}, n_buckets=2)
    got = _decoded(store, "temp", "last")
    assert got == {("temp{h=x}", 0): 2.5, ("temp{h=x}", 60): -4.0}


def test_incremental_counter_seeds_across_runs(ray_session, tmp_path):
    # the first sample of run 2 EMITS a delta against run 1's reference
    from vertex_ray.pipelines.scrape_incremental import (
        scrape_append,
        scrape_finalize,
    )

    store = str(tmp_path / "inc")
    scrape_append(_lines(['c_total{j="a"} 10 0']), store,
                  kinds={"c_total": "counter"}, n_buckets=2)
    scrape_append(_lines(['c_total{j="a"} 13 70000']), store,
                  kinds={"c_total": "counter"}, n_buckets=2)
    scrape_finalize(store, kinds={"c_total": "counter"}, n_buckets=2)
    got = _decoded(store, "c_total", "sum")
    assert got == {("c_total{j=a}", 60): 3.0}


def test_incremental_carry_through_idle_run(ray_session, tmp_path):
    # a run where a series gets NO samples must carry its state (and its
    # open window must not emit early)
    from vertex_ray.pipelines.scrape_incremental import (
        scrape_append,
        scrape_finalize,
    )

    store = str(tmp_path / "inc")
    scrape_append(_lines(['g{h="x"} 7.0 0']), store, kinds={"g": "gauge"},
                  n_buckets=2)
    scrape_append(_lines(['other{h="y"} 1.0 5000']), store,
                  kinds={"g": "gauge", "other": "gauge"}, n_buckets=2)
    scrape_finalize(store, kinds={"g": "gauge", "other": "gauge"},
                    n_buckets=2)
    assert _decoded(store, "g", "last") == {("g{h=x}", 0): 7.0}
    assert _decoded(store, "other", "last") == {("other{h=y}", 0): 1.0}


def test_incremental_histogram_across_runs(ray_session, tmp_path):
    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.pipelines.scrape_incremental import (
        read_scrape_epochs,
        scrape_append,
        scrape_finalize,
    )
    from vertex_ray.pipelines.scrape_pipeline import scrape_to_store
    from vertex_ray.schema import DEFAULT_BUCKETS

    def fam(ts_ms, count, total, cum):
        ls = [f'rt_count{{j="a"}} {count} {ts_ms}',
              f'rt_sum{{j="a"}} {total} {ts_ms}']
        for u, c in zip(DEFAULT_BUCKETS, cum):
            ls.append(f'rt_bucket{{j="a",le="{u}"}} {c} {ts_ms}')
        return ls

    def cum(*obs):
        o = np.asarray(obs, dtype=np.float64)
        return [int((o <= u).sum()) for u in DEFAULT_BUCKETS]

    runs = [
        fam(0, 2, 0.75, cum(0.25, 0.5)),
        fam(30000, 3, 5.75, cum(0.25, 0.5, 5.0)),   # same window
        fam(61000, 1, 0.01, cum(0.01)),             # reset, new window
        fam(130000, 2, 0.02, cum(0.01, 0.01)),
    ]
    # batch reference over the whole stream
    all_rows = [r for run in runs for r in run]
    want = decode_tier_blocks(scrape_to_store(
        _lines(all_rows), metric="rt", kind="histogram",
        n_buckets=2)).to_pandas()
    want = want.sort_values("window_start").reset_index(drop=True)

    store = str(tmp_path / "inc")
    for run in runs:
        scrape_append(_lines(run), store, kinds={"rt": "histogram"},
                      n_buckets=2)
    scrape_finalize(store, kinds={"rt": "histogram"}, n_buckets=2)
    got = decode_tier_blocks(read_scrape_epochs(store)).to_pandas()
    got = got.sort_values("window_start").reset_index(drop=True)
    cols = ["series_key", "window_start", "count", "sum"] + [
        f"b{i:02d}" for i in range(11)]
    assert got[cols].equals(want[cols])


def test_incremental_append_after_finalize_rejected(ray_session, tmp_path):
    import pytest

    from vertex_ray.pipelines.scrape_incremental import (
        scrape_append,
        scrape_finalize,
    )

    store = str(tmp_path / "inc")
    scrape_append(_lines(['g{h="x"} 1.0 0']), store, kinds={"g": "gauge"},
                  n_buckets=2)
    scrape_finalize(store, kinds={"g": "gauge"}, n_buckets=2)
    with pytest.raises(ValueError, match="finalized"):
        scrape_append(_lines(['g{h="x"} 2.0 60000']), store,
                      kinds={"g": "gauge"}, n_buckets=2)


def test_incremental_gauge_matches_oneshot_all_columns(ray_session, tmp_path):
    # the carried reference sample replays into its window, and the open
    # partial merges with the re-derived row: gauge merge is replace, so
    # neither may add to the window's sum/count
    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.pipelines.scrape_incremental import (
        read_scrape_epochs,
        scrape_append,
        scrape_finalize,
    )
    from vertex_ray.pipelines.scrape_pipeline import scrape_to_store

    rows = ['temp{h="x"} 1.5 0', 'temp{h="x"} 2.5 30000',
            'temp{h="x"} -4.0 61000']
    cols = ["sum", "count", "min", "max", "last"]

    def scalars(df):
        return {int(r.window_start): tuple(float(getattr(r, c)) for c in cols)
                for r in df.itertuples()}

    want = scalars(decode_tier_blocks(scrape_to_store(
        _lines(rows), metric="temp", kind="gauge", n_buckets=2)).to_pandas())
    assert want == {0: (2.5, 1, 2.5, 2.5, 2.5), 60: (-4.0, 1, -4, -4, -4)}
    store = str(tmp_path / "inc")
    scrape_append(_lines(rows[:1]), store, kinds={"temp": "gauge"},
                  n_buckets=2)
    scrape_append(_lines(rows[1:]), store, kinds={"temp": "gauge"},
                  n_buckets=2)
    scrape_finalize(store, kinds={"temp": "gauge"}, n_buckets=2)
    got = scalars(decode_tier_blocks(
        read_scrape_epochs(store, "temp")).to_pandas())
    assert got == want


def _scalars_nan_safe(df):
    cols = ["sum", "count", "min", "max", "last"]
    return {(r.series_key, int(r.window_start)):
            tuple("nan" if np.isnan(float(getattr(r, c)))
                  else float(getattr(r, c)) for c in cols)
            for r in df.itertuples()}


def _oneshot_vs_per_sample(tmp_path, rows, metric, kind):
    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.pipelines.scrape_incremental import (
        read_scrape_epochs,
        scrape_append,
        scrape_finalize,
    )
    from vertex_ray.pipelines.scrape_pipeline import scrape_to_store

    want = _scalars_nan_safe(decode_tier_blocks(scrape_to_store(
        _lines(rows), metric=metric, kind=kind, n_buckets=2)).to_pandas())
    store = str(tmp_path / "inc")
    for row in rows:
        scrape_append(_lines([row]), store, kinds={metric: kind},
                      n_buckets=2)
    scrape_finalize(store, kinds={metric: kind}, n_buckets=2)
    got = _scalars_nan_safe(decode_tier_blocks(
        read_scrape_epochs(store, metric)).to_pandas())
    return want, got


def test_incremental_gauge_nan_poisons_like_oneshot(ray_session, tmp_path):
    # a NaN sample replaces like any other value: the window's five
    # scalars are NaN on both paths (pandas' skipna merge gave sum 0.0)
    want, got = _oneshot_vs_per_sample(
        tmp_path, ['temp{h="x"} 1.5 0', 'temp{h="x"} NaN 30000',
                   'temp{h="x"} -4 61000'], "temp", "gauge")
    nan = "nan"
    assert want[("temp{h=x}", 0)] == (nan, 1.0, nan, nan, nan)
    assert got == want


def test_incremental_counter_nan_poisons_like_oneshot(ray_session, tmp_path):
    # the NaN delta poisons sum/min/max of its window on both paths
    # (pandas' skipna merge gave (6, 3, 1, 5, 5))
    want, got = _oneshot_vs_per_sample(
        tmp_path, ['c_total{j="a"} 1 0', 'c_total{j="a"} 2 10000',
                   'c_total{j="a"} NaN 20000', 'c_total{j="a"} 5 30000',
                   'c_total{j="a"} 7 70000', 'c_total{j="a"} 9 130000'],
        "c_total", "counter")
    nan = "nan"
    assert want[("c_total{j=a}", 0)] == (nan, 3.0, nan, nan, 5.0)
    assert got == want


def test_incremental_resumes_after_killed_append(ray_session, tmp_path):
    # an append killed after opening its parts leaves an uncommitted
    # epoch holding only blocks.__parts__; the retry rebuilds that epoch
    # from its own input, reusing none of the killed run's parts (they
    # came from another input under the same lineage stamp)
    import os
    import shutil

    from vertex_ray.pipelines.scrape_incremental import (
        scrape_append,
        scrape_finalize,
    )

    rows = _mk_stream(5, "req_total")
    cut, kinds = len(rows) // 2, {"req_total": "counter"}
    clean = str(tmp_path / "clean")
    scrape_append(_lines(rows[:cut]), clean, kinds=kinds, n_buckets=4)
    scrape_append(_lines(rows[cut:]), clean, kinds=kinds, n_buckets=4)
    scrape_finalize(clean, kinds=kinds, n_buckets=4)

    store = str(tmp_path / "killed")
    scrape_append(_lines(rows[:cut]), store, kinds=kinds, n_buckets=4)
    scrape_append(_lines(rows[cut:cut + 20]), store, kinds=kinds,
                  n_buckets=4)
    edir = os.path.join(store, "epoch-1")
    parts = os.path.join(edir, "blocks.__parts__")
    os.rename(os.path.join(edir, "blocks"), parts)
    for name in ("manifest.json", "_SUCCESS"):
        os.remove(os.path.join(parts, name))
    for stage in ("agg", "state"):
        shutil.rmtree(os.path.join(edir, stage))
    assert sorted(os.listdir(edir)) == ["blocks.__parts__"]
    assert any(f.endswith(".parquet") for f in os.listdir(parts))

    scrape_append(_lines(rows[cut:]), store, kinds=kinds, n_buckets=4)
    scrape_finalize(store, kinds=kinds, n_buckets=4)
    for col in ("sum", "count", "min", "max", "last"):
        assert (_decoded(store, "req_total", col)
                == _decoded(clean, "req_total", col))
