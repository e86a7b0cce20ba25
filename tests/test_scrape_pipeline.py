"""Scrape-to-store pipeline: exposition text → normalize (absolute→
incremental, counter-reset + first-sample rules) → windowed delta
rollup → Gorilla block rows, decoded back."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from vertex_ray.pipelines.scrape_pipeline import scrape_counters_to_store


def _lines(rows):
    return rd.from_arrow(pa.table({"text": rows}))


def _decoded(blocks, col="sum"):
    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks

    df = decode_tier_blocks(blocks).to_pandas()
    return {(r.series_key, int(r.window_start)): float(getattr(r, col))
            for r in df.itertuples()}


def test_scrape_counters_roundtrip(ray_session):
    # series a: cumulative 10, 13, 20, 22 at 0s/10s/70s/80s
    #   deltas: (first drops), 3@10s, 7@70s, 2@80s
    #   windows (60s): w0 = 3, w60 = 9
    # series b: reset mid-stream: 5, 8, 2, 6 → deltas 3, 2(reset), 4
    rows = [
        '# TYPE requests_total counter',
        'requests_total{job="a"} 10 0',
        'requests_total{job="a"} 13 10000',
        'requests_total{job="b"} 5 0',
        'requests_total{job="a"} 20 70000',
        'requests_total{job="b"} 8 10000',
        'requests_total{job="b"} 2 70000',
        'requests_total{job="a"} 22 80000',
        'requests_total{job="b"} 6 80000',
        'other_metric{job="a"} 99 0',  # different family: filtered out
    ]
    blocks = scrape_counters_to_store(
        _lines(rows), metric="requests_total", window_s=60, tier="1m",
        n_buckets=4)
    got = _decoded(blocks)
    assert got == {
        ("requests_total{job=a}", 0): 3.0,
        ("requests_total{job=a}", 60): 9.0,
        ("requests_total{job=b}", 0): 3.0,
        ("requests_total{job=b}", 60): 6.0,  # 2 (reset) + 4
    }


def test_scrape_single_sample_series_emits_nothing(ray_session):
    rows = ['m_total{job="solo"} 7 0']
    blocks = scrape_counters_to_store(_lines(rows), metric="m_total",
                                      n_buckets=2)
    assert blocks.count() == 0


def test_scrape_ms_tie_determinism(ray_session):
    # two samples with the SAME ts_ms: the cumulative value is the tie
    # breaker, so the diff order is the construction order
    rows = [
        'c_total{job="t"} 1 0',
        'c_total{job="t"} 4 5000',
        'c_total{job="t"} 9 5000',
    ]
    got = _decoded(scrape_counters_to_store(_lines(rows), metric="c_total",
                                            n_buckets=2))
    assert got == {("c_total{job=t}", 0): 8.0}  # (4-1) + (9-4)


def test_scrape_gauge_window_last(ray_session):
    # gauge merge = replace: last sample in each window wins; a single
    # sample DOES emit (no first-drop rule for gauges)
    rows = [
        'temp{host="x"} 1.5 0',
        'temp{host="x"} 2.5 30000',   # same window: replaced below? no — 2.5 is last of w0
        'temp{host="x"} -4.0 61000',
        'temp{host="y"} 9.0 5000',
    ]
    from vertex_ray.pipelines.scrape_pipeline import scrape_to_store

    got = _decoded(scrape_to_store(_lines(rows), metric="temp",
                                   kind="gauge", n_buckets=2), col="last")
    assert got == {
        ("temp{host=x}", 0): 2.5,
        ("temp{host=x}", 60): -4.0,
        ("temp{host=y}", 0): 9.0,
    }


def _hist_lines(job, ts_ms, count, total, cum):
    from vertex_ray.schema import DEFAULT_BUCKETS

    ls = [f'rt_count{{job="{job}"}} {count} {ts_ms}',
          f'rt_sum{{job="{job}"}} {total} {ts_ms}']
    for u, c in zip(DEFAULT_BUCKETS, cum):
        ls.append(f'rt_bucket{{job="{job}",le="{u}"}} {c} {ts_ms}')
    ls.append(f'rt_bucket{{job="{job}",le="+Inf"}} {count} {ts_ms}')
    return ls


def test_scrape_histogram_deltas_and_reset(ray_session):
    import numpy as np
    import pandas as pd

    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.pipelines.scrape_pipeline import scrape_to_store
    from vertex_ray.schema import DEFAULT_BUCKETS_ARR

    def cum(*obs):
        o = np.asarray(obs, dtype=np.float64)
        return [(o[:, None] <= DEFAULT_BUCKETS_ARR).sum(0)[i]
                for i in range(len(DEFAULT_BUCKETS_ARR))]

    # scrape 0: count=2 sum=0.3 obs {0.1, 0.2}; scrape 1 (w0): +1 obs 5.0
    # scrape 2 (w60): counter RESET — fresh process, obs {0.01}
    rows = (_hist_lines("a", 0, 2, 0.3, cum(0.1, 0.2))
            + _hist_lines("a", 30000, 3, 5.3, cum(0.1, 0.2, 5.0))
            + _hist_lines("a", 61000, 1, 0.01, cum(0.01)))
    blocks = scrape_to_store(_lines(rows), metric="rt", kind="histogram",
                             n_buckets=2)
    df = decode_tier_blocks(blocks).to_pandas()
    df = df.set_index("window_start")
    # first scrape drops; w0 delta = scrape1 - scrape0; w60 = reset row
    assert df.loc[0, "count"] == 1 and df.loc[60, "count"] == 1
    assert df.loc[0, "sum"] == 5.0 and df.loc[60, "sum"] == 0.01
    # obs 5.0 lands in the le=5.0 and le=10.0 cumulative buckets
    assert df.loc[0, "b09"] == 1 and df.loc[0, "b10"] == 1
    assert df.loc[0, "b08"] == 0
    # reset row: cumulative vector of the fresh process (obs 0.01 ≤ all)
    assert df.loc[60, "b01"] == 1 and df.loc[60, "b10"] == 1
    assert df.loc[60, "b00"] == 0
    assert (df["kind"] == 2).all()


def test_scrape_histogram_rejects_foreign_layout(ray_session):
    import pytest

    from vertex_ray.pipelines.scrape_pipeline import scrape_to_store

    rows = [
        'rt_count{job="a"} 1 0', 'rt_sum{job="a"} 1.0 0',
        'rt_bucket{job="a",le="7.5"} 1 0',
        'rt_count{job="a"} 2 60000', 'rt_sum{job="a"} 2.0 60000',
        'rt_bucket{job="a",le="7.5"} 2 60000',
    ]
    with pytest.raises(Exception, match="store layout"):
        scrape_to_store(_lines(rows), metric="rt", kind="histogram",
                        n_buckets=2).materialize()


def test_scrape_payload_mixed_kinds(ray_session):
    # kinds derived from # TYPE lines; summary quantile streams land as
    # KIND_SUMMARY series (quantile label back in the key), its
    # cumulative _sum/_count as counter series; untyped name falls back
    # to gauge
    rows = [
        '# TYPE requests_total counter',
        '# TYPE temp gauge',
        '# TYPE lat summary',
        'requests_total{job="a"} 10 0',
        'requests_total{job="a"} 13 10000',
        'requests_total{job="a"} 20 70000',
        'temp{host="x"} 1.5 0',
        'temp{host="x"} -4.0 61000',
        'lat{quantile="0.5"} 9.9 0',
        'lat_sum 1.0 0', 'lat_count 3 0',
        'lat_sum 2.5 61000', 'lat_count 5 61000',
        'freeform 7.25 5000',               # untyped -> gauge
    ]
    from vertex_ray.pipelines.scrape_pipeline import scrape_payload_to_store

    got = _decoded(scrape_payload_to_store(_lines(rows), n_buckets=4))
    # counters: windowed delta sums land in ``sum``; gauges and summary
    # quantile streams mirror the value into every scalar column so
    # ``sum`` reads them too; _sum/_count first observations emit nothing
    assert got == {
        ("requests_total{job=a}", 0): 3.0,
        ("requests_total{job=a}", 60): 7.0,
        ("temp{host=x}", 0): 1.5,
        ("temp{host=x}", 60): -4.0,
        ("lat{quantile=0.5}", 0): 9.9,
        ("lat_sum{}", 60): 1.5,
        ("lat_count{}", 60): 2.0,
        ("freeform{}", 0): 7.25,
    }


def test_scrape_gauge_fill_locf_and_stale(ray_session):
    # exporter-TTL model on ingest: series stops at w0; with horizon 120s
    # (2 windows) and fill_until 300s → LOCF fills at w60/w120, one stale
    # marker at w180, nothing after
    import numpy as np

    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.pipelines.scrape_pipeline import scrape_to_store
    from vertex_ray.schema import STALE_NAN_BITS

    rows = ['temp{host="x"} 2.5 0']
    blocks = scrape_to_store(_lines(rows), metric="temp", kind="gauge",
                             n_buckets=2, fill_until_s=300,
                             staleness_s=120)
    df = decode_tier_blocks(blocks).to_pandas().set_index("window_start")
    assert sorted(df.index) == [0, 60, 120, 180]
    assert not df.loc[0, "filled"] and not df.loc[0, "stale"]
    assert df.loc[60, "filled"] and df.loc[60, "last"] == 2.5
    assert df.loc[120, "filled"] and df.loc[120, "last"] == 2.5
    assert df.loc[180, "stale"]
    bits = np.float64(df.loc[180, "last"]).view(np.uint64)
    assert bits == STALE_NAN_BITS  # exact Prometheus stale payload


def test_scrape_counter_fill_zero_increment(ray_session):
    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.pipelines.scrape_pipeline import scrape_to_store

    rows = ['c_total{j="a"} 1 0', 'c_total{j="a"} 4 30000']
    blocks = scrape_to_store(_lines(rows), metric="c_total",
                             kind="counter", n_buckets=2,
                             fill_until_s=240, staleness_s=60)
    df = decode_tier_blocks(blocks).to_pandas().set_index("window_start")
    # real delta at w0; one zero-increment LOCF fill at w60; stale at w120
    assert df.loc[0, "sum"] == 3.0 and not df.loc[0, "filled"]
    assert df.loc[60, "filled"] and df.loc[60, "sum"] == 0.0
    assert df.loc[120, "stale"]
    assert sorted(df.index) == [0, 60, 120]


def test_scrape_missing_timestamps_require_scrape_time(ray_session):
    import pytest

    from vertex_ray.pipelines.scrape_pipeline import scrape_to_store

    rows = ['up{job="a"} 1', 'up{job="a"} 1 60000']  # first has no ts
    with pytest.raises(Exception, match="scrape time|without timestamps"):
        scrape_to_store(_lines(rows), metric="up", kind="gauge",
                        n_buckets=2).materialize()
    # with the scrape-time rule applied they land in real windows
    got = _decoded(scrape_to_store(_lines(rows), metric="up", kind="gauge",
                                   n_buckets=2, default_ts_ms=120_000),
                   col="last")
    assert got == {("up{job=a}", 60): 1.0, ("up{job=a}", 120): 1.0}


def test_scrape_gauge_nan_sample_replaces(ray_session):
    import numpy as np

    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.pipelines.scrape_pipeline import scrape_to_store

    # replace-merge: the LAST sample of the window wins even when NaN
    rows = ['t{h="x"} 1.5 0', 't{h="x"} NaN 30000']
    df = decode_tier_blocks(scrape_to_store(
        _lines(rows), metric="t", kind="gauge", n_buckets=2)).to_pandas()
    assert len(df) == 1 and np.isnan(df["last"].iloc[0])


def test_scrape_summary_first_wins_and_explosion(ray_session):
    """Summary family: quantile streams are their own KIND_SUMMARY series
    under the NO-OP merge (FIRST per window, ties broken by value asc),
    the quantile label merged back into the canonical sorted key;
    _sum/_count route to counter series (first observation emits
    nothing)."""
    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.pipelines.scrape_pipeline import scrape_to_store
    from vertex_ray.schema import KIND_SUM, KIND_SUMMARY

    rows = [
        # window 0: two samples — first (t=1000) wins; window 60: one
        's{job="a",quantile="0.5"} 7.0 1000',
        's{job="a",quantile="0.5"} 9.0 30000',
        's{job="a",quantile="0.5"} 4.0 61000',
        # same-ts tie in window 0 for q0.9: smaller value wins
        's{job="a",quantile="0.9"} 5.0 2000',
        's{job="a",quantile="0.9"} 3.0 2000',
        # cumulative _sum/_count: first sample sets the reference
        's_sum{job="a"} 10.0 1000',
        's_sum{job="a"} 25.0 61000',
        's_count{job="a"} 4 1000',
        's_count{job="a"} 9 61000',
    ]
    df = decode_tier_blocks(scrape_to_store(
        _lines(rows), metric="s", kind="summary",
        n_buckets=2)).to_pandas()
    by = {(r.series_key, int(r.window_start)): r for r in df.itertuples()}
    q5_0 = by[("s{job=a,quantile=0.5}", 0)]
    assert q5_0.last == 7.0 and q5_0.kind == KIND_SUMMARY
    assert by[("s{job=a,quantile=0.5}", 60)].last == 4.0
    assert by[("s{job=a,quantile=0.9}", 0)].last == 3.0
    sm = by[("s_sum{job=a}", 60)]
    assert sm.sum == 15.0 and sm.kind == KIND_SUM
    assert by[("s_count{job=a}", 60)].sum == 5.0
    # first observations emitted nothing in window 0
    assert ("s_sum{job=a}", 0) not in by
    assert ("s_count{job=a}", 0) not in by


def test_scrape_incremental_summary_first_wins(ray_session, tmp_path):
    """Summary across run boundaries: the open window's FIRST value is
    carried (via the last_ts=first-instant convention + the §F4 no-op
    merge), so incremental == one-shot even when a window spans runs."""
    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.pipelines.scrape_incremental import (
        read_scrape_epochs,
        scrape_append,
        scrape_finalize,
    )
    from vertex_ray.pipelines.scrape_pipeline import scrape_to_store

    rows = [
        's{job="a",quantile="0.5"} 7.0 1000',
        's{job="a",quantile="0.5"} 9.0 30000',   # same window, run 2
        's{job="a",quantile="0.5"} 4.0 61000',   # next window, run 2
        's{job="a",quantile="0.5"} 8.0 130000',  # run 3
    ]
    st = str(tmp_path / "st")
    kinds = {"s": "summary"}
    scrape_append(_lines(rows[:1]), st, kinds=kinds, n_buckets=2)
    scrape_append(_lines(rows[1:3]), st, kinds=kinds, n_buckets=2)
    scrape_append(_lines(rows[3:]), st, kinds=kinds, n_buckets=2)
    scrape_finalize(st, kinds=kinds, n_buckets=2)
    inc = decode_tier_blocks(read_scrape_epochs(st)).to_pandas()
    got = {(r.series_key, int(r.window_start)): float(r.last)
           for r in inc.itertuples()}
    one = decode_tier_blocks(scrape_to_store(
        _lines(rows), metric="s", kind="summary", n_buckets=2)).to_pandas()
    want = {(r.series_key, int(r.window_start)): float(r.last)
            for r in one.itertuples()}
    assert got == want == {
        ("s{job=a,quantile=0.5}", 0): 7.0,
        ("s{job=a,quantile=0.5}", 60): 4.0,
        ("s{job=a,quantile=0.5}", 120): 8.0,
    }


def test_scrape_store_without_fills_has_no_sections(ray_session):
    # no fill_until_s: the tier is not gap-filled, so no row carries a
    # runs section, and no row holds a flagged point, so no flags section
    rows = ['g{h="a"} 1.5 0', 'g{h="a"} 2.5 70000', 'g{h="b"} 4.0 10000',
            'c_total{j="a"} 1 0', 'c_total{j="a"} 4 30000']
    from vertex_ray.pipelines.scrape_pipeline import scrape_payload_to_store

    t = scrape_payload_to_store(
        _lines(rows), kinds={"g": "gauge", "c_total": "counter"},
        n_buckets=2).to_pandas()
    assert len(t) == 3
    assert set(t["flags"]) == {b""}
    assert set(t["runs"]) == {b""}


def test_scrape_fill_writes_run_codes_and_checks_horizon(ray_session):
    import pytest

    from vertex_ray.pipelines.scrape_pipeline import scrape_to_store

    rows = ['temp{host="x"} 2.5 0']
    t = scrape_to_store(_lines(rows), metric="temp", kind="gauge",
                        n_buckets=2, fill_until_s=300,
                        staleness_s=120).to_pandas()
    # one stored point whose run code holds the 2 fills + stale marker
    assert list(t["n_points"]) == [4]
    assert list(t["flags"]) == [b""]
    runs = t["runs"].iloc[0]
    assert int.from_bytes(runs[:4], "little") == 60
    assert np.frombuffer(runs[4:], "<u2").tolist() == [2 | 1 << 15]
    # a horizon no run code can hold is refused before any task runs
    with pytest.raises(ValueError, match="run-code range"):
        scrape_to_store(_lines(rows), metric="temp", kind="gauge",
                        window_s=1, fill_until_s=300, staleness_s=40_000)
