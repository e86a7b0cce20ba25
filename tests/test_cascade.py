"""Tier cascade over a committed block store (stages/cascade): scraped
1m store -> 5m/1h blocks, merge semantics per FIXTURES §F4."""

import numpy as np
import pyarrow as pa
import ray.data as rd


def _lines(rows):
    return rd.from_arrow(pa.table({"text": rows}))


def test_cascade_counter_and_gauge(ray_session, tmp_path):
    from vertex_ray.pipelines.rollup_pipeline import (
        decode_tier_blocks,
        read_stage,
    )
    from vertex_ray.pipelines.scrape_pipeline import scrape_payload_to_store
    from vertex_ray.stages.cascade import cascade_store
    from vertex_ray.state.checkpoint import write_stage

    rows = [
        "# TYPE c_total counter",
        "# TYPE g gauge",
        # counter: deltas 3@1m, 5@6m, 2@7m -> 5m windows: w0=3, w300=7
        'c_total{j="a"} 10 0',
        'c_total{j="a"} 13 60000',
        'c_total{j="a"} 18 360000',
        'c_total{j="a"} 20 420000',
        # gauge: last in 5m window w0 = 4.5, w300 = -1.0
        'g{h="x"} 2.0 30000',
        'g{h="x"} 4.5 240000',
        'g{h="x"} -1.0 400000',
    ]
    src = str(tmp_path / "src")
    write_stage(scrape_payload_to_store(_lines(rows), n_buckets=2),
                f"{src}/blocks", {})
    dst = str(tmp_path / "dst")
    m = cascade_store(src, dst, tiers=("5m", "1h"))
    assert m["rows"] > 0

    df5 = decode_tier_blocks(read_stage(dst, "blocks", "5m")).to_pandas()
    c5 = df5[df5["series_key"] == "c_total{j=a}"].set_index("window_start")
    assert c5.loc[0, "sum"] == 3.0 and c5.loc[300, "sum"] == 7.0
    assert c5.loc[300, "count"] == 2  # two contributing samples
    g5 = df5[df5["series_key"] == "g{h=x}"].set_index("window_start")
    assert g5.loc[0, "last"] == 4.5 and g5.loc[300, "last"] == -1.0

    df1h = decode_tier_blocks(read_stage(dst, "blocks", "1h")).to_pandas()
    c1h = df1h[df1h["series_key"] == "c_total{j=a}"]
    assert c1h["sum"].tolist() == [10.0] and c1h["count"].tolist() == [3]
    g1h = df1h[df1h["series_key"] == "g{h=x}"]
    assert g1h["last"].tolist() == [-1.0]

    # source tier passes through unchanged
    df1m = decode_tier_blocks(read_stage(dst, "blocks", "1m")).to_pandas()
    assert len(df1m) == len(
        decode_tier_blocks(read_stage(src, "blocks", "1m")).to_pandas())


def test_cascade_histogram_bucket_adds(ray_session, tmp_path):
    from vertex_ray.pipelines.rollup_pipeline import (
        decode_tier_blocks,
        read_stage,
    )
    from vertex_ray.pipelines.scrape_pipeline import scrape_to_store
    from vertex_ray.schema import DEFAULT_BUCKETS
    from vertex_ray.stages.cascade import cascade_store
    from vertex_ray.state.checkpoint import write_stage

    def fam(ts_ms, count, total, cum):
        ls = [f'rt_count{{j="a"}} {count} {ts_ms}',
              f'rt_sum{{j="a"}} {total} {ts_ms}']
        for u, c in zip(DEFAULT_BUCKETS, cum):
            ls.append(f'rt_bucket{{j="a",le="{u}"}} {c} {ts_ms}')
        return ls

    def cum(*obs):
        o = np.asarray(obs, dtype=np.float64)
        return [(o[:, None] <= np.asarray(DEFAULT_BUCKETS)).sum(0)[i]
                for i in range(len(DEFAULT_BUCKETS))]

    rows = (fam(0, 1, 0.25, cum(0.25))
            + fam(60000, 2, 0.75, cum(0.25, 0.5))     # w60: obs 0.5
            + fam(360000, 3, 5.75, cum(0.25, 0.5, 5.0)))  # w360: obs 5.0
    src = str(tmp_path / "src")
    write_stage(scrape_to_store(_lines(rows), metric="rt",
                                kind="histogram", n_buckets=2),
                f"{src}/blocks", {})
    dst = str(tmp_path / "dst")
    cascade_store(dst_dir=dst, src_dir=src, tiers=("5m",))
    df = decode_tier_blocks(read_stage(dst, "blocks", "5m")).to_pandas()
    df = df.set_index("window_start")
    # first scrape drops; 5m windows: w0 holds the w60 delta (obs 0.5),
    # w300 holds the w360 delta (obs 5.0)
    assert df.loc[0, "count"] == 1 and df.loc[0, "sum"] == 0.5
    assert df.loc[300, "count"] == 1 and df.loc[300, "sum"] == 5.0
    # cumulative-le vector adds element-wise: obs 0.5 hits le>=0.5
    assert df.loc[0, "b06"] == 1 and df.loc[0, "b05"] == 0
    assert df.loc[300, "b09"] == 1  # obs 5.0 at le=5.0


def test_scrape_cascade_promql_end_to_end(ray_session, tmp_path):
    """Full loop: whole-payload scrape -> store-level cascade -> the
    PromQL TEXT front-end reads the cascaded 1h tier."""
    from vertex_ray.pipelines.scrape_pipeline import scrape_payload_to_store
    from vertex_ray.promql_lang import eval_promql
    from vertex_ray.stages.cascade import cascade_store
    from vertex_ray.state.checkpoint import write_stage

    rows = ["# TYPE http_total counter"]
    for job, start in (("a", 10), ("b", 5)):
        cum = start
        for i in range(8):
            cum += i + 1
            rows.append(f'http_total{{job="{job}"}} {cum} {i * 600_000}')
    src = str(tmp_path / "src")
    write_stage(scrape_payload_to_store(_lines(rows), n_buckets=2),
                f"{src}/blocks", {})
    dst = str(tmp_path / "dst")
    cascade_store(src, dst, tiers=("5m", "1h"))
    # count = contributing samples per window (exact int64 — what the
    # PromQL aggregate layer requires for mergeable sums): per job the
    # first sample (ts 0) only sets the reference, hour 0 holds the
    # deltas at ts 600..3000 s (5 samples), hour 3600 holds ts
    # 3600 + 4200 s (2 samples)
    df = eval_promql(dst, "sum by (job) (http_total)", value_col="count",
                     step="1h").to_pandas()
    a = df[df["job"] == "a"].set_index("window_start")["value"]
    assert a.loc[0] == 5 and a.loc[3600] == 2
    b = df[df["job"] == "b"].set_index("window_start")["value"]
    assert b.loc[0] == 5 and b.loc[3600] == 2


def test_cascade_rejects_source_or_finer_tier(ray_session, tmp_path):
    import pytest

    from vertex_ray.stages.cascade import cascade_blocks

    with pytest.raises(ValueError, match="strictly coarser"):
        cascade_blocks(None, tiers=("1m", "5m"), source_tier="1m")
    with pytest.raises(ValueError, match="strictly coarser"):
        cascade_blocks(None, tiers=("5m",), source_tier="1h")


def test_cascade_nan_window_equals_direct_rollup(ray_session):
    # a NaN delta poisons the 5m window's sum/min/max exactly as scraping
    # straight at 5m does (pandas' skipna merge gave (4, 5, 2, 2, 2))
    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.pipelines.scrape_pipeline import scrape_to_store
    from vertex_ray.stages.cascade import cascade_blocks

    rows = ['c_total{j="a"} 1 0', 'c_total{j="a"} 2 10000',
            'c_total{j="a"} NaN 20000', 'c_total{j="a"} 5 30000',
            'c_total{j="a"} 7 70000', 'c_total{j="a"} 9 130000']
    cols = ["window_start", "sum", "count", "min", "max", "last"]

    def scalars(blocks):
        df = decode_tier_blocks(blocks).to_pandas()
        return [tuple("nan" if np.isnan(float(v)) else float(v)
                      for v in r) for r in df[cols].itertuples(index=False)]

    direct = scalars(scrape_to_store(_lines(rows), metric="c_total",
                                     n_buckets=2, window_s=300, tier="5m"))
    assert direct == [(0.0, "nan", 5.0, "nan", "nan", 2.0)]
    one_m = scrape_to_store(_lines(rows), metric="c_total", n_buckets=2)
    assert scalars(cascade_blocks(one_m, tiers=("5m",))) == direct
