"""Streaming scrape ingest (stages/stream_scrape): stateful normalize +
windowed rollup across micro-batches == the batch scrape pipeline."""

import numpy as np
import pyarrow as pa
import ray.data as rd


def _lines_tables(rows, n_chunks):
    t = pa.table({"text": pa.array(rows, type=pa.string())})
    cuts = np.linspace(0, len(rows), n_chunks + 1).astype(int)
    return [t.slice(a, b - a) for a, b in zip(cuts, cuts[1:]) if b > a]


def _decode_stream(blocks):
    from vertex_ray.stages.stream_encode import decode_stream_blocks

    pts = decode_stream_blocks(blocks)
    return {(k, w): v for k, w, v in
            zip(*(pts[c].to_pylist() for c in pts.column_names))}


def test_stream_counter_equals_batch(ray_session):
    # same sample stream through the batch pipeline and the streaming
    # normalizer (3 micro-batches) -> identical decoded windows
    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.pipelines.scrape_pipeline import scrape_to_store
    from vertex_ray.stages.stream_scrape import stream_scrape

    rows = []
    rng = np.random.default_rng(7)
    for job in ("a", "b", "c"):
        cum, t = 0, 0
        for _ in range(50):
            cum += int(rng.integers(0, 5))
            t += int(rng.integers(500, 40_000))
            rows.append(f'req_total{{job="{job}"}} {cum} {t}')
    # batch path needs series-sorted input? no — any order; stream path
    # needs per-series time order, which interleaved rows satisfy here
    rows.sort(key=lambda s: int(s.rsplit(" ", 1)[1]))  # global time order

    batch = scrape_to_store(
        rd.from_arrow(pa.table({"text": rows})), metric="req_total",
        kind="counter", n_buckets=2)
    bdf = decode_tier_blocks(batch).to_pandas()
    want = {(r.series_key, int(r.window_start)): float(r.sum)
            for r in bdf.itertuples()}

    got = _decode_stream(stream_scrape(
        _lines_tables(rows, 3), metric="req_total", kind="counter",
        n_actors=2, max_points=16))
    assert got == want


def test_stream_gauge_equals_batch(ray_session):
    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.pipelines.scrape_pipeline import scrape_to_store
    from vertex_ray.stages.stream_scrape import stream_scrape

    rows = []
    rng = np.random.default_rng(11)
    for host in ("x", "y"):
        t = 0
        for _ in range(40):
            t += int(rng.integers(1000, 50_000))
            val = round(float(rng.normal()), 3)
            rows.append(f'temp{{host="{host}"}} {val} {t}')
    rows.sort(key=lambda s: int(s.rsplit(" ", 1)[1]))

    batch = scrape_to_store(
        rd.from_arrow(pa.table({"text": rows})), metric="temp",
        kind="gauge", n_buckets=2)
    bdf = decode_tier_blocks(batch).to_pandas()
    want = {(r.series_key, int(r.window_start)): float(r.last)
            for r in bdf.itertuples()}

    got = _decode_stream(stream_scrape(
        _lines_tables(rows, 5), metric="temp", kind="gauge",
        n_actors=2, max_points=8))
    assert got == want


def test_stream_counter_reset_and_stale_drop(ray_session):
    from vertex_ray.stages.stream_scrape import StreamScrapeNormalizer

    n = StreamScrapeNormalizer(kind="counter", window_s=60)

    def t(rows):
        return pa.table({
            "series_key": pa.array([r[0] for r in rows]),
            "ts_ms": pa.array([r[1] for r in rows], type=pa.int64()),
            "value": pa.array([r[2] for r in rows], type=pa.float64()),
        })

    n.append(t([("s", 0, 10.0), ("s", 10_000, 13.0)]))      # ref + delta 3
    n.append(t([("s", 70_000, 2.0)]))                        # reset: delta 2
    n.append(t([("s", 5_000, 99.0)]))                        # stale: dropped
    got = _decode_stream(n.flush())
    assert got == {("s", 0): 3.0, ("s", 60): 2.0}
    assert n.dropped_stale == 1


def test_stream_scrape_summary_first_wins(ray_session):
    """Streaming summary: FIRST per (series, window) wins across
    micro-batch boundaries (no-op merge carried in the open-window
    state); quantile label merged into the key."""
    from vertex_ray.stages.stream_scrape import stream_scrape

    def b(rows):
        return pa.table({"text": pa.array(rows, type=pa.string())})

    batches = [
        b(['s{job="a",quantile="0.5"} 7.0 1000']),
        b(['s{job="a",quantile="0.5"} 9.0 30000',   # same window: first kept
           's{job="a",quantile="0.9"} 2.5 30000']),
        b(['s{job="a",quantile="0.5"} 4.0 61000']),  # advance closes w0
    ]
    blocks = stream_scrape(batches, metric="s", kind="summary",
                           window_s=60, n_actors=2)
    by = _decode_stream(blocks)
    assert by == {
        ("s{job=a,quantile=0.5}", 0): 7.0,
        ("s{job=a,quantile=0.5}", 60): 4.0,
        ("s{job=a,quantile=0.9}", 0): 2.5,
    }


def test_stream_scrape_missing_ts_checked_on_ingested_rows(ray_session):
    """Without default_ts_ms, only the metric's own rows must carry
    timestamps: a summary family's _sum/_count are not ingested, so
    theirs may be missing; a quantile row without one is an error."""
    import pytest

    from vertex_ray.stages.stream_scrape import stream_scrape

    def b(rows):
        return pa.table({"text": pa.array(rows, type=pa.string())})

    blocks = stream_scrape(
        [b(['s{job="a",quantile="0.5"} 7.0 1000', 's_sum{job="a"} 40.0',
            's_count{job="a"} 5'])],
        metric="s", kind="summary", window_s=60, n_actors=2)
    assert _decode_stream(blocks) == {("s{job=a,quantile=0.5}", 0): 7.0}
    with pytest.raises(ValueError, match="default_ts_ms"):
        stream_scrape([b(['s{job="a",quantile="0.5"} 7.0'])],
                      metric="s", kind="summary", n_actors=2)


def test_stream_summary_equals_batch(ray_session):
    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.pipelines.scrape_pipeline import scrape_to_store
    from vertex_ray.stages.stream_scrape import stream_scrape

    rows = []
    rng = np.random.default_rng(13)
    for job in ("a", "b"):
        for q in ("0.5", "0.9"):
            t = 0
            for _ in range(40):
                t += int(rng.integers(1000, 50_000))
                val = round(float(rng.normal()), 3)
                rows.append(f'lat{{job="{job}",quantile="{q}"}} {val} {t}')
    rows.sort(key=lambda s: int(s.rsplit(" ", 1)[1]))

    batch = scrape_to_store(
        rd.from_arrow(pa.table({"text": rows})), metric="lat",
        kind="summary", n_buckets=2)
    bdf = decode_tier_blocks(batch).to_pandas()
    want = {(r.series_key, int(r.window_start)): float(r.last)
            for r in bdf.itertuples()}

    got = _decode_stream(stream_scrape(
        _lines_tables(rows, 4), metric="lat", kind="summary",
        n_actors=2, max_points=8))
    assert got == want


def _kind_lines(rng, kind, n_series, n):
    """Exposition lines of one family: strictly increasing ms timestamps
    per series; counters grow with occasional resets."""
    rows = []
    for j in range(n_series):
        t, cum = 0, 0
        for _ in range(n):
            t += int(rng.integers(1_000, 45_000))
            if kind == "counter":
                cum = (0 if rng.random() < 0.05 else cum) + int(
                    rng.integers(0, 5))
                rows.append(f'c_total{{job="j{j}"}} {cum} {t}')
            elif kind == "gauge":
                rows.append(f'g{{host="h{j}"}} '
                            f'{round(float(rng.normal()), 3)} {t}')
            else:
                rows.append(f's{{job="j{j // 2}",quantile="0.{5 + j % 2}"}}'
                            f' {round(float(rng.normal()), 3)} {t}')
    return rows


def test_stream_equals_incremental(ray_session, tmp_path):
    """The same lines, cut into K micro-batches, through stream_scrape
    and through K scrape_append runs plus scrape_finalize: equal
    (series, window) → value maps for counter, gauge and summary (the
    two ingests run one carry step)."""
    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.pipelines.scrape_incremental import (
        read_scrape_epochs,
        scrape_append,
        scrape_finalize,
    )
    from vertex_ray.stages.stream_scrape import stream_scrape

    rng = np.random.default_rng(20261020)
    families = {"c_total": "counter", "g": "gauge", "s": "summary"}
    rows = []
    for kind in families.values():
        rows += _kind_lines(rng, kind, int(rng.integers(1, 5)), 30)
    rows.sort(key=lambda s: int(s.rsplit(" ", 1)[1]))
    k = int(rng.integers(2, 5))
    cuts = [0, *sorted(rng.choice(np.arange(1, len(rows)), k - 1,
                                  replace=False)), len(rows)]
    batches = [pa.table({"text": pa.array(rows[a:b], type=pa.string())})
               for a, b in zip(cuts, cuts[1:])]

    store = str(tmp_path / "inc")
    for t in batches:
        scrape_append(rd.from_arrow(t), store, kinds=families, n_buckets=2)
    scrape_finalize(store, kinds=families, n_buckets=2)
    for metric, kind in families.items():
        df = decode_tier_blocks(read_scrape_epochs(store, metric)).to_pandas()
        col = "sum" if kind == "counter" else "last"
        want = {(r.series_key, int(r.window_start)): float(getattr(r, col))
                for r in df.itertuples()}
        got = _decode_stream(stream_scrape(
            batches, metric=metric, kind=kind, n_actors=2, max_points=8))
        assert want and got == want, kind


def test_stream_equal_timestamp_dropped_and_counted():
    """A later micro-batch's sample at exactly a series' last accepted
    timestamp is dropped and counted, as scrape_append's replay absorb
    and the encoder's high-water mark drop it."""
    from vertex_ray.stages.stream_scrape import StreamScrapeNormalizer

    def t(rows):
        return pa.table({
            "series_key": pa.array([r[0] for r in rows]),
            "ts_ms": pa.array([r[1] for r in rows], type=pa.int64()),
            "value": pa.array([r[2] for r in rows], type=pa.float64()),
        })

    n = StreamScrapeNormalizer(kind="counter", window_s=60)
    n.append(t([("s", 0, 10.0), ("s", 10_000, 13.0)]))
    n.append(t([("s", 10_000, 20.0), ("s", 70_000, 25.0)]))
    assert _decode_stream(n.flush()) == {("s", 0): 3.0, ("s", 60): 12.0}
    assert n.dropped_stale == 1
