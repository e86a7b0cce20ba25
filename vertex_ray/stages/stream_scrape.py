"""Streaming scrape ingest: stateful MetricNormalize + windowed rollup
across micro-batches, feeding the open-block streaming encoder.

The batch scrape pipeline (pipelines/scrape_pipeline) needs each
series' WHOLE sample history in one task to diff cumulative counters.
A long-lived ingest deployment sees the stream as micro-batches
(one scrape interval at a time) — the reference's runtime shape, where
``MetricNormalizer`` holds per-series reference state
(lib/framework/src/sink/buffer/metrics.rs:100-146) and ``metricalize``
holds per-series window accumulators flushed on interval ticks
(src/transforms/metricalize.rs:195-283).

``StreamScrapeNormalizer`` keeps that state in memory across
micro-batches, in the incremental store's form: each series' last raw
sample (the carried reference) and its still-open window's partial
aggregate. Every micro-batch runs the incremental scrape's one carry
step (pipelines/scrape_incremental.carry_step) on it, so the two
ingests share their normalize and carry rules:

- counter: a sample's delta is ``cur - prev`` (``cur`` on decrease —
  counter reset); the stream's FIRST sample per series only sets the
  reference and emits nothing; a window's value is its delta sum.
- gauge: replace-merge — last sample in the window wins.
- summary (quantile streams, no-op merge): the window's FIRST sample
  wins, across micro-batch boundaries too.
- a window EMITS when a strictly later window for the same series
  arrives (watermark-by-series advance); ``flush`` emits open windows.

Ingest contract: per-series timestamps non-decreasing across batches
(same as StreamGorillaEncoder). A sample AT or before the series' last
accepted timestamp of an earlier micro-batch is dropped and counted in
``dropped_stale`` — the replay absorb of ``scrape_append`` and the
encoder's high-water mark; Prometheus likewise rejects a second sample
for a timestamp it holds. (Before the two ingests shared the step, a
later batch's sample at exactly that timestamp was kept.)

Like stream_encode, this is the raw-actor case the Dataset API can't
express (later micro-batches of a series must reach the SAME state):
``stream_scrape`` drives a pool with explicit series-hash routing, each
actor owning normalize state AND the open-block Gorilla encoder for its
series, so one actor takes a series from exposition sample to closed
block with no further exchange.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from vertex_ray.pipelines.scrape_incremental import carry_step
from vertex_ray.pipelines.scrape_pipeline import _KIND_CODE, _scrape_parser
from vertex_ray.stages.stream_encode import _EMPTY, StreamGorillaEncoder

__all__ = ["StreamScrapeNormalizer", "stream_scrape"]

_KINDS = ("counter", "gauge", "summary")


def _check_kind(kind: str) -> None:
    if kind not in _KINDS:
        raise ValueError(f"streaming scrape supports counter|gauge|"
                         f"summary, got {kind!r}")


class StreamScrapeNormalizer:
    """Per-partition normalize + window state over flat samples
    (series_key, ts_ms, value), emitting closed (series, window) vector
    rows into an internal StreamGorillaEncoder.

    Emitted value per kind: counter → windowed delta sum (``sum``);
    gauge → last observation of the window, summary → first (``last``,
    which the summary kernel sets to the first sample). A summary
    family's cumulative ``_sum``/``_count`` are their own counter
    streams — ingest them with kind="counter" runs.
    """

    def __init__(self, kind: str = "counter", window_s: int = 60,
                 max_points: int = 256):
        _check_kind(kind)
        self.code = _KIND_CODE[kind]
        self.value_col = "sum" if kind == "counter" else "last"
        self.window_s = int(window_s)
        self.refs = self.open_rows = None
        self.enc = StreamGorillaEncoder(max_points=max_points)
        self.dropped_stale = 0

    def append(self, t: pa.Table, key_col: str = "series_key",
               ts_col: str = "ts_ms", val_col: str = "value") -> pa.Table:
        """Fold a micro-batch of flat samples; returns the block rows the
        internal encoder CLOSED as a result."""
        return self._step(t[key_col], t[ts_col], t[val_col], emit_all=False)

    def flush(self) -> pa.Table:
        """Close every open window and open block."""
        closed = self._step(pa.array([], pa.string()),
                            pa.array([], pa.int64()),
                            pa.array([], pa.float64()), emit_all=True)
        parts = [x for x in (closed, self.enc.flush()) if x.num_rows]
        return pa.concat_tables(parts) if parts else _EMPTY

    def _step(self, keys, ts, values, emit_all: bool) -> pa.Table:
        n = len(keys)
        samples = pa.table({
            "bucket": pa.array(np.zeros(n, np.int32)),
            "series_key": keys.cast(pa.string()),
            "kind": pa.array(np.full(n, self.code, np.uint8)),
            "ts_ms": ts.cast(pa.int64()),
            "value": values.cast(pa.float64()),
        })
        emit, self.open_rows, refs, dropped = carry_step(
            samples, self.refs, self.open_rows, self.window_s, emit_all)
        # the step's refs keep the chunks of the carried refs + batch
        self.refs = refs.combine_chunks()
        self.dropped_stale += dropped
        return self.enc.append(emit, "series_key", "window_start",
                               self.value_col)


def stream_scrape(batches, *, metric: str, kind: str = "counter",
                  window_s: int = 60, n_actors: int = 4,
                  max_points: int = 256,
                  default_ts_ms: int | None = None) -> pa.Table:
    """Drive a pool of StreamScrapeNormalizers over an iterable of
    exposition-LINE micro-batches (pa.Table with a ``text`` column).
    Each batch is parsed on the driver loop by the scrape ingests'
    parser, whose series-key hash bucket over ``n_actors`` picks the
    actor, so one actor owns each series' normalize + encoder state for
    the stream's lifetime. Returns all closed block rows
    (stream_encode schema)."""
    import ray

    _check_kind(kind)
    # the parser leaves a missing timestamp at -1 here; the check below
    # runs after the kind filter, so it sees only ingested rows
    parse = _scrape_parser(
        kinds={metric: kind}, n_buckets=n_actors,
        default_ts_ms=-1 if default_ts_ms is None else default_ts_ms)
    Actor = ray.remote(StreamScrapeNormalizer)
    pool = [Actor.remote(kind=kind, window_s=window_s,
                         max_points=max_points) for _ in range(n_actors)]
    out_refs = []
    for t in batches:
        s = parse(t)
        # the metric's own series only: a summary family's _sum/_count
        # parse as counter series of their own
        s = s.filter(pc.equal(s["kind"], _KIND_CODE[kind]))
        if default_ts_ms is None and pc.any(
                pc.equal(s["ts_ms"], -1)).as_py():
            raise ValueError(
                "exposition samples without timestamps: pass "
                "default_ts_ms (the scrape time)")
        route = s["bucket"].to_numpy()
        for a in range(n_actors):
            sel = route == a
            if sel.any():
                out_refs.append(pool[a].append.remote(
                    s.filter(pa.array(sel))))
    out_refs.extend(a.flush.remote() for a in pool)
    tables = [t for t in ray.get(out_refs) if t.num_rows]
    return pa.concat_tables(tables) if tables else _EMPTY
