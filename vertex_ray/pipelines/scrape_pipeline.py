"""Scrape-to-store pipeline: OpenMetrics/Prometheus exposition text →
flat samples → typed-family routing → MetricNormalize → windowed rollup
→ Gorilla-compressed block rows.

This is the reference's PRIMARY metrics data path re-expressed
Ray-Data-first: ``prometheus_scrape`` parses exposition text
(/root/reference lib/prometheus/src/text.rs:12), flat samples regroup
into typed families (lib/prometheus/src/lib.rs:82-255),
``MetricNormalizer`` converts cumulative counters to deltas
(lib/framework/src/sink/buffer/metrics.rs:100-146), and the exporter
sink holds per-series aggregates (src/sinks/prometheus_exporter.rs).

Shape: a vectorized line parse (sources/prometheus_text; RE2 line
split + per-UNIQUE-label canonicalization), a split of the samples by
series-hash bucket, then one group body per bucket that runs the
per-kind normalize + rollup kernels VECTORIZED across the bucket's
series — integer-lexsort segments into the array kernel's AggArrays
(stages/kernel, its string-keyed adapter: series keys factorized once,
names rendered once per unique series; no per-series Python loop, no
pandas) — packs, and Gorilla-encodes (as the flagship's group body,
rollup_pipeline.bucket_group) — read → parse → split → block rows. The
readable pandas spec of these merges lives in tests/rollup_spec.py.

Those steps are one chain over the executor seam (stages/executor):
the lines scan (rollup_pipeline.scan) → ``per_batch(parse)`` →
``per_group(body)``. The scan picks the executor with the flagship's
ingest gate (rollup_pipeline.ingest_in_driver, ``scrape=True``) from the
bytes of the files the lines Dataset reads (``Dataset.input_files``; a
transformed or in-memory Dataset is unknown, 0, and goes to Ray):

- driver (a small input in a 1-CPU session, under
  ``DRIVER_SCRAPE_MAX_BYTES``): the lines read through the Dataset's
  own plan into one table, the parse over it, the body per bucket in
  the calling process; the block rows come back as a one-block Dataset;
- Ray: the parse per batch (``map_batches``), then ONE
  ``groupby(bucket)`` exchange whose group tasks run the body.

Both store the same block rows (tests/test_scrape_executors.py).

Kind semantics (MetricValue::merge, lib/event/src/metric/mod.rs:42-64):

- counter: sorted diff; a DECREASE is a counter reset and the new value
  is the delta; the series' FIRST observation only sets the reference
  and emits nothing (stages/normalize semantics). Store rows are
  KIND_SUM with sum = windowed delta sum, count = contributing samples,
  min/max/last = min/max/last delta.
- gauge: replace-merge — last observation per window wins.
- summary: merge is a NO-OP (metric/mod.rs:33-39) — FIRST observation
  per window wins for each ``{quantile=}`` stream (each its own
  KIND_SUMMARY series); the family's cumulative ``_sum``/``_count``
  route to their own counter series (the rendering explosion,
  metric/mod.rs:175-235).
- histogram: ``_bucket{le=}`` / ``_sum`` / ``_count`` suffix routing;
  all cumulative streams normalize JOINTLY on count resets (the
  Prometheus rate() rule); window = per-stream delta sums landing as
  KIND_HISTOGRAM store rows. The finite ``le`` layout must equal the
  store's bucket vector (schema.DEFAULT_BUCKETS); ``+Inf`` accepted and
  dropped (its count is ``count``); min/max/last carry 0 (a scrape
  exposes no raw observations).

Exactness: with integer-valued counters (the Prometheus norm) every
delta and window sum is exact int64-in-float64 arithmetic, so the
decoded store is value-hash-identical to a SQL mirror computed by
telescoping (``lag`` + windowed SUM); gauge values round-trip verbatim
(Python float repr is shortest-round-trip).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from vertex_ray.pipelines.rollup_pipeline import scan
from vertex_ray.schema import (
    DEFAULT_BUCKETS_ARR,
    KIND_GAUGE,
    KIND_HISTOGRAM,
    KIND_SUM,
    KIND_SUMMARY,
    N_BUCKETS,
)
from vertex_ray.stages.kernel import (
    AggArrays,
    _empty_agg,
    _segments,
    concat_agg,
    factorize,
    keyed_rows,
    keyed_uids,
    series_table,
    window_agg,
)
from vertex_ray.stages.executor import lift, per_batch, per_group

__all__ = [
    "scrape_counters_to_store",
    "scrape_to_store",
    "scrape_payload_to_store",
]

_KIND_CODE = {"counter": KIND_SUM, "gauge": KIND_GAUGE,
              "untyped": KIND_GAUGE, "histogram": KIND_HISTOGRAM,
              "summary": KIND_SUMMARY}


def merge_quantile_into_tags(tags: pd.Series, qv: np.ndarray,
                             mask: np.ndarray) -> pd.Series:
    """Merge ``quantile=<q>`` back into canonical sorted tag strings for
    the masked rows — per UNIQUE (tags, q) pair (O(series), the
    established canonicalization rule); the numeric label value
    re-rendered by Python float repr."""
    if not mask.any():
        return tags
    # \x1f unit separator (pandas object-concat silently drops NUL
    # bytes; \x1f survives and cannot appear in exposition label text)
    # repr(float(x)), not repr(x): under NumPy >= 2.0 repr of an
    # np.float64 element renders as 'np.float64(0.5)', which would leak
    # into the canonical series key
    comb = (tags[mask] + "\x1f"
            + pd.Series(qv[mask]).map(lambda x: repr(float(x))).to_numpy())
    codes, uniq = pd.factorize(comb)

    def _ins(cq: str) -> str:
        tg, _, q = cq.partition("\x1f")
        pairs = tg.split(",") if tg else []
        i = 0
        while i < len(pairs) and pairs[i].split("=")[0] < "quantile":
            i += 1
        pairs.insert(i, f"quantile={q}")
        return ",".join(pairs)

    mapped = np.array([_ins(u) for u in uniq], dtype=object)
    tv = tags.to_numpy()
    tv[np.flatnonzero(mask)] = mapped[codes]
    return pd.Series(tv, dtype=object)


def _strip_quote_tags(s: pa.Table) -> pd.Series:
    """Sample ``tags`` (canonical sorted ``k="v"`` join) → the store's
    ``k=v`` convention."""
    return pd.Series(s["tags"].to_numpy(zero_copy_only=False),
                     dtype=object).str.replace('"', "", regex=False)


# ---------------------------------------------------------------------------
# Per-kind normalize + rollup kernels. Each takes one kind's samples of a
# bucket (MANY series: integer series codes, ms timestamps, values) and
# returns AggArrays keyed ``kind << 40 | code`` (stages/kernel's
# string-keyed adapter), with segmented numpy operations — no per-series
# Python loop, no pandas (the flagship kernel.py pattern). Reductions are
# positional: a NaN-valued sample poisons its window, it does not vanish.
# ---------------------------------------------------------------------------


def _sorted_samples(c: np.ndarray, ts: np.ndarray, v: np.ndarray):
    """Samples sorted by (series, ts_ms, value): the value breaks
    ms-resolution ties deterministically."""
    order = np.lexsort((v, ts, c))
    return c[order], ts[order], v[order]


def _counter_agg(c, ts, v, window_s: int):
    # normalize contract (stages/normalize.absolute_to_incremental):
    # sort, diff within series segments, decrease = reset, first
    # observation of each series emits nothing. The cumulative value is
    # the tie-breaker — it encodes arrival order exactly (non-decreasing
    # along the true order), so ms-resolution ties stay deterministic.
    c, ts, v = _sorted_samples(c, ts, v)
    keep = np.zeros(len(c), dtype=bool)
    keep[1:] = c[1:] == c[:-1]
    prev = np.zeros_like(v)
    prev[1:] = v[:-1]
    delta = np.where(v >= prev, v - prev, v)
    # window_agg's stable (uid, window, ts) sort keeps the value order
    return window_agg(keyed_uids(KIND_SUM, c[keep]), ts[keep] * 1000,
                      delta[keep], window_s, False)


def _pick_agg(kind: int, c, ts, v, window_s: int):
    """Gauge merge = replace: the LAST sample per (series, window) in
    (ts_ms, value) order wins (a NaN sample replaces like any other).
    Summary merge is a NO-OP (MetricValue::merge keeps the first
    accumulated state, lib/event/src/metric/mod.rs:33-39): the FIRST
    sample wins, its instant is the row's ``last_ts``. Quantile streams
    arrive as their own series (the {quantile=...} label is part of the
    canonical key); the family's _sum/_count route to counter series in
    the parse stage."""
    c, ts, v = _sorted_samples(c, ts, v)
    w = ts // (window_s * 1000) * window_s
    starts = _segments(c, w)
    pick = (starts if kind == KIND_SUMMARY
            else np.append(starts[1:], len(c)) - 1)
    val = v[pick]
    return AggArrays(uid=keyed_uids(kind, c[pick]), window=w[pick],
                     sum=val, count=np.ones(len(pick), np.int64), min=val,
                     max=val, last=val, last_ts=ts[pick] * 1000,
                     buckets=np.zeros((0, N_BUCKETS), np.int64))


def _hist_agg(c, ts, v, window_s: int, role, le, keys: pa.Array):
    """Histogram families: per series, one wide row per scrape instant
    (count, sum, then the 11 cumulative-le counters), normalized JOINTLY
    on count resets; window = per-stream delta sums. An instant without
    a ``_count`` sample is ignored; a series' finite ``le`` set must be
    the store layout, and every instant of a series with two or more
    must carry ``_count``, ``_sum`` and all buckets."""
    j = np.searchsorted(DEFAULT_BUCKETS_ARR, le)
    fin = (role == "bucket") & np.isfinite(le)
    known = fin & (DEFAULT_BUCKETS_ARR[np.minimum(j, N_BUCKETS - 1)] == le)
    seen = np.zeros((len(keys), N_BUCKETS + 1), dtype=bool)
    seen[c[fin], np.where(known, j, N_BUCKETS)[fin]] = True
    u = np.unique(c)
    bad = u[seen[u, N_BUCKETS] | ~seen[u, :N_BUCKETS].all(axis=1)]
    if len(bad):
        raise ValueError(
            f"scraped le uppers {list(np.unique(le[fin & (c == bad[0])]))} "
            f"do not match the store layout {list(DEFAULT_BUCKETS_ARR)} "
            f"for {keys[bad[0]].as_py()}")
    # the last sample of each (series, instant, stream) in input order
    col = np.select([role == "count", role == "sum", known], [0, 1, 2 + j], -1)
    m = col >= 0
    order = np.lexsort((col[m], ts[m], c[m]))
    c, ts, v, col = (x[m][order] for x in (c, ts, v, col))
    last = np.append(_segments(c, ts, col)[1:], len(c)) - 1
    c, ts, v, col = c[last], ts[last], v[last], col[last]
    inst = _segments(c, ts)
    inst_of = np.repeat(np.arange(len(inst)), np.diff(np.append(inst, len(c))))
    mat = np.full((len(inst), 2 + N_BUCKETS), np.nan)
    mat[inst_of, col] = v
    has_count = np.isin(np.arange(len(inst)), inst_of[col == 0])
    mat, ic, its = mat[has_count], c[inst][has_count], ts[inst][has_count]
    new = np.ones(len(ic), dtype=bool)
    new[1:] = ic[1:] != ic[:-1]
    incomplete = np.isnan(mat).any(axis=1) & np.isin(ic, ic[~new])
    if incomplete.any():
        key = keys[ic[incomplete][0]].as_py()
        raise ValueError(f"incomplete scrape instants for {key}: every "
                         "ts must carry _count, _sum and all buckets")
    prev = np.roll(mat, 1, axis=0)  # row 0 of each series is dropped
    delta = np.where((mat[:, 0] < prev[:, 0])[:, None], mat, mat - prev)[~new]
    ic, its = ic[~new], its[~new]
    if not len(ic):
        return _empty_agg()
    w = its // (window_s * 1000) * window_s
    starts = _segments(ic, w)
    sums = np.add.reduceat(delta, starts, axis=0)
    zero = np.zeros(len(starts))
    return AggArrays(uid=keyed_uids(KIND_HISTOGRAM, ic[starts]),
                     window=w[starts], sum=sums[:, 1], count=sums[:, 0],
                     min=zero, max=zero, last=zero,
                     last_ts=its[np.append(starts[1:], len(its)) - 1] * 1000,
                     buckets=sums[:, 2:])


def _normalize(g: pa.Table, window_s: int) -> tuple[AggArrays, pa.Table]:
    """A bucket's routed samples → (per-(series, window) AggArrays over
    every kind, per-series identity table): the per-kind normalize +
    rollup kernels, vectorized across the bucket's series."""
    c, keys = factorize(g["series_key"])
    kind = g["kind"].to_numpy()
    ts = g["ts_ms"].to_numpy()
    v = g["value"].to_numpy()
    series = series_table(keys, g["bucket"][0].as_py() if len(g) else 0)
    parts = [_empty_agg()]
    for k in np.unique(kind):
        m = kind == k
        if k == KIND_SUM:
            parts.append(_counter_agg(c[m], ts[m], v[m], window_s))
        elif k == KIND_HISTOGRAM:
            parts.append(_hist_agg(
                c[m], ts[m], v[m], window_s,
                g["role"].to_numpy(zero_copy_only=False)[m],
                g["le"].to_numpy(zero_copy_only=False)[m], keys))
        else:
            parts.append(_pick_agg(int(k), c[m], ts[m], v[m], window_s))
    return concat_agg(parts), series


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def scrape_to_store(lines_ds, *, metric: str, kind: str = "counter",
                    window_s: int = 60, tier: str = "1m",
                    n_buckets: int = 32, fill_until_s: int | None = None,
                    staleness_s: int = 300,
                    default_ts_ms: int | None = None):
    """Exposition-text lines Dataset → Gorilla block rows for ONE metric
    family of the given kind (``counter`` / ``gauge`` / ``histogram`` /
    ``summary``; see module docstring for the per-kind normalize
    contracts).

    ``fill_until_s``: when set (epoch seconds — typically the scrape
    time), apply the exporter-TTL staleness model to the ingested store
    (stages/fill, src/sinks/prometheus_exporter.rs:59-61): gaps after a
    series' last observation emit LOCF rows for ``staleness_s`` worth of
    windows, then ONE stale marker (the Prometheus stale NaN payload),
    then nothing."""
    if kind not in _KIND_CODE:
        raise ValueError(f"unsupported scrape kind: {kind!r}")
    fill = _fill_spec(fill_until_s, staleness_s, window_s)
    return _scrape_routed(scan(lines_ds), kinds={metric: kind},
                          window_s=window_s, tier=tier,
                          n_buckets=n_buckets, fill=fill,
                          default_ts_ms=default_ts_ms)


def scrape_counters_to_store(lines_ds, *, metric: str, window_s: int = 60,
                             tier: str = "1m", n_buckets: int = 32):
    """Counter-family convenience wrapper (see ``scrape_to_store``)."""
    return scrape_to_store(lines_ds, metric=metric, kind="counter",
                           window_s=window_s, tier=tier,
                           n_buckets=n_buckets)


def scrape_payload_to_store(lines_ds, *, kinds: dict | None = None,
                            window_s: int = 60, tier: str = "1m",
                            n_buckets: int = 32,
                            fill_until_s: int | None = None,
                            staleness_s: int = 300,
                            default_ts_ms: int | None = None):
    """Whole-payload ingest: EVERY typed family in the exposition text in
    one pass — one parse, one series exchange, one encode.

    ``kinds`` maps family name → ``counter|gauge|histogram|summary``;
    when None it is derived from the payload's ``# TYPE`` lines (a tiny
    filter + collect — TYPE lines are O(families), not O(samples); in
    the driver, a filter of the table it already holds).
    Names never typed fall back to gauge (the reference's untyped
    fallback, lib/prometheus/src/lib.rs). Summary families ingest as
    their Prometheus rendering explosion (metric/mod.rs:175-235):
    quantile streams land as KIND_SUMMARY series under the no-op-merge
    first-per-window rule, ``_sum``/``_count`` as counter series."""
    fill = _fill_spec(fill_until_s, staleness_s, window_s)
    lines = scan(lines_ds)
    if kinds is None:
        kinds = _collect_type_map(lines)
    # families of a kind this engine does not model are skipped entirely
    # (incl. their suffix rows) — they must not hit the untyped fallback
    summary_fams = {m for m, k in kinds.items() if k not in _KIND_CODE}
    kinds = {m: k for m, k in kinds.items() if k in _KIND_CODE}
    return _scrape_routed(lines, kinds=kinds, window_s=window_s,
                          tier=tier, n_buckets=n_buckets,
                          untyped_fallback=True,
                          fallback_skip=summary_fams, fill=fill,
                          default_ts_ms=default_ts_ms)


# a lines Dataset's scan: one driver table, or the Dataset itself
driver_lines = scan


def _fill_spec(fill_until_s: int | None, staleness_s: int, window_s: int):
    """The encode's exporter-TTL fill, None without ``fill_until_s``; a
    bad staleness fails here, before any input is read."""
    if fill_until_s is None:
        return None
    from vertex_ray.stages.kernel import fill_windows

    fill_windows(staleness_s, window_s)
    return (window_s, fill_until_s, staleness_s)


def _collect_type_map(lines) -> dict:
    from vertex_ray.sources.prometheus_text import extract_type_map

    def type_lines(t: pa.Table) -> pa.Table:
        col = t["text"]
        m = pa.compute.starts_with(col, "# TYPE ")
        return pa.table({"text": col.filter(m)})

    small = per_batch(lines, type_lines)
    rows = (small["text"].to_pylist() if isinstance(small, pa.Table)
            else [r["text"] for r in small.take_all()])
    return extract_type_map(pd.Series(rows, dtype=object))


def _scrape_parser(*, kinds: dict, n_buckets: int,
                   default_ts_ms: int | None = None,
                   untyped_fallback: bool = False,
                   fallback_skip: set | None = None):
    """The parse step of the one-shot and incremental scrape ingests:
    a table of exposition lines → routed flat samples with bucket +
    series_key + kind (the same function per batch on Ray Data and over
    the whole input in the driver)."""
    from vertex_ray.sources.prometheus_text import decode_prometheus_samples

    hist_names = {m for m, k in kinds.items() if k == "histogram"}
    summary_names = {m for m, k in kinds.items() if k == "summary"}

    def parse(t: pa.Table) -> pa.Table:
        s = decode_prometheus_samples(t)
        name = s["name"].to_numpy(zero_copy_only=False)
        fam = pd.Series(name, dtype=object).map(kinds)
        family = name.copy()
        role = np.where(fam.notna(), "value", "")
        code = fam.map(_KIND_CODE)
        # histogram suffix routing for names that are not themselves a
        # typed family (lib/prometheus/src/lib.rs try_push semantics)
        for suffix, r in (("_bucket", "bucket"), ("_sum", "sum"),
                          ("_count", "count")):
            cand = pd.Series(name, dtype=object).str.removesuffix(suffix)
            hit = (role == "") & cand.isin(hist_names).to_numpy()
            family = np.where(hit, cand.to_numpy(), family)
            role = np.where(hit, r, role)
            code = code.where(~hit, KIND_HISTOGRAM)
        # summary suffix routing: the family's cumulative _sum/_count
        # become their OWN counter series (the Prometheus rendering
        # explosion, metric/mod.rs:175-235 — quantile streams keep the
        # bare name with the {quantile=} label and route via the typed
        # map to the no-op-merge kernel)
        for suffix in ("_sum", "_count"):
            cand = pd.Series(name, dtype=object).str.removesuffix(suffix)
            hit = (role == "") & cand.isin(summary_names).to_numpy()
            role = np.where(hit, "value", role)
            code = code.where(~hit, KIND_SUM)
        if untyped_fallback:
            # names never seen in # TYPE pass through as gauges (the
            # reference's untyped fallback) — except skipped families'
            # rows (summaries), incl. their _sum/_count components
            nm = pd.Series(name, dtype=object)
            skip = nm.isin(fallback_skip or set())
            for suffix in ("_sum", "_count"):
                skip |= nm.str.removesuffix(suffix).isin(
                    fallback_skip or set())
            un = (role == "") & ~skip.to_numpy()
            role = np.where(un, "value", role)
            code = code.where(~un, KIND_GAUGE)
        keep = role != ""
        s = s.filter(pa.array(keep))
        tags = _strip_quote_tags(s)
        if summary_names:
            # the parser routes the quantile label to its own column
            # (Prometheus grouping); a summary quantile stream is its
            # OWN series, so merge ``quantile=<q>`` back into the
            # canonical sorted tag string — per UNIQUE (tags, q) pair
            # (O(series), the established canonicalization rule), the
            # numeric label value re-rendered by Python float repr
            ck = code.to_numpy()[keep]
            qv = s["quantile"].to_numpy(zero_copy_only=False)
            tags = merge_quantile_into_tags(
                tags, qv, (ck == KIND_SUMMARY) & ~np.isnan(qv))
        key = (pd.Series(family[keep], dtype=object) + "{" + tags + "}")
        bucket = (pd.util.hash_array(key.to_numpy())
                  % np.uint64(n_buckets)).astype(np.int32)
        cols = {
            "bucket": pa.array(bucket, type=pa.int32()),
            "series_key": pa.array(key.to_numpy(), type=pa.string()),
            "kind": pa.array(code.to_numpy()[keep].astype(np.uint8)),
        }
        if hist_names:
            # role/le only exist for histogram suffix routing — keep
            # them out of the exchange when no histogram family is
            # configured (~20% less shuffle volume on counter streams)
            cols["role"] = pa.array(role[keep], type=pa.string())
            cols["le"] = s["le"]
        ts = s["ts_ms"]
        # samples without timestamps (the COMMON exposition form —
        # parse_samples marks them ts_ms = -1): Prometheus assigns the
        # scrape time; require the caller to provide it rather than
        # silently collapsing everything into window -60
        miss = pa.compute.equal(ts, -1)
        if pa.compute.any(miss).as_py():
            if default_ts_ms is None:
                raise ValueError(
                    "exposition samples without timestamps: pass "
                    "default_ts_ms (the scrape time) so they get a "
                    "window, per the Prometheus scrape-time rule")
            ts = pa.compute.if_else(
                miss, pa.scalar(int(default_ts_ms), pa.int64()), ts)
        cols["ts_ms"] = ts
        cols["value"] = s["value"]
        return pa.table(cols)

    return parse


def _scrape_routed(lines, *, kinds: dict, window_s: int, tier: str,
                   n_buckets: int, untyped_fallback: bool = False,
                   fallback_skip: set | None = None, fill=None,
                   default_ts_ms: int | None = None):
    """Shared engine: parse → route families per ``kinds`` → split by
    bucket → per bucket, the per-kind normalize + rollup kernels
    vectorized across the bucket's series, then pack + encode
    (normalize output is already bucket-partitioned, so no second
    split). ``lines`` is ``scan``'s driver table, whose block rows come
    back lifted into a Dataset, or a Dataset, split by ONE
    ``groupby(bucket)`` exchange (stages/executor.per_group)."""
    from vertex_ray.stages.encode import encode_agg_rows

    parse = _scrape_parser(kinds=kinds, n_buckets=n_buckets,
                           default_ts_ms=default_ts_ms,
                           untyped_fallback=untyped_fallback,
                           fallback_skip=fallback_skip)

    def normalize_pack_encode(g: pa.Table) -> pa.Table:
        # exporter-TTL staleness (fill: LOCF run codes + one stale
        # marker per expired series) and the Gorilla encode run in the
        # same bucket task — no separate actor-pool stage
        return encode_agg_rows(keyed_rows(*_normalize(g, window_s)),
                               tier=tier, fill=fill)

    return lift(per_group(per_batch(lines, parse), normalize_pack_encode))
