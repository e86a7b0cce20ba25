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

Shape: a vectorized line parse per batch (sources/prometheus_text; RE2
line split + per-UNIQUE-label canonicalization), then ONE
``groupby(bucket)`` exchange whose group body runs the per-kind
normalize + rollup kernels VECTORIZED across the bucket's series
(integer-lexsort segments — no per-series Python loop on the
counter/gauge hot paths), packs, and Gorilla-encodes in the same task
(the flagship fused_bucket_group pattern) — read → parse → one
exchange → block rows.

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

from vertex_ray.schema import (
    KIND_SUMMARY,
    BUCKET_COLS,
    DEFAULT_BUCKETS_ARR,
    KIND_GAUGE,
    KIND_HISTOGRAM,
    KIND_SUM,
)

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


def _agg_columns() -> list[str]:
    return (["bucket", "series_key", "name", "kind", "window_start",
             "sum", "count", "min", "max", "last", "last_ts",
             "filled", "stale"]
            + list(BUCKET_COLS))


def _empty_agg_frame() -> pd.DataFrame:
    from vertex_ray.stages.rollup import empty_agg_df

    return empty_agg_df().assign(filled=pd.Series(dtype=bool),
                                 stale=pd.Series(dtype=bool))[_agg_columns()]


def _agg_frame_from(keys: np.ndarray, ws: np.ndarray, n_buckets: int,
                    kind_code: int, last_ts: np.ndarray,
                    scalars: dict) -> pd.DataFrame:
    """Windowed rows (MANY series) → agg-shaped rows with the given kind
    and scalar columns (sum/count/min/max/last). Fully vectorized across
    series."""
    n = len(ws)
    if n == 0:
        return _empty_agg_frame()
    name = pd.Series(keys, dtype=object).str.split(
        "{", n=1).str[0].to_numpy()
    bucket = (pd.util.hash_array(keys)
              % np.uint64(n_buckets)).astype(np.int32)
    out = {"bucket": bucket,
           "series_key": keys,
           "name": name,
           "kind": np.full(n, kind_code, dtype=np.uint8),
           "window_start": ws.astype(np.int64)}
    for c in ("sum", "count", "min", "max", "last"):
        out[c] = np.asarray(scalars[c], dtype=np.float64)
    out["last_ts"] = last_ts.astype(np.int64)
    out["filled"] = np.zeros(n, bool)
    out["stale"] = np.zeros(n, bool)
    for b in BUCKET_COLS:
        out[b] = np.zeros(n)
    return pd.DataFrame(out)


# ---------------------------------------------------------------------------
# Per-kind normalize + rollup kernels. Each takes a bucket's worth of
# rows (MANY series of one kind) sorted internally and works with
# segmented numpy operations — no per-series Python loop on the counter
# and gauge hot paths (the flagship kernel.py pattern).
# ---------------------------------------------------------------------------


def _sorted_series_cols(g: pd.DataFrame):
    """(codes, uniq, ts_ms, value) of the bucket sorted by (series,
    ts_ms, value): integer-coded lexsort — object-string multi-key sorts
    are the classic hotspot the flagship kernel avoids the same way."""
    k = g["series_key"].to_numpy(dtype=object)
    codes, uniq = pd.factorize(k)
    ts = g["ts_ms"].to_numpy(dtype=np.int64)
    v = g["value"].to_numpy(dtype=np.float64)
    order = np.lexsort((v, ts, codes))
    return codes[order], uniq, ts[order], v[order]


def _counter_bucket(g: pd.DataFrame, window_s: int,
                    n_buckets: int) -> pd.DataFrame:
    # normalize contract (stages/normalize.absolute_to_incremental):
    # sort, diff within series segments, decrease = reset, first
    # observation of each series emits nothing. The cumulative value is
    # the tie-breaker — it encodes arrival order exactly (non-decreasing
    # along the true order), so ms-resolution ties stay deterministic.
    if len(g) == 0:
        return _empty_agg_frame()
    c, uniq, ts, v = _sorted_series_cols(g)
    new = np.concatenate([[True], c[1:] != c[:-1]])
    prev = np.empty_like(v)
    prev[1:] = v[:-1]
    prev[0] = 0.0
    delta = np.where(v >= prev, v - prev, v)
    ws = (ts // (window_s * 1000)) * window_s
    keep = ~new
    c, ws, delta, ts = c[keep], ws[keep], delta[keep], ts[keep]
    if len(c) == 0:
        return _empty_agg_frame()
    # per-(series, window) partials via reduceat segments — positional
    # (NOT pandas groupby agg, whose min/max/last silently skip NaN: a
    # NaN-valued sample must poison its window, not vanish)
    b, eb = _segment_bounds(c, ws)
    return _agg_frame_from(
        uniq[c[b]], ws[b], n_buckets, KIND_SUM, ts[eb - 1] * 1000,
        {"sum": np.add.reduceat(delta, b),
         "count": (eb - b),
         "min": np.minimum.reduceat(delta, b),
         "max": np.maximum.reduceat(delta, b),
         "last": delta[eb - 1]})


def _segment_bounds(c: np.ndarray, ws: np.ndarray):
    newg = np.concatenate([[True], (c[1:] != c[:-1]) | (ws[1:] != ws[:-1])])
    b = np.flatnonzero(newg)
    eb = np.concatenate([b[1:], [len(ws)]])
    return b, eb


def _gauge_bucket(g: pd.DataFrame, window_s: int,
                  n_buckets: int) -> pd.DataFrame:
    # gauge merge = replace: last sample per (series, window) in
    # (ts_ms, value) order (value breaks ms-resolution ties; a NaN
    # sample replaces like any other value — positional last, no skipna)
    if len(g) == 0:
        return _empty_agg_frame()
    c, uniq, ts, v = _sorted_series_cols(g)
    ws = (ts // (window_s * 1000)) * window_s
    b, eb = _segment_bounds(c, ws)
    last = v[eb - 1]
    return _agg_frame_from(
        uniq[c[b]], ws[b], n_buckets, KIND_GAUGE, ts[eb - 1] * 1000,
        {"sum": last, "count": np.ones(len(b)), "min": last, "max": last,
         "last": last})


def _summary_bucket(g: pd.DataFrame, window_s: int,
                    n_buckets: int) -> pd.DataFrame:
    # summary merge is a NO-OP (MetricValue::merge keeps the first
    # accumulated state, lib/event/src/metric/mod.rs:33-39): the FIRST
    # sample per (series, window) in (ts_ms, value) order wins — the
    # exact dual of the gauge kernel's last. Quantile streams arrive as
    # their own series (the {quantile=...} label is part of the
    # canonical key); the family's _sum/_count route to counter series
    # in the parse stage.
    if len(g) == 0:
        return _empty_agg_frame()
    c, uniq, ts, v = _sorted_series_cols(g)
    ws = (ts // (window_s * 1000)) * window_s
    b, eb = _segment_bounds(c, ws)
    first = v[b]
    return _agg_frame_from(
        uniq[c[b]], ws[b], n_buckets, KIND_SUMMARY, ts[b] * 1000,
        {"sum": first, "count": np.ones(len(b)), "min": first,
         "max": first, "last": first})


def _hist_bucket(g: pd.DataFrame, window_s: int,
                 n_buckets: int) -> pd.DataFrame:
    # histogram families are O(instrumented metrics): a per-series pass
    # within the bucket is fine (the wide pivot dominates anyway)
    frames = [_hist_series_frame(s, window_s, n_buckets)
              for _, s in g.groupby("series_key", sort=False)]
    frames = [f for f in frames if len(f)]
    return (pd.concat(frames, ignore_index=True) if frames
            else _empty_agg_frame())


def _hist_series_frame(g: pd.DataFrame, window_s: int,
                       n_buckets: int) -> pd.DataFrame:
    key = g["series_key"].iloc[0]
    cnt = g[g["role"] == "count"].groupby("ts_ms")["value"].last()
    sm = g[g["role"] == "sum"].groupby("ts_ms")["value"].last()
    b = g[g["role"] == "bucket"].pivot_table(
        index="ts_ms", columns="le", values="value", aggfunc="last")
    uppers = np.asarray([u for u in b.columns if np.isfinite(u)])
    if not np.array_equal(uppers, DEFAULT_BUCKETS_ARR):
        raise ValueError(
            f"scraped le uppers {list(uppers)} do not match the store "
            f"layout {list(DEFAULT_BUCKETS_ARR)} for {key}")
    if len(cnt) < 2:
        return _empty_agg_frame()
    # one wide matrix per scrape instant: count, sum, then the 11
    # cumulative-le counters, all normalized jointly on count resets
    mat = np.column_stack(
        [cnt.to_numpy(np.float64),
         sm.reindex(cnt.index).to_numpy(np.float64)]
        + [b[u].reindex(cnt.index).to_numpy(np.float64) for u in uppers])
    if np.isnan(mat).any():
        raise ValueError(f"incomplete scrape instants for {key}: every "
                         "ts must carry _count, _sum and all buckets")
    prev, cur = mat[:-1], mat[1:]
    reset = cur[:, 0] < prev[:, 0]
    delta = np.where(reset[:, None], cur, cur - prev)
    ts = cnt.index.to_numpy(np.int64)[1:]
    out = pd.DataFrame(delta, columns=["count", "sum"] + list(BUCKET_COLS))
    out["window_start"] = (ts // (window_s * 1000)) * window_s
    out["last_ts"] = ts * 1000
    agg = {col: "sum" for col in ["count", "sum"] + list(BUCKET_COLS)}
    agg["last_ts"] = "max"
    out = out.groupby("window_start", as_index=False).agg(agg)
    n = len(out)
    out.insert(0, "series_key", key)
    out.insert(0, "bucket", np.int32(
        pd.util.hash_array(np.array([key], dtype=object))[0]
        % np.uint64(n_buckets)))
    out["name"] = key.split("{", 1)[0]
    out["kind"] = np.uint8(KIND_HISTOGRAM)
    for c in ("min", "max", "last"):
        out[c] = np.zeros(n)
    out["filled"] = np.zeros(n, bool)
    out["stale"] = np.zeros(n, bool)
    return out[_agg_columns()]


_KIND_BUCKET = {KIND_SUM: _counter_bucket, KIND_GAUGE: _gauge_bucket,
                KIND_HISTOGRAM: _hist_bucket,
                KIND_SUMMARY: _summary_bucket}


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
    return _scrape_routed(lines_ds, kinds={metric: kind},
                          window_s=window_s, tier=tier,
                          n_buckets=n_buckets,
                          fill_until_s=fill_until_s,
                          staleness_s=staleness_s,
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
    filter + collect — TYPE lines are O(families), not O(samples)).
    Names never typed fall back to gauge (the reference's untyped
    fallback, lib/prometheus/src/lib.rs). Summary families ingest as
    their Prometheus rendering explosion (metric/mod.rs:175-235):
    quantile streams land as KIND_SUMMARY series under the no-op-merge
    first-per-window rule, ``_sum``/``_count`` as counter series."""
    if kinds is None:
        kinds = _collect_type_map(lines_ds)
    # families of a kind this engine does not model are skipped entirely
    # (incl. their suffix rows) — they must not hit the untyped fallback
    summary_fams = {m for m, k in kinds.items() if k not in _KIND_CODE}
    kinds = {m: k for m, k in kinds.items() if k in _KIND_CODE}
    return _scrape_routed(lines_ds, kinds=kinds, window_s=window_s,
                          tier=tier, n_buckets=n_buckets,
                          untyped_fallback=True,
                          fallback_skip=summary_fams,
                          fill_until_s=fill_until_s,
                          staleness_s=staleness_s,
                          default_ts_ms=default_ts_ms)


def _collect_type_map(lines_ds) -> dict:
    from vertex_ray.sources.prometheus_text import extract_type_map

    def type_lines(t: pa.Table) -> pa.Table:
        col = t["text"]
        m = pa.compute.starts_with(col, "# TYPE ")
        return pa.table({"text": col.filter(m)})

    small = lines_ds.map_batches(type_lines, batch_format="pyarrow")
    rows = [r["text"] for r in small.take_all()]
    return extract_type_map(pd.Series(rows, dtype=object))


def _scrape_parse_ds(lines_ds, *, kinds: dict, n_buckets: int,
                     default_ts_ms: int | None = None,
                     untyped_fallback: bool = False,
                     fallback_skip: set | None = None):
    """Exposition lines Dataset → routed flat samples with bucket +
    series_key + kind (the shared parse stage of the one-shot and
    incremental scrape pipelines)."""
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

    return lines_ds.map_batches(parse, batch_format="pyarrow")


def _scrape_routed(lines_ds, *, kinds: dict, window_s: int, tier: str,
                   n_buckets: int, untyped_fallback: bool = False,
                   fallback_skip: set | None = None,
                   fill_until_s: int | None = None,
                   staleness_s: int = 300,
                   default_ts_ms: int | None = None):
    """Shared engine: parse → route families per ``kinds`` → ONE
    groupby(bucket) exchange whose body runs the per-kind normalize +
    rollup kernels vectorized across the bucket's series AND packs +
    encodes the result (normalize output is already bucket-partitioned,
    so no second exchange)."""
    from vertex_ray.stages.encode import encode_agg_rows

    fill = None
    if fill_until_s is not None:
        # a bad --staleness fails here, before any task runs
        from vertex_ray.stages.kernel import fill_windows

        fill_windows(staleness_s, window_s)
        fill = (window_s, fill_until_s, staleness_s)
    parsed = _scrape_parse_ds(lines_ds, kinds=kinds, n_buckets=n_buckets,
                              default_ts_ms=default_ts_ms,
                              untyped_fallback=untyped_fallback,
                              fallback_skip=fallback_skip)

    def normalize_pack_encode(g: pd.DataFrame) -> pa.Table:
        frames = [_KIND_BUCKET[int(code)](sub, window_s, n_buckets)
                  for code, sub in g.groupby("kind", sort=True)]
        frames = [f for f in frames if len(f)]
        rows = (pd.concat(frames, ignore_index=True) if frames
                else _empty_agg_frame())
        # exporter-TTL staleness (fill: LOCF run codes + one stale
        # marker per expired series) and the Gorilla encode run in the
        # same bucket task — no separate actor-pool stage
        return encode_agg_rows(rows, tier=tier, fill=fill)

    return (parsed.groupby("bucket")
            .map_groups(normalize_pack_encode, batch_format="pandas"))
