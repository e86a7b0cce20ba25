"""Driver contract for the vertex_ray engine.

``entry()`` runs the flagship tier-cascade pipeline on sf0.001.
``queries()`` exposes one callable per implemented operator/pipeline
(SURVEY.md §2); ``oracle_sql()`` gives the DuckDB-equivalent SQL for every
SQL-expressible one. The transcript input table (BASELINE input_hint) is
synthesized deterministically per scale factor under /tmp (synth.py);
oracle SQL reads the same parquet files via read_parquet(), so both sides
see identical inputs.

Ray is initialised by the driver BEFORE this module is imported — nothing
here calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

from vertex_ray.schema import DEFAULT_BUCKETS, TIER_SECONDS
from vertex_ray.synth import ensure_transcripts, sf_of_dir

OUT_BASE = "/tmp/vertex_ray_out"

# Oracle SQL always runs at sf0.01 (the driver's correctness scale). The
# transcript parquet it reads is materialized lazily on the first
# queries()/oracle_sql() call (never at import — import must stay cheap
# and any synth failure must surface where it happens, not as a later
# unrelated read_parquet error).
_SQL_TRANSCRIPTS = "read_parquet('/tmp/vertex_ray_testdata/sf0.01/transcripts_n1000000/*.parquet')"


def _ensure_oracle_transcripts() -> None:
    ensure_transcripts("/root/testdata/sf0.01")

# Shared SQL fragments ------------------------------------------------------

_W = "(epoch_us(ts) // {us}) * {s}"  # window_start in epoch seconds


def _w(seconds: int) -> str:
    return _W.format(us=seconds * 1_000_000, s=seconds)


_LAT_CTE = f"""
WITH lat AS (
  SELECT conv_id, ts,
         CAST(epoch_us(ts) - lag(epoch_us(ts)) OVER (
              PARTITION BY conv_id ORDER BY turn_idx) AS DOUBLE) / 1000000.0
           AS lat
  FROM {_SQL_TRANSCRIPTS}
)
"""


def _tiers_out(sf_dir: str) -> str:
    sf = sf_of_dir(sf_dir)
    return os.path.join(OUT_BASE, f"sf{sf:g}", "tiers")


def _ensure_pipeline(sf_dir: str) -> str:
    """Run (or resume from checkpoint) the tier cascade for this scale;
    subsequent queries read the committed parquet stages."""
    from vertex_ray.pipelines.rollup_pipeline import run_pipeline

    trans = ensure_transcripts(sf_dir)
    out = _tiers_out(sf_dir)
    run_pipeline(trans, out, n_buckets=16)
    return out


def _tier_agg(sf_dir: str, tier: str):
    from vertex_ray.pipelines.rollup_pipeline import read_stage

    out = _ensure_pipeline(sf_dir)
    return read_stage(out, "agg", tier)


def _real_rows(t, name=None):
    import pyarrow.compute as pc

    mask = pc.and_(pc.invert(t["filled"]), pc.invert(t["stale"]))
    if name is not None:
        mask = pc.and_(mask, pc.equal(t["name"], name))
    return t.filter(mask)


def _metric_tier(sf_dir: str, tier: str, name: str, cols: list[str]):
    ds = _tier_agg(sf_dir, tier)
    return ds.map_batches(
        lambda t: _real_rows(t, name).select(cols),
        batch_format="pyarrow",
    )


def entry() -> Any:
    """Flagship pipeline on sf0.001: full tier cascade, returns the 1m
    aggregate Dataset."""
    return _tier_agg("/root/testdata/sf0.001", "1m")


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

_LAT_COLS = ["series_key", "window_start", "sum", "count", "min", "max", "last"]
_BUCKET_SQL_COLS = ", ".join(
    f"CAST(SUM(CASE WHEN lat <= {u} THEN 1 ELSE 0 END) AS BIGINT) AS b{i:02d}"
    for i, u in enumerate(DEFAULT_BUCKETS)
)


def _q_turns(sf_dir: str):
    return _metric_tier(sf_dir, "1m", "turns_total", ["series_key", "window_start", "count"])


def _q_turns_salted(sf_dir: str):
    """Same rollup via the explicit two-phase salted aggregate (salt=4) on a
    separate output dir — proves salted ≡ unsalted against the same oracle."""
    import pyarrow.compute as pc
    import ray.data as rd

    from vertex_ray.pipelines.rollup_pipeline import run_pipeline
    from vertex_ray.state.checkpoint import stage_files

    trans = ensure_transcripts(sf_dir)
    out = os.path.join(OUT_BASE, f"sf{sf_of_dir(sf_dir):g}", "tiers_salted")
    run_pipeline(trans, out, n_buckets=16, salt=4, tiers=(("1m", 60),))
    from vertex_ray.pipelines.rollup_pipeline import read_stage

    ds = read_stage(out, "agg", "1m")
    return ds.map_batches(
        lambda t: _real_rows(t, "turns_total").select(
            ["series_key", "window_start", "count"]
        ),
        batch_format="pyarrow",
    )


def _q_tools(sf_dir: str):
    return _metric_tier(
        sf_dir, "1m", "tool_invocations_total", ["series_key", "window_start", "count"]
    )


def _lat_query(tier: str):
    def q(sf_dir: str):
        return _metric_tier(sf_dir, tier, "inter_turn_latency_seconds", _LAT_COLS)

    return q


def _q_hist_buckets(sf_dir: str):
    cols = ["series_key", "window_start"] + [f"b{i:02d}" for i in range(len(DEFAULT_BUCKETS))]
    return _metric_tier(sf_dir, "1m", "inter_turn_latency_seconds", cols)


def _q_passthrough(sf_dir: str):
    """Per-turn text equality projection under stable (conv_id, turn_idx)
    ordering (BASELINE input_hint invariant)."""
    import ray.data as rd

    trans = ensure_transcripts(sf_dir)
    return rd.read_parquet(trans, columns=["conv_id", "turn_idx", "text"]).sort(
        ["conv_id", "turn_idx"]
    )


def _q_select_series(sf_dir: str):
    """PromQL-style series selector over the COMPRESSED store: a regex
    matcher on series_key plus a time range, applied to block rows BEFORE
    any decode — only the ~10 matching conversations' blocks are ever
    decompressed (decode work proportional to the selection, not the
    store). The read path of the prometheus_exporter analogue."""
    import pyarrow.compute as _pc

    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks, read_stage

    out = _ensure_pipeline(sf_dir)

    def prune(t):
        m = _pc.and_(
            _pc.equal(t["name"], "inter_turn_latency_seconds"),
            _pc.match_substring_regex(
                t["series_key"], r"conv_id=conv0000000[0-9]\}"),
        )
        return t.filter(m)

    sel = read_stage(out, "blocks", "1m").map_batches(
        prune, batch_format="pyarrow")
    t0 = sel.min("block_start")
    t1 = t0 + 3600

    def shape(t):
        import pyarrow as _pa

        keep = _pc.and_(
            _pc.and_(_pc.invert(t["filled"]), _pc.invert(t["stale"])),
            _pc.and_(_pc.greater_equal(t["window_start"], t0),
                     _pc.less_equal(t["window_start"], t1)),
        )
        t = t.filter(keep)
        return t.select(
            ["series_key", "window_start", "sum", "count", "min", "max", "last"]
        ).set_column(3, "count", _pc.cast(t["count"], _pa.int64()))

    return decode_tier_blocks(sel).map_batches(shape, batch_format="pyarrow")


def _q_remote_read_1m_turns(sf_dir: str):
    """The ``/api/v1/read`` remote-read protocol end-to-end over the
    committed store (sources/remote_write.remote_read): a protobuf
    ReadRequest (``__name__="turns_total"``, ``role="user"``, full time
    range) is answered from the 1m tier — name + first-equality-matcher
    pushed into the block scan, matchers re-applied post-decode, the
    response serialized in the remote-WRITE TimeSeries wire shape and
    decoded back to rows. Hash-identical to the SQL mirror, so the
    protocol pair (encode request → prune → decode blocks → encode
    response → decode response) preserves every sample bit-for-bit."""
    from vertex_ray.sources.remote_write import (
        decode_read_response,
        encode_read_request,
        remote_read,
    )

    out = _ensure_pipeline(sf_dir)
    req = encode_read_request([{
        "start_ms": 0, "end_ms": 4_000_000_000_000,
        "matchers": [("__name__", "=", "turns_total"),
                     ("role", "=", "user")],
    }])
    resp = remote_read(out, req, tier="1m", value_col="count")
    t = decode_read_response(resp)
    return t.select(["series_key", "ts_ms", "value"])


def _q_count_values_1h_turns(sf_dir: str):
    """PromQL ``count_values("count", increase(turns_total[1h]))``: per
    1h window, how many series reported each distinct turn count — the
    long-tail distribution read (stages/promql.count_values, combiner
    pre-aggregation before the one exchange)."""
    from vertex_ray.stages.promql import count_values

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])
    return count_values(ds, "count")


def _q_stream_encode_roundtrip(sf_dir: str):
    """Streaming ingest path: the 1m turns tier fed as three TIME-SLICED
    micro-batches through the open-block actor pool
    (stages/stream_encode — per-partition Gorilla encoder state held
    ACROSS batches), then every closed+flushed block decoded back to
    points. Oracle = the tier itself: the round-trip must be
    bit-identical however the stream was sliced. (Materializing the tier
    to micro-batches on the driver is this harness's slicing, not the
    operator — ingest deployments feed the actors from their source.)"""
    import pyarrow as pa

    from vertex_ray.stages.stream_encode import (
        decode_stream_blocks,
        stream_encode,
    )

    tier = _metric_tier(sf_dir, "1m", "turns_total",
                        ["series_key", "window_start", "count"])
    t = pa.concat_tables(
        tier.iter_batches(batch_format="pyarrow", batch_size=None))
    import pyarrow.compute as pc

    t = pa.table({
        "series_key": t["series_key"],
        "window_start": t["window_start"],
        "value": pc.cast(t["count"], pa.float64()),
    }).sort_by([("window_start", "ascending")])
    cuts = [0, t.num_rows // 3, 2 * t.num_rows // 3, t.num_rows]
    batches = [t.slice(a, b - a) for a, b in zip(cuts, cuts[1:]) if b > a]
    return decode_stream_blocks(
        stream_encode(batches, n_actors=4, max_points=240))


def _q_stream_encode_ooo(sf_dir: str):
    """Out-of-order streaming ingest (the Prometheus 2.39
    out_of_order_time_window analogue): the 1m turns tier is delivered
    with every 7th point HELD BACK and re-delivered after newer windows
    have advanced each series' head. With an OOO horizon enabled, the
    encoder diverts those genuinely-late points into per-series OOO
    buffers (duplicates vs the horizon memory drop), flushed as their
    own blocks — so the decoded union is bit-identical to the tier even
    though ingest was disordered (stages/stream_encode
    StreamGorillaEncoder ooo_window_s)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from vertex_ray.stages.stream_encode import (
        decode_stream_blocks,
        stream_encode,
    )

    tier = _metric_tier(sf_dir, "1m", "turns_total",
                        ["series_key", "window_start", "count"])
    t = pa.concat_tables(
        tier.iter_batches(batch_format="pyarrow", batch_size=None))
    t = pa.table({
        "series_key": t["series_key"],
        "window_start": t["window_start"],
        "value": pc.cast(t["count"], pa.float64()),
    }).sort_by([("window_start", "ascending")])
    late_mask = np.arange(t.num_rows) % 7 == 3
    main = t.filter(pa.array(~late_mask))
    late = t.filter(pa.array(late_mask))
    cuts = [0, main.num_rows // 2, main.num_rows]
    batches = [main.slice(a, b - a) for a, b in zip(cuts, cuts[1:])
               if b > a] + [late]
    # horizon spans the whole stream: every held-back point qualifies
    return decode_stream_blocks(stream_encode(
        batches, n_actors=4, max_points=240, ooo_window_s=1 << 40))


def _q_quantile_by_role_1h(sf_dir: str):
    """PromQL ``quantile by (role) (0.9, increase(turns_total[1h]))``:
    the p90 of per-series 1h turn counts across each role's series —
    order-free selection + quantile_cont interpolation
    (stages/promql.label_aggregate agg="quantile")."""
    from vertex_ray.stages.promql import label_aggregate

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])
    return label_aggregate(ds, "role", "count", out_col="p90_turns",
                           agg="quantile", q=0.9)


def _q_burn_rate_1m_latency(sf_dir: str):
    """Multiwindow SLO burn-rate alert over the 1m latency tier: SLO =
    "latency ≤ 2.5s" (cumulative bucket b08), budget 10%, burn rate over
    a 5-window fast and 60-window slow frame, firing when both exceed
    2× (stages/promql.burn_rate over one group_sum exchange)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from vertex_ray.stages.promql import burn_rate, group_sum

    ds = _metric_tier(sf_dir, "1m", "inter_turn_latency_seconds",
                      ["series_key", "window_start", "count", "b08"])

    def prep(t):
        total = pc.cast(t["count"], pa.int64())
        return pa.table({"window_start": t["window_start"],
                         "total": total,
                         "bad": pc.subtract(total, t["b08"])})

    g = group_sum(ds.map_batches(prep, batch_format="pyarrow"),
                  ["window_start"], ["total", "bad"])
    g = g.map_batches(
        lambda t: t.append_column(
            "slo", pa.array(["latency_le_2.5s"] * len(t))),
        batch_format="pyarrow")
    return burn_rate(g, "slo", "window_start", "bad", "total",
                     n_fast=5, n_slow=60, budget=0.1, factor=2.0)


def _q_read_api_range(sf_dir: str):
    """The query façade (vertex_ray/read.query_range): range-read the 1h
    turns_total tier for role=user series over the first 6 hours — block
    rows pruned by metric name + key regex + footer interval BEFORE any
    decode, then exact window filtering after."""
    from vertex_ray.read import query_range

    out = _ensure_pipeline(sf_dir)
    probe = query_range(out, "1h", metric="turns_total",
                        key_regex=r"role=user\}",
                        columns=["series_key", "window_start", "count"])
    t0 = probe.min("window_start")
    return query_range(out, "1h", metric="turns_total",
                       key_regex=r"role=user\}", start=t0, end=t0 + 21600,
                       columns=["series_key", "window_start", "count"])


def _q_read_api_range_offset(sf_dir: str):
    """PromQL ``offset`` threaded through the read verb
    (read.query_range(offset=…)): the query frame [t0+24h, t0+30h] with
    ``offset=86400`` evaluates over [t0, t0+6h] and re-stamps every
    window_start forward one day — yesterday's user-turn counts carrying
    today's timestamps, ready for day-over-day ``binary_op`` without a
    second read."""
    from vertex_ray.read import query_range

    out = _ensure_pipeline(sf_dir)
    cols = ["series_key", "window_start", "count"]
    probe = query_range(out, "1h", metric="turns_total",
                        key_regex=r"role=user\}", columns=cols)
    t0 = probe.min("window_start")
    return query_range(out, "1h", metric="turns_total",
                       key_regex=r"role=user\}",
                       start=t0 + 86400, end=t0 + 86400 + 21600,
                       columns=cols, offset=86400)


def _q_promql_expr_sum_by_role(sf_dir: str):
    """The PromQL TEXT front-end (vertex_ray/promql_lang — the read-side
    analogue of the reference's VTL expression language,
    /root/reference lib/vtl/src/compiler/): parse + lower
    ``sum by (role) (increase(turns_total[1h]))`` onto the existing
    stages (pruned tier read → label_aggregate combiner exchange)."""
    from vertex_ray.promql_lang import eval_promql

    out = _ensure_pipeline(sf_dir)
    return eval_promql(out, "sum by (role) (increase(turns_total[1h]))")


def _q_promql_expr_user_share(sf_dir: str):
    """PromQL text front-end, vector matching: the user-role share of
    each conversation's hourly turns —
    ``increase(turns_total{role="user"}[1h]) / on(conv_id)
    sum by (conv_id) (increase(turns_total[1h]))``. The left leg's
    equality matcher is pushed into the block scan as a key regex; the
    division is ONE hash-join exchange (stages/promql.binary_op)."""
    from vertex_ray.promql_lang import eval_promql

    out = _ensure_pipeline(sf_dir)
    return eval_promql(
        out,
        'increase(turns_total{role="user"}[1h]) / on(conv_id) '
        "sum by (conv_id) (increase(turns_total[1h]))")


def _q_promql_expr_peak_subquery(sf_dir: str):
    """PromQL text front-end, subquery composition:
    ``max_over_time(increase(turns_total[5m])[1h:5m])`` — the inner
    expression evaluates on the 5m tier, the outer trailing 12-window
    max lowers onto stages/promql.over_time."""
    from vertex_ray.promql_lang import eval_promql

    out = _ensure_pipeline(sf_dir)
    return eval_promql(
        out, "max_over_time(increase(turns_total[5m])[1h:5m])")


def _q_promql_expr_hot_convs_bool(sf_dir: str):
    """PromQL text front-end, comparison with the ``bool`` modifier:
    ``sum by (conv_id) (increase(turns_total[1h])) > bool 60`` — a 0/1
    breach vector per (conversation, hour)."""
    from vertex_ray.promql_lang import eval_promql

    out = _ensure_pipeline(sf_dir)
    return eval_promql(
        out, "sum by (conv_id) (increase(turns_total[1h])) > bool 60")


def _q_promql_expr_hist_p99(sf_dir: str):
    """PromQL text front-end over the HISTOGRAM kind:
    ``histogram_quantile(0.99, inter_turn_latency_seconds[1m])`` — the
    cumulative b00..bNN bucket columns ride the pruned block read and
    the Prometheus interpolation runs per batch
    (stages/quantile.histogram_quantile_batch); identical formula text
    generates the SQL mirror."""
    from vertex_ray.promql_lang import eval_promql

    out = _ensure_pipeline(sf_dir)
    return eval_promql(
        out, "histogram_quantile(0.99, inter_turn_latency_seconds[1m])")


def _q_promql_expr_multi_by(sf_dir: str):
    """PromQL text front-end, multi-label grouping:
    ``sum by (conv_id, role) (increase(turns_total[1h]))`` — lowered by
    rewriting each sample's identity to a canonical key of ONLY the
    by-labels, one aggregate_without combiner exchange, labels split
    back into columns."""
    from vertex_ray.promql_lang import eval_promql

    out = _ensure_pipeline(sf_dir)
    return eval_promql(
        out, "sum by (conv_id, role) (increase(turns_total[1h]))")


def _q_promql_expr_ignoring_ratio(sf_dir: str):
    """PromQL text front-end, ``ignoring(...)`` vector matching:
    ``increase(turns_total{role="user"}[1h]) / ignoring(role)
    increase(turns_total{role="assistant"}[1h])`` — the per-conversation
    user/assistant hourly turn ratio. ``ignoring`` matches on the
    COMPLEMENT label set; the lowering strips the ignored pairs (and the
    metric name) from the composite series key with the same vectorized
    RE2 transform behind ``without(...)``, so the match is still ONE
    hash-join exchange (promql_lang._ignoring_key → stages/promql
    binary_op). Result identity is the stripped key ``{conv_id=…}``."""
    from vertex_ray.promql_lang import eval_promql

    out = _ensure_pipeline(sf_dir)
    return eval_promql(
        out,
        'increase(turns_total{role="user"}[1h]) / ignoring(role) '
        'increase(turns_total{role="assistant"}[1h])')


def _q_promql_expr_at_baseline(sf_dir: str):
    """PromQL ``@`` modifier (fixed-instant evaluation):
    ``sum by (role) (increase(turns_total[1h])) / on(role)
    sum by (role) (increase(turns_total[1h] @ 1767441600))`` — every
    hour's per-role turn volume normalized by the volume in a FIXED
    baseline hour (2026-01-03T12:00Z). The pinned selector lowers to a
    start/end BLOCK-PRUNED read of exactly one window (the pin's
    trailing frame), and the pinned vector is window-free in matching:
    the join runs on the labels alone, the live side's window_start
    survives — one hash exchange, baseline read cost independent of
    store width (promql_lang Sel.at_s → _eval_bin win_free)."""
    from vertex_ray.promql_lang import eval_promql

    out = _ensure_pipeline(sf_dir)
    return eval_promql(
        out,
        "sum by (role) (increase(turns_total[1h])) / on(role) "
        "sum by (role) (increase(turns_total[1h] @ 1767441600))")


def _q_promql_expr_group_right(sf_dir: str):
    """PromQL ``group_right`` many-to-one matching with the MANY side on
    the right: ``sum by (role) (increase(turns_total[1h])) / on(role)
    group_right(series_key) increase(turns_total[1h])`` — each series'
    hourly inverse share of its role's total. Lowered by swapping the
    join sides (binary_op's first argument must be the many side so the
    carried ``series_key`` rides the join) and swapping the operands
    back inside the finish kernel (stages/promql.binary_op
    swap_operands) — still ONE hash-join exchange."""
    from vertex_ray.promql_lang import eval_promql

    out = _ensure_pipeline(sf_dir)
    return eval_promql(
        out,
        "sum by (role) (increase(turns_total[1h])) / on(role) "
        "group_right(series_key) increase(turns_total[1h])")


def _q_promql_rules_group(sf_dir: str):
    """Prometheus rules.yml with PromQL TEXT expressions
    (stages/record.rule_group_promql): a record rule materializes
    ``role:turns:sum1h = sum by (role) (increase(turns_total[1h]))`` as
    a named vector, and the group's alert rule then SELECTS that vector
    by name — ``max_over_time(role:turns:sum1h[3h]) > 2500 FOR 2`` —
    exactly Prometheus's sequential rule-group evaluation. Returns the
    alert-state vector (inactive/pending/firing per role per hour)."""
    from vertex_ray.stages.record import rule_group_promql

    out = _ensure_pipeline(sf_dir)
    rules = [
        {"record": "role:turns:sum1h",
         "expr": "sum by (role) (increase(turns_total[1h]))"},
        {"alert": "RoleTurnsSustainedHigh",
         "expr": "max_over_time(role:turns:sum1h[3h])",
         "threshold": 2500.0, "for": 2},
    ]
    res = rule_group_promql(out, rules, tier="1h")
    return res["RoleTurnsSustainedHigh"]


def _q_read_api_instant(sf_dir: str):
    """The query façade (vertex_ray/read.instant_query): PromQL instant
    vector over the 1h turns_total tier — newest real sample per
    role=user series within a 3h lookback of the store's end."""
    from vertex_ray.read import instant_query, query_range

    out = _ensure_pipeline(sf_dir)
    probe = query_range(out, "1h", metric="turns_total",
                        key_regex=r"role=user\}",
                        columns=["series_key", "window_start", "count"])
    at = probe.max("window_start")
    return instant_query(out, "1h", at=at, lookback=3 * 3600,
                         metric="turns_total", key_regex=r"role=user\}",
                         columns=["series_key", "window_start", "count"])


def _q_delete_series_1h_turns(sf_dir: str):
    """TSDB delete lifecycle, read side: a tombstone (assistant series
    of turns_total over the middle third of the store's time range) is
    applied by the query façade at read time — deleted points vanish
    without rewriting a single block (state/tombstones; the reference
    skips expired entries at read time the same way,
    /root/reference src/sinks/prometheus_exporter.rs:351-356). Blocks
    fully inside the stone never decode; straddling blocks decode then
    drop the deleted windows."""
    from vertex_ray.read import query_range

    out = _ensure_pipeline(sf_dir)
    cols = ["series_key", "window_start", "count"]
    probe = query_range(out, "1h", metric="turns_total", columns=cols,
                        tombstones=False)
    lo, hi = probe.min("window_start"), probe.max("window_start")
    t1 = lo + (hi - lo) // 3
    t2 = lo + 2 * (hi - lo) // 3
    stone = {"metric": "turns_total", "key_regex": r"role=assistant\}",
             "start": t1, "end": t2, "tiers": ["1h"]}
    return query_range(out, "1h", metric="turns_total", columns=cols,
                       tombstones=[stone])


def _q_absent_1h_conv0(sf_dir: str):
    """PromQL ``absent(turns_total{conv_id=conv00000000})`` over the
    store's whole 1h range: one row per evaluation window where that
    conversation reported nothing (stages/promql.absent_over_time — the
    "metric stopped reporting" alert primitive; a single conversation is
    active for hours of a multi-day range, so most windows are absent)."""
    from vertex_ray.read import query_range
    from vertex_ray.stages.promql import absent_over_time

    out = _ensure_pipeline(sf_dir)
    cols = ["series_key", "window_start", "count"]
    probe = query_range(out, "1h", metric="turns_total", columns=cols,
                        tombstones=False)
    lo, hi = probe.min("window_start"), probe.max("window_start")
    sel = query_range(out, "1h", metric="turns_total",
                      key_regex=r"conv_id=conv00000000,", columns=cols,
                      tombstones=False)
    return absent_over_time(sel, "window_start", 3600, lo, hi)


def _q_series_metadata_1h(sf_dir: str):
    """The ``/api/v1/series`` metadata endpoint: distinct user-role
    turns_total series with first/last block coverage — computed
    entirely from block-row metadata, zero decode
    (vertex_ray/read.series_metadata)."""
    from vertex_ray.read import series_metadata

    out = _ensure_pipeline(sf_dir)
    return series_metadata(out, "1h", metric="turns_total",
                           key_regex=r"role=user\}")


def _q_label_values_1h(sf_dir: str):
    """The ``/api/v1/label/role/values`` metadata endpoint: distinct
    role label values across turns_total series, extracted from
    series_key on block rows — zero decode
    (vertex_ray/read.label_values)."""
    from vertex_ray.read import label_values

    out = _ensure_pipeline(sf_dir)
    return label_values(out, "1h", "role", metric="turns_total")


def _q_federated_range_1h(sf_dir: str):
    """Federated read over a two-shard fleet: transcripts split by
    conv-id parity into two INDEPENDENT stores (each with its own
    cascade, checkpoints and tombstone file), then ONE
    ``query_range_multi`` union — real samples must equal the
    single-store answer, proving shard-per-series federation loses
    nothing (vertex_ray/read.query_range_multi; union is zero-shuffle)."""
    import duckdb as _dk

    from vertex_ray.pipelines.rollup_pipeline import run_pipeline
    from vertex_ray.read import query_range_multi

    trans = ensure_transcripts(sf_dir)
    root = os.path.join(OUT_BASE, f"sf{sf_of_dir(sf_dir):g}")
    stores = []
    for shard, pred in (("shard0", "= 0"), ("shard1", "<> 0")):
        tdir = os.path.join(root, f"trans_{shard}")
        if not os.path.exists(os.path.join(tdir, "part.parquet")):
            os.makedirs(tdir, exist_ok=True)
            _dk.sql(f"""
                COPY (SELECT * FROM read_parquet('{trans}/*.parquet')
                      WHERE CAST(substr(conv_id, length(conv_id), 1)
                                 AS INT) % 2 {pred})
                TO '{tdir}/part.parquet' (FORMAT PARQUET)
            """)
        out = os.path.join(root, f"tiers_{shard}")
        run_pipeline(tdir, out, n_buckets=8)
        stores.append(out)
    return query_range_multi(
        stores, "1h", metric="turns_total",
        columns=["series_key", "window_start", "count"])


def _q_tsdb_status_1h(sf_dir: str):
    """The ``/api/v1/status/tsdb`` analogue for turns_total at 1h:
    series / block / stored-point totals from block metadata alone —
    the point count includes the gap-fill machinery's stale markers, so
    the oracle reproduces the staleness rule (one marker per
    reporting-run end, clipped at the store's global end)
    (vertex_ray/read.tsdb_status; payload-bytes column is engine-only
    and dropped here)."""
    from vertex_ray.read import tsdb_status

    out = _ensure_pipeline(sf_dir)
    st = tsdb_status(out, "1h", metric="turns_total")
    return st.map_batches(
        lambda t: t.select(["name", "n_series", "n_blocks", "n_points"]),
        batch_format="pyarrow")


def _q_label_cardinality_1h(sf_dir: str):
    """Label-cardinality half of the tsdb status: distinct values per
    label across turns_total series (which label exploded the series
    count? — vertex_ray/read.label_cardinality, zero decode)."""
    from vertex_ray.read import label_cardinality

    out = _ensure_pipeline(sf_dir)
    return label_cardinality(out, "1h", ["conv_id", "role"],
                             metric="turns_total")


def _q_group_left_share_1h(sf_dir: str):
    """PromQL group_left many-to-one matching:
    ``turns_total / on(role, window) group_left sum by (role)`` — each
    series' share of its role's hourly traffic. The per-series vector
    (many) joins its role-level total (one) on (role, window) while
    series_key rides through (stages/promql.binary_op carry_left)."""
    from vertex_ray.stages.promql import (
        binary_op,
        extract_label,
        label_aggregate,
    )

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])
    left = ds.map_batches(lambda t: extract_label(t, "role"),
                          batch_format="pyarrow")
    right = label_aggregate(ds, "role", "count", out_col="role_total")
    return binary_op(left, right, ["role", "window_start"], "count",
                     "role_total", op="div", out_col="share",
                     carry_left=["series_key"])


def _q_offset_dod_1h(sf_dir: str):
    """PromQL offset modifier: ``turns_total - turns_total offset 1d``
    per series at the 1h tier — the day-over-day traffic delta panel.
    The offset leg re-stamps windows forward 86400 s (per-batch, no
    exchange), then the standard vector match joins the two legs
    (stages/promql.offset_modifier + binary_op); windows without a
    sample a day earlier drop, as PromQL does with unmatched vectors."""
    from vertex_ray.stages.promql import binary_op, offset_modifier

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])
    prev = offset_modifier(ds, "window_start", 86400,
                           rename={"count": "count_prev"})
    return binary_op(ds, prev, ["series_key", "window_start"], "count",
                     "count_prev", op="sub", out_col="dod")


def _sides_turns_and_tools(sf_dir: str):
    from vertex_ray.stages.promql import extract_label

    turns = _metric_tier(sf_dir, "1h", "turns_total",
                         ["series_key", "window_start", "count"])
    left = turns.map_batches(
        lambda t: extract_label(t, "conv_id").select(
            ["series_key", "conv_id", "window_start", "count"]),
        batch_format="pyarrow")
    tools = _metric_tier(sf_dir, "1h", "tool_invocations_total",
                         ["series_key", "window_start", "count"])
    right = tools.map_batches(
        lambda t: extract_label(t, "conv_id").select(
            ["conv_id", "window_start"]),
        batch_format="pyarrow")
    return left, right


def _q_and_tools_1h(sf_dir: str):
    """PromQL vector ``and``:
    ``turns_total and on(conv_id, window) tool_invocations_total`` —
    turn series-windows in hours where that conversation invoked a tool
    (one semi-join exchange, right values never move —
    stages/promql.set_op)."""
    from vertex_ray.stages.promql import set_op

    left, right = _sides_turns_and_tools(sf_dir)
    return set_op(left, right, ["conv_id", "window_start"], op="and")


def _q_unless_tools_1h(sf_dir: str):
    """PromQL vector ``unless``: the complement — turn series-windows in
    hours where the conversation invoked NO tool (anti-join)."""
    from vertex_ray.stages.promql import set_op

    left, right = _sides_turns_and_tools(sf_dir)
    return set_op(left, right, ["conv_id", "window_start"], op="unless")


def _q_or_user_all_1h(sf_dir: str):
    """PromQL vector ``or``: per-conversation USER-turn counts, OR the
    all-role count for (conv, window)s that had no user turn at all —
    left-priority union (roles cycle turn order, so hours holding only
    assistant/tool turns exist; stages/promql.set_op op="or")."""
    from vertex_ray.stages.promql import label_aggregate, set_op

    import pyarrow.compute as pc

    all_series = _metric_tier(sf_dir, "1h", "turns_total",
                              ["series_key", "window_start", "count"])
    user = all_series.map_batches(
        lambda t: t.filter(pc.match_substring(t["series_key"],
                                              "role=user}")),
        batch_format="pyarrow")
    left = label_aggregate(user, "conv_id", "count", out_col="c")
    right = label_aggregate(all_series, "conv_id", "count", out_col="c")
    return set_op(left, right, ["conv_id", "window_start"], op="or")


def _q_above_role_avg_1h(sf_dir: str):
    """PromQL comparison filter with group_left:
    ``turns_total > on(role, window) group_left avg by (role)`` — the
    series whose hourly turn count beats their role's average that hour
    (filter semantics keep the left sample; stages/promql.binary_op
    comparison ops)."""
    from vertex_ray.stages.promql import (
        binary_op,
        extract_label,
        label_aggregate,
    )

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])
    left = ds.map_batches(lambda t: extract_label(t, "role"),
                          batch_format="pyarrow")
    right = label_aggregate(ds, "role", "count", out_col="role_avg",
                            agg="avg")
    return binary_op(left, right, ["role", "window_start"], "count",
                     "role_avg", op="gt", carry_left=["series_key"])


def _q_sum_without_role_1h(sf_dir: str):
    """PromQL ``sum without(role) (turns_total)`` at the 1h tier: roles
    collapse onto per-conversation series (series_key keeps full
    identity minus the stripped label, so downstream promql functions
    compose on the result — stages/promql.aggregate_without)."""
    from vertex_ray.stages.promql import aggregate_without

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])
    return aggregate_without(ds, ["role"], "count")


def _q_group_by_role_1h(sf_dir: str):
    """PromQL ``group by (role) (turns_total)``: constant 1 per
    (role, window) with any member series — the membership/existence
    aggregation operator (stages/promql.label_aggregate(agg="group"))."""
    from vertex_ray.stages.promql import label_aggregate

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])
    return label_aggregate(ds, "role", "count", out_col="present",
                           agg="group")


def _q_sqrt_scaled_1h(sf_dir: str):
    """PromQL pointwise math + scalar arithmetic:
    ``sqrt(turns_total) * 2`` per series at 1h — every op IEEE-exact so
    the SQL mirror is bit-identical (stages/promql.math_op)."""
    from vertex_ray.stages.promql import math_op

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])
    return math_op(ds, "count", "sqrt", out_col="v", scalar=2.0,
                   scalar_op="mul")


def _q_mad_over_1h_turns(sf_dir: str):
    """Prometheus (experimental) ``mad_over_time(turns_total[6h])``:
    per-series median absolute deviation over the trailing 6 windows —
    the robust-outlier band for spiky series (stages/promql.over_time
    agg="mad"; both quantile_cont passes bit-match the SQL oracle)."""
    from vertex_ray.stages.promql import over_time

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])
    return over_time(ds, "series_key", "window_start", "count", 6,
                     agg="mad", out_col="mad")


def _q_limit_ratio_1h(sf_dir: str):
    """PromQL ``limit_ratio(0.25, turns_total)`` at the 1h tier: a
    deterministic quarter of the SERIES (md5-hash predicate, identical
    on the SQL side) — the dashboard-sampling read for high-cardinality
    panels (stages/promql.limit_ratio)."""
    from vertex_ray.stages.promql import limit_ratio

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])
    return limit_ratio(ds, "series_key", 0.25)


def _q_hourly_profile_turns(sf_dir: str):
    """Seasonal traffic profile: total turns by (role, hour-of-day,
    day-of-week) — PromQL's hour()/day_of_week() time functions over
    the 1h tier (stages/promql.window_time, pure epoch-second integer
    arithmetic so the SQL mirror is exact), then one combiner-pattern
    sum exchange (group_sum)."""
    from vertex_ray.stages.promql import (
        extract_label,
        group_sum,
        window_time,
    )

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])

    def prep(t):
        t = extract_label(t, "role")
        t = window_time(t, "window_start", "hour")
        t = window_time(t, "window_start", "day_of_week")
        return t.select(["role", "hour", "day_of_week", "count"])

    return group_sum(ds.map_batches(prep, batch_format="pyarrow"),
                     ["role", "hour", "day_of_week"], ["count"])


def _q_stddev_without_role_1h(sf_dir: str):
    """PromQL ``stddev without(role) (turns_total)``: population stddev
    across a conversation's role series — exact int64 (sum, sum²,
    count) partials, the variance evaluated once at finalize in a fixed
    IEEE order mirrored by the SQL, so merge order can't perturb the
    value (stages/promql.aggregate_without agg="stddev")."""
    from vertex_ray.stages.promql import aggregate_without

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])
    return aggregate_without(ds, ["role"], "count", agg="stddev")


def _q_avg_without_role_1h(sf_dir: str):
    """PromQL ``avg without(role) (turns_total)`` at 1h: the mean hourly
    turn count across a conversation's role series — exact int64
    (sum, count) partials merged across the one exchange, ONE double
    division at finalize so the value is bit-identical under any merge
    order (stages/promql.aggregate_without agg="avg")."""
    from vertex_ray.stages.promql import aggregate_without

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])
    return aggregate_without(ds, ["role"], "count", agg="avg")


def _q_first_over_1h(sf_dir: str):
    """``first_over_time(turns_total[6h])`` (the SQL FIRST_VALUE
    analogue of PromQL's last_over_time, at the other frame edge): the
    sample at the trailing frame's start — the baseline leg of
    "current vs 6h ago" dashboards without a second range read
    (stages/promql.over_time agg="first"; pure gather, dtype
    preserved)."""
    from vertex_ray.stages.promql import over_time

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])
    return over_time(ds, "series_key", "window_start", "count", 6,
                     agg="first", out_col="first")


def _q_dom_profile_1d(sf_dir: str):
    """Seasonal calendar profile: total turns by (year, month,
    day-of-month) over the 1d tier — the calendar-part time functions
    (civil-from-days integer algorithm, stages/promql.window_time)
    feeding one combiner-pattern sum exchange; bit-identical to the SQL
    mirror's date_part over make_timestamp."""
    from vertex_ray.stages.promql import group_sum, window_time

    ds = _metric_tier(sf_dir, "1d", "turns_total",
                      ["series_key", "window_start", "count"])

    def prep(t):
        for part in ("year", "month", "day_of_month", "day_of_year"):
            t = window_time(t, "window_start", part)
        return t.select(["year", "month", "day_of_month", "day_of_year",
                         "count"])

    return group_sum(ds.map_batches(prep, batch_format="pyarrow"),
                     ["year", "month", "day_of_month", "day_of_year"],
                     ["count"])


def _q_stitched_1d_1h(sf_dir: str):
    """Cross-resolution stitched range read (read.query_range_stitched):
    deep history served from the 1d tier, the final (possibly partial)
    day at 1h resolution, in ONE vector with per-row tier provenance —
    two independently-pruned block reads, union is a zero-copy
    concatenation (no exchange)."""
    from vertex_ray.pipelines.rollup_pipeline import transcripts_end_ts
    from vertex_ray.read import query_range_stitched

    out = _ensure_pipeline(sf_dir)
    boundary = (transcripts_end_ts(ensure_transcripts(sf_dir))
                // 86400 * 86400)
    return query_range_stitched(
        out, "1d", "1h", boundary, metric="turns_total",
        columns=["series_key", "window_start", "count"])


def _q_resample_4h_turns(sf_dir: str):
    """Graphite-``summarize`` / Grafana interval-align: 1h tier counts
    re-bucketed at read time to a 4h step no tier materializes —
    combiner-pattern exact int64 sums (stages/promql.resample_windows)."""
    from vertex_ray.stages.promql import resample_windows

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])
    return resample_windows(ds, 4 * 3600, 3600, {"count": "sum"})


def _q_resample_4h_gauge(sf_dir: str):
    """Read-time re-bucketing of a GAUGE: min/max merge order-free, the
    last-write value follows the greatest source window (carried through
    both merge phases, so the gauge rule is merge-order-independent)."""
    from vertex_ray.stages.promql import resample_windows

    ds = _metric_tier(sf_dir, "1h", "conv_turn_idx",
                      ["series_key", "window_start", "min", "max", "last"])
    return resample_windows(ds, 4 * 3600, 3600,
                            {"min": "min", "max": "max", "last": "last"})


def _q_trending_tools_1h(sf_dir: str):
    """Windowed heavy hitters: the top-3 tools by hourly invocation
    count, per 1h window (``topk(3, sum by (tool)(...))`` per
    evaluation window) — label_aggregate's combiner exchange feeding
    topk_per_group's block-local trim (≤ k rows per window per batch
    cross the wire)."""
    from vertex_ray.stages.ops import topk_per_group
    from vertex_ray.stages.promql import label_aggregate

    ds = _metric_tier(sf_dir, "1h", "tool_invocations_total",
                      ["series_key", "window_start", "count"])
    per_tool = label_aggregate(ds, "tool", "count")
    return topk_per_group(per_tool, "window_start", "count", 3, "tool")


def _q_point_read_1h(sf_dir: str):
    """conv_id point-read fast path: the store is hash-partitioned by
    conversation, so this selector reads ONE ``part-<bucket>`` file
    (resolved from the manifest's n_buckets lineage) instead of
    scanning every block row — O(1) files at any store width
    (read.query_range(conv_id=…); 0.35 s vs 3.6 s at sf0.1)."""
    from vertex_ray.read import query_range

    out = _ensure_pipeline(sf_dir)
    return query_range(out, "1h", metric="turns_total",
                       conv_id="conv00000000",
                       columns=["series_key", "window_start", "count"])


def _q_stitched_rate(sf_dir: str):
    """Per-second turn rate over the stitched cross-resolution vector:
    each row normalizes its count by ITS OWN tier's window length
    (count/86400 on the 1d history leg, count/3600 on the 1h tail leg),
    so a single dashboard panel reads a consistent turns/sec series
    across the resolution boundary — one vectorized division per batch
    on top of the stitched read."""
    import pyarrow.compute as pc

    from vertex_ray.pipelines.rollup_pipeline import transcripts_end_ts
    from vertex_ray.read import query_range_stitched
    from vertex_ray.schema import TIER_SECONDS

    out = _ensure_pipeline(sf_dir)
    boundary = (transcripts_end_ts(ensure_transcripts(sf_dir))
                // 86400 * 86400)
    v = query_range_stitched(
        out, "1d", "1h", boundary, metric="turns_total",
        columns=["series_key", "window_start", "count"])
    secs = dict(TIER_SECONDS)

    def rate(t):
        import numpy as np
        import pyarrow as _pa

        div = np.array([secs[x] for x in t["tier"].to_pylist()],
                       dtype=np.float64)
        r = t["count"].to_pandas().to_numpy().astype(np.float64) / div
        return t.append_column("rate", _pa.array(r, type=_pa.float64()))

    return v.map_batches(rate, batch_format="pyarrow")


def _q_limitk_1h(sf_dir: str):
    """PromQL ``limitk(3, turns_total)``: a deterministic 3-series
    sample — smallest md5(series_key) digests, so the SQL mirror's
    ``ORDER BY md5(key) LIMIT 3`` picks the identical set
    (stages/promql.limitk; exchange volume ≤ k per batch)."""
    from vertex_ray.stages.promql import limitk

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])
    return limitk(ds, "series_key", 3)


def _q_conv_stitch(sf_dir: str):
    """Transcripts → one training document per conversation (turns in
    order, newline-joined) via the bucketed stitch operator."""
    import ray.data as rd

    from vertex_ray.stages.text import stitch_conversations

    trans = ensure_transcripts(sf_dir)
    ds = rd.read_parquet(trans, columns=["conv_id", "turn_idx", "text"])
    return stitch_conversations(ds, "conv_id", "turn_idx", "text")


def _q_build_samples(sf_dir: str):
    """END-TO-END transcripts → training batches: stitch each conversation
    into one ordered document, then greedily pack conversations into
    2048-token bins (8 hash partitions) — the sample-assembly pipeline a
    trainer consumes, as one Dataset graph (stitch bucketing feeds pack
    partitioning; text crosses the wire exactly twice)."""
    import ray.data as rd

    from vertex_ray.stages.pack import pack_documents
    from vertex_ray.stages.text import stitch_conversations

    trans = ensure_transcripts(sf_dir)
    ds = rd.read_parquet(trans, columns=["conv_id", "turn_idx", "text"])
    stitched = stitch_conversations(ds, "conv_id", "turn_idx", "text")

    def add_cid(t):
        import pyarrow as _pa
        import pyarrow.compute as _pc

        cid = _pc.cast(_pc.utf8_slice_codeunits(t["conv_id"], 4, 99), _pa.int64())
        return t.append_column("cid", cid)

    with_cid = stitched.map_batches(add_cid, batch_format="pyarrow")
    return pack_documents(with_cid, "doc", "cid", 2048, n_parts=8)


_SQL_BUILD_SAMPLES_TMPL = """
WITH RECURSIVE conv AS (
  SELECT CAST(substr(conv_id, 5) AS BIGINT) AS cid,
         string_agg(text, chr(10) ORDER BY turn_idx) AS doc
  FROM {TRANS} GROUP BY conv_id
),
docs AS (
  SELECT cid % 8 AS part, cid,
         len(regexp_extract_all(doc, '\\S+')) AS n_tokens,
         row_number() OVER (PARTITION BY cid % 8 ORDER BY cid) AS rn
  FROM conv
),
packed(part, rn, cid, n_tokens, bin, fill) AS (
  SELECT part, rn, cid, n_tokens, 0, n_tokens FROM docs WHERE rn = 1
  UNION ALL
  SELECT d.part, d.rn, d.cid, d.n_tokens,
         CASE WHEN p.fill + d.n_tokens <= 2048
              THEN p.bin ELSE p.bin + 1 END,
         CASE WHEN p.fill + d.n_tokens <= 2048
              THEN p.fill + d.n_tokens ELSE d.n_tokens END
  FROM docs d JOIN packed p ON p.part = d.part AND d.rn = p.rn + 1
)
SELECT part, cid, n_tokens, bin FROM packed
"""


def _q_gorilla_roundtrip(sf_dir: str):
    """1m latency tier routed through gap-fill → Gorilla encode → decode;
    real (unfilled) points must match the plain SQL rollup bit-for-bit
    after decode — the north-star correctness gate."""
    import pyarrow.compute as pc

    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks, read_stage

    out = _ensure_pipeline(sf_dir)
    dec = decode_tier_blocks(read_stage(out, "blocks", "1m"))

    def shape(t):
        mask = pc.and_(
            pc.and_(pc.invert(t["filled"]), pc.invert(t["stale"])),
            pc.equal(t["name"], "inter_turn_latency_seconds"),
        )
        t = t.filter(mask)
        import pyarrow as pa

        return t.select(
            ["series_key", "window_start", "sum", "count", "min", "max", "last"]
        ).set_column(
            3, "count", pc.cast(t["count"], pa.int64())
        )

    return dec.map_batches(shape, batch_format="pyarrow")


def _q_locf_1m(sf_dir: str):
    """1m latency tier INCLUDING gap-fill rows and stale markers — the
    LOCF/staleness semantics (FIXTURES §F5) checked against a SQL oracle.
    Stale rows' float fields surface as NULL (the engine stores the
    Prometheus stale NaN payload; NULL is the SQL-comparable view)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    ds = _tier_agg(sf_dir, "1m")

    def shape(t):
        t = t.filter(pc.equal(t["name"], "inter_turn_latency_seconds"))
        null_f = pa.scalar(None, pa.float64())
        return pa.table(
            {
                "series_key": t["series_key"],
                "window_start": t["window_start"],
                "sum": pc.if_else(t["stale"], null_f, t["sum"]),
                "count": t["count"],
                "filled": t["filled"],
                "stale": t["stale"],
            }
        )

    return ds.map_batches(shape, batch_format="pyarrow")


def _q_gauge_1m(sf_dir: str):
    return _metric_tier(sf_dir, "1m", "conv_turn_idx", _LAT_COLS)


def _q_gauge_1h(sf_dir: str):
    """Gauge through the tier-merge cascade (1m → 5m → 1h)."""
    return _metric_tier(sf_dir, "1h", "conv_turn_idx", _LAT_COLS)


def _q_gauge_delta_1m(sf_dir: str):
    """PromQL delta(): per-series change of the gauge's last value between
    consecutive 1m windows, computed over the tier store."""
    from vertex_ray.stages.windows import series_delta

    gauge = _metric_tier(sf_dir, "1m", "conv_turn_idx",
                         ["series_key", "window_start", "last"])
    return series_delta(gauge, "series_key", "window_start", "last")


def _q_resets_changes_1m_gauge(sf_dir: str):
    """PromQL ``resets(conv_turn_idx[12 windows])`` and
    ``changes(conv_turn_idx[12 windows])`` over the 1m gauge tier:
    per series, counts of consecutive-sample decreases / value changes
    within the trailing 12-window frame (stages/promql.resets_changes) —
    the counter-reset and gauge-flappiness dashboard reads."""
    from vertex_ray.stages.promql import resets_changes

    gauge = _metric_tier(sf_dir, "1m", "conv_turn_idx",
                         ["series_key", "window_start", "last"])
    return resets_changes(gauge, "series_key", "window_start", "last", 12)


def _q_rate_1h_turns(sf_dir: str):
    """PromQL increase()/rate() over the counter tier. Tiers store
    per-window deltas (the MetricNormalize absolute→incremental contract,
    /root/reference lib/framework/src/sink/buffer/metrics.rs:110-146), so
    increase(1h) IS the 1h window's count and rate = increase / 3600."""
    import pyarrow as pa
    import pyarrow.compute as pc

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])

    def shape(t):
        inc = pc.cast(t["count"], pa.float64())
        return pa.table({
            "series_key": t["series_key"],
            "window_start": t["window_start"],
            "increase": inc,
            "rate": pc.divide(inc, 3600.0),
        })

    return ds.map_batches(shape, batch_format="pyarrow")


def _q_peak_5m_rate_1h(sf_dir: str):
    """PromQL subquery composition —
    ``max_over_time(increase(turns_total[5m])[1h:5m])``: the peak 5-minute
    burst within each trailing hour, per series. Composes the stored 5m
    counter tier with a 12-window moving max (stages/promql.over_time);
    the dashboard "worst burst" read."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from vertex_ray.stages.promql import over_time

    ds = _metric_tier(sf_dir, "5m", "turns_total",
                      ["series_key", "window_start", "count"])
    mx = over_time(ds, "series_key", "window_start", "count", 12,
                   agg="max", out_col="peak_5m_increase")

    def shape(t):
        return pa.table({
            "series_key": t["series_key"],
            "window_start": t["window_start"],
            "peak_5m_increase": t["peak_5m_increase"],
            "peak_5m_rate": pc.divide(
                pc.cast(t["peak_5m_increase"], pa.float64()), 300.0),
        })

    return mx.map_batches(shape, batch_format="pyarrow")


def _q_zscore_1h_turns(sf_dir: str):
    """Streaming anomaly score over the counter tier:
    ``z = (x - mean(prev 6 windows)) / stddev(prev 6 windows)`` per
    series, baseline excluding the current window — the alerting read
    (stages/promql.zscore_over_time); exact int64 baseline sums, NaN
    where the baseline is empty or constant."""
    from vertex_ray.stages.promql import zscore_over_time

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])
    return zscore_over_time(ds, "series_key", "window_start", "count", 6)


def _ensure_backfill_split(sf_dir: str) -> tuple[str, str]:
    """Deterministically split the transcripts into an 'on-time' table and
    a 'late correction' table (every 7th turn index arrives late) — the
    backfill scenario's fixtures, materialized once per scale."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    trans = ensure_transcripts(sf_dir)
    base = os.path.join(OUT_BASE, f"sf{sf_of_dir(sf_dir):g}", "backfill_in")
    ontime_p = os.path.join(base, "ontime.parquet")
    late_p = os.path.join(base, "late.parquet")
    if not (os.path.exists(ontime_p) and os.path.exists(late_p)):
        import numpy as np

        os.makedirs(base, exist_ok=True)
        t = pads.dataset(trans).to_table()
        ti = t["turn_idx"].to_numpy()
        late_mask = pa.array((ti % 7) == 3)
        pq.write_table(t.filter(pc.invert(late_mask)), ontime_p)
        pq.write_table(t.filter(late_mask), late_p)
    return ontime_p, late_p


def _q_backfill_1m_turns(sf_dir: str):
    """Out-of-order correction merge: roll up the on-time turns, roll up
    the late batch separately, fold the late aggregates into the store
    with backfill_merge (stages/backfill) — the merged counter must equal
    the full recompute over ALL turns (the SQL oracle) exactly, without
    ever re-reading the on-time raw data."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from vertex_ray.pipelines.rollup_pipeline import read_stage, run_pipeline
    from vertex_ray.stages.backfill import backfill_merge

    ontime, late = _ensure_backfill_split(sf_dir)
    root = os.path.join(OUT_BASE, f"sf{sf_of_dir(sf_dir):g}")
    out_a = os.path.join(root, "tiers_ontime")
    out_b = os.path.join(root, "tiers_late")
    run_pipeline(ontime, out_a, n_buckets=16, tiers=(("1m", 60),))
    run_pipeline(late, out_b, n_buckets=16, tiers=(("1m", 60),))
    merged = backfill_merge(read_stage(out_a, "agg", "1m"),
                            read_stage(out_b, "agg", "1m"))

    def shape(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["name"], "turns_total"))
        return t.select(["series_key", "window_start", "count"])

    return merged.map_batches(shape, batch_format="pyarrow")


def _q_holt_winters_1h_turns(sf_dir: str):
    """PromQL ``holt_winters(turns_total, 0.4, 0.3)`` over the 1h counter
    tier: level+trend smoothing per series, vectorized across series
    (stages/promql.holt_winters); bit-identical to the recursive-CTE SQL
    oracle evaluating the same recurrence."""
    from vertex_ray.stages.promql import holt_winters

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])
    return holt_winters(ds, "series_key", "window_start", "count",
                        sf=0.4, tf=0.3)


def _q_predict_linear_1h_turns(sf_dir: str):
    """PromQL ``predict_linear(turns_total[6 windows], +3 windows)`` over
    the 1h counter tier — per-series trailing least squares, exact int64
    regression sums (stages/promql.predict_linear)."""
    from vertex_ray.stages.promql import predict_linear

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])
    return predict_linear(ds, "series_key", "window_start", "count",
                          n=6, steps_ahead=3, tier_seconds=3600)


def _q_deriv_1h_turns(sf_dir: str):
    """PromQL ``deriv(turns_total[6 windows])`` over the 1h counter tier:
    per-second least-squares slope of each series' trailing 6 windows —
    the trend read (stages/promql.deriv), same exact int64 regression
    sums as predict_linear."""
    from vertex_ray.stages.promql import deriv

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])
    return deriv(ds, "series_key", "window_start", "count",
                 n=6, tier_seconds=3600)


def _q_alert_state_1m_latency(sf_dir: str):
    """Prometheus-style alerting rule over the 1m latency tier:
    ``max_latency > 30s FOR 3 windows`` — inactive/pending/firing state
    per series sample, consecutive-breach runs broken by missing windows
    (stages/promql.alert_state)."""
    from vertex_ray.stages.promql import alert_state

    ds = _metric_tier(sf_dir, "1m", "inter_turn_latency_seconds",
                      ["series_key", "window_start", "max"])
    return alert_state(ds, "series_key", "window_start", "max",
                       threshold=30.0, for_windows=3, tier_seconds=60)


def _q_alert_keepfiring_1m_latency(sf_dir: str):
    """Alerting rule with Prometheus's ``keep_firing_for`` flap damper:
    ``max_latency > 30s FOR 3 windows, keep_firing_for 5 windows`` —
    once fired, the state is HELD at firing while the gap to the last
    firing evaluation is ≤ 5 windows, even though the condition no
    longer holds (stages/promql.alert_state keep_firing_windows)."""
    from vertex_ray.stages.promql import alert_state

    ds = _metric_tier(sf_dir, "1m", "inter_turn_latency_seconds",
                      ["series_key", "window_start", "max"])
    return alert_state(ds, "series_key", "window_start", "max",
                       threshold=30.0, for_windows=3, tier_seconds=60,
                       keep_firing_windows=5)


def _q_label_replace_clamp_1h(sf_dir: str):
    """PromQL ``clamp(label_replace(turns_total, "conv_prefix", "$1",
    "conv_id", "conv(\\d{4})\\d*"), 1, 5)`` over the 1h counter tier:
    derive a conv-id-prefix label into the rewritten series_key (appended
    last — the engine's relabeled-key normal form) and clamp the count
    (stages/promql.label_replace / clamp)."""
    from vertex_ray.stages.promql import clamp, label_replace

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])
    ds = label_replace(ds, "conv_prefix", "$1", "conv_id",
                       r"conv(\d{4})\d*")
    return clamp(ds, "count", lo=1, hi=5)


def _q_stddev_over_1h_turns(sf_dir: str):
    """PromQL ``stddev_over_time(turns_total[6 windows])`` over the 1h
    counter tier: trailing population stddev per series from exact int64
    sum / sum-of-squares partials (stages/promql.over_time)."""
    from vertex_ray.stages.promql import over_time

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])
    return over_time(ds, "series_key", "window_start", "count", 6,
                     agg="stddev")


def _q_irate_idelta_1m_latency(sf_dir: str):
    """PromQL ``irate()`` / ``idelta()`` over the 1m latency tier's
    ``last`` sample: instantaneous rate/delta from each series' last two
    samples, counter-reset rule on decreases
    (stages/promql.irate_idelta). Latencies are integer seconds stored
    exactly in float64, so the cast back to int64 is lossless."""
    from vertex_ray.stages.promql import irate_idelta

    ds = _metric_tier(sf_dir, "1m", "inter_turn_latency_seconds",
                      ["series_key", "window_start", "last"])

    def cast_last(t):
        import pyarrow as pa
        import pyarrow.compute as pc

        return t.set_column(t.schema.get_field_index("last"), "last",
                            pc.cast(t["last"], pa.int64()))

    ds = ds.map_batches(cast_last, batch_format="pyarrow")
    return irate_idelta(ds, "series_key", "window_start", "last")


def _q_series_churn_1h(sf_dir: str):
    """Store observability: per 1h window, the number of ACTIVE series
    and how many of them are NEW (this window is their first sample) —
    the cardinality-churn read an operator uses to spot label explosions.
    Two one-exchange aggregates over tier rows: rows-per-window (tier
    rows are unique per (series, window)), plus min-window per series
    re-aggregated to births-per-window."""
    import pandas as pd
    import pyarrow as pa

    from vertex_ray.stages.promql import group_sum

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start"])

    def ones(t: pa.Table) -> pa.Table:
        import numpy as np

        return t.append_column("one", pa.array(np.ones(t.num_rows,
                                                       dtype=np.int64)))

    active = group_sum(ds.map_batches(ones, batch_format="pyarrow"),
                       ["window_start"], ["one"])

    def first_partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = (df.groupby("series_key", sort=False)["window_start"]
             .min().reset_index())
        return pa.Table.from_pandas(g, preserve_index=False)

    def first_final(g: pd.DataFrame) -> pd.DataFrame:
        r = (g.groupby("series_key", sort=False)["window_start"]
             .min().reset_index())
        r["one"] = 1
        return (r.groupby("window_start", sort=False)["one"]
                .sum().reset_index())

    born = (ds.map_batches(first_partial, batch_format="pyarrow")
            .groupby("series_key")
            .map_groups(first_final, batch_format="pandas")
            .groupby("window_start").sum("one")
            .map_batches(lambda t: t.rename_columns(
                ["window_start", "one"]), batch_format="pyarrow"))

    from vertex_ray.stages.join import hash_join

    def shape(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "window_start": t["window_start"],
            "active_series": t["one"],
            "new_series": pc.coalesce(t["one_r"], pa.scalar(0, pa.int64())),
        })

    joined = hash_join(active, born, left_on="window_start", how="left")
    return joined.map_batches(shape, batch_format="pyarrow")


def _q_tier_splice_turns(sf_dir: str):
    """Tiered dashboard read: ONE continuous per-series counter stream
    spliced from two tiers — coarse 1h windows before the boundary T
    (old data reads from the downsampled tier), fine 1m windows from T on
    (recent data reads full-resolution). T is the range midpoint floored
    to the coarse tier. Both sides are pruned tier reads; the splice is a
    union, no recompute."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    trans = ensure_transcripts(sf_dir)
    ts = rd.read_parquet(trans, columns=["ts"])
    lo = ts.min("ts")
    hi = ts.max("ts")

    def _s(v):
        return int(v.timestamp()) if hasattr(v, "timestamp") else int(v) // 1_000_000

    t_split = ((_s(lo) + _s(hi)) // 2) // 3600 * 3600

    def side(tier, op, tag):
        ds = _metric_tier(sf_dir, tier, "turns_total",
                          ["series_key", "window_start", "count"])

        def f(t: pa.Table) -> pa.Table:
            t = t.filter(op(t["window_start"], t_split))
            return t.append_column(
                "tier", pa.array([tag] * t.num_rows, type=pa.string()))

        return ds.map_batches(f, batch_format="pyarrow")

    return side("1h", pc.less, "1h").union(side("1m", pc.greater_equal, "1m"))


def _q_lttb_1m_turns(sf_dir: str):
    """Dashboard-render downsampling: LTTB (largest-triangle-three-
    buckets) of each 1m counter series to 20 points — endpoints exact,
    spikes preserved (stages/promql.lttb_downsample). Hash-checked
    against an unrolled chained-CTE SQL mirror (_sql_lttb_1m_turns):
    integer-exact bucket edges, IEEE-identical triangle areas, earliest-
    window tie-break; selection invariants also pinned in
    tests/test_promql.py."""
    from vertex_ray.stages.promql import lttb_downsample

    ds = _metric_tier(sf_dir, "1m", "turns_total",
                      ["series_key", "window_start", "count"])
    return lttb_downsample(ds, "series_key", "window_start", "count", 20)


def _q_agg_by_role_1h(sf_dir: str):
    """PromQL ``sum by (role) (increase(turns_total[1h]))``: cross-series
    aggregation over the counter tier — the role tag is re-derived from
    the canonical series_key (sorted-tag identity, SURVEY §1.3) and
    per-window counts are summed across all series sharing it. Combiner
    pre-aggregation before the one exchange (stages/promql)."""
    from vertex_ray.stages.promql import label_aggregate

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])
    return label_aggregate(ds, "role", "count", out_col="turns")


def _q_avg_by_role_1h(sf_dir: str):
    """PromQL ``avg by (role) (increase(turns_total[1h]))``: mean
    per-series 1h turn count across each role's series — exact int64
    partial sums, single division at the end (never an average of
    partial averages)."""
    from vertex_ray.stages.promql import label_aggregate

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])
    return label_aggregate(ds, "role", "count", out_col="avg_turns",
                           agg="avg")


def _q_topk_series_1h(sf_dir: str):
    """PromQL ``topk(3, increase(turns_total[1h]))``: the 3 busiest series
    per 1h window, deterministic ties by series_key — block-local trim
    before the exchange (stages/ops.topk_per_group)."""
    from vertex_ray.stages.ops import topk_per_group

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])
    return topk_per_group(ds, "window_start", "count", 3,
                          tiebreak="series_key")


def _q_avg_over_time_1h(sf_dir: str):
    """PromQL ``avg_over_time(turns[4 windows])``: per-series moving mean
    of the 1h counter over a 4-window ROWS frame — exact int64 cumsum
    differencing, one exchange (stages/promql.over_time)."""
    from vertex_ray.stages.promql import over_time

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])
    return over_time(ds, "series_key", "window_start", "count", 4,
                     agg="avg", out_col="avg_count")


def _q_max_over_time_1h_latency(sf_dir: str):
    """PromQL ``max_over_time(latency_max[4 windows])`` over the 1h
    latency tier (order-free float moving max)."""
    from vertex_ray.stages.promql import over_time

    ds = _metric_tier(sf_dir, "1h", "inter_turn_latency_seconds",
                      ["series_key", "window_start", "max"])
    return over_time(ds, "series_key", "window_start", "max", 4,
                     agg="max", out_col="max_over")


def _q_record_rule_role_turns(sf_dir: str):
    """Recording rule (continuous-aggregate materialization): evaluate
    ``sum by (role) (turns_total)`` over the 1h tier, store the result as
    a NEW gauge metric ``role_turns_total`` in Gorilla block rows, decode
    them back — points must equal the plain SQL role aggregate
    bit-for-bit after the compression round-trip (stages/record)."""
    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.stages.record import record_rule

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])
    blocks = record_rule(ds, label="role", value_col="count",
                         new_metric="role_turns_total", tier="1h")
    dec = decode_tier_blocks(blocks)

    def shape(t):
        import pyarrow as pa

        return pa.table({
            "series_key": t["series_key"],
            "window_start": t["window_start"],
            "turns": t["last"],
        })

    return dec.map_batches(shape, batch_format="pyarrow")


def _q_rule_group_peak_role(sf_dir: str):
    """Rule GROUP with sequential evaluation (Prometheus recording-rule
    group semantics): rule 1 records ``sum by (role)(turns_total)``; rule
    2 aggregates rule 1's OUTPUT vector — ``max without(role)`` of the
    derived gauge — into a second materialized metric. Returns rule 2's
    blocks decoded: one series, the per-window max across roles, after a
    Gorilla round-trip (stages/record.rule_group)."""
    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.stages.record import rule_group

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])
    out = rule_group(
        ds,
        [
            {"record": "role_turns_total", "label": "role", "agg": "sum"},
            {"record": "peak_role_turns", "source": "role_turns_total",
             "without": ["role"], "agg": "max"},
        ],
        tier="1h", value_col="count")
    dec = decode_tier_blocks(out["peak_role_turns"])

    def shape(t):
        import pyarrow as pa

        return pa.table({
            "series_key": t["series_key"],
            "window_start": t["window_start"],
            "peak": t["last"],
        })

    return dec.map_batches(shape, batch_format="pyarrow")


def _q_count_over_time_1h(sf_dir: str):
    """PromQL ``count_over_time(turns_total[4 windows])``: per-series
    sample count in the ROWS frame (stages/promql.over_time)."""
    from vertex_ray.stages.promql import over_time

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])
    return over_time(ds, "series_key", "window_start", "count", 4,
                     agg="count", out_col="n_samples")


def _q_quantile_over_time_1h_latency(sf_dir: str):
    """PromQL ``quantile_over_time(0.9, latency_max[4 windows])`` over
    the 1h latency tier — order-free frame selection + linear
    interpolation in the exact ``quantile_cont`` evaluation shape, so
    the float result is bit-identical to the SQL oracle."""
    from vertex_ray.stages.promql import over_time

    ds = _metric_tier(sf_dir, "1h", "inter_turn_latency_seconds",
                      ["series_key", "window_start", "max"])
    return over_time(ds, "series_key", "window_start", "max", 4,
                     agg="quantile", q=0.9, out_col="q90_over")


def _q_stddev_by_role_1h(sf_dir: str):
    """PromQL ``stddev by (role) (increase(turns_total[1h]))``:
    population stddev of per-series 1h turn counts across each role's
    series — exact int64 (sum, sumsq, count) partials through the one
    exchange, single float evaluation at the end (stages/promql)."""
    from vertex_ray.stages.promql import label_aggregate

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])
    return label_aggregate(ds, "role", "count", out_col="sd_turns",
                           agg="stddev")


def _q_bottomk_series_1h(sf_dir: str):
    """PromQL ``bottomk(3, increase(turns_total[1h]))``: the 3 quietest
    series per 1h window, deterministic ties by series_key — same
    block-local trim combiner as topk, ascending order."""
    from vertex_ray.stages.ops import topk_per_group

    ds = _metric_tier(sf_dir, "1h", "turns_total",
                      ["series_key", "window_start", "count"])
    return topk_per_group(ds, "window_start", "count", 3,
                          tiebreak="series_key", ascending=True)


def _q_ratio_tools_per_turn_1h(sf_dir: str):
    """PromQL binary op with vector matching:
    ``tool_invocations_total / on(conv_id) turns_total`` over the 1h
    tier — both counters re-aggregated to the conv_id label, matched with
    one hash join, divided as a single Arrow kernel (stages/promql)."""
    from vertex_ray.stages.promql import binary_op, label_aggregate

    tools = label_aggregate(
        _metric_tier(sf_dir, "1h", "tool_invocations_total",
                     ["series_key", "window_start", "count"]),
        "conv_id", "count", out_col="tools")
    turns = label_aggregate(
        _metric_tier(sf_dir, "1h", "turns_total",
                     ["series_key", "window_start", "count"]),
        "conv_id", "count", out_col="turns")
    return binary_op(tools, turns, ["conv_id", "window_start"],
                     "tools", "turns", op="div", out_col="tools_per_turn")


def _q_hist_p99_global_1m(sf_dir: str):
    """The canonical Prometheus dashboard read:
    ``histogram_quantile(0.99, sum by (window) (latency_bucket))`` — the
    cumulative bucket vectors of ALL series are summed per 1m window
    (exact int64 merges, one combiner exchange — stages/promql.group_sum),
    then the quantile is interpolated from the aggregated histogram."""
    from vertex_ray.schema import N_BUCKETS
    from vertex_ray.stages.promql import group_sum
    from vertex_ray.stages.quantile import histogram_quantile_batch

    bcols = [f"b{i:02d}" for i in range(N_BUCKETS)]
    ds = _metric_tier(sf_dir, "1m", "inter_turn_latency_seconds",
                      ["window_start", "count"] + bcols)
    summed = group_sum(ds, ["window_start"], ["count"] + bcols)

    def shape(t):
        t = histogram_quantile_batch(t, 0.99, out_col="p99")
        return t.select(["window_start", "p99"])

    return summed.map_batches(shape, batch_format="pyarrow")


def _q_hist_fraction_1m_latency(sf_dir: str):
    """Prometheus ``histogram_fraction(0.3, 2.0, latency)`` per series
    at the 1m tier: the SLO read "what share of inter-turn latencies
    fell in (300 ms, 2 s]", linearly interpolated from the stored
    cumulative buckets (stages/quantile.histogram_fraction_batch; SQL
    mirror generated from the same constants)."""
    from vertex_ray.schema import N_BUCKETS
    from vertex_ray.stages.quantile import histogram_fraction_batch

    bcols = [f"b{i:02d}" for i in range(N_BUCKETS)]
    ds = _metric_tier(sf_dir, "1m", "inter_turn_latency_seconds",
                      ["series_key", "window_start", "count"] + bcols)

    def shape(t):
        t = histogram_fraction_batch(t, 0.3, 2.0, out_col="fraction")
        return t.select(["series_key", "window_start", "fraction"])

    return ds.map_batches(shape, batch_format="pyarrow")


def _q_exphist_1m(sf_dir: str):
    """Sparse exponential-bucket histogram (native-histogram analogue,
    stages/exphist): power-of-2 µs buckets of inter-turn latency per
    (series, 1m window), one sparse row per occupied bucket."""
    from vertex_ray.pipelines.rollup_pipeline import read_transcripts
    from vertex_ray.stages.exphist import latency_exp_histogram

    return latency_exp_histogram(read_transcripts(ensure_transcripts(sf_dir)), 60)


def _q_exphist_moments_1m(sf_dir: str):
    """Native-histogram histogram_count/sum/avg analogues in one pass:
    exact per-window observation count + midpoint-estimator sum/mean
    over the sparse power-of-2 rows (stages/exphist
    .exp_histogram_moments; estimator terms are exact powers-of-two
    multiples < 2^53, so sums are order-independent)."""
    from vertex_ray.pipelines.rollup_pipeline import read_transcripts
    from vertex_ray.stages.exphist import (
        exp_histogram_moments,
        latency_exp_histogram,
    )

    hist = latency_exp_histogram(
        read_transcripts(ensure_transcripts(sf_dir)), 60)
    return exp_histogram_moments(hist)


def _q_exphist_fraction_1m(sf_dir: str):
    """Native-histogram fraction read: exact share of inter-turn
    latencies in (2^20, 2^22] µs (≈1.05–4.2 s) per (series, 1m window)
    from the sparse power-of-2 rows — thresholds snap to bucket bounds
    so the count is exact, no interpolation
    (stages/exphist.exp_histogram_fraction)."""
    from vertex_ray.pipelines.rollup_pipeline import read_transcripts
    from vertex_ray.stages.exphist import (
        exp_histogram_fraction,
        latency_exp_histogram,
    )

    hist = latency_exp_histogram(
        read_transcripts(ensure_transcripts(sf_dir)), 60)
    return exp_histogram_fraction(hist, 20, 21)


def _q_exphist_global_p99_1m(sf_dir: str):
    """Global native-histogram quantile:
    ``histogram_quantile(0.99, sum(latency_exphist))`` — the sparse
    power-of-2 rows of ALL conversations are summed per (window, idx)
    with the combiner exchange (stages/promql.group_sum), then the
    quantile picks the exact bucket upper bound (stages/exphist)."""
    import pyarrow as pa

    from vertex_ray.pipelines.rollup_pipeline import read_transcripts
    from vertex_ray.stages.exphist import (
        exp_histogram_quantile,
        latency_exp_histogram,
    )
    from vertex_ray.stages.promql import group_sum

    hist = latency_exp_histogram(
        read_transcripts(ensure_transcripts(sf_dir)), 60)
    summed = group_sum(hist, ["window_start", "idx"], ["bucket_count"])

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column(
            "series_key", pa.array(["all"] * len(t), type=pa.string()))

    q = exp_histogram_quantile(
        summed.map_batches(tag, batch_format="pyarrow"), 0.99,
        out_col="p99")
    return q.map_batches(lambda t: t.select(["window_start", "p99"]),
                         batch_format="pyarrow")


def _q_exphist_stddev_1m(sf_dir: str):
    """Native-histogram ``histogram_stddev`` analogue: per (series,
    1m window) population stddev of latencies, each represented by its
    power-of-2 bucket's arithmetic midpoint (dyadic-exact partial sums,
    order-independent — stages/exphist.exp_histogram_stddev)."""
    from vertex_ray.pipelines.rollup_pipeline import read_transcripts
    from vertex_ray.stages.exphist import (
        exp_histogram_stddev,
        latency_exp_histogram,
    )

    hist = latency_exp_histogram(
        read_transcripts(ensure_transcripts(sf_dir)), 60)
    return exp_histogram_stddev(hist)


def _q_exphist_1h_merged(sf_dir: str):
    """The exponential histogram's MERGEABLE cascade: 1m sparse vectors
    fold into 1h windows by integer bucket-count sums (same-scale sparse
    add — the property the fixed-bucket Histogram kind shares and the
    Summary kind lacks)."""
    from vertex_ray.pipelines.rollup_pipeline import read_transcripts
    from vertex_ray.stages.exphist import latency_exp_histogram

    return latency_exp_histogram(
        read_transcripts(ensure_transcripts(sf_dir)), 60, coarse_seconds=3600)


def _q_exphist_exemplars_1m(sf_dir: str):
    """Exemplars: each bucket carries its largest observation (the slow
    turn a dashboard drills into from the histogram panel) — merged by
    max, deterministic."""
    from vertex_ray.pipelines.rollup_pipeline import read_transcripts
    from vertex_ray.stages.exphist import latency_exp_histogram

    return latency_exp_histogram(
        read_transcripts(ensure_transcripts(sf_dir)), 60, exemplars=True)


def _q_exphist_p99_1m(sf_dir: str):
    """Read-time p99 from the sparse exponential store: smallest occupied
    bucket reaching ceil(0.99·total); value = the bucket's exact 2^(idx+1)
    upper bound (SQL-reproducible bit-for-bit)."""
    from vertex_ray.pipelines.rollup_pipeline import read_transcripts
    from vertex_ray.stages.exphist import (
        exp_histogram_quantile,
        latency_exp_histogram,
    )

    rows = latency_exp_histogram(read_transcripts(ensure_transcripts(sf_dir)), 60)
    return exp_histogram_quantile(rows, 0.99, out_col="p99")


def _q_retention_1m(sf_dir: str):
    """Retention GC end-to-end: the 1m tier compacted to a 1-day horizon
    (stages/retention — expired blocks dropped from footer stats,
    boundary blocks decode→truncate→re-encode), then decoded back; real
    points must equal the plain rollup restricted to the horizon."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.stages.retention import apply_retention
    from vertex_ray.state.checkpoint import read_manifest, stage_files

    out = _ensure_pipeline(sf_dir)
    gend = read_manifest(os.path.join(out, "blocks"))["lineage"]["global_end_s"]
    dst = os.path.join(OUT_BASE, f"sf{sf_of_dir(sf_dir):g}", "tiers_retained")
    apply_retention(out, dst, {"1m": 86_400}, now_s=gend,
                    tier_seconds=dict(TIER_SECONDS))
    blocks = rd.read_parquet(stage_files(os.path.join(dst, "blocks")),
                             filter=pc.field("tier") == "1m")

    def shape(t):
        mask = pc.and_(
            pc.and_(pc.invert(t["filled"]), pc.invert(t["stale"])),
            pc.equal(t["name"], "inter_turn_latency_seconds"),
        )
        t = t.filter(mask)
        return t.select(
            ["series_key", "window_start", "sum", "count", "min", "max", "last"]
        ).set_column(3, "count", pc.cast(t["count"], pa.int64()))

    return decode_tier_blocks(blocks).map_batches(shape, batch_format="pyarrow")


def _q_retention_epochs_1m(sf_dir: str):
    """Retention GC over the TIME-CHUNKED epoch store: per-epoch block
    dirs are the layout where whole expired epochs drop at the scan from
    row-group statistics and fully in-horizon epochs pass through without
    a decode; only the boundary epoch's blocks are re-encoded. Same
    result contract as retention_1m_latency."""
    import os as _os

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from vertex_ray.pipelines.epoch_pipeline import (
        epoch_dirs,
        transcripts_span_s,
    )
    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.stages.retention import apply_retention
    from vertex_ray.state.checkpoint import stage_files

    out = _ensure_epochs(sf_dir)
    src_files = [
        f for ed in epoch_dirs(out)
        for f in stage_files(_os.path.join(ed, "blocks"))
    ]
    _, hi = transcripts_span_s(ensure_transcripts(sf_dir))
    gend = hi // 60 * 60
    dst = os.path.join(OUT_BASE, f"sf{sf_of_dir(sf_dir):g}",
                       "tiers_epochs_retained")
    apply_retention(out, dst, {"1m": 86_400}, now_s=gend,
                    tier_seconds=dict(TIER_SECONDS), src_files=src_files)
    blocks = rd.read_parquet(stage_files(os.path.join(dst, "blocks")),
                             filter=pc.field("tier") == "1m")

    def shape(t):
        mask = pc.and_(
            pc.and_(pc.invert(t["filled"]), pc.invert(t["stale"])),
            pc.equal(t["name"], "inter_turn_latency_seconds"),
        )
        t = t.filter(mask)
        return t.select(
            ["series_key", "window_start", "sum", "count", "min", "max", "last"]
        ).set_column(3, "count", pc.cast(t["count"], pa.int64()))

    return decode_tier_blocks(blocks).map_batches(shape, batch_format="pyarrow")


def _q_internal_counters(sf_dir: str):
    """Per-stage/per-partition rows+bytes+wall counters from the committed
    pipeline manifests — the `vertex top` / internal_metrics analogue
    (src/sources/internal_metrics.rs:35-60, src/top.rs:42-55). Rows-only
    check (operational introspection, not data)."""
    from vertex_ray.state.checkpoint import pipeline_counters

    out = _ensure_pipeline(sf_dir)
    return pipeline_counters(out)


def _q_gauge_locf_roundtrip(sf_dir: str):
    """Gauge LOCF + stale markers read back THROUGH Gorilla blocks: gap
    windows carry the last-observed turn index forward
    (MetricValue::Gauge semantics, lib/event/src/metric/mod.rs:47-49)
    and must survive encode → decode bit-for-bit."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks, read_stage

    out = _ensure_pipeline(sf_dir)
    dec = decode_tier_blocks(read_stage(out, "blocks", "1m"))

    def shape(t):
        t = t.filter(pc.equal(t["name"], "conv_turn_idx"))
        null_f = pa.scalar(None, pa.float64())
        return pa.table(
            {
                "series_key": t["series_key"],
                "window_start": t["window_start"],
                "sum": pc.if_else(t["stale"], null_f, t["sum"]),
                "last": pc.if_else(t["stale"], null_f, t["last"]),
                "count": pc.cast(t["count"], pa.int64()),
                "filled": t["filled"],
                "stale": t["stale"],
            }
        )

    return dec.map_batches(shape, batch_format="pyarrow")


def _q_mean_1h(sf_dir: str):
    """Mean derived from (sum, count) at read time — never stored
    (MetricsBuffer contract, FIXTURES §F4)."""
    import pyarrow.compute as pc

    ds = _tier_agg(sf_dir, "1h")

    def shape(t):
        t = _real_rows(t, "inter_turn_latency_seconds")
        return t.select(["series_key", "window_start"]).append_column(
            "mean", pc.divide(t["sum"], pc.cast(t["count"], "float64"))
        )

    return ds.map_batches(shape, batch_format="pyarrow")


def _q_hist_p99_1m(sf_dir: str):
    """histogram_quantile(0.99) derived at read time from the 1m tier's
    cumulative bucket state (stages/quantile; Prometheus interpolation)."""
    from vertex_ray.stages.quantile import histogram_quantile_batch

    ds = _tier_agg(sf_dir, "1m")

    def shape(t):
        t = _real_rows(t, "inter_turn_latency_seconds")
        t = histogram_quantile_batch(t, 0.99, out_col="p99")
        return t.select(["series_key", "window_start", "p99"])

    return ds.map_batches(shape, batch_format="pyarrow")


def _q_summary_1m(sf_dir: str):
    """Summary kind end-to-end (MetricValue::Summary,
    /root/reference lib/event/src/metric/mod.rs:33-39): exact per-(series,
    1m window) count/sum + q50/q90/q99 over inter-turn latency, one bucket
    exchange (stages/summary)."""
    from vertex_ray.pipelines.rollup_pipeline import read_transcripts
    from vertex_ray.stages.summary import latency_summary

    return latency_summary(read_transcripts(ensure_transcripts(sf_dir)), 60)


def _q_summary_1h_firstwins(sf_dir: str):
    """Summary tier cascade under the reference's NO-OP merge
    (MetricValue::merge does nothing for Summary, mod.rs:42-64): the 1h
    summary is the first accumulated 1m state per (series, 1h window)."""
    from vertex_ray.pipelines.rollup_pipeline import read_transcripts
    from vertex_ray.stages.summary import latency_summary

    return latency_summary(
        read_transcripts(ensure_transcripts(sf_dir)), 60, coarse_seconds=3600
    )


def _ensure_epochs(sf_dir: str) -> str:
    """Run (or resume) the epoch-incremental flagship: one committed
    increment per day of data, per-bucket carry state between epochs
    (pipelines/epoch_pipeline; bit-for-bit equal to the one-shot run)."""
    from vertex_ray.pipelines.epoch_pipeline import run_pipeline_epochs

    trans = ensure_transcripts(sf_dir)
    out = os.path.join(OUT_BASE, f"sf{sf_of_dir(sf_dir):g}", "tiers_epochs")
    run_pipeline_epochs(trans, out, epoch_seconds=86_400, n_buckets=16)
    return out


def _lat_epochs_query(tier: str):
    def q(sf_dir: str):
        from vertex_ray.pipelines.epoch_pipeline import read_epochs_stage

        out = _ensure_epochs(sf_dir)
        ds = read_epochs_stage(out, "agg", tier)
        return ds.map_batches(
            lambda t: _real_rows(t, "inter_turn_latency_seconds").select(_LAT_COLS),
            batch_format="pyarrow",
        )

    return q


# ---------------------------------------------------------------------------
# trace/span queries — the third Events variant (lib/event/src/array.rs:10-17)
# ---------------------------------------------------------------------------


def _span_input(sf_dir: str):
    import ray.data as rd

    from vertex_ray.stages.trace import SPAN_PROJECT_COLUMNS

    return rd.read_parquet(ensure_transcripts(sf_dir),
                           columns=SPAN_PROJECT_COLUMNS)


def _q_spans_from_turns(sf_dir: str):
    """Transcript turns → span table (stages/trace.spans_from_transcripts):
    conversation = trace, turn = span, parent = previous turn; ONE
    conv-bucket exchange, segmented numpy assembly. Mirrors Span
    (lib/event/src/trace/span.rs:199-230) field for field."""
    from vertex_ray.stages.trace import spans_from_transcripts

    return spans_from_transcripts(_span_input(sf_dir))


def _q_jaeger_wire_spans(sf_dir: str):
    """Jaeger span-batch WIRE round-trip (sources/jaeger — the
    src/sources/jaeger + src/sinks/jaeger wire analogue in the public
    api_v2 protobuf shape): span table → one PostSpansRequest payload
    per batch (the sink's request unit) → decode back to span rows.
    Oracled against the same SQL as op_spans_from_turns — the wire
    codec must be the identity on the full 9-column span table."""
    from vertex_ray.sources.jaeger import jaeger_decode_op, jaeger_encode_op
    from vertex_ray.stages.trace import spans_from_transcripts

    spans = spans_from_transcripts(_span_input(sf_dir))
    payloads = spans.map_batches(jaeger_encode_op(),
                                 batch_format="pyarrow")
    return payloads.map_batches(jaeger_decode_op(), batch_format="pyarrow")


def _q_trace_assemble_turns(sf_dir: str):
    """Sessionize → trace assembly: one row per trace with span count,
    tool-span count, start/end and duration (stages/trace.trace_assemble)."""
    from vertex_ray.stages.trace import trace_assemble

    return trace_assemble(_span_input(sf_dir))


def _span_store(sf_dir: str, cascade: tuple = ()):
    from vertex_ray.stages.trace import span_rollup_store

    return span_rollup_store(_span_input(sf_dir), window_s=60, tier="1m",
                             cascade=cascade)


def _q_span_count_rollup_1m(sf_dir: str):
    """Span-count rollup through the tier machinery INTO the Gorilla
    store and back: spans → windowed per-series partials (combiner) →
    series-bucket merge → pack → encode → decode."""
    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks

    ds = decode_tier_blocks(_span_store(sf_dir))
    return ds.map_batches(
        lambda t: _real_rows(t, "span_count_total").select(
            ["series_key", "window_start", "sum", "count"]),
        batch_format="pyarrow")


def _q_span_duration_hist_1h(sf_dir: str):
    """Span-duration histogram cascaded 1m → 1h (merge_agg coarser-tier
    contract: element-wise cumulative-bucket adds,
    MetricValue::Histogram merge, lib/event/src/metric/mod.rs:42-64),
    decoded from the Gorilla store."""
    import pyarrow.compute as pc

    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks

    ds = decode_tier_blocks(_span_store(sf_dir, cascade=(("1h", 3600),)))
    cols = ["series_key", "window_start", "sum", "count"] + [
        f"b{i:02d}" for i in range(len(DEFAULT_BUCKETS))]

    def shape(t):
        t = _real_rows(t, "span_duration_seconds")
        t = t.filter(pc.equal(t["tier"], "1h"))
        return t.select(cols)

    return ds.map_batches(shape, batch_format="pyarrow")


def _q_span_duration_p99_1h(sf_dir: str):
    """trace-duration read: histogram_quantile(0.99) of span durations
    per service-analogue (role) per 1h window, interpolated from the
    cascaded cumulative bucket state (stages/quantile, the Prometheus
    convention) — the span twin of rollup_1m_latency_p99."""
    import pyarrow.compute as pc

    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.stages.quantile import histogram_quantile_batch

    ds = decode_tier_blocks(_span_store(sf_dir, cascade=(("1h", 3600),)))

    def shape(t):
        t = _real_rows(t, "span_duration_seconds")
        t = t.filter(pc.equal(t["tier"], "1h"))
        t = histogram_quantile_batch(t, 0.99, out_col="p99")
        return t.select(["series_key", "window_start", "p99"])

    return ds.map_batches(shape, batch_format="pyarrow")


def _q_span_service_graph(sf_dir: str):
    """Service-dependency edges over the span model (the Jaeger
    service-graph read): parent→child span pairs within each trace,
    counted per (parent role, child role) — per-bucket partials then one
    role-pair-cardinality exchange (stages/trace.service_graph)."""
    from vertex_ray.stages.trace import service_graph

    return service_graph(_span_input(sf_dir))


def _q_span_count_rollup_1m_epochs(sf_dir: str):
    """Epoch-incremental span ingest (stages/trace.
    span_rollup_store_incremental — per-conv last-turn carry is the only
    cross-epoch state): the transcripts split into two ts epochs ingest
    to the same 1m span-count store as the one-shot, so the one-shot's
    SQL mirror oracles this path too (the retention_epochs pattern)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data as rd

    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.stages.trace import (
        SPAN_PROJECT_COLUMNS,
        span_rollup_store_incremental,
    )

    t = pq.read_table(ensure_transcripts(sf_dir),
                      columns=SPAN_PROJECT_COLUMNS)
    ts = t["ts"].cast(pa.int64())
    cut = (pc.min(ts).as_py() + pc.max(ts).as_py()) // 2
    eps = [rd.from_arrow(t.filter(pc.less(ts, cut))),
           rd.from_arrow(t.filter(pc.greater_equal(ts, cut)))]
    blocks = span_rollup_store_incremental(eps, window_s=60, tier="1m")
    ds = decode_tier_blocks(blocks)
    return ds.map_batches(
        lambda b: _real_rows(b, "span_count_total").select(
            ["series_key", "window_start", "sum", "count"]),
        batch_format="pyarrow")


def queries() -> dict[str, Callable[[str], Any]]:
    from vertex_ray.pipelines.op_queries import OP_QUERIES

    _ensure_oracle_transcripts()
    return {
        **OP_QUERIES,
        "rollup_1m_turns": _q_turns,
        "rollup_1m_turns_salted": _q_turns_salted,
        "rollup_1m_tools": _q_tools,
        "rollup_1m_latency": _lat_query("1m"),
        "rollup_5m_latency": _lat_query("5m"),
        "rollup_1h_latency": _lat_query("1h"),
        "rollup_1d_latency": _lat_query("1d"),
        "rollup_1m_hist_buckets": _q_hist_buckets,
        "rollup_1m_latency_p99": _q_hist_p99_1m,
        "transcript_passthrough": _q_passthrough,
        "transcript_conv_stitch": _q_conv_stitch,
        "pipeline_build_samples": _q_build_samples,
        "select_series_1m_latency": _q_select_series,
        "remote_read_1m_turns": _q_remote_read_1m_turns,
        "read_api_range_1h_turns": _q_read_api_range,
        "read_api_range_offset_1h_turns": _q_read_api_range_offset,
        "promql_expr_sum_by_role_1h": _q_promql_expr_sum_by_role,
        "promql_expr_user_share_1h": _q_promql_expr_user_share,
        "promql_expr_peak_subquery_1h": _q_promql_expr_peak_subquery,
        "promql_expr_hot_convs_bool_1h": _q_promql_expr_hot_convs_bool,
        "promql_rules_group_1h": _q_promql_rules_group,
        "promql_expr_hist_p99_1m": _q_promql_expr_hist_p99,
        "promql_expr_multi_by_1h": _q_promql_expr_multi_by,
        "promql_expr_ignoring_ratio_1h": _q_promql_expr_ignoring_ratio,
        "promql_expr_at_baseline_1h": _q_promql_expr_at_baseline,
        "promql_expr_group_right_1h": _q_promql_expr_group_right,
        "burn_rate_1m_latency": _q_burn_rate_1m_latency,
        "quantile_by_role_1h_turns": _q_quantile_by_role_1h,
        "stream_encode_roundtrip_1m_turns": _q_stream_encode_roundtrip,
        "stream_encode_ooo_1m_turns": _q_stream_encode_ooo,
        "count_values_1h_turns": _q_count_values_1h_turns,
        "read_api_instant_1h_turns": _q_read_api_instant,
        "delete_series_1h_turns": _q_delete_series_1h_turns,
        "absent_1h_conv0_turns": _q_absent_1h_conv0,
        "group_left_share_1h_turns": _q_group_left_share_1h,
        "series_metadata_1h_turns": _q_series_metadata_1h,
        "tsdb_status_1h_turns": _q_tsdb_status_1h,
        "label_cardinality_1h_turns": _q_label_cardinality_1h,
        "federated_range_1h_turns": _q_federated_range_1h,
        "label_values_role_1h": _q_label_values_1h,
        "offset_dod_1h_turns": _q_offset_dod_1h,
        "hourly_profile_1h_turns": _q_hourly_profile_turns,
        "limit_ratio_1h_turns": _q_limit_ratio_1h,
        "group_by_role_1h_turns": _q_group_by_role_1h,
        "mad_over_1h_turns": _q_mad_over_1h_turns,
        "sqrt_scaled_1h_turns": _q_sqrt_scaled_1h,
        "sum_without_role_1h_turns": _q_sum_without_role_1h,
        "avg_without_role_1h_turns": _q_avg_without_role_1h,
        "stddev_without_role_1h_turns": _q_stddev_without_role_1h,
        "resample_4h_1h_turns": _q_resample_4h_turns,
        "limitk_3_1h_turns": _q_limitk_1h,
        "trending_tools_1h": _q_trending_tools_1h,
        "point_read_1h_turns": _q_point_read_1h,
        "stitched_rate_1d_1h": _q_stitched_rate,
        "resample_4h_gauge_last": _q_resample_4h_gauge,
        "first_over_1h_turns": _q_first_over_1h,
        "dom_profile_1d_turns": _q_dom_profile_1d,
        "stitched_1d_1h_turns": _q_stitched_1d_1h,
        "above_role_avg_1h_turns": _q_above_role_avg_1h,
        "and_tools_1h_turns": _q_and_tools_1h,
        "unless_tools_1h_turns": _q_unless_tools_1h,
        "or_user_all_1h_turns": _q_or_user_all_1h,
        "gorilla_roundtrip_1m_latency": _q_gorilla_roundtrip,
        "rollup_1m_latency_locf_stale": _q_locf_1m,
        "rollup_1h_latency_mean": _q_mean_1h,
        "rollup_1m_turn_gauge": _q_gauge_1m,
        "delta_1m_turn_gauge": _q_gauge_delta_1m,
        "resets_changes_1m_gauge": _q_resets_changes_1m_gauge,
        "rollup_1h_turn_gauge": _q_gauge_1h,
        "gorilla_roundtrip_1m_gauge_locf": _q_gauge_locf_roundtrip,
        # internal_counters (per-stage rows/bytes/WALL) is inherently
        # rows-only (wall times vary per run) — surfaced via the CLI
        # `top`/`stats` verbs and tests/test_cli.py, not the driver dict
        "rate_1h_turns": _q_rate_1h_turns,
        "peak_5m_rate_1h_turns": _q_peak_5m_rate_1h,
        "zscore_1h_turns": _q_zscore_1h_turns,
        "lttb_1m_turns": _q_lttb_1m_turns,
        "tier_splice_turns": _q_tier_splice_turns,
        "series_churn_1h_turns": _q_series_churn_1h,
        "predict_linear_1h_turns": _q_predict_linear_1h_turns,
        "deriv_1h_turns": _q_deriv_1h_turns,
        "irate_idelta_1m_latency": _q_irate_idelta_1m_latency,
        "stddev_over_1h_turns": _q_stddev_over_1h_turns,
        "label_replace_clamp_1h_turns": _q_label_replace_clamp_1h,
        "alert_state_1m_latency": _q_alert_state_1m_latency,
        "alert_keepfiring_1m_latency": _q_alert_keepfiring_1m_latency,
        "holt_winters_1h_turns": _q_holt_winters_1h_turns,
        "backfill_1m_turns": _q_backfill_1m_turns,
        "agg_by_role_1h_turns": _q_agg_by_role_1h,
        "avg_by_role_1h_turns": _q_avg_by_role_1h,
        "hist_p99_global_1m": _q_hist_p99_global_1m,
        "hist_fraction_1m_latency": _q_hist_fraction_1m_latency,
        "ratio_tools_per_turn_1h": _q_ratio_tools_per_turn_1h,
        "retention_1m_latency": _q_retention_1m,
        "retention_1m_latency_epochs": _q_retention_epochs_1m,
        "exphist_1m_latency": _q_exphist_1m,
        "exphist_1m_latency_fraction": _q_exphist_fraction_1m,
        "exphist_1m_global_p99": _q_exphist_global_p99_1m,
        "exphist_1m_latency_stddev": _q_exphist_stddev_1m,
        "exphist_1m_latency_moments": _q_exphist_moments_1m,
        "exphist_1h_latency_merged": _q_exphist_1h_merged,
        "exphist_1m_latency_p99": _q_exphist_p99_1m,
        "exphist_1m_latency_exemplars": _q_exphist_exemplars_1m,
        "topk_series_1h_turns": _q_topk_series_1h,
        "bottomk_series_1h_turns": _q_bottomk_series_1h,
        "record_rule_role_turns_1h": _q_record_rule_role_turns,
        "rule_group_peak_role_1h": _q_rule_group_peak_role,
        "count_over_time_1h_turns": _q_count_over_time_1h,
        "quantile_over_time_1h_latency": _q_quantile_over_time_1h_latency,
        "stddev_by_role_1h_turns": _q_stddev_by_role_1h,
        "avg_over_time_1h_turns": _q_avg_over_time_1h,
        "max_over_time_1h_latency": _q_max_over_time_1h_latency,
        "rollup_1m_latency_summary": _q_summary_1m,
        "rollup_1h_latency_summary_firstwins": _q_summary_1h_firstwins,
        "rollup_1m_latency_epochs": _lat_epochs_query("1m"),
        "compact_1m_latency_epochs": _q_compact_1m_latency,
        "rollup_1d_latency_epochs": _lat_epochs_query("1d"),
        "op_spans_from_turns": _q_spans_from_turns,
        "op_jaeger_wire_spans": _q_jaeger_wire_spans,
        "op_trace_assemble_turns": _q_trace_assemble_turns,
        "span_count_rollup_1m_turns": _q_span_count_rollup_1m,
        "span_duration_hist_1h_turns": _q_span_duration_hist_1h,
        "span_duration_p99_1h_turns": _q_span_duration_p99_1h,
        "op_span_service_graph": _q_span_service_graph,
        "span_count_rollup_1m_epochs": _q_span_count_rollup_1m_epochs,
    }


# ---------------------------------------------------------------------------
# oracle SQL (DuckDB) — same parquet inputs, same column names
# ---------------------------------------------------------------------------


def _sql_turns() -> str:
    return f"""
    SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role || '}}' AS series_key,
           {_w(60)} AS window_start,
           count(*) AS count
    FROM {_SQL_TRANSCRIPTS}
    GROUP BY 1, 2
    """


def _sql_lttb_1m_turns(n_out: int = 20) -> str:
    """SQL mirror of stages/promql.lttb_downsample over the 1m turns
    tier, generated as ``n_out - 2`` CHAINED CTEs (one per interior
    bucket — the selection is sequential, each bucket's pick depends on
    the previous kept point, so the unrolled chain IS the recurrence).
    Exactness: bucket edges are round-half-even on exact integers (the
    engine uses the identical integer arithmetic); centroids are
    exact-int sums / count (one float rounding each side); the triangle
    area uses the same IEEE expression tree; argmax ties break to the
    earliest window (QUALIFY ... ORDER BY area DESC, rn)."""
    nb = n_out - 2
    parts = [f"""
    WITH g AS (
      SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role || '}}'
               AS series_key,
             {_w(60)} AS window_start, count(*) AS count
      FROM {_SQL_TRANSCRIPTS} GROUP BY 1, 2
    ),
    r AS MATERIALIZED (
      SELECT series_key, window_start, count,
             CAST(window_start AS DOUBLE) AS x, CAST(count AS DOUBLE) AS y,
             row_number() OVER (PARTITION BY series_key
                                ORDER BY window_start) - 1 AS rn,
             count(*) OVER (PARTITION BY series_key) AS n
      FROM g
    ),
    edges AS (
      SELECT series_key, n, j,
             1 + (j*(n-2)) // {nb}
               + CASE WHEN 2*((j*(n-2)) % {nb}) > {nb} THEN 1
                      WHEN 2*((j*(n-2)) % {nb}) = {nb}
                           AND ((j*(n-2)) // {nb}) % 2 = 1 THEN 1
                      ELSE 0 END AS erel
      FROM (SELECT DISTINCT series_key, n FROM r WHERE n > {n_out}),
           (SELECT unnest(range({n_out - 1})) AS j)
    ),
    bspan AS MATERIALIZED (
      SELECT e1.series_key, e1.j AS bi, e1.erel AS lo, e2.erel AS hi,
             e2.erel AS nlo,
             CASE WHEN e1.j = {nb - 1} THEN e1.n ELSE e3.erel END AS nhi
      FROM edges e1
      JOIN edges e2 ON e2.series_key = e1.series_key AND e2.j = e1.j + 1
      LEFT JOIN edges e3 ON e3.series_key = e1.series_key AND e3.j = e1.j + 2
      WHERE e1.j < {nb}
    ),
    cent AS MATERIALIZED (
      SELECT b.series_key, b.bi,
             CAST(sum(p.window_start) AS DOUBLE) / count(*) AS cx,
             CAST(sum(p.count) AS DOUBLE) / count(*) AS cy
      FROM bspan b JOIN r p ON p.series_key = b.series_key
                   AND p.rn >= b.nlo AND p.rn < b.nhi
      GROUP BY 1, 2
    ),
    k0 AS MATERIALIZED (SELECT series_key, rn, x, y FROM r WHERE rn = 0 AND n > {n_out})"""]
    for i in range(1, nb + 1):
        parts.append(f""",
    k{i} AS MATERIALIZED (
      SELECT p.series_key, p.rn, p.x, p.y
      FROM k{i - 1} k
      JOIN bspan b ON b.series_key = k.series_key AND b.bi = {i - 1}
      JOIN cent c ON c.series_key = b.series_key AND c.bi = {i - 1}
      JOIN r p ON p.series_key = b.series_key
              AND p.rn >= b.lo AND p.rn < b.hi
      QUALIFY row_number() OVER (PARTITION BY p.series_key
        ORDER BY abs((k.x - c.cx)*(p.y - k.y) - (k.x - p.x)*(c.cy - k.y))
                 DESC, p.rn) = 1
    )""")
    kept_union = "\n      UNION ALL ".join(
        f"SELECT series_key, rn FROM k{i}" for i in range(nb + 1))
    parts.append(f""",
    kept AS (
      {kept_union}
      UNION ALL
      SELECT series_key, n - 1 AS rn FROM r WHERE rn = 0 AND n > {n_out}
    )
    SELECT p.series_key, p.window_start, p.count
    FROM kept JOIN r p ON p.series_key = kept.series_key AND p.rn = kept.rn
    UNION ALL
    SELECT series_key, window_start, count FROM r WHERE n <= {n_out}
    """)
    return "".join(parts)


def _q_compact_1m_latency(sf_dir: str):
    """TSDB-style compaction of the epoch store's blocks (one block per
    series × tier instead of one per epoch — stages/compact), then decode:
    points must still match the plain SQL 1m rollup bit-for-bit."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from vertex_ray.pipelines.epoch_pipeline import read_epochs_stage
    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.stages.compact import compact_blocks

    out = _ensure_epochs(sf_dir)
    comp = compact_blocks(read_epochs_stage(out, "blocks", "1m"))
    dec = decode_tier_blocks(comp)

    def shape(t):
        t = _real_rows(t, "inter_turn_latency_seconds")
        return t.select(_LAT_COLS).set_column(
            3, "count", pc.cast(t["count"], pa.int64()))

    return dec.map_batches(shape, batch_format="pyarrow")


def _sql_lat(seconds: int) -> str:
    return f"""{_LAT_CTE}
    SELECT 'inter_turn_latency_seconds{{conv_id=' || conv_id || '}}' AS series_key,
           {_w(seconds)} AS window_start,
           sum(lat) AS sum, count(*) AS count,
           min(lat) AS min, max(lat) AS max,
           arg_max(lat, ts) AS last
    FROM lat WHERE lat IS NOT NULL
    GROUP BY 1, 2
    """


def oracle_sql() -> dict[str, str]:
    from vertex_ray.pipelines.op_queries import OP_ORACLES

    _ensure_oracle_transcripts()
    sqls = {
        **OP_ORACLES,
        "lttb_1m_turns": _sql_lttb_1m_turns(),
        "holt_winters_1h_turns": f"""
            WITH RECURSIVE g AS (
              SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role || '}}'
                       AS series_key,
                     {_w(3600)} AS window_start,
                     count(*) AS x
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2
            ),
            r AS (
              SELECT series_key, window_start, x,
                     row_number() OVER (PARTITION BY series_key
                                        ORDER BY window_start) AS rn
              FROM g
            ),
            hw(series_key, rn, window_start, s, b) AS (
              SELECT r1.series_key, 1, r1.window_start,
                     CAST(r1.x AS DOUBLE),
                     CAST(r2.x AS DOUBLE) - CAST(r1.x AS DOUBLE)
              FROM r r1 JOIN r r2
                ON r2.series_key = r1.series_key AND r2.rn = 2
              WHERE r1.rn = 1
              UNION ALL
              SELECT d.series_key, d.rn, d.window_start,
                     0.4*CAST(d.x AS DOUBLE) + 0.6*(p.s + p.b),
                     0.3*((0.4*CAST(d.x AS DOUBLE) + 0.6*(p.s + p.b)) - p.s)
                       + 0.7*p.b
              FROM r d JOIN hw p
                ON p.series_key = d.series_key AND d.rn = p.rn + 1
            )
            SELECT series_key, window_start, s AS smoothed FROM hw
            """,
        "predict_linear_1h_turns": f"""
            WITH g AS (
              SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role || '}}'
                       AS series_key,
                     {_w(3600)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2
            ),
            b AS (
              SELECT series_key, window_start,
                     window_start // 3600 AS u,
                     count(*) OVER w AS n,
                     sum(count) OVER w AS sy,
                     sum(window_start // 3600) OVER w AS sw,
                     sum((window_start // 3600) * count) OVER w AS swy,
                     sum((window_start // 3600) * (window_start // 3600))
                       OVER w AS sww
              FROM g
              WINDOW w AS (PARTITION BY series_key ORDER BY window_start
                           ROWS BETWEEN 5 PRECEDING AND CURRENT ROW)
            )
            SELECT series_key, window_start,
                   CASE WHEN n*(sww - 2*u*sw + n*u*u)
                             - (sw - n*u)*(sw - n*u) <= 0 THEN NULL
                   ELSE
                     (CAST(sy AS DOUBLE)
                      - (CAST(n*(swy - u*sy) - (sw - n*u)*sy AS DOUBLE)
                         / (n*(sww - 2*u*sw + n*u*u)
                            - (sw - n*u)*(sw - n*u)))
                        * CAST(sw - n*u AS DOUBLE)) / n
                     + (CAST(n*(swy - u*sy) - (sw - n*u)*sy AS DOUBLE)
                        / (n*(sww - 2*u*sw + n*u*u)
                           - (sw - n*u)*(sw - n*u))) * 3.0
                   END AS predicted
            FROM b
            """,
        "deriv_1h_turns": f"""
            WITH g AS (
              SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role || '}}'
                       AS series_key,
                     {_w(3600)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2
            ),
            b AS (
              SELECT series_key, window_start,
                     window_start // 3600 AS u,
                     count(*) OVER w AS n,
                     sum(count) OVER w AS sy,
                     sum(window_start // 3600) OVER w AS sw,
                     sum((window_start // 3600) * count) OVER w AS swy,
                     sum((window_start // 3600) * (window_start // 3600))
                       OVER w AS sww
              FROM g
              WINDOW w AS (PARTITION BY series_key ORDER BY window_start
                           ROWS BETWEEN 5 PRECEDING AND CURRENT ROW)
            )
            SELECT series_key, window_start,
                   CASE WHEN n*(sww - 2*u*sw + n*u*u)
                             - (sw - n*u)*(sw - n*u) <= 0 THEN NULL
                   ELSE
                     (CAST(n*(swy - u*sy) - (sw - n*u)*sy AS DOUBLE)
                      / (n*(sww - 2*u*sw + n*u*u)
                         - (sw - n*u)*(sw - n*u))) / 3600.0
                   END AS deriv
            FROM b
            """,
        "irate_idelta_1m_latency": f"""
            WITH g AS ({_sql_lat(60)}),
            d AS (
              SELECT series_key, window_start, last AS v,
                     lag(last) OVER w AS pv,
                     lag(window_start) OVER w AS pw
              FROM g
              WINDOW w AS (PARTITION BY series_key ORDER BY window_start)
            )
            SELECT series_key, window_start,
                   CAST(v - pv AS DOUBLE) AS idelta,
                   CAST(CASE WHEN v >= pv THEN v - pv ELSE v END AS DOUBLE)
                     / (window_start - pw) AS irate
            FROM d
            """,
        "stddev_over_1h_turns": f"""
            WITH g AS (
              SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role || '}}'
                       AS series_key,
                     {_w(3600)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2
            ),
            b AS (
              SELECT series_key, window_start,
                     count(*) OVER w AS n,
                     sum(count) OVER w AS s,
                     sum(count * count) OVER w AS ss
              FROM g
              WINDOW w AS (PARTITION BY series_key ORDER BY window_start
                           ROWS BETWEEN 5 PRECEDING AND CURRENT ROW)
            )
            SELECT series_key, window_start,
                   sqrt(CAST(n*ss - s*s AS DOUBLE) / (n*n)) AS stddev_over
            FROM b
            """,
        "label_replace_clamp_1h_turns": f"""
            SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role
                     || ',conv_prefix='
                     || regexp_extract(conv_id, 'conv(\\d{{4}})\\d*', 1)
                     || '}}' AS series_key,
                   {_w(3600)} AS window_start,
                   LEAST(GREATEST(count(*), 1), 5) AS count
            FROM {_SQL_TRANSCRIPTS}
            GROUP BY conv_id, role, 2
            """,
        "count_values_1h_turns": f"""
            WITH g AS (
              SELECT conv_id, role, {_w(3600)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2, 3
            )
            SELECT count, window_start,
                   CAST(count(*) AS BIGINT) AS n_series
            FROM g GROUP BY 1, 2
            """,
        "quantile_by_role_1h_turns": f"""
            WITH g AS (
              SELECT conv_id, role, {_w(3600)} AS window_start,
                     count(*) AS c
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2, 3
            )
            SELECT role, window_start,
                   quantile_cont(c, 0.9) AS p90_turns
            FROM g GROUP BY 1, 2
            """,
        "burn_rate_1m_latency": f"""{_LAT_CTE},
            g AS (
              SELECT {_w(60)} AS window_start, count(*) AS total,
                     sum(CASE WHEN lat <= 2.5 THEN 1 ELSE 0 END) AS good
              FROM lat WHERE lat IS NOT NULL
              GROUP BY 1
            ),
            f AS (
              SELECT window_start,
                     sum(total) OVER wf AS tf,
                     sum(total - good) OVER wf AS bf,
                     sum(total) OVER ws AS tsl,
                     sum(total - good) OVER ws AS bsl
              FROM g
              WINDOW wf AS (ORDER BY window_start
                            ROWS BETWEEN 4 PRECEDING AND CURRENT ROW),
                     ws AS (ORDER BY window_start
                            ROWS BETWEEN 59 PRECEDING AND CURRENT ROW)
            )
            SELECT 'latency_le_2.5s' AS slo, window_start,
                   (CAST(bf AS DOUBLE) / tf) / 0.1 AS burn_fast,
                   (CAST(bsl AS DOUBLE) / tsl) / 0.1 AS burn_slow,
                   ((CAST(bf AS DOUBLE) / tf) / 0.1 > 2.0)
                     AND ((CAST(bsl AS DOUBLE) / tsl) / 0.1 > 2.0) AS firing
            FROM f
            """,
        "read_api_range_1h_turns": f"""
            WITH g AS (
              SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role
                       || '}}' AS series_key,
                     {_w(3600)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS} WHERE role = 'user'
              GROUP BY 1, 2
            ),
            t0 AS (SELECT min(window_start) AS t0 FROM g)
            SELECT series_key, window_start, count
            FROM g, t0 WHERE window_start <= t0 + 21600
            """,
        "read_api_range_offset_1h_turns": f"""
            WITH g AS (
              SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role
                       || '}}' AS series_key,
                     {_w(3600)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS} WHERE role = 'user'
              GROUP BY 1, 2
            ),
            t0 AS (SELECT min(window_start) AS t0 FROM g)
            SELECT series_key, window_start + 86400 AS window_start, count
            FROM g, t0 WHERE window_start <= t0 + 21600
            """,
        "promql_expr_sum_by_role_1h": f"""
            SELECT role, {_w(3600)} AS window_start,
                   CAST(count(*) AS BIGINT) AS value
            FROM {_SQL_TRANSCRIPTS}
            GROUP BY 1, 2
            """,
        "promql_expr_user_share_1h": f"""
            WITH g AS (
              SELECT conv_id, {_w(3600)} AS window_start,
                     count(*) AS c,
                     sum(CASE WHEN role = 'user' THEN 1 ELSE 0 END) AS u
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2
            )
            SELECT conv_id, window_start,
                   CAST(u AS DOUBLE) / CAST(c AS DOUBLE) AS value
            FROM g WHERE u > 0
            """,
        "promql_expr_peak_subquery_1h": f"""
            WITH g AS (
              SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role
                       || '}}' AS series_key,
                     {_w(300)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2
            )
            SELECT series_key, window_start,
                   CAST(max(count) OVER (
                     PARTITION BY series_key ORDER BY window_start
                     ROWS BETWEEN 11 PRECEDING AND CURRENT ROW) AS DOUBLE)
                     AS value
            FROM g
            """,
        "promql_expr_hot_convs_bool_1h": f"""
            WITH g AS (
              SELECT conv_id, {_w(3600)} AS window_start,
                     count(*) AS c
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2
            )
            SELECT conv_id, window_start,
                   CASE WHEN CAST(c AS DOUBLE) > 60.0
                        THEN 1.0 ELSE 0.0 END AS value
            FROM g
            """,
        "promql_expr_multi_by_1h": f"""
            SELECT conv_id, role, {_w(3600)} AS window_start,
                   CAST(count(*) AS BIGINT) AS value
            FROM {_SQL_TRANSCRIPTS}
            GROUP BY 1, 2, 3
            """,
        "promql_expr_ignoring_ratio_1h": f"""
            WITH u AS (
              SELECT conv_id, {_w(3600)} AS window_start, count(*) AS c
              FROM {_SQL_TRANSCRIPTS} WHERE role = 'user'
              GROUP BY 1, 2
            ),
            a AS (
              SELECT conv_id, {_w(3600)} AS window_start, count(*) AS c
              FROM {_SQL_TRANSCRIPTS} WHERE role = 'assistant'
              GROUP BY 1, 2
            )
            SELECT '{{conv_id=' || u.conv_id || '}}' AS series_key,
                   u.window_start,
                   CAST(u.c AS DOUBLE) / CAST(a.c AS DOUBLE) AS value
            FROM u JOIN a USING (conv_id, window_start)
            """,
        "promql_expr_at_baseline_1h": f"""
            WITH cur AS (
              SELECT role, {_w(3600)} AS window_start, count(*) AS c
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2
            ),
            base AS (
              SELECT role, count(*) AS c
              FROM {_SQL_TRANSCRIPTS}
              WHERE {_w(3600)} = 1767441600
              GROUP BY 1
            )
            SELECT cur.role, cur.window_start,
                   CAST(cur.c AS DOUBLE) / CAST(base.c AS DOUBLE) AS value
            FROM cur JOIN base USING (role)
            """,
        "promql_expr_group_right_1h": f"""
            WITH per_series AS (
              SELECT conv_id, role, {_w(3600)} AS window_start,
                     count(*) AS c
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2, 3
            ),
            tot AS (
              SELECT role, window_start, SUM(c) AS t
              FROM per_series GROUP BY 1, 2
            )
            SELECT p.role,
                   'turns_total{{conv_id=' || p.conv_id || ',role=' ||
                     p.role || '}}' AS series_key,
                   p.window_start,
                   CAST(t.t AS DOUBLE) / CAST(p.c AS DOUBLE) AS value
            FROM per_series p JOIN tot t USING (role, window_start)
            """,
        "promql_rules_group_1h": f"""
            WITH g AS (
              SELECT role, {_w(3600)} AS ws, count(*) AS c
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2
            ),
            v AS (
              SELECT 'role:turns:sum1h{{role=' || role || '}}'
                       AS series_key,
                     ws AS window_start,
                     CAST(max(c) OVER (
                       PARTITION BY role ORDER BY ws
                       ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS DOUBLE)
                       AS value
              FROM g
            ),
            d AS (
              SELECT series_key, window_start, value,
                     CASE WHEN value > 2500.0 THEN 1 ELSE 0 END AS cond,
                     lag(window_start) OVER w AS pw,
                     lag(CASE WHEN value > 2500.0 THEN 1 ELSE 0 END)
                       OVER w AS pcond
              FROM v
              WINDOW w AS (PARTITION BY series_key ORDER BY window_start)
            ),
            s AS (
              SELECT *, CASE WHEN cond = 1 AND NOT
                               (coalesce(pcond, 0) = 1
                                AND window_start - pw = 3600)
                             THEN 1 ELSE 0 END AS strt
              FROM d
            ),
            r AS (
              SELECT *, sum(strt) OVER (PARTITION BY series_key
                                        ORDER BY window_start) AS grp
              FROM s
            )
            SELECT series_key, window_start, value,
                   CAST(CASE WHEN cond = 1 THEN
                          row_number() OVER (PARTITION BY series_key, grp
                                             ORDER BY window_start)
                        ELSE 0 END AS BIGINT) AS run,
                   CASE WHEN cond = 0 THEN 'inactive'
                        WHEN row_number() OVER (PARTITION BY series_key, grp
                                                ORDER BY window_start) >= 2
                          THEN 'firing'
                        ELSE 'pending' END AS state
            FROM r
            """,
        "delete_series_1h_turns": f"""
            WITH g AS (
              SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role
                       || '}}' AS series_key,
                     role, {_w(3600)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2, 3
            ),
            b AS (SELECT min(window_start) AS lo, max(window_start) AS hi
                  FROM g),
            d AS (SELECT lo + CAST(floor((hi - lo) / 3) AS BIGINT) AS t1,
                         lo + CAST(floor(2 * (hi - lo) / 3) AS BIGINT) AS t2
                  FROM b)
            SELECT series_key, window_start, count
            FROM g, d
            WHERE NOT (role = 'assistant'
                       AND window_start BETWEEN t1 AND t2)
            """,
        "or_user_all_1h_turns": f"""
            WITH l AS (
              SELECT conv_id, {_w(3600)} AS window_start,
                     count(*) AS c
              FROM {_SQL_TRANSCRIPTS} WHERE role = 'user'
              GROUP BY 1, 2
            ),
            r AS (
              SELECT conv_id, {_w(3600)} AS window_start,
                     count(*) AS c
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2
            )
            SELECT conv_id, window_start, c FROM l
            UNION ALL
            SELECT r.conv_id, r.window_start, r.c FROM r
            WHERE NOT EXISTS (SELECT 1 FROM l
                              WHERE l.conv_id = r.conv_id
                                AND l.window_start = r.window_start)
            """,
        "and_tools_1h_turns": f"""
            WITH g AS (
              SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role
                       || '}}' AS series_key,
                     conv_id, {_w(3600)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2, 3
            ),
            tools AS (
              SELECT DISTINCT conv_id, {_w(3600)} AS window_start
              FROM {_SQL_TRANSCRIPTS} WHERE tool <> ''
            )
            SELECT series_key, conv_id, window_start, count
            FROM g
            WHERE EXISTS (SELECT 1 FROM tools t
                          WHERE t.conv_id = g.conv_id
                            AND t.window_start = g.window_start)
            """,
        "unless_tools_1h_turns": f"""
            WITH g AS (
              SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role
                       || '}}' AS series_key,
                     conv_id, {_w(3600)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2, 3
            ),
            tools AS (
              SELECT DISTINCT conv_id, {_w(3600)} AS window_start
              FROM {_SQL_TRANSCRIPTS} WHERE tool <> ''
            )
            SELECT series_key, conv_id, window_start, count
            FROM g
            WHERE NOT EXISTS (SELECT 1 FROM tools t
                              WHERE t.conv_id = g.conv_id
                                AND t.window_start = g.window_start)
            """,
        "above_role_avg_1h_turns": f"""
            WITH g AS (
              SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role
                       || '}}' AS series_key,
                     role, {_w(3600)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2, 3
            ),
            r AS (
              SELECT role, window_start,
                     CAST(sum(count) AS DOUBLE) / count(*) AS role_avg
              FROM g GROUP BY 1, 2
            )
            SELECT g.role, g.window_start, g.series_key, g.count,
                   r.role_avg
            FROM g JOIN r
              ON r.role = g.role AND r.window_start = g.window_start
            WHERE CAST(g.count AS DOUBLE) > r.role_avg
            """,
        "sum_without_role_1h_turns": f"""
            SELECT 'turns_total{{conv_id=' || conv_id || '}}'
                     AS series_key,
                   {_w(3600)} AS window_start,
                   count(*) AS count
            FROM {_SQL_TRANSCRIPTS}
            GROUP BY 1, 2
            """,
        "stitched_rate_1d_1h": f"""
            WITH b AS (
              SELECT (max({_w(86400)}) // 86400) * 86400 AS boundary
              FROM {_SQL_TRANSCRIPTS}
            ),
            g1d AS (
              SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role
                       || '}}' AS series_key,
                     {_w(86400)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2
            ),
            g1h AS (
              SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role
                       || '}}' AS series_key,
                     {_w(3600)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2
            )
            SELECT g.series_key, g.window_start, g.count, '1d' AS tier,
                   CAST(g.count AS DOUBLE) / 86400.0 AS rate
            FROM g1d g, b WHERE g.window_start < b.boundary
            UNION ALL
            SELECT g.series_key, g.window_start, g.count, '1h' AS tier,
                   CAST(g.count AS DOUBLE) / 3600.0 AS rate
            FROM g1h g, b WHERE g.window_start >= b.boundary
            """,
        "point_read_1h_turns": f"""
            SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role
                     || '}}' AS series_key,
                   {_w(3600)} AS window_start,
                   count(*) AS count
            FROM {_SQL_TRANSCRIPTS}
            WHERE conv_id = 'conv00000000'
            GROUP BY 1, 2
            """,
        "trending_tools_1h": f"""
            WITH g AS (
              SELECT tool, {_w(3600)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS}
              WHERE tool <> '' GROUP BY 1, 2
            )
            SELECT window_start, count, tool FROM (
              SELECT *, row_number() OVER (
                PARTITION BY window_start
                ORDER BY count DESC, tool) AS rn
              FROM g
            ) WHERE rn <= 3
            """,
        "limitk_3_1h_turns": f"""
            WITH g AS (
              SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role
                       || '}}' AS series_key,
                     {_w(3600)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2
            ),
            pick AS (
              SELECT series_key FROM (SELECT DISTINCT series_key FROM g)
              ORDER BY md5(series_key), series_key LIMIT 3
            )
            SELECT g.* FROM g JOIN pick USING (series_key)
            """,
        "resample_4h_1h_turns": f"""
            SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role
                     || '}}' AS series_key,
                   {_w(14400)} AS window_start,
                   count(*) AS count
            FROM {_SQL_TRANSCRIPTS}
            GROUP BY 1, 2
            """,
        "resample_4h_gauge_last": f"""
            SELECT 'conv_turn_idx{{conv_id=' || conv_id || '}}'
                     AS series_key,
                   {_w(14400)} AS window_start,
                   CAST(min(turn_idx) AS DOUBLE) AS min,
                   CAST(max(turn_idx) AS DOUBLE) AS max,
                   CAST(arg_max(turn_idx, ts) AS DOUBLE) AS last
            FROM {_SQL_TRANSCRIPTS}
            GROUP BY 1, 2
            """,
        "stddev_without_role_1h_turns": f"""
            WITH g AS (
              SELECT conv_id, role, {_w(3600)} AS window_start,
                     count(*) AS c
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2, 3
            )
            SELECT 'turns_total{{conv_id=' || conv_id || '}}'
                     AS series_key,
                   window_start,
                   sqrt(CAST(count(*) * sum(c*c) - sum(c) * sum(c)
                             AS DOUBLE)
                        / (count(*) * count(*))) AS count
            FROM g GROUP BY 1, 2
            """,
        "avg_without_role_1h_turns": f"""
            WITH g AS (
              SELECT conv_id, role, {_w(3600)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2, 3
            )
            SELECT 'turns_total{{conv_id=' || conv_id || '}}'
                     AS series_key,
                   window_start,
                   CAST(sum(count) AS DOUBLE) / count(*) AS count
            FROM g GROUP BY 1, 2
            """,
        "first_over_1h_turns": f"""
            WITH g AS (
              SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role
                       || '}}' AS series_key,
                     {_w(3600)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2
            ),
            r AS (
              SELECT *, row_number() OVER (PARTITION BY series_key
                                           ORDER BY window_start) AS rn
              FROM g
            )
            SELECT a.series_key, a.window_start, b.count AS first
            FROM r a JOIN r b
              ON b.series_key = a.series_key
             AND b.rn = GREATEST(a.rn - 5, 1)
            """,
        "dom_profile_1d_turns": f"""
            WITH g AS (
              SELECT {_w(86400)} AS window_start, count(*) AS count
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1
            )
            SELECT
              CAST(date_part('year',
                   make_timestamp(window_start * 1000000)) AS BIGINT)
                AS year,
              CAST(date_part('month',
                   make_timestamp(window_start * 1000000)) AS BIGINT)
                AS month,
              CAST(date_part('day',
                   make_timestamp(window_start * 1000000)) AS BIGINT)
                AS day_of_month,
              CAST(date_part('doy',
                   make_timestamp(window_start * 1000000)) AS BIGINT)
                AS day_of_year,
              CAST(sum(count) AS BIGINT) AS count
            FROM g GROUP BY 1, 2, 3, 4
            """,
        "stitched_1d_1h_turns": f"""
            WITH b AS (
              SELECT (max({_w(86400)}) // 86400) * 86400 AS boundary
              FROM {_SQL_TRANSCRIPTS}
            ),
            g1d AS (
              SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role
                       || '}}' AS series_key,
                     {_w(86400)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2
            ),
            g1h AS (
              SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role
                       || '}}' AS series_key,
                     {_w(3600)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2
            )
            SELECT g.series_key, g.window_start, g.count, '1d' AS tier
            FROM g1d g, b WHERE g.window_start < b.boundary
            UNION ALL
            SELECT g.series_key, g.window_start, g.count, '1h' AS tier
            FROM g1h g, b WHERE g.window_start >= b.boundary
            """,
        "federated_range_1h_turns": f"""
            SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role
                     || '}}' AS series_key,
                   {_w(3600)} AS window_start,
                   count(*) AS count
            FROM {_SQL_TRANSCRIPTS}
            GROUP BY 1, 2
            """,
        "label_cardinality_1h_turns": f"""
            SELECT 'conv_id' AS label,
                   CAST(count(DISTINCT conv_id) AS BIGINT) AS n_values
            FROM {_SQL_TRANSCRIPTS}
            UNION ALL
            SELECT 'role' AS label,
                   CAST(count(DISTINCT role) AS BIGINT) AS n_values
            FROM {_SQL_TRANSCRIPTS}
            """,
        "tsdb_status_1h_turns": f"""
            WITH w AS (
              SELECT DISTINCT conv_id, role, {_w(3600)} AS ws
              FROM {_SQL_TRANSCRIPTS}
            ),
            ge AS (SELECT max({_w(3600)}) AS ge FROM {_SQL_TRANSCRIPTS}),
            r AS (
              SELECT conv_id, role, ws,
                     lead(ws) OVER (PARTITION BY conv_id, role
                                    ORDER BY ws) AS nxt
              FROM w
            )
            SELECT 'turns_total' AS name,
                   CAST(count(DISTINCT conv_id || ',' || role) AS BIGINT)
                     AS n_series,
                   CAST(count(DISTINCT conv_id || ',' || role) AS BIGINT)
                     AS n_blocks,
                   CAST(count(*) + sum(CASE WHEN (nxt IS NULL AND ws < ge)
                                              OR nxt > ws + 3600
                                            THEN 1 ELSE 0 END) AS BIGINT)
                     AS n_points
            FROM r, ge
            """,
        "series_metadata_1h_turns": f"""
            WITH g AS (
              SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role
                       || '}}' AS series_key,
                     min({_w(3600)}) AS fr, max({_w(3600)}) AS lr
              FROM {_SQL_TRANSCRIPTS} WHERE role = 'user'
              GROUP BY 1
            ),
            ge AS (SELECT max({_w(3600)}) AS ge FROM {_SQL_TRANSCRIPTS})
            SELECT 'turns_total' AS name, series_key,
                   fr AS first_seen,
                   least(lr + 3600, ge) AS last_seen
            FROM g, ge
            """,
        "label_values_role_1h": f"""
            SELECT DISTINCT role FROM {_SQL_TRANSCRIPTS}
            """,
        "group_by_role_1h_turns": f"""
            SELECT role, {_w(3600)} AS window_start,
                   CAST(1 AS BIGINT) AS present
            FROM {_SQL_TRANSCRIPTS}
            GROUP BY 1, 2
            """,
        "sqrt_scaled_1h_turns": f"""
            SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role
                     || '}}' AS series_key,
                   {_w(3600)} AS window_start,
                   count(*) AS count,
                   sqrt(CAST(count(*) AS DOUBLE)) * CAST(2.0 AS DOUBLE)
                     AS v
            FROM {_SQL_TRANSCRIPTS}
            GROUP BY 1, 2
            """,
        "mad_over_1h_turns": f"""
            WITH g AS (
              SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role
                       || '}}' AS series_key,
                     {_w(3600)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2
            ),
            r AS (
              SELECT *, row_number() OVER (PARTITION BY series_key
                                           ORDER BY window_start) AS rn
              FROM g
            ),
            f AS (
              SELECT a.series_key, a.window_start, a.count,
                     b.count AS v
              FROM r a JOIN r b
                ON b.series_key = a.series_key
               AND b.rn BETWEEN a.rn - 5 AND a.rn
            ),
            med AS (
              SELECT series_key, window_start,
                     quantile_cont(v, 0.5) AS med
              FROM f GROUP BY 1, 2
            ),
            dev AS (
              SELECT f.series_key, f.window_start,
                     abs(CAST(f.v AS DOUBLE) - m.med) AS d
              FROM f JOIN med m
                ON m.series_key = f.series_key
               AND m.window_start = f.window_start
            )
            SELECT series_key, window_start,
                   quantile_cont(d, 0.5) AS mad
            FROM dev GROUP BY 1, 2
            """,
        "limit_ratio_1h_turns": f"""
            WITH g AS (
              SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role
                       || '}}' AS series_key,
                     {_w(3600)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2
            )
            SELECT series_key, window_start, count FROM g
            WHERE substr(md5(series_key), 1, 16) < '4000000000000000'
            """,
        "hourly_profile_1h_turns": f"""
            WITH g AS (
              SELECT role, {_w(3600)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2
            )
            SELECT role,
                   (window_start % 86400) // 3600 AS hour,
                   ((window_start // 86400) + 4) % 7 AS day_of_week,
                   CAST(sum(count) AS BIGINT) AS count
            FROM g GROUP BY 1, 2, 3
            """,
        "offset_dod_1h_turns": f"""
            WITH g AS (
              SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role
                       || '}}' AS series_key,
                     {_w(3600)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2
            )
            SELECT a.series_key, a.window_start, a.count,
                   b.count AS count_prev,
                   CAST(a.count AS DOUBLE) - CAST(b.count AS DOUBLE)
                     AS dod
            FROM g a JOIN g b
              ON b.series_key = a.series_key
             AND b.window_start = a.window_start - 86400
            """,
        "absent_1h_conv0_turns": f"""
            WITH w AS (SELECT DISTINCT {_w(3600)} AS ws
                       FROM {_SQL_TRANSCRIPTS}),
            b AS (SELECT min(ws) AS lo, max(ws) AS hi FROM w),
            spine AS (SELECT unnest(generate_series(lo, hi, 3600))
                        AS window_start FROM b),
            p AS (SELECT DISTINCT {_w(3600)} AS ws
                  FROM {_SQL_TRANSCRIPTS}
                  WHERE conv_id = 'conv00000000')
            SELECT window_start, CAST(1 AS BIGINT) AS absent
            FROM spine
            WHERE window_start NOT IN (SELECT ws FROM p)
            """,
        "group_left_share_1h_turns": f"""
            WITH g AS (
              SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role
                       || '}}' AS series_key,
                     role, {_w(3600)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2, 3
            ),
            r AS (
              SELECT role, window_start, sum(count) AS role_total
              FROM g GROUP BY 1, 2
            )
            SELECT g.role, g.window_start, g.series_key,
                   g.count, CAST(r.role_total AS BIGINT) AS role_total,
                   CAST(g.count AS DOUBLE) / CAST(r.role_total AS DOUBLE)
                     AS share
            FROM g JOIN r
              ON r.role = g.role AND r.window_start = g.window_start
            """,
        "read_api_instant_1h_turns": f"""
            WITH g AS (
              SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role
                       || '}}' AS series_key,
                     {_w(3600)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS} WHERE role = 'user'
              GROUP BY 1, 2
            ),
            m AS (SELECT max(window_start) AS at FROM g)
            SELECT series_key, max(window_start) AS window_start,
                   arg_max(count, window_start) AS count
            FROM g, m
            WHERE window_start > at - 10800 AND window_start <= at
            GROUP BY 1
            """,
        "alert_state_1m_latency": f"""
            WITH g AS ({_sql_lat(60)}),
            d AS (
              SELECT series_key, window_start, max,
                     CASE WHEN max > 30 THEN 1 ELSE 0 END AS cond,
                     lag(window_start) OVER w AS pw,
                     lag(CASE WHEN max > 30 THEN 1 ELSE 0 END) OVER w AS pcond
              FROM g
              WINDOW w AS (PARTITION BY series_key ORDER BY window_start)
            ),
            s AS (
              SELECT *, CASE WHEN cond = 1 AND NOT
                               (coalesce(pcond, 0) = 1
                                AND window_start - pw = 60)
                             THEN 1 ELSE 0 END AS strt
              FROM d
            ),
            r AS (
              SELECT *, sum(strt) OVER (PARTITION BY series_key
                                        ORDER BY window_start) AS grp
              FROM s
            )
            SELECT series_key, window_start, max,
                   CAST(CASE WHEN cond = 1 THEN
                          row_number() OVER (PARTITION BY series_key, grp
                                             ORDER BY window_start)
                        ELSE 0 END AS BIGINT) AS run,
                   CASE WHEN cond = 0 THEN 'inactive'
                        WHEN row_number() OVER (PARTITION BY series_key, grp
                                                ORDER BY window_start) >= 3
                          THEN 'firing'
                        ELSE 'pending' END AS state
            FROM r
            """,
        "alert_keepfiring_1m_latency": f"""
            WITH g AS ({_sql_lat(60)}),
            d AS (
              SELECT series_key, window_start, max,
                     CASE WHEN max > 30 THEN 1 ELSE 0 END AS cond,
                     lag(window_start) OVER w AS pw,
                     lag(CASE WHEN max > 30 THEN 1 ELSE 0 END) OVER w AS pcond
              FROM g
              WINDOW w AS (PARTITION BY series_key ORDER BY window_start)
            ),
            s AS (
              SELECT *, CASE WHEN cond = 1 AND NOT
                               (coalesce(pcond, 0) = 1
                                AND window_start - pw = 60)
                             THEN 1 ELSE 0 END AS strt
              FROM d
            ),
            r AS (
              SELECT *, sum(strt) OVER (PARTITION BY series_key
                                        ORDER BY window_start) AS grp
              FROM s
            ),
            f AS (
              SELECT series_key, window_start, max, cond,
                     CAST(CASE WHEN cond = 1 THEN
                            row_number() OVER (PARTITION BY series_key, grp
                                               ORDER BY window_start)
                          ELSE 0 END AS BIGINT) AS run
              FROM r
            ),
            a AS (
              SELECT *,
                     max(CASE WHEN run >= 3 THEN window_start END)
                       OVER (PARTITION BY series_key
                             ORDER BY window_start) AS anchor
              FROM f
            )
            SELECT series_key, window_start, max, run,
                   CASE WHEN run >= 3 THEN 'firing'
                        WHEN anchor IS NOT NULL
                             AND window_start - anchor <= 300
                          THEN 'firing'
                        WHEN cond = 0 THEN 'inactive'
                        ELSE 'pending' END AS state
            FROM a
            """,
        "series_churn_1h_turns": f"""
            WITH g AS (
              SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role || '}}'
                       AS series_key,
                     {_w(3600)} AS window_start
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2
            ),
            born2 AS (
              SELECT window_start, count(*) AS new_series
              FROM (SELECT series_key, min(window_start) AS window_start
                    FROM g GROUP BY 1)
              GROUP BY 1
            )
            SELECT a.window_start, count(*) AS active_series,
                   coalesce(any_value(b.new_series), 0) AS new_series
            FROM g a LEFT JOIN born2 b ON b.window_start = a.window_start
            GROUP BY 1
            """,
        "tier_splice_turns": f"""
            WITH bounds AS (
              SELECT ((epoch_us(min(ts)) // 1000000
                       + epoch_us(max(ts)) // 1000000) // 2) // 3600 * 3600
                       AS t
              FROM {_SQL_TRANSCRIPTS}
            )
            SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role || '}}'
                     AS series_key,
                   {_w(3600)} AS window_start,
                   count(*) AS count, '1h' AS tier
            FROM {_SQL_TRANSCRIPTS}
            WHERE {_w(3600)} < (SELECT t FROM bounds)
            GROUP BY 1, 2
            UNION ALL
            SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role || '}}',
                   {_w(60)}, count(*), '1m'
            FROM {_SQL_TRANSCRIPTS}
            WHERE {_w(60)} >= (SELECT t FROM bounds)
            GROUP BY 1, 2
            """,
        "rollup_1m_turns": _sql_turns(),
        "rollup_1m_turns_salted": _sql_turns(),
        "backfill_1m_turns": _sql_turns(),
        "stream_encode_roundtrip_1m_turns": f"""
            SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role
                     || '}}' AS series_key,
                   {_w(60)} AS window_start,
                   CAST(count(*) AS DOUBLE) AS value
            FROM {_SQL_TRANSCRIPTS}
            GROUP BY 1, 2
            """,
        "stream_encode_ooo_1m_turns": f"""
            SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role
                     || '}}' AS series_key,
                   {_w(60)} AS window_start,
                   CAST(count(*) AS DOUBLE) AS value
            FROM {_SQL_TRANSCRIPTS}
            GROUP BY 1, 2
            """,
        "rollup_1m_tools": f"""
            SELECT 'tool_invocations_total{{conv_id=' || conv_id || ',tool=' || tool || '}}'
                     AS series_key,
                   {_w(60)} AS window_start,
                   count(*) AS count
            FROM {_SQL_TRANSCRIPTS}
            WHERE tool <> ''
            GROUP BY 1, 2
            """,
        "rollup_1m_hist_buckets": f"""{_LAT_CTE}
            SELECT 'inter_turn_latency_seconds{{conv_id=' || conv_id || '}}' AS series_key,
                   {_w(60)} AS window_start,
                   {_BUCKET_SQL_COLS}
            FROM lat WHERE lat IS NOT NULL
            GROUP BY 1, 2
            """,
        "transcript_passthrough": f"""
            SELECT conv_id, turn_idx, text FROM {_SQL_TRANSCRIPTS}
            ORDER BY conv_id, turn_idx
            """,
        "transcript_conv_stitch": f"""
            SELECT conv_id, count(*) AS n_turns,
                   string_agg(text, chr(10) ORDER BY turn_idx) AS doc
            FROM {_SQL_TRANSCRIPTS}
            GROUP BY conv_id
            """,
        "pipeline_build_samples": _SQL_BUILD_SAMPLES_TMPL.replace(
            "{TRANS}", _SQL_TRANSCRIPTS),
        "select_series_1m_latency": f"""{_LAT_CTE},
            roll AS (
              SELECT 'inter_turn_latency_seconds{{conv_id=' || conv_id || '}}'
                       AS series_key,
                     {_w(60)} AS window_start,
                     sum(lat) AS sum, count(*) AS count,
                     min(lat) AS min, max(lat) AS max,
                     arg_max(lat, ts) AS last
              FROM lat
              WHERE lat IS NOT NULL AND conv_id LIKE 'conv0000000_'
              GROUP BY 1, 2
            )
            SELECT * FROM roll
            WHERE window_start
              BETWEEN (SELECT min(window_start) FROM roll)
                  AND (SELECT min(window_start) FROM roll) + 3600
            """,
        "remote_read_1m_turns": f"""
            SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role
                     || '}}' AS series_key,
                   ({_w(60)}) * 1000 AS ts_ms,
                   CAST(count(*) AS DOUBLE) AS value
            FROM {_SQL_TRANSCRIPTS}
            WHERE role = 'user'
            GROUP BY 1, 2
            """,
        "gorilla_roundtrip_1m_latency": _sql_lat(60),
        "zscore_1h_turns": f"""
            WITH g AS (
              SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role || '}}'
                       AS series_key,
                     {_w(3600)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2
            ),
            b AS (
              SELECT series_key, window_start, count,
                     sum(count) OVER w AS s,
                     sum(count*count) OVER w AS ss,
                     count(*) OVER w AS c
              FROM g
              WINDOW w AS (PARTITION BY series_key ORDER BY window_start
                           ROWS BETWEEN 6 PRECEDING AND 1 PRECEDING)
            )
            SELECT series_key, window_start, count,
                   CASE WHEN c = 0
                          OR (CAST(ss AS DOUBLE)
                              - CAST(s AS DOUBLE)*CAST(s AS DOUBLE)/c)/c <= 0
                        THEN NULL
                        ELSE (CAST(count AS DOUBLE) - CAST(s AS DOUBLE)/c)
                             / sqrt((CAST(ss AS DOUBLE)
                                     - CAST(s AS DOUBLE)*CAST(s AS DOUBLE)/c)/c)
                   END AS zscore
            FROM b
            """,
        "peak_5m_rate_1h_turns": f"""
            WITH g AS (
              SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role || '}}'
                       AS series_key,
                     {_w(300)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2
            ),
            m AS (
              SELECT series_key, window_start,
                     CAST(max(count) OVER (
                       PARTITION BY series_key ORDER BY window_start
                       ROWS BETWEEN 11 PRECEDING AND CURRENT ROW) AS DOUBLE)
                       AS peak_5m_increase
              FROM g
            )
            SELECT series_key, window_start, peak_5m_increase,
                   peak_5m_increase / 300.0 AS peak_5m_rate
            FROM m
            """,
        "rate_1h_turns": f"""
            SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role || '}}' AS series_key,
                   {_w(3600)} AS window_start,
                   CAST(count(*) AS DOUBLE) AS increase,
                   CAST(count(*) AS DOUBLE) / 3600.0 AS rate
            FROM {_SQL_TRANSCRIPTS}
            GROUP BY 1, 2
            """,
        "ratio_tools_per_turn_1h": f"""
            WITH tools AS (
              SELECT conv_id, {_w(3600)} AS window_start, count(*) AS tools
              FROM {_SQL_TRANSCRIPTS} WHERE tool <> ''
              GROUP BY 1, 2
            ),
            turns AS (
              SELECT conv_id, {_w(3600)} AS window_start, count(*) AS turns
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2
            )
            SELECT conv_id, window_start, tools, turns,
                   CAST(tools AS DOUBLE) / CAST(turns AS DOUBLE)
                     AS tools_per_turn
            FROM tools JOIN turns USING (conv_id, window_start)
            """,
        "agg_by_role_1h_turns": f"""
            SELECT role, {_w(3600)} AS window_start,
                   count(*) AS turns
            FROM {_SQL_TRANSCRIPTS}
            GROUP BY 1, 2
            """,
        "avg_by_role_1h_turns": f"""
            WITH g AS (
              SELECT conv_id, role, {_w(3600)} AS window_start,
                     count(*) AS c
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2, 3
            )
            SELECT role, window_start,
                   CAST(sum(c) AS DOUBLE) / count(*) AS avg_turns
            FROM g GROUP BY 1, 2
            """,
        "topk_series_1h_turns": f"""
            WITH g AS (
              SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role || '}}'
                       AS series_key,
                     {_w(3600)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2
            )
            SELECT window_start, count, series_key FROM (
              SELECT *, row_number() OVER (
                  PARTITION BY window_start
                  ORDER BY count DESC, series_key) AS rn
              FROM g
            ) WHERE rn <= 3
            """,
        "record_rule_role_turns_1h": f"""
            SELECT 'role_turns_total{{role=' || role || '}}' AS series_key,
                   {_w(3600)} AS window_start,
                   CAST(count(*) AS DOUBLE) AS turns
            FROM {_SQL_TRANSCRIPTS}
            GROUP BY 1, 2
            """,
        "rule_group_peak_role_1h": f"""
            WITH r1 AS (
              SELECT role, {_w(3600)} AS window_start,
                     count(*) AS v
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2
            )
            SELECT 'peak_role_turns' AS series_key, window_start,
                   CAST(max(v) AS DOUBLE) AS peak
            FROM r1 GROUP BY 2
            """,
        "bottomk_series_1h_turns": f"""
            WITH g AS (
              SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role || '}}'
                       AS series_key,
                     {_w(3600)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2
            )
            SELECT window_start, count, series_key FROM (
              SELECT *, row_number() OVER (
                  PARTITION BY window_start
                  ORDER BY count ASC, series_key) AS rn
              FROM g
            ) WHERE rn <= 3
            """,
        "count_over_time_1h_turns": f"""
            WITH g AS (
              SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role || '}}'
                       AS series_key,
                     {_w(3600)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2
            )
            SELECT series_key, window_start,
                   count(*) OVER (
                     PARTITION BY series_key ORDER BY window_start
                     ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS n_samples
            FROM g
            """,
        "quantile_over_time_1h_latency": f"""{_LAT_CTE},
            g AS (
              SELECT 'inter_turn_latency_seconds{{conv_id=' || conv_id || '}}'
                       AS series_key,
                     {_w(3600)} AS window_start,
                     max(lat) AS max
              FROM lat WHERE lat IS NOT NULL
              GROUP BY 1, 2
            )
            SELECT series_key, window_start,
                   quantile_cont(max, 0.9) OVER (
                     PARTITION BY series_key ORDER BY window_start
                     ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS q90_over
            FROM g
            """,
        "stddev_by_role_1h_turns": f"""
            WITH g AS (
              SELECT conv_id, role, {_w(3600)} AS window_start,
                     count(*) AS c
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2, 3
            )
            SELECT role, window_start,
                   sqrt((CAST(sum(c*c) AS DOUBLE)
                         - CAST(sum(c) AS DOUBLE) * CAST(sum(c) AS DOUBLE)
                           / count(*))
                        / count(*)) AS sd_turns
            FROM g GROUP BY 1, 2
            """,
        "avg_over_time_1h_turns": f"""
            WITH g AS (
              SELECT 'turns_total{{conv_id=' || conv_id || ',role=' || role || '}}'
                       AS series_key,
                     {_w(3600)} AS window_start,
                     count(*) AS count
              FROM {_SQL_TRANSCRIPTS}
              GROUP BY 1, 2
            )
            SELECT series_key, window_start,
                   avg(count) OVER (
                     PARTITION BY series_key ORDER BY window_start
                     ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS avg_count
            FROM g
            """,
        "max_over_time_1h_latency": f"""{_LAT_CTE},
            g AS (
              SELECT 'inter_turn_latency_seconds{{conv_id=' || conv_id || '}}'
                       AS series_key,
                     {_w(3600)} AS window_start,
                     max(lat) AS max
              FROM lat WHERE lat IS NOT NULL
              GROUP BY 1, 2
            )
            SELECT series_key, window_start,
                   max(max) OVER (
                     PARTITION BY series_key ORDER BY window_start
                     ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS max_over
            FROM g
            """,
        "rollup_1m_latency_summary": f"""{_LAT_CTE}
            SELECT 'inter_turn_latency_seconds{{conv_id=' || conv_id || '}}' AS series_key,
                   {_w(60)} AS window_start,
                   count(*) AS count, sum(lat) AS sum,
                   quantile_disc(lat, 0.5) AS q50,
                   quantile_disc(lat, 0.9) AS q90,
                   quantile_disc(lat, 0.99) AS q99
            FROM lat WHERE lat IS NOT NULL
            GROUP BY 1, 2
            """,
        "rollup_1h_latency_summary_firstwins": f"""{_LAT_CTE},
            fine AS (
              SELECT 'inter_turn_latency_seconds{{conv_id=' || conv_id || '}}' AS series_key,
                     {_w(60)} AS ws,
                     count(*) AS count, sum(lat) AS sum,
                     quantile_disc(lat, 0.5) AS q50,
                     quantile_disc(lat, 0.9) AS q90,
                     quantile_disc(lat, 0.99) AS q99
              FROM lat WHERE lat IS NOT NULL
              GROUP BY 1, 2
            )
            SELECT series_key, (ws // 3600) * 3600 AS window_start,
                   arg_min(count, ws) AS count, arg_min(sum, ws) AS sum,
                   arg_min(q50, ws) AS q50, arg_min(q90, ws) AS q90,
                   arg_min(q99, ws) AS q99
            FROM fine GROUP BY 1, 2
            """,
        "rollup_1m_latency_epochs": _sql_lat(60),
        "compact_1m_latency_epochs": _sql_lat(60),
        "rollup_1d_latency_epochs": _sql_lat(86_400),
    }
    for tier, seconds in TIER_SECONDS.items():
        sqls[f"rollup_{tier}_latency"] = _sql_lat(seconds)

    sqls["rollup_1m_latency_locf_stale"] = f"""{_LAT_CTE},
    agg AS (
      SELECT 'inter_turn_latency_seconds{{conv_id=' || conv_id || '}}' AS series_key,
             {_w(60)} AS ws, sum(lat) AS s, count(*) AS c
      FROM lat WHERE lat IS NOT NULL GROUP BY 1, 2
    ),
    seq AS (
      SELECT *, lead(ws) OVER (PARTITION BY series_key ORDER BY ws) AS next_w
      FROM agg
    ),
    bound AS (
      SELECT (max(epoch_us(ts)) // 60000000) * 60 AS global_end FROM {_SQL_TRANSCRIPTS}
    )
    SELECT series_key, ws AS window_start, s AS sum, c AS count,
           FALSE AS filled, FALSE AS stale
    FROM seq
    UNION ALL
    SELECT series_key, ws + 60 * k AS window_start, s AS sum, c AS count,
           TRUE AS filled, FALSE AS stale
    FROM seq CROSS JOIN (SELECT unnest([1, 2, 3, 4, 5]) AS k), bound
    WHERE ws + 60 * k < coalesce(next_w, global_end + 60)
    UNION ALL
    SELECT series_key, ws + 360 AS window_start, NULL AS sum, 0 AS count,
           FALSE AS filled, TRUE AS stale
    FROM seq, bound
    WHERE ws + 360 < coalesce(next_w, global_end + 60)
    """

    def _sql_gauge(seconds: int) -> str:
        return f"""
        SELECT 'conv_turn_idx{{conv_id=' || conv_id || '}}' AS series_key,
               {_w(seconds)} AS window_start,
               CAST(sum(turn_idx) AS DOUBLE) AS sum, count(*) AS count,
               CAST(min(turn_idx) AS DOUBLE) AS min,
               CAST(max(turn_idx) AS DOUBLE) AS max,
               CAST(arg_max(turn_idx, ts) AS DOUBLE) AS last
        FROM {_SQL_TRANSCRIPTS}
        GROUP BY 1, 2
        """

    sqls["rollup_1m_turn_gauge"] = _sql_gauge(60)
    sqls["delta_1m_turn_gauge"] = f"""
    WITH g AS ({_sql_gauge(60)})
    SELECT series_key, window_start,
           last - lag(last) OVER (PARTITION BY series_key
                                  ORDER BY window_start) AS delta
    FROM g
    QUALIFY delta IS NOT NULL
    """
    sqls["rollup_1h_turn_gauge"] = _sql_gauge(3600)
    sqls["resets_changes_1m_gauge"] = f"""
    WITH g AS ({_sql_gauge(60)}),
    d AS (
      SELECT series_key, window_start,
             CASE WHEN last < lag(last) OVER w1 THEN 1 ELSE 0 END AS dec,
             CASE WHEN last <> lag(last) OVER w1 THEN 1 ELSE 0 END AS chg
      FROM g
      WINDOW w1 AS (PARTITION BY series_key ORDER BY window_start)
    )
    SELECT series_key, window_start,
           CAST(sum(dec) OVER w AS BIGINT) AS resets,
           CAST(sum(chg) OVER w AS BIGINT) AS changes
    FROM d
    WINDOW w AS (PARTITION BY series_key ORDER BY window_start
                 ROWS BETWEEN 11 PRECEDING AND CURRENT ROW)
    """
    sqls["gorilla_roundtrip_1m_gauge_locf"] = f"""
    WITH agg AS (
      SELECT 'conv_turn_idx{{conv_id=' || conv_id || '}}' AS series_key,
             {_w(60)} AS ws,
             CAST(sum(turn_idx) AS DOUBLE) AS s, count(*) AS c,
             CAST(arg_max(turn_idx, ts) AS DOUBLE) AS lastv
      FROM {_SQL_TRANSCRIPTS} GROUP BY 1, 2
    ),
    seq AS (
      SELECT *, lead(ws) OVER (PARTITION BY series_key ORDER BY ws) AS next_w
      FROM agg
    ),
    bound AS (
      SELECT (max(epoch_us(ts)) // 60000000) * 60 AS global_end FROM {_SQL_TRANSCRIPTS}
    )
    SELECT series_key, ws AS window_start, s AS sum, lastv AS last,
           c AS count, FALSE AS filled, FALSE AS stale
    FROM seq
    UNION ALL
    SELECT series_key, ws + 60 * k AS window_start, lastv AS sum,
           lastv AS last, 0 AS count, TRUE AS filled, FALSE AS stale
    FROM seq CROSS JOIN (SELECT unnest([1, 2, 3, 4, 5]) AS k), bound
    WHERE ws + 60 * k < coalesce(next_w, global_end + 60)
    UNION ALL
    SELECT series_key, ws + 360 AS window_start, NULL AS sum, NULL AS last,
           0 AS count, FALSE AS filled, TRUE AS stale
    FROM seq, bound
    WHERE ws + 360 < coalesce(next_w, global_end + 60)
    """

    from vertex_ray.stages.quantile import histogram_quantile_sql

    # --- trace/span mirrors (lib/event/src/trace/span.rs analogue) ---
    sqls["op_spans_from_turns"] = f"""
    SELECT conv_id AS trace_id,
           CAST(turn_idx + 1 AS BIGINT) AS span_id,
           CAST(turn_idx AS BIGINT) AS parent_span_id,
           role AS name,
           CASE role WHEN 'user' THEN 'client'
                     WHEN 'assistant' THEN 'server'
                     WHEN 'tool' THEN 'internal'
                     ELSE 'unspecified' END AS kind,
           tool,
           epoch_us(ts) * 1000 AS start_ns,
           COALESCE(lead(epoch_us(ts)) OVER w, epoch_us(ts)) * 1000
             AS end_ns,
           (COALESCE(lead(epoch_us(ts)) OVER w, epoch_us(ts))
              - epoch_us(ts)) * 1000 AS duration_ns
    FROM {_SQL_TRANSCRIPTS}
    WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx)
    """
    # the Jaeger wire round-trip is the identity on the span table —
    # same oracle as the span derivation itself
    sqls["op_jaeger_wire_spans"] = sqls["op_spans_from_turns"]
    sqls["op_trace_assemble_turns"] = f"""
    SELECT conv_id AS trace_id,
           CAST(count(*) AS BIGINT) AS n_spans,
           CAST(SUM(CASE WHEN role = 'tool' THEN 1 ELSE 0 END) AS BIGINT)
             AS n_tool_spans,
           min(epoch_us(ts)) * 1000 AS start_ns,
           max(epoch_us(ts)) * 1000 AS end_ns,
           (max(epoch_us(ts)) - min(epoch_us(ts))) * 1000 AS duration_ns
    FROM {_SQL_TRANSCRIPTS}
    GROUP BY 1
    """
    sqls["span_count_rollup_1m_turns"] = f"""
    SELECT 'span_count_total{{role=' || role || '}}' AS series_key,
           {_w(60)} AS window_start,
           CAST(count(*) AS DOUBLE) AS sum,
           count(*) AS count
    FROM {_SQL_TRANSCRIPTS}
    GROUP BY 1, 2
    """
    _SPAN_DUR_CTE = f"""
    WITH dur AS (
      SELECT role, epoch_us(ts) AS t_us,
             CAST(COALESCE(lead(epoch_us(ts)) OVER (
                    PARTITION BY conv_id ORDER BY turn_idx),
                  epoch_us(ts)) - epoch_us(ts) AS DOUBLE) / 1000000.0
               AS dur
      FROM {_SQL_TRANSCRIPTS}
    )
    """
    _SPAN_BUCKET_COLS = ", ".join(
        f"CAST(SUM(CASE WHEN dur <= {u} THEN 1 ELSE 0 END) AS BIGINT)"
        f" AS b{i:02d}"
        for i, u in enumerate(DEFAULT_BUCKETS))
    sqls["span_duration_hist_1h_turns"] = f"""{_SPAN_DUR_CTE}
    SELECT 'span_duration_seconds{{role=' || role || '}}' AS series_key,
           (t_us // 3600000000) * 3600 AS window_start,
           sum(dur) AS sum, count(*) AS count,
           {_SPAN_BUCKET_COLS}
    FROM dur
    GROUP BY 1, 2
    """
    sqls["span_duration_p99_1h_turns"] = f"""{_SPAN_DUR_CTE}
    , h AS (
      SELECT 'span_duration_seconds{{role=' || role || '}}' AS series_key,
             (t_us // 3600000000) * 3600 AS window_start,
             count(*) AS count,
             {_SPAN_BUCKET_COLS}
      FROM dur
      GROUP BY 1, 2
    )
    SELECT series_key, window_start,
           {histogram_quantile_sql(0.99)} AS p99
    FROM h
    """

    # epoch-incremental span ingest == one-shot (pinned bit-for-bit in
    # tests/test_trace.py) → the same SQL mirror oracles both
    sqls["span_count_rollup_1m_epochs"] = sqls["span_count_rollup_1m_turns"]
    sqls["op_span_service_graph"] = f"""
    WITH e AS (
      SELECT role AS parent_name,
             lead(role) OVER (PARTITION BY conv_id ORDER BY turn_idx)
               AS child_name
      FROM {_SQL_TRANSCRIPTS}
    )
    SELECT parent_name, child_name, CAST(count(*) AS BIGINT) AS n_calls
    FROM e WHERE child_name IS NOT NULL
    GROUP BY 1, 2
    """

    sqls["rollup_1m_latency_p99"] = f"""{_LAT_CTE}
    , h AS (
      SELECT 'inter_turn_latency_seconds{{conv_id=' || conv_id || '}}' AS series_key,
             {_w(60)} AS window_start,
             count(*) AS count,
             {_BUCKET_SQL_COLS}
      FROM lat WHERE lat IS NOT NULL
      GROUP BY 1, 2
    )
    SELECT series_key, window_start,
           {histogram_quantile_sql(0.99)} AS p99
    FROM h
    """
    sqls["promql_expr_hist_p99_1m"] = f"""{_LAT_CTE}
    , h AS (
      SELECT 'inter_turn_latency_seconds{{conv_id=' || conv_id || '}}' AS series_key,
             {_w(60)} AS window_start,
             count(*) AS count,
             {_BUCKET_SQL_COLS}
      FROM lat WHERE lat IS NOT NULL
      GROUP BY 1, 2
    )
    SELECT series_key, window_start,
           {histogram_quantile_sql(0.99)} AS value
    FROM h
    """

    sqls["retention_1m_latency"] = f"""{_LAT_CTE},
    roll AS (
      SELECT 'inter_turn_latency_seconds{{conv_id=' || conv_id || '}}' AS series_key,
             {_w(60)} AS window_start,
             sum(lat) AS sum, count(*) AS count,
             min(lat) AS min, max(lat) AS max,
             arg_max(lat, ts) AS last
      FROM lat WHERE lat IS NOT NULL
      GROUP BY 1, 2
    ),
    bound AS (
      SELECT (max(epoch_us(ts)) // 60000000) * 60 - 86400 AS cutoff
      FROM {_SQL_TRANSCRIPTS}
    )
    SELECT roll.* FROM roll, bound WHERE roll.window_start >= bound.cutoff
    """
    # epoch-store retention has the same result contract (epoch rollup is
    # bit-for-bit equal to one-shot; retention semantics identical)
    sqls["retention_1m_latency_epochs"] = sqls["retention_1m_latency"]

    _LAT_US_CTE = f"""
    WITH lat AS (
      SELECT conv_id, ts,
             epoch_us(ts) - lag(epoch_us(ts)) OVER (
                  PARTITION BY conv_id ORDER BY turn_idx) AS lat_us
      FROM {_SQL_TRANSCRIPTS}
    )
    """

    def _sql_exphist(seconds: int) -> str:
        return f"""{_LAT_US_CTE}
        SELECT 'inter_turn_latency_us{{conv_id=' || conv_id || '}}' AS series_key,
               {_w(seconds)} AS window_start,
               CASE WHEN lat_us = 0 THEN -1
                    ELSE CAST(floor(log2(lat_us)) AS INT) END AS idx,
               count(*) AS bucket_count
        FROM lat WHERE lat_us IS NOT NULL
        GROUP BY 1, 2, 3
        """

    sqls["exphist_1m_latency"] = _sql_exphist(60)
    sqls["exphist_1m_latency_fraction"] = f"""{_LAT_US_CTE}
    , h AS (
      SELECT 'inter_turn_latency_us{{conv_id=' || conv_id || '}}'
               AS series_key,
             {_w(60)} AS window_start,
             CASE WHEN lat_us = 0 THEN -1
                  ELSE CAST(floor(log2(lat_us)) AS INT) END AS idx,
             count(*) AS bucket_count
      FROM lat WHERE lat_us IS NOT NULL
      GROUP BY 1, 2, 3
    )
    SELECT series_key, window_start,
           CAST(sum(CASE WHEN idx BETWEEN 20 AND 21
                         THEN bucket_count ELSE 0 END) AS DOUBLE)
             / CAST(sum(bucket_count) AS DOUBLE) AS fraction
    FROM h GROUP BY 1, 2
    """
    sqls["exphist_1h_latency_merged"] = _sql_exphist(3600)
    sqls["exphist_1m_latency_exemplars"] = f"""{_LAT_US_CTE}
    SELECT 'inter_turn_latency_us{{conv_id=' || conv_id || '}}' AS series_key,
           {_w(60)} AS window_start,
           CASE WHEN lat_us = 0 THEN -1
                ELSE CAST(floor(log2(lat_us)) AS INT) END AS idx,
           count(*) AS bucket_count,
           max(lat_us) AS exemplar_us
    FROM lat WHERE lat_us IS NOT NULL
    GROUP BY 1, 2, 3
    """
    sqls["exphist_1m_latency_stddev"] = f"""{_LAT_US_CTE},
    h AS (
      SELECT 'inter_turn_latency_us{{conv_id=' || conv_id || '}}' AS series_key,
             {_w(60)} AS window_start,
             CASE WHEN lat_us = 0 THEN -1
                  ELSE CAST(floor(log2(lat_us)) AS INT) END AS idx,
             CAST(count(*) AS DOUBLE) AS c
      FROM lat WHERE lat_us IS NOT NULL
      GROUP BY 1, 2, 3
    ),
    m AS (
      SELECT series_key, window_start,
             sum(c * (CASE WHEN idx = -1 THEN 0.0
                           ELSE (power(2.0, idx) + power(2.0, idx + 1))
                                / 2.0 END)) AS s,
             sum(c * (CASE WHEN idx = -1 THEN 0.0
                           ELSE (power(2.0, idx) + power(2.0, idx + 1))
                                / 2.0 END)
                   * (CASE WHEN idx = -1 THEN 0.0
                           ELSE (power(2.0, idx) + power(2.0, idx + 1))
                                / 2.0 END)) AS s2,
             sum(c) AS n
      FROM h GROUP BY 1, 2
    )
    SELECT series_key, window_start,
           sqrt(greatest((s2 - s * s / n) / n, 0.0)) AS stddev
    FROM m
    """

    sqls["exphist_1m_latency_moments"] = f"""{_LAT_US_CTE},
    h AS (
      SELECT 'inter_turn_latency_us{{conv_id=' || conv_id || '}}' AS series_key,
             {_w(60)} AS window_start,
             CASE WHEN lat_us = 0 THEN -1
                  ELSE CAST(floor(log2(lat_us)) AS INT) END AS idx,
             count(*) AS c
      FROM lat WHERE lat_us IS NOT NULL
      GROUP BY 1, 2, 3
    )
    SELECT series_key, window_start,
           CAST(sum(c) AS BIGINT) AS count,
           sum(CAST(c AS DOUBLE)
               * (CASE WHEN idx = -1 THEN 0.0
                       ELSE (power(2.0, idx) + power(2.0, idx + 1))
                            / 2.0 END)) AS sum_est,
           sum(CAST(c AS DOUBLE)
               * (CASE WHEN idx = -1 THEN 0.0
                       ELSE (power(2.0, idx) + power(2.0, idx + 1))
                            / 2.0 END))
             / CAST(sum(c) AS BIGINT) AS avg_est
    FROM h GROUP BY 1, 2
    """

    sqls["exphist_1m_global_p99"] = f"""{_LAT_US_CTE},
    h AS (
      SELECT {_w(60)} AS window_start,
             CASE WHEN lat_us = 0 THEN -1
                  ELSE CAST(floor(log2(lat_us)) AS INT) END AS idx,
             count(*) AS bucket_count
      FROM lat WHERE lat_us IS NOT NULL
      GROUP BY 1, 2
    ),
    c AS (
      SELECT *,
             sum(bucket_count) OVER (PARTITION BY window_start
                                     ORDER BY idx) AS cum,
             sum(bucket_count) OVER (PARTITION BY window_start) AS total
      FROM h
    )
    SELECT window_start,
           min(CASE WHEN cum >= ceil(0.99 * total)
                    THEN CASE WHEN idx = -1 THEN 0.0
                              ELSE power(2.0, idx + 1) END END) AS p99
    FROM c GROUP BY 1
    """

    sqls["exphist_1m_latency_p99"] = f"""{_LAT_US_CTE},
    h AS (
      SELECT 'inter_turn_latency_us{{conv_id=' || conv_id || '}}' AS series_key,
             {_w(60)} AS window_start,
             CASE WHEN lat_us = 0 THEN -1
                  ELSE CAST(floor(log2(lat_us)) AS INT) END AS idx,
             count(*) AS bucket_count
      FROM lat WHERE lat_us IS NOT NULL
      GROUP BY 1, 2, 3
    ),
    c AS (
      SELECT *,
             sum(bucket_count) OVER (PARTITION BY series_key, window_start
                                     ORDER BY idx) AS cum,
             sum(bucket_count) OVER (PARTITION BY series_key, window_start)
               AS total
      FROM h
    )
    SELECT series_key, window_start,
           min(CASE WHEN cum >= ceil(0.99 * total)
                    THEN CASE WHEN idx = -1 THEN 0.0
                              ELSE power(2.0, idx + 1) END END) AS p99
    FROM c GROUP BY 1, 2
    """

    from vertex_ray.stages.quantile import histogram_fraction_sql

    sqls["hist_fraction_1m_latency"] = f"""{_LAT_CTE}
    , h AS (
      SELECT 'inter_turn_latency_seconds{{conv_id=' || conv_id || '}}'
               AS series_key,
             {_w(60)} AS window_start,
             count(*) AS count,
             {_BUCKET_SQL_COLS}
      FROM lat WHERE lat IS NOT NULL
      GROUP BY 1, 2
    )
    SELECT series_key, window_start,
           {histogram_fraction_sql(0.3, 2.0)} AS fraction
    FROM h
    """

    sqls["hist_p99_global_1m"] = f"""{_LAT_CTE}
    , h AS (
      SELECT {_w(60)} AS window_start,
             count(*) AS count,
             {_BUCKET_SQL_COLS}
      FROM lat WHERE lat IS NOT NULL
      GROUP BY 1
    )
    SELECT window_start,
           {histogram_quantile_sql(0.99)} AS p99
    FROM h
    """

    sqls["rollup_1h_latency_mean"] = f"""{_LAT_CTE}
    SELECT 'inter_turn_latency_seconds{{conv_id=' || conv_id || '}}' AS series_key,
           {_w(3600)} AS window_start,
           sum(lat) / CAST(count(*) AS DOUBLE) AS mean
    FROM lat WHERE lat IS NOT NULL
    GROUP BY 1, 2
    """
    return sqls
