"""Trace/span events — the reference's third ``Events`` variant
(``lib/event/src/array.rs:10-17``), previously the only variant with no
analogue here.

Reference model (``lib/event/src/trace/span.rs``): a ``Trace`` is a batch
of ``Span { span_context { trace_id, span_id }, parent_span_id, name,
kind, start_time, end_time, attributes, status }`` with ``SpanKind ∈
{client, server, producer, consumer, internal, unspecified}``
(span.rs:46-73, Display at :75-86), nanosecond ``start_time``/``end_time``
(span.rs:199-230), ``parent_span_id == 0`` for roots and ``span_id == 0``
invalid (span.rs:141-155).

This module derives the span analogue deterministically from the
transcript table — a conversation IS a trace, a turn IS a span:

* ``trace_id``        = conv_id
* ``span_id``         = turn_idx + 1  (unique within the trace, never 0)
* ``parent_span_id``  = turn_idx      (0 for the root turn — the
  reference's root convention)
* ``name``            = role; ``kind`` = role mapped onto SpanKind
  (user→client, assistant→server, tool→internal, else unspecified)
* ``start_ns``        = turn timestamp; ``end_ns`` = next turn's start
  within the conversation (the final span ends at its own start —
  duration 0 by the end-of-trace convention)
* ``tool``            = the span's one attribute (Attributes analogue)

Scale shape: ONE hash-bucket exchange on conv_id (the same partitioning
key the flagship cascade uses) puts every trace wholly inside one task;
span assembly is a segmented numpy pass (lexsort + shifted compare),
never per-row Python. Span-metric rollups use the combiner pattern:
windowed per-(series, window) PARTIALS are computed inside the same
conv-bucket task, so the second (series-bucket) exchange carries
series × windows rows — bounded by role-cardinality × windows — never
raw spans.

Incremental: :func:`span_rollup_store_incremental` ingests epoch by
epoch with a per-conversation last-turn CARRY as the only cross-epoch
state, equal to the one-shot bit-for-bit on the order-free columns
(sum/count/min/max/buckets — pinned in tests/test_trace.py).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from vertex_ray.schema import KIND_HISTOGRAM, KIND_SUM
from vertex_ray.series import bucket_of, series_key_arrays

# SpanKind::Display rendering, span.rs:75-86
SPAN_KIND_BY_ROLE = {
    "user": "client",
    "assistant": "server",
    "tool": "internal",
}

SPAN_PROJECT_COLUMNS = ["conv_id", "turn_idx", "role", "tool", "ts"]


def _bucket_stage(n_buckets: int):
    def fn(t: pa.Table) -> pa.Table:
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        return t.append_column(
            "bucket", pa.array(bucket_of(conv, n_buckets), pa.int32()))

    return fn


def _sorted_arrays(g: pa.Table):
    conv = g["conv_id"].to_numpy(zero_copy_only=False)
    turn = g["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
    ts_us = g["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    uniq, inv = np.unique(conv.astype(object), return_inverse=True)
    order = np.lexsort((turn, inv))
    return conv[order], inv[order], turn[order], ts_us[order], order


def spans_group(g: pa.Table, with_final_flag: bool = False) -> pa.Table:
    """One bucket's transcripts → span rows (whole traces per task).
    ``with_final_flag`` appends a ``final`` bool column marking each
    trace's LAST span (the epoch-incremental path carries those forward
    instead of emitting them)."""
    if g.num_rows == 0:
        out = _empty_spans()
        return out.append_column("final", pa.array([], pa.bool_())) \
            if with_final_flag else out
    conv_s, inv_s, turn_s, start_us, order = _sorted_arrays(g)
    role_s = g["role"].to_numpy(zero_copy_only=False)[order]
    tool_s = g["tool"].to_numpy(zero_copy_only=False)[order]
    n = len(order)
    end_us = np.empty(n, np.int64)
    end_us[:-1] = start_us[1:]
    end_us[-1] = start_us[-1]
    seg_end = np.zeros(n, bool)
    seg_end[:-1] = inv_s[1:] != inv_s[:-1]
    seg_end[-1] = True
    end_us[seg_end] = start_us[seg_end]
    kind = (pd.Series(role_s, dtype=object).map(SPAN_KIND_BY_ROLE)
            .fillna("unspecified").to_numpy(dtype=object))
    out = pa.table({
        "trace_id": pa.array(conv_s, type=pa.string()),
        "span_id": pa.array(turn_s + 1, type=pa.int64()),
        "parent_span_id": pa.array(turn_s, type=pa.int64()),
        "name": pa.array(role_s, type=pa.string()),
        "kind": pa.array(kind, type=pa.string()),
        "tool": pa.array(tool_s, type=pa.string()),
        "start_ns": pa.array(start_us * 1000, type=pa.int64()),
        "end_ns": pa.array(end_us * 1000, type=pa.int64()),
        "duration_ns": pa.array((end_us - start_us) * 1000,
                                type=pa.int64()),
    })
    if with_final_flag:
        out = out.append_column("final", pa.array(seg_end))
    return out


def _empty_spans() -> pa.Table:
    return pa.table({
        "trace_id": pa.array([], pa.string()),
        "span_id": pa.array([], pa.int64()),
        "parent_span_id": pa.array([], pa.int64()),
        "name": pa.array([], pa.string()),
        "kind": pa.array([], pa.string()),
        "tool": pa.array([], pa.string()),
        "start_ns": pa.array([], pa.int64()),
        "end_ns": pa.array([], pa.int64()),
        "duration_ns": pa.array([], pa.int64()),
    })


def spans_from_transcripts(ds, n_buckets: int = 32):
    """Transcript turns → span table (one exchange, whole traces per
    task)."""
    return (ds.map_batches(_bucket_stage(n_buckets), batch_format="pyarrow")
            .groupby("bucket")
            .map_groups(spans_group, batch_format="pyarrow"))


def trace_assemble_group(g: pa.Table) -> pa.Table:
    """One bucket's transcripts → one row per trace (the sessionize →
    trace-assembly step): span count, tool-span count, trace start/end
    and duration."""
    if g.num_rows == 0:
        return pa.table({
            "trace_id": pa.array([], pa.string()),
            "n_spans": pa.array([], pa.int64()),
            "n_tool_spans": pa.array([], pa.int64()),
            "start_ns": pa.array([], pa.int64()),
            "end_ns": pa.array([], pa.int64()),
            "duration_ns": pa.array([], pa.int64()),
        })
    conv_s, inv_s, _, ts_us, order = _sorted_arrays(g)
    role_s = g["role"].to_numpy(zero_copy_only=False)[order]
    starts = np.flatnonzero(np.concatenate(
        [[True], inv_s[1:] != inv_s[:-1]]))
    counts = np.diff(np.concatenate([starts, [len(inv_s)]]))
    t_min = np.minimum.reduceat(ts_us, starts)
    t_max = np.maximum.reduceat(ts_us, starts)
    is_tool = (role_s == "tool").astype(np.int64)
    n_tool = np.add.reduceat(is_tool, starts)
    return pa.table({
        "trace_id": pa.array(conv_s[starts], type=pa.string()),
        "n_spans": pa.array(counts.astype(np.int64)),
        "n_tool_spans": pa.array(n_tool),
        "start_ns": pa.array(t_min * 1000, type=pa.int64()),
        "end_ns": pa.array(t_max * 1000, type=pa.int64()),
        "duration_ns": pa.array((t_max - t_min) * 1000, type=pa.int64()),
    })


def trace_assemble(ds, n_buckets: int = 32):
    """Transcript turns → per-trace summary rows (one exchange)."""
    return (ds.map_batches(_bucket_stage(n_buckets), batch_format="pyarrow")
            .groupby("bucket")
            .map_groups(trace_assemble_group, batch_format="pyarrow"))


# ---------------------------------------------------------------------------
# span metrics through the tier cascade
# ---------------------------------------------------------------------------


def _span_partials_group(g: pa.Table, window_s: int,
                         n_out_buckets: int) -> pa.Table:
    """Conv-bucket body: spans → windowed per-(series, window) PARTIAL
    agg rows for two metric families, re-bucketed by series hash for the
    (tiny) merge exchange:

    * ``span_count_total{role=<role>}``        — KIND_SUM, value 1
    * ``span_duration_seconds{role=<role>}``   — KIND_HISTOGRAM over the
      span duration in seconds (DEFAULT_BUCKETS ``le`` semantics,
      MetricValue::Histogram merge contract,
      lib/event/src/metric/mod.rs:42-64)
    """
    return _partials_from_spans(spans_group(g), window_s, n_out_buckets)


def _partials_from_spans(spans: pa.Table, window_s: int,
                         n_out_buckets: int) -> pa.Table:
    """Span rows → windowed per-(series, window) PARTIAL agg rows,
    re-bucketed by series hash for the merge exchange (partials from
    every conv bucket for the same series must co-locate)."""
    from vertex_ray.stages.kernel import (
        concat_agg,
        factorize,
        keyed_rows,
        keyed_uids,
        series_table,
        window_agg,
    )

    role = spans["name"].to_numpy(zero_copy_only=False).astype(object)
    ts_us = spans["start_ns"].to_numpy(zero_copy_only=False) // 1000
    dur_s = spans["duration_ns"].to_numpy(
        zero_copy_only=False).astype(np.float64) / 1e9
    n = spans.num_rows
    code, keys = factorize(pa.array(np.concatenate([
        series_key_arrays("span_count_total", role=role),
        series_key_arrays("span_duration_seconds", role=role)]),
        type=pa.string()))
    agg = concat_agg([
        window_agg(keyed_uids(KIND_SUM, code[:n]), ts_us, np.ones(n),
                   window_s, False),
        window_agg(keyed_uids(KIND_HISTOGRAM, code[n:]), ts_us, dur_s,
                   window_s, True)])
    return keyed_rows(agg, series_table(keys, bucket_of(
        keys.to_numpy(zero_copy_only=False), n_out_buckets)))


def span_rollup_store(ds, *, window_s: int = 60, tier: str = "1m",
                      cascade: tuple = (), n_buckets: int = 32):
    """Span metrics through the tier machinery into the Gorilla store:

    conv-bucket exchange (whole traces per task) → windowed partials
    (combiner: the series exchange carries series × windows rows, never
    spans) → per-series-bucket ``kernel.merge_keyed`` (same-window
    partial merge, then each ``cascade`` (tier, seconds) via the same
    coarser-tier merge — FIXTURES §F4 contract) → the one block writer
    (stages/encode.encode_agg_rows) in the same task. Returns encoded
    block rows (decode with ``decode_tier_blocks``)."""
    partials = (
        ds.map_batches(_bucket_stage(n_buckets), batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(lambda g: _span_partials_group(g, window_s, n_buckets),
                    batch_format="pyarrow"))
    return _merge_pack_encode_ds(partials, window_s, tier, cascade)


def _merge_pack_encode_ds(partials, window_s: int, tier: str,
                          cascade: tuple):
    """Per-series-bucket merge of windowed partials → tier cascade →
    the one block writer (stages/encode.encode_agg_rows), fused into the
    merge task."""
    from vertex_ray.stages.encode import encode_agg_rows
    from vertex_ray.stages.kernel import keyed_agg, keyed_rows, merge_keyed

    def merge_pack_encode(g: pa.Table) -> pa.Table:
        prev, series = keyed_agg(g)
        parts = []
        # base tier (same-window partial merge), then cascade each
        # coarser tier from the previous tier's aggregates
        for tname, seconds in [(tier, window_s)] + list(cascade):
            prev = merge_keyed(prev, seconds)
            parts.append(encode_agg_rows(keyed_rows(prev, series),
                                         tier=tname))
        return pa.concat_tables(parts)

    return (partials.groupby("bucket")
            .map_groups(merge_pack_encode, batch_format="pyarrow"))


def _spans_to_turns(t: pa.Table) -> pa.Table:
    """Span rows → transcript-row form (the carry representation: one
    row per live conversation, its last observed turn)."""
    return pa.table({
        "conv_id": t["trace_id"],
        "turn_idx": pc.cast(pc.subtract(t["span_id"], 1), pa.int32()),
        "role": t["name"],
        "tool": t["tool"],
        "ts": pc.cast(pc.divide(t["start_ns"], 1000),
                      pa.int64()).cast(pa.timestamp("us")),
    })


def _final_span_partials(t: pa.Table, window_s: int,
                         n_buckets: int) -> pa.Table:
    """Carried last-turns → their duration-0 spans' partials (no
    exchange needed: a duration-0 span is independent of grouping)."""
    turn = t["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
    ts_us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    role = t["role"].to_numpy(zero_copy_only=False)
    kind = (pd.Series(role, dtype=object).map(SPAN_KIND_BY_ROLE)
            .fillna("unspecified").to_numpy(dtype=object))
    spans = pa.table({
        "trace_id": t["conv_id"],
        "span_id": pa.array(turn + 1, type=pa.int64()),
        "parent_span_id": pa.array(turn, type=pa.int64()),
        "name": t["role"],
        "kind": pa.array(kind, type=pa.string()),
        "tool": t["tool"],
        "start_ns": pa.array(ts_us * 1000, type=pa.int64()),
        "end_ns": pa.array(ts_us * 1000, type=pa.int64()),
        "duration_ns": pa.array(np.zeros(len(turn), np.int64)),
    })
    return _partials_from_spans(spans, window_s, n_buckets)


def _tag_carried(flag: bool):
    """Mark rows as carry state (``True``) or fresh epoch turns
    (``False``) so the group body can validate the in-order
    intra-conversation arrival precondition."""
    def fn(t: pa.Table) -> pa.Table:
        return t.append_column(
            "carried", pa.array(np.full(t.num_rows, flag, dtype=bool)))

    return fn


def _spans_group_checked(g: pa.Table) -> pa.Table:
    """spans_group(with_final_flag=True) plus the out-of-order arrival
    check: an incoming (non-carried) turn with ``turn_idx`` <= the
    conversation's carried ``turn_idx`` means an intermediate turn
    arrived AFTER its successor was already emitted — the straddling
    span's duration is unfixable, so fail loudly (ADVICE r3)."""
    carried = g["carried"].to_numpy(zero_copy_only=False).astype(bool)
    g = g.drop_columns(["carried"])
    if carried.any() and (~carried).any():
        conv = g["conv_id"].to_numpy(zero_copy_only=False)
        turn = g["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, inv = np.unique(conv.astype(object), return_inverse=True)
        carry_max = np.full(len(uniq), np.int64(-1))
        np.maximum.at(carry_max, inv[carried], turn[carried])
        new_min = np.full(len(uniq), np.iinfo(np.int64).max)
        np.minimum.at(new_min, inv[~carried], turn[~carried])
        bad = np.flatnonzero((carry_max >= 0) & (new_min <= carry_max))
        if len(bad):
            raise ValueError(
                "span_rollup_store_incremental: out-of-order "
                "intra-conversation arrival — conversation "
                f"{uniq[bad[0]]!r} delivered turn_idx {int(new_min[bad[0]])}"
                f" after turn_idx {int(carry_max[bad[0]])} was already "
                "carried (its straddling span was emitted with a wrong "
                "successor and cannot be corrected); "
                f"{len(bad)} conversation(s) affected")
    return spans_group(g, with_final_flag=True)


def span_rollup_store_incremental(epochs: list, *, window_s: int = 60,
                                  tier: str = "1m", cascade: tuple = (),
                                  n_buckets: int = 32):
    """EPOCH-INCREMENTAL span-metric ingest — bit-for-bit equal to the
    one-shot :func:`span_rollup_store` over the concatenated input (the
    north star's continuous-aggregate contract, applied to the span
    variant).

    Raw turns of each epoch are read ONCE. The only state crossing an
    epoch boundary is the CARRY: one transcript-form row per live
    conversation (its last observed turn). Per epoch: carry ∪ epoch
    turns → ONE conv-bucket exchange derives spans with a ``final``
    flag; non-final spans emit windowed partials immediately (a span
    straddling the boundary gets its true duration here, stamped at its
    START — landing in the PREVIOUS epoch's window, which is fine
    because windows close only at the final merge, the backfill/late-
    data posture); final spans become the next carry instead of emitting
    a premature duration-0 observation. After the last epoch every still
    -carried span emits with duration 0 (the end-of-trace convention) —
    exactly once, exactly as the one-shot does. The union of all
    epochs' partials then runs the standard series-bucket merge +
    cascade + pack + encode.

    PRECONDITION — in-order intra-conversation arrival: within one
    conversation, turns must arrive in ``turn_idx`` order across epochs
    (epochs themselves may interleave conversations freely). The carry
    keeps only each conversation's LAST turn, so a later epoch
    delivering an EARLIER turn of an already-seen conversation cannot
    be stitched retroactively — the straddling span was already emitted
    with the wrong successor. Violations are DETECTED (incoming
    ``turn_idx`` <= carried ``turn_idx``) and raise ``ValueError``
    loudly instead of silently emitting wrong durations.

    The carry is a Dataset (never driver-materialized): at 10^12-turn
    scale it is bounded by LIVE conversations, and a committed variant
    would persist it per bucket like pipelines/epoch_pipeline's state
    stage."""
    if not epochs:
        raise ValueError("span_rollup_store_incremental: no epochs")
    carry = None
    partial_parts = []
    for eds in epochs:
        if carry is None:
            cur = eds.map_batches(_tag_carried(False), batch_format="pyarrow")
        else:
            cur = carry.map_batches(
                _tag_carried(True), batch_format="pyarrow").union(
                eds.map_batches(_tag_carried(False), batch_format="pyarrow"))
        spans = (cur.map_batches(_bucket_stage(n_buckets),
                                 batch_format="pyarrow")
                 .groupby("bucket")
                 .map_groups(_spans_group_checked, batch_format="pyarrow")
                 .materialize())  # consumed twice: partials + carry
        nonfinal = spans.map_batches(
            lambda t: t.filter(pc.invert(t["final"])).drop_columns(["final"]),
            batch_format="pyarrow")
        partial_parts.append(nonfinal.map_batches(
            lambda t: _partials_from_spans(t, window_s, n_buckets),
            batch_format="pyarrow"))
        carry = spans.map_batches(
            lambda t: _spans_to_turns(t.filter(t["final"])),
            batch_format="pyarrow")
    partial_parts.append(carry.map_batches(
        lambda t: _final_span_partials(t, window_s, n_buckets),
        batch_format="pyarrow"))
    partials = partial_parts[0].union(*partial_parts[1:])         if len(partial_parts) > 1 else partial_parts[0]
    return _merge_pack_encode_ds(partials, window_s, tier, cascade)


def service_graph_group(g: pa.Table) -> pa.Table:
    """One bucket's transcripts → service-dependency edges (the Jaeger
    service-graph read over the span model): for every parent→child span
    pair within a trace, one (parent_name, child_name) edge; output is
    per-bucket PARTIAL edge counts (combiner — the final exchange
    carries role-pair cardinality, never spans)."""
    if g.num_rows == 0:
        return pa.table({"parent_name": pa.array([], pa.string()),
                         "child_name": pa.array([], pa.string()),
                         "n_calls": pa.array([], pa.int64())})
    _, inv_s, _, _, order = _sorted_arrays(g)
    role_s = g["role"].to_numpy(zero_copy_only=False)[order]
    same = inv_s[1:] == inv_s[:-1]
    parent = role_s[:-1][same]
    child = role_s[1:][same]
    df = pd.DataFrame({"parent_name": parent, "child_name": child})
    out = (df.groupby(["parent_name", "child_name"], sort=False)
           .size().rename("n_calls").reset_index())
    out["n_calls"] = out["n_calls"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def service_graph(ds, n_buckets: int = 32):
    """Transcript turns → service-graph edge table: conv-bucket exchange
    (whole traces per task) → per-bucket edge partials → ONE tiny
    groupby over (parent, child) role pairs."""
    partials = (ds.map_batches(_bucket_stage(n_buckets),
                               batch_format="pyarrow")
                .groupby("bucket")
                .map_groups(service_graph_group, batch_format="pyarrow"))
    return (partials.groupby(["parent_name", "child_name"])
            .sum("n_calls")
            .map_batches(lambda t: t.rename_columns(
                ["parent_name", "child_name", "n_calls"]),
                batch_format="pyarrow"))
