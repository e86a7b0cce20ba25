"""Recording rules: materialize a derived metric back into the Gorilla
block store — the Prometheus recording-rule / continuous-aggregate
"materialized view" analogue over this engine's tier store (the reference
derives new metrics from streams with metricalize,
src/transforms/metricalize.rs; a recording rule is the same move applied
to the READ side: evaluate an aggregation over an existing tier and store
the result as a first-class metric).

Shape: tier rows → ``label_aggregate`` (combiner + ONE exchange) →
agg-shaped gauge rows → ONE groupby(bucket) whose task runs the one block
writer (stages/encode.encode_agg_rows: sort, pack, Gorilla encode). The
derived series count is the label cardinality — tiny next to the
input — so everything after the first exchange is
rollup-cardinality work, never raw-row work. The output block rows have
the exact schema of the flagship block store, so retention GC, the
PromQL read surface and ``decode_tier_blocks`` work on them unchanged.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from vertex_ray.schema import KIND_GAUGE


def vector_blocks(vec_ds, *, new_metric: str, tier: str,
                  n_buckets: int = 32):
    """Encode an evaluated VECTOR — rows of ``(series_key,
    window_start:int64, value:float64)`` — as Gorilla block rows for a
    gauge metric named ``new_metric`` (flagship block-store schema with
    a ``tier`` column): one groupby(bucket) exchange over
    label-cardinality rows, each group encoded by the block writer."""

    def to_agg_rows(t: pa.Table) -> pa.Table:
        keys = t["series_key"].to_numpy(zero_copy_only=False)
        v = t["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        bucket = (pd.util.hash_array(keys)
                  % np.uint64(n_buckets)).astype(np.int32)
        cols = {
            "bucket": pa.array(bucket, type=pa.int32()),
            "series_key": pa.array(keys, type=pa.string()),
            "name": pa.array(np.full(len(v), new_metric, dtype=object),
                             type=pa.string()),
            "kind": pa.array(np.full(len(v), KIND_GAUGE, dtype=np.uint8)),
            "window_start": pa.array(
                t["window_start"].to_numpy(zero_copy_only=False)
                .astype(np.int64)),
            "sum": pa.array(v),
            "count": pa.array(np.ones(len(v))),
            "min": pa.array(v),
            "max": pa.array(v),
            "last": pa.array(v),
        }
        return pa.table(cols)

    rows = vec_ds.map_batches(to_agg_rows, batch_format="pyarrow")
    return agg_rows_to_blocks(rows, tier=tier)


def agg_rows_to_blocks(rows_ds, *, tier: str):
    """Agg-shaped rows (bucket/series_key/name/kind/window_start + scalar
    and, for histograms, bucket columns) → Gorilla block rows: ONE groupby(bucket)
    exchange whose task runs the one block writer
    (stages/encode.encode_agg_rows). The tier is not gap-filled: rows
    carry neither a runs nor a flags section."""
    from vertex_ray.stages.encode import encode_agg_rows

    return rows_ds.groupby("bucket").map_groups(
        lambda g: encode_agg_rows(g, tier=tier), batch_format="pyarrow")


def _render_by_keys(new_metric: str, label: str):
    """(label, window_start, value) → vector normal form with rendered
    series keys ``new_metric{label=<value>}``."""

    def fn(t: pa.Table) -> pa.Table:
        lbl = t[label].to_numpy(zero_copy_only=False)
        keys = np.array(
            [f"{new_metric}{{{label}={x}}}" for x in lbl], dtype=object)
        return pa.table({
            "series_key": pa.array(keys, type=pa.string()),
            "window_start": t["window_start"],
            "value": pa.array(
                t["value"].to_numpy(zero_copy_only=False)
                .astype(np.float64)),
        })

    return fn


def record_rule(tier_ds, *, label: str, value_col: str, new_metric: str,
                tier: str, agg: str = "sum", n_buckets: int = 32):
    """Evaluate ``<agg> by (label) (metric)`` over tier rows and encode the
    result as Gorilla block rows for a NEW gauge metric named
    ``new_metric`` with series key ``new_metric{label=<value>}``.

    Returns a Dataset of block rows (flagship block-store schema, with a
    ``tier`` column) — write it with ``write_parquet`` next to / into a
    block store, read it back with ``decode_tier_blocks``.
    """
    from vertex_ray.stages.promql import label_aggregate

    derived = label_aggregate(tier_ds, label, value_col, out_col="value",
                              agg=agg)
    vec = derived.map_batches(_render_by_keys(new_metric, label),
                              batch_format="pyarrow")
    return vector_blocks(vec, new_metric=new_metric, tier=tier,
                         n_buckets=n_buckets)


def rule_group(tier_ds, rules, *, tier: str, value_col: str = "count",
               tier_seconds: int = 3600, n_buckets: int = 32):
    """Prometheus rule-GROUP semantics: rules evaluate IN ORDER, and a
    later rule may reference an earlier record rule's output vector by
    name via ``source`` — the reason Prometheus evaluates a group
    sequentially (prometheus docs, recording_rules.md). The reference
    ships alerts (src/sinks/alertmanager); the rule engine deciding them
    lives here on the store's read side.

    ``rules``: ordered list of dicts —
      record by-label:  ``{"record": name, "label": l, "agg": a
                           [, "source": earlier]}``
      record without(): ``{"record": name, "without": [labels], "agg": a
                           [, "source": earlier]}``
      alert:            ``{"alert": name, "source": earlier,
                           "threshold": x, "for": n}``
    A rule without ``source`` evaluates over the input tier rows
    (``value_col``); with ``source`` it evaluates over that record
    rule's vector (float values — chained aggregates are restricted to
    the order-free min/max/count/group; sum/avg/stddev need the integer
    input column, so put them first in the chain).

    Each record vector is MATERIALIZED once and reused by downstream
    rules — bounded by series cardinality × windows, never input rows.
    Returns ``{rule name: Dataset}`` — block rows (store schema) for
    record rules, alert-state rows for alerts."""
    import pyarrow.compute as pc

    from vertex_ray.stages.promql import (
        aggregate_without,
        alert_state,
        label_aggregate,
    )

    vectors: dict = {}
    out: dict = {}
    for rule in rules:
        src_name = rule.get("source")
        if src_name is not None and src_name not in vectors:
            raise ValueError(f"rule source {src_name!r} not evaluated yet "
                             "(rules run in order)")
        if "record" in rule:
            name = rule["record"]
            base = vectors[src_name] if src_name else tier_ds
            vcol = "value" if src_name else value_col
            agg = rule.get("agg", "sum")
            if "without" in rule:
                vec = aggregate_without(base, rule["without"], vcol,
                                        out_col="value", agg=agg)
                rename = name

                def fix(t: pa.Table, rename=rename) -> pa.Table:
                    keys = pc.replace_substring_regex(
                        t["series_key"], r"^[^{]*", rename)
                    keys = pc.replace_substring_regex(keys, r"\{\}$", "")
                    return pa.table({
                        "series_key": keys,
                        "window_start": t["window_start"],
                        "value": pa.array(
                            t["value"].to_numpy(zero_copy_only=False)
                            .astype(np.float64)),
                    })

                vec = vec.map_batches(fix, batch_format="pyarrow")
            else:
                lbl = rule["label"]
                vec = label_aggregate(base, lbl, vcol, out_col="value",
                                      agg=agg)
                vec = vec.map_batches(_render_by_keys(name, lbl),
                                      batch_format="pyarrow")
            vec = vec.materialize()
            vectors[name] = vec
            out[name] = vector_blocks(vec, new_metric=name, tier=tier,
                                      n_buckets=n_buckets)
        elif "alert" in rule:
            base = vectors[rule["source"]]
            out[rule["alert"]] = alert_state(
                base, "series_key", "window_start", "value",
                rule["threshold"], rule["for"], tier_seconds,
                keep_firing_windows=rule.get("keep_firing_for", 0))
        else:
            raise ValueError(f"rule needs 'record' or 'alert': {rule}")
    return out


def rule_group_promql(store: str, rules, *, tier: str = "1h",
                      value_col: str = "count", n_buckets: int = 32,
                      layout: str = "oneshot"):
    """Prometheus ``rules.yml`` with PromQL TEXT expressions: each rule's
    ``expr`` is parsed and lowered by vertex_ray/promql_lang against the
    block store, and — rule-group semantics — each record rule's result
    is rendered to a canonical series-keyed vector that LATER rules in
    the group can select by name (``expr: "avg_over_time(
    role:turns:sum1h[6h])"``), exactly how Prometheus evaluates a group
    sequentially so recorded vectors feed downstream rules and alerts.

    ``rules``: ordered list of dicts —
      record: ``{"record": name, "expr": promql}``
      alert:  ``{"alert": name, "expr": promql, "threshold": x,
                 "for": n[, "keep_firing_for": m]}`` —
                inactive/pending/firing per series from ``n``
                consecutive breaching windows (stages/promql
                .alert_state over the expression's vector);
                ``keep_firing_for`` holds "firing" for ``m`` windows
                after the last firing evaluation (the flap damper).

    Returns ``{rule name: Dataset}`` — block rows (flagship store
    schema, Gorilla-encoded gauge vectors, ``vector_blocks``) for record
    rules; alert-state rows for alerts. Record vectors are materialized
    ONCE and reused — bounded by series cardinality × windows."""
    from vertex_ray.promql_lang import eval_promql, render_series

    vectors: dict = {}
    out: dict = {}
    for rule in rules:
        is_record = "record" in rule
        name = rule["record"] if is_record else rule["alert"]
        ds, id_cols, step_s = eval_promql(
            store, rule["expr"], value_col=value_col, step=tier,
            layout=layout, n_buckets=n_buckets, vectors=vectors,
            _want_ids=True)
        if is_record or id_cols != ["series_key"]:
            # record rules take the rule name as their metric name;
            # alerts keep the expression's own series identity (the
            # alert name is the output's key in the returned dict,
            # Prometheus's alertname label) — unless the expression
            # ends label-grouped, in which case the labels render
            # under the alert name to regain a series key.
            vec = render_series(ds, id_cols,
                                name if is_record else rule["alert"])
        else:
            vec = ds
        if is_record:
            vec = vec.materialize()
            vectors[name] = (vec, step_s)
            out[name] = vector_blocks(vec, new_metric=name, tier=tier,
                                      n_buckets=n_buckets)
        else:
            from vertex_ray.stages.promql import alert_state

            out[name] = alert_state(
                vec, "series_key", "window_start", "value",
                rule["threshold"], rule["for"], step_s,
                keep_firing_windows=rule.get("keep_firing_for", 0))
    return out
