"""Operator-demo queries over the driver's testdata tables + their DuckDB
oracle SQL. One entry per operator from SURVEY.md §2 (and the
training-data additions); consumed by __ray_entry__.

Column names are kept identical between the Ray result and the SQL so the
driver's order-insensitive value-hash matches. Float-summing columns are
only exposed where arithmetic is exact (integral doubles) or the formula
is IEEE-identical on both sides.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _ev(sf_dir: str):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/events.parquet")


def _docs(sf_dir: str):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/documents.parquet")


def _emb(sf_dir: str):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/embeddings.parquet")


# --- filter ----------------------------------------------------------------


def q_filter_events(sf_dir: str):
    from vertex_ray.stages.ops import filter_op

    return _ev(sf_dir).map_batches(
        filter_op(
            lambda t: pc.and_(pc.equal(t["event_type"], "click"), pc.greater(t["value"], 100.0))
        ),
        batch_format="pyarrow",
    )


SQL_FILTER_EVENTS = "SELECT * FROM events WHERE event_type = 'click' AND value > 100"


def q_config_pipeline(sf_dir: str):
    """Same filter+sample chain assembled from a CONFIG (the YAML-topology
    analogue, pipelines/builder) instead of direct library calls — proves
    the config surface builds the same plans the API does."""
    import os

    from vertex_ray.pipelines.builder import build

    cfg = {
        "sources": {
            "events": {
                "type": "parquet",
                "path": os.path.join(sf_dir, "events.parquet"),
            }
        },
        "transforms": {
            "clicks": {
                "type": "filter",
                "inputs": ["events"],
                "where": ["event_type", "==", "click"],
            },
            "sampled": {
                "type": "sample",
                "inputs": ["clicks"],
                "rate": 10,
                "key_field": "event_id",
                "method": "mod",
            },
        },
        "sinks": {"out": {"type": "datasets", "inputs": ["sampled"]}},
    }
    return build(cfg)["out"]


SQL_CONFIG_PIPELINE = """
SELECT * FROM events WHERE event_type = 'click' AND event_id % 10 = 0
"""


# --- route -----------------------------------------------------------------


def q_route_events(sf_dir: str):
    from vertex_ray.stages.ops import route_flags

    routes = {
        "click": lambda t: pc.equal(t["event_type"], "click"),
        "big": lambda t: pc.greater(t["value"], 250.0),
    }
    return _ev(sf_dir).map_batches(route_flags(routes), batch_format="pyarrow").map_batches(
        lambda t: t.select(["event_id", "route_click", "route_big", "route__unmatched"]),
        batch_format="pyarrow",
    )


SQL_ROUTE_EVENTS = """
SELECT event_id,
       event_type = 'click' AS route_click,
       value > 250 AS route_big,
       NOT (event_type = 'click' OR value > 250) AS route__unmatched
FROM events
"""


def q_route_split_events(sf_dir: str):
    """Exercise the true multi-output form: `route_split` returns one
    Dataset per port (each a lazy filter view over ONE shared flagging
    pass — the input is scanned once, not once per port); the query tags
    each port with its name and unions them back so the driver can hash
    the full port assignment. A row is multicast to EVERY matching port,
    `_unmatched` only when no route matches — exactly the reference's
    route transform semantics (src/transforms/route.rs:84-95)."""
    import pyarrow.compute as pc

    from vertex_ray.stages.ops import route_split

    routes = {
        "click": lambda t: pc.equal(t["event_type"], "click"),
        "big": lambda t: pc.greater(t["value"], 250.0),
    }
    ports = route_split(
        _ev(sf_dir).map_batches(
            lambda t: t.select(["event_id", "event_type", "value"]),
            batch_format="pyarrow",
        ),
        routes,
    )
    tagged = [
        d.map_batches(
            lambda t, p=name: t.select(["event_id"]).append_column(
                "port", pa.array([p] * len(t), type=pa.string())
            ),
            batch_format="pyarrow",
        )
        for name, d in ports.items()
    ]
    out = tagged[0]
    for d in tagged[1:]:
        out = out.union(d)
    return out


SQL_ROUTE_SPLIT_EVENTS = """
SELECT event_id, 'click' AS port FROM events WHERE event_type = 'click'
UNION ALL
SELECT event_id, 'big' AS port FROM events WHERE value > 250
UNION ALL
SELECT event_id, '_unmatched' AS port FROM events
WHERE NOT (event_type = 'click' OR value > 250)
"""


# --- sample ----------------------------------------------------------------


def q_sample_events(sf_dir: str):
    from vertex_ray.stages.ops import sample_op

    return _ev(sf_dir).map_batches(
        sample_op(10, "user_id", method="mod"), batch_format="pyarrow"
    ).map_batches(lambda t: t.select(["event_id", "user_id"]), batch_format="pyarrow")


SQL_SAMPLE_EVENTS = "SELECT event_id, user_id FROM events WHERE user_id % 10 = 0"


# --- relabel ---------------------------------------------------------------


def q_relabel_docs(sf_dir: str):
    from vertex_ray.stages.ops import relabel_ops

    return _docs(sf_dir).map_batches(
        relabel_ops(
            [
                ("rename", "lang", "language"),
                ("uppercase", "source"),
                ("set", "pipeline", "vertex_ray"),
                ("delete", "n_chars"),
            ]
        ),
        batch_format="pyarrow",
    )


SQL_RELABEL_DOCS = """
SELECT doc_id, text, lang AS language, upper(source) AS source,
       'vertex_ray' AS pipeline
FROM documents
"""


def q_relabel_regex_docs(sf_dir: str):
    """Operation::Drop / Operation::Keep parity
    (/root/reference src/transforms/relabel.rs:44-51): tag keys retained
    by name regex — columns in the columnar model."""
    from vertex_ray.stages.ops import relabel_ops

    return _docs(sf_dir).map_batches(
        relabel_ops(
            [
                ("set", "env", "prod"),
                ("drop_regex", "^n_"),
                ("keep_regex", "^(doc_id|lang|source|env)$"),
            ]
        ),
        batch_format="pyarrow",
    )


SQL_RELABEL_REGEX_DOCS = """
SELECT doc_id, lang, source, 'prod' AS env FROM documents
"""


def q_repetition_docs(sf_dir: str):
    """Repetition quality filter: duplicated-token fraction per document
    (corpus-curation signal for boilerplate / degenerate text)."""
    from vertex_ray.stages.text import repetition_stats_op

    return _docs(sf_dir).map_batches(
        repetition_stats_op(), batch_format="pyarrow")


SQL_REPETITION_DOCS = """
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '\\S+')) AS tok
  FROM documents
)
SELECT doc_id, count(*) AS n_tokens,
       count(DISTINCT tok) AS n_distinct,
       1.0 - count(DISTINCT tok) / CAST(count(*) AS DOUBLE) AS dup_frac
FROM toks GROUP BY doc_id
"""


# --- dedup (exact, distributed) --------------------------------------------


def q_dedup_events(sf_dir: str):
    from vertex_ray.stages.dedup import dedup_exact

    out = dedup_exact(_ev(sf_dir), ["user_id", "event_type"], "event_id")
    return out.map_batches(
        lambda t: t.select(["user_id", "event_type", "event_id", "value"]),
        batch_format="pyarrow",
    )


SQL_DEDUP_EVENTS = """
SELECT user_id, event_type, min(event_id) AS event_id,
       arg_min(value, event_id) AS value
FROM events GROUP BY 1, 2
"""


def q_json_typed_dedup_events(sf_dir: str):
    """Truly DYNAMIC log documents (functions/jsonval): a JSON-string
    fallback column whose ``matched`` field changes TYPE across rows
    (string "123" / integer 123 / null by event_id — the reference's
    dedup type-matching fixture, src/transforms/dedup.rs:375-399), then
    exact dedup on the TYPE-TAGGED key (lib/value/src/lib.rs:49-83
    discriminant-byte hashing): same rendering, different type → two
    keys. One hash-bucket exchange, min-event_id row kept per key."""
    import numpy as np

    from vertex_ray.functions.jsonval import dedup_json_typed

    ds = _ev(sf_dir).map_batches(
        lambda t: t.select(["event_id", "user_id", "value"]),
        batch_format="pyarrow")

    def mk_docs(t):
        # input synthesis (scaffolding, not the operator): the JSON text
        # is built row-wise so the PARSER is what the oracle exercises
        eid = t["event_id"].to_numpy()
        uid = t["user_id"].to_numpy()
        val = np.floor(t["value"].to_numpy()).astype(np.int64)
        docs = []
        for e, u, v in zip(eid, uid, val):
            m = f'"{v}"' if e % 3 == 0 else (str(v) if e % 3 == 1
                                             else "null")
            docs.append(f'{{"user":"u{u}","matched":{m},"idx":{e}}}')
        return pa.table({
            "event_id": t["event_id"],
            "doc": pa.array(docs, type=pa.string()),
        })

    out = dedup_json_typed(
        ds.map_batches(mk_docs, batch_format="pyarrow"), "doc",
        {"matched": ".matched", "user": ".user"}, "event_id")
    return out.map_batches(
        lambda t: t.select(["matched_type", "matched_val", "user_type",
                            "user_val", "event_id"]),
        batch_format="pyarrow")


SQL_JSON_TYPED_DEDUP_EVENTS = """
WITH j AS (
  SELECT event_id,
         '{"user":"u' || CAST(user_id AS VARCHAR) || '","matched":' ||
         CASE WHEN event_id % 3 = 0
              THEN '"' || CAST(CAST(FLOOR(value) AS BIGINT) AS VARCHAR)
                   || '"'
              WHEN event_id % 3 = 1
              THEN CAST(CAST(FLOOR(value) AS BIGINT) AS VARCHAR)
              ELSE 'null' END ||
         ',"idx":' || CAST(event_id AS VARCHAR) || '}' AS doc
  FROM events),
k AS (
  SELECT event_id,
         COALESCE(json_type(json_extract(doc, '$.matched')), 'NULL')
           AS matched_type,
         json_extract_string(doc, '$.matched') AS matched_val,
         COALESCE(json_type(json_extract(doc, '$.user')), 'NULL')
           AS user_type,
         json_extract_string(doc, '$.user') AS user_val
  FROM j)
SELECT matched_type, matched_val, user_type, user_val,
       CAST(min(event_id) AS BIGINT) AS event_id
FROM k GROUP BY 1, 2, 3, 4
"""


# --- throttle (per-key per-window quota) -----------------------------------


def q_throttle_events(sf_dir: str):
    from vertex_ray.stages.ops import throttle_quota

    out = throttle_quota(_ev(sf_dir), "user_id", "ts", 3600, 2, "event_id")
    return out.map_batches(
        lambda t: t.select(["event_id", "user_id", "window_start"]), batch_format="pyarrow"
    )


SQL_THROTTLE_EVENTS = """
SELECT event_id, user_id, (epoch_us(ts) // 3600000000) * 3600 AS window_start
FROM events
QUALIFY row_number() OVER (
    PARTITION BY user_id, epoch_us(ts) // 3600000000
    ORDER BY ts, event_id) <= 2
"""


def q_throttle_gcra_events(sf_dir: str):
    """True GCRA throttle (stages/ops.throttle_gcra — the reference's
    gcra-crate algorithm in event time): continuous rate enforcement
    per user, integer-µs arithmetic, bit-identical to a recursive-CTE
    SQL mirror of the same recurrence."""
    from vertex_ray.stages.ops import throttle_gcra

    out = throttle_gcra(_ev(sf_dir), "user_id", "ts", 600, 2, "event_id")
    return out.map_batches(
        lambda t: t.select(["event_id", "user_id", "allowed"]),
        batch_format="pyarrow")


SQL_THROTTLE_GCRA_EVENTS = """
WITH RECURSIVE e AS (
  SELECT event_id, user_id, epoch_us(ts) AS t,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn
  FROM events
), g AS (
  SELECT user_id, event_id, t, rn, TRUE AS allowed,
         t + 300000000 AS tat
  FROM e WHERE rn = 1
  UNION ALL
  SELECT e.user_id, e.event_id, e.t, e.rn,
         e.t + 300000000 >= g.tat AS allowed,
         CASE WHEN e.t + 300000000 >= g.tat
              THEN GREATEST(e.t, g.tat) + 300000000
              ELSE g.tat END AS tat
  FROM g JOIN e ON e.user_id = g.user_id AND e.rn = g.rn + 1
)
SELECT event_id, user_id, allowed FROM g
"""

# --- metricalize (generic log table) ---------------------------------------


def q_metricalize_events(sf_dir: str):
    from vertex_ray.stages.metricalize import metricalize

    out = metricalize(
        _ev(sf_dir), ["event_type"], "value", "ts", 60, uppers=[10.0, 50.0],
        order_col="event_id",
    )
    import pandas as pd

    def shape(df: pd.DataFrame) -> pd.DataFrame:
        # sum excluded: event values are arbitrary doubles, so a float sum
        # is merge-order-dependent; count/min/max/last/buckets are exact.
        return df[["event_type", "window_start", "count", "min", "max", "last", "b00", "b01"]]

    return out.map_batches(shape, batch_format="pandas")


def q_summary_events(sf_dir: str):
    """Summary metric kind: exact per-(tag, 1m-window) discrete quantiles
    + count (MetricValue::Summary; merge is a no-op upstream so groups see
    raw values once). Sum excluded from the compare for the same
    merge-order reason as metricalize."""
    from vertex_ray.stages.metricalize import summarize

    out = summarize(_ev(sf_dir), ["event_type"], "value", "ts", 60)

    def shape(df):
        return df[["event_type", "window_start", "count", "q50", "q90", "q99"]]

    return out.map_batches(shape, batch_format="pandas")


SQL_SUMMARY_EVENTS = """
SELECT event_type, (epoch_us(ts) // 60000000) * 60 AS window_start,
       CAST(count(value) AS BIGINT) AS count,
       quantile_disc(value, 0.5) AS q50,
       quantile_disc(value, 0.9) AS q90,
       quantile_disc(value, 0.99) AS q99
FROM events GROUP BY 1, 2
"""


SQL_METRICALIZE_EVENTS = """
SELECT event_type, (epoch_us(ts) // 60000000) * 60 AS window_start,
       count(*) AS count, min(value) AS min, max(value) AS max,
       first(value ORDER BY ts DESC, event_id DESC) AS last,
       CAST(SUM(CASE WHEN value <= 10 THEN 1 ELSE 0 END) AS BIGINT) AS b00,
       CAST(SUM(CASE WHEN value <= 50 THEN 1 ELSE 0 END) AS BIGINT) AS b01
FROM events GROUP BY 1, 2
"""


# --- cardinality limiter ---------------------------------------------------


def q_cardinality_events(sf_dir: str):
    from vertex_ray.stages.cardinality import allowed_values, enforce_limit

    ds = _ev(sf_dir)
    allowed = allowed_values(ds, "event_type", "ts", limit=2)
    return enforce_limit(ds, "event_type", allowed, "drop").map_batches(
        lambda t: t.select(["event_id", "event_type"]), batch_format="pyarrow"
    )


SQL_CARDINALITY_EVENTS = """
WITH firsts AS (
  SELECT event_type FROM events GROUP BY event_type
  ORDER BY min(ts), event_type LIMIT 2
)
SELECT e.event_id, e.event_type FROM events e
JOIN firsts f ON e.event_type = f.event_type
"""


def q_cardinality_bloom_events(sf_dir: str):
    """Probabilistic cardinality mode (cardinality.rs Mode::Probabilistic):
    the broadcast budget is a split-block bloom, not the value set. At this
    bloom size (1 MiB for 100 keys) the false-positive odds are ~0, so the
    output equals the exact mode and the SQL oracle is valid."""
    from vertex_ray.stages.cardinality import allowed_bloom, enforce_limit_bloom

    ds = _ev(sf_dir)
    bloom = allowed_bloom(ds, "user_id", "ts", limit=100, n_bytes=1 << 20)
    return enforce_limit_bloom(ds, "user_id", bloom, "drop").map_batches(
        lambda t: t.select(["event_id", "user_id"]), batch_format="pyarrow"
    )


SQL_CARDINALITY_BLOOM_EVENTS = """
WITH firsts AS (
  SELECT user_id FROM events GROUP BY user_id
  ORDER BY min(ts), user_id LIMIT 100
)
SELECT e.event_id, e.user_id FROM events e
JOIN firsts f ON e.user_id = f.user_id
"""


# --- enrichment (broadcast lookup join — the geoip pattern) ----------------


def q_enrich_customers(sf_dir: str):
    import pandas as pd

    import ray.data as rd

    from vertex_ray.stages.enrich import enrich

    nation = pd.read_parquet(f"{sf_dir}/nation.parquet")
    lookup = nation.set_index("n_nationkey")[["n_name"]]
    cust = rd.read_parquet(f"{sf_dir}/customer.parquet")
    return enrich(cust, lookup, "c_nationkey", prefix="nation_", concurrency=2).map_batches(
        lambda t: t.select(["c_custkey", "c_nationkey", "nation_n_name"]),
        batch_format="pyarrow",
    )


SQL_ENRICH_CUSTOMERS = """
SELECT c_custkey, c_nationkey, n_name AS nation_n_name
FROM customer JOIN nation ON c_nationkey = n_nationkey
"""


# --- generic windowed aggregate on lineitem (exact arithmetic) -------------


def q_lineitem_agg(sf_dir: str):
    import ray.data as rd
    from ray.data.aggregate import Count, Max, Min, Sum

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity"],
    )
    out = ds.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("l_quantity", alias_name="sum_qty"),
        Count(alias_name="count_order"),
        Min("l_quantity", alias_name="min_qty"),
        Max("l_quantity", alias_name="max_qty"),
    )
    import pandas as pd

    def add_avg(df: pd.DataFrame) -> pd.DataFrame:
        df["avg_qty"] = df["sum_qty"] / df["count_order"]
        return df

    return out.map_batches(add_avg, batch_format="pandas")


SQL_LINEITEM_AGG = """
SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty,
       count(*) AS count_order, min(l_quantity) AS min_qty,
       max(l_quantity) AS max_qty,
       sum(l_quantity) / count(*) AS avg_qty
FROM lineitem GROUP BY 1, 2
"""


# --- text analysis ---------------------------------------------------------


def q_tokens_docs(sf_dir: str):
    from vertex_ray.stages.text import token_count_op

    return _docs(sf_dir).map_batches(token_count_op(), batch_format="pyarrow").map_batches(
        lambda t: t.select(["doc_id", "n_tokens", "n_bpe_tokens"]), batch_format="pyarrow"
    )


SQL_TOKENS_DOCS = r"""
SELECT doc_id,
       len(regexp_extract_all(text, '\S+')) AS n_tokens,
       len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]+')) AS n_bpe_tokens
FROM documents
"""


def q_length_fit_docs(sf_dir: str):
    """Distributed exact least squares (chars vs whitespace tokens) +
    residual outlier flags (stages/text.length_fit_residuals): the fit
    scalars come from bignum-exact global integer sums and fixed-order
    float expressions, so per-doc residuals and flags hash-match the
    SQL mirror running the same expression text."""
    from vertex_ray.stages.text import length_fit_residuals

    return length_fit_residuals(_docs(sf_dir), k_sigma=3.0)


def q_linear_probe_embeddings(sf_dir: str):
    """Distributed linear probe on the embeddings table — the
    INTEGER-EXACT variant (stages/cluster.linear_probe_exact): quantized
    features, exact int normal-equation partials (O(d²+d·k) ints per
    batch), exact 3×3 adjugate ridge solve, fixed-order float scoring —
    bit-identical to the generated SQL mirror. The full-dimension float
    probe (linear_probe_fit/score) is the production path,
    property-tested in tests/test_cluster.py; this query oracles the
    same distributed skeleton end to end."""
    from vertex_ray.stages.cluster import linear_probe_exact

    return linear_probe_exact(_emb(sf_dir), "embedding", "label",
                              "vec_id", dims=(0, 1, 2), quant=1024,
                              l2_q=1, n_classes=10)


def _sql_linear_probe_exact(quant: int = 1024, l2_q: int = 1,
                            n_classes: int = 10) -> str:
    """SQL mirror of linear_probe_exact — recomputes the quantization,
    the exact HUGEINT normal-equation sums, the 3×3 adjugate solve and
    the left-assoc float logits, so predicted/correct hash-match."""
    qx = ",\n         ".join(
        f"CAST(floor(CAST(embedding[{j + 1}] AS DOUBLE) * {quant} + 0.5)"
        f" AS BIGINT) AS x{j}" for j in range(3))
    xtx = ",\n         ".join(
        f"SUM(CAST(x{j} AS HUGEINT) * x{l})"
        + (f" + {l2_q}" if j == l else "") + f" AS a{j}{l}"
        for j in range(3) for l in range(j, 3))
    xty = ",\n         ".join(
        f"SUM(CASE WHEN label = {c} THEN CAST(x{j} AS HUGEINT)"
        f" ELSE 0 END) AS b{j}{c}"
        for j in range(3) for c in range(n_classes))
    wcols = []
    adj = {(0, 0): "(a11*a22 - a12*a12)", (0, 1): "(a02*a12 - a01*a22)",
           (0, 2): "(a01*a12 - a02*a11)", (1, 1): "(a00*a22 - a02*a02)",
           (1, 2): "(a02*a01 - a00*a12)", (2, 2): "(a00*a11 - a01*a01)"}

    def _adj(j, l):
        return adj[(j, l) if j <= l else (l, j)]

    det = ("(a00*" + _adj(0, 0) + " + a01*" + _adj(0, 1)
           + " + a02*" + _adj(0, 2) + ")")
    for j in range(3):
        for c in range(n_classes):
            num = " + ".join(f"{_adj(j, l)}*b{l}{c}" for l in range(3))
            wcols.append(f"CAST({num} AS DOUBLE) / CAST({det} AS DOUBLE)"
                         f" AS w{j}{c}")
    logits = ",\n         ".join(
        f"q.x0 * m.w0{c} + q.x1 * m.w1{c} + q.x2 * m.w2{c} AS l{c}"
        for c in range(n_classes))
    greatest = "GREATEST(" + ", ".join(f"l{c}" for c in range(n_classes)) + ")"
    pred = " ".join(f"WHEN l{c} = {greatest} THEN {c}"
                    for c in range(n_classes))
    return f"""
WITH q AS (
  SELECT vec_id, label,
         {qx}
  FROM embeddings
),
s AS (
  SELECT {xtx},
         {xty}
  FROM q
),
m AS (
  SELECT {", ".join(wcols)}
  FROM s
),
lg AS (
  SELECT q.vec_id, q.label,
         {logits}
  FROM q CROSS JOIN m
)
SELECT vec_id, label,
       CAST(CASE {pred} END AS BIGINT) AS predicted,
       (CASE {pred} END) = label AS correct
FROM lg
"""


def q_bpe_pair_counts_docs(sf_dir: str):
    """The distributed core of BPE tokenizer training (one merge step =
    most frequent adjacent pair, arXiv:1508.07909): corpus-wide adjacent
    whitespace-token pair counts with an exact deterministic top-k
    (stages/text.adjacent_pair_counts — combiner exchange bounded by
    pair vocabulary, tie order cnt desc / a / b on both sides)."""
    from vertex_ray.stages.text import adjacent_pair_counts

    return adjacent_pair_counts(_docs(sf_dir), "text", k=50)


SQL_BPE_PAIR_COUNTS_DOCS = r"""
WITH t AS (
  SELECT doc_id, regexp_extract_all(text, '\S+') AS toks
  FROM documents
),
e AS (
  SELECT doc_id, unnest(toks) AS tok,
         generate_subscripts(toks, 1) AS i
  FROM t
),
p AS (
  SELECT tok AS a,
         lead(tok) OVER (PARTITION BY doc_id ORDER BY i) AS b
  FROM e
)
SELECT a, b, CAST(count(*) AS BIGINT) AS cnt
FROM p WHERE b IS NOT NULL
GROUP BY 1, 2
ORDER BY cnt DESC, a, b
LIMIT 50
"""


def q_winnow_fingerprints_docs(sf_dir: str):
    """Winnowing fingerprints under the md5 audit family
    (stages/dedup_near.winnow_fingerprints_op, Schleimer et al. SIGMOD
    2003): distinct window-min k-gram hashes per document — the whole
    construction (token grams, md5_number_lower, window minima) is
    recomputed by the SQL mirror, so the fingerprint VALUES hash-match
    bit-for-bit."""
    from vertex_ray.stages.dedup_near import winnow_fingerprints_op

    return _docs(sf_dir).map_batches(
        winnow_fingerprints_op("text", "doc_id", k=3, w=4,
                               hash_family="md5"),
        batch_format="pyarrow")


SQL_WINNOW_FINGERPRINTS_DOCS = r"""
WITH t AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS toks
  FROM documents
),
e AS (
  SELECT doc_id, unnest(toks) AS tok,
         generate_subscripts(toks, 1) AS i
  FROM t
),
g AS (
  SELECT doc_id, i,
         tok || ' ' || lead(tok, 1) OVER win
             || ' ' || lead(tok, 2) OVER win AS gram
  FROM e
  WINDOW win AS (PARTITION BY doc_id ORDER BY i)
),
h AS (
  SELECT doc_id, i, md5_number_lower(gram)::UBIGINT AS h
  FROM g WHERE gram IS NOT NULL
),
m AS (
  SELECT doc_id,
         MIN(h) OVER (PARTITION BY doc_id ORDER BY i
                      ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS wm,
         row_number() OVER (PARTITION BY doc_id ORDER BY i) AS j,
         count(*) OVER (PARTITION BY doc_id) AS ng
  FROM h
)
SELECT DISTINCT doc_id,
       (wm - CASE WHEN wm >= 9223372036854775808
                  THEN 18446744073709551616 ELSE 0 END)::BIGINT
         AS fingerprint
FROM m WHERE j >= least(4, ng)
"""


_LANGID_BUCKETS = 4096


def q_langid_ngram_docs(sf_dir: str):
    """Hashed char-trigram language ID (stages/langid_ngram — the
    fastText-shape upgrade of the stopword heuristic: 10 languages,
    md5-bucketed trigrams, integer-quantized multinomial NB): train on
    the deterministic multilingual fixture via the distributed bincount
    combiner, classify every document. Scores are int64 dot products,
    so the SQL mirror recomputes the MODEL and every score exactly."""
    import ray.data as rd

    from vertex_ray.stages.langid_ngram import (
        langid_classify,
        langid_train_table,
        train_langid,
    )

    train = rd.from_arrow(langid_train_table())
    langs, q, _ = train_langid(train, n_buckets=_LANGID_BUCKETS)
    return langid_classify(_docs(sf_dir), langs, q,
                           n_buckets=_LANGID_BUCKETS)


def _sql_langid_ngram() -> str:
    """DuckDB mirror of q_langid_ngram_docs: rebuild the model from the
    same embedded seeds (md5_number_lower buckets, quantized ln) and
    rescore every document — the `_sql_bpe_train` discipline of
    recomputing the training in SQL."""
    from vertex_ray.stages.langid_ngram import LANGID_SEEDS, QUANT

    B = _LANGID_BUCKETS
    vals = ",\n    ".join(
        "('" + lang + "', '" + s.replace("'", "''") + "')"
        for lang in sorted(LANGID_SEEDS)
        for s in LANGID_SEEDS[lang])
    return f"""
WITH seeds(lang, txt) AS (VALUES
    {vals}),
norm_s AS (
  SELECT lang, regexp_replace(lower(txt), '\\s+', ' ', 'g') AS s
  FROM seeds),
tri_s AS (
  SELECT lang,
         md5_number_lower(substr(s, i::INT, 3))::UBIGINT % {B} AS b
  FROM (SELECT lang, s,
               unnest(generate_series(1, length(s) - 2)) AS i
        FROM norm_s)),
prof AS (SELECT lang, b, count(*) AS c FROM tri_s GROUP BY 1, 2),
tot AS (SELECT lang, count(*) AS n FROM tri_s GROUP BY 1),
nd AS (
  SELECT doc_id, regexp_replace(lower(text), '\\s+', ' ', 'g') AS s
  FROM documents),
tri_d AS (
  SELECT doc_id,
         md5_number_lower(substr(s, i::INT, 3))::UBIGINT % {B} AS b
  FROM (SELECT doc_id, s,
               unnest(generate_series(1, length(s) - 2)) AS i
        FROM nd)),
sc AS (
  SELECT d.doc_id, t.lang,
         SUM(CAST(floor(ln((COALESCE(p.c, 0) + 1.0) / (t.n + {B}))
                        * {QUANT} + 0.5) AS BIGINT)) AS score,
         count(*) AS n_grams
  FROM tri_d d
  CROSS JOIN tot t
  LEFT JOIN prof p ON p.lang = t.lang AND p.b = d.b
  GROUP BY 1, 2),
best AS (
  SELECT doc_id, lang, score, n_grams,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY score DESC, lang ASC) AS rn
  FROM sc)
SELECT b.doc_id, b.lang, CAST(b.score AS BIGINT) AS score,
       CAST(b.n_grams AS BIGINT) AS n_grams
FROM best b WHERE rn = 1
UNION ALL
SELECT doc_id, 'und', 0, 0 FROM nd WHERE length(s) < 3
"""


_BPE_N_MERGES = 24  # driver-visible train depth == unrolled SQL stages


def q_bpe_train_docs(sf_dir: str):
    """BPE tokenizer training over the corpus (stages/text.bpe_train):
    ONE distributed top-V-bounded vocab reduction, then the
    deterministic incremental merge loop on the bounded (word, freq)
    table — the subword-nmt shape. Returns the ordered merge table,
    hash-checked against a DuckDB mirror that UNROLLS the merge loop:
    each stage recomputes freq-weighted adjacent-pair counts, picks the
    (cnt desc, a, b) argmax, and applies the greedy left-to-right merge
    to every word via a list_reduce fold (a single pass is exact — the
    formed token a||b can never re-trigger the pair within a pass)."""
    import pyarrow as _pa

    from vertex_ray.stages.text import bpe_train

    merges, _ = bpe_train(_docs(sf_dir), "text", n_merges=_BPE_N_MERGES)
    import ray.data as rd

    return rd.from_arrow(_pa.table({
        "rank": _pa.array(range(len(merges)), type=_pa.int64()),
        "a": _pa.array([m[0] for m in merges], type=_pa.string()),
        "b": _pa.array([m[1] for m in merges], type=_pa.string()),
    }))


def _bpe_train_ctes(n_merges: int) -> str:
    """Shared CTE chain: wc → v0 → (p{s}, b{s}, v{s})*  — the unrolled
    BPE merge loop. b{s} is the s-th merge (rank s-1). The fold keeps
    the token list as a chr(31)-joined string so the list_reduce
    accumulator type matches the element type (docs contain no 0x1F)."""
    parts = [r"""wc AS MATERIALIZED (
  SELECT tok AS word, CAST(count(*) AS BIGINT) AS freq FROM (
    SELECT unnest(regexp_extract_all(text, '\S+')) AS tok FROM documents
  ) GROUP BY 1
),
v0 AS MATERIALIZED (
  SELECT list_append(string_split(word, ''), '</w>') AS toks, freq FROM wc
)"""]
    fold = ("string_split(list_reduce(v.toks, (acc, x) -> CASE "
            "WHEN string_split(acc, chr(31))[-1] = m.a AND x = m.b "
            "THEN array_to_string(list_append(string_split(acc, chr(31))"
            "[1:len(string_split(acc, chr(31))) - 1], m.a || m.b), chr(31)) "
            "ELSE acc || chr(31) || x END), chr(31))")
    for s in range(1, n_merges + 1):
        parts.append(f"""p{s} AS MATERIALIZED (
  SELECT a, b, CAST(SUM(freq) AS BIGINT) AS cnt FROM (
    SELECT unnest(toks[1:len(toks) - 1]) AS a,
           unnest(toks[2:len(toks)]) AS b, freq FROM v{s - 1}
  ) WHERE a IS NOT NULL AND b IS NOT NULL GROUP BY 1, 2
),
b{s} AS MATERIALIZED (SELECT a, b FROM p{s} ORDER BY cnt DESC, a, b LIMIT 1),
v{s} AS MATERIALIZED (
  SELECT CASE WHEN m.a IS NULL THEN v.toks ELSE {fold} END AS toks, v.freq
  FROM v{s - 1} v LEFT JOIN b{s} m ON TRUE
)""")
    return ",\n".join(parts)


def _sql_bpe_train(n_merges: int) -> str:
    union = "\n  UNION ALL\n  ".join(
        f"SELECT CAST({s - 1} AS BIGINT) AS rank, a, b FROM b{s}"
        for s in range(1, n_merges + 1))
    return f"""
WITH {_bpe_train_ctes(n_merges)}
SELECT rank, a, b FROM (
  {union}
) ORDER BY rank
"""


def q_bpe_encode_docs(sf_dir: str):
    """Apply the corpus-trained BPE merge table to every document with
    the actor-pool encoder (stages/text.BpeApply — merge table compiled
    once per actor, per-word encodings memoized in actor state),
    SEQUENTIAL strategy: the merge table is replayed in rank order, one
    greedy pass per merge — exactly the training-time transform, so the
    unrolled SQL mirror recomputes it stage by stage over the distinct
    words and hash-matches. The rank-priority encoder (default
    strategy) is property-pinned equivalent on this corpus in
    tests/test_text_ops.py."""
    from vertex_ray.stages.text import BpeApply, bpe_train

    ds = _docs(sf_dir)
    merges, _ = bpe_train(ds, "text", n_merges=_BPE_N_MERGES)
    return ds.map_batches(
        BpeApply,
        fn_constructor_kwargs={"merges": merges, "strategy": "sequential"},
        batch_format="pyarrow", concurrency=(1, 4))


def _sql_bpe_encode(n_merges: int) -> str:
    parts = [_bpe_train_ctes(n_merges), """w0 AS MATERIALIZED (
  SELECT DISTINCT tok AS word FROM (
    SELECT unnest(regexp_extract_all(text, '\\S+')) AS tok FROM documents
  )
),
e0 AS MATERIALIZED (
  SELECT word, list_append(string_split(word, ''), '</w>') AS toks FROM w0
)"""]
    fold = ("string_split(list_reduce(v.toks, (acc, x) -> CASE "
            "WHEN string_split(acc, chr(31))[-1] = m.a AND x = m.b "
            "THEN array_to_string(list_append(string_split(acc, chr(31))"
            "[1:len(string_split(acc, chr(31))) - 1], m.a || m.b), chr(31)) "
            "ELSE acc || chr(31) || x END), chr(31))")
    for s in range(1, n_merges + 1):
        parts.append(f"""e{s} AS MATERIALIZED (
  SELECT v.word,
         CASE WHEN m.a IS NULL THEN v.toks ELSE {fold} END AS toks
  FROM e{s - 1} v LEFT JOIN b{s} m ON TRUE
)""")
    parts.append(f"""docw AS (
  SELECT doc_id, unnest(ws) AS word, generate_subscripts(ws, 1) AS i
  FROM (SELECT doc_id, regexp_extract_all(text, '\\S+') AS ws
        FROM documents)
),
agg AS (
  SELECT doc_id, CAST(SUM(len(e.toks)) AS BIGINT) AS n_subwords,
         string_agg(array_to_string(e.toks, ' '), ' ' ORDER BY i)
           AS subwords
  FROM docw JOIN e{n_merges} e USING (word)
  GROUP BY doc_id
)""")
    joined = ",\n".join(parts)
    return f"""
WITH {joined}
SELECT d.doc_id, COALESCE(a.n_subwords, 0) AS n_subwords,
       COALESCE(a.subwords, '') AS subwords
FROM documents d LEFT JOIN agg a USING (doc_id)
"""


def q_length_fit_by_lang_docs(sf_dir: str):
    """Per-GROUP exact least squares (one chars-vs-tokens line per
    language): partials carry one row per (group, batch); the driver
    keeps one bignum accumulator per group — bounded by group
    cardinality — and pass 2 looks up each row's fit scalars from the
    broadcast table (stages/text.length_fit_residuals(group_col=…))."""
    from vertex_ray.stages.text import length_fit_residuals

    return length_fit_residuals(_docs(sf_dir), k_sigma=3.0,
                                group_col="lang")


SQL_LENGTH_FIT_BY_LANG_DOCS = r"""
WITH f AS (
  SELECT doc_id, lang,
         len(regexp_extract_all(text, '\S+')) AS x,
         n_chars AS y
  FROM documents
),
s AS (
  SELECT lang,
         CAST(count(*) AS HUGEINT) AS n,
         CAST(sum(x) AS HUGEINT) AS sx,
         CAST(sum(y) AS HUGEINT) AS sy,
         CAST(sum(x * y) AS HUGEINT) AS sxy,
         CAST(sum(x * x) AS HUGEINT) AS sxx,
         CAST(sum(y * y) AS HUGEINT) AS syy
  FROM f GROUP BY lang
),
p AS (
  SELECT lang, n, sx, sy,
         n * sxx - sx * sx AS vx,
         n * syy - sy * sy AS vy,
         n * sxy - sx * sy AS c
  FROM s
),
q AS (
  SELECT lang, n, sx, sy, vx, vy, c,
         CAST(c AS DOUBLE) / CAST(vx AS DOUBLE) AS b
  FROM p
),
r AS (
  SELECT lang, b,
         (CAST(sy AS DOUBLE) - b * CAST(sx AS DOUBLE))
           / CAST(n AS DOUBLE) AS a,
         sqrt((CAST(vy AS DOUBLE)
               - CAST(c AS DOUBLE) * CAST(c AS DOUBLE)
                 / CAST(vx AS DOUBLE))
              / (CAST(n AS DOUBLE) * CAST(n AS DOUBLE))) AS sd
  FROM q
)
SELECT f.doc_id, f.lang,
       CAST(f.x AS BIGINT) AS n_tokens,
       f.y AS n_chars,
       CAST(f.y AS DOUBLE) - (r.a + r.b * CAST(f.x AS DOUBLE)) AS residual,
       abs(CAST(f.y AS DOUBLE) - (r.a + r.b * CAST(f.x AS DOUBLE)))
         > 3.0 * r.sd AS outlier
FROM f JOIN r USING (lang)
"""


SQL_LENGTH_FIT_DOCS = r"""
WITH f AS (
  SELECT doc_id,
         len(regexp_extract_all(text, '\S+')) AS x,
         n_chars AS y
  FROM documents
),
s AS (
  SELECT CAST(count(*) AS HUGEINT) AS n,
         CAST(sum(x) AS HUGEINT) AS sx,
         CAST(sum(y) AS HUGEINT) AS sy,
         CAST(sum(x * y) AS HUGEINT) AS sxy,
         CAST(sum(x * x) AS HUGEINT) AS sxx,
         CAST(sum(y * y) AS HUGEINT) AS syy
  FROM f
),
p AS (
  SELECT n, sx, sy,
         n * sxx - sx * sx AS vx,
         n * syy - sy * sy AS vy,
         n * sxy - sx * sy AS c
  FROM s
),
q AS (
  SELECT CAST(c AS DOUBLE) / CAST(vx AS DOUBLE) AS b,
         n, sx, sy, vx, vy, c
  FROM p
),
r AS (
  SELECT b,
         (CAST(sy AS DOUBLE) - b * CAST(sx AS DOUBLE))
           / CAST(n AS DOUBLE) AS a,
         sqrt((CAST(vy AS DOUBLE)
               - CAST(c AS DOUBLE) * CAST(c AS DOUBLE)
                 / CAST(vx AS DOUBLE))
              / (CAST(n AS DOUBLE) * CAST(n AS DOUBLE))) AS sd
  FROM q
)
SELECT f.doc_id,
       CAST(f.x AS BIGINT) AS n_tokens,
       f.y AS n_chars,
       CAST(f.y AS DOUBLE) - (r.a + r.b * CAST(f.x AS DOUBLE)) AS residual,
       abs(CAST(f.y AS DOUBLE) - (r.a + r.b * CAST(f.x AS DOUBLE)))
         > 3.0 * r.sd AS outlier
FROM f, r
"""


def q_quality_docs(sf_dir: str):
    from vertex_ray.stages.text import quality_score_op

    return _docs(sf_dir).map_batches(quality_score_op(), batch_format="pyarrow").map_batches(
        lambda t: t.select(["doc_id", "n_tokens", "mean_token_len", "alpha_ratio"]),
        batch_format="pyarrow",
    )


SQL_QUALITY_DOCS = r"""
SELECT doc_id,
       len(regexp_extract_all(text, '\S+')) AS n_tokens,
       CASE WHEN len(regexp_extract_all(text, '\S+')) = 0 THEN 0.0
            ELSE CAST(len(replace(text, ' ', '')) AS DOUBLE)
                 / len(regexp_extract_all(text, '\S+')) END AS mean_token_len,
       CASE WHEN length(text) = 0 THEN 0.0
            ELSE CAST(length(regexp_replace(text, '[^A-Za-z \t\n]', '', 'g')) AS DOUBLE)
                 / length(text) END AS alpha_ratio
FROM documents
"""


def q_langid_docs(sf_dir: str):
    from vertex_ray.stages.text import lang_id_op

    return _docs(sf_dir).map_batches(lang_id_op(), batch_format="pyarrow").map_batches(
        lambda t: t.select(["doc_id", "lang_pred", "lang_conf"]), batch_format="pyarrow"
    )


def _sql_langid() -> str:
    from vertex_ray.stages.text import STOPWORDS

    hit_cols = ", ".join(
        "SUM(CASE WHEN w IN ({vals}) THEN 1 ELSE 0 END) AS h_{lang}".format(
            vals=", ".join(f"'{v}'" for v in sorted(sw)), lang=lang
        )
        for lang, sw in STOPWORDS.items()
    )
    gmax = "GREATEST({})".format(", ".join(f"h_{lang}" for lang in STOPWORDS))
    first_max = " ".join(
        f"WHEN h_{lang} = {gmax} THEN '{lang}'" for lang in STOPWORDS
    )
    return f"""
WITH words AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-zà-ÿ'']+')) AS w
  FROM documents
), c AS (
  SELECT doc_id, COUNT(*) AS n_words, {hit_cols}
  FROM words GROUP BY doc_id
)
SELECT d.doc_id,
  CASE WHEN c.doc_id IS NULL OR {gmax} = 0 THEN 'und' {first_max} END AS lang_pred,
  CASE WHEN c.doc_id IS NULL THEN 0.0
       ELSE CAST({gmax} AS DOUBLE) / n_words END AS lang_conf
FROM documents d LEFT JOIN c USING (doc_id)
"""


def q_fingerprint_docs(sf_dir: str):
    from vertex_ray.stages.text import fingerprint_op

    return _docs(sf_dir).map_batches(fingerprint_op(), batch_format="pyarrow").map_batches(
        lambda t: t.select(["doc_id", "fingerprint"]), batch_format="pyarrow"
    )


def q_fingerprint_md5_docs(sf_dir: str):
    """Same fingerprint operator with the md5 digest family — chosen so
    DuckDB's md5() can oracle the full digest value, making content
    fingerprinting hash-checked (the blake2b variant stays rows-only)."""
    from vertex_ray.stages.text import fingerprint_op

    return _docs(sf_dir).map_batches(
        fingerprint_op(algo="md5"), batch_format="pyarrow"
    ).map_batches(
        lambda t: t.select(["doc_id", "fingerprint"]), batch_format="pyarrow"
    )


SQL_FINGERPRINT_MD5_DOCS = "SELECT doc_id, md5(text) AS fingerprint FROM documents"


# --- dedup family (near-dup) -----------------------------------------------


def q_minhash_pairs_docs(sf_dir: str):
    from vertex_ray.stages.dedup_near import minhash_lsh_pairs

    return minhash_lsh_pairs(_docs(sf_dir), "text", "doc_id", verify_threshold=0.5)


def q_simhash_pairs_docs(sf_dir: str):
    from vertex_ray.stages.dedup_near import simhash_near_pairs

    return simhash_near_pairs(_docs(sf_dir), "text", "doc_id", max_hamming=6)


def q_simhash_md5_docs(sf_dir: str):
    """The SimHash values themselves under the md5 token-hash family —
    hash-checked against a DuckDB mirror that recomputes every bit vote
    in SQL (``md5_number_lower`` == our little-endian low-8-digest-bytes
    hash). Validates the whole SimHash construction, not just plumbing."""
    from vertex_ray.stages.dedup_near import simhash_op

    return _docs(sf_dir).map_batches(
        simhash_op("text", "doc_id", hash_family="md5"), batch_format="pyarrow"
    )


def q_simhash_pairs_md5_docs(sf_dir: str):
    """SimHash near-pairs at the blocking-exact distance (max_hamming=3,
    4 × 16-bit pigeonhole chunks ⇒ recall is guaranteed complete), md5
    hash family — so a brute-force all-pairs SQL mirror must return the
    IDENTICAL pair set. The sip-family query above stays rows-only."""
    from vertex_ray.stages.dedup_near import simhash_near_pairs

    return simhash_near_pairs(_docs(sf_dir), "text", "doc_id", max_hamming=3,
                              hash_family="md5")


# Recomputes SimHash bit-for-bit in SQL: tokens = \S+ runs of lower(text),
# token hash = md5_number_lower (== _md5_hash64), per-bit ±1 vote, bit set
# iff vote > 0; the uint64 is assembled in HUGEINT then two's-complemented
# to the engine's int64 view. Token-less docs hash to 0 via the LEFT JOIN.
_SQL_SIMHASH_MD5 = """
    WITH toks AS (
      SELECT doc_id, unnest(regexp_extract_all(lower(text), '\\S+')) AS tok
      FROM documents
    ),
    h AS (SELECT doc_id, md5_number_lower(tok)::UBIGINT AS h FROM toks),
    votes AS (
      SELECT doc_id, bits.b AS bit,
             SUM(CASE WHEN (h >> bits.b) & 1 = 1 THEN 1 ELSE -1 END) AS vote
      FROM h CROSS JOIN (SELECT unnest(range(64)) AS b) bits
      GROUP BY doc_id, bits.b
    ),
    sims AS (
      SELECT doc_id,
             SUM(CASE WHEN vote > 0 THEN (1::HUGEINT << bit::INT)
                 ELSE 0::HUGEINT END) AS u
      FROM votes GROUP BY doc_id
    )
    SELECT d.doc_id,
           (COALESCE(s.u, 0) - CASE WHEN COALESCE(s.u, 0)
                >= 9223372036854775808 THEN 18446744073709551616
                ELSE 0 END)::BIGINT AS simhash
    FROM documents d LEFT JOIN sims s USING (doc_id)
"""

SQL_SIMHASH_MD5_DOCS = _SQL_SIMHASH_MD5

SQL_SIMHASH_PAIRS_MD5_DOCS = f"""
    WITH sim AS ({_SQL_SIMHASH_MD5})
    SELECT s1.doc_id AS a, s2.doc_id AS b,
           bit_count(xor(s1.simhash, s2.simhash))::BIGINT AS hamming
    FROM sim s1 JOIN sim s2 ON s1.doc_id < s2.doc_id
    WHERE bit_count(xor(s1.simhash, s2.simhash)) <= 3
"""


def q_ngram_jaccard_docs(sf_dir: str):
    from vertex_ray.stages.dedup_near import ngram_jaccard_pairs

    return ngram_jaccard_pairs(_docs(sf_dir), "text", "doc_id", k=3, threshold=0.7)


# Mirrors ngram_jaccard_pairs exactly: word tokens = lower + \s+ split
# (empty tokens dropped), per-doc DISTINCT 3-gram sets, docs with <3
# tokens contribute the single shingle of all their tokens, jaccard =
# |A∩B| / (|A|+|B|-|A∩B|) as the same int→double division.
SQL_NGRAM_JACCARD_DOCS = r"""
WITH ws AS (
  SELECT doc_id, list_filter(string_split_regex(lower(text), '\s+'), t -> t <> '') AS w
  FROM documents
),
tok AS (
  SELECT doc_id, unnest(w) AS t, unnest(range(1, len(w)+1)) AS i FROM ws
),
grams AS (
  SELECT DISTINCT a.doc_id, a.t || ' ' || b.t || ' ' || c.t AS g
  FROM tok a JOIN tok b ON b.doc_id=a.doc_id AND b.i=a.i+1
             JOIN tok c ON c.doc_id=a.doc_id AND c.i=a.i+2
),
short AS (
  SELECT doc_id, array_to_string(w, ' ') AS g FROM ws WHERE len(w) BETWEEN 1 AND 2
),
allg AS (SELECT * FROM grams UNION SELECT * FROM short),
sizes AS (SELECT doc_id, count(*) AS n FROM allg GROUP BY 1),
inter AS (
  SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS inter
  FROM allg x JOIN allg y ON y.g = x.g AND x.doc_id < y.doc_id
  GROUP BY 1, 2
)
SELECT i.a, i.b,
       CAST(i.inter AS DOUBLE) / (sa.n + sb.n - i.inter) AS jaccard
FROM inter i JOIN sizes sa ON sa.doc_id = i.a JOIN sizes sb ON sb.doc_id = i.b
WHERE CAST(i.inter AS DOUBLE) / (sa.n + sb.n - i.inter) >= 0.7
"""


def q_vocab_docs(sf_dir: str):
    from vertex_ray.stages.text import vocab_topk

    return vocab_topk(_docs(sf_dir), "text", 50)


SQL_VOCAB_DOCS = r"""
WITH tok AS (
  SELECT unnest(regexp_extract_all(text, '\S+')) AS token FROM documents
)
SELECT token, count(*) AS cnt FROM tok GROUP BY token
ORDER BY cnt DESC, token ASC LIMIT 50
"""


def q_unigram_score_docs(sf_dir: str):
    """Word-frequency quality filter: per-doc min / mean corpus frequency
    of its tokens (unigram-LM-style rarity score) — two-pass, exact
    int64 aggregation, broadcast frequency table (stages/text)."""
    from vertex_ray.stages.text import unigram_freq_score

    return unigram_freq_score(_docs(sf_dir), "text", "doc_id")


SQL_UNIGRAM_SCORE_DOCS = r"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS token
  FROM documents
), vocab AS (
  SELECT token, count(*) AS cnt FROM tok GROUP BY token
)
SELECT t.doc_id, count(*) AS n_tokens, min(v.cnt) AS min_tok_cnt,
       CAST(sum(v.cnt) AS DOUBLE) / count(*) AS avg_tok_cnt
FROM tok t JOIN vocab v USING (token)
GROUP BY t.doc_id
"""


def q_exact_quantiles_events(sf_dir: str):
    from vertex_ray.stages.quantile import exact_quantiles

    import ray.data as rd

    # prune at the READ: only the one column the selection scans leaves
    # storage (the selection re-scans the dataset once per radix round)
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    return exact_quantiles(ds, "value", [0.5, 0.9, 0.99])


SQL_EXACT_QUANTILES_EVENTS = """
SELECT 0.5 AS q, quantile_disc(value, 0.5) AS value FROM events
UNION ALL
SELECT 0.9, quantile_disc(value, 0.9) FROM events
UNION ALL
SELECT 0.99, quantile_disc(value, 0.99) FROM events
"""


_PACK_BUDGET = 2048
_PACK_PARTS = 8


def q_pack_docs(sf_dir: str):
    from vertex_ray.stages.pack import pack_documents

    return pack_documents(
        _docs(sf_dir), "text", "doc_id", _PACK_BUDGET, n_parts=_PACK_PARTS
    )


# Greedy sequential packing per partition in doc_id order, reset-cumsum as
# a recursive CTE (depth = max docs per partition). Mirrors
# stages/pack.pack_documents exactly: \S+ token count, doc_id % n_parts
# partitioning, a bin takes consecutive docs while fill <= budget, an
# oversized doc opens a bin of its own.
SQL_PACK_DOCS = f"""
WITH RECURSIVE docs AS (
  SELECT doc_id % {_PACK_PARTS} AS part, doc_id,
         len(regexp_extract_all(text, '\\S+')) AS n_tokens,
         row_number() OVER (PARTITION BY doc_id % {_PACK_PARTS}
                            ORDER BY doc_id) AS rn
  FROM documents
),
packed(part, rn, doc_id, n_tokens, bin, fill) AS (
  SELECT part, rn, doc_id, n_tokens, 0, n_tokens FROM docs WHERE rn = 1
  UNION ALL
  SELECT d.part, d.rn, d.doc_id, d.n_tokens,
         CASE WHEN p.fill + d.n_tokens <= {_PACK_BUDGET}
              THEN p.bin ELSE p.bin + 1 END,
         CASE WHEN p.fill + d.n_tokens <= {_PACK_BUDGET}
              THEN p.fill + d.n_tokens ELSE d.n_tokens END
  FROM docs d JOIN packed p ON p.part = d.part AND d.rn = p.rn + 1
)
SELECT part, doc_id, n_tokens, bin FROM packed
"""


_OVERLAP_K = 8


def q_ngram_overlap_docs(sf_dir: str):
    """Exact-substring duplication pairs (Lee et al., arXiv:2107.06499):
    docs sharing >= 1 exact 8-token window, with the distinct shared
    window count (stages/dedup_near.ngram_overlap_pairs)."""
    from vertex_ray.stages.dedup_near import ngram_overlap_pairs

    return ngram_overlap_pairs(_docs(sf_dir), "text", "doc_id",
                               k=_OVERLAP_K, min_shared=1)


SQL_NGRAM_OVERLAP_DOCS = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\\S+') AS ts
  FROM documents
), grams AS (
  SELECT DISTINCT doc_id,
         array_to_string(list_slice(ts, i, i + {_OVERLAP_K} - 1), ' ')
           AS gram
  FROM toks, LATERAL (
    SELECT unnest(range(1, greatest(len(ts) - {_OVERLAP_K} + 2, 2))) AS i
  ) r
  WHERE len(ts) > 0
)
SELECT a.doc_id AS a, b.doc_id AS b, count(*) AS n_shared
FROM grams a JOIN grams b ON a.gram = b.gram AND a.doc_id < b.doc_id
GROUP BY 1, 2
"""


def q_dedup_clusters_docs(sf_dir: str):
    from vertex_ray.stages.dedup_near import ngram_jaccard_pairs
    from vertex_ray.stages.graph import dedup_clusters

    pairs = ngram_jaccard_pairs(_docs(sf_dir), "text", "doc_id", k=3, threshold=0.7)
    return dedup_clusters(pairs, "a", "b")


# Transitive closure over the (SQL-oracled) exact-jaccard pairs: every doc
# in >=1 pair gets the min doc_id of its connected component as canonical.
SQL_DEDUP_CLUSTERS_DOCS = f"""
WITH RECURSIVE
pairs AS ({SQL_NGRAM_JACCARD_DOCS}),
sym AS (SELECT a AS x, b AS y FROM pairs UNION SELECT b, a FROM pairs),
reach(x, y) AS (
  SELECT x, y FROM sym
  UNION
  SELECT r.x, s.y FROM reach r JOIN sym s ON s.x = r.y
)
SELECT x AS doc_id, LEAST(x, MIN(y)) AS canonical_id
FROM reach GROUP BY x
"""


# threshold 0.45: the synthetic embeddings top out at cosine ≈ 0.51, so a
# "near-dup" threshold of 0.9 selects nothing; 0.45 selects a small,
# well-separated set (neighbouring cosines differ by ≥1e-3, far above
# float32/float64 rounding) so the engine and DuckDB agree exactly.
_EMB_NEAR_THRESHOLD = 0.45


def q_embedding_near_pairs(sf_dir: str):
    from vertex_ray.stages.dedup_near import embedding_near_pairs_exact

    return embedding_near_pairs_exact(
        _emb(sf_dir), "embedding", "vec_id", threshold=_EMB_NEAR_THRESHOLD
    )


_SEMDEDUP_ASSIGN = "/tmp/vertex_ray_out/semdedup_assign"


def q_semantic_dedup(sf_dir: str):
    """SemDeDup (arXiv:2303.09540): k-means the embeddings, then drop the
    near-centroid member of every within-cluster near-dup pair. The
    engine writes its (vec_id, cluster, cosine) assignment table to
    parquet; the oracle reads it back and recomputes the keep verdicts
    with exact SQL cosines over the same assignment (recursive-oracle
    pattern, as SQL cannot reproduce the k-means fit itself)."""
    from vertex_ray.stages.dedup_near import semantic_dedup

    return semantic_dedup(
        _emb(sf_dir), "embedding", "vec_id", k=8, iters=4,
        threshold=_EMB_NEAR_THRESHOLD, assign_out=_SEMDEDUP_ASSIGN)


SQL_SEMANTIC_DEDUP = f"""
WITH a AS (
  SELECT * FROM read_parquet('{_SEMDEDUP_ASSIGN}/*.parquet')
),
dropped AS (
  SELECT DISTINCT x.vec_id
  FROM a x
  JOIN a y ON y.cluster = x.cluster AND y.vec_id <> x.vec_id
  JOIN embeddings ex ON ex.vec_id = x.vec_id
  JOIN embeddings ey ON ey.vec_id = y.vec_id
  WHERE list_cosine_similarity(ex.embedding, ey.embedding)
          >= {_EMB_NEAR_THRESHOLD}
    AND (y.cosine < x.cosine
         OR (y.cosine = x.cosine AND y.vec_id < x.vec_id))
)
SELECT a.vec_id, a.cluster, a.cosine,
       a.vec_id NOT IN (SELECT vec_id FROM dropped) AS keep
FROM a
"""


SQL_EMBEDDING_NEAR_PAIRS = f"""
SELECT a.vec_id AS a, b.vec_id AS b
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= {_EMB_NEAR_THRESHOLD}
"""


def q_embedding_near_pairs_lsh(sf_dir: str):
    from vertex_ray.stages.dedup_near import embedding_near_pairs

    return embedding_near_pairs(
        _emb(sf_dir), "embedding", "vec_id", threshold=_EMB_NEAR_THRESHOLD
    )


# --- similarity search -----------------------------------------------------


def _query_vectors(sf_dir: str, n: int = 3):
    import pyarrow.dataset as pads

    t = pads.dataset(f"{sf_dir}/embeddings.parquet").to_table(columns=["vec_id", "embedding"])
    order = np.argsort(t["vec_id"].to_numpy())[:n]
    ids = t["vec_id"].to_numpy()[order]
    vecs = np.stack([t["embedding"][int(i)].as_py() for i in order])
    return ids, vecs


def q_ann_topk(sf_dir: str):
    from vertex_ray.stages.ann import brute_force_topk

    qids, qvecs = _query_vectors(sf_dir)
    out = brute_force_topk(_emb(sf_dir), qvecs, 5, "embedding", "vec_id")
    qmap = {i: int(v) for i, v in enumerate(qids)}

    def remap(t: pa.Table) -> pa.Table:
        q = np.array([qmap[int(x)] for x in t["query_id"].to_numpy()], dtype=np.int64)
        return pa.table(
            {
                "query_vec_id": pa.array(q),
                "vec_id": t["vec_id"],
            }
        )

    return out.map_batches(remap, batch_format="pyarrow")


SQL_ANN_TOPK = """
WITH q AS (SELECT vec_id AS query_vec_id, embedding AS qe
           FROM embeddings ORDER BY vec_id LIMIT 3)
SELECT query_vec_id, e.vec_id
FROM q CROSS JOIN embeddings e
QUALIFY row_number() OVER (
    PARTITION BY query_vec_id
    ORDER BY list_cosine_similarity(qe, e.embedding) DESC, e.vec_id) <= 5
"""


def q_ann_ivf_topk(sf_dir: str):
    from vertex_ray.stages.ann import ivf_topk

    qids, qvecs = _query_vectors(sf_dir)
    return ivf_topk(_emb(sf_dir), qvecs, 5, "embedding", "vec_id", n_centroids=8, nprobe=8)
    # nprobe == n_centroids → exhaustive probing; still exercises the IVF path


def q_ann_pq_topk(sf_dir: str):
    """Product-quantized ANN: 16-byte codes instead of 512-byte raw
    vectors (32x), ADC lookup-table scoring. Rows-only: PQ is lossy by
    design; recall@10 >= 0.5 vs brute force and the code-size contract
    are pinned in tests/test_text_ops.py::test_ann_pq_recall..."""
    from vertex_ray.stages.ann import pq_encode, pq_fit, pq_topk

    qids, qvecs = _query_vectors(sf_dir)
    emb = _emb(sf_dir)
    books = pq_fit(emb, "embedding", m=16, k=64)
    codes = pq_encode(emb, books, "embedding", "vec_id")
    return pq_topk(codes, books, qvecs, 5, "vec_id")


# --- multimodal plumbing ---------------------------------------------------


def q_multimodal_features(sf_dir: str):
    import ray.data as rd

    from vertex_ray.stages.multimodal import featurize_media, synth_media_table

    n = 500 if "0.01" in sf_dir else 100
    return featurize_media(rd.from_arrow(synth_media_table(n)), concurrency=2)


def q_media_decode_docs(sf_dir: str):
    """ORACLED multimodal decode (stages/multimodal.media_decode_checksums
    — the geoip-mmdb trick applied to media codecs): payloads BUILT
    deterministically from documents ids (PNG gradient / solid-gray JPEG
    / PCM16 WAV / solid-gray MJPEG-AVI / solid-gray MJPEG-MP4), decoded
    through the REAL codec dispatch, reduced to integer checksums. The
    oracle recomputes every checksum arithmetically — PNG/WAV are
    lossless round-trips, and the solid-gray JPEG family collapses to
    the scalar DC quant chain (validated exhaustively for all 256 gray
    values) — so values only match if the quant tables, DCT, Huffman
    coding, container mux and decoders are all correct."""
    import ray.data as rd

    from vertex_ray.stages.multimodal import media_decode_checksums

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return media_decode_checksums(ds, concurrency=2)


def _sql_rhe(x: str) -> str:
    """numpy half-even rounding (np.round) of a DOUBLE expression —
    SQL round() rounds half away from zero, so ties must be spelled
    out (DC levels and reconstructed pixels DO land on exact .5)."""
    return (f"(CAST(floor({x}) AS BIGINT) + CASE "
            f"WHEN ({x}) - floor({x}) > 0.5 THEN 1 "
            f"WHEN ({x}) - floor({x}) < 0.5 THEN 0 "
            f"WHEN CAST(floor({x}) AS BIGINT) % 2 = 0 THEN 0 "
            f"ELSE 1 END)")


def _sql_jpeg_gray_chain(v: str, color: bool) -> str:
    """Decoded pixel value of a solid-gray JPEG block at quality 85 —
    the whole encode→decode chain as scalar arithmetic (Annex-K luma DC
    quant 16 scaled to 5 at q85; constant blocks have zero AC energy and
    exactly-128 chroma, so only the DC level survives):
    y → dcq = round_half_even(8(y−128)/5) → clip(rhe(dcq·5/8 + 128))."""
    y = (f"(CAST(0.299 AS DOUBLE) * ({v}) + CAST(0.587 AS DOUBLE) * ({v})"
         f" + CAST(0.114 AS DOUBLE) * ({v}))" if color
         else f"CAST(({v}) AS DOUBLE)")
    dcq = _sql_rhe(f"(8 * ({y} - 128)) / 5")
    yp = f"(CAST({dcq} AS DOUBLE) * 5 / 8 + 128)"
    return f"LEAST(255, GREATEST(0, {_sql_rhe(yp)}))"


def _sql_media_decode_docs() -> str:
    vid_u = _sql_jpeg_gray_chain("(doc_id * 13 + t * 29) % 256", True)
    jpg_u = _sql_jpeg_gray_chain("(doc_id * 13 + 7) % 256", False)
    return f"""
WITH ids AS (SELECT doc_id FROM documents),
png AS (
  SELECT doc_id, 'png' AS media_kind,
         CAST(count(*) AS BIGINT) AS n_values,
         CAST(SUM(px) AS BIGINT) AS value_sum,
         CAST(MIN(px) AS BIGINT) AS value_min,
         CAST(MAX(px) AS BIGINT) AS value_max
  FROM (SELECT doc_id, (doc_id * 31 + u) % 256 AS px
        FROM ids, generate_series(0, {16 * 24 * 3 - 1}) AS g(u)
        WHERE doc_id % 5 = 0)
  GROUP BY doc_id
),
jpg AS (
  SELECT doc_id, 'jpeg' AS media_kind, CAST(256 AS BIGINT) AS n_values,
         CAST(256 * u AS BIGINT) AS value_sum,
         CAST(u AS BIGINT) AS value_min, CAST(u AS BIGINT) AS value_max
  FROM (SELECT doc_id, {jpg_u} AS u FROM ids WHERE doc_id % 5 = 1)
),
wav AS (
  SELECT doc_id, 'wav' AS media_kind,
         CAST(count(*) AS BIGINT) AS n_values,
         CAST(SUM(m) AS BIGINT) AS value_sum,
         CAST(MIN(m) AS BIGINT) AS value_min,
         CAST(MAX(m) AS BIGINT) AS value_max
  FROM (SELECT doc_id, (doc_id * 7919 + u * 131) % 65536 - 32768 AS m
        FROM ids, generate_series(0, 255) AS g(u)
        WHERE doc_id % 5 = 2)
  GROUP BY doc_id
),
vid AS (
  SELECT doc_id, {vid_u} AS u
  FROM ids, generate_series(0, 3) AS g(t)
  WHERE doc_id % 5 IN (3, 4)
),
vids AS (
  SELECT doc_id,
         CASE WHEN doc_id % 5 = 3 THEN 'avi' ELSE 'mp4' END AS media_kind,
         CAST({4 * 16 * 16 * 3} AS BIGINT) AS n_values,
         CAST({16 * 16 * 3} * SUM(u) AS BIGINT) AS value_sum,
         CAST(MIN(u) AS BIGINT) AS value_min,
         CAST(MAX(u) AS BIGINT) AS value_max
  FROM vid GROUP BY doc_id
)
SELECT * FROM png UNION ALL SELECT * FROM jpg
UNION ALL SELECT * FROM wav UNION ALL SELECT * FROM vids
"""


# --- stream-shaped windowed analytics --------------------------------------


def q_sessionize_events(sf_dir: str):
    from vertex_ray.stages.windows import sessionize

    return sessionize(_ev(sf_dir), "user_id", "ts", gap_seconds=1800, tie_col="event_id")


SQL_SESSIONIZE_EVENTS = """
WITH marked AS (
  SELECT user_id, epoch_us(ts) AS t,
         CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER w > 1800000000
              OR lag(ts) OVER w IS NULL THEN 1 ELSE 0 END AS new_session
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
sess AS (
  SELECT user_id, t,
         CAST(sum(new_session) OVER (PARTITION BY user_id ORDER BY t
                                ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT)
           AS session_id
  FROM marked
)
SELECT user_id, session_id, count(*) AS n_events,
       min(t) AS start_ts, max(t) AS end_ts
FROM sess GROUP BY 1, 2
"""


def q_sliding_window_events(sf_dir: str):
    from vertex_ray.stages.windows import sliding_count

    return sliding_count(_ev(sf_dir), "event_type", "ts", 300, 60)


SQL_SLIDING_WINDOW_EVENTS = """
SELECT event_type, ((epoch_us(ts) // 60000000) - k) * 60 AS window_start,
       count(*) AS count
FROM events CROSS JOIN (SELECT unnest([0, 1, 2, 3, 4]) AS k)
GROUP BY 1, 2
"""


# --- sort / top-k -----------------------------------------------------------


def q_topk_events(sf_dir: str):
    ds = _ev(sf_dir)
    return (
        ds.sort(["value", "event_id"], descending=[True, False])
        .limit(10)
        .map_batches(lambda t: t.select(["event_id", "value"]), batch_format="pyarrow")
    )


SQL_TOPK_EVENTS = """
SELECT event_id, value FROM events ORDER BY value DESC, event_id LIMIT 10
"""


# --- rewrite (script + dropped port) ----------------------------------------


def q_rewrite_events(sf_dir: str):
    from vertex_ray.stages.ops import rewrite_op

    def script(t: pa.Table):
        v = t["value"].to_numpy(zero_copy_only=False)
        ok = v >= 250.0
        adj = np.where(ok, np.sqrt(np.where(ok, v - 250.0, 0.0)), np.nan)
        out = pa.table(
            {
                "event_id": t["event_id"],
                "adjusted": pa.array(adj, type=pa.float64()),
            }
        )
        return out, ~ok

    return _ev(sf_dir).map_batches(rewrite_op(script), batch_format="pyarrow")


SQL_REWRITE_EVENTS = """
SELECT event_id,
       CASE WHEN value >= 250 THEN sqrt(value - 250) END AS adjusted,
       value < 250 AS dropped
FROM events
"""


# --- codecs (JSON-lines / logfmt / syslog deserializers) --------------------


def _codec_fixture(sf_dir: str, fmt: str) -> str:
    """Materialize the events table once as newline-framed text in the
    requested codec (deterministic, event_id order) so the codec queries
    read REAL text input while the oracle reads the same rows as parquet."""
    import json
    import os

    import pyarrow.dataset as pads

    tag = os.path.basename(os.path.normpath(sf_dir))
    path = f"/tmp/vertex_ray_testdata/codec_{tag}_events.{fmt}"
    if os.path.exists(path):
        return path
    t = pads.dataset(f"{sf_dir}/events.parquet").to_table(
        columns=["event_id", "ts", "event_type", "value"]
    )
    rows = sorted(t.to_pylist(), key=lambda r: r["event_id"])
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + f".tmp{os.getpid()}"
    with open(tmp, "w") as f:
        for r in rows:
            ts_us = int(r["ts"].timestamp() * 1e6) if hasattr(r["ts"], "timestamp") else int(r["ts"])
            if fmt == "jsonl":
                f.write(json.dumps({"event_id": r["event_id"], "ts_us": ts_us,
                                    "event_type": r["event_type"],
                                    "value": r["value"]}) + "\n")
            elif fmt == "logfmt":
                f.write(f'event_id={r["event_id"]} event_type={r["event_type"]} '
                        f'value={r["value"]!r} msg="ev {r["event_id"]}"\n')
            elif fmt == "csv":
                f.write(f'{r["event_id"]},{r["event_type"]},{r["value"]!r}\n')
            elif fmt == "prom":
                # one counter sample per event; repr(float) round-trips
                # bit-exactly through the parser's float()
                f.write(f'event_value{{event_id="{r["event_id"]}",'
                        f'event_type="{r["event_type"]}"}} {r["value"]!r} '
                        f"{ts_us // 1000}\n")
            else:  # syslog
                import datetime as dt

                stamp = dt.datetime(2026, 1, 1) + dt.timedelta(seconds=r["event_id"])
                f.write(f"<{13 + (r['event_id'] % 8)}>{stamp.strftime('%b %d %H:%M:%S')} "
                        f"host{r['event_id'] % 4} {r['event_type']}: value={r['value']!r}\n")
    os.replace(tmp, path)
    return path


def _count_minmax_by(ds, key: str):
    """count/min/max per key — exact-comparable aggregates (no float sums
    of arbitrary doubles)."""
    import pandas as pd

    def partial(t: pa.Table) -> pd.DataFrame:
        df = t.select([key, "value"]).to_pandas()
        g = df.groupby(key, sort=False)["value"]
        return g.agg(count="size", min="min", max="max").reset_index()

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        gg = g.groupby(key, sort=False)
        out = gg.agg(count=("count", "sum"), min=("min", "min"),
                     max=("max", "max")).reset_index()
        out["count"] = out["count"].astype(np.int64)
        return out

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(key)
        .map_groups(merge, batch_format="pandas")
    )


def q_codec_jsonl_events(sf_dir: str):
    from vertex_ray.sources.codecs import decode_json_lines, read_lines

    path = _codec_fixture(sf_dir, "jsonl")
    decoded = read_lines(path).map_batches(decode_json_lines, batch_format="pyarrow")
    return _count_minmax_by(decoded, "event_type")


SQL_CODEC_JSONL_EVENTS = """
SELECT event_type, count(*) AS count, min(value) AS min, max(value) AS max
FROM events GROUP BY 1
"""


def q_codec_csv_events(sf_dir: str):
    """CSV codec (haproxy-stats analogue): header-less frames + explicit
    column names through pyarrow's C++ CSV reader."""
    from vertex_ray.sources.codecs import decode_csv, read_lines

    path = _codec_fixture(sf_dir, "csv")
    decoded = read_lines(path).map_batches(
        lambda t: decode_csv(
            t, column_names=["event_id", "event_type", "value"]),
        batch_format="pyarrow",
    )
    return _count_minmax_by(decoded, "event_type")


def q_codec_logfmt_events(sf_dir: str):
    from vertex_ray.sources.codecs import decode_logfmt, read_lines

    path = _codec_fixture(sf_dir, "logfmt")

    def typed(t: pa.Table) -> pa.Table:
        # logfmt values are strings; type them here (the reference's VTL
        # stage owns typing after decode)
        return pa.table(
            {
                "event_type": t["event_type"],
                "value": t["value"].cast(pa.float64()),
            }
        )

    decoded = (
        read_lines(path)
        .map_batches(decode_logfmt, batch_format="pyarrow")
        .map_batches(typed, batch_format="pyarrow")
    )
    return _count_minmax_by(decoded, "event_type")


def q_codec_syslog_events(sf_dir: str):
    from vertex_ray.sources.codecs import decode_syslog, read_lines

    path = _codec_fixture(sf_dir, "syslog")

    def typed(t: pa.Table) -> pa.Table:
        import pandas as pd

        msg = pd.Series(t["message"].to_numpy(zero_copy_only=False))
        val = pd.to_numeric(msg.str.extract(r"value=(\S+)")[0], errors="coerce")
        return pa.table(
            {
                "event_type": t["tag"],
                "value": pa.array(val.to_numpy(), type=pa.float64()),
            }
        )

    decoded = (
        read_lines(path)
        .map_batches(decode_syslog, batch_format="pyarrow")
        .map_batches(typed, batch_format="pyarrow")
    )
    return _count_minmax_by(decoded, "event_type")


def q_codec_prom_events(sf_dir: str):
    """Prometheus text exposition decode (lib/prometheus/src/text.rs):
    per-event counter samples rendered to exposition text, parsed back
    with the vectorized sample parser, re-aggregated; the label value
    comes out of the canonical tags string."""
    import pandas as pd

    from vertex_ray.sources.codecs import read_lines
    from vertex_ray.sources.prometheus_text import decode_prometheus_samples

    path = _codec_fixture(sf_dir, "prom")

    def typed(t: pa.Table) -> pa.Table:
        tags = pd.Series(t["tags"].to_numpy(zero_copy_only=False))
        et = tags.str.extract(r'event_type="([^"]*)"')[0]
        return pa.table(
            {
                "event_type": pa.array(et.to_numpy(), type=pa.string()),
                "value": t["value"],
            }
        )

    decoded = (
        read_lines(path)
        .map_batches(decode_prometheus_samples, batch_format="pyarrow")
        .map_batches(typed, batch_format="pyarrow")
    )
    return _count_minmax_by(decoded, "event_type")


# --- encoders: prometheus text render + influx line protocol ----------------


def _minute_counts(sf_dir: str):
    """count per (event_type, minute window) — partial combine inside
    map_batches, then ONE small groupby (the §2.3 pre-aggregation shape)."""
    import pandas as pd
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "event_type"])

    def partial(t: pa.Table) -> pd.DataFrame:
        ts_us = t["ts"].cast(pa.int64()).to_numpy()
        df = pd.DataFrame(
            {
                "event_type": t["event_type"].to_numpy(zero_copy_only=False),
                "wms": (ts_us // 60_000_000) * 60_000,
            }
        )
        return (
            df.groupby(["event_type", "wms"], sort=False).size()
            .rename("count").reset_index()
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.groupby(["event_type", "wms"], sort=False)["count"].sum().reset_index()
        )
        out["count"] = out["count"].astype(np.int64)
        return out

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "wms"])
        .map_groups(merge, batch_format="pandas")
    )


def q_encode_prom_text(sf_dir: str):
    """Prometheus exposition RENDER of a rollup (the prometheus_exporter
    read path, metric/mod.rs:175-235): integer counter values so the SQL
    oracle rebuilds the identical strings."""
    from vertex_ray.sources.prometheus_text import render_prometheus_lines

    def render(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "line": render_prometheus_lines(
                    "events_total",
                    {"event_type": t["event_type"].to_numpy(zero_copy_only=False)},
                    t["count"].to_numpy(),
                    t["wms"].to_numpy(),
                )
            }
        )

    return _minute_counts(sf_dir).map_batches(render, batch_format="pyarrow")


SQL_ENCODE_PROM_TEXT = """
SELECT 'events_total{event_type="' || event_type || '"} '
       || CAST(count(*) AS VARCHAR) || ' '
       || CAST((epoch_us(ts) // 60000000) * 60000 AS VARCHAR) AS line
FROM events GROUP BY event_type, (epoch_us(ts) // 60000000)
"""


def q_encode_influx_line(sf_dir: str):
    """InfluxDB line-protocol encode of the same rollup
    (src/sinks/influxdb/encoder.rs:16-80): integer field with the 'i'
    suffix, nanosecond timestamp."""
    from vertex_ray.sources.prometheus_text import render_influx_lines

    def render(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "line": render_influx_lines(
                    "events",
                    {"event_type": t["event_type"].to_numpy(zero_copy_only=False)},
                    "count",
                    t["count"].to_numpy(),
                    t["wms"].to_numpy() * 1_000_000,
                )
            }
        )

    return _minute_counts(sf_dir).map_batches(render, batch_format="pyarrow")


SQL_ENCODE_INFLUX_LINE = """
SELECT 'events,event_type=' || event_type || ' count='
       || CAST(count(*) AS VARCHAR) || 'i '
       || CAST((epoch_us(ts) // 60000000) * 60000000000 AS VARCHAR) AS line
FROM events GROUP BY event_type, (epoch_us(ts) // 60000000)
"""


# --- metric normalization: absolute <-> incremental ------------------------


def q_normalize_abs_inc_events(sf_dir: str):
    """MetricNormalize absolute->incremental
    (lib/framework/src/sink/buffer/metrics.rs:100-146): per-series
    (user_id) cumulative values become deltas; first observation primes
    state and emits nothing; a decrease is a counter reset emitting the
    new value. One groupby exchange, vectorized diff per group."""
    import ray.data as rd

    from vertex_ray.stages.normalize import absolute_to_incremental

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "value"],
    )
    return absolute_to_incremental(ds, ["user_id"], "ts", "value", "event_id")


SQL_NORMALIZE_ABS_INC = """
SELECT user_id, ts, event_id,
       CASE WHEN value >= prev THEN value - prev ELSE value END AS delta
FROM (SELECT user_id, ts, event_id, value,
             lag(value) OVER (PARTITION BY user_id ORDER BY ts, event_id)
               AS prev
      FROM events)
WHERE prev IS NOT NULL
"""


def q_normalize_inc_abs_events(sf_dir: str):
    """MetricNormalize incremental->absolute: per-series running total.
    Values are fixed-pointed to int64 hundredths first so the cumsum is
    exact and order-stable on both engine and oracle sides."""
    import ray.data as rd

    from vertex_ray.stages.normalize import incremental_to_absolute

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "value"],
    )

    def cents(t: pa.Table) -> pa.Table:
        v = np.floor(t["value"].to_numpy() * 100.0).astype(np.int64)
        return t.drop_columns(["value"]).append_column(
            "value_i", pa.array(v, type=pa.int64())
        )

    ds = ds.map_batches(cents, batch_format="pyarrow")
    return incremental_to_absolute(
        ds, ["user_id"], "ts", "value_i", "event_id", out_col="total"
    )


SQL_NORMALIZE_INC_ABS = """
SELECT user_id, ts, event_id,
       CAST(SUM(CAST(floor(value * 100) AS BIGINT)) OVER (
         PARTITION BY user_id ORDER BY ts, event_id
         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS BIGINT)
         AS total
FROM events
"""


# --- redaction (VTL redact / training-data PII scrub) ----------------------

_REDACT_RX = r"\b(customer|key|secret)\b"


def q_redact_docs(sf_dir: str):
    """Vectorized redaction over the documents table — the VTL ``redact``
    function (lib/vtl/src/compiler/function/redact.rs) as a batch stage,
    the shape a PII scrub takes in a training-data pipeline: RE2
    replacement plus a per-doc hit count, zero-copy Arrow throughout."""
    from vertex_ray.functions.registry import FUNCTIONS

    redact = FUNCTIONS["redact"]

    def f(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "text_redacted": redact(t["text"], _REDACT_RX),
                "n_redacted": pc.cast(
                    pc.count_substring_regex(t["text"], _REDACT_RX), pa.int64()
                ),
            }
        )

    return _docs(sf_dir).map_batches(f, batch_format="pyarrow")


SQL_REDACT_DOCS = f"""
SELECT doc_id,
       regexp_replace(text, '{_REDACT_RX}', '[REDACTED]', 'g') AS text_redacted,
       CAST(len(regexp_extract_all(text, '{_REDACT_RX}')) AS BIGINT)
         AS n_redacted
FROM documents
"""


# --- VTL parse functions over real columns ---------------------------------


def q_parse_json_events(sf_dir: str):
    """parse_json over the events.props JSON column (VTL parse_json,
    lib/vtl/src/compiler/function/parse_json.rs): extract k, aggregate
    per event_type. Pruned 2-column scan; ONE small groupby."""
    import ray.data as rd

    from vertex_ray.functions.registry import apply

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "props"])

    def extract(t: pa.Table) -> pa.Table:
        parsed = apply("parse_json", t["props"])
        k = pc.cast(apply("get", parsed, "k"), pa.int64())
        return pa.table({"event_type": t["event_type"], "k": k})

    import pandas as pd

    def partial(t: pa.Table) -> pd.DataFrame:
        df = t.to_pandas()
        g = df.groupby("event_type", sort=False)["k"]
        return g.agg(count="size", sum_k="sum", min_k="min", max_k="max").reset_index()

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        gg = g.groupby("event_type", sort=False)
        out = gg.agg(count=("count", "sum"), sum_k=("sum_k", "sum"),
                     min_k=("min_k", "min"), max_k=("max_k", "max")).reset_index()
        for c in ("count", "sum_k", "min_k", "max_k"):
            out[c] = out[c].astype(np.int64)
        return out

    return (
        ds.map_batches(extract, batch_format="pyarrow")
        .map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .map_groups(merge, batch_format="pandas")
    )


SQL_PARSE_JSON_EVENTS = """
SELECT event_type, count(*) AS count,
       CAST(sum(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k,
       min(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS min_k,
       max(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS max_k
FROM events GROUP BY 1
"""


def q_path_json_events(sf_dir: str):
    """Nested ``Value`` path addressing over a JSON document source
    (lib/value/src/path analogue, functions/path.py): each event's
    ``props`` JSON is wrapped in a two-level envelope, parsed to a
    struct column, and addressed with the exprlang postfix path
    ``.a.b[0].k`` — struct → struct → list-index → field, all
    vectorized (one Arrow op per segment per batch, compiled once)."""
    from vertex_ray.functions.exprlang import compile_expr

    expr = compile_expr(
        'parse_json(\'{"a":{"b":[\' + props + \']}}\').a.b[0].k')

    def fn(t: pa.Table) -> pa.Table:
        return pa.table({"event_id": t["event_id"],
                         "k_val": pc.cast(expr(t), pa.int64())})

    return _ev(sf_dir).map_batches(fn, batch_format="pyarrow")


SQL_PATH_JSON_EVENTS = r"""
SELECT event_id,
       CAST(json_extract('{"a":{"b":[' || props || ']}}',
                         '$.a.b[0].k') AS BIGINT) AS k_val
FROM events
"""


def q_parse_regex_docs(sf_dir: str):
    """parse_regex (named groups → columns) over documents.text: first
    word + doc length class, counted. The extract is ONE cython pass per
    batch (functions/parse.py)."""
    import ray.data as rd

    import pandas as pd

    from vertex_ray.functions.registry import apply

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def extract(t: pa.Table) -> pa.Table:
        return apply("parse_regex", t["text"], r"^(?P<first_word>\w+)")

    def partial(t: pa.Table) -> pd.DataFrame:
        df = t.to_pandas()
        df["first_word"] = df["first_word"].fillna("")
        return df.groupby("first_word", sort=False).size().rename("count").reset_index()

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("first_word", sort=False)["count"].sum().reset_index()
        out["count"] = out["count"].astype(np.int64)
        return out

    return (
        ds.map_batches(extract, batch_format="pyarrow")
        .map_batches(partial, batch_format="pyarrow")
        .groupby("first_word")
        .map_groups(merge, batch_format="pandas")
    )


SQL_PARSE_REGEX_DOCS = r"""
SELECT coalesce(regexp_extract(text, '^(\w+)', 1), '') AS first_word,
       count(*) AS count
FROM documents GROUP BY 1
"""


def q_kmeans_embeddings(sf_dir: str):
    """Distributed spherical k-means over the embeddings table: fit 10
    centroids with streaming Lloyd passes (no shuffle; k×d partials per
    batch), then a stateless assignment pass. Rows-only: the synthetic
    labels are weakly separable (~41% even for supervised label
    centroids), so cluster recovery is pinned on constructed separable
    data in tests/test_cluster.py instead."""
    from vertex_ray.stages.cluster import kmeans_assign, kmeans_fit

    ds = _emb(sf_dir)
    cents = kmeans_fit(ds, "embedding", k=10, iters=6)
    return kmeans_assign(ds, cents, "embedding", "vec_id")


_KMI_K, _KMI_ITERS, _KMI_Q = 6, 4, 128


def q_kmeans_int_embeddings(sf_dir: str):
    """INTEGER-exact Lloyd k-means (stages/cluster.kmeans_int_fit — the
    oracle-able twin of the float spherical variant, whose FP sums are
    block-order-dependent and therefore unhashable): quantized
    coordinates, integer-dot assignment with lowest-index ties,
    floored-mean updates, k-smallest-id init. Every iteration is
    recomputed by the SQL mirror's unrolled materialized CTEs."""
    from vertex_ray.stages.cluster import kmeans_int_assign, kmeans_int_fit

    ds = _emb(sf_dir)
    cents = kmeans_int_fit(ds, "embedding", "vec_id", k=_KMI_K,
                           iters=_KMI_ITERS, quant=_KMI_Q)
    return kmeans_int_assign(ds, cents, "embedding", "vec_id",
                             quant=_KMI_Q)


def _sql_kmeans_int_chain(k: int, iters: int, quant: int) -> str:
    """Shared unrolled-Lloyd CTE chain (the `_sql_bpe_train` technique):
    ``WITH xq, c0, a1..c{iters}`` — reused by the k-means oracle and the
    integer-IVF oracle. Floored means use floor(s/n) in DOUBLE — exact
    here because the quotient's distance to any integer is ≥ 1/n >> one
    ulp."""
    parts = [f"""
WITH xq AS MATERIALIZED (
  SELECT vec_id, j, CAST(floor(CAST(e AS DOUBLE) * {quant}) AS BIGINT)
           AS x
  FROM (SELECT vec_id, unnest(embedding) AS e,
               generate_subscripts(embedding, 1) AS j
        FROM embeddings)
),
c0 AS MATERIALIZED (
  SELECT i.c, x.j, x.x AS s
  FROM (SELECT vec_id, row_number() OVER (ORDER BY vec_id) - 1 AS c
        FROM (SELECT vec_id FROM embeddings
              ORDER BY vec_id LIMIT {k})) i
  JOIN xq x USING (vec_id)
)"""]
    for t in range(1, iters + 1):
        parts.append(f""",
a{t} AS MATERIALIZED (
  SELECT x.vec_id, cs.c, SUM(x.x * cs.s) AS score
  FROM xq x JOIN c{t - 1} cs ON cs.j = x.j
  GROUP BY 1, 2
),
b{t} AS MATERIALIZED (
  SELECT vec_id, c FROM (
    SELECT vec_id, c, row_number() OVER (
      PARTITION BY vec_id ORDER BY score DESC, c ASC) AS rn
    FROM a{t}) WHERE rn = 1
),
c{t} AS MATERIALIZED (
  SELECT prev.c, prev.j,
         COALESCE(CAST(floor(CAST(agg.s AS DOUBLE) / agg.n) AS BIGINT),
                  prev.s) AS s
  FROM c{t - 1} prev
  LEFT JOIN (
    SELECT b.c, x.j, SUM(x.x) AS s, COUNT(*) AS n
    FROM b{t} b JOIN xq x USING (vec_id)
    GROUP BY 1, 2) agg
  ON agg.c = prev.c AND agg.j = prev.j
)""")
    return "".join(parts)


def _sql_kmeans_int(k: int = _KMI_K, iters: int = _KMI_ITERS,
                    quant: int = _KMI_Q) -> str:
    """DuckDB mirror of q_kmeans_int_embeddings."""
    return _sql_kmeans_int_chain(k, iters, quant) + f""",
afin AS (
  SELECT x.vec_id, cs.c, SUM(x.x * cs.s) AS score
  FROM xq x JOIN c{iters} cs ON cs.j = x.j
  GROUP BY 1, 2
)
SELECT vec_id, c AS cluster, CAST(score AS BIGINT) AS score FROM (
  SELECT vec_id, c, score, row_number() OVER (
    PARTITION BY vec_id ORDER BY score DESC, c ASC) AS rn
  FROM afin) WHERE rn = 1
"""


_IVFI_K, _IVFI_ITERS, _IVFI_NQ, _IVFI_NPROBE, _IVFI_TOPK = 6, 2, 3, 2, 5


def q_ann_ivf_int_topk(sf_dir: str):
    """INTEGER-exact IVF top-k (stages/ann.ivf_int_topk_exact): the
    coarse quantizer is the integer-Lloyd kmeans, probes and candidate
    ranking are int64 dot products with deterministic ties — so unlike
    the recall-pinned float IVF, the whole index AND search are
    recomputed by the SQL mirror."""
    from vertex_ray.stages.ann import ivf_int_topk_exact

    return ivf_int_topk_exact(
        _emb(sf_dir), "embedding", "vec_id", n_centroids=_IVFI_K,
        iters=_IVFI_ITERS, nq=_IVFI_NQ, nprobe=_IVFI_NPROBE,
        topk=_IVFI_TOPK, quant=_KMI_Q)


def _sql_ann_ivf_int() -> str:
    it = _IVFI_ITERS
    return _sql_kmeans_int_chain(_IVFI_K, it, _KMI_Q) + f""",
va0 AS MATERIALIZED (
  SELECT x.vec_id, cs.c, SUM(x.x * cs.s) AS score
  FROM xq x JOIN c{it} cs ON cs.j = x.j GROUP BY 1, 2
),
vassign AS MATERIALIZED (
  SELECT vec_id, c AS cluster FROM (
    SELECT vec_id, c, row_number() OVER (
      PARTITION BY vec_id ORDER BY score DESC, c ASC) AS rn
    FROM va0) WHERE rn = 1
),
qs AS (SELECT vec_id AS qid FROM embeddings
       ORDER BY vec_id LIMIT {_IVFI_NQ}),
qxv AS (SELECT q.qid, x.j, x.x FROM qs q
        JOIN xq x ON x.vec_id = q.qid),
qc AS (
  SELECT qxv.qid, cs.c, SUM(qxv.x * cs.s) AS score
  FROM qxv JOIN c{it} cs ON cs.j = qxv.j GROUP BY 1, 2
),
probe AS (
  SELECT qid, c FROM (
    SELECT qid, c, row_number() OVER (
      PARTITION BY qid ORDER BY score DESC, c ASC) AS rn
    FROM qc) WHERE rn <= {_IVFI_NPROBE}
),
cand AS (SELECT p.qid, v.vec_id FROM probe p
         JOIN vassign v ON v.cluster = p.c),
cscore AS (
  SELECT c.qid, c.vec_id, SUM(q.x * x.x) AS score
  FROM cand c
  JOIN qxv q ON q.qid = c.qid
  JOIN xq x ON x.vec_id = c.vec_id AND x.j = q.j
  GROUP BY 1, 2
)
SELECT qid AS query_vec_id, vec_id, CAST(score AS BIGINT) AS score FROM (
  SELECT qid, vec_id, score, row_number() OVER (
    PARTITION BY qid ORDER BY score DESC, vec_id ASC) AS rn
  FROM cscore) WHERE rn <= {_IVFI_TOPK}
"""


_PQI_M, _PQI_K, _PQI_ITERS, _PQI_DIM = 4, 4, 2, 64
_PQI_NQ, _PQI_TOPK = 3, 5


def q_ann_pq_int_topk(sf_dir: str):
    """INTEGER-exact product quantization (stages/ann.pq_int_fit +
    pq_int_topk — the oracle-able twin of the sampled float PQ): m=4
    subspaces each trained with the integer-Lloyd recipe, codes by max
    integer dot, ADC scores as int64 sums. The SQL mirror rebuilds all
    four codebooks, re-encodes every vector, and recomputes every ADC
    score."""
    from vertex_ray.stages.ann import pq_int_fit, pq_int_topk

    ds = _emb(sf_dir)
    cb = pq_int_fit(ds, "embedding", "vec_id", m=_PQI_M, k=_PQI_K,
                    iters=_PQI_ITERS, quant=_KMI_Q)
    return pq_int_topk(ds, cb, "embedding", "vec_id", nq=_PQI_NQ,
                       topk=_PQI_TOPK, quant=_KMI_Q)


def _sql_ann_pq_int() -> str:
    m, k, iters, d = _PQI_M, _PQI_K, _PQI_ITERS, _PQI_DIM
    sd = d // m
    parts = [f"""
WITH xq AS MATERIALIZED (
  SELECT vec_id, j, CAST(floor(CAST(e AS DOUBLE) * {_KMI_Q}) AS BIGINT)
           AS x
  FROM (SELECT vec_id, unnest(embedding) AS e,
               generate_subscripts(embedding, 1) AS j
        FROM embeddings)
),
ini AS MATERIALIZED (
  SELECT vec_id, row_number() OVER (ORDER BY vec_id) - 1 AS c
  FROM (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT {k})
),
qs AS (SELECT vec_id AS qid FROM embeddings
       ORDER BY vec_id LIMIT {_PQI_NQ})"""]
    for p in range(m):
        lo, hi = p * sd + 1, (p + 1) * sd
        parts.append(f""",
s{p}c0 AS MATERIALIZED (
  SELECT i.c, x.j, x.x AS s FROM ini i JOIN xq x USING (vec_id)
  WHERE x.j BETWEEN {lo} AND {hi}
)""")
        for t in range(1, iters + 1):
            parts.append(f""",
s{p}a{t} AS MATERIALIZED (
  SELECT x.vec_id, cs.c, SUM(x.x * cs.s) AS score
  FROM xq x JOIN s{p}c{t - 1} cs ON cs.j = x.j GROUP BY 1, 2
),
s{p}b{t} AS MATERIALIZED (
  SELECT vec_id, c FROM (
    SELECT vec_id, c, row_number() OVER (
      PARTITION BY vec_id ORDER BY score DESC, c ASC) AS rn
    FROM s{p}a{t}) WHERE rn = 1
),
s{p}c{t} AS MATERIALIZED (
  SELECT prev.c, prev.j,
         COALESCE(CAST(floor(CAST(agg.s AS DOUBLE) / agg.n) AS BIGINT),
                  prev.s) AS s
  FROM s{p}c{t - 1} prev
  LEFT JOIN (
    SELECT b.c, x.j, SUM(x.x) AS s, COUNT(*) AS n
    FROM s{p}b{t} b JOIN xq x USING (vec_id)
    WHERE x.j BETWEEN {lo} AND {hi}
    GROUP BY 1, 2) agg
  ON agg.c = prev.c AND agg.j = prev.j
)""")
        parts.append(f""",
s{p}code AS MATERIALIZED (
  SELECT vec_id, c FROM (
    SELECT a.vec_id, a.c, row_number() OVER (
      PARTITION BY a.vec_id ORDER BY a.score DESC, a.c ASC) AS rn
    FROM (SELECT x.vec_id, cs.c, SUM(x.x * cs.s) AS score
          FROM xq x JOIN s{p}c{iters} cs ON cs.j = x.j
          GROUP BY 1, 2) a) WHERE rn = 1
),
s{p}contrib AS MATERIALIZED (
  SELECT q.qid, cd.vec_id, SUM(qx.x * cw.s) AS sc
  FROM qs q
  JOIN xq qx ON qx.vec_id = q.qid AND qx.j BETWEEN {lo} AND {hi}
  JOIN s{p}c{iters} cw ON cw.j = qx.j
  JOIN s{p}code cd ON cd.c = cw.c
  GROUP BY 1, 2
)""")
    union = " UNION ALL ".join(
        f"SELECT * FROM s{p}contrib" for p in range(m))
    parts.append(f""",
total AS (SELECT qid, vec_id, SUM(sc) AS score
          FROM ({union}) GROUP BY 1, 2)
SELECT qid AS query_vec_id, vec_id, CAST(score AS BIGINT) AS score FROM (
  SELECT qid, vec_id, score, row_number() OVER (
    PARTITION BY qid ORDER BY score DESC, vec_id ASC) AS rn
  FROM total) WHERE rn <= {_PQI_TOPK}
""")
    return "".join(parts)


def q_geoip_mmdb_events(sf_dir: str):
    """GeoIP enrichment through a REAL MaxMind-format database
    (sources/mmdb — public spec 2.0 binary format: search tree, typed
    data section, metadata map; the geoip.rs:85-91 analogue, previously
    substituted by a parquet lookup): a deterministic .mmdb fixture is
    BUILT (200 /16 networks + /24 overrides exercising longest-prefix),
    broadcast once, parsed once per actor, and every event's derived IP
    resolves through the binary tree. The oracle recomputes the
    network→record rule arithmetically — values can only match if the
    writer, the tree walk and the data-section decode are all
    correct."""
    import numpy as np

    from vertex_ray.sources.mmdb import encode_mmdb, geoip_enrich

    nets = []
    for b in range(200):
        nets.append((f"10.{b}.0.0/16",
                     {"country": f"C{b % 7}", "asn": 1000 + b}))
    for b in range(0, 200, 50):
        nets.append((f"10.{b}.77.0/24", {"country": "OVR", "asn": 9999}))
    blob = encode_mmdb(nets)

    def mk_ip(t):
        uid = t["user_id"].to_numpy()
        o2 = (uid % 200).astype(np.int64)
        o3 = (uid % 251).astype(np.int64)
        ips = np.array([f"10.{a}.{b}.7" for a, b in zip(o2, o3)],
                       dtype=object)
        return pa.table({
            "event_id": t["event_id"],
            "ip": pa.array(ips, type=pa.string()),
        })

    ds = _ev(sf_dir).map_batches(mk_ip, batch_format="pyarrow")
    out = geoip_enrich(ds, blob, "ip", ["country", "asn"])
    return out.map_batches(
        lambda t: t.select(["event_id", "ip", "geo_country", "geo_asn"]),
        batch_format="pyarrow")


SQL_GEOIP_MMDB_EVENTS = """
SELECT event_id,
       '10.' || CAST(user_id % 200 AS VARCHAR) || '.'
             || CAST(user_id % 251 AS VARCHAR) || '.7' AS ip,
       CASE WHEN user_id % 251 = 77 AND (user_id % 200) % 50 = 0
            THEN 'OVR'
            ELSE 'C' || CAST((user_id % 200) % 7 AS VARCHAR)
       END AS geo_country,
       CAST(CASE WHEN user_id % 251 = 77 AND (user_id % 200) % 50 = 0
                 THEN 9999 ELSE 1000 + user_id % 200 END AS BIGINT)
         AS geo_asn
FROM events
"""


_LSH_PLANES, _LSH_DIM = 16, 64
# near-pair bands: _LSH_BANDS bands of _LSH_PLANES // _LSH_BANDS bits each
_LSH_BANDS = 4


def q_lsh_signatures_embeddings(sf_dir: str):
    """Random-hyperplane LSH bucket signatures with md5-parity planes
    (stages/ann.lsh_signatures_md5 — the auditable twin of the
    rng-seeded LSH): integer projections over quantized coordinates,
    signature bit i = (projection_i >= 0). The SQL mirror rebuilds the
    plane matrix from the same md5 parities and recomputes every
    signature exactly."""
    from vertex_ray.stages.ann import lsh_signatures_md5

    return lsh_signatures_md5(_emb(sf_dir), "embedding", "vec_id",
                              n_planes=_LSH_PLANES, dim=_LSH_DIM,
                              quant=_KMI_Q)


SQL_LSH_SIGNATURES_EMBEDDINGS = f"""
WITH xq AS (
  SELECT vec_id, j, CAST(floor(CAST(e AS DOUBLE) * {_KMI_Q}) AS BIGINT)
           AS x
  FROM (SELECT vec_id, unnest(embedding) AS e,
               generate_subscripts(embedding, 1) AS j
        FROM embeddings)
),
planes AS (
  SELECT i, j,
         CASE WHEN md5_number_lower(CAST(i AS VARCHAR) || ':'
                                    || CAST(j AS VARCHAR))::UBIGINT
                   % 2 = 1
              THEN 1 ELSE -1 END AS sgn
  FROM range(0, {_LSH_PLANES}) p(i), range(1, {_LSH_DIM} + 1) q(j)
),
proj AS (
  SELECT x.vec_id, p.i, SUM(p.sgn * x.x) AS s
  FROM xq x JOIN planes p ON p.j = x.j
  GROUP BY 1, 2
)
SELECT vec_id,
       CAST(SUM(CASE WHEN s >= 0
                     THEN CAST(1 AS BIGINT) << i ELSE 0 END) AS BIGINT)
         AS signature
FROM proj GROUP BY 1
"""


def _netflow_flows(sf_dir: str):
    """events → deterministic flow rows (the geoip-mmdb derivation
    trick: every field is arithmetic over event_id/user_id so the SQL
    oracle regenerates the identical multiset)."""
    import ray.data as rd

    def mk(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        uid = t["user_id"].to_numpy()
        src = np.array([f"10.{(u >> 16) % 256}.{(u >> 8) % 256}.{u % 256}"
                        for u in uid], dtype=object)
        dst = np.array([f"172.16.{(e >> 8) % 256}.{e % 256}"
                        for e in eid], dtype=object)
        even = eid % 2 == 0
        return pa.table({
            "sourceIPv4Address": pa.array(src, pa.string()),
            "destinationIPv4Address": pa.array(dst, pa.string()),
            "sourceTransportPort": pa.array(1024 + eid % 60000, pa.int64()),
            "destinationTransportPort": pa.array(
                np.where(even, 443, 53), pa.int64()),
            "protocolIdentifier": pa.array(np.where(even, 6, 17),
                                           pa.int64()),
            "tcpControlBits": pa.array(eid % 64, pa.int64()),
            "octetDeltaCount": pa.array(64 + (eid * 131) % 100000,
                                        pa.int64()),
            "packetDeltaCount": pa.array(1 + eid % 1000, pa.int64()),
        })

    return rd.read_parquet(f"{sf_dir}/events.parquet",
                           columns=["event_id", "user_id"]) \
        .map_batches(mk, batch_format="pyarrow")


def _q_netflow_wire(sf_dir: str, version: int):
    from vertex_ray.sources.netflow import (
        netflow_decode_op, netflow_encode_op,
    )

    payloads = _netflow_flows(sf_dir).map_batches(
        netflow_encode_op(version), batch_format="pyarrow")
    return payloads.map_batches(netflow_decode_op(),
                                batch_format="pyarrow")


def q_netflow_wire_events(sf_dir: str):
    """NetFlow v9 WIRE round-trip (sources/netflow — the
    src/sources/netflow format/netflow.rs analogue, RFC 3954): flow rows
    → one template+data packet per batch (the export unit) → template
    cache resolution → decoded flow rows. The oracle regenerates the
    flow derivation arithmetically; values match only if the template
    flowset, big-endian field packing, dotted-quad addresses and the
    data-record walk are all correct."""
    return _q_netflow_wire(sf_dir, 9)


def q_ipfix_wire_events(sf_dir: str):
    """IPFIX WIRE round-trip (sources/netflow — the format/ipfix.rs
    analogue, RFC 7011): same flows through the version-10 message
    framing (16-byte header with total length, set ids 2/256+)."""
    return _q_netflow_wire(sf_dir, 10)


def _sql_netflow_wire(version_label: str) -> str:
    return f"""
SELECT '{version_label}' AS version,
       CAST(1 AS BIGINT) AS observation_domain_id,
       CAST(0 AS BIGINT) AS sequence_number,
       CAST(0 AS BIGINT) AS unix_secs,
       '10.' || ((user_id // 65536) % 256) || '.'
             || ((user_id // 256) % 256) || '.' || (user_id % 256)
         AS "sourceIPv4Address",
       '172.16.' || ((event_id // 256) % 256) || '.' || (event_id % 256)
         AS "destinationIPv4Address",
       CAST(1024 + event_id % 60000 AS BIGINT) AS "sourceTransportPort",
       CAST(CASE WHEN event_id % 2 = 0 THEN 443 ELSE 53 END AS BIGINT)
         AS "destinationTransportPort",
       CAST(CASE WHEN event_id % 2 = 0 THEN 6 ELSE 17 END AS BIGINT)
         AS "protocolIdentifier",
       CAST(event_id % 64 AS BIGINT) AS "tcpControlBits",
       CAST(64 + (event_id * 131) % 100000 AS BIGINT)
         AS "octetDeltaCount",
       CAST(1 + event_id % 1000 AS BIGINT) AS "packetDeltaCount"
FROM events
"""


def q_dnstap_wire_events(sf_dir: str):
    """dnstap WIRE round-trip (sources/dnstap — the src/sources/dnstap
    analogue: frame-streams transport + dnstap protobuf): events-derived
    DNS tap rows → one START/data×N/STOP frame stream per batch → decode
    back through the content-type check, protobuf parse and the
    mod.rs:270-446 field rendering (type/family/protocol names, rendered
    addresses, sec+nsec → integer ns). The oracle regenerates the
    derivation arithmetically; values match only if the framing, the
    protobuf field numbers/wire types and the rendering are all
    correct."""
    import ray.data as rd

    from vertex_ray.sources.dnstap import dnstap_decode_op, dnstap_encode_op

    def mk(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        uid = t["user_id"].to_numpy()
        even = eid % 2 == 0
        qsec = 1_700_000_000 + eid % 86_400
        return pa.table({
            "identity": pa.array([f"resolver-{u % 8}" for u in uid],
                                 pa.string()),
            "version": pa.array(["vertex-ray-1"] * len(eid), pa.string()),
            "message_type": pa.array(
                np.where(even, "ClientQuery", "ResolverResponse"),
                pa.string()),
            "socket_family": pa.array(["ipv4"] * len(eid), pa.string()),
            "socket_protocol": pa.array(np.where(even, "Udp", "Tcp"),
                                        pa.string()),
            "query_address": pa.array(
                [f"10.{(u >> 16) % 256}.{(u >> 8) % 256}.{u % 256}"
                 for u in uid], pa.string()),
            "response_address": pa.array(
                [f"8.8.{e % 256}.{(e >> 8) % 256}" for e in eid],
                pa.string()),
            "query_port": pa.array(1024 + eid % 60_000, pa.int64()),
            "response_port": pa.array(np.full(len(eid), 53), pa.int64()),
            "query_time_ns": pa.array(
                qsec * 1_000_000_000 + (eid * 7919) % 1_000_000_000,
                pa.int64()),
            "response_time_ns": pa.array(
                (qsec + 1 + eid % 5) * 1_000_000_000
                + (eid * 104_729) % 1_000_000_000, pa.int64()),
            "query_zone": pa.array([f"zone{e % 10}.example.com."
                                    for e in eid], pa.string()),
        })

    flows = rd.read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_id", "user_id"]) \
        .map_batches(mk, batch_format="pyarrow")
    payloads = flows.map_batches(dnstap_encode_op(), batch_format="pyarrow")
    return payloads.map_batches(dnstap_decode_op(), batch_format="pyarrow")


SQL_DNSTAP_WIRE_EVENTS = """
SELECT 'resolver-' || (user_id % 8) AS identity,
       'vertex-ray-1' AS version,
       CASE WHEN event_id % 2 = 0 THEN 'ClientQuery'
            ELSE 'ResolverResponse' END AS message_type,
       'ipv4' AS socket_family,
       CASE WHEN event_id % 2 = 0 THEN 'Udp' ELSE 'Tcp' END
         AS socket_protocol,
       '10.' || ((user_id // 65536) % 256) || '.'
             || ((user_id // 256) % 256) || '.' || (user_id % 256)
         AS query_address,
       '8.8.' || (event_id % 256) || '.' || ((event_id // 256) % 256)
         AS response_address,
       CAST(1024 + event_id % 60000 AS BIGINT) AS query_port,
       CAST(53 AS BIGINT) AS response_port,
       CAST((1700000000 + event_id % 86400) * 1000000000
            + (event_id * 7919) % 1000000000 AS BIGINT) AS query_time_ns,
       CAST((1700000000 + event_id % 86400 + 1 + event_id % 5)
            * 1000000000
            + (event_id * 104729) % 1000000000 AS BIGINT)
         AS response_time_ns,
       'zone' || (event_id % 10) || '.example.com.' AS query_zone
FROM events
"""


def q_sflow_flows_events(sf_dir: str):
    """sFlow v5 WIRE round-trip, flows port (sources/sflow — the
    src/sources/sflow datagram.rs analogue): events-derived ipv4 flow
    samples → one XDR datagram per batch (typed agent address,
    interlaced source id, sampled-ipv4 records) → decode back through
    the sample walk to the flattened logs-port rows. Oracle regenerates
    the derivation arithmetically."""
    import ray.data as rd

    from vertex_ray.sources.sflow import (
        sflow_decode_flows_op, sflow_encode_op,
    )

    def mk(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        uid = t["user_id"].to_numpy()
        n = len(eid)
        return pa.table({
            "agent": pa.array(["172.16.0.17"] * n, pa.string()),
            "sequence_number": pa.array(np.full(n, 426), pa.int64()),
            "sub_agent_id": pa.array(np.full(n, 1), pa.int64()),
            "uptime": pa.array(np.full(n, 123456), pa.int64()),
            "sample_sequence_number": pa.array(eid % 100000, pa.int64()),
            "source_id_type": pa.array(np.full(n, 0), pa.int64()),
            "source_id_value": pa.array(1000 + eid % 48, pa.int64()),
            "sampling_rate": pa.array(np.full(n, 512), pa.int64()),
            "sample_pool": pa.array(eid * 512 % 2**31, pa.int64()),
            "drops": pa.array(eid % 3, pa.int64()),
            "input": pa.array(1 + eid % 48, pa.int64()),
            "output": pa.array(1 + (eid + 7) % 48, pa.int64()),
            "record_type": pa.array(["ipv4"] * n, pa.string()),
            "protocol": pa.array(np.where(eid % 2 == 0, 6, 17),
                                 pa.int64()),
            "src_ip": pa.array(
                [f"10.{(u >> 16) % 256}.{(u >> 8) % 256}.{u % 256}"
                 for u in uid], pa.string()),
            "dst_ip": pa.array([f"172.16.{e % 256}.{(e >> 8) % 256}"
                                for e in eid], pa.string()),
            "src_port": pa.array(1024 + eid % 60000, pa.int64()),
            "dst_port": pa.array(np.where(eid % 2 == 0, 443, 53),
                                 pa.int64()),
            "tcp_flags": pa.array(eid % 64, pa.int64()),
            "tos": pa.array(eid % 256, pa.int64()),
        })

    flows = rd.read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_id", "user_id"]) \
        .map_batches(mk, batch_format="pyarrow")
    payloads = flows.map_batches(sflow_encode_op(), batch_format="pyarrow")
    return payloads.map_batches(sflow_decode_flows_op(),
                                batch_format="pyarrow")


SQL_SFLOW_FLOWS_EVENTS = """
SELECT '172.16.0.17' AS agent,
       CAST(426 AS BIGINT) AS sequence_number,
       CAST(1 AS BIGINT) AS sub_agent_id,
       CAST(123456 AS BIGINT) AS uptime,
       CAST(event_id % 100000 AS BIGINT) AS sample_sequence_number,
       CAST(0 AS BIGINT) AS source_id_type,
       CAST(1000 + event_id % 48 AS BIGINT) AS source_id_value,
       CAST(512 AS BIGINT) AS sampling_rate,
       CAST(event_id * 512 % 2147483648 AS BIGINT) AS sample_pool,
       CAST(event_id % 3 AS BIGINT) AS drops,
       CAST(1 + event_id % 48 AS BIGINT) AS input,
       CAST(1 + (event_id + 7) % 48 AS BIGINT) AS output,
       'ipv4' AS record_type,
       CAST(CASE WHEN event_id % 2 = 0 THEN 6 ELSE 17 END AS BIGINT)
         AS protocol,
       '10.' || ((user_id // 65536) % 256) || '.'
             || ((user_id // 256) % 256) || '.' || (user_id % 256)
         AS src_ip,
       '172.16.' || (event_id % 256) || '.' || ((event_id // 256) % 256)
         AS dst_ip,
       CAST(1024 + event_id % 60000 AS BIGINT) AS src_port,
       CAST(CASE WHEN event_id % 2 = 0 THEN 443 ELSE 53 END AS BIGINT)
         AS dst_port,
       CAST(event_id % 64 AS BIGINT) AS tcp_flags,
       CAST(event_id % 256 AS BIGINT) AS tos
FROM events
"""


def q_sflow_counters_events(sf_dir: str):
    """sFlow v5 WIRE round-trip, counters port: events-derived
    generic-interface counter samples → datagram → the mod.rs:453
    metric expansion (18 ``sflow_interface_*`` series per interface,
    admin/oper gauges from the status bits, sum kinds for the octet
    and packet counters). One interface per event row; the oracle
    regenerates the 18-way expansion with a VALUES cross join."""
    import ray.data as rd

    from vertex_ray.sources.sflow import (
        encode_datagram, sflow_decode_counters_op,
    )

    def mk(t: pa.Table) -> pa.Table:
        rows = []
        for e, u in zip(t["event_id"].to_numpy(),
                        t["user_id"].to_numpy()):
            e, u = int(e), int(u)
            rows.append({
                "sample_sequence_number": e % 100000,
                "source_id_type": 0, "source_id_value": 1000 + e % 48,
                "interfaces": [{
                    "index": 1 + e % 48, "typ": 6,
                    "speed": 10**9 * (1 + e % 4),
                    "direction": e % 5, "status": e % 4,
                    "in_octets": (e * 131) % 10**12,
                    "in_ucast_pkts": e % 10**6,
                    "in_multicast_pkts": e % 1000,
                    "in_broadcast_pkts": e % 100,
                    "in_discards": e % 10, "in_errors": e % 7,
                    "in_unknown_protos": e % 3,
                    "out_octets": (e * 257) % 10**12,
                    "out_ucast_pkts": (e + 13) % 10**6,
                    "out_multicast_pkts": (e + 1) % 1000,
                    "out_broadcast_pkts": (e + 2) % 100,
                    "out_discards": (e + 3) % 10,
                    "out_errors": (e + 4) % 7,
                    "promiscuous_mode": e % 2,
                }],
            })
        # one datagram per <=1000 counter samples (the decoder's cap)
        payloads = [
            encode_datagram(agent_ip="172.16.0.17", sub_agent_id=1,
                            sequence=426, uptime=123456,
                            counter_samples=rows[i:i + 1000])
            for i in range(0, max(len(rows), 1), 1000)
        ]
        return pa.table({"payload": pa.array(payloads, pa.binary())})

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id"])
    payloads = ev.map_batches(mk, batch_format="pyarrow")
    return payloads.map_batches(sflow_decode_counters_op(),
                                batch_format="pyarrow")


SQL_SFLOW_COUNTERS_EVENTS = """
WITH m(name, kind, expr) AS (VALUES
  ('sflow_interface_speed', 'gauge', 'speed'),
  ('sflow_interface_direction', 'gauge', 'direction'),
  ('sflow_interface_admin_status', 'gauge', 'admin'),
  ('sflow_interface_oper_status', 'gauge', 'oper'),
  ('sflow_interface_in_octets', 'sum', 'in_octets'),
  ('sflow_interface_in_ucast_pkts', 'sum', 'in_ucast_pkts'),
  ('sflow_interface_in_multicast_pkts', 'sum', 'in_multicast_pkts'),
  ('sflow_interface_in_broadcast_pkts', 'sum', 'in_broadcast_pkts'),
  ('sflow_interface_in_discards', 'sum', 'in_discards'),
  ('sflow_interface_in_errors', 'sum', 'in_errors'),
  ('sflow_interface_in_unknown_protos', 'sum', 'in_unknown_protos'),
  ('sflow_interface_out_octets', 'sum', 'out_octets'),
  ('sflow_interface_out_ucast_pkts', 'sum', 'out_ucast_pkts'),
  ('sflow_interface_out_multicast_pkts', 'sum', 'out_multicast_pkts'),
  ('sflow_interface_out_broadcast_pkts', 'sum', 'out_broadcast_pkts'),
  ('sflow_interface_out_discards', 'sum', 'out_discards'),
  ('sflow_interface_out_errors', 'sum', 'out_errors'),
  ('sflow_interface_promiscuous_mode', 'sum', 'promiscuous_mode')
),
iface AS (
  SELECT event_id AS e,
         CAST(1 + event_id % 48 AS BIGINT) AS index,
         CAST(6 AS BIGINT) AS typ,
         CAST(1000 + event_id % 48 AS BIGINT) AS source_id
  FROM events
)
SELECT m.name AS name, m.kind AS kind,
       CAST(CASE m.expr
         WHEN 'speed' THEN 1000000000 * (1 + e % 4)
         WHEN 'direction' THEN e % 5
         WHEN 'admin' THEN CASE WHEN (e % 4) % 2 = 1 THEN 1 ELSE 0 END
         WHEN 'oper' THEN CASE WHEN (e % 4) >= 2 THEN 1 ELSE 0 END
         WHEN 'in_octets' THEN (e * 131) % 1000000000000
         WHEN 'in_ucast_pkts' THEN e % 1000000
         WHEN 'in_multicast_pkts' THEN e % 1000
         WHEN 'in_broadcast_pkts' THEN e % 100
         WHEN 'in_discards' THEN e % 10
         WHEN 'in_errors' THEN e % 7
         WHEN 'in_unknown_protos' THEN e % 3
         WHEN 'out_octets' THEN (e * 257) % 1000000000000
         WHEN 'out_ucast_pkts' THEN (e + 13) % 1000000
         WHEN 'out_multicast_pkts' THEN (e + 1) % 1000
         WHEN 'out_broadcast_pkts' THEN (e + 2) % 100
         WHEN 'out_discards' THEN (e + 3) % 10
         WHEN 'out_errors' THEN (e + 4) % 7
         ELSE e % 2 END AS BIGINT) AS value,
       iface.index, iface.typ, iface.source_id,
       '172.16.0.17' AS agent
FROM iface CROSS JOIN m
"""


def q_lsh_near_pairs_embeddings(sf_dir: str):
    """LSH-bucketed near-dup pairs with integer-exact verification
    (stages/ann.lsh_near_pairs_md5 — the oracle-able twin of the
    rng-seeded embedding_near_pairs_lsh): md5-parity plane signatures
    split into _LSH_BANDS bands of _LSH_PLANES // _LSH_BANDS bits,
    candidates = ids sharing a band value, verified by
    den²·dot² ≥ num²·‖a‖²·‖b‖² over quantized coordinates (θ = 9/20
    exactly). The SQL mirror rebuilds the planes, bands, candidate join
    and the integer test, so the whole candidate generation +
    verification chain is value-hash checked. The op's ``max_bucket``
    cap (a larger band bucket keeps only its first ``max_bucket`` rows)
    has no SQL counterpart: the mirror holds while no band bucket
    exceeds the cap."""
    from vertex_ray.stages.ann import lsh_near_pairs_md5

    return lsh_near_pairs_md5(_emb(sf_dir), "embedding", "vec_id",
                              n_planes=_LSH_PLANES, n_bands=_LSH_BANDS,
                              dim=_LSH_DIM, quant=_KMI_Q)


_LSH_BAND_BITS = _LSH_PLANES // _LSH_BANDS


SQL_LSH_NEAR_PAIRS_EMBEDDINGS = f"""
WITH xq AS MATERIALIZED (
  SELECT vec_id, j, CAST(floor(CAST(e AS DOUBLE) * {_KMI_Q}) AS BIGINT)
           AS x
  FROM (SELECT vec_id, unnest(embedding) AS e,
               generate_subscripts(embedding, 1) AS j
        FROM embeddings)
),
planes AS (
  SELECT i, j,
         CASE WHEN md5_number_lower(CAST(i AS VARCHAR) || ':'
                                    || CAST(j AS VARCHAR))::UBIGINT
                   % 2 = 1
              THEN 1 ELSE -1 END AS sgn
  FROM range(0, {_LSH_PLANES}) p(i), range(1, {_LSH_DIM} + 1) q(j)
),
sig AS MATERIALIZED (
  SELECT vec_id,
         CAST(SUM(CASE WHEN s >= 0
                       THEN CAST(1 AS BIGINT) << i ELSE 0 END) AS BIGINT)
           AS signature
  FROM (SELECT x.vec_id, p.i, SUM(p.sgn * x.x) AS s
        FROM xq x JOIN planes p ON p.j = x.j
        GROUP BY 1, 2)
  GROUP BY 1
),
bands AS MATERIALIZED (
  -- no counterpart of the op's max_bucket cap: every band row joins
  SELECT vec_id, b,
         (signature >> (b * {_LSH_BAND_BITS})) & {(1 << _LSH_BAND_BITS) - 1}
           AS bval
  FROM sig, range(0, {_LSH_BANDS}) g(b)
),
cand AS MATERIALIZED (
  SELECT DISTINCT x.vec_id AS a, y.vec_id AS b
  FROM bands x JOIN bands y
    ON x.b = y.b AND x.bval = y.bval AND x.vec_id < y.vec_id
),
dots AS (
  SELECT c.a, c.b, SUM(xa.x * xb.x) AS dot
  FROM cand c
  JOIN xq xa ON xa.vec_id = c.a
  JOIN xq xb ON xb.vec_id = c.b AND xb.j = xa.j
  GROUP BY c.a, c.b
),
nrm AS (SELECT vec_id, SUM(x * x) AS n2 FROM xq GROUP BY 1)
SELECT d.a AS a, d.b AS b, CAST(d.dot AS BIGINT) AS dot
FROM dots d
JOIN nrm na ON na.vec_id = d.a
JOIN nrm nb ON nb.vec_id = d.b
WHERE d.dot >= 0 AND 400 * d.dot * d.dot >= 81 * na.n2 * nb.n2
"""


def q_hll_distinct_events(sf_dir: str):
    """Approximate distinct users per event_type via the mergeable HLL
    sketch (rows-only: the estimator is probabilistic; accuracy and
    partition-independence are pinned in tests/test_sketch.py)."""
    from vertex_ray.stages.sketch import hll_distinct

    return hll_distinct(_ev(sf_dir), "event_type", "user_id")


def q_heavy_hitters_events(sf_dir: str):
    """Top-10 heaviest users by event count via the mergeable Misra-Gries
    summary. k=256 exceeds the distinct user count at test SFs, so the
    sketch is in its exact regime and SQL-oracled; the approximate
    regime's frequency guarantee is pinned in tests/test_sketch.py."""
    from vertex_ray.stages.sketch import heavy_hitters

    return heavy_hitters(_ev(sf_dir), "user_id", k=256, top=10)


SQL_HEAVY_HITTERS_EVENTS = """
SELECT user_id AS value, CAST(count(*) AS BIGINT) AS approx_count
FROM events GROUP BY 1
ORDER BY approx_count DESC, value ASC
LIMIT 10
"""


def q_stratified_sample_docs(sf_dir: str):
    """Cap documents per source domain: keep the 20 smallest-md5(doc_id)
    docs of each source (deterministic training-data downsampling)."""
    from vertex_ray.stages.ops import stratified_sample

    ds = _docs(sf_dir).map_batches(
        lambda t: t.select(["doc_id", "source"]), batch_format="pyarrow"
    )
    return stratified_sample(ds, "source", "doc_id", n_per_group=20)


SQL_STRATIFIED_SAMPLE_DOCS = """
WITH r AS (
  SELECT doc_id, source,
         row_number() OVER (
           PARTITION BY source
           ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rn
  FROM documents
)
SELECT doc_id, source FROM r WHERE rn <= 20
"""


# --- as-of / range joins ---------------------------------------------------


def q_asof_join_events(sf_dir: str):
    """Each event joined to its user's most recent order at-or-before the
    event time (inner as-of join; orders deduped per (custkey, orderdate)
    by max orderkey — mirrored by the oracle's GROUP BY CTE)."""
    import ray.data as rd

    from vertex_ray.stages.joins import asof_join

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )
    return asof_join(
        _ev(sf_dir), orders,
        key=("user_id", "o_custkey"), ts=("ts", "o_orderdate"),
        left_cols=["event_id", "user_id"], right_cols=["o_orderkey"],
        right_tiebreak="o_orderkey",
    )


SQL_ASOF_JOIN_EVENTS = """
WITH o AS (
  SELECT o_custkey, o_orderdate, max(o_orderkey) AS o_orderkey
  FROM orders GROUP BY 1, 2
)
SELECT e.event_id, e.user_id, o.o_orderkey
FROM events e ASOF JOIN o
  ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
"""


def q_range_join_events(sf_dir: str):
    """Every event landing inside the 60-minute window opened by a same-user
    'purchase' event (interval join; a purchase matches itself)."""
    from vertex_ray.stages.joins import range_join

    ev = _ev(sf_dir)
    purchases = ev.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "purchase"))
        .select(["event_id", "user_id", "ts"])
        .rename_columns(["anchor_id", "user_id", "ts"]),
        batch_format="pyarrow",
    )
    return range_join(
        ev, purchases,
        key=("user_id", "user_id"), ts=("ts", "ts"),
        left_cols=["event_id", "user_id"], right_cols=["anchor_id"],
        window_us=3_600_000_000,
    )


SQL_RANGE_JOIN_EVENTS = """
WITH p AS (
  SELECT event_id AS anchor_id, user_id, ts FROM events
  WHERE event_type = 'purchase'
)
SELECT e.event_id, e.user_id, p.anchor_id
FROM events e JOIN p
  ON e.user_id = p.user_id
 AND e.ts >= p.ts AND e.ts < p.ts + INTERVAL 60 MINUTE
"""


# --- large-large equi joins (hash-co-partitioned) ---------------------------


def q_hash_join_orders(sf_dir: str):
    """orders ⋈ lineitem on orderkey — both sides too big to broadcast at
    scale, so stages/join.hash_join co-partitions them in ONE exchange."""
    import ray.data as rd

    from vertex_ray.stages.join import hash_join

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_totalprice", "o_orderstatus"])
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity"])
    return hash_join(orders, li, "o_orderkey", "l_orderkey")


SQL_HASH_JOIN_ORDERS = """
SELECT o.o_orderkey, o.o_totalprice, o.o_orderstatus,
       l.l_linenumber, l.l_quantity
FROM orders o JOIN lineitem l ON l.l_orderkey = o.o_orderkey
"""


def q_left_join_orders(sf_dir: str):
    """Left-outer variant: orders LEFT JOIN high-quantity lineitems; null
    right columns are filled with sentinels post-join so the value-hash is
    dtype-stable on both sides (nullable-int → NaN-float pandas hop)."""
    import ray.data as rd

    from vertex_ray.stages.join import hash_join

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderstatus"])
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity"],
    ).map_batches(
        lambda t: t.filter(pc.greater(t["l_quantity"], 45.0)),
        batch_format="pyarrow")
    joined = hash_join(orders, li, "o_orderkey", "l_orderkey", how="left")

    def fill(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "o_orderstatus": t["o_orderstatus"],
            "l_linenumber": pc.fill_null(
                pc.cast(t["l_linenumber"], pa.int64()), -1),
            "l_quantity": pc.fill_null(t["l_quantity"], -1.0),
            "matched": pc.is_valid(t["l_linenumber"]),
        })

    return joined.map_batches(fill, batch_format="pyarrow")


SQL_LEFT_JOIN_ORDERS = """
SELECT o.o_orderkey, o.o_orderstatus,
       CAST(COALESCE(l.l_linenumber, -1) AS BIGINT) AS l_linenumber,
       COALESCE(l.l_quantity, -1.0) AS l_quantity,
       l.l_linenumber IS NOT NULL AS matched
FROM orders o
LEFT JOIN (SELECT * FROM lineitem WHERE l_quantity > 45) l
  ON l.l_orderkey = o.o_orderkey
"""


def q_topk_per_group_events(sf_dir: str):
    from vertex_ray.stages.ops import topk_per_group

    return topk_per_group(_ev(sf_dir), "event_type", "value", 3, "event_id")


SQL_TOPK_PER_GROUP_EVENTS = """
SELECT event_type, value, event_id FROM (
  SELECT event_type, value, event_id,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY value DESC, event_id) AS rn
  FROM events
) WHERE rn <= 3
"""


def q_decontaminate_docs(sf_dir: str):
    """Benchmark decontamination: docs with doc_id % 20 == 0 act as the
    held-out eval set; every other doc is scored for distinct-3-gram
    overlap against it (broadcast gram-hash set, candidate side streams)."""
    from vertex_ray.stages.text import decontaminate

    def mod20(is_bench: bool):
        def fn(t: pa.Table) -> pa.Table:
            m = t["doc_id"].to_numpy() % 20 == 0
            return t.filter(pa.array(m if is_bench else ~m))

        return fn

    bench = _docs(sf_dir).map_batches(mod20(True), batch_format="pyarrow")
    cand = _docs(sf_dir).map_batches(mod20(False), batch_format="pyarrow")
    return decontaminate(cand, bench, "text", "doc_id", k=3, min_overlap=1)


SQL_DECONTAMINATE_DOCS = r"""
WITH ws AS (
  SELECT doc_id, list_filter(string_split_regex(lower(text), '\s+'), t -> t <> '') AS w
  FROM documents
),
tok AS (
  SELECT doc_id, unnest(w) AS t, unnest(range(1, len(w)+1)) AS i FROM ws
),
grams AS (
  SELECT DISTINCT a.doc_id, a.t || ' ' || b.t || ' ' || c.t AS g
  FROM tok a JOIN tok b ON b.doc_id=a.doc_id AND b.i=a.i+1
             JOIN tok c ON c.doc_id=a.doc_id AND c.i=a.i+2
),
short AS (
  SELECT doc_id, array_to_string(w, ' ') AS g FROM ws WHERE len(w) BETWEEN 1 AND 2
),
allg AS (SELECT * FROM grams UNION SELECT * FROM short),
bench AS (SELECT DISTINCT g FROM allg WHERE doc_id % 20 = 0),
cand AS (SELECT * FROM allg WHERE doc_id % 20 <> 0),
ov AS (
  SELECT c.doc_id,
         count(*) AS n_grams,
         count(*) FILTER (WHERE b.g IS NOT NULL) AS n_overlap
  FROM cand c LEFT JOIN bench b ON b.g = c.g
  GROUP BY 1
)
SELECT d.doc_id,
       COALESCE(o.n_grams, 0) AS n_grams,
       COALESCE(o.n_overlap, 0) AS n_overlap,
       COALESCE(o.n_overlap, 0) >= 1 AS contaminated
FROM documents d LEFT JOIN ov o ON o.doc_id = d.doc_id
WHERE d.doc_id % 20 <> 0
"""


def q_tfidf_docs(sf_dir: str):
    from vertex_ray.stages.text import tfidf_top_terms

    return tfidf_top_terms(_docs(sf_dir), "text", "doc_id", k=3)


SQL_TFIDF_DOCS = r"""
WITH tok AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(lower(text), '\s+'),
                            t -> t <> '')) AS token
  FROM documents
),
tf AS (SELECT doc_id, token, count(*) AS tf FROM tok GROUP BY 1, 2),
df AS (SELECT token, count(DISTINCT doc_id) AS df FROM tok GROUP BY 1),
scored AS (
  SELECT tf.doc_id, tf.token, tf.tf, df.df,
         row_number() OVER (
           PARTITION BY tf.doc_id
           ORDER BY CAST(tf.tf AS DOUBLE) / df.df DESC, tf.token) AS rn
  FROM tf JOIN df USING (token)
)
SELECT doc_id, token, tf, df FROM scored WHERE rn <= 3
"""


def q_outlier_trim_docs(sf_dir: str):
    """Quantile-based outlier trim: keep docs whose n_chars lies within the
    corpus [p01, p99] band — composes the exact distributed quantile
    (4 radix scans, never sorts) with a streaming filter; the two cut
    points are the only values that ever reach the driver."""
    import ray.data as rd

    from vertex_ray.stages.quantile import exact_quantiles

    vals = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["n_chars"]
    ).map_batches(
        lambda t: pa.table({"v": pc.cast(t["n_chars"], pa.float64())}),
        batch_format="pyarrow")
    qv = exact_quantiles(vals, "v", [0.01, 0.99])
    qdf = qv.to_pandas() if hasattr(qv, "to_pandas") else qv
    lo, hi = sorted(qdf["value"].tolist())

    def trim(t: pa.Table) -> pa.Table:
        v = t["n_chars"].to_numpy()
        return t.select(["doc_id", "n_chars"]).filter(
            pa.array((v >= lo) & (v <= hi)))

    return _docs(sf_dir).map_batches(trim, batch_format="pyarrow")


SQL_OUTLIER_TRIM_DOCS = """
SELECT doc_id, n_chars FROM documents
WHERE n_chars >= (SELECT quantile_disc(CAST(n_chars AS DOUBLE), 0.01) FROM documents)
  AND n_chars <= (SELECT quantile_disc(CAST(n_chars AS DOUBLE), 0.99) FROM documents)
"""


def q_mix_docs(sf_dir: str):
    """Corpus mixing: rebalance the language-skewed documents table toward
    equal per-language proportions (~250 rows total at sf0.01) with
    deterministic id-threshold sampling per group."""
    from vertex_ray.stages.ops import mix_proportions

    targets = {lang: 0.2 for lang in ("en", "de", "es", "fr", "zh")}
    return mix_proportions(
        _docs(sf_dir), "lang", "doc_id", targets, total_out=250,
    ).map_batches(lambda t: t.select(["doc_id", "lang"]),
                  batch_format="pyarrow")


SQL_MIX_DOCS = """
WITH cnt AS (SELECT lang, count(*) AS c FROM documents GROUP BY 1)
SELECT d.doc_id, d.lang
FROM documents d JOIN cnt USING (lang)
WHERE d.doc_id % 1000 <
      CAST(floor(LEAST(1.0, 250 * 0.2 / c) * 1000) AS BIGINT)
"""


def q_late_data_events(sf_dir: str):
    """Streaming watermark semantics: per-key high watermark advances in
    ARRIVAL order; events whose event-time is > allowed-lateness behind it
    are flagged late (window −1 = the dropped port). The synthetic events
    arrive in event-time order, so a deterministic hash shuffle of
    event_id stands in for network arrival disorder on BOTH sides."""
    from vertex_ray.stages.windows import late_data_flag

    def add_seq(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        seq = (eid * np.int64(2654435761)) % np.int64(4294967296)
        return t.append_column("seq", pa.array(seq))

    ds = _ev(sf_dir).map_batches(add_seq, batch_format="pyarrow")
    return late_data_flag(ds, "user_id", "ts", "seq",
                          allowed_lateness_s=3600, window_s=300)


SQL_LATE_DATA_EVENTS = """
WITH arr AS (
  SELECT user_id, epoch_us(ts) AS t,
         (event_id * 2654435761) % 4294967296 AS seq
  FROM events
),
marked AS (
  SELECT user_id, seq, t,
         max(t) OVER (PARTITION BY user_id ORDER BY seq
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS high
  FROM arr
)
SELECT user_id, seq,
       COALESCE(t < high - 3600000000, FALSE) AS late,
       CAST(CASE WHEN COALESCE(t < high - 3600000000, FALSE)
                 THEN -1 ELSE t // 300000000 * 300 END AS BIGINT)
         AS window_start
FROM marked
"""


def q_curate_docs(sf_dir: str):
    """END-TO-END corpus curation — the whole training-data pipeline as one
    Dataset graph, composed purely from the already-oracled stages:

      1. corpus stats: exact [p01, p99] n_chars band (radix quantile)
      2. quality gate: ≥ 20 tokens (quality_score_op columns)
      3. near-dup removal: keep only cluster canonicals (exact-Jaccard
         pairs → connected components → LEFT hash_join, null ⇒ unique doc)
      4. benchmark decontamination: drop docs sharing ≥ 5 distinct 3-grams
         with the held-out doc_id % 20 == 0 set (broadcast gram hashes)

    Everything streams; the only driver-side values are two quantile cut
    points and the benchmark gram set."""
    import ray.data as rd

    from vertex_ray.stages.dedup_near import ngram_jaccard_pairs
    from vertex_ray.stages.graph import dedup_clusters
    from vertex_ray.stages.join import hash_join
    from vertex_ray.stages.quantile import exact_quantiles
    from vertex_ray.stages.text import decontaminate, quality_score_op

    docs = _docs(sf_dir)
    vals = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["n_chars"]
    ).map_batches(
        lambda t: pa.table({"v": pc.cast(t["n_chars"], pa.float64())}),
        batch_format="pyarrow")
    qv = exact_quantiles(vals, "v", [0.01, 0.99])
    qdf = qv.to_pandas() if hasattr(qv, "to_pandas") else qv
    lo, hi = sorted(qdf["value"].tolist())

    def mod20(is_bench: bool):
        def fn(t: pa.Table) -> pa.Table:
            m = t["doc_id"].to_numpy() % 20 == 0
            return t.filter(pa.array(m if is_bench else ~m))

        return fn

    bench = docs.map_batches(mod20(True), batch_format="pyarrow")
    cand = docs.map_batches(mod20(False), batch_format="pyarrow")

    def gate(t: pa.Table) -> pa.Table:
        nc = t["n_chars"].to_numpy()
        nt = t["n_tokens"].to_numpy()
        keep = (nc >= lo) & (nc <= hi) & (nt >= 20)
        return t.select(["doc_id", "lang", "n_chars"]).filter(pa.array(keep))

    base = cand.map_batches(quality_score_op(), batch_format="pyarrow") \
               .map_batches(gate, batch_format="pyarrow")

    pairs = ngram_jaccard_pairs(docs, "text", "doc_id", k=3, threshold=0.7)
    canon = dedup_clusters(pairs, "a", "b").map_batches(
        # explicit int64 schema: empty cluster blocks otherwise surface a
        # null-typed column and poison the join's unioned schema
        lambda t: pa.table({
            "member": t.column(0).cast(pa.int64()),
            "canonical_id": t.column(1).cast(pa.int64()),
        }),
        batch_format="pyarrow")
    with_canon = hash_join(base, canon, "doc_id", "member", how="left")

    def keep_canonical(t: pa.Table) -> pa.Table:
        # a doc outside every cluster has a null canonical → it IS canonical
        keep = pc.or_kleene(
            pc.is_null(t["canonical_id"]),
            pc.equal(t["canonical_id"], t["doc_id"]))
        return t.select(["doc_id", "lang", "n_chars"]).filter(
            pc.fill_null(keep, True))

    dedup = with_canon.map_batches(keep_canonical, batch_format="pyarrow")

    flags = decontaminate(cand, bench, "text", "doc_id", k=3, min_overlap=5) \
        .map_batches(lambda t: t.select(["doc_id", "contaminated"]),
                     batch_format="pyarrow")
    final = hash_join(dedup, flags, "doc_id")

    return final.map_batches(
        lambda t: t.select(["doc_id", "lang", "n_chars"]).filter(
            pc.invert(t["contaminated"])),
        batch_format="pyarrow")


SQL_CURATE_DOCS = r"""
WITH bounds AS (SELECT quantile_disc(CAST(n_chars AS DOUBLE), 0.01) lo,
                       quantile_disc(CAST(n_chars AS DOUBLE), 0.99) hi
                FROM documents),
base AS (
  SELECT d.doc_id, d.lang, d.n_chars FROM documents d, bounds b
  WHERE d.doc_id % 20 <> 0 AND d.n_chars >= b.lo AND d.n_chars <= b.hi
    AND len(regexp_extract_all(d.text, '\S+')) >= 20
),
canon AS (SELECT * FROM ({CLUSTERS})),
decon AS (SELECT * FROM ({DECON}))
SELECT b.doc_id, b.lang, b.n_chars
FROM base b
LEFT JOIN canon c ON c.doc_id = b.doc_id
JOIN decon x ON x.doc_id = b.doc_id
WHERE COALESCE(c.canonical_id, b.doc_id) = b.doc_id
  AND NOT x.contaminated
"""
# splice in the already-oracled sub-pipelines; the decon threshold moves
# from flag-anything (>= 1) to the curation gate (>= 5)
SQL_CURATE_DOCS = SQL_CURATE_DOCS.replace(
    "{CLUSTERS}", SQL_DEDUP_CLUSTERS_DOCS
).replace(
    "{DECON}", SQL_DECONTAMINATE_DOCS.replace(
        ">= 1 AS contaminated", ">= 5 AS contaminated")
)


def q_codec_octet_roundtrip_events(sf_dir: str):
    """Wire round-trip through RFC 6587 octet-counting framing: events are
    rendered to JSON lines (vectorized string concat), packed into ONE
    octet-counted byte chunk per batch, then framed + JSON-decoded back —
    the oracle checks the decoded stream equals the source table, proving
    framer + deserializer are lossless together."""
    import pandas as pd

    from vertex_ray.sources.codecs import decode_json_lines, frames_op

    def to_wire(t: pa.Table) -> pa.Table:
        eid = pd.Series(t["event_id"].to_numpy()).astype(str)
        etype = pd.Series(t["event_type"].to_numpy(zero_copy_only=False))
        lines = ('{"event_id":' + eid + ',"event_type":"' + etype + '"}')
        nbytes = lines.str.encode("utf-8").str.len()  # octet = BYTE count
        framed = nbytes.astype(str) + " " + lines
        return pa.table({
            "stream": pa.array([framed.str.cat().encode()], type=pa.binary())
        })

    wire = _ev(sf_dir).map_batches(to_wire, batch_format="pyarrow")
    return wire.map_batches(
        frames_op("stream", "octet_counting"), batch_format="pyarrow"
    ).map_batches(decode_json_lines, batch_format="pyarrow")


SQL_CODEC_OCTET_EVENTS = "SELECT event_id, event_type FROM events"


def q_bigram_score_docs(sf_dir: str):
    from vertex_ray.stages.text import bigram_freq_score

    return bigram_freq_score(_docs(sf_dir), "text", "doc_id")


SQL_BIGRAM_SCORE_DOCS = r"""
WITH ws AS (
  SELECT doc_id, list_filter(string_split_regex(lower(text), '\s+'),
                             t -> t <> '') AS w
  FROM documents
),
tok AS (
  SELECT doc_id, unnest(w) AS t, unnest(range(1, len(w)+1)) AS i FROM ws
),
pairs AS (
  SELECT a.doc_id, a.t || ' ' || b.t AS bg
  FROM tok a JOIN tok b ON b.doc_id = a.doc_id AND b.i = a.i + 1
),
cnt AS (SELECT bg, count(*) AS c FROM pairs GROUP BY 1)
SELECT p.doc_id, count(*) AS n_pairs, CAST(SUM(c.c) AS BIGINT) AS score
FROM pairs p JOIN cnt c USING (bg)
GROUP BY 1
"""


def q_pca_embeddings(sf_dir: str):
    """PCA dimensionality reduction of the embedding column: streaming
    covariance fit (driver holds only d×d) → broadcast top-8 components →
    per-batch matmul projection. Not SQL-expressible (eigendecomposition)
    → rows-only; fit/projection exactness and partition-invariance are
    property-tested in tests/test_cluster.py."""
    from vertex_ray.stages.cluster import pca_fit, pca_project

    ds = _emb(sf_dir)
    mean, comps = pca_fit(ds, "embedding", k=8)
    return pca_project(_emb(sf_dir), mean, comps, "embedding", "vec_id")


_PCA_QUANT, _PCA_VS, _PCA_ITERS = 128, 4096, 6


def q_pca_power_int_embeddings(sf_dir: str):
    """INTEGER-exact top-principal-direction PCA
    (stages/cluster.pca_power_int_fit — the oracle-able twin of the
    float eigendecomposition variant, whose FP partial sums are
    block-order-dependent and unhashable): quantized coordinates, one
    (n, Σx, ΣxxᵀT) combiner pass, floored scatter normalization, a FIXED
    6-step integer power iteration (exactness never depends on
    convergence — the oracle unrolls the identical chain), deterministic
    sign, centered integer projection scaled by n."""
    from vertex_ray.stages.cluster import (
        pca_power_int_fit, pca_power_int_project,
    )

    ds = _emb(sf_dir)
    n, s, v = pca_power_int_fit(ds, "embedding", quant=_PCA_QUANT,
                                vec_scale=_PCA_VS, iters=_PCA_ITERS)
    return pca_power_int_project(_emb(sf_dir), n, s, v, "embedding",
                                 "vec_id", quant=_PCA_QUANT)


def _sql_fdiv(a: str, b: str) -> str:
    """Floor division of a BIGINT expression by a POSITIVE BIGINT in
    DuckDB, matching numpy's ``//`` (DuckDB ``//`` truncates toward
    zero, numpy floors toward −∞ — they differ on negative
    numerators)."""
    return (f"CASE WHEN ({a}) >= 0 THEN ({a}) // ({b}) "
            f"ELSE -((-({a}) + ({b}) - 1) // ({b})) END")


def _sql_pca_power_int(quant: int = _PCA_QUANT, vs: int = _PCA_VS,
                       iters: int = _PCA_ITERS) -> str:
    """Unrolled integer power iteration (the `_sql_kmeans_int_chain`
    technique): quantize → (n, s, scatter) → Mn = (n·S − s·sᵀ) // n →
    ``iters`` CTE rounds of w = Mn·v, v = w // (max|w| // vs + 1) →
    sign flip at the largest-|entry| coordinate (ties → lowest j) →
    centered projection Σ (n·x − s)·v. Every division is the explicit
    floor form so DuckDB reproduces numpy bit-for-bit."""
    parts = [f"""
WITH xq AS MATERIALIZED (
  SELECT vec_id, j, CAST(floor(CAST(e AS DOUBLE) * {quant}) AS BIGINT) AS x
  FROM (SELECT vec_id, unnest(embedding) AS e,
               generate_subscripts(embedding, 1) AS j
        FROM embeddings)
),
st AS MATERIALIZED (SELECT count(DISTINCT vec_id) AS n FROM xq),
sv AS MATERIALIZED (SELECT j, SUM(x) AS s FROM xq GROUP BY j),
mn AS MATERIALIZED (
  SELECT i, jj, {_sql_fdiv("m", "n")} AS mm
  FROM (
    SELECT a.j AS i, b.j AS jj, st.n AS n,
           st.n * SUM(a.x * b.x) - si.s * sj.s AS m
    FROM xq a JOIN xq b USING (vec_id)
    CROSS JOIN st
    JOIN sv si ON si.j = a.j
    JOIN sv sj ON sj.j = b.j
    GROUP BY a.j, b.j, st.n, si.s, sj.s
  )
),
v0 AS MATERIALIZED (SELECT j, CAST({vs} AS BIGINT) AS v FROM sv)"""]
    for t in range(1, iters + 1):
        parts.append(f""",
w{t} AS MATERIALIZED (
  SELECT mn.i AS j, SUM(mn.mm * v.v) AS w
  FROM mn JOIN v{t - 1} v ON v.j = mn.jj GROUP BY mn.i
),
d{t} AS MATERIALIZED (SELECT max(abs(w)) // {vs} + 1 AS dv FROM w{t}),
v{t} AS MATERIALIZED (
  SELECT j, {_sql_fdiv("w", "dv")} AS v FROM w{t}, d{t}
)""")
    parts.append(f""",
sgn AS MATERIALIZED (
  SELECT CASE WHEN v < 0 THEN -1 ELSE 1 END AS f
  FROM v{iters} ORDER BY abs(v) DESC, j ASC LIMIT 1
),
vf AS MATERIALIZED (SELECT j, v * f AS v FROM v{iters}, sgn)
SELECT xq.vec_id AS vec_id,
       CAST(SUM((st.n * xq.x - sv.s) * vf.v) AS BIGINT) AS proj
FROM xq JOIN sv USING (j) JOIN vf USING (j) CROSS JOIN st
GROUP BY xq.vec_id""")
    return "".join(parts)


def _semi_anti_base(sf_dir: str, how: str):
    import ray.data as rd

    from vertex_ray.stages.join import hash_join

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"])
    big = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"],
    ).map_batches(
        lambda t: t.filter(pc.greater(t["o_totalprice"], 450000.0)),
        batch_format="pyarrow")
    return hash_join(cust, big, "c_custkey", "o_custkey", how=how)


def q_semi_join_customers(sf_dir: str):
    """Customers WITH at least one big order — semi join: only distinct
    right keys cross the exchange, never order payloads."""
    return _semi_anti_base(sf_dir, "semi")


def q_anti_join_customers(sf_dir: str):
    """Customers with NO big order — anti join (NOT EXISTS)."""
    return _semi_anti_base(sf_dir, "anti")


SQL_SEMI_JOIN_CUSTOMERS = """
SELECT c_custkey, c_mktsegment FROM customer c
WHERE EXISTS (SELECT 1 FROM orders o
              WHERE o.o_custkey = c.c_custkey AND o.o_totalprice > 450000)
"""

SQL_ANTI_JOIN_CUSTOMERS = """
SELECT c_custkey, c_mktsegment FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey AND o.o_totalprice > 450000)
"""


def q_fuzzy_match_customers(sf_dir: str):
    """Fuzzy matching: batch-vectorized edit distance of every customer
    name against a probe name (dedup/entity-resolution primitive)."""
    import ray.data as rd

    from vertex_ray.functions.registry import apply

    def fn(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": t["c_custkey"],
            "dist": apply("levenshtein", t["c_name"], "Customer#000000042"),
        })

    return rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    ).map_batches(fn, batch_format="pyarrow")


SQL_FUZZY_MATCH_CUSTOMERS = """
SELECT c_custkey, levenshtein(c_name, 'Customer#000000042') AS dist
FROM customer
"""


def q_skew_join_events(sf_dir: str):
    """Skew-aware join demo: 10% of users are collapsed onto one hot key
    (the power-law reality of web data), then events join a per-key
    dimension. hash_join_skewed routes the hot key through the broadcast
    path (detected by the Misra-Gries probe) and everything else through
    the ordinary exchange; the oracle is the plain SQL join — identical
    semantics, different physical plan."""
    from vertex_ray.stages.join import hash_join_skewed

    def add_skew_key(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy()
        sk = np.where(u % 20 < 2, 0, u)
        return pa.table({"event_id": t["event_id"],
                         "skew_key": pa.array(sk.astype(np.int64))})

    left = _ev(sf_dir).map_batches(add_skew_key, batch_format="pyarrow")

    def dim_partial(t: pa.Table) -> pa.Table:
        vc = pc.value_counts(t["skew_key"].combine_chunks()
                             if isinstance(t["skew_key"], pa.ChunkedArray)
                             else t["skew_key"])
        return pa.table({"skew_key": vc.field("values"),
                         "n_events": pc.cast(vc.field("counts"), pa.int64())})

    dim = (
        left.map_batches(dim_partial, batch_format="pyarrow")
        .groupby("skew_key").sum("n_events")
        .map_batches(lambda t: t.rename_columns(["skew_key", "n_events"]),
                     batch_format="pyarrow")
    )
    return hash_join_skewed(left, dim, "skew_key", hot_fraction=0.05)


SQL_SKEW_JOIN_EVENTS = """
WITH ev AS (
  SELECT event_id,
         CASE WHEN user_id % 20 < 2 THEN 0 ELSE user_id END AS skew_key
  FROM events
),
dim AS (SELECT skew_key, count(*) AS n_events FROM ev GROUP BY 1)
SELECT e.skew_key, e.event_id, d.n_events
FROM ev e JOIN dim d USING (skew_key)
"""


def q_chunk_docs(sf_dir: str):
    """Document chunking for embedding/RAG pipelines: 64-token chunks,
    non-overlapping here so the SQL oracle is exact (the overlapping-
    stride path is unit-tested)."""
    from vertex_ray.stages.text import chunk_documents

    return chunk_documents(_docs(sf_dir), "text", "doc_id", size=64)


def q_epoch_shuffle_docs(sf_dir: str):
    """Deterministic seeded epoch shuffle for training-data ordering:
    shuffle_key = Knuth multiplicative hash of (doc_id, seed), one global
    range sort (stages/shuffle.epoch_shuffle). Same seed → same order on
    every run; the oracle recomputes the identical key in exact int64
    arithmetic."""
    from vertex_ray.stages.shuffle import epoch_shuffle

    ds = _docs(sf_dir).select_columns(["doc_id", "n_chars"])
    return epoch_shuffle(ds, "doc_id", seed=3)


SQL_EPOCH_SHUFFLE_DOCS = """
SELECT doc_id, n_chars,
       ((doc_id + 3 * 40503) * 2654435761) % 4294967296 AS shuffle_key
FROM documents
"""


SQL_CHUNK_DOCS = r"""
WITH ws AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\s+'), t -> t <> '') AS w
  FROM documents
),
tok AS (
  SELECT doc_id, unnest(w) AS t, unnest(range(0, len(w))) AS i FROM ws
)
SELECT doc_id, i // 64 AS chunk_idx, count(*) AS n_tokens,
       string_agg(t, ' ' ORDER BY i) AS chunk_text
FROM tok GROUP BY 1, 2
"""


def _probe_rows(emb, chunk_ids: list[int]):
    """The embedding rows of the probe chunks, as pandas (a vectorized
    ``is_in`` mask per batch)."""
    ids = pa.array(chunk_ids, pa.int64())
    return emb.map_batches(
        lambda t: t.filter(pc.is_in(t["chunk_id"], value_set=ids)),
        batch_format="pyarrow").to_pandas()


def q_rag_pipeline_docs(sf_dir: str):
    """END-TO-END retrieval indexing: chunk documents into 64-token
    windows → hashing-trick embedding per chunk (no model needed) →
    brute-force cosine top-5 for three probe chunks. Rows-only (feature
    hashing is not SQL-expressible); the invariant that every probe's
    nearest neighbour is ITSELF at cosine 1.0 is asserted in
    tests/test_text_ops.py."""
    import numpy as np

    from vertex_ray.stages.ann import brute_force_topk
    from vertex_ray.stages.text import chunk_documents, hashing_embed

    chunks = chunk_documents(_docs(sf_dir), "text", "doc_id", size=64)

    def add_chunk_id(t: pa.Table) -> pa.Table:
        cid = pc.add(pc.multiply(t["doc_id"], 1000), t["chunk_idx"])
        return pa.table({"chunk_id": pc.cast(cid, pa.int64()),
                         "chunk_text": t["chunk_text"]})

    emb = hashing_embed(
        chunks.map_batches(add_chunk_id, batch_format="pyarrow"),
        "chunk_text", "chunk_id", dim=128).materialize()

    probes = _probe_rows(emb, [1000, 2000, 3000])  # first chunk, docs 1..3
    if len(probes) == 0:  # empty corpus → empty result, stable schema
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64()),
                         "vec_id": pa.array([], pa.int64()),
                         "cosine": pa.array([], pa.float64())})
    probes = probes.sort_values("chunk_id")
    qmat = np.stack(probes["embedding"].to_numpy())
    return brute_force_topk(emb, qmat, 5, "embedding", "chunk_id")


def q_rag_int_pipeline_docs(sf_dir: str):
    """END-TO-END retrieval indexing, ORACLED — the integer twin of
    pipeline_rag_index (whose sip-family hashing-trick embedding and
    float cosine are unhashable): chunk documents into 64-token windows
    (stages/text.chunk_documents) → md5-parity INTEGER hashing embedding
    per chunk (hashing_embed_int — unnormalized signed counts) →
    integer-dot top-5 for three probe chunks with deterministic
    (score DESC, vec_id ASC) ranking (stages/ann.brute_force_topk_int).
    The SQL mirror re-derives chunk membership by token ordinal
    arithmetic, rebuilds every bucket count from md5_number_lower, and
    recomputes every dot — the chunker, vectorizer and top-k all
    value-hash checked."""
    import numpy as np

    from vertex_ray.stages.ann import brute_force_topk_int
    from vertex_ray.stages.text import chunk_documents, hashing_embed_int

    chunks = chunk_documents(_docs(sf_dir), "text", "doc_id", size=64)

    def add_chunk_id(t: pa.Table) -> pa.Table:
        # 1e6 multiplier: a doc needs >= 64M whitespace tokens before
        # chunk ids could collide across docs (the float twin's 1000
        # collides at 64k tokens, where Python and SQL would diverge)
        cid = pc.add(pc.multiply(t["doc_id"], 1_000_000), t["chunk_idx"])
        return pa.table({"chunk_id": pc.cast(cid, pa.int64()),
                         "chunk_text": t["chunk_text"]})

    emb = hashing_embed_int(
        chunks.map_batches(add_chunk_id, batch_format="pyarrow"),
        "chunk_text", "chunk_id", dim=128).materialize()

    probes = _probe_rows(emb, [1_000_000, 2_000_000, 3_000_000])  # docs 1..3
    if len(probes) == 0:  # empty corpus → empty result, stable schema
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64()),
                         "vec_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.int64())})
    probes = probes.sort_values("chunk_id")
    qmat = np.stack(probes["embedding"].to_numpy())
    return brute_force_topk_int(emb, qmat,
                                probes["chunk_id"].to_numpy(), 5,
                                "embedding", "chunk_id")


SQL_RAG_INT_PIPELINE_DOCS = """
WITH toks AS MATERIALIZED (
  SELECT doc_id * 1000000 + (ord - 1) // 64 AS chunk_id, tok
  FROM (SELECT doc_id,
               unnest(regexp_extract_all(lower(text), '\\S+')) AS tok,
               generate_subscripts(
                   regexp_extract_all(lower(text), '\\S+'), 1) AS ord
        FROM documents)
),
emb AS MATERIALIZED (
  SELECT chunk_id,
         (md5_number_lower(tok)::UBIGINT % 128)::BIGINT AS bucket,
         SUM(CASE WHEN (md5_number_lower(tok)::UBIGINT >> 63) & 1 = 1
                  THEN -1 ELSE 1 END)::BIGINT AS v
  FROM toks GROUP BY 1, 2
),
probes AS (SELECT * FROM emb
           WHERE chunk_id IN (1000000, 2000000, 3000000)),
dots AS (
  SELECT p.chunk_id AS query_id, c.chunk_id AS vec_id,
         SUM(p.v * c.v) AS dot
  FROM probes p JOIN emb c USING (bucket)
  GROUP BY 1, 2
),
scored AS (
  SELECT q.query_id, c.vec_id, COALESCE(d.dot, 0) AS score
  FROM (SELECT DISTINCT chunk_id AS query_id FROM probes) q
  CROSS JOIN (SELECT DISTINCT chunk_id AS vec_id FROM emb) c
  LEFT JOIN dots d ON d.query_id = q.query_id AND d.vec_id = c.vec_id
),
ranked AS (
  SELECT query_id, vec_id, CAST(score AS BIGINT) AS score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score DESC, vec_id ASC) - 1 AS rank
  FROM scored
)
SELECT query_id, CAST(rank AS BIGINT) AS rank, vec_id, score
FROM ranked WHERE rank < 5
"""


OP_QUERIES = {
    "op_sessionize_events": q_sessionize_events,
    "op_sliding_window_events": q_sliding_window_events,
    "op_topk_events": q_topk_events,
    "op_rewrite_events": q_rewrite_events,
    "op_filter_events": q_filter_events,
    "op_config_pipeline": q_config_pipeline,
    "op_route_events": q_route_events,
    "op_sample_events": q_sample_events,
    "op_relabel_docs": q_relabel_docs,
    "op_relabel_regex_docs": q_relabel_regex_docs,
    "op_repetition_docs": q_repetition_docs,
    "op_dedup_events": q_dedup_events,
    "op_json_typed_dedup_events": q_json_typed_dedup_events,
    "op_langid_ngram_docs": q_langid_ngram_docs,
    "op_kmeans_int_embeddings": q_kmeans_int_embeddings,
    "op_pca_power_int_embeddings": q_pca_power_int_embeddings,
    "op_media_decode_docs": q_media_decode_docs,
    "op_lsh_near_pairs_embeddings": q_lsh_near_pairs_embeddings,
    "op_netflow_wire_events": q_netflow_wire_events,
    "op_ipfix_wire_events": q_ipfix_wire_events,
    "op_dnstap_wire_events": q_dnstap_wire_events,
    "pipeline_rag_int_index": q_rag_int_pipeline_docs,
    "op_sflow_flows_events": q_sflow_flows_events,
    "op_sflow_counters_events": q_sflow_counters_events,
    "op_ann_ivf_int_topk": q_ann_ivf_int_topk,
    "op_lsh_signatures_embeddings": q_lsh_signatures_embeddings,
    "op_ann_pq_int_topk": q_ann_pq_int_topk,
    "op_geoip_mmdb_events": q_geoip_mmdb_events,
    "op_throttle_events": q_throttle_events,
    "op_metricalize_events": q_metricalize_events,
    "op_summary_events": q_summary_events,
    "op_cardinality_events": q_cardinality_events,
    "op_enrich_customers": q_enrich_customers,
    "op_lineitem_agg": q_lineitem_agg,
    "op_tokens_docs": q_tokens_docs,
    "op_length_fit_docs": q_length_fit_docs,
    "op_length_fit_by_lang_docs": q_length_fit_by_lang_docs,
    "op_linear_probe_embeddings": q_linear_probe_embeddings,
    "op_bpe_pair_counts_docs": q_bpe_pair_counts_docs,
    "op_bpe_train_docs": q_bpe_train_docs,
    "op_winnow_fingerprints_docs": q_winnow_fingerprints_docs,
    "op_bpe_encode_docs": q_bpe_encode_docs,
    "op_unigram_score_docs": q_unigram_score_docs,
    "op_quality_docs": q_quality_docs,
    "op_langid_docs": q_langid_docs,
    # q_fingerprint_docs (blake2b) and q_simhash_pairs_docs (sip family)
    # are kept as internal variants exercised by tests/test_text_ops.py;
    # the driver-visible dict carries only their SQL-recomputable md5
    # twins so every sampled entry has a value-hash oracle.
    "op_fingerprint_md5_docs": q_fingerprint_md5_docs,
    "op_minhash_pairs_docs": q_minhash_pairs_docs,
    "op_simhash_md5_docs": q_simhash_md5_docs,
    "op_simhash_pairs_md5_docs": q_simhash_pairs_md5_docs,
    "op_ngram_jaccard_docs": q_ngram_jaccard_docs,
    "op_ngram_overlap_docs": q_ngram_overlap_docs,
    "op_dedup_clusters_docs": q_dedup_clusters_docs,
    "op_pack_docs": q_pack_docs,
    "op_exact_quantiles_events": q_exact_quantiles_events,
    "op_vocab_docs": q_vocab_docs,
    "op_hash_join_orders": q_hash_join_orders,
    "op_left_join_orders": q_left_join_orders,
    "op_topk_per_group_events": q_topk_per_group_events,
    "op_decontaminate_docs": q_decontaminate_docs,
    "op_tfidf_docs": q_tfidf_docs,
    "op_outlier_trim_docs": q_outlier_trim_docs,
    "op_mix_docs": q_mix_docs,
    "op_late_data_events": q_late_data_events,
    "pipeline_curate_docs": q_curate_docs,
    "op_codec_octet_events": q_codec_octet_roundtrip_events,
    "op_bigram_score_docs": q_bigram_score_docs,
    "op_semi_join_customers": q_semi_join_customers,
    "op_anti_join_customers": q_anti_join_customers,
    "op_fuzzy_match_customers": q_fuzzy_match_customers,
    "op_skew_join_events": q_skew_join_events,
    "op_chunk_docs": q_chunk_docs,
    "op_epoch_shuffle_docs": q_epoch_shuffle_docs,
    "op_embedding_near_pairs": q_embedding_near_pairs,
    "op_semantic_dedup_embeddings": q_semantic_dedup,
    "op_ann_topk": q_ann_topk,
    "op_codec_jsonl_events": q_codec_jsonl_events,
    "op_codec_csv_events": q_codec_csv_events,
    "op_codec_logfmt_events": q_codec_logfmt_events,
    "op_codec_syslog_events": q_codec_syslog_events,
    "op_codec_prom_events": q_codec_prom_events,
    "op_encode_prom_text": q_encode_prom_text,
    "op_encode_influx_line": q_encode_influx_line,
    "op_normalize_abs_inc": q_normalize_abs_inc_events,
    "op_normalize_inc_abs": q_normalize_inc_abs_events,
    "op_redact_docs": q_redact_docs,
    "op_parse_json_events": q_parse_json_events,
    "op_path_json_events": q_path_json_events,
    "op_parse_regex_docs": q_parse_regex_docs,
    "op_asof_join_events": q_asof_join_events,
    "op_range_join_events": q_range_join_events,
    "op_cardinality_bloom_events": q_cardinality_bloom_events,
    "op_stratified_sample_docs": q_stratified_sample_docs,
    "op_route_split_events": q_route_split_events,
    "op_heavy_hitters_events": q_heavy_hitters_events,
}

# Rows-only pipelines: correct-by-construction ops with NO bit-exact SQL
# form (approximate sketches/ANN, iterative fits, zlib, media decode,
# seeded projections). They stay OFF the driver-visible dict — every
# driver-sampled query must carry a value-hash oracle — but remain fully
# exercised: the empty-input suite iterates this dict too, and each op
# has property/recall tests (tests/test_text_ops.py, test_cluster.py,
# test_sketch.py). Exact/md5 oracled twins of several live above
# (op_exact_quantiles_events, op_hll_md5_distinct_events, op_ann_topk,
# op_embedding_near_pairs).
OP_QUERIES_INTERNAL = {
    "op_pca_embeddings": q_pca_embeddings,
    "pipeline_rag_index": q_rag_pipeline_docs,
    "op_embedding_near_pairs_lsh": q_embedding_near_pairs_lsh,
    "op_ann_ivf_topk": q_ann_ivf_topk,
    "op_ann_pq_topk": q_ann_pq_topk,
    "op_multimodal_features": q_multimodal_features,
    "op_hll_distinct_events": q_hll_distinct_events,
    "op_kmeans_embeddings": q_kmeans_embeddings,
    "op_fingerprint_docs": q_fingerprint_docs,
    "op_simhash_pairs_docs": q_simhash_pairs_docs,
}

OP_ORACLES = {
    "op_sessionize_events": SQL_SESSIONIZE_EVENTS,
    "op_sliding_window_events": SQL_SLIDING_WINDOW_EVENTS,
    "op_topk_events": SQL_TOPK_EVENTS,
    "op_rewrite_events": SQL_REWRITE_EVENTS,
    "op_filter_events": SQL_FILTER_EVENTS,
    "op_config_pipeline": SQL_CONFIG_PIPELINE,
    "op_route_events": SQL_ROUTE_EVENTS,
    "op_sample_events": SQL_SAMPLE_EVENTS,
    "op_relabel_docs": SQL_RELABEL_DOCS,
    "op_relabel_regex_docs": SQL_RELABEL_REGEX_DOCS,
    "op_repetition_docs": SQL_REPETITION_DOCS,
    "op_dedup_events": SQL_DEDUP_EVENTS,
    "op_json_typed_dedup_events": SQL_JSON_TYPED_DEDUP_EVENTS,
    "op_langid_ngram_docs": _sql_langid_ngram(),
    "op_kmeans_int_embeddings": _sql_kmeans_int(),
    "op_pca_power_int_embeddings": _sql_pca_power_int(),
    "op_media_decode_docs": _sql_media_decode_docs(),
    "op_lsh_near_pairs_embeddings": SQL_LSH_NEAR_PAIRS_EMBEDDINGS,
    "op_netflow_wire_events": _sql_netflow_wire("netflow_v9"),
    "op_ipfix_wire_events": _sql_netflow_wire("ipfix"),
    "op_dnstap_wire_events": SQL_DNSTAP_WIRE_EVENTS,
    "pipeline_rag_int_index": SQL_RAG_INT_PIPELINE_DOCS,
    "op_sflow_flows_events": SQL_SFLOW_FLOWS_EVENTS,
    "op_sflow_counters_events": SQL_SFLOW_COUNTERS_EVENTS,
    "op_ann_ivf_int_topk": _sql_ann_ivf_int(),
    "op_lsh_signatures_embeddings": SQL_LSH_SIGNATURES_EMBEDDINGS,
    "op_ann_pq_int_topk": _sql_ann_pq_int(),
    "op_geoip_mmdb_events": SQL_GEOIP_MMDB_EVENTS,
    "op_throttle_events": SQL_THROTTLE_EVENTS,
    "op_metricalize_events": SQL_METRICALIZE_EVENTS,
    "op_summary_events": SQL_SUMMARY_EVENTS,
    "op_cardinality_events": SQL_CARDINALITY_EVENTS,
    "op_enrich_customers": SQL_ENRICH_CUSTOMERS,
    "op_lineitem_agg": SQL_LINEITEM_AGG,
    "op_tokens_docs": SQL_TOKENS_DOCS,
    "op_length_fit_docs": SQL_LENGTH_FIT_DOCS,
    "op_length_fit_by_lang_docs": SQL_LENGTH_FIT_BY_LANG_DOCS,
    "op_bpe_pair_counts_docs": SQL_BPE_PAIR_COUNTS_DOCS,
    "op_bpe_train_docs": _sql_bpe_train(_BPE_N_MERGES),
    "op_bpe_encode_docs": _sql_bpe_encode(_BPE_N_MERGES),
    "op_linear_probe_embeddings": _sql_linear_probe_exact(),
    "op_winnow_fingerprints_docs": SQL_WINNOW_FINGERPRINTS_DOCS,
    "op_unigram_score_docs": SQL_UNIGRAM_SCORE_DOCS,
    "op_quality_docs": SQL_QUALITY_DOCS,
    "op_langid_docs": _sql_langid(),
    "op_ann_topk": SQL_ANN_TOPK,
    "op_embedding_near_pairs": SQL_EMBEDDING_NEAR_PAIRS,
    "op_semantic_dedup_embeddings": SQL_SEMANTIC_DEDUP,
    "op_ngram_jaccard_docs": SQL_NGRAM_JACCARD_DOCS,
    "op_ngram_overlap_docs": SQL_NGRAM_OVERLAP_DOCS,
    "op_dedup_clusters_docs": SQL_DEDUP_CLUSTERS_DOCS,
    "op_pack_docs": SQL_PACK_DOCS,
    "op_exact_quantiles_events": SQL_EXACT_QUANTILES_EVENTS,
    "op_vocab_docs": SQL_VOCAB_DOCS,
    "op_hash_join_orders": SQL_HASH_JOIN_ORDERS,
    "op_left_join_orders": SQL_LEFT_JOIN_ORDERS,
    "op_topk_per_group_events": SQL_TOPK_PER_GROUP_EVENTS,
    "op_decontaminate_docs": SQL_DECONTAMINATE_DOCS,
    "op_tfidf_docs": SQL_TFIDF_DOCS,
    "op_outlier_trim_docs": SQL_OUTLIER_TRIM_DOCS,
    "op_mix_docs": SQL_MIX_DOCS,
    "op_late_data_events": SQL_LATE_DATA_EVENTS,
    "pipeline_curate_docs": SQL_CURATE_DOCS,
    "op_codec_octet_events": SQL_CODEC_OCTET_EVENTS,
    "op_bigram_score_docs": SQL_BIGRAM_SCORE_DOCS,
    "op_semi_join_customers": SQL_SEMI_JOIN_CUSTOMERS,
    "op_anti_join_customers": SQL_ANTI_JOIN_CUSTOMERS,
    "op_fuzzy_match_customers": SQL_FUZZY_MATCH_CUSTOMERS,
    "op_skew_join_events": SQL_SKEW_JOIN_EVENTS,
    "op_chunk_docs": SQL_CHUNK_DOCS,
    "op_epoch_shuffle_docs": SQL_EPOCH_SHUFFLE_DOCS,
    "op_fingerprint_md5_docs": SQL_FINGERPRINT_MD5_DOCS,
    "op_simhash_md5_docs": SQL_SIMHASH_MD5_DOCS,
    "op_simhash_pairs_md5_docs": SQL_SIMHASH_PAIRS_MD5_DOCS,
    "op_codec_jsonl_events": SQL_CODEC_JSONL_EVENTS,
    "op_codec_csv_events": SQL_CODEC_JSONL_EVENTS,
    "op_codec_logfmt_events": SQL_CODEC_JSONL_EVENTS,
    "op_codec_syslog_events": SQL_CODEC_JSONL_EVENTS,
    "op_codec_prom_events": SQL_CODEC_JSONL_EVENTS,
    "op_encode_prom_text": SQL_ENCODE_PROM_TEXT,
    "op_encode_influx_line": SQL_ENCODE_INFLUX_LINE,
    "op_normalize_abs_inc": SQL_NORMALIZE_ABS_INC,
    "op_normalize_inc_abs": SQL_NORMALIZE_INC_ABS,
    "op_redact_docs": SQL_REDACT_DOCS,
    "op_parse_json_events": SQL_PARSE_JSON_EVENTS,
    "op_path_json_events": SQL_PATH_JSON_EVENTS,
    "op_parse_regex_docs": SQL_PARSE_REGEX_DOCS,
    "op_asof_join_events": SQL_ASOF_JOIN_EVENTS,
    "op_range_join_events": SQL_RANGE_JOIN_EVENTS,
    "op_cardinality_bloom_events": SQL_CARDINALITY_BLOOM_EVENTS,
    "op_stratified_sample_docs": SQL_STRATIFIED_SAMPLE_DOCS,
    "op_heavy_hitters_events": SQL_HEAVY_HITTERS_EVENTS,
    "op_route_split_events": SQL_ROUTE_SPLIT_EVENTS,
    # minhash+LSH verified pairs: the verify stage recomputes EXACT word
    # 3-gram Jaccard on every candidate, so when LSH recall is 1 (it is at
    # sf0.01 — deterministic seeds, checked against the exact join: no pair
    # in [0.5, 0.7) either) the output equals the exact-Jaccard SQL at the
    # verify threshold.
    "op_minhash_pairs_docs": SQL_NGRAM_JACCARD_DOCS.replace(">= 0.7", ">= 0.5"),
    # langid / fingerprint / simhash / embedding-lsh / ivf /
    # multimodal: not SQL-expressible (heuristics, hashing, LSH, stub
    # decoders) → rows-only checks; the LSH/IVF variants are recall-tested
    # against their exact counterparts in tests/ instead.
}


def q_span_dedup_docs(sf_dir: str):
    """C4-style span-level exact dedup (arXiv:1910.10683 §2.2): each
    distinct 8-token span survives once, at its first (doc_id, span_idx)
    occurrence (stages/dedup_near.span_dedup)."""
    from vertex_ray.stages.dedup_near import span_dedup

    return span_dedup(_docs(sf_dir), "text", "doc_id", k=8)


SQL_SPAN_DEDUP_DOCS = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
         generate_subscripts(string_split(text, ' '), 1) AS i
  FROM documents
),
spans AS (
  SELECT doc_id, (i - 1) // 8 AS span_idx,
         string_agg(tok, ' ' ORDER BY i) AS span
  FROM toks GROUP BY 1, 2
)
SELECT doc_id, span_idx, span FROM (
  SELECT *, row_number() OVER (PARTITION BY span
                               ORDER BY doc_id, span_idx) AS rn
  FROM spans
) WHERE rn = 1
"""

def q_remote_write_roundtrip_events(sf_dir: str):
    """Prometheus remote-write WIRE round trip
    (sources/remote_write: the reference sink's protobuf WriteRequest,
    prometheus_remote_write.rs:152-181): 1m event counts per type →
    canonical series rows → one WriteRequest payload per batch →
    decode → rows. The oracle recomputes the pre-wire rows in SQL, so a
    hash match proves the encoder/decoder preserve every (labelset,
    timestamp, value) exactly — same gate shape as the RFC 6587 syslog
    round trip."""
    import pyarrow as pa

    from vertex_ray.sources.remote_write import (
        decode_write_request,
        remote_write_encode_op,
    )
    from vertex_ray.stages.promql import group_sum

    def prep(t: pa.Table) -> pa.Table:
        ts = t["ts"].cast(pa.int64()).to_numpy()
        w = ts // 60_000_000 * 60
        et = np.asarray(t["event_type"].to_numpy(zero_copy_only=False),
                        dtype=object)
        key = np.array(["events_total{event_type=" + e + "}" for e in et],
                       dtype=object)
        return pa.table({
            "series_key": pa.array(key, type=pa.string()),
            "ts_ms": pa.array(w * 1000, type=pa.int64()),
            "n": pa.array(np.ones(len(t), np.int64)),
        })

    rows = group_sum(_ev(sf_dir).map_batches(prep, batch_format="pyarrow"),
                     ["series_key", "ts_ms"], ["n"])

    def to_value(t: pa.Table) -> pa.Table:
        return pa.table({
            "series_key": t["series_key"],
            "ts_ms": t["ts_ms"],
            "value": t["n"].cast(pa.float64()),
        })

    def roundtrip(t: pa.Table) -> pa.Table:
        enc = remote_write_encode_op()(t)
        return decode_write_request(enc["payload"][0].as_py(),
                                    enc["codec"][0].as_py())

    return (rows.map_batches(to_value, batch_format="pyarrow")
                .map_batches(roundtrip, batch_format="pyarrow"))


SQL_REMOTE_WRITE_ROUNDTRIP_EVENTS = """
SELECT 'events_total{event_type=' || event_type || '}' AS series_key,
       (epoch_us(ts) // 60000000) * 60000 AS ts_ms,
       CAST(count(*) AS DOUBLE) AS value
FROM events
GROUP BY 1, 2
"""


def q_kll_quantiles_events(sf_dir: str):
    """One-pass mergeable quantile sketch (stages/sketch.KllSketch, KLL
    FOCS'16): per-event-type p10/p50/p90/p99 of value from per-batch
    partials + ONE tiny exchange. Approximate by construction (rank
    error ~2.3/k, property-tested in tests/test_sketch.py) so rows-only
    here — the exact counterpart is stages/quantile (SQL-oracled)."""
    from vertex_ray.stages.sketch import kll_quantiles

    return kll_quantiles(_ev(sf_dir), "value", [0.1, 0.5, 0.9, 0.99],
                         k=200, group_col="event_type")


OP_QUERIES_INTERNAL["op_kll_quantiles_events"] = q_kll_quantiles_events

OP_QUERIES["op_remote_write_events"] = q_remote_write_roundtrip_events
OP_ORACLES["op_remote_write_events"] = SQL_REMOTE_WRITE_ROUNDTRIP_EVENTS

OP_QUERIES["op_throttle_gcra_events"] = q_throttle_gcra_events
OP_ORACLES["op_throttle_gcra_events"] = SQL_THROTTLE_GCRA_EVENTS

OP_QUERIES["op_span_dedup_docs"] = q_span_dedup_docs
OP_ORACLES["op_span_dedup_docs"] = SQL_SPAN_DEDUP_DOCS

def q_gopher_docs(sf_dir: str):
    """Gopher / MassiveText quality rules (arXiv:2112.11446 Table A1):
    per-document rule features + composite keep flag, every ratio one
    double division of exact integer counts (stages/text.gopher_rules_op)."""
    from vertex_ray.stages.text import gopher_rules_op

    return _docs(sf_dir).map_batches(gopher_rules_op(), batch_format="pyarrow")


SQL_GOPHER_DOCS = r"""
WITH c AS (
  SELECT doc_id,
         len(regexp_extract_all(text, '\S+')) AS n_words,
         length(regexp_replace(text, '\s', '', 'g')) AS n_nonws,
         len(regexp_extract_all(text, '\n')) + 1 AS n_lines,
         length(text) - length(replace(text, '#', '')) AS n_hash,
         len(regexp_extract_all(text, '\.\.\.|…')) AS n_ell,
         len(regexp_extract_all(text, '(^|\n)[ \t]*[-*•]')) AS n_bullet,
         len(regexp_extract_all(text, '(\.\.\.|…)(\n|$)')) AS n_ell_end,
         len(regexp_extract_all(text, '\S*[A-Za-z]\S*')) AS n_alpha_w,
         (CASE WHEN regexp_matches(lower(text), '\bthe\b') THEN 1 ELSE 0 END
          + CASE WHEN regexp_matches(lower(text), '\bbe\b') THEN 1 ELSE 0 END
          + CASE WHEN regexp_matches(lower(text), '\bto\b') THEN 1 ELSE 0 END
          + CASE WHEN regexp_matches(lower(text), '\bof\b') THEN 1 ELSE 0 END
          + CASE WHEN regexp_matches(lower(text), '\band\b') THEN 1 ELSE 0 END
          + CASE WHEN regexp_matches(lower(text), '\bthat\b') THEN 1 ELSE 0 END
          + CASE WHEN regexp_matches(lower(text), '\bhave\b') THEN 1 ELSE 0 END
          + CASE WHEN regexp_matches(lower(text), '\bwith\b') THEN 1 ELSE 0 END
         ) AS stop_hits
  FROM documents
), f AS (
  SELECT doc_id, n_words, stop_hits,
         CASE WHEN n_words > 0
              THEN CAST(n_nonws AS DOUBLE) / n_words ELSE 0.0 END AS mean_word_len,
         CASE WHEN n_words > 0
              THEN CAST(n_hash + n_ell AS DOUBLE) / n_words ELSE 0.0 END AS symbol_ratio,
         CAST(n_bullet AS DOUBLE) / n_lines AS bullet_frac,
         CAST(n_ell_end AS DOUBLE) / n_lines AS ellipsis_frac,
         CASE WHEN n_words > 0
              THEN CAST(n_alpha_w AS DOUBLE) / n_words ELSE 0.0 END AS alpha_word_frac
  FROM c
)
SELECT doc_id, n_words, mean_word_len, symbol_ratio, bullet_frac,
       ellipsis_frac, alpha_word_frac, stop_hits,
       CAST(CASE WHEN n_words BETWEEN 50 AND 100000
                  AND mean_word_len >= 3.0 AND mean_word_len <= 10.0
                  AND symbol_ratio < 0.1 AND bullet_frac < 0.9
                  AND ellipsis_frac < 0.3 AND alpha_word_frac > 0.8
                  AND stop_hits >= 2
            THEN 1 ELSE 0 END AS BIGINT) AS gopher_pass
FROM f
"""

OP_QUERIES["op_gopher_docs"] = q_gopher_docs
OP_ORACLES["op_gopher_docs"] = SQL_GOPHER_DOCS

def q_boilerplate_docs(sf_dir: str):
    """RefinedWeb/CCNet line-level boilerplate removal: lines occurring
    in >1 distinct documents are dropped from every document, survivors
    re-joined in order (stages/text.remove_boilerplate_lines; the
    broadcast bad-line set is bounded by the true boilerplate count)."""
    from vertex_ray.stages.text import remove_boilerplate_lines

    return remove_boilerplate_lines(_docs(sf_dir), "text", "doc_id",
                                    max_doc_freq=1)


SQL_BOILERPLATE_DOCS = """
WITH lines AS (
  SELECT doc_id, unnest(string_split(text, chr(10))) AS line,
         generate_subscripts(string_split(text, chr(10)), 1) AS i
  FROM documents
),
freq AS (
  SELECT line, count(DISTINCT doc_id) AS df FROM lines GROUP BY 1
),
kept AS (
  SELECT l.doc_id, l.line, l.i FROM lines l JOIN freq f USING (line)
  WHERE f.df <= 1
)
SELECT d.doc_id, COALESCE(k.text, '') AS text
FROM documents d LEFT JOIN (
  SELECT doc_id, string_agg(line, chr(10) ORDER BY i) AS text
  FROM kept GROUP BY 1
) k USING (doc_id)
"""

OP_QUERIES["op_boilerplate_docs"] = q_boilerplate_docs
OP_ORACLES["op_boilerplate_docs"] = SQL_BOILERPLATE_DOCS

def q_readability_docs(sf_dir: str):
    """Flesch reading-ease readability scoring with regex-expressible
    counting rules, bit-exact vs the SQL mirror
    (stages/text.readability_op)."""
    from vertex_ray.stages.text import readability_op

    return _docs(sf_dir).map_batches(readability_op(),
                                     batch_format="pyarrow")


SQL_READABILITY_DOCS = r"""
WITH c AS (
  SELECT doc_id,
         len(regexp_extract_all(text, '\S+')) AS n_words,
         GREATEST(len(regexp_extract_all(text, '[.!?]+')), 1)
           AS n_sentences,
         len(regexp_extract_all(text, '[aeiouyAEIOUY]+')) AS n_syllables
  FROM documents
)
SELECT doc_id, n_words, n_sentences, n_syllables,
       CASE WHEN n_words > 0
            THEN 206.835
                 - 1.015 * (CAST(n_words AS DOUBLE) / n_sentences)
                 - 84.6 * (CAST(n_syllables AS DOUBLE) / n_words)
            ELSE 0.0 END AS flesch
FROM c
"""

OP_QUERIES["op_readability_docs"] = q_readability_docs
OP_ORACLES["op_readability_docs"] = SQL_READABILITY_DOCS

_MIX_WEIGHTS = {"src0": 1.0, "src1": 0.5, "src2": 0.25}
_MIX_DEFAULT = 0.1


def q_mixture_docs(sf_dir: str):
    """Source-weighted corpus mixing (the Pile/Gopher mixture-table
    primitive): per-source deterministic md5 sampling rates, identical
    subset on the SQL side (stages/text.mixture_sample)."""
    from vertex_ray.stages.text import mixture_sample

    return mixture_sample(_docs(sf_dir), "source", "doc_id",
                          _MIX_WEIGHTS, default=_MIX_DEFAULT)


def _sql_mixture() -> str:
    def thresh(w: float) -> str:
        return format(min(int(w * (1 << 64)), (1 << 64) - 1), "016x")

    cases = " ".join(
        f"WHEN '{s}' THEN '{thresh(w)}'" for s, w in _MIX_WEIGHTS.items())
    return f"""
SELECT * FROM documents
WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 16) <
      CASE source {cases} ELSE '{thresh(_MIX_DEFAULT)}' END
"""


OP_QUERIES["op_mixture_docs"] = q_mixture_docs
OP_ORACLES["op_mixture_docs"] = _sql_mixture()


def q_dsir_docs(sf_dir: str):
    """DSIR-style target-domain affinity (arXiv:2302.03169): hashed
    unigram+bigram profiles of the src0 slice vs the raw corpus; the
    oracle checks the integer sufficient statistics exactly (the float
    log-ratio score derives from them and stays engine-side, covered by
    a pytest brute-force test)."""
    from vertex_ray.stages.text import dsir_affinity

    out = dsir_affinity(_docs(sf_dir), "text", "doc_id",
                        target_col="source", target_value="src0",
                        n_buckets=1 << 14, hash_family="md5")
    return out.map_batches(
        lambda t: t.select(["doc_id", "n_grams", "t_hits", "r_hits"]),
        batch_format="pyarrow")


# Recomputes the hashed-gram profiles and per-doc integer statistics in
# SQL: tokens = \S+ runs of lower(text); grams = every token plus every
# adjacent pair joined by one space; bucket = md5_number_lower(gram) %
# 16384 (== stages.text._doc_gram_buckets); profiles count gram
# OCCURRENCES over the src0 slice / the whole corpus.
SQL_DSIR_DOCS = """
    WITH tl AS (
      SELECT doc_id, source,
             regexp_extract_all(lower(text), '\\S+') AS toks
      FROM documents
    ),
    flat AS (
      SELECT doc_id, source, unnest(toks) AS tok,
             generate_subscripts(toks, 1) AS ord
      FROM tl
    ),
    grams AS (
      SELECT doc_id, source, tok AS gram FROM flat
      UNION ALL
      SELECT a.doc_id, a.source, a.tok || ' ' || b.tok
      FROM flat a JOIN flat b ON a.doc_id = b.doc_id AND b.ord = a.ord + 1
    ),
    bk AS (
      SELECT doc_id, source,
             (md5_number_lower(gram) % 16384)::BIGINT AS bucket
      FROM grams
    ),
    tprof AS (SELECT bucket, COUNT(*)::BIGINT AS t FROM bk
              WHERE source = 'src0' GROUP BY bucket),
    rprof AS (SELECT bucket, COUNT(*)::BIGINT AS r FROM bk GROUP BY bucket),
    per AS (
      SELECT bk.doc_id,
             COUNT(*)::BIGINT AS n_grams,
             SUM(COALESCE(tp.t, 0))::BIGINT AS t_hits,
             SUM(rp.r)::BIGINT AS r_hits
      FROM bk
      LEFT JOIN tprof tp USING (bucket)
      JOIN rprof rp USING (bucket)
      GROUP BY bk.doc_id
    )
    SELECT d.doc_id,
           COALESCE(per.n_grams, 0) AS n_grams,
           COALESCE(per.t_hits, 0) AS t_hits,
           COALESCE(per.r_hits, 0) AS r_hits
    FROM documents d LEFT JOIN per USING (doc_id)
"""

OP_QUERIES["op_dsir_docs"] = q_dsir_docs
OP_ORACLES["op_dsir_docs"] = SQL_DSIR_DOCS


def q_lm_perplexity_docs(sf_dir: str):
    """CCNet-style bigram-LM perplexity scoring (arXiv:1911.00359 §3.3):
    an add-one-smoothed bigram LM over hashed token buckets is trained
    on the src0 slice in one bincount-combiner scan, broadcast once, and
    every document is scored batch-locally. The oracle recomputes the
    integer sufficient statistics exactly under the md5 audit family
    (the float perplexity derives from them in occurrence order, covered
    bit-for-bit by tests/test_text_ops.py)."""
    from vertex_ray.stages.text import bigram_lm_perplexity

    out = bigram_lm_perplexity(_docs(sf_dir), "text", "doc_id",
                               train_col="source", train_value="src0",
                               n_buckets=1 << 14, hash_family="md5")
    return out.map_batches(
        lambda t: t.select(["doc_id", "n_tokens", "n_bigrams",
                            "uni_hits", "big_hits"]),
        batch_format="pyarrow")


# Recomputes the bigram LM's hashed profiles and per-doc integer
# statistics in SQL: tokens = \S+ runs of lower(text); the model's
# unigram profile counts CONTEXT tokens of the src0 slice, the bigram
# profile counts its adjacent pairs joined by one space; bucket =
# md5_number_lower(gram) % 16384 (== stages.text._doc_lm_buckets md5
# family); per doc, uni_hits/big_hits sum the train counts of each
# bigram position's context/pair bucket.
SQL_LM_PERPLEXITY_DOCS = """
    WITH tl AS (
      SELECT doc_id, source,
             regexp_extract_all(lower(text), '\\S+') AS toks
      FROM documents
    ),
    flat AS (
      SELECT doc_id, source, unnest(toks) AS tok,
             generate_subscripts(toks, 1) AS ord
      FROM tl
    ),
    bg AS (
      SELECT a.doc_id, a.source,
             (md5_number_lower(a.tok) % 16384)::BIGINT AS prev_bk,
             (md5_number_lower(a.tok || ' ' || b.tok) % 16384)::BIGINT
               AS big_bk
      FROM flat a JOIN flat b
        ON a.doc_id = b.doc_id AND b.ord = a.ord + 1
    ),
    uprof AS (
      SELECT (md5_number_lower(tok) % 16384)::BIGINT AS bucket,
             COUNT(*)::BIGINT AS c
      FROM flat WHERE source = 'src0' GROUP BY 1
    ),
    bprof AS (
      SELECT big_bk AS bucket, COUNT(*)::BIGINT AS c
      FROM bg WHERE source = 'src0' GROUP BY 1
    ),
    ntok AS (
      SELECT doc_id, len(toks)::BIGINT AS n_tokens FROM tl
    ),
    per AS (
      SELECT bg.doc_id,
             COUNT(*)::BIGINT AS n_bigrams,
             SUM(COALESCE(up.c, 0))::BIGINT AS uni_hits,
             SUM(COALESCE(bp.c, 0))::BIGINT AS big_hits
      FROM bg
      LEFT JOIN uprof up ON up.bucket = bg.prev_bk
      LEFT JOIN bprof bp ON bp.bucket = bg.big_bk
      GROUP BY bg.doc_id
    )
    SELECT d.doc_id,
           COALESCE(nt.n_tokens, 0) AS n_tokens,
           COALESCE(per.n_bigrams, 0) AS n_bigrams,
           COALESCE(per.uni_hits, 0) AS uni_hits,
           COALESCE(per.big_hits, 0) AS big_hits
    FROM documents d
    LEFT JOIN ntok nt USING (doc_id)
    LEFT JOIN per USING (doc_id)
"""

OP_QUERIES["op_lm_perplexity_docs"] = q_lm_perplexity_docs
OP_ORACLES["op_lm_perplexity_docs"] = SQL_LM_PERPLEXITY_DOCS


def q_eval_expr_events(sf_dir: str):
    """Text expression language (functions/exprlang — the VTL-script
    analogue, /root/reference src/transforms/rewrite.rs:72-135 +
    lib/vtl/): a builder ``eval`` step SETs three derived columns from
    expression strings compiled once into pyarrow kernels — a Kleene
    boolean predicate, float arithmetic, and registry-function string
    work — all vectorized per batch, value-hash-identical to the SQL
    spelling of the same expressions."""
    from vertex_ray.pipelines.builder import STEP_TYPES

    cfg = {"set": {
        "flag": 'value > 50.0 && contains(event_type, "c")',
        "score": "floor(value * 2.0 + 1.0)",
        "tag": 'uppercase(event_type) + "-ev"',
    }}
    out = STEP_TYPES["eval"](cfg, _ev(sf_dir))
    return out.map_batches(
        lambda t: t.select(["event_id", "event_type", "value",
                            "flag", "score", "tag"]),
        batch_format="pyarrow")


SQL_EVAL_EXPR_EVENTS = """
    SELECT event_id, event_type, value,
           (value > 50.0 AND contains(event_type, 'c')) AS flag,
           floor(value * 2.0 + 1.0) AS score,
           upper(event_type) || '-ev' AS tag
    FROM events
"""

OP_QUERIES["op_eval_expr_events"] = q_eval_expr_events
OP_ORACLES["op_eval_expr_events"] = SQL_EVAL_EXPR_EVENTS


def q_hll_md5_distinct_events(sf_dir: str):
    """HLL distinct-users per event_type under the md5 audit hash family
    — the WHOLE estimator is recomputed by the SQL mirror: registers from
    md5_number_lower bits, the harmonic sum as exact HUGEINT dyadics, the
    fixed-order raw-estimate expression, the linear-counting branch
    (libm ln both sides), round-half-even. The sip-family query stays
    rows-only (accuracy pinned in tests/test_sketch.py)."""
    from vertex_ray.stages.sketch import hll_distinct

    return hll_distinct(_ev(sf_dir), "event_type", "user_id",
                        hash_family="md5")


# Recomputes stages/sketch.hll_distinct (p=12: m=4096, width=52) exactly:
# idx = top 12 hash bits; rho = 53 - bit_count(bit-smeared low 52 bits)
# (== 1-based first-1 position from the top of the 52-bit field, 53 when
# zero); Σ 2^-reg is computed as Σ 2^(53-reg) in EXACT HUGEINT arithmetic
# with absent registers contributing 2^53 each; one float conversion +
# the same left-to-right IEEE expression as the engine. The large-range
# correction branch (raw > 2^64/30) is unreachable at any test SF and is
# omitted here.
SQL_HLL_MD5_DISTINCT_EVENTS = """
    WITH b AS (
      SELECT event_type,
             CAST(md5_number_lower(CAST(user_id AS VARCHAR)) >> 52
                  AS BIGINT) AS idx,
             CAST(md5_number_lower(CAST(user_id AS VARCHAR))
                  & ((1::UBIGINT << 52) - 1) AS BIGINT) AS rem
      FROM events
    ),
    r1 AS (SELECT event_type, idx, rem | (rem >> 1) AS x FROM b),
    r2 AS (SELECT event_type, idx, x | (x >> 2) AS x FROM r1),
    r3 AS (SELECT event_type, idx, x | (x >> 4) AS x FROM r2),
    r4 AS (SELECT event_type, idx, x | (x >> 8) AS x FROM r3),
    r5 AS (SELECT event_type, idx, x | (x >> 16) AS x FROM r4),
    r6 AS (SELECT event_type, idx, x | (x >> 32) AS x FROM r5),
    regs AS (
      SELECT event_type, idx, MAX(53 - bit_count(x)) AS r
      FROM r6 GROUP BY 1, 2
    ),
    agg AS (
      SELECT event_type,
             SUM(1::HUGEINT << (53 - r)) AS s_present,
             COUNT(*) AS n_present
      FROM regs GROUP BY 1
    ),
    est AS (
      SELECT event_type,
             4096 - n_present AS zeros,
             (CAST(0.7213 AS DOUBLE) / (1 + CAST(1.079 AS DOUBLE) / 4096))
               * 4096 * 4096 * 9007199254740992.0
               / CAST(s_present
                      + (4096 - n_present) * (1::HUGEINT << 53)
                      AS DOUBLE) AS e
      FROM agg
    )
    SELECT event_type,
           CAST(round_even(
             CASE WHEN e <= 2.5 * 4096 AND zeros > 0
                  THEN 4096 * ln(CAST(4096 AS DOUBLE) / zeros)
                  ELSE e END, 0) AS BIGINT) AS approx_distinct
    FROM est
"""

OP_QUERIES["op_hll_md5_distinct_events"] = q_hll_md5_distinct_events
OP_ORACLES["op_hll_md5_distinct_events"] = SQL_HLL_MD5_DISTINCT_EVENTS


def q_pii_redact_docs(sf_dir: str):
    """PII scrub pass over documents (stages/text.pii_redact_op): the
    synthetic corpus carries no real PII, so a deterministic per-doc PII
    suffix (email, phone, IP, SSN, card — all derived from doc_id) is
    appended on BOTH the Ray and SQL sides first; the op must find and
    mask exactly those, with bit-identical redacted text and counts."""
    import numpy as np
    import pyarrow as pa

    from vertex_ray.stages.text import pii_redact_op

    def augment(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        txt = t["text"].to_numpy(zero_copy_only=False)
        i3 = (ids % 900 + 100).astype(str)
        i4 = (ids % 9000 + 1000).astype(str)
        aug = np.array([
            f"{x} contact user{d}@example.com call 555-{a}-{b} "
            f"from 10.{d % 200}.3.{d % 250} ssn 123-45-{b} "
            f"card 4111 1111 1111 1111"
            for x, d, a, b in zip(txt, ids, i3, i4)], dtype=object)
        return pa.table({"doc_id": t["doc_id"],
                         "text": pa.array(aug, type=pa.string())})

    return (_docs(sf_dir)
            .map_batches(augment, batch_format="pyarrow")
            .map_batches(pii_redact_op("text", "doc_id"),
                         batch_format="pyarrow"))


# the nested-CTE chain mirrors pii_redact_op exactly: each stage counts
# its pattern on the PREVIOUS stage's masked text, then masks it
SQL_PII_REDACT_DOCS = r"""
WITH s0 AS (
  SELECT doc_id,
         text || ' contact user' || doc_id || '@example.com call 555-'
              || (doc_id % 900 + 100) || '-' || (doc_id % 9000 + 1000)
              || ' from 10.' || (doc_id % 200) || '.3.' || (doc_id % 250)
              || ' ssn 123-45-' || (doc_id % 9000 + 1000)
              || ' card 4111 1111 1111 1111' AS t
  FROM documents
), s1 AS (
  SELECT doc_id,
         len(regexp_extract_all(t, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS n_email,
         regexp_replace(t, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g') AS t
  FROM s0
), s2 AS (
  SELECT doc_id, n_email,
         len(regexp_extract_all(t, '\b\d{3}-\d{2}-\d{4}\b')) AS n_ssn,
         regexp_replace(t, '\b\d{3}-\d{2}-\d{4}\b', '<SSN>', 'g') AS t
  FROM s1
), s3 AS (
  SELECT doc_id, n_email, n_ssn,
         len(regexp_extract_all(t, '\b\d{4}[- ]\d{4}[- ]\d{4}[- ]\d{4}\b')) AS n_cc,
         regexp_replace(t, '\b\d{4}[- ]\d{4}[- ]\d{4}[- ]\d{4}\b', '<CC>', 'g') AS t
  FROM s2
), s4 AS (
  SELECT doc_id, n_email, n_ssn, n_cc,
         len(regexp_extract_all(t, '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b')) AS n_ip,
         regexp_replace(t, '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b', '<IP>', 'g') AS t
  FROM s3
), s5 AS (
  SELECT doc_id, n_email, n_ssn, n_cc, n_ip,
         len(regexp_extract_all(t, '\b\d{3}[-.]\d{3}[-.]\d{4}\b')) AS n_phone,
         regexp_replace(t, '\b\d{3}[-.]\d{3}[-.]\d{4}\b', '<PHONE>', 'g') AS t
  FROM s4
)
SELECT doc_id, n_email, n_ssn, n_cc, n_ip, n_phone,
       n_email + n_ssn + n_cc + n_ip + n_phone AS n_pii,
       t AS redacted
FROM s5
"""

OP_QUERIES["op_pii_redact_docs"] = q_pii_redact_docs
OP_ORACLES["op_pii_redact_docs"] = SQL_PII_REDACT_DOCS


def _augment_urls(t: "pa.Table") -> "pa.Table":
    """Deterministic URL fixture (the synthetic corpus carries no URLs):
    doc_id % 3 != 0 → one per-source URL; doc_id % 5 == 0 → one extra
    CDN URL (so doc_id % 15 == 0 docs have ONLY the CDN one and the
    first-match domain branch flips); doc_id % 15 ∈ {3, 6, 9, 12}·…
    with neither → n_urls = 0 / domain NULL."""
    import pyarrow as pa

    ids = t["doc_id"].to_numpy(zero_copy_only=False)
    txt = t["text"].to_numpy(zero_copy_only=False)
    src = t["source"].to_numpy(zero_copy_only=False)
    aug = np.array([
        f"{x}"
        + (f" see https://{s}.example.org/d/{d} ok" if d % 3 else "")
        + (f" https://cdn{d % 4}.example.net/x" if d % 5 == 0 else "")
        for x, d, s in zip(txt, ids, src)], dtype=object)
    return pa.table({"doc_id": t["doc_id"],
                     "text": pa.array(aug, type=pa.string())})


_SQL_URL_AUG = r"""
  SELECT doc_id,
         text
         || CASE WHEN doc_id % 3 <> 0
                 THEN ' see https://' || source || '.example.org/d/'
                      || doc_id || ' ok' ELSE '' END
         || CASE WHEN doc_id % 5 = 0
                 THEN ' https://cdn' || (doc_id % 4) || '.example.net/x'
                 ELSE '' END AS t
  FROM documents
"""


def q_url_domains_docs(sf_dir: str):
    """Per-doc URL / first-domain extraction (stages/text.url_domain_op)
    over the deterministically URL-augmented corpus — n_urls counts,
    nullable first-match domain, bit-identical to the RE2 SQL mirror."""
    from vertex_ray.stages.text import url_domain_op

    return (_docs(sf_dir)
            .map_batches(_augment_urls, batch_format="pyarrow")
            .map_batches(url_domain_op("text", "doc_id"),
                         batch_format="pyarrow"))


SQL_URL_DOMAINS_DOCS = rf"""
WITH s0 AS ({_SQL_URL_AUG})
SELECT doc_id,
       len(regexp_extract_all(t, 'https?://[^\s"<>]+')) AS n_urls,
       nullif(regexp_extract(t, 'https?://([^\s"<>/:]+)', 1), '')
         AS domain
FROM s0
"""

OP_QUERIES["op_url_domains_docs"] = q_url_domains_docs
OP_ORACLES["op_url_domains_docs"] = SQL_URL_DOMAINS_DOCS


def q_domain_freq_docs(sf_dir: str):
    """Corpus domain-frequency table with a broadcast blocklist
    (stages/text.domain_freq): docs keyed by the host of their first
    URL, two domains blocked batch-locally before the ONE combiner
    exchange — the per-domain statistics that feed mixture weights /
    blocklist curation (C4, RefinedWeb)."""
    from vertex_ray.stages.text import domain_freq

    ds = _docs(sf_dir).map_batches(_augment_urls, batch_format="pyarrow")
    return domain_freq(ds, "text", "doc_id",
                       blocked=frozenset({"cdn1.example.net",
                                          "src2.example.org"}))


SQL_DOMAIN_FREQ_DOCS = rf"""
WITH s0 AS ({_SQL_URL_AUG}),
d AS (
  SELECT doc_id,
         len(regexp_extract_all(t, 'https?://[^\s"<>]+')) AS n_urls,
         nullif(regexp_extract(t, 'https?://([^\s"<>/:]+)', 1), '')
           AS domain
  FROM s0
)
SELECT domain, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_urls) AS BIGINT) AS n_urls
FROM d
WHERE domain IS NOT NULL
  AND domain NOT IN ('cdn1.example.net', 'src2.example.org')
GROUP BY domain
"""

OP_QUERIES["op_domain_freq_docs"] = q_domain_freq_docs
OP_ORACLES["op_domain_freq_docs"] = SQL_DOMAIN_FREQ_DOCS


def _scrape_counter_lines(g):
    """Deterministic scrape fixture: arrival order = (ts, event_id),
    cumulative counter = rank % 1000 (forces resets every 1000)."""
    import pandas as pd

    g = g.sort_values(["ts", "event_id"], kind="stable")
    cum = np.arange(1, len(g) + 1, dtype=np.int64) % 1000
    ts_ms = g["ts"].to_numpy().astype("datetime64[ms]").astype(np.int64)
    job = g["event_type"].iloc[0]
    text = ('events_total{job="' + job + '"} '
            + pd.Series(cum).astype(str) + " "
            + pd.Series(ts_ms).astype(str))
    return pd.DataFrame({"text": text.to_numpy()})


def _scrape_gauge_lines(t: pa.Table) -> pa.Table:
    """Every event as a gauge exposition sample (value verbatim — Python
    float repr round-trips bit-for-bit through parse)."""
    import pandas as pd

    job = pd.Series(t["event_type"].to_numpy(zero_copy_only=False),
                    dtype=object)
    ts_ms = t["ts"].to_numpy().astype("datetime64[ms]").astype(np.int64)
    text = ('events_gauge{job="' + job + '"} '
            + pd.Series(t["value"].to_numpy()).astype(str) + " "
            + pd.Series(ts_ms).astype(str))
    return pa.table({"text": pa.array(text.to_numpy(), type=pa.string())})


def _scrape_hist_lines(g):
    """Per event (ordered by ts, event_id) the full cumulative histogram
    exposition family (_count/_sum/11 _bucket{le=} + +Inf) with a counter
    RESET every 500 scrapes; observation = (event_id % 5) * 2.5 (exact
    floats); ts_ms = epoch_ms + rank (strictly increasing per series)."""
    import pandas as pd

    from vertex_ray.schema import DEFAULT_BUCKETS

    g = g.sort_values(["ts", "event_id"], kind="stable")
    n = len(g)
    r = np.arange(1, n + 1, dtype=np.int64)
    ts_ms = (g["ts"].to_numpy().astype("datetime64[ms]")
             .astype(np.int64) + r)
    ep = (r - 1) // 500
    obs = (g["event_id"].to_numpy() % 5).astype(np.float64) * 2.5
    d = pd.DataFrame({"ep": ep, "obs": obs})
    ccount = (d.groupby("ep").cumcount() + 1).to_numpy()
    csum = d.groupby("ep")["obs"].cumsum().to_numpy()
    job = g["event_type"].iloc[0]
    ts_s = pd.Series(ts_ms).astype(str)
    parts = [
        ('evhist_count{job="' + job + '"} '
         + pd.Series(ccount).astype(str) + " " + ts_s),
        ('evhist_sum{job="' + job + '"} '
         + pd.Series(csum).astype(str) + " " + ts_s),
    ]
    for u in DEFAULT_BUCKETS:
        d["ind"] = (obs <= u).astype(np.int64)
        cb = d.groupby("ep")["ind"].cumsum().to_numpy()
        parts.append(('evhist_bucket{job="' + job + '",le="' + str(u)
                      + '"} ' + pd.Series(cb).astype(str) + " " + ts_s))
    parts.append(('evhist_bucket{job="' + job + '",le="+Inf"} '
                  + pd.Series(ccount).astype(str) + " " + ts_s))
    return pd.DataFrame({"text": pd.concat(parts).to_numpy()})


def q_scrape_counters_events(sf_dir: str):
    """Scrape-to-store pipeline end-to-end (the reference's PRIMARY
    metrics path: prometheus_scrape parse, /root/reference
    lib/prometheus/src/text.rs:12 → MetricNormalize absolute→incremental,
    lib/framework/src/sink/buffer/metrics.rs:100-146 → windowed rollup →
    store): the events table is rendered as Prometheus exposition text
    (one cumulative counter sample per event, cumulative value = per-type
    arrival rank mod 1000 so mid-stream counter RESETS occur), fed
    through pipelines/scrape_pipeline.scrape_counters_to_store (vectorized
    parse → ONE series exchange fusing the normalize contract with the
    per-window delta sum → Gorilla block encode), and the committed
    blocks are DECODED back. All deltas are small integers so the decoded
    windowed sums are value-hash-identical to the SQL telescoping mirror."""
    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.pipelines.scrape_pipeline import scrape_counters_to_store

    lines = _ev(sf_dir).groupby("event_type").map_groups(
        _scrape_counter_lines, batch_format="pandas")
    blocks = scrape_counters_to_store(lines, metric="events_total",
                                      window_s=60, tier="1m", n_buckets=8)
    return decode_tier_blocks(blocks).map_batches(
        lambda t: t.select(["series_key", "window_start", "sum", "count"]),
        batch_format="pyarrow")


SQL_SCRAPE_COUNTERS_EVENTS = """
WITH s AS (
  SELECT event_type, epoch_ms(ts) AS ts_ms,
         (row_number() OVER (PARTITION BY event_type
                             ORDER BY ts, event_id)) % 1000 AS cum
  FROM events
), d AS (
  SELECT event_type, ts_ms, cum,
         lag(cum) OVER (PARTITION BY event_type
                        ORDER BY ts_ms, cum) AS prev
  FROM s
)
SELECT 'events_total{job=' || event_type || '}' AS series_key,
       (ts_ms // 60000) * 60 AS window_start,
       CAST(SUM(CASE WHEN cum >= prev THEN cum - prev ELSE cum END)
            AS DOUBLE) AS sum,
       CAST(count(*) AS BIGINT) AS count
FROM d
WHERE prev IS NOT NULL
GROUP BY 1, 2
"""

OP_QUERIES["scrape_counters_1m_events"] = q_scrape_counters_events
OP_ORACLES["scrape_counters_1m_events"] = SQL_SCRAPE_COUNTERS_EVENTS


def q_scrape_gauge_events(sf_dir: str):
    """Gauge scrape ingest: every event rendered as a gauge exposition
    sample (value = events.value verbatim — Python float repr
    round-trips bit-for-bit through parse), then
    ``scrape_to_store(kind='gauge')`` applies the MetricValue::Gauge
    replace-merge per window (/root/reference
    lib/event/src/metric/mod.rs:47-49): last sample in (ts_ms, value)
    order wins. Decoded ``last`` is hash-identical to the SQL
    row_number mirror."""
    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.pipelines.scrape_pipeline import scrape_to_store

    lines = _ev(sf_dir).map_batches(_scrape_gauge_lines,
                                    batch_format="pyarrow")
    blocks = scrape_to_store(lines, metric="events_gauge", kind="gauge",
                             window_s=60, tier="1m", n_buckets=8)
    return decode_tier_blocks(blocks).map_batches(
        lambda t: t.select(["series_key", "window_start", "last"]),
        batch_format="pyarrow")


SQL_SCRAPE_GAUGE_EVENTS = """
WITH s AS (
  SELECT 'events_gauge{job=' || event_type || '}' AS series_key,
         epoch_ms(ts) AS ts_ms, value,
         (epoch_ms(ts) // 60000) * 60 AS window_start
  FROM events
), r AS (
  SELECT series_key, window_start, value,
         row_number() OVER (PARTITION BY series_key, window_start
                            ORDER BY ts_ms DESC, value DESC) AS rn
  FROM s
)
SELECT series_key, window_start, value AS last FROM r WHERE rn = 1
"""

OP_QUERIES["scrape_gauge_1m_events"] = q_scrape_gauge_events
OP_ORACLES["scrape_gauge_1m_events"] = SQL_SCRAPE_GAUGE_EVENTS



def _scrape_summary_lines(g):
    """Per event (ordered by ts, event_id) a summary exposition family:
    two pre-computed quantile streams (values derived from the arrival
    rank — exact quarters/halves) plus cumulative monotonic _sum/_count
    (sum = rank/2, count = rank)."""
    import pandas as pd

    g = g.sort_values(["ts", "event_id"], kind="stable")
    n = len(g)
    rank = np.arange(1, n + 1, dtype=np.int64)
    ts = pd.Series(g["ts"].to_numpy().astype("datetime64[ms]")
                   .astype(np.int64)).astype(str)
    et = g["event_type"].iloc[0]
    base = f'events_summary{{job="{et}"'
    q5 = pd.Series((rank % 97) * 0.25).astype(str)
    q9 = pd.Series((rank % 89) * 0.5).astype(str)
    csum = pd.Series(rank * 0.5).astype(str)
    ccnt = pd.Series(rank).astype(str)
    lines = pd.concat([
        base + ',quantile="0.5"} ' + q5 + " " + ts,
        base + ',quantile="0.9"} ' + q9 + " " + ts,
        f'events_summary_sum{{job="{et}"}} ' + csum + " " + ts,
        f'events_summary_count{{job="{et}"}} ' + ccnt + " " + ts,
    ], ignore_index=True)
    return pd.DataFrame({"text": lines})


def q_scrape_summary_events(sf_dir: str):
    """Summary-family scrape ingest end-to-end (the 4th MetricValue
    kind, whose merge is a NO-OP — metric/mod.rs:33-39): each
    event_type exposes two {quantile=} streams plus cumulative
    _sum/_count. Quantile streams land as KIND_SUMMARY series under the
    first-per-window rule; _sum/_count route to their own counter
    series (normalize drops each series' first observation). Decoded
    values are hash-identical to the SQL mirror (first-row selection +
    telescoping deltas)."""
    import pyarrow as pa

    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.pipelines.scrape_pipeline import scrape_to_store
    from vertex_ray.schema import KIND_SUMMARY

    lines = _ev(sf_dir).groupby("event_type").map_groups(
        _scrape_summary_lines, batch_format="pandas")
    blocks = scrape_to_store(lines, metric="events_summary",
                             kind="summary", window_s=60, tier="1m",
                             n_buckets=8)

    def shape(t: pa.Table) -> pa.Table:
        k = t["kind"].to_numpy()
        val = np.where(k == KIND_SUMMARY, t["last"].to_numpy(),
                       t["sum"].to_numpy())
        return pa.table({"series_key": t["series_key"],
                         "window_start": t["window_start"],
                         "value": pa.array(val, type=pa.float64())})

    return decode_tier_blocks(blocks).map_batches(
        shape, batch_format="pyarrow")


SQL_SCRAPE_SUMMARY_EVENTS = """
WITH s AS (
  SELECT event_type, epoch_ms(ts) AS ts_ms,
         (epoch_ms(ts) // 60000) * 60 AS window_start,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY ts, event_id) AS rank
  FROM events
), qs AS (
  SELECT event_type, ts_ms, window_start, '0.5' AS q,
         (rank % 97) * 0.25 AS val FROM s
  UNION ALL
  SELECT event_type, ts_ms, window_start, '0.9',
         (rank % 89) * 0.5 FROM s
), qr AS (
  SELECT 'events_summary{job=' || event_type || ',quantile=' || q || '}'
           AS series_key,
         window_start, val,
         row_number() OVER (PARTITION BY event_type, q, window_start
                            ORDER BY ts_ms, val) AS rn
  FROM qs
), d AS (
  SELECT 'events_summary_sum{job=' || event_type || '}' AS series_key,
         window_start,
         (rank - lag(rank) OVER (PARTITION BY event_type
                                 ORDER BY ts_ms, rank)) * 0.5 AS delta
  FROM s
  UNION ALL
  SELECT 'events_summary_count{job=' || event_type || '}', window_start,
         CAST(rank - lag(rank) OVER (PARTITION BY event_type
                                     ORDER BY ts_ms, rank) AS DOUBLE)
  FROM s
)
SELECT series_key, window_start, val AS value FROM qr WHERE rn = 1
UNION ALL
SELECT series_key, window_start, SUM(delta) AS value
FROM d WHERE delta IS NOT NULL GROUP BY 1, 2
"""

OP_QUERIES["scrape_summary_1m_events"] = q_scrape_summary_events
OP_ORACLES["scrape_summary_1m_events"] = SQL_SCRAPE_SUMMARY_EVENTS


def q_scrape_summary_cascade_events(sf_dir: str):
    """Store-level cascade of a SUMMARY store (stages/cascade over the
    summary scrape ingest): quantile streams follow the NO-OP merge —
    the 5m window keeps the FIRST accumulated 1m state
    (metric/mod.rs:33-39) — while the family's _sum/_count counter
    series merge additively. One bucket exchange, hash-identical to the
    SQL mirror's first-fine-window selection + sums."""
    import pyarrow as pa

    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.pipelines.scrape_pipeline import scrape_to_store
    from vertex_ray.schema import KIND_SUMMARY
    from vertex_ray.stages.cascade import cascade_blocks

    lines = _ev(sf_dir).groupby("event_type").map_groups(
        _scrape_summary_lines, batch_format="pandas")
    blocks = scrape_to_store(lines, metric="events_summary",
                             kind="summary", window_s=60, tier="1m",
                             n_buckets=8)
    five = cascade_blocks(blocks, tiers=("5m",), source_tier="1m")

    def shape(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["tier"], "5m"))
        k = t["kind"].to_numpy()
        val = np.where(k == KIND_SUMMARY, t["last"].to_numpy(),
                       t["sum"].to_numpy())
        return pa.table({"series_key": t["series_key"],
                         "window_start": t["window_start"],
                         "value": pa.array(val, type=pa.float64())})

    return decode_tier_blocks(five).map_batches(
        shape, batch_format="pyarrow")


SQL_SCRAPE_SUMMARY_CASCADE_EVENTS = f"""
WITH m AS ({SQL_SCRAPE_SUMMARY_EVENTS}),
q AS (
  SELECT series_key, (window_start // 300) * 300 AS w, value,
         row_number() OVER (PARTITION BY series_key,
                            (window_start // 300) * 300
                            ORDER BY window_start) AS rn
  FROM m WHERE series_key LIKE '%quantile=%'
)
SELECT series_key, w AS window_start, value FROM q WHERE rn = 1
UNION ALL
SELECT series_key, (window_start // 300) * 300 AS window_start,
       SUM(value) AS value
FROM m WHERE series_key NOT LIKE '%quantile=%'
GROUP BY 1, 2
"""

OP_QUERIES["scrape_summary_cascade_5m_events"] = \
    q_scrape_summary_cascade_events
OP_ORACLES["scrape_summary_cascade_5m_events"] = \
    SQL_SCRAPE_SUMMARY_CASCADE_EVENTS


def q_scrape_hist_events(sf_dir: str):
    """Histogram scrape ingest end-to-end: each event_type becomes a
    scraped histogram series — per event (ordered by ts, event_id) the
    fixture emits the full cumulative exposition family (``_count`` /
    ``_sum`` / 11 ``_bucket{le=}`` lines + ``+Inf``) with a counter
    RESET every 500 scrapes (cumulatives restart), observation =
    ``(event_id % 5) * 2.5`` so every float is exact.
    ``scrape_to_store(kind='histogram')`` suffix-routes the family
    (/root/reference lib/prometheus/src/lib.rs:166-255), normalizes the
    cumulative streams JOINTLY on count resets, and window-sums the
    deltas into KIND_HISTOGRAM store rows; the decoded count/sum/bucket
    columns are hash-identical to the SQL telescoping mirror."""
    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.pipelines.scrape_pipeline import scrape_to_store
    from vertex_ray.schema import BUCKET_COLS

    lines = _ev(sf_dir).groupby("event_type").map_groups(
        _scrape_hist_lines, batch_format="pandas")
    blocks = scrape_to_store(lines, metric="evhist", kind="histogram",
                             window_s=60, tier="1m", n_buckets=8)
    cols = ["series_key", "window_start", "count", "sum"] + list(BUCKET_COLS)
    return decode_tier_blocks(blocks).map_batches(
        lambda t: t.select(cols), batch_format="pyarrow")


def _sql_scrape_hist_events() -> str:
    from vertex_ray.schema import BUCKET_COLS, DEFAULT_BUCKETS

    cum_cols = ",\n         ".join(
        f"SUM(CASE WHEN obs <= {u!r} THEN 1 ELSE 0 END) OVER cw AS c_{b}"
        for b, u in zip(BUCKET_COLS, DEFAULT_BUCKETS))
    lag_cols = ",\n         ".join(
        f"lag(c_{b}) OVER w AS p_{b}" for b in BUCKET_COLS)
    delta_sums = ",\n       ".join(
        f"CAST(SUM(CASE WHEN c_count < p_count THEN c_{b} "
        f"ELSE c_{b} - p_{b} END) AS BIGINT) AS {b}"
        for b in BUCKET_COLS)
    return f"""
WITH e AS (
  SELECT event_type, epoch_ms(ts) AS ts_ms,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY ts, event_id) AS r,
         (event_id % 5) * 2.5 AS obs
  FROM events
), c AS (
  SELECT event_type, ts_ms + r AS ts_ms, r,
         row_number() OVER cw AS c_count,
         SUM(obs) OVER cw AS c_sum,
         {cum_cols}
  FROM e
  WINDOW cw AS (PARTITION BY event_type, (r - 1) // 500 ORDER BY r)
), d AS (
  SELECT event_type, ts_ms, c_count, c_sum,
         {", ".join(f"c_{b}" for b in BUCKET_COLS)},
         lag(c_count) OVER w AS p_count,
         lag(c_sum) OVER w AS p_sum,
         {lag_cols}
  FROM c
  WINDOW w AS (PARTITION BY event_type ORDER BY r)
)
SELECT 'evhist{{job=' || event_type || '}}' AS series_key,
       (ts_ms // 60000) * 60 AS window_start,
       CAST(SUM(CASE WHEN c_count < p_count THEN c_count
                ELSE c_count - p_count END) AS BIGINT) AS count,
       CAST(SUM(CASE WHEN c_count < p_count THEN c_sum
                ELSE c_sum - p_sum END) AS DOUBLE) AS sum,
       {delta_sums}
FROM d
WHERE p_count IS NOT NULL
GROUP BY 1, 2
"""


OP_QUERIES["scrape_hist_1m_events"] = q_scrape_hist_events
OP_ORACLES["scrape_hist_1m_events"] = _sql_scrape_hist_events()


def q_scrape_payload_events(sf_dir: str):
    """Whole-payload scrape ingest: ONE exposition stream carrying a
    counter family, a gauge family, a histogram family (the three
    fixtures above), their ``# TYPE`` lines AND a summary family (its
    quantile stream lands as a KIND_SUMMARY series, its single-sample
    _sum/_count emit nothing) is ingested in one pass by
    ``scrape_payload_to_store`` (kinds derived from the TYPE lines,
    suffix routing per family, ONE series exchange dispatching the
    per-kind normalize contract, one encode). The decoded store is
    hash-identical to the UNION ALL of the per-kind SQL mirrors."""
    import ray.data as rd

    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.pipelines.scrape_pipeline import scrape_payload_to_store
    from vertex_ray.schema import BUCKET_COLS

    ev = _ev(sf_dir)
    meta = rd.from_arrow(pa.table({"text": pa.array([
        "# TYPE events_total counter",
        "# TYPE events_gauge gauge",
        "# TYPE evhist histogram",
        "# TYPE lat summary",
        'lat{quantile="0.5",job="x"} 1.0 0',
        'lat_sum{job="x"} 2.0 0',
        'lat_count{job="x"} 3 0',
    ], type=pa.string())}))
    lines = (ev.groupby("event_type")
             .map_groups(_scrape_counter_lines, batch_format="pandas")
             .union(ev.map_batches(_scrape_gauge_lines,
                                   batch_format="pyarrow"),
                    ev.groupby("event_type")
                    .map_groups(_scrape_hist_lines, batch_format="pandas"),
                    meta))
    blocks = scrape_payload_to_store(lines, window_s=60, tier="1m",
                                     n_buckets=8)
    cols = (["series_key", "window_start", "sum", "count"]
            + list(BUCKET_COLS))
    return decode_tier_blocks(blocks).map_batches(
        lambda t: t.select(cols), batch_format="pyarrow")


def _sql_scrape_payload_events() -> str:
    from vertex_ray.schema import BUCKET_COLS

    b0 = ", ".join(f"CAST(0 AS BIGINT) AS {b}" for b in BUCKET_COLS)
    bsel = ", ".join(BUCKET_COLS)
    return f"""
SELECT series_key, window_start, sum, count, {b0}
FROM ({SQL_SCRAPE_COUNTERS_EVENTS})
UNION ALL
SELECT series_key, window_start, last AS sum, CAST(1 AS BIGINT) AS count,
       {b0}
FROM ({SQL_SCRAPE_GAUGE_EVENTS})
UNION ALL
SELECT series_key, window_start, sum, count, {bsel}
FROM ({_sql_scrape_hist_events()})
UNION ALL
-- the payload's one-sample summary family: its quantile stream ingests
-- as a KIND_SUMMARY row (first-per-window; value mirrored into every
-- scalar column), its single-sample _sum/_count emit nothing
SELECT 'lat{{job=x,quantile=0.5}}' AS series_key,
       CAST(0 AS BIGINT) AS window_start, 1.0 AS sum,
       CAST(1 AS BIGINT) AS count, {b0}
"""


OP_QUERIES["scrape_payload_1m_events"] = q_scrape_payload_events
OP_ORACLES["scrape_payload_1m_events"] = _sql_scrape_payload_events()


def q_scrape_gauge_locf_events(sf_dir: str):
    """Exporter-TTL staleness fused into scrape ingest: the gauge fixture
    is ingested with ``fill_until_s`` = the table's global end, so every
    gap after a series' last observation emits LOCF rows for the 5-window
    staleness horizon (src/sinks/prometheus_exporter.rs:59-61) and then
    exactly ONE stale marker (the Prometheus stale NaN payload, surfaced
    as NULL for the SQL-comparable view). Decoded rows are hash-identical
    to the generate-k mirror."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.pipelines.scrape_pipeline import scrape_to_store

    ts_tbl = pads.dataset(f"{sf_dir}/events.parquet").to_table(
        columns=["ts"])
    ts_max = pc.max(ts_tbl["ts"]).cast(pa.int64()).as_py()
    end_s = int(ts_max // 1_000_000) if ts_max is not None else 0
    lines = _ev(sf_dir).map_batches(_scrape_gauge_lines,
                                    batch_format="pyarrow")
    blocks = scrape_to_store(lines, metric="events_gauge", kind="gauge",
                             window_s=60, tier="1m", n_buckets=8,
                             fill_until_s=end_s, staleness_s=300)

    def shape(t: pa.Table) -> pa.Table:
        null_f = pa.scalar(None, pa.float64())
        return pa.table({
            "series_key": t["series_key"],
            "window_start": t["window_start"],
            "last": pc.if_else(t["stale"], null_f, t["last"]),
            "filled": t["filled"],
            "stale": t["stale"],
        })

    return decode_tier_blocks(blocks).map_batches(shape,
                                                  batch_format="pyarrow")


SQL_SCRAPE_GAUGE_LOCF_EVENTS = """
WITH s AS (
  SELECT 'events_gauge{job=' || event_type || '}' AS series_key,
         epoch_ms(ts) AS ts_ms, value,
         (epoch_ms(ts) // 60000) * 60 AS ws
  FROM events
), g AS (
  SELECT series_key, ws, value,
         row_number() OVER (PARTITION BY series_key, ws
                            ORDER BY ts_ms DESC, value DESC) AS rn
  FROM s
), v AS (
  SELECT series_key, ws, value FROM g WHERE rn = 1
), seq AS (
  SELECT *, lead(ws) OVER (PARTITION BY series_key ORDER BY ws) AS next_w
  FROM v
), bound AS (
  SELECT (max(epoch_ms(ts)) // 60000) * 60 AS global_end FROM events
)
SELECT series_key, ws AS window_start, value AS last,
       FALSE AS filled, FALSE AS stale
FROM seq
UNION ALL
SELECT series_key, ws + 60 * k AS window_start, value AS last,
       TRUE AS filled, FALSE AS stale
FROM seq CROSS JOIN (SELECT unnest([1, 2, 3, 4, 5]) AS k), bound
WHERE ws + 60 * k < coalesce(next_w, global_end + 60)
UNION ALL
SELECT series_key, ws + 360 AS window_start, NULL AS last,
       FALSE AS filled, TRUE AS stale
FROM seq, bound
WHERE ws + 360 < coalesce(next_w, global_end + 60)
"""

OP_QUERIES["scrape_gauge_locf_1m_events"] = q_scrape_gauge_locf_events
OP_ORACLES["scrape_gauge_locf_1m_events"] = SQL_SCRAPE_GAUGE_LOCF_EVENTS


def q_scrape_cascade_events(sf_dir: str):
    """Store-level tier cascade (stages/cascade): the counter scrape
    fixture is ingested at 1m, committed, then rolled up AT REST to 1h —
    sums/counts add, min/max fold, ``last`` by latest window — all in
    ONE groupby(bucket) exchange over the block store (a series' whole
    history is co-located by the bucket hash). The decoded 1h tier is
    hash-identical to the SQL mirror that windows the telescoped deltas
    at 3600 s directly."""
    import os
    import shutil

    from vertex_ray.pipelines.rollup_pipeline import (
        decode_tier_blocks,
        read_stage,
    )
    from vertex_ray.pipelines.scrape_pipeline import scrape_counters_to_store
    from vertex_ray.stages.cascade import cascade_store
    from vertex_ray.state.checkpoint import write_stage

    base = os.path.join("/tmp/vertex_ray_queries",
                        f"scrape_casc_{os.path.basename(sf_dir.rstrip('/'))}")
    shutil.rmtree(base, ignore_errors=True)
    lines = _ev(sf_dir).groupby("event_type").map_groups(
        _scrape_counter_lines, batch_format="pandas")
    blocks = scrape_counters_to_store(lines, metric="events_total",
                                      window_s=60, tier="1m", n_buckets=8)
    cols = ["series_key", "window_start", "sum", "count", "min", "max",
            "last"]
    m = write_stage(blocks, os.path.join(base, "src", "blocks"), {})
    if m["rows"] == 0:
        return pa.table({
            "series_key": pa.array([], type=pa.string()),
            "window_start": pa.array([], type=pa.int64()),
            "sum": pa.array([], type=pa.float64()),
            "count": pa.array([], type=pa.int64()),
            "min": pa.array([], type=pa.float64()),
            "max": pa.array([], type=pa.float64()),
            "last": pa.array([], type=pa.float64()),
        })
    cascade_store(os.path.join(base, "src"), os.path.join(base, "dst"),
                  tiers=("5m", "1h"))
    return decode_tier_blocks(
        read_stage(os.path.join(base, "dst"), "blocks", "1h")).map_batches(
        lambda t: t.select(cols), batch_format="pyarrow")


SQL_SCRAPE_CASCADE_EVENTS = """
WITH s AS (
  SELECT event_type, epoch_ms(ts) AS ts_ms,
         (row_number() OVER (PARTITION BY event_type
                             ORDER BY ts, event_id)) % 1000 AS cum
  FROM events
), d AS (
  SELECT event_type, ts_ms, cum,
         lag(cum) OVER (PARTITION BY event_type
                        ORDER BY ts_ms, cum) AS prev
  FROM s
), del AS (
  SELECT event_type, ts_ms, cum,
         CASE WHEN cum >= prev THEN cum - prev ELSE cum END AS delta,
         (ts_ms // 3600000) * 3600 AS hw
  FROM d WHERE prev IS NOT NULL
), r AS (
  SELECT *, row_number() OVER (PARTITION BY event_type, hw
                               ORDER BY ts_ms DESC, cum DESC) AS rn
  FROM del
)
SELECT 'events_total{job=' || event_type || '}' AS series_key,
       hw AS window_start,
       CAST(SUM(delta) AS DOUBLE) AS sum,
       CAST(count(*) AS BIGINT) AS count,
       CAST(MIN(delta) AS DOUBLE) AS min,
       CAST(MAX(delta) AS DOUBLE) AS max,
       CAST(MAX(CASE WHEN rn = 1 THEN delta END) AS DOUBLE) AS last
FROM r GROUP BY 1, 2
"""

OP_QUERIES["scrape_cascade_1h_events"] = q_scrape_cascade_events
OP_ORACLES["scrape_cascade_1h_events"] = SQL_SCRAPE_CASCADE_EVENTS


def q_stream_scrape_events(sf_dir: str):
    """STREAMING scrape ingest of the counter fixture: the exposition
    lines are delivered as micro-batches to a stream_scrape actor pool
    (per-series normalize reference + open-window + open-block state
    held ACROSS batches — the reference's MetricNormalizer/metricalize
    runtime shape), blocks decoded back. The decoded windowed delta sums
    are hash-identical to the batch pipeline's SQL telescoping mirror —
    stream == batch, bit for bit."""
    from vertex_ray.gorilla import decode_timestamps, decode_values
    from vertex_ray.stages.stream_scrape import stream_scrape

    lines = _ev(sf_dir).groupby("event_type").map_groups(
        _scrape_counter_lines, batch_format="pandas")
    blocks = stream_scrape(
        lines.iter_batches(batch_format="pyarrow", batch_size=65536),
        metric="events_total", kind="counter", n_actors=4, max_points=512)
    keys, ws, vs = [], [], []
    for r in blocks.to_pylist():
        n = r["n_points"]
        keys.extend([r["series_key"]] * n)
        ws.append(decode_timestamps(r["ts_block"], n))
        vs.append(decode_values(r["val_block"], n))
    return pa.table({
        "series_key": pa.array(keys, type=pa.string()),
        "window_start": pa.array(
            np.concatenate(ws) if ws else np.zeros(0, np.int64)),
        "sum": pa.array(
            np.concatenate(vs) if vs else np.zeros(0, np.float64)),
    })


SQL_STREAM_SCRAPE_EVENTS = """
WITH s AS (
  SELECT event_type, epoch_ms(ts) AS ts_ms,
         (row_number() OVER (PARTITION BY event_type
                             ORDER BY ts, event_id)) % 1000 AS cum
  FROM events
), d AS (
  SELECT event_type, ts_ms, cum,
         lag(cum) OVER (PARTITION BY event_type
                        ORDER BY ts_ms, cum) AS prev
  FROM s
)
SELECT 'events_total{job=' || event_type || '}' AS series_key,
       (ts_ms // 60000) * 60 AS window_start,
       CAST(SUM(CASE WHEN cum >= prev THEN cum - prev ELSE cum END)
            AS DOUBLE) AS sum
FROM d
WHERE prev IS NOT NULL
GROUP BY 1, 2
"""

OP_QUERIES["stream_scrape_1m_events"] = q_stream_scrape_events
OP_ORACLES["stream_scrape_1m_events"] = SQL_STREAM_SCRAPE_EVENTS


def q_compression_docs(sf_dir: str):
    """Compression-ratio quality signal (ratio = zlib(text)/len(text)):
    boilerplate compresses far below prose, junk near 1 — the two-sided
    corpus filter. zlib is not SQL-recomputable, so this stays rows-only
    (determinism + ordering property-tested in tests/test_text_ops.py)."""
    from vertex_ray.stages.text import compression_ratio_op

    return _docs(sf_dir).map_batches(compression_ratio_op(),
                                     batch_format="pyarrow")


OP_QUERIES_INTERNAL["op_compression_docs"] = q_compression_docs


def q_scrape_incremental_events(sf_dir: str):
    """INCREMENTAL scrape ingest: the counter fixture is split into 3
    per-series time chunks and appended as three runs + a finalize
    (pipelines/scrape_incremental) — per-series normalize reference and
    OPEN-WINDOW partials persist between runs as a carried state stage
    (the epoch pipeline's side-written per-bucket parts), so the union
    of all epochs' blocks keeps the one-row-per-(series, window)
    invariant and is hash-identical to the batch pipeline's SQL
    telescoping mirror — incremental == one-shot, bit for bit."""
    import os
    import shutil

    import pyarrow.compute as pc

    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.pipelines.scrape_incremental import (
        read_scrape_epochs,
        scrape_append,
        scrape_finalize,
    )

    def to_lines_runs(g):
        import pandas as pd

        out = _scrape_counter_lines(g)
        n = len(out)
        out["run"] = (np.arange(n) * 3) // max(n, 1)
        return out

    base = os.path.join(
        "/tmp/vertex_ray_queries",
        f"scrape_inc_{os.path.basename(sf_dir.rstrip('/'))}")
    shutil.rmtree(base, ignore_errors=True)
    lines = _ev(sf_dir).groupby("event_type").map_groups(
        to_lines_runs, batch_format="pandas")
    for r in range(3):
        run = lines.map_batches(
            lambda t, r=r: t.filter(pc.equal(t["run"], r)).select(["text"]),
            batch_format="pyarrow")
        scrape_append(run, base, kinds={"events_total": "counter"},
                      window_s=60, tier="1m", n_buckets=8)
    scrape_finalize(base, kinds={"events_total": "counter"}, window_s=60,
                    tier="1m", n_buckets=8)
    return decode_tier_blocks(read_scrape_epochs(base)).map_batches(
        lambda t: t.select(["series_key", "window_start", "sum", "count"]),
        batch_format="pyarrow")


OP_QUERIES["scrape_incremental_1m_events"] = q_scrape_incremental_events
OP_ORACLES["scrape_incremental_1m_events"] = SQL_SCRAPE_COUNTERS_EVENTS


def q_scrape_incremental_summary_events(sf_dir: str):
    """INCREMENTAL ingest of a SUMMARY family: the summary fixture split
    into 3 per-series time chunks + finalize. First-wins holds across
    run boundaries with no summary-specific carry code (the open
    partial's last_ts is its first sample's instant, so the §F4 merge
    prefers it) — hash-identical to the one-shot SQL mirror."""
    import os
    import shutil

    import pyarrow.compute as pc

    from vertex_ray.pipelines.rollup_pipeline import decode_tier_blocks
    from vertex_ray.pipelines.scrape_incremental import (
        read_scrape_epochs,
        scrape_append,
        scrape_finalize,
    )
    from vertex_ray.schema import KIND_SUMMARY

    def to_lines_runs(g):
        out = _scrape_summary_lines(g)
        n = len(out)
        out["run"] = (np.arange(n) * 3) // max(n, 1)
        return out

    base = os.path.join(
        "/tmp/vertex_ray_queries",
        f"scrape_inc_summary_{os.path.basename(sf_dir.rstrip('/'))}")
    shutil.rmtree(base, ignore_errors=True)
    lines = _ev(sf_dir).groupby("event_type").map_groups(
        to_lines_runs, batch_format="pandas")
    kinds = {"events_summary": "summary"}
    for r in range(3):
        run = lines.map_batches(
            lambda t, r=r: t.filter(pc.equal(t["run"], r)).select(["text"]),
            batch_format="pyarrow")
        scrape_append(run, base, kinds=kinds, window_s=60, tier="1m",
                      n_buckets=8)
    scrape_finalize(base, kinds=kinds, window_s=60, tier="1m", n_buckets=8)

    def shape(t):
        k = t["kind"].to_numpy()
        val = np.where(k == KIND_SUMMARY, t["last"].to_numpy(),
                       t["sum"].to_numpy())
        return pa.table({"series_key": t["series_key"],
                         "window_start": t["window_start"],
                         "value": pa.array(val, type=pa.float64())})

    return decode_tier_blocks(read_scrape_epochs(base)).map_batches(
        shape, batch_format="pyarrow")


OP_QUERIES["scrape_incremental_summary_1m_events"] = \
    q_scrape_incremental_summary_events
OP_ORACLES["scrape_incremental_summary_1m_events"] = \
    SQL_SCRAPE_SUMMARY_EVENTS
