"""PromQL-style read-path operators over the tier store.

The reference's prometheus_exporter sink is a read surface: Prometheus
scrapes it and runs PromQL over the exposed series. This module supplies
the engine-side analogues of the PromQL constructs that operate ACROSS
series or ACROSS windows (the per-series ones — rate/increase/delta,
selector, histogram_quantile — live in __ray_entry__ / stages.windows /
stages.quantile):

- ``label_aggregate``  — ``sum by (label) (metric)``: re-derive one tag
  from the canonical series_key (series identity is the sorted-tag string,
  SURVEY.md §1.3) and aggregate across all series sharing that tag value.
- ``over_time``        — ``avg_over_time / max_over_time / min_over_time /
  sum_over_time (metric[n windows])``: per-series moving aggregate over
  the last n tier windows.

Scale shape: both are one-exchange operators. ``label_aggregate`` reduces
each batch to per-(label, window) partials before the shuffle (combiner
pattern), so exchange volume is bounded by distinct (label, window) pairs
per batch, not rows. ``over_time`` hash-buckets series so each bucket is
ONE vectorized kernel call (no per-series task), mirroring
stages.windows.series_delta.

Every operator takes a Dataset or a driver ``pa.Table`` and builds its
steps through ``stages/executor``: the Ray Data plan its docstring
describes, or the same steps in the driver, each exchange one call.
"""

from __future__ import annotations

import re as _re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from vertex_ray.stages.executor import (
    exchange,
    lift,
    per_batch,
    schema,
    union,
)

__all__ = ["extract_label", "label_aggregate", "group_sum", "over_time",
           "binary_op", "zscore_over_time", "lttb_downsample",
           "holt_winters", "predict_linear", "deriv", "irate_idelta",
           "resets_changes", "label_replace", "label_join", "clamp",
           "alert_state", "burn_rate", "count_values", "absent_over_time",
           "offset_modifier", "window_time", "limit_ratio",
           "strip_labels", "aggregate_without", "set_op", "math_op"]


def extract_label(t: pa.Table, label: str, key_col: str = "series_key",
                  out_col: str | None = None) -> pa.Table:
    """Append the value of ``label`` parsed out of the canonical series_key
    (``name{k1=v1,k2=v2}``) as a string column. Vectorized single-pass
    regex (pyarrow extract_regex); series without the label get NULL."""
    out = out_col or label
    m = pc.extract_regex(
        t[key_col], rf"[{{,]{label}=(?P<v>[^,}}]*)[,}}]")
    return t.append_column(out, pc.struct_field(m, "v"))


def _composite_key(t: pa.Table, on_cols: list[str], sep: str):
    """Join match columns into ONE string key for hash exchanges. The
    separator must not occur in the values — default \\x1f everywhere;
    never NUL (pandas' bucket hash C-truncates at an embedded NUL, see
    binary_op's docstring for the measured match loss)."""
    k = t[on_cols[0]].cast(pa.string())
    for c in on_cols[1:]:
        k = pc.binary_join_element_wise(k, t[c].cast(pa.string()), sep)
    return k


def label_aggregate(ds, label: str, value_col: str,
                    window_col: str = "window_start",
                    out_col: str | None = None,
                    key_col: str = "series_key",
                    agg: str = "sum", q: float = 0.5):
    """PromQL aggregation operators — ``<agg> by (label) (metric)`` for
    agg ∈ sum/min/max/count/avg: cross-series aggregation of a value
    column, grouped by (label value, window). Returns columns
    ``(label, window_col, out_col)``.

    Exactness: avg/stddev require an integer value column, and sum
    merges int64 partials over one (int64 partials commute; a float sum
    — ``rate``, or ``increase`` over more than one window, whose moving
    sum ``over_time`` returns as float64 — ships its rows through the
    exchange and adds each group in (label, window, series) order, the
    same bits on either executor, exact while the values are integers
    under 2**53; avg divides the exact sum once at the end —
    never averages partial averages; stddev carries exact int64
    (sum, sum-of-squares, count) partials and evaluates the population
    formula ``sqrt((ss - s*s/n)/n)`` once at the end, the same float
    evaluation shape as the SQL mirror so results are bit-identical);
    min/max are order-free and accept floats. ``quantile`` (PromQL
    ``quantile by (label)(q, metric)``) is an order-free selection with
    the exact ``quantile_cont`` interpolation shape.

    Per-batch partial aggregation happens BEFORE the exchange, so the
    shuffle moves one row per distinct (label, window) per batch — at
    100 TB the exchange is proportional to the rollup cardinality of the
    coarse key, never to input rows. Exceptions: ``quantile`` has no
    mergeable partial, and a float ``sum`` keeps its rows for the fixed
    summation order, so their exchange carries one value per SERIES per
    window (for quantile, the cross-series vector being ranked) — still
    tier-read volume, never raw turns; use the sketch stages for
    budget-bounded percentiles over raw data."""
    if agg not in ("sum", "min", "max", "count", "avg", "stddev",
                   "quantile", "group"):
        raise ValueError(f"unsupported label_aggregate agg: {agg}")
    # PromQL ``group by (label)``: constant 1 per non-empty group —
    # membership only; runs the count machinery, emits 1
    emit_one = agg == "group"
    if emit_one:
        agg = "count"
    out = out_col or value_col
    keys = ["__lbl", window_col]

    def partial(t: pa.Table) -> pa.Table:
        t = extract_label(t, label, key_col=key_col, out_col="__lbl")
        v = t[value_col].to_numpy(zero_copy_only=False)
        # group/count ignore value magnitudes (membership / non-null
        # tally), so they must accept the float vectors other operators
        # derive — no dtype guard
        if (not emit_one and agg in ("avg", "stddev")
                and v.dtype.kind not in "iu"):
            raise TypeError(
                f"label_aggregate {agg} needs an integer column for exact "
                f"merges, got {v.dtype}")
        df = pd.DataFrame({
            "__lbl": t["__lbl"].to_pandas(),
            window_col: t[window_col].to_numpy(zero_copy_only=False),
            "__v": v,
        })
        if agg == "sum" and v.dtype.kind not in "iu":
            # float partials would round in merge order: ship the rows,
            # keyed by series for the fixed summation order of ``final``
            df["__k"] = t[key_col].to_numpy(zero_copy_only=False)
            return pa.Table.from_pandas(df, preserve_index=False)
        if agg == "quantile":
            # no mergeable partial — ship (label, window, value) rows
            return pa.Table.from_pandas(df, preserve_index=False)
        if agg == "stddev":
            df["__v2"] = v.astype(np.int64) ** 2
            g = (df.groupby(keys, sort=False, dropna=False)
                 .agg(__s=("__v", "sum"), __ss=("__v2", "sum"),
                      __c=("__v", "count")).reset_index())
            return pa.Table.from_pandas(g, preserve_index=False)
        gb = df.groupby(keys, sort=False, dropna=False)["__v"]
        if agg == "avg":
            g = gb.agg(__s="sum", __c="count").reset_index()
        elif agg == "count":
            g = gb.count().reset_index().rename(columns={"__v": "__c"})
        else:
            g = getattr(gb, agg)().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        if "__k" in g.columns:
            # float sum: each (label, window) group added in series
            # order, so every executor and exchange gives the same bits
            g = g.sort_values(keys + ["__k", "__v"], kind="stable")
        gb = g.groupby(keys, sort=False, dropna=False)
        if agg == "quantile":
            # vectorized per-group quantile_cont: one lexsort puts each
            # (label, window) group's values in ascending order, then the
            # selection indices are pure segment arithmetic — no
            # per-group Python call
            g = g.sort_values(keys + ["__v"], kind="stable")
            lbl = g["__lbl"].to_numpy()
            win = g[window_col].to_numpy()
            v = g["__v"].to_numpy(np.float64)
            new = np.ones(len(g), dtype=bool)
            new[1:] = (lbl[1:] != lbl[:-1]) | (win[1:] != win[:-1])
            starts = np.flatnonzero(new)
            ends = np.concatenate([starts[1:], [len(g)]])
            cnt = ends - starts
            rn = (cnt - 1) * q
            frn = np.floor(rn)
            crn = np.ceil(rn)
            lo = v[starts + frn.astype(np.int64)]
            hi = v[starts + crn.astype(np.int64)]
            # exact SQL quantile_cont evaluation shape (bit-for-bit)
            res = np.where(frn == crn, lo,
                           (crn - rn) * lo + (rn - frn) * hi)
            return pd.DataFrame({label: lbl[starts],
                                 window_col: win[starts], out: res})
        if agg == "stddev":
            r = gb[["__s", "__ss", "__c"]].sum().reset_index()
            s = r["__s"].to_numpy(np.float64)
            ss = r["__ss"].to_numpy(np.float64)
            nn = r["__c"].to_numpy(np.int64)
            # population stddev, evaluated in the exact same float op
            # order as the SQL mirror: sqrt((ss - s*s/n) / n)
            r[out] = np.sqrt((ss - s * s / nn) / nn)
            r = r[keys + [out]]
        elif agg == "avg":
            r = gb[["__s", "__c"]].sum().reset_index()
            r[out] = r["__s"].to_numpy(np.int64) / r["__c"].to_numpy(np.float64)
            r = r[keys + [out]]
        elif agg == "count":
            r = gb["__c"].sum().reset_index().rename(columns={"__c": out})
            if emit_one:
                r[out] = np.int64(1)
        else:
            r = getattr(gb["__v"], agg)().reset_index().rename(
                columns={"__v": out})
        r.columns = [label, window_col, out]
        return r

    return exchange(per_batch(ds, partial), final, "__lbl")


def strip_labels(t: pa.Table, labels: list[str],
                 key_col: str = "series_key",
                 out_col: str | None = None) -> pa.Table:
    """Remove ``label=value`` pairs from the canonical series_key
    (``name{k1=v1,k2=v2}``) — the key transform behind PromQL
    ``without(...)`` aggregation. Three vectorized RE2 replaces per
    label cover every position (RE2 has no lookahead): mid/tail with a
    leading comma, head with a trailing comma, and the only-label case."""
    out = out_col or key_col
    k = t[key_col]
    for lbl in labels:
        k = pc.replace_substring_regex(k, rf",{lbl}=[^,}}]*", "")
        k = pc.replace_substring_regex(k, rf"{{{lbl}=[^,}}]*,", "{")
        k = pc.replace_substring_regex(k, rf"{{{lbl}=[^,}}]*}}", "{}")
    if out in t.schema.names:
        return t.set_column(t.schema.get_field_index(out), out, k)
    return t.append_column(out, k)


def aggregate_without(ds, drop_labels: list[str], value_col: str,
                      window_col: str = "window_start",
                      key_col: str = "series_key",
                      out_col: str | None = None, n_buckets: int = 64,
                      agg: str = "sum"):
    """PromQL ``<agg> without(labels) (metric)`` for agg ∈
    sum/count/min/max: exact aggregation across the series that collapse
    onto the same key once ``drop_labels`` are stripped — the complement
    of ``by (label)``. The output vector keeps full series identity
    minus the dropped labels (a real series_key, so every downstream
    promql function composes on it). Combiner pattern: per-batch
    partials before the one exchange (sum/count merge by summing int64
    partials; min/max are order-free; ``avg`` carries exact int64
    (sum, count) partials and divides ONCE at finalize; ``stddev``
    (population, the PromQL convention) carries exact int64
    (sum, sum-of-squares, count) partials and evaluates
    ``sqrt((n·Σv² − (Σv)²) / n²)`` in one fixed order at finalize — so
    both are bit-identical under any merge order, and both therefore
    require an integer value column, like over_time)."""
    if agg not in ("sum", "count", "min", "max", "avg", "stddev"):
        raise ValueError(f"unsupported aggregate_without agg: {agg}")
    out = out_col or value_col
    keys = [key_col, window_col]

    def prep(t: pa.Table) -> pa.Table:
        if agg in ("avg", "stddev") and not pa.types.is_integer(
                t.schema.field(value_col).type):
            raise TypeError(f"aggregate_without {agg} needs an integer "
                            "column for exact partial sums")
        t = strip_labels(t, drop_labels, key_col=key_col)
        df = t.select(keys + [value_col]).to_pandas()
        if agg == "stddev":
            df["__v2"] = df[value_col].to_numpy(np.int64) ** 2
            g = (df.groupby(keys, sort=False)
                 .agg(__p=(value_col, "sum"), __s2=("__v2", "sum"),
                      __c=(value_col, "count")).reset_index())
        else:
            gb = df.groupby(keys, sort=False)[value_col]
            if agg == "avg":
                g = gb.agg(__p="sum", __c="count").reset_index()
            else:
                g = (gb.size().rename("__p") if agg == "count"
                     else getattr(gb, agg)().rename("__p")).reset_index()
        b = (pd.util.hash_pandas_object(g[keys], index=False)
             .to_numpy() % np.uint64(n_buckets)).astype(np.int64)
        g["__bucket"] = b
        return pa.Table.from_pandas(g, preserve_index=False)

    merge_op = "sum" if agg in ("sum", "count", "avg", "stddev") else agg

    def final(g: pd.DataFrame) -> pd.DataFrame:
        if agg == "stddev":
            r = (g.groupby(keys, sort=False)[["__p", "__s2", "__c"]]
                 .sum().reset_index())
            n = r["__c"].to_numpy(np.int64)
            s = r["__p"].to_numpy(np.int64)
            s2 = r["__s2"].to_numpy(np.int64)
            r[out] = np.sqrt((n * s2 - s * s).astype(np.float64)
                             / (n * n))
            return r[keys + [out]]
        if agg == "avg":
            r = (g.groupby(keys, sort=False)[["__p", "__c"]]
                 .sum().reset_index())
            r[out] = r["__p"].to_numpy(np.int64).astype(np.float64) \
                / r["__c"].to_numpy(np.int64)
            r = r[keys + [out]]
            return r
        r = getattr(g.groupby(keys, sort=False)["__p"],
                    merge_op)().reset_index()
        r.columns = keys + [out]
        return r

    return exchange(per_batch(ds, prep), final, "__bucket")


def group_sum(ds, group_cols: list[str], value_cols: list[str],
              n_buckets: int = 64):
    """Exact integer sums of ``value_cols`` grouped by ``group_cols`` —
    the building block for ``sum by (...)`` over MULTIPLE mergeable state
    columns at once (e.g. summing a histogram's cumulative bucket vector
    across all series per window, the classic
    ``histogram_quantile(q, sum by (le)(...))`` dashboard read).

    Combiner pattern: each batch collapses to one row per distinct group
    it contains before the ONE hash exchange, so shuffle volume is the
    group cardinality per batch, never input rows. Integer partial sums
    commute, so the result is exact under any merge order."""
    cols = list(dict.fromkeys(list(group_cols) + list(value_cols)))

    def partial(t: pa.Table) -> pa.Table:
        df = t.select(cols).to_pandas()
        g = (df.groupby(list(group_cols), sort=False, dropna=False)
             [list(value_cols)].sum().reset_index())
        b = (pd.util.hash_pandas_object(g[list(group_cols)], index=False)
             .to_numpy() % np.uint64(n_buckets)).astype(np.int64)
        g["__bucket"] = b
        return pa.Table.from_pandas(g, preserve_index=False)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby(list(group_cols), sort=False, dropna=False)
                [list(value_cols)].sum().reset_index())

    return exchange(per_batch(ds, partial), final, "__bucket")


def binary_op(left, right, on_cols: list[str], left_val: str,
              right_val: str, op: str = "div",
              out_col: str = "value", n_buckets: int = 64,
              sep: str = "\x1f", carry_left: list[str] | None = None,
              bool_mode: bool = False, swap_operands: bool = False):
    """PromQL binary operation with vector matching —
    ``left <op> on(on_cols) right`` (e.g. an error-rate or per-turn ratio
    panel: ``tool_invocations_total / on(conv_id) turns_total``).

    Both vectors are matched on ``on_cols`` via ONE hash-partitioned
    equi-join (stages/join.hash_join on a composite key, inner match —
    PromQL drops unmatched samples), then the arithmetic runs as a single
    Arrow kernel per batch. Division casts both sides to float64 first so
    the expression is the same IEEE op sequence as the SQL oracle.

    ``carry_left`` adds PromQL ``group_left`` many-to-one matching: the
    listed LEFT columns ride through the join unchanged (e.g. keep
    ``series_key`` while dividing each series by its role-level total, so
    on_cols=[role, window] matches many left rows to one right row). As
    in PromQL, the right vector is the "one" side and must be unique per
    match key — a duplicate right key duplicates output rows (PromQL
    rejects many-to-many; here the invariant holds by construction when
    the right side is a label_aggregate/group_sum result keyed on
    on_cols).

    Comparison operators (``gt ge lt le eq ne``) follow PromQL: by
    default they FILTER — rows where the comparison holds keep the left
    sample; with ``bool_mode=True`` they return a 0/1 vector instead
    (``expr > bool threshold``).

    ``sep`` joins on_cols into the composite key and must not occur in
    their values (defaults to the unit separator \\x1f — impossible in
    label values / window numbers). Do NOT use NUL: pandas' bucket hash
    (hash_object_array) C-truncates object strings at an embedded NUL on
    some block representations, so the same key can land in different
    buckets on the two sides and silently drop matches (measured: 18,795
    of 23,368 matches survived with a NUL separator)."""
    from vertex_ray.stages.join import hash_join

    ops = {"div": pc.divide, "add": pc.add, "sub": pc.subtract,
           "mul": pc.multiply}
    cmps = {"gt": pc.greater, "ge": pc.greater_equal, "lt": pc.less,
            "le": pc.less_equal, "eq": pc.equal, "ne": pc.not_equal}
    if op not in ops and op not in cmps:
        raise ValueError(f"unsupported binary op: {op}")
    carry = [c for c in (carry_left or []) if c not in on_cols]
    if schema(left) is None:
        # a Ray Data selection with no rows has no schema: PromQL's
        # empty-vector rule — no match, so no sample
        return left
    if schema(right) is None:
        return _no_rows(left)

    def with_key(keep_val, extra=()):
        def fn(t: pa.Table) -> pa.Table:
            k = _composite_key(t, on_cols, sep)
            return t.select(on_cols + list(extra) + [keep_val]
                            ).append_column("__k", k)
        return fn

    l = per_batch(left, with_key(left_val, carry))
    r = per_batch(right, lambda t: t.select([right_val]).append_column(
        "__k", with_key(right_val)(t)["__k"]))
    joined = hash_join(l, r, "__k", n_buckets=n_buckets, how="inner")

    def finish(t: pa.Table) -> pa.Table:
        lv = pc.cast(t[left_val], pa.float64())
        rv = pc.cast(t[right_val], pa.float64())
        if swap_operands:
            # PromQL group_right lowering: the MANY side must be this
            # function's first argument (carry_left rides on it), but
            # the expression's operand order is the reverse — compute
            # op(rv, lv) so ``one_side <op> group_right many_side``
            # keeps its written order.
            lv, rv = rv, lv
        keep_cols = on_cols + carry + [left_val, right_val]
        if op in cmps:
            m = cmps[op](lv, rv)
            if bool_mode:
                # PromQL `op bool`: 0/1 vector instead of filtering
                return t.select(keep_cols).append_column(
                    out_col, pc.cast(m, pa.float64()))
            # PromQL filter semantics: keep the LEFT sample where true
            return t.filter(m).select(keep_cols)
        return t.select(keep_cols).append_column(out_col, ops[op](lv, rv))

    return per_batch(joined, finish)


def _no_rows(x):
    return per_batch(x, lambda t: t.slice(0, 0))


def set_op(left, right, on_cols: list[str], op: str = "and",
           n_buckets: int = 64, sep: str = "\x1f"):
    """PromQL logical/set binary operators between instant vectors,
    matched ``on(on_cols)``:

    - ``and``    — left samples whose match key EXISTS on the right
                   (one semi-join exchange; right values never move)
    - ``unless`` — left samples with NO right match (anti-join)
    - ``or``     — every left sample, plus right samples whose key has
                   no left match (right must share the left schema)

    The reference ships alert/metric streams through route/filter
    combinators; these are their vector-algebra analogues on the read
    side (`src/transforms/route.rs` splits by predicate, here the
    predicate is membership of another vector)."""
    if op not in ("and", "unless", "or"):
        raise ValueError(f"unsupported set op: {op}")
    from vertex_ray.stages.join import hash_join

    ls, rs = schema(left), schema(right)
    if ls is None or rs is None:
        # a Ray Data selection with no rows has no schema: PromQL's
        # empty-vector rule — ``or`` is the other side, ``and`` and
        # ``unless`` keep what the left side has to keep
        if op == "or":
            return right if ls is None else left
        if op == "unless" or ls is None:
            return left
        return _no_rows(left)

    def with_key(t: pa.Table) -> pa.Table:
        return t.append_column("__k", _composite_key(t, on_cols, sep))

    def keys_only(t: pa.Table) -> pa.Table:
        return pa.table({"__k": _composite_key(t, on_cols, sep)})

    def drop_key(t: pa.Table) -> pa.Table:
        return t.select([c for c in t.schema.names if c != "__k"])

    if op in ("and", "unless"):
        j = hash_join(per_batch(left, with_key),
                      per_batch(right, keys_only), "__k",
                      n_buckets=n_buckets,
                      how="semi" if op == "and" else "anti")
        return per_batch(j, drop_key)
    extra = hash_join(per_batch(right, with_key),
                      per_batch(left, keys_only), "__k",
                      n_buckets=n_buckets, how="anti")
    return union([left, per_batch(extra, drop_key)])


def over_time(ds, key_col: str, order_col: str, value_col: str, n: int,
              agg: str = "avg", out_col: str | None = None,
              n_buckets: int = 64, q: float = 0.5):
    """PromQL ``<agg>_over_time(metric[n windows])`` over tier rows: a
    per-series moving aggregate across the last ``n`` windows (ROWS frame
    ``n-1 PRECEDING .. CURRENT ROW``; shorter at series start, like a
    range selector clipped at the series' first sample).

    ``avg``/``sum``/``stddev``/``stdvar`` require an integer value column
    — the moving sum (and sum of squares) is
    computed by exact int64 cumsum differencing so the result is
    bit-identical to any evaluation order (float frames would need a
    defined summation order; use max/min for floats). ``max``/``min``
    accept any numeric dtype (order-free). ``count`` is the frame row
    count (int64). ``quantile`` (PromQL ``quantile_over_time(q, ...)``)
    is an order-free selection + linear interpolation using the exact
    `(CRN-RN)*lo + (RN-FRN)*hi` evaluation shape of SQL
    ``quantile_cont`` so results are bit-identical to the oracle; the
    frame matrix is (rows × n), fine for the small selector ranges
    PromQL uses (n ≤ ~64).

    One exchange: series are hash-bucketed (same shape as
    stages.windows.series_delta); each bucket kernel is one vectorized
    sort + cumsum/rolling call, never a per-series Python task."""
    if agg not in ("avg", "sum", "max", "min", "count", "quantile",
                   "stddev", "stdvar", "mad", "first", "last"):
        raise ValueError(f"unsupported over_time agg: {agg}")
    out = out_col or f"{agg}_over"

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, order_col], kind="stable")
        k = g[key_col].to_numpy()
        v = g[value_col].to_numpy()
        new = np.ones(len(g), dtype=bool)
        new[1:] = k[1:] != k[:-1]
        # position within the series (0-based) -> frame row count
        first_pos = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        pos = np.arange(len(g)) - first_pos[seg]
        cnt = np.minimum(pos + 1, n)
        if agg == "count":
            res = cnt.astype(np.int64)
        elif agg in ("first", "last"):
            # PromQL last_over_time / (the SQL FIRST_VALUE analogue) on a
            # ROWS frame: last = the current row's sample; first = the
            # sample at the frame start (n-1 rows back, clipped at the
            # series' first sample). Keeps the input dtype — pure gather.
            rows = np.arange(len(g))
            res = v if agg == "last" else v[rows - (cnt - 1)]
        elif agg in ("quantile", "mad"):
            # frame matrix: column j holds the value j rows back within
            # the same series (NaN past the series start); np.sort pushes
            # NaN to the end so the first cnt entries are the frame
            m = np.full((len(g), n), np.nan)
            vf = v.astype(np.float64)
            rows = np.arange(len(g))
            for j in range(n):
                ok = pos >= j
                m[rows[ok], j] = vf[rows[ok] - j]
            m.sort(axis=1)

            def interp(mat: np.ndarray, qq: float) -> np.ndarray:
                rn = (cnt - 1) * qq
                frn = np.floor(rn)
                crn = np.ceil(rn)
                lo = mat[rows, frn.astype(np.int64)]
                hi = mat[rows, crn.astype(np.int64)]
                # exact SQL quantile_cont evaluation shape (bit-for-bit)
                return np.where(frn == crn, lo,
                                (crn - rn) * lo + (rn - frn) * hi)

            if agg == "quantile":
                res = interp(m, q)
            else:
                # mad_over_time (Prometheus experimental): median of
                # absolute deviations from the frame median — the two
                # quantile_cont passes mirror the SQL oracle exactly
                med = interp(m, 0.5)
                d = np.abs(m - med[:, None])
                d.sort(axis=1)  # NaN pads stay at the end
                res = interp(d, 0.5)
        elif agg in ("avg", "sum", "stddev", "stdvar"):
            if v.dtype.kind not in "iu":
                raise TypeError(
                    f"over_time {agg} needs an integer column for exact "
                    f"moving sums, got {v.dtype}")

            def frame_sum(x: np.ndarray) -> np.ndarray:
                c = np.cumsum(x)
                s = c.copy()
                # subtract the cumsum at the row before the frame: n rows
                # back, clipped to just-before-the-series (cuts off prior
                # series too)
                back = np.maximum(pos - n, -1) + first_pos[seg]
                has_back = back >= 0
                s[has_back] -= c[back[has_back]]
                return s

            vi = v.astype(np.int64)
            s = frame_sum(vi)
            if agg in ("stddev", "stdvar"):
                # population variance from exact int64 sum / sum-of-squares
                # partials: var = (n·Σv² − (Σv)²) / n² — numerator exact,
                # single float division (+ IEEE sqrt) mirrors the SQL shape
                # bit-for-bit (same formula the stddev-by-label aggregate
                # uses; Prometheus stddev_over_time is population stddev)
                ss = frame_sum(vi * vi)
                res = (cnt * ss - s * s).astype(np.float64) / (cnt * cnt)
                if agg == "stddev":
                    res = np.sqrt(res)
            else:
                res = s.astype(np.float64) / cnt if agg == "avg" \
                    else s.astype(np.float64)
        else:
            roll = (g.groupby(k, sort=False)[value_col]
                    .rolling(n, min_periods=1))
            res = (roll.max() if agg == "max" else roll.min()) \
                .to_numpy(dtype=np.float64)
        outdf = g[[key_col, order_col]].copy()
        outdf[out] = res
        return outdf

    return exchange(ds, kernel, key_col, n_buckets)


def zscore_over_time(ds, key_col: str, order_col: str, value_col: str,
                     n: int, out_col: str = "zscore", n_buckets: int = 64):
    """Streaming anomaly score per series: how many trailing-baseline
    standard deviations the current window's value sits from the trailing
    mean — ``z = (x - mean(prev n)) / stddev(prev n)``, baseline frame
    ``ROWS BETWEEN n PRECEDING AND 1 PRECEDING`` (the current value never
    contaminates its own baseline). The alerting primitive a rollup store
    exists to serve.

    Exactness: requires an integer value column; the baseline carries
    exact int64 (sum, sum-of-squares, count) via cumsum differencing and
    evaluates ``(x - s/c) / sqrt((ss - s*s/c)/c)`` in the same float op
    order as the SQL mirror, so finite scores are bit-identical. Rows
    with no usable baseline — empty frame (series start) or zero variance
    (constant history) — are NaN on both sides (SQL NULL): the variance
    guard is explicit because numpy's 0/0 NaN differs bitwise from SQL
    NULL→NaN, and DuckDB's sqrt raises on tiny negative float residue.

    One exchange: same hash-bucketed series kernel as over_time."""
    out = out_col

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, order_col], kind="stable")
        k = g[key_col].to_numpy()
        v = g[value_col].to_numpy()
        if v.dtype.kind not in "iu":
            raise TypeError(
                f"zscore_over_time needs an integer column for exact "
                f"baseline sums, got {v.dtype}")
        new = np.ones(len(g), dtype=bool)
        new[1:] = k[1:] != k[:-1]
        first_pos = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        pos = np.arange(len(g)) - first_pos[seg]
        vi = v.astype(np.int64)
        c1 = np.cumsum(vi)
        c2 = np.cumsum(vi * vi)
        # inclusive trailing window of n+1 rows, then peel off the
        # current row -> the exclusive n-row baseline
        n_incl = n + 1
        back = np.maximum(pos - n_incl, -1) + first_pos[seg]
        has_back = back >= 0
        s = c1.copy()
        ss = c2.copy()
        s[has_back] -= c1[back[has_back]]
        ss[has_back] -= c2[back[has_back]]
        s -= vi
        ss -= vi * vi
        cnt = np.minimum(pos + 1, n_incl) - 1
        with np.errstate(divide="ignore", invalid="ignore"):
            sf = s.astype(np.float64)
            ssf = ss.astype(np.float64)
            m = sf / cnt
            var = (ssf - sf * sf / cnt) / cnt
            z = np.where((cnt > 0) & (var > 0),
                         (vi.astype(np.float64) - m) / np.sqrt(var),
                         np.nan)
        outdf = g[[key_col, order_col, value_col]].copy()
        outdf[out] = z
        return outdf

    return exchange(ds, kernel, key_col, n_buckets)


def lttb_downsample(ds, key_col: str, order_col: str, value_col: str,
                    n_out: int, n_buckets: int = 64):
    """Largest-Triangle-Three-Buckets downsampling (Steinarsson 2013) of
    each series to ``n_out`` points — the dashboard-render read: a chart
    can't draw a million windows, and naive striding hides spikes; LTTB
    keeps the visually-dominant points (every local extreme that matters)
    while preserving the first and last sample exactly.

    Per series: points are split into n_out-2 interior time buckets; from
    each bucket keep the point forming the largest triangle with the
    previously kept point and the NEXT bucket's centroid. Series with
    <= n_out points pass through unchanged.

    Scale shape: same ONE hash-bucketed exchange as over_time; the kernel
    loops over the n_out output slots (not input rows) with vectorized
    area computation inside each slot, per series batched via offsets."""
    out_cols = [key_col, order_col, value_col]

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, order_col], kind="stable")
        k = g[key_col].to_numpy()
        x = g[order_col].to_numpy().astype(np.float64)
        y = g[value_col].to_numpy().astype(np.float64)
        new = np.ones(len(g), dtype=bool)
        new[1:] = k[1:] != k[:-1]
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], len(g))
        keep_idx = []
        for s, e in zip(starts, ends):
            n = e - s
            if n <= n_out:
                keep_idx.append(np.arange(s, e))
                continue
            # bucket boundaries over the interior points: edge[j] =
            # round-half-even(j·(n-2) / (n_out-2)) in EXACT integer
            # arithmetic (no float linspace — its rounding is not
            # reproducible across numpy versions or by a SQL mirror)
            j = np.arange(n_out - 1, dtype=np.int64)
            q, rem = np.divmod(j * (n - 2), n_out - 2)
            up = (2 * rem > n_out - 2) | (
                (2 * rem == n_out - 2) & (q % 2 == 1))
            edges = s + 1 + q + up
            kept = [s]
            for bi in range(n_out - 2):
                lo, hi = edges[bi], edges[bi + 1]
                nlo, nhi = edges[bi + 1], (
                    e if bi == n_out - 3 else edges[bi + 2])
                ax, ay = x[kept[-1]], y[kept[-1]]
                cx, cy = x[nlo:nhi].mean(), y[nlo:nhi].mean()
                area = np.abs((ax - cx) * (y[lo:hi] - ay)
                              - (ax - x[lo:hi]) * (cy - ay))
                kept.append(lo + int(np.argmax(area)))
            kept.append(e - 1)
            keep_idx.append(np.array(kept, dtype=np.int64))
        if not keep_idx:
            return g[out_cols].iloc[:0]
        return g.iloc[np.concatenate(keep_idx)][out_cols]

    return exchange(ds, kernel, key_col, n_buckets)


def holt_winters(ds, key_col: str, order_col: str, value_col: str,
                 sf: float = 0.4, tf: float = 0.3, out_col: str = "smoothed",
                 n_buckets: int = 64):
    """PromQL ``holt_winters`` / ``double_exponential_smoothing``: per
    series, level/trend smoothing over its windows in order —
    ``s_i = sf·x_i + (1-sf)·(s_{i-1} + b_{i-1})``,
    ``b_i = tf·(s_i - s_{i-1}) + (1-tf)·b_{i-1}`` with ``s_0 = x_0``,
    ``b_0 = x_1 - x_0`` (Prometheus's seeding). Emits the smoothed level
    per window; series with fewer than 2 samples are dropped (PromQL
    returns no value for them).

    The recurrence is sequential per series but vectorized ACROSS series:
    each hash bucket pivots its series into a (series × window-position)
    matrix and runs ONE loop over positions (max series length), each step
    an array op over every series in the bucket — never a per-series
    Python loop. Float ops are evaluated in exactly the SQL mirror's
    (recursive CTE) order, so results are bit-identical.

    Memory: the pivot is n_series_in_bucket × max_len × 8 B; size
    n_buckets so a bucket's pivot fits a task (same partitioning
    assumption as the gap-fill kernel)."""
    osf, otf = 1.0 - sf, 1.0 - tf

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, order_col], kind="stable")
        k = g[key_col].to_numpy()
        x = g[value_col].to_numpy().astype(np.float64)
        new = np.ones(len(g), dtype=bool)
        new[1:] = k[1:] != k[:-1]
        first = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        pos = np.arange(len(g)) - first[seg]
        lens = np.diff(np.append(first, len(g)))
        keep_series = lens >= 2
        n_s, max_len = len(first), int(lens.max()) if len(lens) else 0
        X = np.full((n_s, max_len), np.nan)
        X[seg, pos] = x
        out = np.full((n_s, max_len), np.nan)
        if max_len >= 2:
            s = X[:, 0].copy()
            b = X[:, 1] - X[:, 0]
            out[:, 0] = s
            for i in range(1, max_len):
                xi = X[:, i]
                live = i < lens
                s_new = sf * xi + osf * (s + b)
                b_new = tf * (s_new - s) + otf * b
                out[live, i] = s_new[live]
                s = np.where(live, s_new, s)
                b = np.where(live, b_new, b)
        val = out[seg, pos]
        outdf = g[[key_col, order_col]].copy()
        outdf[out_col] = val
        return outdf[keep_series[seg]]

    return exchange(ds, kernel, key_col, n_buckets)


def _linreg_stage(ds, key_col: str, order_col: str, value_col: str,
                  n: int, tier_seconds: int, out_col: str, emit,
                  n_buckets: int = 64):
    """Shared trailing-frame least-squares machinery for predict_linear /
    deriv: per series, exact int64 regression sums (Σx, Σy, Σxy, Σx²) over
    the last ``n`` windows by cumsum differencing, x normalized to the
    current row's window index so the ints stay small. ``emit(a, b)``
    maps intercept/slope (per window step) to the output array; rows whose
    frame has zero x-variance are NaN. One hash-bucketed exchange."""

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, order_col], kind="stable")
        k = g[key_col].to_numpy()
        ws = g[order_col].to_numpy().astype(np.int64)
        y = g[value_col].to_numpy()
        if y.dtype.kind not in "iu":
            raise TypeError(
                f"linear regression reads need an integer column for "
                f"exact regression sums, got {y.dtype}")
        yi = y.astype(np.int64)
        wi = ws // tier_seconds  # small window index
        new = np.ones(len(g), dtype=bool)
        new[1:] = k[1:] != k[:-1]
        first = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        pos = np.arange(len(g)) - first[seg]
        cnt = np.minimum(pos + 1, n)

        def frame_sum(v: np.ndarray) -> np.ndarray:
            c = np.cumsum(v)
            s = c.copy()
            back = np.maximum(pos - n, -1) + first[seg]
            has = back >= 0
            s[has] -= c[back[has]]
            return s

        sy = frame_sum(yi)
        sw = frame_sum(wi)
        swy = frame_sum(wi * yi)
        sww = frame_sum(wi * wi)
        # shift x to be relative to the current row's index u (exact ints)
        u = wi
        sx = sw - cnt * u
        sxy = swy - u * sy
        sxx = sww - 2 * u * sw + cnt * u * u
        num = cnt * sxy - sx * sy
        den = cnt * sxx - sx * sx
        with np.errstate(divide="ignore", invalid="ignore"):
            b = num.astype(np.float64) / den
            a = (sy.astype(np.float64) - b * sx.astype(np.float64)) / cnt
            p = emit(a, b)
        p = np.where(den > 0, p, np.nan)
        outdf = g[[key_col, order_col]].copy()
        outdf[out_col] = p
        return outdf

    return exchange(ds, kernel, key_col, n_buckets)


def predict_linear(ds, key_col: str, order_col: str, value_col: str,
                   n: int, steps_ahead: int, tier_seconds: int,
                   out_col: str = "predicted", n_buckets: int = 64):
    """PromQL ``predict_linear(metric[n windows], t)``: per series, least-
    squares regression over the trailing ``n`` windows (ROWS frame
    including the current row), evaluated ``steps_ahead`` windows past the
    current one — the capacity-planning read ("when does the disk fill").

    Exactness: requires an integer value column. Window positions are
    normalized to small per-row-relative integers (x = window index −
    current row's index), so every regression sum (Σx, Σy, Σxy, Σx²) is
    an exact int64 computed by cumsum differencing; the slope/intercept/
    projection are evaluated in the same float op order as the SQL
    mirror, so finite predictions are bit-identical. Frames with zero
    x-variance (a single sample) are NaN on both sides (SQL NULL).

    One exchange: the same hash-bucketed series kernel as over_time."""
    return _linreg_stage(
        ds, key_col, order_col, value_col, n, tier_seconds, out_col,
        lambda a, b: a + b * float(steps_ahead), n_buckets=n_buckets)


def deriv(ds, key_col: str, order_col: str, value_col: str,
          n: int, tier_seconds: int, out_col: str = "deriv",
          n_buckets: int = 64):
    """PromQL ``deriv(metric[n windows])``: the per-SECOND least-squares
    slope of the series over the trailing ``n`` windows (the trend read —
    sign says growing/shrinking, magnitude says how fast). Same exact
    int64 regression sums as predict_linear; the per-window slope is
    divided by the tier width in the same float op order as the SQL
    mirror so finite values are bit-identical. Single-sample frames are
    NaN (SQL NULL)."""
    return _linreg_stage(
        ds, key_col, order_col, value_col, n, tier_seconds, out_col,
        lambda a, b: b / float(tier_seconds), n_buckets=n_buckets)


def irate_idelta(ds, key_col: str, order_col: str, value_col: str,
                 n_buckets: int = 64):
    """PromQL ``irate()`` / ``idelta()``: instantaneous rate and delta from
    the LAST TWO samples of each series at every evaluation point — the
    spiky-counter read (vs ``rate``'s whole-range average). Per series
    sorted by ``order_col`` (window_start, epoch seconds):

    - ``idelta`` = v − v_prev
    - ``irate``  = (v − v_prev) / (w − w_prev) when v ≥ v_prev, else
      v / (w − w_prev) — the counter-reset rule: a decrease means the
      counter restarted, so the post-reset value IS the increase.

    Both are NULL (NaN) on a series' first sample. Requires an integer
    value column so the numerator is exact and the single float division
    is bit-identical to the SQL mirror. One hash-bucketed exchange, same
    kernel shape as over_time — shifted compares, no per-series task."""

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, order_col], kind="stable")
        k = g[key_col].to_numpy()
        w = g[order_col].to_numpy().astype(np.int64)
        v = g[value_col].to_numpy()
        if v.dtype.kind not in "iu":
            raise TypeError(
                f"irate/idelta need an integer column for an exact "
                f"numerator, got {v.dtype}")
        vi = v.astype(np.int64)
        m = len(g)
        same = np.zeros(m, dtype=bool)
        same[1:] = k[1:] == k[:-1]
        dv = np.zeros(m, dtype=np.int64)
        dt = np.ones(m, dtype=np.int64)
        dv[1:] = vi[1:] - vi[:-1]
        dt[1:] = w[1:] - w[:-1]
        num = np.where(dv >= 0, dv, vi)
        with np.errstate(divide="ignore", invalid="ignore"):
            irate = num.astype(np.float64) / dt.astype(np.float64)
        outdf = g[[key_col, order_col]].copy()
        outdf["idelta"] = np.where(same, dv.astype(np.float64), np.nan)
        outdf["irate"] = np.where(same, irate, np.nan)
        return outdf

    return exchange(ds, kernel, key_col, n_buckets)


def resets_changes(ds, key_col: str, order_col: str, value_col: str,
                   n: int, n_buckets: int = 64):
    """PromQL ``resets(metric[n windows])`` and ``changes(metric[n
    windows])`` over tier rows: per series, within the trailing frame of
    the last ``n`` windows (ROWS ``n-1 PRECEDING .. CURRENT ROW``), how
    many consecutive-sample DECREASES (``resets`` — counter-reset
    detection, /root/reference lib/prometheus semantics) and how many
    consecutive-sample value CHANGES (``changes`` — gauge flappiness)
    occurred. The comparison indicator for a row compares it to the
    previous sample of the SAME series (the series' first row scores 0,
    like PromQL's range clipped at the series start); the frame then sums
    indicators — exact int64, order-free.

    One exchange: the same hash-bucketed series kernel as ``over_time`` —
    sort + shifted compare + cumsum differencing, no per-series task."""

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, order_col], kind="stable")
        k = g[key_col].to_numpy()
        v = g[value_col].to_numpy()
        m = len(g)
        new = np.ones(m, dtype=bool)
        new[1:] = k[1:] != k[:-1]
        first_pos = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        pos = np.arange(m) - first_pos[seg]
        same = ~new
        dec = np.zeros(m, dtype=np.int64)
        chg = np.zeros(m, dtype=np.int64)
        if m > 1:
            dec[1:] = ((v[1:] < v[:-1]) & same[1:]).astype(np.int64)
            chg[1:] = ((v[1:] != v[:-1]) & same[1:]).astype(np.int64)
        # trailing-frame sums by cumsum differencing, clipped at the
        # series start (same shape as over_time's sum path)
        back = np.maximum(pos - n, -1) + first_pos[seg]
        has_back = back >= 0
        cd = np.cumsum(dec)
        cc = np.cumsum(chg)
        rd = cd.copy()
        rc = cc.copy()
        rd[has_back] -= cd[back[has_back]]
        rc[has_back] -= cc[back[has_back]]
        outdf = g[[key_col, order_col]].copy()
        outdf["resets"] = rd
        outdf["changes"] = rc
        return outdf

    return exchange(ds, kernel, key_col, n_buckets)


def _splice_label(key: pa.ChunkedArray, dst: str,
                  dstval: pa.Array | pa.ChunkedArray):
    """Rebuild series_keys with label ``dst`` set to ``dstval`` per row:
    any existing ``dst`` is stripped, then (where ``dstval`` is non-empty)
    the label is appended as the LAST label — the engine's rewritten-key
    convention (PromQL label identity is a set; this rendering is the
    documented normal form for relabeled keys). Empty ``dstval`` removes
    the label (PromQL label_replace semantics). All steps are vectorized
    RE2 / concat kernels."""
    # strip an existing dst label: mid (",dst=v"), first-of-many
    # ("{dst=v,"), or only ("{dst=v}")
    stripped = pc.replace_substring_regex(key, rf",{dst}=[^,}}]*", "")
    stripped = pc.replace_substring_regex(stripped, rf"\{{{dst}=[^,}}]*,", "{")
    stripped = pc.replace_substring_regex(stripped, rf"\{{{dst}=[^,}}]*\}}", "{}")
    base = pc.replace_substring_regex(stripped, r"\}$", "")
    sep = pc.if_else(pc.ends_with(base, "{"), "", ",")
    joined = pc.binary_join_element_wise(
        base, sep, f"{dst}=", dstval, "}", "")
    return pc.if_else(pc.equal(dstval, ""), stripped, joined)


def label_replace(ds, dst: str, replacement: str, src: str, regex: str,
                  key_col: str = "series_key"):
    """PromQL ``label_replace(metric, dst, replacement, src, regex)``:
    where ``regex`` FULL-matches the value of label ``src`` (missing label
    = empty string, as in PromQL), set label ``dst`` to ``replacement``
    with ``$1``-style capture-group expansion and rewrite the series_key;
    non-matching rows pass through unchanged. An empty expanded
    replacement removes ``dst``. Element-wise (no shuffle); rewritten keys
    carry ``dst`` as the last label."""
    rewrite = _re.sub(r"\$(\d)", r"\\\1", replacement)
    anchored = rf"^(?:{regex})$"

    def fn(t: pa.Table) -> pa.Table:
        src_t = extract_label(t, src, key_col=key_col, out_col="__src")
        sv = pc.fill_null(src_t["__src"], "")
        matched = pc.match_substring_regex(sv, anchored)
        dstval = pc.replace_substring_regex(sv, anchored, rewrite)
        newkey = pc.if_else(matched,
                            _splice_label(t[key_col], dst, dstval),
                            t[key_col])
        return t.set_column(t.schema.get_field_index(key_col), key_col,
                            newkey)

    return per_batch(ds, fn)


def label_join(ds, dst: str, sep: str, srcs: list[str],
               key_col: str = "series_key"):
    """PromQL ``label_join(metric, dst, sep, src1, src2, ...)``: set label
    ``dst`` to the values of the ``srcs`` labels joined by ``sep``
    (missing labels join as empty strings) and rewrite the series_key.
    Element-wise; same rewritten-key convention as label_replace."""

    def fn(t: pa.Table) -> pa.Table:
        vals = []
        for s in srcs:
            st = extract_label(t, s, key_col=key_col, out_col="__v")
            vals.append(pc.fill_null(st["__v"], ""))
        dstval = pc.binary_join_element_wise(*vals, sep) if len(vals) > 1 \
            else vals[0]
        return t.set_column(t.schema.get_field_index(key_col), key_col,
                            _splice_label(t[key_col], dst, dstval))

    return per_batch(ds, fn)


def clamp(ds, value_col: str, lo: float | None = None,
          hi: float | None = None, out_col: str | None = None):
    """PromQL ``clamp(metric, lo, hi)`` / ``clamp_min`` / ``clamp_max``:
    element-wise bound of a value column (pass lo, hi, or both). No
    shuffle; pure Arrow kernels."""
    if lo is None and hi is None:
        raise ValueError("clamp needs at least one bound")
    out = out_col or value_col

    def fn(t: pa.Table) -> pa.Table:
        v = t[value_col]
        if lo is not None:
            v = pc.max_element_wise(v, pa.scalar(lo, type=v.type))
        if hi is not None:
            v = pc.min_element_wise(v, pa.scalar(hi, type=v.type))
        if out in t.column_names:
            return t.set_column(t.schema.get_field_index(out), out, v)
        return t.append_column(out, v)

    return per_batch(ds, fn)


def alert_state(ds, key_col: str, order_col: str, value_col: str,
                threshold: float, for_windows: int, tier_seconds: int,
                n_buckets: int = 64, keep_firing_windows: int = 0):
    """Prometheus-style alerting rule evaluation over tier rows —
    ``expr > threshold FOR <for_windows> windows`` (the evaluation side
    of the reference's alert delivery sink,
    /root/reference src/sinks/alertmanager — vertex ships alerts, a rule
    engine upstream decides them; here both live in the store's read
    path). Per series sorted by window_start, each sample is classified:

    - ``inactive`` — value ≤ threshold
    - ``pending``  — breaching, but the current CONSECUTIVE breach run
      (contiguous samples exactly ``tier_seconds`` apart; a missing
      window breaks the run, like staleness ending a PromQL vector) is
      shorter than ``for_windows``
    - ``firing``   — the run has reached ``for_windows`` samples

    Also emits ``run`` (consecutive breach count, int64) so downstream
    routing can dedup/throttle notifications. Vectorized run-length via
    the start-marker + cummax trick — no per-series loop; one
    hash-bucketed exchange (same kernel shape as over_time).

    ``keep_firing_windows`` is Prometheus's ``keep_firing_for`` (the
    flap damper, prometheus 2.42 rules surface): once an alert has
    FIRED, samples within that many windows after the LAST firing
    evaluation stay ``firing`` even though the condition no longer
    holds (their ``run`` is 0 — the breach run restarts from scratch;
    only the reported state is held)."""
    keep_s = keep_firing_windows * tier_seconds

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, order_col], kind="stable")
        k = g[key_col].to_numpy()
        w = g[order_col].to_numpy().astype(np.int64)
        v = g[value_col].to_numpy()
        m = len(g)
        cond = v > threshold
        chain = np.zeros(m, dtype=bool)  # continues the previous row's run
        if m > 1:
            chain[1:] = (cond[1:] & cond[:-1] & (k[1:] == k[:-1])
                         & (w[1:] - w[:-1] == tier_seconds))
        start = cond & ~chain
        idx = np.arange(m)
        last_start = np.maximum.accumulate(np.where(start, idx, -1))
        run = np.where(cond, idx - last_start + 1, 0).astype(np.int64)
        firing = run >= for_windows
        state = np.where(run == 0, "inactive",
                         np.where(firing, "firing", "pending"))
        if keep_s and m:
            # keep_firing_for: per series, hold "firing" while the gap
            # to the last BASE-firing window is within the keep horizon
            # (pandas per-group cummax — vectorized, order-safe)
            anchor = pd.Series(np.where(firing, w, np.int64(-1))) \
                .groupby(pd.Series(k)).cummax().to_numpy()
            held = (~firing) & (anchor >= 0) & (w - anchor <= keep_s)
            state = np.where(held, "firing", state)
        outdf = g[[key_col, order_col, value_col]].copy()
        outdf["run"] = run
        outdf["state"] = state
        return outdf

    return exchange(ds, kernel, key_col, n_buckets)


def burn_rate(ds, key_col: str, order_col: str, bad_col: str,
              total_col: str, n_fast: int, n_slow: int, budget: float,
              factor: float, n_buckets: int = 64):
    """Multiwindow SLO burn-rate alert (the Google SRE workbook recipe):
    per series, the error-budget burn rate over a FAST and a SLOW
    trailing frame — ``burn = (Σbad / Σtotal) / budget`` with
    ``budget = 1 − SLO target`` — and ``firing`` when BOTH frames exceed
    ``factor`` (the fast frame makes the alert responsive, the slow frame
    stops flapping).

    Exactness: ``bad_col``/``total_col`` must be integers; frame sums are
    exact int64 cumsum differences and each burn rate is evaluated as
    ``(bad/total)/budget`` in that float op order, mirroring the SQL
    oracle bit-for-bit. Frames are ROWS-based over present windows (same
    contract as over_time). One hash-bucketed exchange."""

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, order_col], kind="stable")
        k = g[key_col].to_numpy()
        bad = g[bad_col].to_numpy()
        tot = g[total_col].to_numpy()
        if bad.dtype.kind not in "iu" or tot.dtype.kind not in "iu":
            raise TypeError("burn_rate needs integer bad/total columns")
        m = len(g)
        new = np.ones(m, dtype=bool)
        new[1:] = k[1:] != k[:-1]
        first_pos = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        pos = np.arange(m) - first_pos[seg]

        def frame_sum(x: np.ndarray, n: int) -> np.ndarray:
            c = np.cumsum(x.astype(np.int64))
            s = c.copy()
            back = np.maximum(pos - n, -1) + first_pos[seg]
            has = back >= 0
            s[has] -= c[back[has]]
            return s

        with np.errstate(divide="ignore", invalid="ignore"):
            bf = (frame_sum(bad, n_fast).astype(np.float64)
                  / frame_sum(tot, n_fast)) / budget
            bs = (frame_sum(bad, n_slow).astype(np.float64)
                  / frame_sum(tot, n_slow)) / budget
        outdf = g[[key_col, order_col]].copy()
        outdf["burn_fast"] = bf
        outdf["burn_slow"] = bs
        outdf["firing"] = (bf > factor) & (bs > factor)
        return outdf

    return exchange(ds, kernel, key_col, n_buckets)


def math_op(ds, value_col: str, fn: str, out_col: str | None = None,
            scalar: float | None = None, scalar_op: str | None = None):
    """PromQL pointwise math functions over an instant/range vector —
    ``abs() ceil() floor() round() sqrt() sgn()`` — optionally composed
    with a scalar arithmetic op (``metric * 2``, ``sqrt(metric) + 1``).
    Embarrassingly parallel per-batch Arrow kernels, no exchange.

    ``abs/ceil/floor/sqrt/sgn`` and the scalar ops are IEEE-exact
    (correctly rounded per the standard), so their results are
    bit-identical to any SQL engine's. ``round`` is the ONE exception:
    it uses Arrow's default ties-to-even (0.5 → 0, 2.5 → 2), while SQL
    engines round ties away from zero (DuckDB round(2.5) = 3) and
    PromQL rounds ties up — do not put ``round`` output under a
    bit-exact oracle. Transcendentals (exp/ln/log2) are deliberately
    absent — libm implementations differ by ulps across engines."""
    fns = {"abs": pc.abs, "ceil": pc.ceil, "floor": pc.floor,
           "round": pc.round, "sqrt": pc.sqrt, "sgn": pc.sign}
    if fn not in fns:
        raise ValueError(f"unsupported math fn: {fn}")
    sops = {"mul": pc.multiply, "add": pc.add, "sub": pc.subtract,
            "div": pc.divide}
    if scalar_op is not None and scalar_op not in sops:
        raise ValueError(f"unsupported scalar op: {scalar_op}")
    out = out_col or fn

    def body(t: pa.Table) -> pa.Table:
        v = fns[fn](pc.cast(t[value_col], pa.float64()))
        if scalar is not None:
            v = sops[scalar_op or "mul"](v, scalar)
        return t.append_column(out, pc.cast(v, pa.float64()))

    return per_batch(ds, body)


def limit_ratio(ds, key_col: str, ratio: float):
    """PromQL ``limit_ratio(r, expr)``: keep a deterministic ~r sample
    of SERIES (every window of a kept series survives — unlike row
    sampling, panels stay continuous). A series is kept iff the first
    64 bits of md5(series_key) < r·2^64, compared as fixed-width hex so
    the DuckDB mirror is the string predicate
    ``substr(md5(series_key), 1, 16) < '<thresh>'`` — same hash, same
    sample, on both sides and on every node. Negative r follows the
    PromQL convention: the COMPLEMENT set, so limit_ratio(0.2, x) and
    limit_ratio(-0.8, x) partition x exactly (keep iff hex >=
    threshold(1+r)). Embarrassingly parallel: a pure per-batch filter,
    no exchange; md5 runs once per DISTINCT key per batch, not per
    row."""
    import hashlib

    if not -1.0 <= ratio <= 1.0:
        raise ValueError(f"limit_ratio wants r in [-1, 1], got {ratio}")
    cut = ratio if ratio >= 0 else 1.0 + ratio
    thresh = format(min(int(cut * (1 << 64)), (1 << 64) - 1), "016x")

    def keep(t: pa.Table) -> pa.Table:
        col = t[key_col]
        uniq = pc.unique(col.combine_chunks()).to_pylist()
        kept = {k for k in uniq
                if (hashlib.md5(k.encode()).hexdigest()[:16] < thresh)
                == (ratio >= 0)}
        return t.filter(pc.is_in(col, value_set=pa.array(
            sorted(kept), type=pa.string())))

    return per_batch(ds, keep)


def window_time(t: pa.Table, window_col: str = "window_start",
                part: str = "hour", out_col: str | None = None) -> pa.Table:
    """PromQL time functions over the evaluation window — the full set:
    ``minute()`` / ``hour()`` (UTC), ``day_of_week()`` (0-6, 0 = Sunday,
    the Prometheus convention), ``day_of_month()``, ``day_of_year()``,
    ``month()``, ``year()`` and ``days_in_month()``.
    minute/hour/day_of_week are pure
    modular arithmetic on epoch seconds; the calendar parts use the
    public-domain civil-from-days algorithm (Howard Hinnant,
    "chrono-compatible low-level date algorithms") — exact integer
    arithmetic, bit-identical to the SQL mirror's
    ``date_part(..., to_timestamp(ws))``. The building block for
    seasonal dashboards (traffic by hour-of-day / day-of-month)."""
    ws = t[window_col].to_numpy()
    days = ws // 86400
    if part == "minute":
        v = (ws % 3600) // 60
    elif part == "hour":
        v = (ws % 86400) // 3600
    elif part == "day_of_week":
        v = (days + 4) % 7
    elif part in ("day_of_month", "month", "year", "days_in_month",
                  "day_of_year"):
        # civil_from_days: numpy // and % are floor/Euclidean for int64,
        # matching the algorithm's requirements for pre-1970 windows too
        z = days + 719468
        era = z // 146097
        doe = z - era * 146097
        yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
        doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
        mp = (5 * doy + 2) // 153
        d = doy - (153 * mp + 2) // 5 + 1
        m = mp + 3 - 12 * (mp >= 10)
        y = yoe + era * 400 + (m <= 2)
        if part == "day_of_month":
            v = d
        elif part == "month":
            v = m
        elif part == "year":
            v = y
        elif part == "day_of_year":
            leap = ((y % 4 == 0) & (y % 100 != 0)) | (y % 400 == 0)
            cum = np.array([0, 31, 59, 90, 120, 151, 181, 212, 243, 273,
                            304, 334], dtype=np.int64)[m - 1]
            v = cum + d + ((m > 2) & leap)
        else:
            leap = ((y % 4 == 0) & (y % 100 != 0)) | (y % 400 == 0)
            dim = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31],
                           dtype=np.int64)[m - 1]
            v = dim + ((m == 2) & leap)
    else:
        raise ValueError(f"unsupported time part: {part}")
    return t.append_column(out_col or part,
                           pa.array(v.astype(np.int64)))


def offset_modifier(ds, order_col: str, offset_seconds: int,
                    rename: dict | None = None):
    """PromQL ``offset`` modifier: re-stamp each sample's evaluation
    window FORWARD by ``offset_seconds``, so vector matching at window w
    sees the value from w - offset. Compose with binary_op for
    self-comparisons (``metric - metric offset 1d`` — day-over-day
    deltas); ``rename`` remaps value columns so the two legs of the
    self-join don't collide. Pure per-batch arithmetic — no exchange of
    its own (the one hash exchange happens in the downstream match)."""

    def fn(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index(order_col)
        t = t.set_column(i, order_col, pc.add(t[order_col],
                                              offset_seconds))
        if rename:
            t = t.rename_columns(
                [rename.get(c, c) for c in t.schema.names])
        return t

    return per_batch(ds, fn)


def absent_over_time(ds, window_col: str = "window_start",
                     tier_seconds: int = 60, start: int | None = None,
                     end: int | None = None, out_col: str = "absent"):
    """PromQL ``absent()`` evaluated across a range — one row
    ``(window, 1)`` for every evaluation window in ``[start, end]``
    (step = the tier) where the selector matched NOTHING; windows with
    any sample are omitted (PromQL absent() returns an empty vector when
    the selector matches). The alerting primitive for "this metric
    stopped reporting".

    Scale contract: the distributed side is a distinct-window reduction
    (Ray ``unique`` — a combiner aggregate whose exchange carries one
    row per distinct window per block, never samples); the spine
    anti-join then runs over the evaluation GRID, whose size is
    range/step — bounded by the dashboard's time axis, independent of
    series count or sample volume. ``start``/``end`` default to the
    observed window range (then only interior gaps report). A driver
    table's distinct windows come from ``pc.unique``, and the result is
    a table."""
    drv = isinstance(ds, pa.Table)
    # Ray's ``unique`` of an empty Dataset is None
    present = np.asarray(sorted(pc.unique(ds[window_col]).to_pylist() if drv
                                else ds.unique(window_col) or []),
                         dtype=np.int64)
    lo = int(start if start is not None
             else (present[0] if len(present) else 0))
    hi = int(end if end is not None
             else (present[-1] if len(present) else -1))
    spine = np.arange(lo, hi + 1, tier_seconds, dtype=np.int64)
    gaps = spine[~np.isin(spine, present)]
    out = pa.table({window_col: gaps,
                    out_col: np.ones(len(gaps), dtype=np.int64)})
    return out if drv else lift(out)


def count_values(ds, value_col: str, window_col: str = "window_start",
                 out_col: str = "n_series", n_buckets: int = 64):
    """PromQL ``count_values("value", metric)``: per window, how many
    series currently report each distinct value — the long-tail
    distribution read (e.g. how many conversations had exactly k turns
    this hour). Combiner pattern: each batch collapses to one row per
    distinct (value, window) BEFORE the one hash exchange, so shuffle
    volume is the distinct-value cardinality per batch, never tier rows;
    int64 partial counts commute, so the merged counts are exact."""

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "__v": t[value_col].to_numpy(zero_copy_only=False),
            window_col: t[window_col].to_numpy(zero_copy_only=False),
        })
        g = (df.groupby(["__v", window_col], sort=False, dropna=False)
             .size().rename("__c").reset_index())
        b = (pd.util.hash_pandas_object(g[["__v", window_col]], index=False)
             .to_numpy() % np.uint64(n_buckets)).astype(np.int64)
        g["__bucket"] = b
        return pa.Table.from_pandas(g, preserve_index=False)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        r = (g.groupby(["__v", window_col], sort=False, dropna=False)
             ["__c"].sum().reset_index())
        r.columns = [value_col, window_col, out_col]
        return r

    return exchange(per_batch(ds, partial), final, "__bucket")


def resample_windows(ds, step_seconds: int, tier_seconds: int,
                     col_ops: dict[str, str],
                     key_col: str = "series_key",
                     window_col: str = "window_start",
                     n_buckets: int = 64):
    """Read-time re-bucketing of tier rows to an arbitrary coarser step
    (the Graphite ``summarize`` / Grafana interval-align analogue): when
    a dashboard asks for a step no tier materializes (e.g. 4h), re-floor
    each window to the step and merge per series with the aggregate's
    own merge rule — ``sum`` (sum/count states), ``min``/``max``
    (order-free), ``last`` (value at the greatest source window — the
    gauge rule; exact because the source window is carried through the
    merge, not arrival order).

    ``step_seconds`` must be a multiple of the tier so windows nest.
    Combiner pattern: each batch collapses to one row per (series, new
    window) BEFORE the one hash exchange; integer partials commute, so
    sums are exact under any merge order."""
    if step_seconds % tier_seconds:
        raise ValueError(
            f"step {step_seconds}s does not nest {tier_seconds}s windows")
    bad = {c: op for c, op in col_ops.items()
           if op not in ("sum", "min", "max", "last")}
    if bad:
        raise ValueError(f"unsupported resample ops: {bad}")
    keys = [key_col, window_col]
    lasts = [c for c, op in col_ops.items() if op == "last"]

    def agg_frame(df: pd.DataFrame) -> pd.DataFrame:
        # gauge-last: the row at the greatest SOURCE window wins — carry
        # __src through both phases so the rule is merge-order-free
        if lasts:
            df = df.sort_values("__src", kind="stable")
        spec = {c: (c, op if op != "last" else (lambda s: s.iloc[-1]))
                for c, op in col_ops.items()}
        spec["__src"] = ("__src", "max")
        return df.groupby(keys, sort=False).agg(**spec).reset_index()

    def partial(t: pa.Table) -> pa.Table:
        df = t.select(keys + list(col_ops)).to_pandas()
        df["__src"] = df[window_col].to_numpy()
        df[window_col] = (df[window_col].to_numpy()
                          // step_seconds * step_seconds)
        g = agg_frame(df)
        b = (pd.util.hash_pandas_object(g[keys], index=False)
             .to_numpy() % np.uint64(n_buckets)).astype(np.int64)
        g["__bucket"] = b
        return pa.Table.from_pandas(g, preserve_index=False)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return agg_frame(g).drop(columns="__src")

    return exchange(per_batch(ds, partial), final, "__bucket")


def limitk(ds, key_col: str, k: int, n_buckets: int = 64):
    """PromQL ``limitk(k, expr)``: a deterministic k-series sample of the
    vector — the k series with the SMALLEST md5(series_key) digest, so
    repeated evaluations (and the SQL mirror's ``ORDER BY md5(key)
    LIMIT k``) pick the identical set, unlike Prometheus' intentionally
    random limitk.

    Scale shape: one metadata-sized exchange — each batch contributes
    its distinct keys trimmed to the k smallest digests (so exchange
    volume is ≤ k per batch, never rows), one merge group picks the
    global k, and the winners (k strings) ride into the membership
    filter as a plain broadcast closure."""
    import hashlib

    if k <= 0:
        raise ValueError("limitk needs k >= 1")

    def partial(t: pa.Table) -> pa.Table:
        u = pc.unique(t[key_col]).to_numpy(zero_copy_only=False)
        h = np.array([hashlib.md5(s.encode()).hexdigest() for s in u],
                     dtype=object)
        ix = np.argsort(h, kind="stable")[:k]
        return pa.table({
            key_col: pa.array(u[ix], type=pa.string()),
            "__h": pa.array(h[ix], type=pa.string()),
            "__one": pa.array(np.zeros(len(ix), dtype=np.int8)),
        })

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        return (g.drop_duplicates(key_col).sort_values("__h", kind="stable")
                .head(k)[[key_col]])

    winners = frozenset(
        exchange(per_batch(ds, partial), pick, "__one").to_pandas()[key_col])

    def filt(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t[key_col],
                                 value_set=pa.array(sorted(winners))))

    return per_batch(ds, filt)
