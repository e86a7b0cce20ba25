"""Stateless per-batch operators — the vertex transform inventory
(SURVEY.md §2.1) re-expressed as vectorized Arrow ``map_batches`` bodies.

Every operator here is a pure function ``pa.Table -> pa.Table`` (or a
factory returning one) intended for ``ds.map_batches(fn,
batch_format="pyarrow")``; none holds state, so Ray schedules them as
elastic tasks. Stateful analogues (dedup LRU, cardinality budget) live in
their own modules.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from vertex_ray.stages.executor import exchange, per_batch

Predicate = Callable[[pa.Table], "pa.ChunkedArray | pa.Array"]


# ---------------------------------------------------------------------------
# filter — src/transforms/filter.rs:68-106: boolean predicate, non-matching
# rows dropped. Predicate is a vectorized Arrow-compute callable.
# ---------------------------------------------------------------------------


def filter_op(pred: Predicate):
    def fn(t: pa.Table) -> pa.Table:
        return t.filter(pred(t))

    return fn


# ---------------------------------------------------------------------------
# sample — src/transforms/sample.rs:76-105: keep 1/N. Key mode hashes a
# field so sampling is consistent for equal keys across runs/partitions;
# count mode keeps every Nth row per batch (the reference's per-process
# counter becomes a per-batch counter — same rate, partition-local phase).
# ---------------------------------------------------------------------------


def _stable_hash_u64(arr: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit hash of stringified values (md5-based like the
    reference's hashmod, relabel.rs:44-48) — stable across processes."""
    uniq, inv = np.unique(arr.astype(str), return_inverse=True)
    h = np.fromiter(
        (
            int.from_bytes(hashlib.md5(s.encode()).digest()[8:16], "big")
            for s in uniq
        ),
        dtype=np.uint64,
        count=len(uniq),
    )
    return h[inv]


def sample_op(rate: int, key_field: str | None = None, method: str = "hash"):
    """method="hash": md5-keyed (consistent, any type); "mod": integer key
    modulo — same consistency guarantee for integer keys and trivially
    oracle-expressible in SQL."""

    def fn(t: pa.Table) -> pa.Table:
        if key_field is not None:
            keys = t[key_field].to_numpy(zero_copy_only=False)
            if method == "mod":
                mask = keys.astype(np.int64) % rate == 0
            else:
                mask = _stable_hash_u64(keys) % rate == 0
        else:
            mask = np.arange(t.num_rows) % rate == 0
        return t.filter(pa.array(mask))

    return fn


# ---------------------------------------------------------------------------
# relabel — src/transforms/relabel.rs:15-131: tag ops over flat tag columns.
# Ops: set, add (if absent), delete, rename, lowercase, uppercase,
# hashmod (md5 % modulus), drop/keep columns by predicate.
# ---------------------------------------------------------------------------


def hashmod_value(s: str, modulus: int) -> int:
    """md5(value) bytes[8:16] big-endian % modulus — matches the reference's
    relabel HashMod vector (relabel.rs tests: hashmod("baz") % 1000 == 976)."""
    return int.from_bytes(hashlib.md5(s.encode()).digest()[8:16], "big") % modulus


def relabel_ops(ops: list[tuple]):
    """ops: list of tuples —
    ("set", col, value) | ("add", col, value) | ("delete", col)
    | ("rename", col, new) | ("lowercase", col) | ("uppercase", col)
    | ("hashmod", col, modulus, out_col)
    | ("drop_regex", pattern[, protect]) | ("keep_regex", pattern[, protect])

    drop_regex / keep_regex retain COLUMNS by name regex — the columnar
    form of the reference's Operation::Drop/Keep over tag keys
    (src/transforms/relabel.rs:44-51, 124-126: tags.retain(regex match)).
    ``protect`` lists non-tag columns (ids, values) always kept."""
    import re

    def fn(t: pa.Table) -> pa.Table:
        for op in ops:
            kind = op[0]
            if kind == "set":
                _, col, value = op
                arr = pa.array(np.full(t.num_rows, value, dtype=object))
                t = (
                    t.set_column(t.schema.get_field_index(col), col, arr)
                    if col in t.schema.names
                    else t.append_column(col, arr)
                )
            elif kind == "add":
                _, col, value = op
                if col not in t.schema.names:
                    t = t.append_column(
                        col, pa.array(np.full(t.num_rows, value, dtype=object))
                    )
            elif kind == "delete":
                if op[1] in t.schema.names:
                    t = t.drop_columns([op[1]])
            elif kind == "rename":
                _, col, new = op
                t = t.rename_columns(
                    [new if n == col else n for n in t.schema.names]
                )
            elif kind == "lowercase":
                i = t.schema.get_field_index(op[1])
                t = t.set_column(i, op[1], pc.utf8_lower(t[op[1]]))
            elif kind == "uppercase":
                i = t.schema.get_field_index(op[1])
                t = t.set_column(i, op[1], pc.utf8_upper(t[op[1]]))
            elif kind == "hashmod":
                _, col, modulus, out = op
                vals = t[col].to_numpy(zero_copy_only=False)
                h = (_stable_hash_u64(vals) % modulus).astype(np.int64)
                t = t.append_column(out, pa.array(h, type=pa.int64()))
            elif kind in ("drop_regex", "keep_regex"):
                pattern = op[1]
                protect = set(op[2]) if len(op) > 2 else set()
                rx = re.compile(pattern)
                if kind == "drop_regex":
                    gone = [n for n in t.schema.names
                            if rx.search(n) and n not in protect]
                else:
                    gone = [n for n in t.schema.names
                            if not rx.search(n) and n not in protect]
                if gone:
                    t = t.drop_columns(gone)
            else:
                raise ValueError(f"unknown relabel op {kind!r}")
        return t

    return fn


# ---------------------------------------------------------------------------
# route — src/transforms/route.rs:73-135: N named boolean conditions → N
# output ports + _unmatched; a row can match several routes. Ray-first:
# evaluate ALL predicates once per batch into boolean columns; each port is
# a cheap filter view of the same blocks.
# ---------------------------------------------------------------------------


def route_flags(routes: dict[str, Predicate]):
    def fn(t: pa.Table) -> pa.Table:
        matched = None
        for name, pred in routes.items():
            m = pred(t)
            if isinstance(m, pa.Array):
                m = pa.chunked_array([m])
            m = pc.fill_null(m, False)
            t = t.append_column(f"route_{name}", m)
            matched = m if matched is None else pc.or_(matched, m)
        t = t.append_column("route__unmatched", pc.invert(matched))
        return t

    return fn


def route_split(ds, routes: dict[str, Predicate]):
    """Returns {port: Dataset} — each port filters the flagged dataset."""
    flagged = ds.map_batches(route_flags(routes), batch_format="pyarrow")
    ports = {}
    for name in list(routes) + ["_unmatched"]:
        col = f"route_{name}"
        ports[name] = flagged.map_batches(
            lambda t, c=col: t.filter(t[c]), batch_format="pyarrow"
        )
    return ports


# ---------------------------------------------------------------------------
# rewrite — src/transforms/rewrite.rs:72-135: run a script over each row;
# failures routed to a named `dropped` output. Ray-first: the script is a
# vectorized batch function returning the rewritten table plus an error
# mask; the dropped port is a second filter view.
# ---------------------------------------------------------------------------


def rewrite_op(script: Callable[[pa.Table], tuple[pa.Table, np.ndarray]]):
    """Wrap a batch rewrite script. The script returns (rewritten_table,
    failed_mask); failed rows keep their original values and are flagged
    in a ``dropped`` column (route them with a filter)."""

    def fn(t: pa.Table) -> pa.Table:
        out, failed = script(t)
        return out.append_column("dropped", pa.array(np.asarray(failed, dtype=bool)))

    return fn


# ---------------------------------------------------------------------------
# throttle — src/transforms/throttle/mod.rs:60-172: per-key rate limit per
# window. In a batch engine this is a per-(key, window) quota: keep the
# first `threshold` events by timestamp (deterministic tie-break on a
# secondary column). A GCRA analogue for live streams would be an actor
# holding per-key state; for bounded data the quota semantics match the
# reference's "at most N per key per window".
# ---------------------------------------------------------------------------


def throttle_quota(
    ds,
    key_col: str,
    ts_col: str,
    window_seconds: int,
    threshold: int,
    tie_col: str,
    n_buckets: int = 256,
):
    """First `threshold` events by (ts, tie) per (key, window).

    Hash-bucketed by key so one task quota-filters a whole bucket of keys
    with ONE vectorized groupby().head() — not a pandas call per distinct
    (key, window), which is task-overhead-bound at billions of keys."""
    import pandas as pd

    def add_window(t: pa.Table) -> pa.Table:
        ts = t[ts_col].cast(pa.int64()).to_numpy()
        w = ts // (window_seconds * 1_000_000) * window_seconds
        keys = t[key_col].to_numpy(zero_copy_only=False)
        bucket = (pd.util.hash_array(keys) % np.uint64(n_buckets)).astype(np.int64)
        return t.append_column(
            "window_start", pa.array(w, type=pa.int64())
        ).append_column("__bucket", pa.array(bucket))

    def take_first(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.sort_values([ts_col, tie_col], kind="stable")
            .groupby([key_col, "window_start"], sort=False)
            .head(threshold)
            .drop(columns=["__bucket"])
        )

    return (
        ds.map_batches(add_window, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(take_first, batch_format="pandas")
    )


def throttle_gcra(
    ds,
    key_col: str,
    ts_col: str,
    window_seconds: int,
    threshold: int,
    tie_col: str,
    n_buckets: int = 256,
):
    """The reference's ACTUAL throttle algorithm — GCRA (generic cell
    rate, the ``gcra`` crate behind
    /root/reference/src/transforms/throttle/rate_limiter.rs:19-56) — in
    event time: per key, emission interval T = window/threshold; an
    event at t conforms iff ``t + window - T >= tat`` and on acceptance
    ``tat = max(t, tat) + T``. Unlike the per-window quota
    (throttle_quota), GCRA enforces the rate CONTINUOUSLY: a burst of
    ``threshold`` passes anywhere, then one more every T — no
    window-boundary reset burst.

    The recurrence is sequential per key, so keys are hash-bucketed into
    ONE exchange and each bucket task runs the scan vectorized ACROSS
    its keys (loop over per-key rank, numpy over all keys at that rank —
    the holt_winters lockstep pattern), never a Python loop over rows.
    All arithmetic is integer microseconds, so a recursive-CTE SQL
    mirror reproduces it bit-for-bit. Emits the input rows plus an
    ``allowed`` flag (the reference drops non-conforming events; filter
    on the flag for that behavior)."""
    import pandas as pd

    W = window_seconds * 1_000_000
    T = W // threshold

    def add_bucket(t: pa.Table) -> pa.Table:
        keys = t[key_col].to_numpy(zero_copy_only=False)
        bucket = (pd.util.hash_array(keys) % np.uint64(n_buckets)).astype(
            np.int64)
        return t.append_column("__bucket", pa.array(bucket))

    def scan(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, tie_col],
                          kind="stable").reset_index(drop=True)
        t_us = g[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        keys = g[key_col].to_numpy()
        n = len(g)
        # segment offsets per key (rows are key-sorted)
        new_key = np.ones(n, dtype=bool)
        new_key[1:] = keys[1:] != keys[:-1]
        starts = np.flatnonzero(new_key)
        counts = np.diff(np.append(starts, n))
        tat = np.full(len(starts), -(2**62), dtype=np.int64)
        allowed = np.zeros(n, dtype=bool)
        for r in range(int(counts.max()) if n else 0):
            live = counts > r
            idx = starts[live] + r
            t = t_us[idx]
            acc = t + (W - T) >= tat[live]
            nt = np.maximum(t, tat[live]) + T
            tat[live] = np.where(acc, nt, tat[live])
            allowed[idx] = acc
        out = g.drop(columns=["__bucket"])
        out["allowed"] = allowed
        return out

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(scan, batch_format="pandas")
    )


def stratified_sample(ds, group_col: str, id_col: str, n_per_group: int,
                      n_buckets: int = 64):
    """Deterministic stratified downsample: keep the ``n_per_group`` rows
    with the smallest ``(md5(str(id)), id)`` per group — the "cap documents
    per domain/source" step of a training-data pipeline (extends the
    reference's consistent hash sampling, ``src/transforms/sample.rs:76-105``,
    from a global rate to a per-stratum quota).

    Scale shape: the per-batch partial keeps only ``n_per_group`` rows per
    (group, batch) — lossless for the global result, because a row in the
    global keep-set ranks in the top n_per_group of every subset it appears
    in — so shuffle volume is bounded by ``n_per_group × groups`` per
    batch regardless of skew. Groups are then hash-bucketed so one task
    finalizes ~groups/n_buckets strata with one vectorized pandas call.

    Oracle form: ``row_number() OVER (PARTITION BY group ORDER BY
    md5(CAST(id AS VARCHAR)), id) <= n_per_group``.
    """
    import pandas as pd

    def add_rank(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        rank = pa.array(
            [hashlib.md5(str(i).encode()).hexdigest() for i in ids],
            type=pa.string(),
        )
        grp = t[group_col].to_numpy(zero_copy_only=False)
        bucket = (pd.util.hash_array(np.ascontiguousarray(grp))
                  % np.uint64(n_buckets)).astype(np.int64)
        t = t.append_column("__rank", rank).append_column(
            "__bucket", pa.array(bucket))
        # partial truncation: top-n per group within this batch
        df = pd.DataFrame({
            "g": grp,
            "r": rank.to_numpy(zero_copy_only=False),
            "i": np.arange(len(t)),
        })
        keep = (
            df.sort_values(["r"], kind="stable")
            .groupby("g", sort=False)
            .head(n_per_group)["i"]
            .to_numpy()
        )
        keep.sort()
        return t.take(pa.array(keep))

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.sort_values(["__rank", id_col], kind="stable")
            .groupby(group_col, sort=False)
            .head(n_per_group)
            .drop(columns=["__rank", "__bucket"])
        )

    return (
        ds.map_batches(add_rank, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(finalize, batch_format="pandas")
    )


def topk_per_group(ds, group_col: str, value_col: str, k: int,
                   tiebreak: str, keep_cols: list[str] | None = None,
                   ascending: bool = False):
    """Top-k rows PER GROUP by value desc (deterministic ties: tiebreak
    asc) — `ROW_NUMBER() OVER (PARTITION BY g ORDER BY v DESC, tb) <= k`.
    ``ascending=True`` is PromQL ``bottomk`` (ORDER BY v ASC, tb).

    Scale shape (combiner pattern): each batch first reduces ITSELF to at
    most k rows per group it contains (vectorized lexsort + segment-rank,
    no Python loop), so the ONE ``groupby(group)`` exchange moves at most
    k × groups-per-batch × batches rows, independent of rows-per-group;
    the per-group finalizer then re-ranks the ≤ k·n_batches survivors.
    """
    cols = list(dict.fromkeys(
        [group_col, value_col, tiebreak] + (keep_cols or [])))

    def _rank_trim(t: pa.Table) -> pa.Table:
        g = t[group_col].to_numpy(zero_copy_only=False)
        v = t[value_col].to_numpy(zero_copy_only=False)
        tb = t[tiebreak].to_numpy(zero_copy_only=False)
        if v.dtype.kind not in "fiu":
            raise TypeError(f"topk_per_group needs a numeric value column, "
                            f"got {v.dtype}")
        if ascending:
            neg = v
        else:
            # descending sort key; for unsigned, max-v is the wrap-safe
            # negation
            neg = (v.max() - v) if v.dtype.kind == "u" and len(v) else -v
        order = np.lexsort((tb, neg, g))
        gs = g[order]
        new = np.ones(len(gs), dtype=bool)
        new[1:] = gs[1:] != gs[:-1]
        seg = np.cumsum(new) - 1
        first_pos = np.flatnonzero(new)
        rank = np.arange(len(gs)) - first_pos[seg]
        keep = order[rank < k]
        return t.select(cols).take(pa.array(np.sort(keep)))

    def _finalize(g: pa.Table) -> pa.Table:
        return _rank_trim(g)

    return exchange(per_batch(ds, _rank_trim), _finalize, group_col,
                    batch_format="pyarrow")


def mix_proportions(ds, group_col: str, id_col: str,
                    targets: dict[str, float], total_out: int,
                    denom: int = 1000):
    """Dataset mixing: deterministically downsample each group (source /
    language / domain) so the output approximates ``total_out`` rows at the
    ``targets`` proportions — the corpus-mixing step of a training-data
    pipeline ("40% web, 30% code, ...").

    Per-group keep rates are derived from per-group counts (ONE tiny
    combiner groupby whose result is #groups rows — bounded by the mixture
    spec, never by data volume) and applied as a deterministic integer
    threshold ``id % denom < floor(rate·denom)``, so membership is a pure
    function of the row — reruns, retries and the SQL oracle all agree,
    and the big side streams through a single stateless filter.  Groups
    absent from ``targets`` are dropped.

    Assumption (documented per the partitioning contract): ``id_col`` is
    uniform modulo ``denom`` within each group (true for any dense or
    hashed id); correlated ids need ``hashmod`` applied first.
    """
    def count_partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        vc = pc.value_counts(t[group_col])
        return pa.table({
            group_col: vc.field("values"),
            "c": pc.cast(vc.field("counts"), pa.int64()),
        })

    counts = (
        ds.map_batches(count_partial, batch_format="pyarrow")
        .groupby(group_col).sum("c")
        .to_pandas()  # #groups rows — the mixture spec, not the data
    )
    thr = {}
    for g, c in zip(counts[group_col], counts.iloc[:, 1]):
        if g in targets and c > 0:
            rate = min(1.0, total_out * targets[g] / float(c))
            thr[g] = int(np.floor(rate * denom))

    def keep(t: pa.Table) -> pa.Table:
        g = t[group_col].to_numpy(zero_copy_only=False)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        th = np.array([thr.get(x, 0) for x in g], dtype=np.int64)
        return t.filter(pa.array((ids % denom) < th))

    return ds.map_batches(keep, batch_format="pyarrow")
