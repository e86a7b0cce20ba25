"""Distributed hash equi-join for two LARGE datasets.

The broadcast form (stages/enrich.EnrichLookup, the geoip pattern from
src/transforms/geoip.rs:85-91) covers a small static side; this is the
general shuffle join: tag each side, hash-bucket both on the join key,
union, then ONE ``groupby(__bucket)`` exchange with a vectorized pandas
merge inside each bucket.

Partitioning assumptions (documented per the custom-operator contract):
- ``n_buckets`` bounds per-task memory: each bucket task holds roughly
  (|L| + |R|) / n_buckets rows — size it so that fits a worker heap.
- join-key dtype must match between the two sides (the bucket hash is
  dtype-sensitive).
- in plain :func:`hash_join` a single hot key lands in one bucket; for
  power-law keys use :func:`hash_join_skewed`, which detects hot keys with
  a Misra-Gries probe and routes them through a broadcast path while cold
  keys take the ordinary exchange.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from vertex_ray.stages.executor import exchange, per_batch, schema, union


def _arrow_type(t) -> pa.DataType:
    """Normalize a Dataset schema type (arrow type for arrow-backed blocks,
    numpy dtype for pandas-backed ones) to a pyarrow DataType."""
    if isinstance(t, pa.DataType):
        return t
    dt = np.dtype(t)
    if dt == np.dtype(object):  # pandas object column: strings by convention
        return pa.string()
    return pa.from_numpy_dtype(dt)


def _bucket_of(col: pa.ChunkedArray | pa.Array, n_buckets: int) -> np.ndarray:
    vals = col.to_numpy(zero_copy_only=False)
    return (pd.util.hash_array(vals) % np.uint64(n_buckets)).astype(np.int64)


def hash_join(
    left,
    right,
    left_on: str,
    right_on: str | None = None,
    *,
    n_buckets: int = 64,
    how: str = "inner",
    rsuffix: str = "_r",
):
    """Hash-partitioned equi-join of two Datasets (ONE shuffle), or, when
    both sides are driver tables, the same merge over one table in the
    driver (stages/executor); a table joined with a Dataset is lifted.

    Returns a Dataset with the left key column (named ``left_on``), all
    left payload columns, and all right payload columns (collisions get
    ``rsuffix``). ``how`` is 'inner' or 'left' (left-outer: unmatched left
    rows carry nulls in the right columns), or 'semi' / 'anti' — left rows
    with ≥1 / 0 right-side key matches, emitted at most once each with
    left columns only (SQL EXISTS / NOT EXISTS). Duplicate keys on both
    sides expand to the full per-key cartesian product for inner/left,
    like SQL.
    """
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(
            f"how must be 'inner', 'left', 'semi' or 'anti', got {how!r}")
    right_on = right_on or left_on
    ls, rs = schema(left), schema(right)
    if ls is None or rs is None:
        raise ValueError(
            "hash_join needs typed schemas on both sides; Ray could not "
            "infer one (dataset has no blocks at all — an empty TABLE, not "
            "just empty partitions). Give the input an explicit schema or "
            "skip the join when a side is schemaless.")
    l_payload = [
        (n, _arrow_type(t)) for n, t in zip(ls.names, ls.types) if n != left_on
    ]
    key_type = _arrow_type(dict(zip(ls.names, ls.types))[left_on])
    l_names = set(ls.names)
    r_payload = [
        ((n + rsuffix) if n in l_names else n, n, _arrow_type(t))
        for n, t in zip(rs.names, rs.types)
        if n != right_on
    ]
    if how in ("semi", "anti"):
        # existence checks never read right payloads: drop them from the
        # tagged schema entirely, so only right KEYS cross the exchange
        r_payload = []
    l_out = [n for n, _ in l_payload]
    r_out = [n for n, _, _ in r_payload]

    def prep_left(t: pa.Table) -> pa.Table:
        n = t.num_rows
        cols: dict[str, pa.Array | pa.ChunkedArray] = {
            "__key": t[left_on].cast(key_type),
            "__bucket": pa.array(_bucket_of(t[left_on], n_buckets)),
            "__side": pa.array(np.zeros(n, dtype=np.int8)),
        }
        for name, typ in l_payload:
            cols[name] = t[name].cast(typ)
        for name, _src, typ in r_payload:
            cols[name] = pa.nulls(n, typ)
        return pa.table(cols)

    def prep_right(t: pa.Table) -> pa.Table:
        if how in ("semi", "anti"):
            # per-batch distinct right keys (combiner): existence only
            # needs each key once, so the shuffle carries the batch's key
            # SET, not its rows
            keys = t[right_on].cast(key_type)
            t = pa.table({right_on: pc.unique(
                keys.combine_chunks() if isinstance(keys, pa.ChunkedArray)
                else keys)})
        n = t.num_rows
        cols: dict[str, pa.Array | pa.ChunkedArray] = {
            "__key": t[right_on].cast(key_type),
            "__bucket": pa.array(_bucket_of(t[right_on], n_buckets)),
            "__side": pa.array(np.ones(n, dtype=np.int8)),
        }
        for name, typ in l_payload:
            cols[name] = pa.nulls(n, typ)
        for name, src, typ in r_payload:
            cols[name] = t[src].cast(typ)
        return pa.table(cols)

    tagged = union([per_batch(left, prep_left), per_batch(right, prep_right)])

    semi_like = how in ("semi", "anti")
    out_fields = [(left_on, key_type)] + [(n, t) for n, t in l_payload]
    if not semi_like:
        out_fields += [(n, t) for n, _, t in r_payload]
    out_schema = pa.schema(out_fields)

    def merge(g: pa.Table) -> pa.Table:
        # stays in Arrow end to end (no pandas hop, so no int64 → float64
        # widening for nullable right columns on a left join): rank-compress
        # the bucket's keys, sort the right side ONCE, then two vectorized
        # searchsorteds give every probe its [lo, hi) match slice and
        # np.repeat expands — loop-free, like the asof/range kernels.
        import pyarrow.compute as pc

        side = np.concatenate([c.to_numpy() for c in g["__side"].chunks]) \
            if g["__side"].num_chunks != 1 else g["__side"].chunk(0).to_numpy()
        L = g.filter(pa.array(side == 0))
        R = g.filter(pa.array(side == 1))
        empty = pa.table(
            {f.name: pa.array([], type=f.type) for f in out_schema})
        if not len(L) or (how in ("inner", "semi") and not len(R)):
            return empty
        if how == "anti" and not len(R):
            return pa.table(
                {left_on: L["__key"], **{c: L[c] for c in l_out}}
            ).cast(out_schema)
        lk = L["__key"].to_numpy(zero_copy_only=False)
        rk = R["__key"].to_numpy(zero_copy_only=False)
        allk = np.concatenate([lk, rk])
        _, inv = np.unique(allk, return_inverse=True)
        l_kr, r_kr = inv[:len(lk)], inv[len(lk):]
        order = np.argsort(r_kr, kind="stable")
        r_sorted = r_kr[order]
        lo = np.searchsorted(r_sorted, l_kr, side="left")
        hi = np.searchsorted(r_sorted, l_kr, side="right")
        counts = hi - lo
        if semi_like:
            sel = np.flatnonzero(counts > 0 if how == "semi" else counts == 0)
            return pa.table({
                left_on: pc.take(L["__key"], pa.array(sel)),
                **{c: pc.take(L[c], pa.array(sel)) for c in l_out},
            }).cast(out_schema)
        li = np.repeat(np.arange(len(L), dtype=np.int64), counts)
        total = int(counts.sum())
        starts = np.repeat(lo, counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
        ri = order[starts + within]
        out = {left_on: pc.take(L["__key"], pa.array(li))}
        for c in l_out:
            out[c] = pc.take(L[c], pa.array(li))
        for c in r_out:
            out[c] = pc.take(R[c], pa.array(ri))
        # cast each piece to the declared schema BEFORE any concat: a bucket
        # whose input blocks carried a null-typed (all-null) column would
        # otherwise mismatch its sibling (null casts losslessly to any type)
        t = pa.table(out).cast(out_schema)
        if how == "left":
            un = np.flatnonzero(counts == 0)
            if len(un):
                extra = {left_on: pc.take(L["__key"], pa.array(un))}
                for c in l_out:
                    extra[c] = pc.take(L[c], pa.array(un))
                for c, typ in [(n, ty) for n, _s, ty in r_payload]:
                    extra[c] = pa.nulls(len(un), type=typ)
                t = pa.concat_tables([t, pa.table(extra).cast(out_schema)])
        return t

    return exchange(tagged, merge, "__bucket", batch_format="pyarrow")


def hash_join_skewed(left, right, left_on, right_on=None, *, how="inner",
                     n_buckets: int = 64, rsuffix: str = "_r",
                     hot_keys=None, max_hot: int = 32,
                     hot_fraction: float = 0.01, mg_counters: int = 256):
    """Skew-aware :func:`hash_join`: identical semantics, different plan
    for HOT keys. A plain hash join puts all rows of one key in one bucket
    — a key holding 5% of a 100-TB table serializes 5 TB through a single
    task. Here the hot keys take the broadcast path instead:

      1. DETECT — a Misra-Gries heavy-hitter pass over the left keys
         (mergeable sketch, ≤ ``mg_counters`` rows per batch cross the
         wire); keys with estimated frequency ≥ ``hot_fraction`` (top
         ``max_hot``) are hot. Callers who already know their hot keys
         pass ``hot_keys`` and skip the probe.
      2. SPLIT — both sides split on hot-key membership with one
         broadcast set + vectorized ``np.isin`` filter per batch.
      3. COLD keys take the normal co-partitioned exchange.
      4. HOT keys: the right side's hot rows are collected and broadcast
         (``ray.put`` once), and the left side's hot rows stream through a
         stateless ``map_batches`` probe — hot keys are spread over ALL
         tasks instead of one bucket. Partitioning assumption: the right
         side's hot rows fit in one worker (documented bound — the same
         one any broadcast join has; the LEFT side's hot rows stay
         distributed, which is the point).
      5. UNION of the two result streams.
    """
    import ray

    right_on = right_on or left_on
    if hot_keys is None:
        from vertex_ray.stages.sketch import heavy_hitters

        total = left.count()
        hh = heavy_hitters(left, left_on, mg_counters, top=max_hot)
        hh = hh.to_pandas() if hasattr(hh, "to_pandas") else hh
        if total == 0 or len(hh.columns) < 2:
            hot_keys = []  # empty probe → plain join handles the rest
        else:
            hot_keys = [
                v for v, c in zip(hh.iloc[:, 0], hh.iloc[:, 1])
                if c >= hot_fraction * total
            ][:max_hot]
    hot = np.sort(np.asarray(list(hot_keys)))
    if len(hot) == 0:
        return hash_join(left, right, left_on, right_on,
                         n_buckets=n_buckets, how=how, rsuffix=rsuffix)
    hot_ref = ray.put(hot)

    def split(key_col, want_hot):
        def fn(t: pa.Table) -> pa.Table:
            k = t[key_col].to_numpy(zero_copy_only=False)
            m = np.isin(k, ray.get(hot_ref))
            return t.filter(pa.array(m if want_hot else ~m))

        return fn

    cold = hash_join(
        left.map_batches(split(left_on, False), batch_format="pyarrow"),
        right.map_batches(split(right_on, False), batch_format="pyarrow"),
        left_on, right_on, n_buckets=n_buckets, how=how, rsuffix=rsuffix)

    # hot path: broadcast the right side's hot rows once
    ls, rs = left.schema(), right.schema()
    l_names = set(ls.names)
    r_payload = [((n + rsuffix) if n in l_names else n, n, _arrow_type(t))
                 for n, t in zip(rs.names, rs.types) if n != right_on]
    if how in ("semi", "anti"):
        r_payload = []
    l_payload_names = [n for n in ls.names if n != left_on]

    hot_blocks = [
        b for b in right.map_batches(split(right_on, True),
                                     batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow", batch_size=None)
    ]
    right_hot_tbl = pa.concat_tables(hot_blocks) if hot_blocks else pa.table(
        {n: pa.array([], type=_arrow_type(t))
         for n, t in zip(rs.names, rs.types)})
    # sort broadcast rows by key once, on the driver (bounded by contract)
    rk = right_hot_tbl[right_on].to_numpy(zero_copy_only=False)
    order = np.argsort(rk, kind="stable")
    right_sorted = right_hot_tbl.take(pa.array(order))
    rk_sorted = rk[order]
    rh_ref = ray.put((rk_sorted, right_sorted))

    def probe_hot(t: pa.Table) -> pa.Table:
        rk_s, r_tbl = ray.get(rh_ref)
        lk = t[left_on].to_numpy(zero_copy_only=False)
        lo = np.searchsorted(rk_s, lk, side="left")
        hi = np.searchsorted(rk_s, lk, side="right")
        counts = hi - lo
        if how in ("semi", "anti"):
            sel = np.flatnonzero(counts > 0 if how == "semi" else counts == 0)
            # same column ORDER as the cold side, so union schemas line up
            return t.take(pa.array(sel)).select([left_on, *l_payload_names])
        li = np.repeat(np.arange(len(lk), dtype=np.int64), counts)
        total_m = int(counts.sum())
        starts = np.repeat(lo, counts)
        within = np.arange(total_m, dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
        ri = starts + within
        out = {left_on: pc.take(t[left_on], pa.array(li))}
        for c in l_payload_names:
            out[c] = pc.take(t[c], pa.array(li))
        for name, src, typ in r_payload:
            out[name] = pc.take(r_tbl[src], pa.array(ri)).cast(typ)
        tbl = pa.table(out)
        if how == "left":
            un = np.flatnonzero(counts == 0)
            if len(un):
                extra = {left_on: pc.take(t[left_on], pa.array(un))}
                for c in l_payload_names:
                    extra[c] = pc.take(t[c], pa.array(un))
                for name, _src, typ in r_payload:
                    extra[name] = pa.nulls(len(un), type=typ)
                tbl = pa.concat_tables([tbl, pa.table(extra)])
        return tbl

    hot_res = left.map_batches(split(left_on, True), batch_format="pyarrow") \
                  .map_batches(probe_hot, batch_format="pyarrow")
    return cold.union(hot_res)
