"""The engine's one executor seam. Every step of the ``read`` verbs,
the ``stages.promql`` operators, ``ops.topk_per_group``,
``windows.series_delta``, ``join.hash_join``, the ``promql_lang``
evaluator and the ingests (one-shot, epoch, scrape and incremental
scrape) is built through these functions. Each step runs over one
driver-side ``pa.Table`` or as Ray Data, following the type of its
input: a table stays a table from step to step, so a small read or
ingest runs with no Ray Data execution, and a Dataset keeps the Ray plan
it always had. Nothing here picks the executor; the read gate and memory
guard (``read``) and the ingest gate (``rollup_pipeline.scan``) did that
when they returned a table or a Dataset. Where work is split across
workers is decided here alone: ``exchange`` for an operator's merge,
``per_group`` for an ingest's bucket body."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd


def lift(x):
    """``x`` as a Dataset: a driver table becomes a one-block Dataset."""
    return rd.from_arrow(x) if isinstance(x, pa.Table) else x


def schema(x) -> pa.Schema | None:
    """The schema of a table, or of a Dataset (which may execute it)."""
    return x.schema if isinstance(x, pa.Table) else x.schema()


def _hash_bucket(t: pa.Table, key_col: str, n_buckets: int) -> pa.Table:
    """Append the hash bucket of ``key_col`` as ``__bucket``: series are
    hash-bucketed so each group is ONE vectorized kernel call over many
    whole series (never a per-series task). \x1f-free string hash via
    pandas (see pandas-hash-nul note: bucket inputs are single columns
    here, no composite separator needed)."""
    k = t[key_col].to_numpy(zero_copy_only=False)
    b = (pd.util.hash_array(np.ascontiguousarray(k))
         % np.uint64(n_buckets)).astype(np.int64)
    return t.append_column("__bucket", pa.array(b))


def _one_bucket(t: pa.Table) -> pa.Table:
    return t.append_column("__bucket",
                           pa.array(np.zeros(len(t), dtype=np.int64)))


def per_batch(x, fn):
    """One per-batch step: ``fn`` over the driver's table, or as
    ``map_batches``. The driver calls ``fn`` on a zero-row table too, so
    an empty result keeps the step's columns."""
    if isinstance(x, pa.Table):
        return fn(x)
    return x.map_batches(fn, batch_format="pyarrow")


def exchange(x, merge, key: str | None = None, n_buckets: int | None = None,
             batch_format: str = "pandas"):
    """An operator's one exchange: ``merge`` per group. The groups are
    the hash buckets of ``key`` when ``n_buckets`` is given (a
    ``__bucket`` column), else the values of the column ``key``, else
    one group (``__bucket`` = 0). In the driver the whole table is one
    group (with ``__bucket`` = 0 where Ray Data would add one), so
    ``merge`` runs once."""
    bucketed = key is None or n_buckets is not None
    if isinstance(x, pa.Table):
        t = _one_bucket(x) if bucketed else x
        if batch_format == "pyarrow":
            return merge(t)
        out = pa.Table.from_pandas(merge(t.to_pandas()),
                                   preserve_index=False)
        # pandas holds strings as objects, and an empty object column
        # converts to Arrow's null type, which string kernels reject
        return out if out.num_rows else out.cast(pa.schema(
            [f.with_type(pa.string()) if pa.types.is_null(f.type) else f
             for f in out.schema]))
    if bucketed:
        x = x.map_batches(_one_bucket if key is None else (
            lambda t, k=key: _hash_bucket(t, k, n_buckets)),
            batch_format="pyarrow")
        key = "__bucket"
    return x.groupby(key).map_groups(merge, batch_format=batch_format)


def split_by_bucket(t: pa.Table, n_buckets: int):
    """The driver's bucket split: ``(bucket id, rows)`` for each
    non-empty value of ``t``'s ``bucket`` column in ``range(n_buckets)``,
    in bucket order — one stable argsort, one slice per bucket, rows in
    input order within a bucket."""
    b = t["bucket"].to_numpy()
    order = np.argsort(b, kind="stable")
    groups = t.take(order)
    edges = np.searchsorted(b[order], np.arange(n_buckets + 1))
    for bucket_id, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        if hi > lo:
            yield bucket_id, groups.slice(lo, hi - lo)


def per_group(x, body):
    """An ingest's one exchange: ``body`` once per value of the
    ``bucket`` column. In the driver that is ``split_by_bucket``, the
    body called bucket by bucket in this process and its results
    concatenated; a table with no row gets one call on itself, so an
    empty result keeps the body's columns. Over a Dataset it is
    ``groupby("bucket").map_groups``."""
    if not isinstance(x, pa.Table):
        return x.groupby("bucket").map_groups(body, batch_format="pyarrow")
    n = pc.max(x["bucket"]).as_py() + 1 if x.num_rows else 0
    parts = [body(g) for _, g in split_by_bucket(x, n)]
    return pa.concat_tables(parts) if parts else body(x)


def union(parts: list):
    """Concatenation of results: in the driver when every part is a
    table (columns matched by name), else a zero-shuffle
    ``Dataset.union`` with each table part lifted."""
    if all(isinstance(p, pa.Table) for p in parts):
        full = [p for p in parts if p.num_rows]
        return (pa.concat_tables(full, promote_options="default")
                if full else parts[0])
    ds = [lift(p) for p in parts]
    return ds[0].union(*ds[1:]) if len(ds) > 1 else ds[0]
