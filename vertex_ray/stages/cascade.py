"""Tier cascade over a committed block store: decode the finest tier
and materialize the coarser continuous aggregates (5m/1h/1d) as new
Gorilla block rows — the flagship cascade (pipelines/rollup_pipeline)
applied AT REST to a store that was ingested without coarser tiers
(scrape ingest, streaming ingest, backfilled stores).

Semantics are the tier-merge contract of FIXTURES.md §F4 via the
array kernel's string-keyed merge (stages/kernel.merge_keyed): sums/counts
add, min/max fold (a NaN poisons its window, as in a direct rollup),
gauge ``last`` by latest window, element-wise histogram bucket adds,
summaries keep their first window (§F10). LOCF fills and
stale markers never feed a coarser tier (a coarser window containing
only markers stays a gap) — same rule as the flagship cascade.

Shape: the store is already hash-partitioned by ``bucket`` (a series'
whole history lives in one bucket), so the WHOLE cascade is one
``groupby(bucket)`` exchange: decode the bucket's source-tier blocks,
merge 1m→5m→1h→1d successively (each coarser tier consumes the
previous tier's aggregate rows, never the raw points again), and encode
each tier through the one block writer (stages/encode.encode_agg_rows)
inside the same task. Coarser tiers are not gap-filled, so their rows
carry neither a runs nor a flags section.

``last_ts`` note: block rows do not persist per-point observation
timestamps, so the gauge last-write tie-break uses the window start —
within one series windows are unique, so this is exact for everything
the store can represent.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from vertex_ray.schema import BLOCK_SCHEMA, TIER_SECONDS, US_PER_SECOND

__all__ = ["cascade_blocks", "cascade_store"]


def cascade_blocks(blocks_ds, *, tiers=("5m", "1h", "1d"),
                   source_tier: str = "1m",
                   tier_seconds: dict | None = None):
    """Source-tier block rows → block rows for every tier in ``tiers``
    (ascending window sizes), one groupby(bucket) exchange total."""
    from vertex_ray.stages.encode import decode_blocks_batch, encode_agg_rows
    from vertex_ray.stages.kernel import keyed_agg, keyed_rows, merge_keyed

    secs = dict(tier_seconds or TIER_SECONDS)
    order = [(t, secs[t]) for t in tiers]
    chain = [(source_tier, secs[source_tier])] + order
    # every target must be strictly coarser than — and an integer
    # multiple of — the tier it merges from, INCLUDING the source
    # (cascading "1m" from a 1m source would silently double the tier)
    bad = [b for a, b in zip(chain, chain[1:])
           if b[1] <= a[1] or b[1] % a[1]]
    if bad:
        raise ValueError(
            f"tiers must be strictly coarser integer multiples of "
            f"{source_tier} in ascending order: {chain}")

    def body(g: pa.Table) -> pa.Table:
        flat = decode_blocks_batch(g)
        if flat.num_rows:
            # markers never feed coarser tiers (FIXTURES §F5)
            flat = flat.filter(pc.and_(
                pc.equal(flat["tier"], source_tier),
                pc.invert(pc.or_(flat["filled"], flat["stale"]))))
        if flat.num_rows == 0:
            return BLOCK_SCHEMA.empty_table()
        w = flat["window_start"].to_numpy()
        flat = (flat.append_column("bucket", pa.array(
                    np.full(len(w), g["bucket"][0].as_py(), np.int32)))
                .append_column("last_ts", pa.array(w * US_PER_SECOND)))
        cur, series = keyed_agg(flat)
        out = []
        for tier_name, tier_s in order:
            cur = merge_keyed(cur, tier_s)
            out.append(encode_agg_rows(keyed_rows(cur, series),
                                       tier=tier_name))
        return pa.concat_tables(out)

    return blocks_ds.groupby("bucket").map_groups(body,
                                                  batch_format="pyarrow")


def cascade_store(src_dir: str, dst_dir: str, *, tiers=("5m", "1h", "1d"),
                  source_tier: str = "1m") -> dict:
    """Materialize coarser tiers for a committed store: reads the
    source tier's blocks from ``src_dir``, writes a ``blocks`` stage at
    ``dst_dir`` containing the source tier UNCHANGED (undecoded
    pass-through) plus the new coarser tiers."""
    import os

    from vertex_ray.pipelines.rollup_pipeline import read_stage
    from vertex_ray.state.checkpoint import write_stage

    src = read_stage(src_dir, "blocks", source_tier)
    coarser = cascade_blocks(src, tiers=tiers, source_tier=source_tier)
    passthrough = read_stage(src_dir, "blocks", source_tier)
    # a pre-runs-column source store must union with the re-encoder's
    # current BLOCK_SCHEMA output: align on the source's own column set
    # (same guard as retention_pass)
    src_names = passthrough.schema().base_schema.names
    if "runs" not in src_names:
        coarser = coarser.map_batches(
            lambda t, _n=tuple(src_names): t.select(list(_n)),
            batch_format="pyarrow")
    combined = passthrough.union(coarser)
    return write_stage(combined, os.path.join(dst_dir, "blocks"),
                       {"cascaded_from": src_dir,
                        "source_tier": source_tier,
                        "tiers": list(tiers)})
