"""Block compaction: merge a series' per-epoch Gorilla blocks into one
block per (series, tier) — the TSDB-compaction step of the store
lifecycle (ingest → rollup cascade → retention GC → COMPACTION). The
epoch-incremental store (pipelines/epoch_pipeline) writes one block per
(series, tier, epoch); over long retention that multiplies per-block
overhead (headers, footer rows, per-block decode setup) and scatters a
series' history across files. Compaction decodes, re-orders and
re-encodes so each series' windows sit in one (or a few, capped)
contiguous blocks.

Shape: ONE ``groupby(bucket)`` exchange over block rows (the store's own
partitioning key, so a series' blocks across epochs colocate by
construction — bucket is a pure hash of series_key). The group body
decodes and hands the points to the one block writer
(stages/encode.encode_agg_rows), which sorts them, folds the fills an
epoch carried as stored points back into run codes and re-stamps the
stale-NaN payload of markers that stay stored. The output keeps the
run-coded layout, decodes to the exact same points (bit-for-bit), and a
compacted epoch store is byte-identical per (tier, series) to the
one-shot store.

``max_block_windows`` caps points per output block: a series longer than
the cap is split into consecutive chunks (multiple blocks per series is
already a store invariant, e.g. the epoch layout itself); fills never
fold across a chunk boundary. At unbounded retention this keeps single
blocks bounded regardless of series age.
"""

from __future__ import annotations

import pyarrow as pa


def compact_blocks(blocks_ds, *, max_block_windows: int = 1 << 20,
                   tombstones: list | None = None):
    """Block-row Dataset (e.g. ``read_epochs_stage(out, "blocks")``) →
    compacted block-row Dataset: one block per (series, tier) up to
    ``max_block_windows`` points per block.

    ``tombstones`` (state/tombstones stones) are applied PHYSICALLY:
    deleted points are dropped between decode and re-encode, so the
    compacted store no longer needs the tombstone file (the caller
    clears it after committing — the CleanTombstones step). A series
    whose every point is tombstoned simply emits no block."""
    from vertex_ray.stages.encode import decode_blocks_points, encode_agg_rows
    from vertex_ray.state.tombstones import filter_points

    stones = list(tombstones or [])

    def compact_group(g: pa.Table) -> pa.Table:
        return encode_agg_rows(filter_points(decode_blocks_points(g), stones),
                               max_block_windows=max_block_windows)

    return blocks_ds.groupby("bucket").map_groups(
        compact_group, batch_format="pyarrow")
