"""Retention GC over the committed Gorilla block store.

The third word in this engine's charter — rollup, downsample, RETENTION —
as a first-class compaction job: each tier keeps a bounded horizon
(e.g. 1m for 2 days, 1h for 90, 1d forever), and a retention pass
produces a compacted copy of the blocks stage with everything older than
each tier's cutoff removed. The reference's analogue is the
prometheus_exporter sink's TTL expiry (series with no sample within the
TTL stop being served, /root/reference src/sinks/prometheus_exporter.rs:
463-481); here the store is at rest, so expiry is a rewrite pass — the
same shape as a TSDB segment-GC/compaction.

Scale design (what happens per block row, cheapest class first):

1. **expired** (``block_end < cutoff``) — dropped by the parquet scan
   filter itself: the predicate is pushed to row-group statistics, so a
   100 TB store drops most of its expired history from footer stats
   without reading a byte of block payload.
2. **fully retained** (``block_start >= cutoff``) — passes through
   byte-identical; never decoded.
3. **straddling** (``block_start < cutoff <= block_end``) — at most ONE
   block per (series, tier): decoded, windows before the cutoff sliced
   off, re-encoded through the one block writer
   (stages/encode.encode_agg_rows; one vectorized pass per batch of
   straddlers, no per-point loop), which keeps the run-coded layout.

Tiers without a horizon are retained whole. The output is a committed
stage (manifest + lineage with the policy and ``now_s``), so reruns are
idempotent and downstream readers (``decode_tier_blocks``, the PromQL
selectors) work on the compacted store unchanged.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["retention_cutoffs", "apply_retention"]

_MIN64 = np.iinfo(np.int64).min


def _row_cuts(names, tiers, cutoffs: dict,
              name_cutoffs: dict | None) -> np.ndarray:
    """Per block-row cutoff: metric-name override first, then the
    tier default (per-METRIC retention — keep latency 30d but turns
    forever; the loop is over block rows, orders of magnitude fewer
    than points)."""
    if not name_cutoffs:
        return np.array([cutoffs.get(tr, _MIN64) for tr in tiers],
                        dtype=np.int64)
    return np.array(
        [name_cutoffs.get((nm, tr), cutoffs.get(tr, _MIN64))
         for nm, tr in zip(names, tiers)], dtype=np.int64)


def retention_cutoffs(horizons: dict[str, int], now_s: int,
                      tier_seconds: dict[str, int]) -> dict[str, int]:
    """Per-tier cutoff window (inclusive keep-from), aligned down to the
    tier's window size so a cutoff never splits a window."""
    return {
        tier: (now_s - h) // tier_seconds[tier] * tier_seconds[tier]
        for tier, h in horizons.items()
    }


def _rewrite_straddlers(t: pa.Table, cutoffs: dict[str, int],
                        name_cutoffs: dict | None = None) -> pa.Table:
    """Decode (virtual fills expanded) → slice off pre-cutoff windows →
    re-encode through the one block writer, vectorized over the whole
    batch of straddling block rows. The writer folds the surviving fills
    back into run codes, so a run-coded row stays run-coded; fills whose
    real source was cut off stay stored as flagged points."""
    from vertex_ray.stages.encode import decode_blocks_points, encode_agg_rows

    # zero-point rows carry nothing to retain
    t = t.filter(pc.greater(t["n_points"], 0))
    if t.num_rows == 0:
        return encode_agg_rows(t)
    cuts = _row_cuts(t["name"].to_numpy(zero_copy_only=False),
                     t["tier"].to_numpy(zero_copy_only=False),
                     cutoffs, name_cutoffs)
    pts = decode_blocks_points(t)
    keep = (pts["window_start"].to_numpy()
            >= np.repeat(cuts, t["n_points"].to_numpy()))
    return encode_agg_rows(pts.filter(pa.array(keep)))


def retention_pass(t: pa.Table, cutoffs: dict[str, int],
                   name_cutoffs: dict | None = None) -> pa.Table:
    """map_batches body over block rows: route each row to drop /
    pass-through / rewrite by its (metric, tier) cutoff."""
    if t.num_rows == 0:
        return t
    tiers = t["tier"].to_numpy(zero_copy_only=False)
    cuts = _row_cuts(t["name"].to_numpy(zero_copy_only=False), tiers,
                     cutoffs, name_cutoffs)
    b_start = t["block_start"].to_numpy()
    b_end = t["block_end"].to_numpy()
    alive = b_end >= cuts                # scan filter re-applied (exactness)
    whole = alive & (b_start >= cuts)    # fully inside the horizon
    straddle = alive & ~whole
    out = t.filter(pa.array(whole))
    if straddle.any():
        rewritten = _rewrite_straddlers(t.filter(pa.array(straddle)),
                                        cutoffs, name_cutoffs)
        # a pre-runs-column store concats with the rewriter's current
        # BLOCK_SCHEMA output: align on the source's own column set
        if "runs" not in t.schema.names and "runs" in rewritten.schema.names:
            rewritten = rewritten.drop_columns(["runs"])
        rewritten = rewritten.select(t.schema.names)
        out = pa.concat_tables([out, rewritten]) if out.num_rows else rewritten
    return out


def apply_retention(src_out: str, dst_out: str, horizons: dict[str, int],
                    now_s: int, tier_seconds: dict[str, int],
                    src_files: list[str] | None = None,
                    name_horizons: dict | None = None) -> dict:
    """Compact ``src_out``'s committed blocks stage into ``dst_out`` under
    the per-tier retention policy. Committed-stage semantics: idempotent,
    resumable, lineage-stamped with the policy.

    ``src_files`` overrides the single-stage file listing — pass the
    union of per-epoch ``blocks`` dirs to GC a time-chunked epoch store
    (pipelines/epoch_pipeline layout), where most expired blocks drop at
    the scan from row-group statistics and whole in-horizon epochs pass
    through without decode.

    ``name_horizons`` (``{metric_name: {tier: horizon_s}}``) overrides
    the tier default per METRIC — e.g. keep latency histograms 30 d but
    turn counters forever. The parquet scan filter uses each tier's
    LOOSEST cutoff (so pushdown never over-drops); the exact per-name
    cut applies in the pass."""
    import os

    import ray.data as rd

    from vertex_ray.state import fsio
    from vertex_ray.state.checkpoint import (
        read_manifest,
        stage_done,
        stage_files,
        write_stage,
    )

    cutoffs = retention_cutoffs(horizons, now_s, tier_seconds)
    name_cutoffs = {
        (nm, tier): (now_s - h) // tier_seconds[tier] * tier_seconds[tier]
        for nm, per_tier in (name_horizons or {}).items()
        for tier, h in per_tier.items()
    }
    # push the expiry predicate into the scan: expired row-groups (and
    # whole files) are skipped from parquet footer statistics. With
    # per-name overrides, a tier's pushdown cutoff is its LOOSEST
    # (smallest) cut across default + overrides — never over-drops.
    scan_cuts = dict(cutoffs)
    for (nm, tier), cut in name_cutoffs.items():
        if tier in scan_cuts:
            scan_cuts[tier] = min(scan_cuts[tier], cut)
    expr = None
    for tier, cut in scan_cuts.items():
        keep = (pc.field("tier") != tier) | (pc.field("block_end") >= cut)
        expr = keep if expr is None else (expr & keep)
    src = os.path.join(src_out, "blocks")
    files = src_files if src_files is not None else stage_files(src)
    ds = rd.read_parquet(files, filter=expr)
    ds = ds.map_batches(lambda b: retention_pass(b, cutoffs, name_cutoffs),
                        batch_format="pyarrow")
    lineage = {
        "src": src if src_files is None else sorted(src_files),
        "horizons": dict(horizons),
        "now_s": now_s,
        "cutoffs": cutoffs,
    }
    if name_cutoffs:
        lineage["name_horizons"] = {k: dict(v) for k, v in
                                    sorted((name_horizons or {}).items())}
    dst = os.path.join(dst_out, "blocks")
    if stage_done(dst):
        prior = {k: v for k, v in read_manifest(dst).get("lineage", {}).items()
                 if k != "wall_seconds"}
        if prior != lineage:
            # same dst, different policy/input: recompute, never reuse
            fsio.rmtree(dst)
    return write_stage(ds, dst, lineage)
