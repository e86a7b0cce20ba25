"""Streaming Gorilla encode: actor pool holding per-partition OPEN-block
encoder state across micro-batches.

The batch pipeline (rollup_pipeline / epoch_pipeline) closes one block
per (series, tier) per run or per epoch — a run boundary forces a block
boundary. A long-lived INGEST deployment instead wants blocks cut by
SIZE (n points), independent of micro-batch cadence: an encoder that
keeps each series' open tail buffered until it has a full block, no
matter how many micro-batches it took to arrive (the reference's sink
buffers hold exactly this per-series accumulation state —
/root/reference lib/framework/src/sink/buffer/metrics.rs:19,168).

This is the one place the Dataset API genuinely can't express the
semantics: ``map_batches`` with a callable class gives per-ACTOR state,
but does not co-route a series' later micro-batches to the same actor.
So the stage drops to raw Ray actors (SURVEY §2 extension contract):
``StreamGorillaEncoder`` is a plain class (unit-testable, and usable
behind ``ray.remote``), and ``stream_encode`` drives a pool of them with
explicit hash routing — series_key hash picks the actor, so one actor
owns each series for the stream's lifetime. Points must arrive
time-ordered per series (the ingest contract; epochs replaying out of
order go through backfill_merge instead).

Closed blocks are NOT store blocks. A stream block is one row per
(series, block): ``series_key, block_start, block_end, n_points,
ts_block, val_block``, its two streams written with the engine's one
Gorilla codec (gorilla.encode_timestamps_multi /
encode_values_multi_shared — every block one ``append`` or ``flush``
closes in one call) and read back with ``decode_stream_blocks``, which
raises ValueError on a block that does not fit its ``n_points``. The
store's layout is schema.BLOCK_SCHEMA, written by stages/encode; a
stream block has no ``kind``, ``tier``, ``val_blocks`` or ``flags``, so
decode_blocks_batch, compaction and retention cannot read it, the OOO
blocks included.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from vertex_ray.gorilla import (
    _excl_cumsum,
    decode_timestamps_multi_flat,
    decode_values_multi_flat,
    encode_timestamps_multi,
    encode_values_multi_shared,
    stream_buffer,
)

__all__ = ["StreamGorillaEncoder", "decode_stream_blocks", "stream_encode"]

_SCHEMA = pa.schema([
    ("series_key", pa.string()),
    ("block_start", pa.int64()),
    ("block_end", pa.int64()),
    ("n_points", pa.int32()),
    ("ts_block", pa.binary()),
    ("val_block", pa.binary()),
])
_EMPTY = _SCHEMA.empty_table()


def _encode_blocks(keys: list, ts: list, vals: list) -> pa.Table:
    """Block rows for the series point runs ``(keys[i], ts[i], vals[i])``,
    every run one block, all encoded in one codec call per stream."""
    if not keys:
        return _EMPTY
    offsets = _excl_cumsum([len(t) for t in ts])
    flat_ts = np.concatenate(ts)
    return pa.table({
        "series_key": keys,
        "block_start": flat_ts[offsets[:-1]],
        "block_end": flat_ts[offsets[1:] - 1],
        "n_points": np.diff(offsets),
        "ts_block": encode_timestamps_multi(flat_ts, offsets),
        "val_block": encode_values_multi_shared([np.concatenate(vals)],
                                                offsets)[0],
    }, schema=_SCHEMA)


def decode_stream_blocks(blocks: pa.Table) -> pa.Table:
    """Stream block rows → one ``(series_key, window_start, value)`` row
    per point, blocks in row order. Raises ValueError when a block's
    streams do not fit its ``n_points`` (truncated, inflated or corrupt),
    before anything per point is sized from that count."""
    n = blocks["n_points"].to_numpy(zero_copy_only=False)
    if blocks["n_points"].null_count or (n < 0).any():
        raise ValueError("stream blocks with a null or negative n_points")
    n = n.astype(np.int64)

    def decode(fn, col):
        buf, off = stream_buffer(blocks[col].combine_chunks())
        return fn(buf, 8 * off[:-1], 8 * off[1:], n)

    # timestamps first: they bound n by the blocks' lengths
    ts = decode(decode_timestamps_multi_flat, "ts_block")
    return pa.table({
        "series_key": blocks["series_key"].take(
            np.repeat(np.arange(len(n)), n)),
        "window_start": ts,
        "value": decode(decode_values_multi_flat, "val_block"),
    })


class StreamGorillaEncoder:
    """Per-partition open-block state: ``{series_key: (ts[], val[])}``.

    ``append`` folds a micro-batch into the buffers and returns the
    blocks it CLOSED (every full ``max_points`` run); ``flush`` closes
    whatever remains. Block rows carry footer stats (block_start/end,
    n_points), so a reader can prune them by time before decoding.

    Effectively-once under at-least-once delivery: each series carries a
    high-water mark (last accepted timestamp, surviving flush); a
    retried/re-delivered micro-batch's points at or below it are
    silently dropped, so a replayed stream encodes byte-identically to
    the clean stream — no source coordination needed because exactly one
    actor owns each series.

    Out-of-order ingest (``ooo_window_s`` > 0 — the Prometheus 2.39
    ``out_of_order_time_window`` analogue): a point at or below the
    high-water mark is no longer unconditionally dropped. If its
    timestamp lies within ``ooo_window_s`` of the series head AND was
    never ingested (the actor remembers every accepted timestamp inside
    the horizon — bounded by horizon/tier-width values per series), it
    is a GENUINELY LATE sample and lands in a per-series OOO buffer,
    emitted as its own block rows at flush. Because duplicates are
    rejected against that memory, the invariant "each (series, tier,
    window) appears exactly once" holds with no downstream dedup: an OOO
    block decodes like any other stream block.
    Redelivered replays (same ts, already ingested) still drop silently;
    points older than the horizon still drop (too-old, as in
    Prometheus)."""

    def __init__(self, max_points: int = 256, ooo_window_s: int = 0):
        self.max_points = int(max_points)
        self.ooo_window_s = int(ooo_window_s)
        self._ts: dict[str, list[np.ndarray]] = {}
        self._val: dict[str, list[np.ndarray]] = {}
        # per-series high-water mark (last accepted timestamp): an
        # at-least-once source that RETRIES a micro-batch replays points
        # the actor already buffered or closed; dropping ts <= hwm makes
        # ingest effectively-once without any coordination (the actor is
        # the single owner of its series, so the hwm is authoritative)
        self._hwm: dict[str, int] = {}
        # OOO state (only populated when ooo_window_s > 0): accepted
        # timestamps within the horizon (sorted), and the late buffer
        self._recent: dict[str, np.ndarray] = {}
        self._ooo_ts: dict[str, list[np.ndarray]] = {}
        self._ooo_val: dict[str, list[np.ndarray]] = {}

    def _ingest_ooo(self, key: str, accepted_ts: np.ndarray,
                    rej_ts: np.ndarray, rej_val: np.ndarray) -> None:
        """Fold a segment's accepted timestamps into the horizon memory
        and divert genuinely-late rejected points into the OOO buffer
        (duplicates — redelivery — and too-old points drop)."""
        hwm = self._hwm.get(key)
        if hwm is None:
            return  # nothing ingested yet — nothing can be "late"
        horizon = hwm - self.ooo_window_s
        recent = self._recent.get(key, np.zeros(0, dtype=np.int64))
        recent = recent[recent > horizon]
        if len(accepted_ts):
            recent = np.concatenate(
                [recent, accepted_ts[accepted_ts > horizon]])
        self._recent[key] = recent
        if not len(rej_ts):
            return
        # late candidates: inside the horizon, never ingested, not
        # already buffered, first occurrence within this segment
        cand = (rej_ts > horizon) & (rej_ts <= hwm) \
            & ~np.isin(rej_ts, recent)
        if self._ooo_ts.get(key):
            cand &= ~np.isin(rej_ts, np.concatenate(self._ooo_ts[key]))
        if not cand.any():
            return
        lt, lv = rej_ts[cand], rej_val[cand]
        _, first = np.unique(lt, return_index=True)
        self._ooo_ts.setdefault(key, []).append(lt[np.sort(first)])
        self._ooo_val.setdefault(key, []).append(lv[np.sort(first)])

    def append(self, t: pa.Table, key_col: str = "series_key",
               ts_col: str = "window_start",
               val_col: str = "value") -> pa.Table:
        k = t[key_col].to_numpy(zero_copy_only=False)
        ts = t[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        val = t[val_col].to_numpy(zero_copy_only=False).astype(np.float64)
        # one stable sort groups the batch by series (ts order preserved
        # within a series — the ingest contract)
        order = np.argsort(k, kind="stable")
        k, ts, val = k[order], ts[order], val[order]
        new = np.ones(len(k), dtype=bool)
        new[1:] = k[1:] != k[:-1]
        starts = np.flatnonzero(new)
        ends = np.concatenate([starts[1:], [len(k)]])
        keys, cts, cvals = [], [], []  # the blocks this call closes
        for s, e in zip(starts, ends):
            key = k[s]
            seg_ts, seg_val = ts[s:e], val[s:e]
            # replay guard: keep only strictly-increasing points above
            # the series' high-water mark (drops re-delivered batches
            # AND intra-batch duplicates in one cummax pass)
            floor = self._hwm.get(key, np.iinfo(np.int64).min)
            prev = np.maximum.accumulate(
                np.r_[np.int64(floor), seg_ts[:-1]])
            keep = seg_ts > prev
            rej_ts, rej_val = seg_ts[~keep], seg_val[~keep]
            if not keep.all():
                seg_ts, seg_val = seg_ts[keep], seg_val[keep]
            if len(seg_ts):
                self._hwm[key] = int(seg_ts[-1])
            if self.ooo_window_s:
                self._ingest_ooo(key, seg_ts, rej_ts, rej_val)
            if not len(seg_ts):
                continue
            self._ts.setdefault(key, []).append(seg_ts)
            self._val.setdefault(key, []).append(seg_val)
            buffered = sum(len(x) for x in self._ts[key])
            if buffered >= self.max_points:
                bts = np.concatenate(self._ts[key])
                bval = np.concatenate(self._val[key])
                i = 0
                while len(bts) - i >= self.max_points:
                    keys.append(key)
                    cts.append(bts[i:i + self.max_points])
                    cvals.append(bval[i:i + self.max_points])
                    i += self.max_points
                self._ts[key] = [bts[i:]] if i < len(bts) else []
                self._val[key] = [bval[i:]] if i < len(bval) else []
        return _encode_blocks(keys, cts, cvals)

    def flush(self) -> pa.Table:
        keys, cts, cvals = [], [], []
        for key in sorted(self._ts):
            parts = self._ts[key]
            if not parts or not sum(len(x) for x in parts):
                continue
            keys.append(key)
            cts.append(np.concatenate(parts))
            cvals.append(np.concatenate(self._val[key]))
        self._ts.clear()
        self._val.clear()
        # OOO buffers: sort each series' late points by time and close
        # them as their own block rows (windows are disjoint from every
        # in-order block BY CONSTRUCTION — the duplicate guard — so the
        # store layout stays one row per (series, tier, window)). The
        # flushed timestamps stay in the horizon memory so a redelivered
        # late batch after flush still drops.
        for key in sorted(self._ooo_ts):
            parts = self._ooo_ts[key]
            if not parts or not sum(len(x) for x in parts):
                continue
            ots = np.concatenate(parts)
            ovl = np.concatenate(self._ooo_val[key])
            order = np.argsort(ots, kind="stable")
            keys.append(key)
            cts.append(ots[order])
            cvals.append(ovl[order])
            rec = self._recent.get(key, np.zeros(0, dtype=np.int64))
            self._recent[key] = np.concatenate([rec, ots])
        self._ooo_ts.clear()
        self._ooo_val.clear()
        return _encode_blocks(keys, cts, cvals)


def stream_encode(batches, n_actors: int = 4, max_points: int = 256,
                  key_col: str = "series_key", ts_col: str = "window_start",
                  val_col: str = "value", ooo_window_s: int = 0) -> pa.Table:
    """Drive an actor pool of StreamGorillaEncoders over an iterable of
    time-ordered micro-batches (pa.Table each). Rows are routed by
    series-key hash so ONE actor owns each series across all
    micro-batches; the pool appends concurrently per batch. Returns the
    concatenation of all closed + flushed block rows."""
    import ray

    Actor = ray.remote(StreamGorillaEncoder)
    pool = [Actor.remote(max_points=max_points, ooo_window_s=ooo_window_s)
            for _ in range(n_actors)]
    out_refs = []
    for t in batches:
        k = t[key_col].to_numpy(zero_copy_only=False)
        route = (pd.util.hash_array(np.ascontiguousarray(k))
                 % np.uint64(n_actors)).astype(np.int64)
        for a in range(n_actors):
            m = route == a
            if m.any():
                out_refs.append(pool[a].append.remote(
                    t.filter(pa.array(m)), key_col, ts_col, val_col))
    out_refs.extend(a.flush.remote() for a in pool)
    tables = [t for t in ray.get(out_refs) if t.num_rows]
    return pa.concat_tables(tables) if tables else _EMPTY
