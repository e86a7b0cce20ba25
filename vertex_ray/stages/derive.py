"""Stage 1 — derive per-turn observability metric points from transcripts.

Analogue of the reference's ``metricalize`` transform
(src/transforms/metricalize.rs:67-262): extract a value + tag paths per
record and emit metric observations. Re-expressed Ray-Data-first: a
stateless, fully vectorized Arrow/numpy ``map_batches`` body.

Derived metrics (BASELINE.json north_star):
- ``turns_total``              counter,   tags {conv_id, role}
- ``tool_invocations_total``   counter,   tags {conv_id, tool} (tool != "")
- ``inter_turn_latency_seconds`` histogram, tags {conv_id} — value is the
  gap to the previous turn of the same conversation in seconds (turn 0
  emits nothing). Latency needs the previous turn, so point derivation
  for it requires conversation-contiguous, (conv_id, turn_idx)-sorted
  input — guaranteed inside the rollup's per-bucket group stage, or per
  input fragment when the writer keeps conversations whole.
- ``conv_turn_idx``             gauge,     tags {conv_id} — last-written
  turn index of the conversation (MetricValue::Gauge,
  lib/event/src/metric/mod.rs:47-49): last-write-wins in the window,
  LOCF across gap-filled windows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from vertex_ray.schema import (
    KIND_GAUGE,
    KIND_HISTOGRAM,
    KIND_SUM,
    ROLES,
    TOOLS,
)
from vertex_ray.series import series_key_arrays

PROJECT_COLUMNS = ["conv_id", "turn_idx", "role", "tool", "ts"]


def conv_hash64(conv: np.ndarray) -> np.ndarray:
    """64-bit content hash per conversation id — computed once per UNIQUE
    value per batch (blake2b, stable across processes). Grouping downstream
    re-checks string equality at hash boundaries, so collisions are safe."""
    import hashlib

    uniq, inv = np.unique(conv.astype(object), return_inverse=True)
    h = np.fromiter(
        (
            int.from_bytes(hashlib.blake2b(str(s).encode(), digest_size=8).digest(), "big")
            for s in uniq
        ),
        dtype=np.uint64,
        count=len(uniq),
    )
    return h[inv]


def project_for_rollup_fast(batch: pa.Table, n_buckets: int = 64) -> pa.Table:
    """Integer-coded projection for the numpy bucket kernel: role/tool as
    uint8 codes, conversation as (string, 64-bit hash), bucket from the
    hash. Only these seven narrow columns enter the shuffle — ``text``
    never does."""
    conv = batch["conv_id"].to_numpy(zero_copy_only=False)
    ch = conv_hash64(conv)
    bucket = (ch % np.uint64(n_buckets)).astype(np.int32)
    role = batch["role"].to_numpy(zero_copy_only=False)
    role_code = np.zeros(len(role), dtype=np.uint8)
    for i, r in enumerate(ROLES):
        role_code[role == r] = i
    tool = batch["tool"].to_numpy(zero_copy_only=False)
    tool_code = np.zeros(len(tool), dtype=np.uint8)
    for i, t in enumerate(TOOLS):
        tool_code[tool == t] = i + 1
    return pa.table(
        {
            "bucket": pa.array(bucket, type=pa.int32()),
            "conv_id": batch["conv_id"],
            "conv_hash": pa.array(ch.view(np.int64), type=pa.int64()),
            "turn_idx": batch["turn_idx"],
            "role_code": pa.array(role_code, type=pa.uint8()),
            "tool_code": pa.array(tool_code, type=pa.uint8()),
            "ts": batch["ts"],
        }
    )


def project_for_rollup_packed(batch: pa.Table, n_buckets: int = 64) -> pa.Table:
    """Run-length-packed projection: ONE ROW PER CONVERSATION RUN
    (maximal stretch of consecutive equal conv_id within the batch) with
    the per-turn columns as lists. The transcript writer keeps
    conversations contiguous, so the all-to-all exchange moves ~#convs
    rows instead of ~#turns rows — the shuffle's per-row sort/serialize
    overhead was the flagship's scaling floor (≈2 s at 32 CPUs for 10M
    flat rows, barely improving from 8 CPUs). Bytes are unchanged; only
    row count drops. Worst case (fully interleaved input) degrades to
    one-turn runs ≈ the flat layout, never worse than a constant factor.

    Correctness does not depend on layout: a conversation split across
    batches/runs re-co-locates in the bucket group (same hash bucket)
    and the kernel re-sorts by (conv_hash, turn_idx) there."""
    flat = project_for_rollup_fast(batch, n_buckets)
    conv = flat["conv_id"].to_numpy(zero_copy_only=False)
    n = len(conv)
    ch = flat["conv_hash"].to_numpy()
    new = np.ones(n, dtype=bool)
    if n:
        new[1:] = ch[1:] != ch[:-1]
        same = ~new[1:]
        if same.any():  # hash-equal: refine by string (collision safety)
            new[1:] |= conv[1:] != conv[:-1]
    starts = np.flatnonzero(new)
    offsets = np.concatenate([starts, [n]]).astype(np.int32)

    def lst(vals) -> pa.ListArray:
        a = vals.combine_chunks() if isinstance(vals, pa.ChunkedArray) \
            else vals
        if isinstance(a, pa.ChunkedArray):  # older pyarrow returns CA
            a = a.chunk(0) if a.num_chunks else pa.array([], a.type)
        return pa.ListArray.from_arrays(offsets, a)

    return pa.table(
        {
            "bucket": flat["bucket"].take(starts),
            "conv_id": flat["conv_id"].take(starts),
            "conv_hash": flat["conv_hash"].take(starts),
            "turn_idx": lst(flat["turn_idx"]),
            "role_code": lst(flat["role_code"]),
            "tool_code": lst(flat["tool_code"]),
            "ts_us": lst(flat["ts"].cast(pa.int64())),
        }
    )


def derive_points_arrays(
    conv_id: np.ndarray,
    turn_idx: np.ndarray,
    role: np.ndarray,
    tool: np.ndarray,
    ts_us: np.ndarray,
) -> dict[str, np.ndarray]:
    """Vectorized points derivation over conversation-contiguous arrays
    sorted by (conv_id, turn_idx). Returns parallel numpy columns matching
    POINTS_SCHEMA (minus Arrow types)."""
    n = len(conv_id)
    empty = np.full(n, "", dtype=object)

    # turns_total: one observation of 1.0 per turn
    sk_turns = series_key_arrays("turns_total", conv_id=conv_id, role=role)

    # tool_invocations_total: turns that invoked a tool
    tool_mask = np.asarray(tool, dtype=object) != ""
    sk_tool = series_key_arrays(
        "tool_invocations_total",
        conv_id=conv_id[tool_mask],
        tool=np.asarray(tool, dtype=object)[tool_mask],
    )

    # inter_turn_latency_seconds: gap to previous turn of the same conv.
    # Input is conv-contiguous and turn-sorted, so the previous row is the
    # previous turn except at conversation starts (turn_idx == 0).
    lat_mask = np.asarray(turn_idx) > 0
    prev_ts = np.empty(n, dtype=np.int64)
    prev_ts[1:] = ts_us[:-1]
    prev_ts[0] = 0
    lat = (ts_us - prev_ts).astype(np.float64) / 1e6
    sk_lat = series_key_arrays("inter_turn_latency_seconds", conv_id=conv_id[lat_mask])

    # conv_turn_idx: gauge of the last-written turn index per conversation
    sk_gauge = series_key_arrays("conv_turn_idx", conv_id=conv_id)

    def block(sk, name, cids, roles, tools, ts, kind, vals):
        m = len(sk)
        return {
            "series_key": sk,
            "name": np.full(m, name, dtype=object),
            "conv_id": cids,
            "role": roles,
            "tool": tools,
            "ts": ts,
            "kind": np.full(m, kind, dtype=np.uint8),
            "value": vals,
        }

    blocks = [
        block(
            sk_turns, "turns_total", conv_id, role, empty, ts_us, KIND_SUM,
            np.ones(n, dtype=np.float64),
        ),
        block(
            sk_tool,
            "tool_invocations_total",
            conv_id[tool_mask],
            empty[: int(tool_mask.sum())],
            np.asarray(tool, dtype=object)[tool_mask],
            ts_us[tool_mask],
            KIND_SUM,
            np.ones(int(tool_mask.sum()), dtype=np.float64),
        ),
        block(
            sk_lat,
            "inter_turn_latency_seconds",
            conv_id[lat_mask],
            empty[: int(lat_mask.sum())],
            empty[: int(lat_mask.sum())],
            ts_us[lat_mask],
            KIND_HISTOGRAM,
            lat[lat_mask],
        ),
        block(
            sk_gauge, "conv_turn_idx", conv_id, empty, empty, ts_us, KIND_GAUGE,
            np.asarray(turn_idx, dtype=np.float64),
        ),
    ]
    return {
        k: np.concatenate([b[k] for b in blocks])
        for k in blocks[0]
    }
