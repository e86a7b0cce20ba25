"""Epoch-incremental bucket kernel — unbounded retention for the flagship.

The one-shot kernel (stages/kernel.bucket_kernel) holds a bucket's ENTIRE
history in one group task; at unbounded retention that task grows without
bound (the round-1 scale note). This module processes ONE epoch (a time
slice aligned to the coarsest tier) per run, carrying the cross-epoch
coupling in explicit per-bucket state — the batch analogue of the
reference's resident streaming state (metricalize's per-series map,
src/transforms/metricalize.rs:220-262, and prometheus_exporter's TTL'd
series entries, src/sinks/prometheus_exporter.rs:416-512):

- per-conversation last turn timestamp → seeds the inter-turn latency of
  a conversation's first turn in the next epoch;
- per-series, per-tier last REAL aggregate row → seeds gap-fill/LOCF and
  the staleness decision across the boundary.

Contract (property-tested in tests/test_kernel_epoch_property.py and
tests/test_epoch_pipeline.py): running the epochs sequentially produces
BIT-FOR-BIT the same tier rows as the one-shot kernel over the whole span.

Epoch blocks use the one-shot layout: real rows plus ``fill_runs`` codes
(stages/kernel.pack_arrays_virtual). The carry is cheap because a run
code is a pure function of (source row, next window, horizon): the
kernel PREPENDS the carried row per series per tier and computes the
codes over both. This epoch's real rows are stored with their codes, cut
at the epoch's fill horizon. A carried row lies before the epoch, so its
code cannot be stored on it: the kernel expands it
(stages/fill.expand_runs_scalars) and stores the fills and stale marker
that land inside the epoch as ordinary points with code 0 and flag 1 or
2. The carried row itself was stored by an earlier epoch. Those carried
points are the one addition to the one-shot layout (a ``flags`` section
next to ``runs``): 0.4% of the points of a six-day, 200k-turn synthetic
input with daily epochs.

State stays bounded: a series' carry row is pruned once its stale marker
has been emitted (windows before ``epoch_end`` emit nothing ever again
until fresh data arrives, which needs no carry). Conversation rows are a
conv_id + int64 each and persist (the latency contract has no idle
horizon); at 100 TB that is the one table that grows with distinct
conversations — prune with an explicit retention policy if one is ever
specified.

Epoch boundaries must be multiples of every tier width so windows never
straddle an epoch.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from vertex_ray.schema import (
    BUCKET_COLS,
    N_BUCKETS,
    STALENESS_SECONDS,
    US_PER_SECOND,
)
from vertex_ray.stages.fill import _run_parts, expand_runs_carry, expand_runs_scalars
from vertex_ray.stages.kernel import (
    HIST_METRIC,
    METRIC_KINDS,
    AggArrays,
    _UID_CONV_SHIFT,
    _UID_METRIC_SHIFT,
    _hist_range,
    _segments,
    concat_agg,
    fill_runs,
    merge_agg_arrays,
    pack_arrays_virtual,
    sort_agg,
    window_agg,
)

SENTINEL_ROLE = 255  # injected per-bucket row so idle buckets still run

STATE_CONV = 0
STATE_SERIES = 1

_STATE_FIELDS = [
    ("stype", pa.int8()),
    ("conv_id", pa.string()),
    ("metric", pa.int64()),
    ("sub", pa.int64()),
    ("tier", pa.string()),
    ("window", pa.int64()),
    ("sum", pa.float64()),
    ("count", pa.int64()),
    ("min", pa.float64()),
    ("max", pa.float64()),
    ("last", pa.float64()),
    ("last_ts", pa.int64()),
] + [(b, pa.int64()) for b in BUCKET_COLS]

STATE_SCHEMA = pa.schema(_STATE_FIELDS)


def empty_state() -> pa.Table:
    return STATE_SCHEMA.empty_table()


def _state_arrays(state: pa.Table | None) -> dict[str, np.ndarray]:
    if state is None or state.num_rows == 0:
        state = empty_state()
    out = {}
    for name, _ in _STATE_FIELDS:
        col = state[name]
        out[name] = col.to_numpy(zero_copy_only=False)
    out["buckets"] = np.column_stack(
        [out[b] for b in BUCKET_COLS]
    ) if state.num_rows else np.zeros((0, N_BUCKETS), np.int64)
    return out


def _agg_of(uid, ts, vals, window_seconds, hist, salt):
    if salt <= 1:
        return window_agg(uid, ts, vals, window_seconds, hist)
    sgroup = (ts // US_PER_SECOND) % salt
    parts = [
        window_agg(uid[sgroup == i], ts[sgroup == i], vals[sgroup == i],
                   window_seconds, hist)
        for i in range(salt)
        if int((sgroup == i).sum())
    ]
    if not parts:
        return window_agg(uid, ts, vals, window_seconds, hist)
    return merge_agg_arrays(sort_agg(concat_agg(parts)), window_seconds)


def _stored_points(combined: AggArrays, codes: np.ndarray, seconds: int,
                   epoch_start_s: int):
    """One tier's stored points for this epoch → (rows, run codes, flags).

    ``combined`` is this epoch's real rows plus the carried rows, sorted
    by (uid, window), and ``codes`` its ``fill_runs``. Real rows keep
    their code with flag 0. A carried row (window before the epoch) is
    expanded; its fills and stale marker inside the epoch become stored
    points with code 0 and flag 1 / 2, and the carried row itself is
    dropped. Expansion keeps (uid, window) order, so the result is born
    sorted."""
    uid, w = combined["uid"], combined["window"]
    carried = w < epoch_start_s
    own = np.where(carried, codes, np.uint16(0))  # expand carried rows only
    kinds = np.asarray(METRIC_KINDS, dtype=np.uint8)[uid >> _UID_METRIC_SHIFT]
    exp = expand_runs_scalars(
        w, combined["sum"], combined["count"].astype(np.float64),
        combined["min"], combined["max"], combined["last"], kinds, own,
        np.full(len(uid), seconds, dtype=np.int64),
    )
    _, _, extra, _, _ = _run_parts(own)
    out_uid = np.repeat(uid, 1 + extra)
    keep = exp["window"] >= epoch_start_s
    lo, hi = _hist_range(uid)
    o_lo, o_hi = _hist_range(out_uid)
    buckets = expand_runs_carry(combined["buckets"], own[lo:hi])
    rows = {
        "uid": out_uid[keep],
        "window": exp["window"][keep],
        "sum": exp["sum"][keep],
        "count": exp["count"][keep].astype(np.int64),
        "min": exp["min"][keep],
        "max": exp["max"][keep],
        "last": exp["last"][keep],
        "buckets": buckets[keep[o_lo:o_hi]],
    }
    # real rows keep their code; a carried row's fills copy its 0, its
    # stale marker is 0 too
    run_codes = expand_runs_carry(np.where(carried, np.uint16(0), codes), own)
    return rows, run_codes[keep], exp["flags"][keep]


def epoch_kernel(
    conv_id: np.ndarray,
    turn_idx: np.ndarray,
    role_code: np.ndarray,
    tool_code: np.ndarray,
    ts_us: np.ndarray,
    state: pa.Table | None,
    tiers,
    epoch_start_s: int,
    epoch_end_s: int,
    fill_end_s: int,
    bucket_id: int,
    salt: int = 1,
) -> tuple[pa.Table, pa.Table]:
    """One bucket × one epoch → (packed tier rows, state for next epoch).

    ``fill_end_s``: absolute horizon for trailing fills — the epoch's last
    covered second for intermediate epochs (epoch_end_s - 1), the global
    max timestamp for the final one (matches the one-shot global_end)."""
    nd = len(conv_id)
    st = _state_arrays(state)
    conv_mask = st["stype"] == STATE_CONV
    ser_mask = st["stype"] == STATE_SERIES

    # conversation ordinals over BOTH epochs' data and carried state —
    # identity is the conv_id string (pd.factorize: one vectorized hash
    # pass; no 64-bit-collision caveat to defend)
    all_conv = np.concatenate(
        [np.asarray(conv_id, dtype=object), np.asarray(st["conv_id"], dtype=object)]
    )
    codes, uniq = pd.factorize(all_conv)
    conv_strs = np.asarray(uniq, dtype=object)
    codes = codes.astype(np.int64)
    code_data, code_state = codes[:nd], codes[nd:]

    order = np.lexsort((turn_idx, code_data))
    cd = code_data[order]
    ti = np.asarray(turn_idx)[order].astype(np.int64)
    rc = np.asarray(role_code)[order].astype(np.int64)
    tc = np.asarray(tool_code)[order].astype(np.int64)
    ts = np.asarray(ts_us)[order]

    new_conv = np.ones(nd, dtype=bool)
    new_conv[1:] = cd[1:] != cd[:-1]

    base = np.int64(1) << _UID_METRIC_SHIFT
    conv_part = cd << _UID_CONV_SHIFT

    # latency seed: a conversation's first in-epoch turn measures its gap
    # to the conversation's last turn in ANY earlier epoch (state)
    conv_last_in = np.full(len(conv_strs), np.int64(-1))
    conv_last_in[code_state[conv_mask]] = st["last_ts"][conv_mask]
    prev_ts = np.empty(nd, dtype=np.int64)
    if nd:
        prev_ts[1:] = ts[:-1]
        seed = conv_last_in[cd]
        prev_ts[new_conv] = seed[new_conv]
        lmask = (~new_conv) | (seed >= 0)
        # the documented partitioning assumption: ts non-decreasing in
        # turn order within a conversation (both within this epoch and
        # against the carried last-turn ts). A violation would silently
        # break one-shot parity — fail loudly instead.
        bad = (lmask & (ts < prev_ts)).any()
        if bad:
            raise ValueError(
                f"bucket {bucket_id}: conversation timestamps decrease in "
                "turn order (within the epoch or across the carried "
                "boundary); epoch-incremental mode requires per-conv "
                "ts-monotonic transcripts"
            )
    else:
        lmask = np.zeros(0, dtype=bool)
    lat = (ts - prev_ts).astype(np.float64) / 1e6

    base_seconds = tiers[0][1]
    a_turns = _agg_of(base * 0 + conv_part + rc, ts, np.ones(nd), base_seconds,
                      False, salt)
    tmask = tc > 0
    a_tools = _agg_of(base * 1 + conv_part[tmask] + tc[tmask], ts[tmask],
                      np.ones(int(tmask.sum())), base_seconds, False, salt)
    a_lat = _agg_of(base * 2 + conv_part[lmask], ts[lmask], lat[lmask],
                    base_seconds, True, salt)
    a_gauge = _agg_of(base * 3 + conv_part, ts, ti.astype(np.float64),
                      base_seconds, False, salt)
    agg = sort_agg(concat_agg([a_turns, a_tools, a_lat, a_gauge]))

    # carried per-series rows, keyed into this group's ordinal space
    s_code = code_state[ser_mask]
    s_uid = (
        (st["metric"][ser_mask] << _UID_METRIC_SHIFT)
        | (s_code << _UID_CONV_SHIFT)
        | st["sub"][ser_mask]
    )
    s_tier = st["tier"][ser_mask]

    def carry_for(tier_name: str) -> AggArrays | None:
        sel = np.flatnonzero(s_tier == tier_name)
        if not len(sel):
            return None
        idx = ser_mask.nonzero()[0][sel]
        # state table stores dense per-row bucket columns (tiny); the
        # AggArrays contract wants the sparse hist-slice matrix
        hist_sel = (s_uid[sel] >> _UID_METRIC_SHIFT) == HIST_METRIC
        return AggArrays(
            uid=s_uid[sel],
            window=st["window"][idx],
            sum=st["sum"][idx].astype(np.float64),
            count=st["count"][idx],
            min=st["min"][idx].astype(np.float64),
            max=st["max"][idx].astype(np.float64),
            last=st["last"][idx].astype(np.float64),
            last_ts=st["last_ts"][idx],
            buckets=st["buckets"][idx][hist_sel],
        )

    parts = []
    state_rows: list[dict] = []
    prev = agg  # the cascade consumes ONLY real in-epoch rows
    for tier, seconds in tiers:
        if seconds != base_seconds:
            prev = merge_agg_arrays(prev, seconds)
        carry = carry_for(tier)
        combined = (
            prev if carry is None else sort_agg(concat_agg([prev, carry]))
        )
        codes = fill_runs(combined, seconds, fill_end_s // seconds * seconds)
        rows, run_codes, flags = _stored_points(combined, codes, seconds,
                                                epoch_start_s)
        packed = pack_arrays_virtual(rows, run_codes, conv_strs, bucket_id,
                                     seconds, flags)
        parts.append(
            packed.append_column(
                "tier", pa.array([tier] * packed.num_rows, type=pa.string())
            )
        )
        # next-epoch carry = last real row per series; prune rows whose
        # stale marker has already been emitted (they can never fill again)
        cu = combined["uid"]
        if len(cu):
            starts = _segments(cu)
            last_idx = np.concatenate([starts[1:], [len(cu)]]) - 1
            hw = STALENESS_SECONDS // seconds
            w_last = combined["window"][last_idx]
            keep = last_idx[w_last + (hw + 1) * seconds >= epoch_end_s]
            if len(keep):
                uid_k = cu[keep]
                # densify the kept rows' bucket vectors for the state table
                c_lo, _ = _hist_range(cu)
                bk_keep = np.zeros((len(keep), N_BUCKETS), np.int64)
                k_hist = (uid_k >> _UID_METRIC_SHIFT) == HIST_METRIC
                if k_hist.any():
                    bk_keep[k_hist] = combined["buckets"][keep[k_hist] - c_lo]
                state_rows.append(
                    {
                        "stype": np.full(len(keep), STATE_SERIES, np.int8),
                        "conv_id": conv_strs[
                            (uid_k >> _UID_CONV_SHIFT) & np.int64(0xFFFFFFFF)
                        ],
                        "metric": uid_k >> _UID_METRIC_SHIFT,
                        "sub": uid_k & np.int64(0xFF),
                        "tier": np.full(len(keep), tier, dtype=object),
                        "window": combined["window"][keep],
                        "sum": combined["sum"][keep],
                        "count": combined["count"][keep],
                        "min": combined["min"][keep],
                        "max": combined["max"][keep],
                        "last": combined["last"][keep],
                        "last_ts": combined["last_ts"][keep],
                        "buckets": bk_keep,
                    }
                )

    # conversation state out: every conv ever seen, with its latest turn ts
    conv_last_out = conv_last_in.copy()
    if nd:
        conv_starts = _segments(cd)
        conv_ends = np.concatenate([conv_starts[1:], [nd]]) - 1
        conv_last_out[cd[conv_starts]] = ts[conv_ends]
    seen = conv_last_out >= 0
    state_rows.insert(
        0,
        {
            "stype": np.full(int(seen.sum()), STATE_CONV, np.int8),
            "conv_id": conv_strs[seen],
            "metric": np.zeros(int(seen.sum()), np.int64),
            "sub": np.zeros(int(seen.sum()), np.int64),
            "tier": np.full(int(seen.sum()), "", dtype=object),
            "window": np.zeros(int(seen.sum()), np.int64),
            "sum": np.zeros(int(seen.sum())),
            "count": np.zeros(int(seen.sum()), np.int64),
            "min": np.zeros(int(seen.sum())),
            "max": np.zeros(int(seen.sum())),
            "last": np.zeros(int(seen.sum())),
            "last_ts": conv_last_out[seen],
            "buckets": np.zeros((int(seen.sum()), N_BUCKETS), np.int64),
        },
    )

    cols: dict[str, list] = {name: [] for name, _ in _STATE_FIELDS}
    for row in state_rows:
        for name, _ in _STATE_FIELDS:
            if name in BUCKET_COLS:
                cols[name].append(row["buckets"][:, BUCKET_COLS.index(name)])
            else:
                cols[name].append(row[name])
    state_out = pa.table(
        {
            name: pa.array(np.concatenate(cols[name]), type=typ)
            for name, typ in _STATE_FIELDS
        }
    )
    return pa.concat_tables(parts), state_out
