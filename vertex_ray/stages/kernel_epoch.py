"""The bucket kernel — the engine's one bucket body: one bucket × one
epoch → packed tier rows, plus the state the next epoch carries.

Per call it derives the four metrics (stages/kernel.METRIC_NAMES) into
base-tier windows, cascades them through the tiers, gap-fills them with
run codes (kernel.fill_runs) and packs them (kernel.pack_arrays_virtual).
Conversations are identified by their conv_id strings, over the data and
the carried state, and numbered in (signed conv_hash64, string) order,
so a series' uid and its packed row position depend on which
conversations a call sees, never on the order in which their rows
arrive.

A one-shot run (rollup_pipeline.bucket_group with no epoch bounds) is the
UNBOUNDED epoch, ``epoch_start_s = epoch_end_s = None``: it reads no
carry, builds no state, and needs no ts-monotonic turns, because there
is no epoch boundary for a decrease to cross. The epoch pipeline runs
one time slice aligned to the coarsest tier per call, which keeps a
bucket's task from holding its entire history at unbounded retention,
and carries the cross-epoch coupling in explicit per-bucket state — the
batch analogue of the reference's resident streaming state
(metricalize's per-series map, src/transforms/metricalize.rs:220-262,
and prometheus_exporter's TTL'd series entries,
src/sinks/prometheus_exporter.rs:416-512):

- per-conversation last turn timestamp → seeds the inter-turn latency of
  a conversation's first turn in the next epoch;
- per-series, per-tier last REAL aggregate row → seeds gap-fill/LOCF and
  the staleness decision across the boundary.

Contract (property-tested in tests/test_kernel_epoch_property.py and
tests/test_epoch_pipeline.py): running the epochs sequentially produces
BIT-FOR-BIT the same tier rows as the unbounded epoch over the whole
span.

The carry is cheap because a run code is a pure function of (source row,
next window, horizon): the kernel PREPENDS the carried row per series
per tier and computes the codes over both. This epoch's real rows are
stored with their codes, cut at the epoch's fill horizon. A carried row
lies before the epoch, so its code cannot be stored on it: the kernel
expands it (stages/fill.expand_runs_scalars) and stores the fills and
stale marker that land inside the epoch as ordinary points with code 0
and flag 1 or 2. The carried row itself was stored by an earlier epoch.
Those carried points are the one addition to the one-shot layout (a
``flags`` section next to ``runs``): 0.4% of the points of a six-day,
200k-turn synthetic input with daily epochs.

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
from vertex_ray.stages.derive import conv_hash64
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
    take_agg,
    window_agg,
)

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


def _conv_ordinals(conv_id: np.ndarray, state_conv: np.ndarray):
    """(ordinals of the data rows, ordinals of the state rows, conv_id of
    each ordinal). Identity is the string (``pd.factorize``, so no hash
    collision can merge two conversations); ordinals follow the signed
    64-bit ``conv_hash64`` and then the string."""
    ids = np.concatenate([np.asarray(conv_id, dtype=object),
                          np.asarray(state_conv, dtype=object)])
    codes, uniq = pd.factorize(ids)
    uniq = np.asarray(uniq, dtype=object)
    h = conv_hash64(uniq).view(np.int64)
    order = np.argsort(h, kind="stable")
    if (np.diff(h[order]) == 0).any():  # a collision: break ties by string
        order = np.lexsort((uniq, h))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    codes = rank[codes]
    return codes[:len(conv_id)], codes[len(conv_id):], uniq[order]


def _stored_points(combined: AggArrays, codes: np.ndarray, seconds: int,
                   epoch_start_s: int):
    """One tier's stored points for this epoch → (rows, run codes, flags).

    ``combined`` is this epoch's real rows plus the carried rows, sorted
    by (uid, window), and ``codes`` its ``fill_runs``. Real rows are
    stored as they are, with their code and flag 0. Only the carried rows
    (window before the epoch) are expanded: each is replaced by its fills
    and stale marker that land inside the epoch, stored as points with
    code 0 and flag 1 / 2. Those land strictly between the carried row
    and its series' next real row, so (uid, window) stays unique."""
    uid, w = combined["uid"], combined["window"]
    carried = w < epoch_start_s
    if not carried.any():
        return combined, codes, np.zeros(len(w), dtype=np.uint8)
    c = np.flatnonzero(carried)
    kinds = np.asarray(METRIC_KINDS, dtype=np.uint8)[uid[c] >> _UID_METRIC_SHIFT]
    exp = expand_runs_scalars(
        w[c], combined["sum"][c], combined["count"][c].astype(np.float64),
        combined["min"][c], combined["max"][c], combined["last"][c], kinds,
        codes[c], np.full(len(c), seconds, dtype=np.int64),
    )
    _, _, extra, _, _ = _run_parts(codes[c])
    keep = exp["window"] >= epoch_start_s
    src = np.repeat(c, 1 + extra)[keep]  # the carried row of each kept point
    # sparse histogram buckets: a carried row's fills copy its vector
    is_hist = (uid >> _UID_METRIC_SHIFT) == HIST_METRIC
    bk = np.zeros((len(c), N_BUCKETS), dtype=combined["buckets"].dtype)
    bk[is_hist[c]] = combined["buckets"][c[is_hist[c]] - _hist_range(uid)[0]]
    fills = AggArrays(
        uid=uid[src], window=exp["window"][keep],
        count=exp["count"][keep].astype(np.int64),
        **{k: exp[k][keep] for k in ("sum", "min", "max", "last")},
        last_ts=np.zeros(len(src), np.int64),
        buckets=expand_runs_carry(bk, codes[c])[keep][is_hist[src]],
        codes=np.zeros(len(src), codes.dtype), flags=exp["flags"][keep],
    )
    real = take_agg(combined, ~carried)
    real["codes"] = codes[~carried]
    real["flags"] = np.zeros(len(real["uid"]), np.uint8)
    rows = sort_agg(concat_agg([real, fills]))
    return rows, rows["codes"], rows["flags"]


def _series_state(combined: AggArrays, tier: str, seconds: int,
                  epoch_end_s: int, conv_strs: np.ndarray) -> dict | None:
    """Next-epoch carry of one tier: the last real row per series, minus
    the rows whose stale marker has already been emitted (they can never
    fill again)."""
    cu = combined["uid"]
    if not len(cu):
        return None
    starts = _segments(cu)
    last_idx = np.concatenate([starts[1:], [len(cu)]]) - 1
    hw = STALENESS_SECONDS // seconds
    w_last = combined["window"][last_idx]
    keep = last_idx[w_last + (hw + 1) * seconds >= epoch_end_s]
    if not len(keep):
        return None
    uid_k = cu[keep]
    # densify the kept rows' bucket vectors for the state table
    c_lo, _ = _hist_range(cu)
    bk_keep = np.zeros((len(keep), N_BUCKETS), np.int64)
    k_hist = (uid_k >> _UID_METRIC_SHIFT) == HIST_METRIC
    if k_hist.any():
        bk_keep[k_hist] = combined["buckets"][keep[k_hist] - c_lo]
    return {
        "stype": np.full(len(keep), STATE_SERIES, np.int8),
        "conv_id": conv_strs[(uid_k >> _UID_CONV_SHIFT) & np.int64(0xFFFFFFFF)],
        "metric": uid_k >> _UID_METRIC_SHIFT,
        "sub": uid_k & np.int64(0xFF),
        "tier": np.full(len(keep), tier, dtype=object),
        **{k: combined[k][keep] for k in ("window", "sum", "count", "min",
                                          "max", "last", "last_ts")},
        "buckets": bk_keep,
    }


def _state_table(groups: list[dict]) -> pa.Table:
    """State row groups → one STATE_SCHEMA table; a field a group leaves
    out is "" (tier) or 0, its bucket columns included."""

    def col(g, name, typ):
        n = len(g["stype"])
        if name in BUCKET_COLS and "buckets" in g:
            return g["buckets"][:, BUCKET_COLS.index(name)]
        if name in g:
            return g[name]
        if typ == pa.string():
            return np.full(n, "", dtype=object)
        return np.zeros(n, dtype=typ.to_pandas_dtype())

    return pa.table({
        name: pa.array(np.concatenate([col(g, name, typ) for g in groups]),
                       type=typ)
        for name, typ in _STATE_FIELDS
    })


def epoch_kernel(
    conv_id: np.ndarray,
    turn_idx: np.ndarray,
    role_code: np.ndarray,
    tool_code: np.ndarray,
    ts_us: np.ndarray,
    state: pa.Table | None,
    tiers,
    epoch_start_s: int | None,
    epoch_end_s: int | None,
    fill_end_s: int,
    bucket_id: int,
    salt: int = 1,
) -> tuple[pa.Table, pa.Table | None]:
    """One bucket × one epoch → (packed tier rows, state for next epoch).

    ``fill_end_s``: absolute horizon for trailing fills — the epoch's last
    covered second for intermediate epochs (epoch_end_s - 1), the global
    max timestamp for the final one. ``epoch_start_s = epoch_end_s =
    None`` is the unbounded epoch of a one-shot run: ``state`` must be
    None, and the state returned is None."""
    unbounded = epoch_end_s is None
    nd = len(conv_id)
    st = _state_arrays(state)
    conv_mask = st["stype"] == STATE_CONV
    ser_mask = st["stype"] == STATE_SERIES
    code_data, code_state, conv_strs = _conv_ordinals(conv_id, st["conv_id"])

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
        # the documented partitioning assumption of a bounded epoch: ts
        # non-decreasing in turn order within a conversation (both within
        # this epoch and against the carried last-turn ts). A violation
        # would silently break one-shot parity — fail loudly instead.
        if not unbounded and (lmask & (ts < prev_ts)).any():
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
    # conv_turn_idx is a GAUGE: last-written turn index per conversation;
    # integer values stay exact doubles (the order-independence invariant)
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
        if unbounded:
            packed = pack_arrays_virtual(combined, codes, conv_strs,
                                         bucket_id, seconds)
        else:
            rows, run_codes, flags = _stored_points(combined, codes, seconds,
                                                    epoch_start_s)
            packed = pack_arrays_virtual(rows, run_codes, conv_strs,
                                         bucket_id, seconds, flags)
            carry_out = _series_state(combined, tier, seconds, epoch_end_s,
                                      conv_strs)
            if carry_out is not None:
                state_rows.append(carry_out)
        parts.append(
            packed.append_column(
                "tier", pa.array([tier] * packed.num_rows, type=pa.string())
            )
        )
    if unbounded:
        return pa.concat_tables(parts), None

    # conversation state out: every conv ever seen, with its latest turn ts
    conv_last_out = conv_last_in.copy()
    if nd:
        conv_starts = _segments(cd)
        conv_ends = np.concatenate([conv_starts[1:], [nd]]) - 1
        conv_last_out[cd[conv_starts]] = ts[conv_ends]
    seen = conv_last_out >= 0
    state_rows.insert(0, {"stype": np.full(int(seen.sum()), STATE_CONV, np.int8),
                          "conv_id": conv_strs[seen],
                          "last_ts": conv_last_out[seen]})
    return pa.concat_tables(parts), _state_table(state_rows)
