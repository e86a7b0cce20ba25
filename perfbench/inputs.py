"""Seeded inputs and the invariants the output checks compare against.

Every expected value here is computed from the generated input with
pyarrow/pandas, never by the engine under test.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from vertex_ray.synth import generate_transcripts

# synth starts conversations over two days and the longest ones run into
# a seventh day on some seeds; cutting the input at six days gives every
# seed the same six daily epochs (it drops under 0.5 % of the turns, the
# tails of the few longest conversations)
INPUT_DAYS = 6
DAY_US = 86_400_000_000


@dataclass
class Expect:
    n_turns: int
    tool_turns: int
    conv_turns: dict          # conv_id -> number of turns
    n_role_series: int        # distinct (conv_id, role)
    end_s: int                # newest turn, epoch seconds


def write_transcripts(n_turns: int, seed: int, out_dir: str,
                      days: int = INPUT_DAYS) -> tuple[str, pa.Table]:
    """Generate the transcript table for ``seed``, keep the turns of its
    first ``days`` days (counted from the midnight before its first turn)
    and write it as one parquet file under ``out_dir``; returns (dir,
    table)."""
    table = generate_transcripts(n_turns, seed)
    ts = table["ts"].cast(pa.int64())
    first_day = pc.min(ts).as_py() // DAY_US * DAY_US
    table = table.filter(pc.less(ts, first_day + days * DAY_US))
    os.makedirs(out_dir, exist_ok=True)
    pq.write_table(table, os.path.join(out_dir, "part-00000.parquet"))
    return out_dir, table


def expectations(table: pa.Table) -> Expect:
    conv = table.group_by("conv_id").aggregate([("turn_idx", "count")])
    roles = table.group_by(["conv_id", "role"]).aggregate([])
    end_us = pc.max(table["ts"].cast(pa.int64())).as_py()
    return Expect(
        n_turns=table.num_rows,
        tool_turns=int(pc.sum(pc.equal(table["role"], "tool")).as_py() or 0),
        conv_turns=dict(zip(conv["conv_id"].to_pylist(),
                            conv["turn_idx_count"].to_pylist())),
        n_role_series=roles.num_rows,
        end_s=int(end_us // 1_000_000),
    )


def render_exposition(table: pa.Table) -> pa.Table:
    """One Prometheus exposition line per turn: a cumulative counter
    ``turns_total{conv=..,role=..} <turn_idx> <ts_ms>`` (the shape of
    ``bench.py --scrape``)."""
    ts_ms = pc.divide(table["ts"].cast(pa.int64()), 1000)
    return pa.table({"text": pc.binary_join_element_wise(
        'turns_total{conv="', table["conv_id"], '",role="', table["role"],
        '"} ', table["turn_idx"].cast(pa.string()), " ",
        ts_ms.cast(pa.string()), "")})


def counter_increases(table: pa.Table) -> dict:
    """Per scraped series (conv, role) with at least two samples: last
    minus first cumulative value, i.e. what its counter deltas must sum
    to (the first sample only sets the reference)."""
    df = table.select(["conv_id", "role", "turn_idx"]).to_pandas()
    g = df.groupby(["conv_id", "role"])["turn_idx"].agg(["min", "max", "size"])
    g = g[g["size"] >= 2]
    return {k: float(v) for k, v in (g["max"] - g["min"]).items()}


def block_payload(blocks: pa.Table) -> tuple[int, int]:
    """(Gorilla payload bytes, logical points) of block rows: timestamp
    stream + every value stream + flags + fill runs, over ``n_points``."""
    if blocks.num_rows == 0:
        return 0, 0
    n = int(pc.sum(pc.binary_length(blocks["ts_block"])).as_py() or 0)
    vb = pc.list_flatten(blocks["val_blocks"])
    n += int(pc.sum(pc.binary_length(vb)).as_py() or 0) if len(vb) else 0
    for col in ("flags", "runs"):
        if col in blocks.schema.names:
            n += int(pc.sum(pc.binary_length(blocks[col])).as_py() or 0)
    return n, int(pc.sum(blocks["n_points"]).as_py() or 0)


def read_files(files: list[str], columns=None) -> pa.Table:
    if not files:
        return pa.table({})
    return pads.dataset(files, format="parquet").to_table(columns=columns)


def table_digest(t: pa.Table) -> str:
    """Order-independent digest of a query result: rows sorted by every
    column, dictionary columns decoded, then hashed as Arrow IPC."""
    cols = {}
    for name in t.schema.names:
        c = t[name]
        if pa.types.is_dictionary(c.type):
            c = c.cast(c.type.value_type)
        cols[name] = c
    t = pa.table(cols)
    if t.num_rows:
        t = t.sort_by([(n, "ascending") for n in t.schema.names])
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t.combine_chunks())
    return hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()[:16]


def traffic_picker(conv_turns: dict, rng: np.random.Generator):
    """Draws conversations with probability proportional to their turn
    count: a dashboard looks at a conversation as often as it is active.
    The skew is the input's own (``synth`` draws conversation sizes from
    a Zipf law with exponent 1.5), so the largest conversations are the
    hot keys that repeat."""
    keys = sorted(conv_turns)
    p = np.array([conv_turns[k] for k in keys], dtype=float)
    p /= p.sum()
    return lambda: keys[rng.choice(len(keys), p=p)]
