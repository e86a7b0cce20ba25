"""Seeded mutation fuzzing of the byte decoders: a stdlib-only mutator
(truncate, bit-flip, length-inflate) corrupts encoded input, and the
decoder must either decode it or raise ValueError — nothing else may
escape, no read may pass the end of the input, and nothing is allocated
in proportion to a corrupt length field.

Gorilla block decode (``decode_blocks_batch``): the mutations hit one
row's ``ts_block``, one element of its ``val_blocks``, its ``runs``
section, or inflate its ``n_points``. Blocks carry no checksum, so a
flipped payload bit can decode silently to other values; a section
that no longer fits its block, or counts that disagree with it, raise.
"""

import random

import numpy as np
import pyarrow as pa
import pytest

from vertex_ray.schema import KIND_HISTOGRAM, N_BUCKETS
from vertex_ray.stages.encode import GorillaEncode, decode_blocks_batch, pack_rows

T0 = 1_767_225_600


def mutate(data: bytes, rng: random.Random) -> bytes:
    """One truncation, bit flip or length inflation of ``data``."""
    op = rng.choice(("truncate", "flip", "inflate"))
    if op == "truncate" or (op == "flip" and not data):
        return data[: rng.randrange(len(data))] if data else data
    if op == "flip":
        buf = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(buf) * 8)
            buf[i >> 3] ^= 0x80 >> (i & 7)
        return bytes(buf)
    return data + bytes(rng.randrange(256) for _ in range(rng.randint(1, 24)))


def _encoded_batch(n_rows: int = 200, seed: int = 7) -> pa.Table:
    """A mixed block batch: scalar and histogram rows, runs on most rows,
    flags on some, every timestamp delta-of-delta class."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 40, n_rows)
    kinds = rng.choice([0, 1, KIND_HISTOGRAM], n_rows).astype(np.uint8)
    n = int(counts.sum())
    gaps = rng.choice([60, 60, 60, 120, 61, 400, 3000, 90_000], n)
    window = T0 + np.cumsum(gaps)
    vals = np.where(rng.random(n) < 0.5, np.floor(rng.random(n) * 8),
                    rng.random(n) * 1e6)
    pts = {"window": window}
    for i, s in enumerate(("sum", "count", "min", "max", "last")):
        pts[s] = np.roll(vals, i)
    hist_pts = int(counts[kinds == KIND_HISTOGRAM].sum())
    pts["buckets"] = np.floor(rng.random((hist_pts, N_BUCKETS)) * 5)
    ws = np.where(rng.random(n_rows) < 0.8, 60, 0)
    # run codes only on rows with a runs section (window seconds > 0)
    codes = np.where(rng.random(n) < 0.3, rng.integers(1, 6, n), 0)
    codes |= (rng.random(n) < 0.05) << 15
    codes[np.repeat(ws == 0, counts)] = 0
    flags = np.where(np.repeat(rng.random(n_rows) < 0.2, counts),
                     rng.integers(0, 3, n), 0)
    meta = {
        "bucket": pa.array(np.zeros(n_rows, np.int32)),
        "series_key": pa.array([f"s{i}" for i in range(n_rows)]),
        "name": pa.array(["m"] * n_rows),
        "kind": pa.array(kinds, type=pa.uint8()),
        "tier": pa.array(["1m"] * n_rows),
    }
    return GorillaEncode()(pack_rows(
        meta, np.concatenate([[0], np.cumsum(counts)]), pts, codes, ws,
        flags))


@pytest.fixture(scope="module")
def blocks():
    return _encoded_batch()


def _replace(t: pa.Table, name: str, values, typ) -> pa.Table:
    return t.set_column(t.schema.get_field_index(name), name,
                        pa.array(values, type=typ))


def _mutant(blocks: pa.Table, rng: random.Random) -> pa.Table:
    row = rng.randrange(blocks.num_rows)
    target = rng.choice(("ts_block", "val_blocks", "runs", "n_points"))
    if target == "n_points":
        n = blocks["n_points"].to_pylist()
        n[row] += rng.choice((1, rng.randint(2, 1000), 2**31 - 1 - n[row]))
        return _replace(blocks, "n_points", n, pa.int32())
    col = blocks[target].to_pylist()
    if target == "val_blocks":
        k = rng.randrange(len(col[row]))
        col[row][k] = mutate(col[row][k], rng)
    else:
        col[row] = mutate(col[row], rng)
    return _replace(blocks, target, col, blocks.schema.field(target).type)


def test_block_decode_fuzz(blocks):
    """300 seeded mutations: each decodes or raises ValueError."""
    rng = random.Random(20261020)
    outcomes = {"decoded": 0, "ValueError": 0}
    for _ in range(300):
        mutant = _mutant(blocks, rng)
        try:
            decode_blocks_batch(mutant)
        except ValueError:
            outcomes["ValueError"] += 1
        else:
            outcomes["decoded"] += 1
    assert min(outcomes.values()) > 0, outcomes


@pytest.mark.parametrize("column", ["ts_block", "val_blocks"])
def test_truncated_last_block_raises(blocks, column):
    """Cutting the batch's last stream short leaves the decoder's reads
    past the end of the column's data: ValueError, not IndexError."""
    col = blocks[column].to_pylist()
    if column == "val_blocks":
        col[-1][-1] = col[-1][-1][:1]
    else:
        col[-1] = col[-1][:3]
    mutant = _replace(blocks, column, col, blocks.schema.field(column).type)
    with pytest.raises(ValueError):
        decode_blocks_batch(mutant)


def test_inflated_n_points_raises_before_allocating(blocks):
    """n_points near 2**31 on a row without runs is refused from the
    blocks' lengths, before any per-point array is sized from it."""
    dense = int(np.flatnonzero(
        np.asarray([len(r) for r in blocks["runs"].to_pylist()]) == 0)[0])
    n = blocks["n_points"].to_pylist()
    n[dense] = 2**31 - 1
    with pytest.raises(ValueError):
        decode_blocks_batch(_replace(blocks, "n_points", n, pa.int32()))
