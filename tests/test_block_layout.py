"""Golden bytes of the block writer: ``GorillaEncode`` on a small fixed
packed table must reproduce, column for column, the sha256 digests
recorded from the list-of-bytes writer it replaced. The table covers
single- and two-point series, constant values, values with every bit
flipped, the stale NaN payload, every timestamp delta-of-delta class,
histogram rows among scalar rows, flags on some rows only, and rows
with and without a runs section."""

import hashlib

import numpy as np
import pyarrow as pa
import pytest

from vertex_ray.schema import KIND_HISTOGRAM, N_BUCKETS, STALE_NAN_BITS
from vertex_ray.stages.encode import GorillaEncode, decode_blocks_batch, pack_rows

T0 = 1_767_225_600
KIND_COUNTER, KIND_GAUGE = 0, 1


def _bits(*words):
    return np.array(words, dtype=np.uint64).view(np.float64)


def _golden_packed() -> pa.Table:
    """(key, kind, windows, values, run codes, window seconds, flags)."""
    ones = 0xFFFF_FFFF_FFFF_FFFF
    dod_deltas = [60, 60, 61, 124, 316, 60, 2100, 60, 100_000, 60, 1,
                  5_000_000, 60]
    rows = [
        ("single", KIND_GAUGE, [T0], [3.5], [3 | 1 << 15], 60, None),
        ("two", KIND_COUNTER, [T0, T0 + 60], [1.0, 4.0], [0, 2], 60, None),
        ("const", KIND_GAUGE, T0 + 60 * np.arange(12), [7.25] * 12,
         [0] * 12, 0, None),
        ("flip", KIND_GAUGE, T0 + 300 * np.arange(8),
         _bits(0, ones, 0, ones, STALE_NAN_BITS, STALE_NAN_BITS,
               0x3FF0_0000_0000_0000, 0x8000_0000_0000_0000),
         [0, 1, 0, 0, 0, 0, 4, 0], 300, None),
        ("dod", KIND_COUNTER, T0 + np.cumsum([0] + dod_deltas),
         np.arange(14, dtype=np.float64) * 1.5, [0] * 14, 0, None),
        ("hist_a", KIND_HISTOGRAM, T0 + 60 * np.array([0, 1, 2, 5, 6, 9]),
         [0.5, 0.5, 2.0, 2.0, 9.0, 9.5], [0, 0, 2, 0, 2, 1 << 15], 60, None),
        ("hist_b", KIND_HISTOGRAM, T0 + 60 * np.arange(3), [1.0, 1.0, 3.0],
         [0] * 3, 0, [0, 1, 2]),
        ("flagged", KIND_GAUGE, T0 + 60 * np.arange(5),
         [2.0, 2.0, 2.0, STALE_NAN_BITS.view(np.float64), 5.0],
         [0] * 5, 60, [0, 1, 1, 2, 0]),
        ("empty", KIND_GAUGE, [], [], [], 60, None),
    ]
    counts = np.array([len(r[2]) for r in rows])
    offsets = np.concatenate([[0], np.cumsum(counts)])
    kinds = np.array([r[1] for r in rows], dtype=np.uint8)
    vals = np.concatenate([np.asarray(r[3], dtype=np.float64) for r in rows])
    n = len(vals)
    pts = {"window": np.concatenate(
        [np.asarray(r[2], dtype=np.int64) for r in rows])}
    for i, s in enumerate(("sum", "count", "min", "max", "last")):
        # rolled, not scaled: arithmetic would quieten the NaN payloads
        pts[s] = np.roll(vals, i) if s != "count" else np.arange(n) % 4 * 1.0
    hist_pts = int(counts[kinds == KIND_HISTOGRAM].sum())
    pts["buckets"] = (np.arange(hist_pts * N_BUCKETS, dtype=np.float64)
                      .reshape(hist_pts, N_BUCKETS) % 7)
    flags = np.concatenate([np.asarray(r[6] or [0] * len(r[2]), np.uint8)
                            for r in rows])
    meta = {
        "bucket": pa.array(np.arange(len(rows)) % 3, type=pa.int32()),
        "series_key": pa.array([f"m{{k={r[0]}}}" for r in rows]),
        "name": pa.array([r[0] for r in rows]),
        "kind": pa.array(kinds, type=pa.uint8()),
        "tier": pa.array(["1m"] * 5 + ["5m"] * (len(rows) - 5)),
    }
    codes = np.concatenate([np.asarray(r[4], np.uint16) for r in rows])
    return pack_rows(meta, offsets, pts, codes,
                     np.array([r[5] for r in rows]), flags)


def _digest(col) -> str:
    return hashlib.sha256(repr(col.to_pylist()).encode()).hexdigest()[:16]


# recorded from the list-of-bytes writer (one Python bytes object per
# series section) that the buffer writer replaced
GOLDEN = {
    "bucket": "37ccd5151cfac8f9",
    "series_key": "24c15601a4ab478b",
    "name": "d01343e66579d116",
    "kind": "30fc198c6324a22b",
    "tier": "19e8ade510c5c06d",
    "block_start": "65753873ae3ae971",
    "block_end": "274df852fc71195f",
    "n_points": "cc0a62ce1426e71e",
    "ts_block": "47d5b3b7de49247b",
    "val_blocks": "ef72f61f0a5164bb",
    "flags": "18c7cd70a4546769",
    "runs": "ecc3bfcf859fb2e4",
}


def test_block_writer_golden_bytes():
    blocks = GorillaEncode()(_golden_packed())
    got = {name: _digest(blocks[name]) for name in blocks.column_names}
    assert got == GOLDEN


def test_golden_table_covers_its_cases():
    """The fixed table holds what the golden digests are meant to pin."""
    blocks = GorillaEncode()(_golden_packed())
    runs = blocks["runs"].to_pylist()
    flags = blocks["flags"].to_pylist()
    assert [len(r) > 0 for r in runs] == [True, True, False, True, False,
                                          True, False, True, False]
    assert [len(f) > 0 for f in flags] == [False] * 6 + [True, True, False]
    assert [len(v) for v in blocks["val_blocks"].to_pylist()] == \
        [5] * 5 + [16, 16] + [5, 5]
    dec = decode_blocks_batch(blocks)
    assert len(dec) == int(pa.compute.sum(blocks["n_points"]).as_py())


def test_block_data_past_int32_offsets_raises():
    """A batch whose block column data would pass what int32 offsets
    address raises ValueError instead of wrapping. The lengths are
    forged: nothing large is allocated."""
    from vertex_ray.gorilla import BINARY_MAX_BYTES, binary_array, join_sections

    with pytest.raises(ValueError, match="int32 offsets"):
        binary_array(b"", np.array([BINARY_MAX_BYTES, 1]))
    half = np.array([BINARY_MAX_BYTES // 2 + 1])
    with pytest.raises(ValueError, match="int32 offsets"):
        join_sections([(b"", half), (b"", half)])
    with pytest.raises(ValueError, match="end of the data"):
        binary_array(b"ab", np.array([1, 2]))
