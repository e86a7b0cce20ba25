"""The paper's interleaved single-series Gorilla stream (Pelkonen et
al., VLDB 2015, §4.1), kept as the readable spec the engine's columnar
codec (vertex_ray/gorilla.py, the ``*_multi`` functions) is tested
against; no engine path calls it.

Stream per series block (self-contained, little-endian raw headers):

Timestamp stream (epoch seconds, non-decreasing):
    [t0: i64][d0: i64 (if n >= 2)][delta-of-delta bits for points 2..n-1]
    dod codes (paper §4.1.1): ``0`` dod == 0; ``10`` + 7 bits for
    [-63, 64]; ``110`` + 9 bits for [-255, 256]; ``1110`` + 12 bits for
    [-2047, 2048]; ``1111`` + 32 bits otherwise. Bounded fields store
    dod + bias; the 32-bit field stores two's-complement.

Value stream (f64 bit patterns — NaN payloads such as the Prometheus
stale marker 0x7ff0000000000002 survive bit-for-bit):
    [v0: f64 raw][per point: ``0`` if XOR == 0 else ``11`` + 5-bit
    leading-zero count (capped 31) + 6-bit (meaningful_len - 1) +
    meaningful bits]
    The encoder always refreshes the leading/length window (control
    ``11``); the decoder additionally accepts the paper's ``10``
    reuse-previous-window control, so any conforming stream decodes.

The decoders read per point with ``BitReader`` and trust ``n``: a
truncated stream or an inflated count decodes without an error, which
is why the engine does not read this layout.
"""

from __future__ import annotations

import numpy as np

from vertex_ray.gorilla import _clz64, _ctz64, _pack_fields


def pack_bits(codes: np.ndarray, lengths: np.ndarray) -> bytes:
    """Concatenate variable-length MSB-first bit fields (each ≤ 64 bits).
    Zero-length fields are skipped; output is zero-padded to a whole
    byte (same as packbits)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    keep = lengths > 0
    lengths = lengths[keep]
    ends = np.cumsum(lengths)
    return _pack_fields(np.asarray(codes)[keep], lengths, ends - lengths,
                        int(ends[-1]) if len(ends) else 0).tobytes()


class BitReader:
    __slots__ = ("buf", "pos")

    def __init__(self, buf: bytes, bit_pos: int = 0):
        self.buf = buf
        self.pos = bit_pos

    def read(self, k: int) -> int:
        if k == 0:
            return 0
        start, end = self.pos, self.pos + k
        first, last = start >> 3, (end + 7) >> 3
        chunk = int.from_bytes(self.buf[first:last], "big")
        chunk >>= (last << 3) - end
        self.pos = end
        return chunk & ((1 << k) - 1)


# ---------------------------------------------------------------------------
# timestamp stream
# ---------------------------------------------------------------------------

_DOD_BIASES = (63, 255, 2047)
_DOD_PREFIXES = ((0b10, 2, 7), (0b110, 3, 9), (0b1110, 4, 12))


def encode_timestamps(ts: np.ndarray) -> bytes:
    ts = np.asarray(ts, dtype=np.int64)
    n = len(ts)
    if n == 0:
        return b""
    head = ts[0].tobytes()
    if n == 1:
        return head
    d = np.diff(ts)
    head += d[0].tobytes()
    if n == 2:
        return head
    dod = d[1:] - d[:-1]
    codes = np.zeros(len(dod), dtype=np.uint64)
    lens = np.zeros(len(dod), dtype=np.int64)
    done = dod == 0
    lens[done] = 1  # code 0
    for (prefix, plen, vbits), bias in zip(_DOD_PREFIXES, _DOD_BIASES):
        m = (~done) & (dod >= -bias) & (dod <= bias + 1)
        codes[m] = (np.uint64(prefix) << np.uint64(vbits)) | (
            (dod[m] + bias).astype(np.uint64)
        )
        lens[m] = plen + vbits
        done |= m
    m = ~done
    codes[m] = (np.uint64(0b1111) << np.uint64(32)) | (
        dod[m].astype(np.int32).view(np.uint32).astype(np.uint64)
    )
    lens[m] = 36
    return head + pack_bits(codes, lens)


def decode_timestamps(buf: bytes, n: int) -> np.ndarray:
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    out[0] = np.frombuffer(buf[:8], dtype=np.int64)[0]
    if n == 1:
        return out
    d = int(np.frombuffer(buf[8:16], dtype=np.int64)[0])
    out[1] = out[0] + d
    r = BitReader(buf, 128)
    for i in range(2, n):
        if r.read(1) == 0:
            dod = 0
        elif r.read(1) == 0:
            dod = r.read(7) - 63
        elif r.read(1) == 0:
            dod = r.read(9) - 255
        elif r.read(1) == 0:
            dod = r.read(12) - 2047
        else:
            v = r.read(32)
            dod = v - (1 << 32) if v >= (1 << 31) else v
        d += dod
        out[i] = out[i - 1] + d
    return out


# ---------------------------------------------------------------------------
# value stream
# ---------------------------------------------------------------------------


def encode_values(vals: np.ndarray) -> bytes:
    bits = np.ascontiguousarray(np.asarray(vals, dtype=np.float64)).view(np.uint64)
    n = len(bits)
    if n == 0:
        return b""
    head = bits[0].tobytes()
    if n == 1:
        return head
    x = bits[1:] ^ bits[:-1]
    lead = np.minimum(_clz64(x), 31)
    trail = _ctz64(x)
    mlen = 64 - lead - trail  # >= 1 whenever x != 0
    zero = x == 0
    # two fields per point: A = control(+window), B = meaningful bits
    a_codes = np.where(
        zero,
        np.uint64(0),
        (np.uint64(0b11) << np.uint64(11))
        | (lead.astype(np.uint64) << np.uint64(6))
        | np.where(zero, 0, mlen - 1).astype(np.uint64),
    )
    a_lens = np.where(zero, 1, 13)
    b_codes = np.where(zero, np.uint64(0), x >> trail.astype(np.uint64))
    b_lens = np.where(zero, 0, mlen)
    codes = np.empty(2 * (n - 1), dtype=np.uint64)
    lens = np.empty(2 * (n - 1), dtype=np.int64)
    codes[0::2], codes[1::2] = a_codes, b_codes
    lens[0::2], lens[1::2] = a_lens, b_lens
    return head + pack_bits(codes, lens)


def decode_values(buf: bytes, n: int) -> np.ndarray:
    out = np.empty(n, dtype=np.uint64)
    if n == 0:
        return out.view(np.float64)
    out[0] = np.frombuffer(buf[:8], dtype=np.uint64)[0]
    if n == 1:
        return out.view(np.float64)
    r = BitReader(buf, 64)
    prev = int(out[0])
    lead = mlen = 0
    for i in range(1, n):
        c = r.read(1)
        if c == 0:
            out[i] = prev
            continue
        if r.read(1):  # '11' new window
            lead = r.read(5)
            mlen = r.read(6) + 1
        # else '10': reuse previous window (paper path; we never emit it)
        meaning = r.read(mlen)
        prev ^= meaning << (64 - lead - mlen)
        out[i] = prev
    return out.view(np.float64)
