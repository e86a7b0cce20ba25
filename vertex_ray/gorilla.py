"""Gorilla time-series compression (Pelkonen et al., VLDB 2015) — from
scratch, numpy-vectorized in BOTH directions.

Two layouts live here:

1. The paper's interleaved per-point stream (single-series
   ``encode_values``/``decode_values``/``encode_timestamps``/
   ``decode_timestamps``) — kept as the spec-parity reference codec and
   exercised by the property tests.
2. The engine's on-disk block format (``*_multi`` functions): the SAME
   delta-of-delta / XOR-window information, transposed into per-section
   streams ("columnar Gorilla", see the section comment below) so decode
   is pure flat numpy — no per-point loop, throughput independent of
   series count and length skew.

Paper-format stream per series block (self-contained, little-endian raw
headers):

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

This module is pure numpy — no Ray. The actor-pool encode stage lives in
stages/encode.py.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# bit twiddling helpers (vectorized)
# ---------------------------------------------------------------------------


def _clz64(x: np.ndarray) -> np.ndarray:
    """Leading-zero count of uint64 via float64 frexp (x == 0 → 64).

    uint64→float64 conversion can round UP across a power-of-two boundary,
    making the result at most one SMALLER than the true clz — which for
    the encoder only widens the meaningful-bit window by one bit (always
    valid, decodes identically). It can never overestimate, and for exact
    powers of two (the _ctz64 path, which must be exact) it is exact.

    The one hazard is rounding up across 2**64 itself (top ~54 bits set):
    frexp then reports e=65 and the naive 64-e would be -1, which would
    corrupt the 5-bit lead / 6-bit mlen header fields downstream. True clz
    for those patterns is 0, so clamping to 0 is exact, not a widening."""
    x = np.asarray(x, dtype=np.uint64)
    e = np.frexp(x.astype(np.float64))[1]
    return np.where(x == 0, 64, np.maximum(64 - e, 0))


def _ctz64(x: np.ndarray) -> np.ndarray:
    """Count trailing zeros of uint64 (x == 0 → 64)."""
    x = x.astype(np.uint64)
    low = x & (~x + np.uint64(1))  # lowest set bit
    return np.where(x == 0, 64, 63 - _clz64(low))


def pack_bits(codes: np.ndarray, lengths: np.ndarray) -> bytes:
    """Concatenate variable-length MSB-first bit fields (each ≤ 64 bits).

    Bit-LANE strategy: one scatter pass per bit position j (lane j writes
    bit j of every field longer than j bits into a zeroed bit grid), then
    one ``np.packbits``. Work per lane shrinks with the number of fields
    that long, so total scatter work is exactly the output bit count —
    with ~9 B/bit of memory traffic, vs ~40 B/bit for the repeat/gather
    expansion this replaced (which materialized int64 field indices and
    shifts per output bit). Zero-length fields are skipped; output is
    zero-padded to a whole byte (same as packbits)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    keep = lengths > 0
    codes = np.asarray(codes)[keep].astype(np.uint64, copy=False)
    lengths = lengths[keep]
    if len(codes) == 0:
        return b""
    # Word-aligned OR-reduce: each ≤64-bit field spans at most TWO 64-bit
    # words of the output, so its write decomposes into a high-word and
    # an (optional) spill-word contribution — a constant number of numpy
    # passes over the FIELD count, independent of field widths (the
    # per-bit-lane grid this replaces cost ~9 B per output BIT and a
    # Python lane loop up to 64 deep; this is ~8 passes × 8 B per FIELD).
    ends = np.cumsum(lengths)
    starts = ends - lengths
    total_bits = int(ends[-1])
    n_words = (total_bits + 63) >> 6
    word = starts >> 6
    end_bit = (starts & 63) + lengths            # in [1, 127]
    fits = end_bit <= 64
    sh = np.where(fits, 64 - end_bit, end_bit - 64).astype(np.uint64)
    hi = np.where(fits, codes << sh, codes >> sh)
    words = np.zeros(n_words, dtype=np.uint64)
    # fields are in start order → word is non-decreasing → one reduceat
    first = np.flatnonzero(
        np.concatenate([[True], word[1:] != word[:-1]]))
    words[word[first]] = np.bitwise_or.reduceat(hi, first)
    spill = ~fits
    if spill.any():
        lo = codes[spill] << (128 - end_bit[spill]).astype(np.uint64)
        w2 = word[spill] + 1
        f2 = np.flatnonzero(
            np.concatenate([[True], w2[1:] != w2[:-1]]))
        words[w2[f2]] |= np.bitwise_or.reduceat(lo, f2)
    return words.byteswap().tobytes()[: (total_bits + 7) >> 3]


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


# ---------------------------------------------------------------------------
# multi-series batch codec — the engine's on-disk block format ("columnar
# Gorilla"). Same information layout as the paper (delta-of-delta timestamp
# codes, XOR float windows), TRANSPOSED into per-section streams so that
# BOTH encode and decode are a handful of flat numpy passes with no
# per-point loop:
#
# value block:      [v0: f64 raw LE, 8B]
#   Z  (presence):  1 bit per point i>=1 — XOR != 0?         (byte-padded)
#   H  (headers):   11 bits per changed point: 5b lead | 6b (mlen-1)
#   P  (payloads):  mlen meaningful bits per changed point
#
# timestamp block:  [t0: i64 raw LE, 8B][d0: i64 raw LE, 8B if n >= 2]
#   Z  (presence):  1 bit per point i>=2 — dod != 0?
#   CL (classes):   2 bits per nonzero dod: 0→7b, 1→9b, 2→12b, 3→32b
#   P  (payloads):  dod + bias (class 0-2) / int32 two's complement (3)
#
# Section lengths are derivable from n_points plus the Z bits, so blocks
# are self-contained given n. Bit cost is within ±2 bits/point of the
# paper's interleaved layout (Z replaces the paper's per-point control
# prefix), and decode becomes: unpack Z once, gather all fixed-width
# headers in one vectorized read, prefix-sum the payload widths, gather
# all payloads in one read, then reconstruct with SEGMENTED SCANS —
# np.bitwise_xor.accumulate for values (XOR chaining is associative) and
# two cumsums for timestamps. Decode throughput is flat in series-length
# skew, unlike the earlier lockstep-lane decoder this replaced.
# ---------------------------------------------------------------------------


def _bswap(x: np.ndarray) -> np.ndarray:
    """uint64 byte swap: pack_bits writes fields MSB-first (big-endian), the
    raw headers are little-endian — swapping makes the packed header bytes
    identical to tobytes()."""
    return x.astype(np.uint64).byteswap()


def _slices(buf: bytes, series_bits: np.ndarray, pad: np.ndarray) -> list[bytes]:
    series_bytes = (series_bits + pad) >> 3
    starts = np.zeros(len(series_bytes) + 1, dtype=np.int64)
    np.cumsum(series_bytes, out=starts[1:])
    return [buf[starts[i]: starts[i + 1]] for i in range(len(series_bytes))]


def _pack_const_per_series(codes: np.ndarray, w: int,
                           counts: np.ndarray) -> list[bytes]:
    """Pack CONSTANT-width (w ≤ 16) fields, grouped series-major, into
    per-series byte-aligned sections. Scatters each bit lane straight into
    a padded bit grid (w scatters + one packbits) — an order of magnitude
    less memory traffic than the general pack_bits field expansion, and
    the presence (w=1) sections cover every point of every stream."""
    counts = np.asarray(counts, dtype=np.int64)
    s = len(counts)
    n = len(codes)
    bits_per = counts * w
    padded = (bits_per + 7) >> 3 << 3
    starts = _excl_cumsum(padded)[:-1]
    total = int(padded.sum())
    if n == 0 or total == 0:
        return [b""] * s
    if w > 2:
        # wide constant fields (e.g. the 11-bit XOR headers): the
        # word-OR pack_bits path beats a w-deep lane loop
        return _pack_per_series(codes, np.full(n, w, dtype=np.int64),
                                counts)
    grid = np.zeros(total, dtype=np.uint8)
    # base = w·(position within the concatenation) + per-series gap from
    # padding — one repeat of a per-series delta instead of materializing
    # sid + intra index arrays
    delta = starts - w * _excl_cumsum(counts)[:-1]
    base = w * np.arange(n, dtype=np.int64) + np.repeat(delta, counts)
    if w == 1:
        # presence bits (every point of every stream): direct scatter of
        # the boolean lane, no uint64 widening
        grid[base] = np.asarray(codes, dtype=np.uint8)
    else:
        c = np.asarray(codes, dtype=np.uint64)
        for j in range(w):
            grid[base + j] = ((c >> np.uint64(w - 1 - j))
                              & np.uint64(1)).astype(np.uint8)
    return _slices(np.packbits(grid).tobytes(), bits_per, padded - bits_per)


def _pack_per_series(codes: np.ndarray, lens: np.ndarray,
                     counts: np.ndarray) -> list[bytes]:
    """Pack variable-width fields, grouped series-major (counts[i] fields
    belong to series i), into per-series byte-aligned sections."""
    s = len(counts)
    n = len(codes)
    offsets = np.zeros(s + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    lens = np.asarray(lens, dtype=np.int64)
    cum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=cum[1:])
    series_bits = cum[offsets[1:]] - cum[offsets[:-1]]
    pad = (-series_bits) % 8
    f = n + s
    all_codes = np.zeros(f, dtype=np.uint64)
    all_lens = np.zeros(f, dtype=np.int64)
    sid = np.repeat(np.arange(s), counts)
    pos = np.arange(n) + sid
    all_codes[pos] = codes
    all_lens[pos] = lens
    all_lens[offsets[1:] + np.arange(s)] = pad
    buf = pack_bits(all_codes, all_lens)
    return _slices(buf, series_bits, pad)


def _excl_cumsum(x: np.ndarray) -> np.ndarray:
    out = np.zeros(len(x) + 1, dtype=np.int64)
    np.cumsum(x, out=out[1:])
    return out


def _seg_cumsum(x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Inclusive per-segment cumsum of a flat segment-major int64 array."""
    c = np.cumsum(x)
    starts = _excl_cumsum(counts)[:-1]
    nz = counts > 0
    pre = c[starts[nz]] - x[starts[nz]]
    return c - np.repeat(pre, counts[nz])


class _SharedGeom:
    """Per-offsets geometry shared across every value STREAM of the same
    series batch (5 scalar + up to 11 bucket streams share one layout):
    segment starts, presence-grid scatter base, series-id vector — built
    ONCE instead of once per stream (the encoder's former dominant index
    traffic at 32-way)."""

    def __init__(self, offsets: np.ndarray):
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.counts = np.diff(self.offsets)
        self.s = len(self.counts)
        self.n = int(self.offsets[-1]) if self.s else 0
        starts = self.offsets[:-1]
        self.nonzero = self.counts > 0
        is_start = np.zeros(self.n, dtype=bool)
        is_start[starts[self.nonzero]] = True
        self.is_start = is_start
        self.nonstart = ~is_start
        self.zn = np.maximum(self.counts - 1, 0)
        self.z_padded = (self.zn + 7) >> 3 << 3
        zstarts = _excl_cumsum(self.z_padded)[:-1]
        delta = zstarts - _excl_cumsum(self.zn)[:-1]
        self.z_total = int(self.z_padded.sum())
        zn_sum = int(self.zn.sum())
        self.z_base = (np.arange(zn_sum, dtype=np.int64)
                       + np.repeat(delta, self.zn)) if zn_sum else \
            np.zeros(0, dtype=np.int64)
        self.sid = np.repeat(np.arange(self.s), self.counts)
        self.head_rows = starts[self.nonzero]

    def z_sections(self, changed_nonstart: np.ndarray) -> list[bytes]:
        if self.z_total == 0:
            return [b""] * self.s
        grid = np.zeros(self.z_total, dtype=np.uint8)
        grid[self.z_base] = changed_nonstart
        return _slices(np.packbits(grid).tobytes(), self.zn,
                       self.z_padded - self.zn)


def encode_values_multi_shared(flats: list, offsets: np.ndarray,
                               geom: "_SharedGeom | None" = None
                               ) -> list[list[bytes]]:
    """Value blocks for MULTIPLE parallel streams over the same series
    layout — bit-identical per stream to encode_values_multi, with the
    segment/scatter geometry hoisted across streams."""
    g = geom if geom is not None else _SharedGeom(offsets)
    if g.n == 0:
        return [[b""] * g.s for _ in flats]
    out_all = []
    for flat in flats:
        bits = np.ascontiguousarray(
            np.asarray(flat, dtype=np.float64)).view(np.uint64)
        xor = np.zeros(g.n, dtype=np.uint64)
        xor[1:] = bits[1:] ^ bits[:-1]
        xor[g.is_start] = 0
        changed = xor != 0
        lead = np.minimum(_clz64(xor[changed]), 31).astype(np.uint64)
        trail = _ctz64(xor[changed]).astype(np.uint64)
        mlen = np.uint64(64) - lead - trail
        z_sections = g.z_sections(changed[g.nonstart])
        h_counts = np.bincount(g.sid[changed], minlength=g.s)
        h_codes = (lead << np.uint64(6)) | (mlen - np.uint64(1))
        h_sections = _pack_const_per_series(h_codes, 11, h_counts)
        p_sections = _pack_per_series(
            xor[changed] >> trail, mlen.astype(np.int64), h_counts
        )
        heads = _np_heads(bits[g.head_rows])
        out, hi = [], 0
        for i in range(g.s):
            if g.counts[i] == 0:
                out.append(b"")
            else:
                out.append(heads[hi] + z_sections[i] + h_sections[i]
                           + p_sections[i])
                hi += 1
        out_all.append(out)
    return out_all


def encode_values_multi(flat: np.ndarray, offsets: np.ndarray) -> list[bytes]:
    """Value blocks for S series concatenated in ``flat`` (offsets has S+1
    entries; zero-length series are allowed and yield b"")."""
    return encode_values_multi_shared([flat], offsets)[0]


def _np_heads(words: np.ndarray) -> list[bytes]:
    """Raw little-endian 8-byte heads for each 64-bit word."""
    raw = np.ascontiguousarray(words.astype(np.uint64)).tobytes()
    return [raw[8 * i : 8 * i + 8] for i in range(len(words))]


_DOD_WIDTHS = np.array([7, 9, 12, 32], dtype=np.int64)
_DOD_CLASS_BIAS = np.array([63, 255, 2047, 0], dtype=np.int64)


def encode_timestamps_multi(flat: np.ndarray, offsets: np.ndarray) -> list[bytes]:
    offsets = np.asarray(offsets, dtype=np.int64)
    s = len(offsets) - 1
    counts = np.diff(offsets)
    n = len(flat)
    if n == 0:
        return [b""] * s
    ts = np.asarray(flat, dtype=np.int64)
    starts = offsets[:-1]
    is_start = np.zeros(n, dtype=bool)
    is_start[starts[counts > 0]] = True
    is_second = np.zeros(n, dtype=bool)
    is_second[starts[counts >= 2] + 1] = True

    d = np.zeros(n, dtype=np.int64)
    d[1:] = ts[1:] - ts[:-1]
    dod = np.zeros(n, dtype=np.int64)
    dod[1:] = d[1:] - d[:-1]
    dod[is_start | is_second] = 0
    tail = ~(is_start | is_second)  # points i >= 2 within a series
    changed = tail & (dod != 0)

    cdod = dod[changed]
    cls = np.full(len(cdod), 3, dtype=np.int64)
    cls = np.where((cdod >= -2047) & (cdod <= 2048), 2, cls)
    cls = np.where((cdod >= -255) & (cdod <= 256), 1, cls)
    cls = np.where((cdod >= -63) & (cdod <= 64), 0, cls)
    widths = _DOD_WIDTHS[cls]
    payload = np.where(
        cls == 3,
        cdod.astype(np.int32).view(np.uint32).astype(np.uint64),
        (cdod + _DOD_CLASS_BIAS[cls]).astype(np.uint64),
    )

    zn = np.maximum(counts - 2, 0)
    z_sections = _pack_const_per_series(changed[tail], 1, zn)
    sid = np.repeat(np.arange(s), counts)
    c_counts = np.bincount(sid[changed], minlength=s)
    cl_sections = _pack_const_per_series(cls, 2, c_counts)
    p_sections = _pack_per_series(payload, widths, c_counts)

    heads0 = _np_heads(ts[starts[counts > 0]].view(np.uint64))
    d0_map = {int(i): b"" for i in range(s)}
    two = np.flatnonzero(counts >= 2)
    heads1 = _np_heads(d[starts[two] + 1].view(np.uint64))
    for j, i in enumerate(two):
        d0_map[int(i)] = heads1[j]
    out, hi = [], 0
    for i in range(s):
        if counts[i] == 0:
            out.append(b"")
        else:
            out.append(
                heads0[hi] + d0_map[i] + z_sections[i] + cl_sections[i] + p_sections[i]
            )
            hi += 1
    return out


# ---------------------------------------------------------------------------
# vectorized multi-series decoders — no per-point loop anywhere. Throughput
# is a constant number of numpy passes over Σ n_points regardless of how
# many series there are or how skewed their lengths are.
# ---------------------------------------------------------------------------


def _gather_bits(buf: np.ndarray, pos: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Read k (≤64) bits starting at absolute bit position pos for each
    entry, MSB-first. k == 0 entries return 0. buf is uint8 (with ≥9
    padding bytes at the end — _concat_blocks guarantees it)."""
    byte0 = (pos >> 3).astype(np.int64)
    off = (pos & 7).astype(np.uint64)
    idx = byte0[:, None] + np.arange(8)
    w = np.ascontiguousarray(buf[idx])
    word = w.view(">u8")[:, 0].astype(np.uint64)
    ku = np.asarray(k).astype(np.uint64)
    need = off + ku
    ku_c = np.minimum(ku, np.uint64(63))  # avoid 1<<64 overflow in the dead branch
    mask = np.where(ku >= 64, ~np.uint64(0), (np.uint64(1) << ku_c) - np.uint64(1))
    simple = need <= 64
    shift = np.where(simple, np.uint64(64) - need, 0).astype(np.uint64)
    val = (word >> shift) & mask
    if (~simple).any():
        extra = (need - np.uint64(64)).astype(np.uint64)  # 1..7
        b9 = buf[byte0 + 8].astype(np.uint64)
        keep = np.uint64(64) - off
        lowmask = np.where(off == 0, ~np.uint64(0), (np.uint64(1) << keep) - np.uint64(1))
        val2 = ((word & lowmask) << extra) | (b9 >> (np.uint64(8) - extra))
        val = np.where(simple, val, val2 & mask)
    return np.where(ku > 0, val, np.uint64(0))


def _concat_blocks(blocks: list[bytes]):
    lens = np.fromiter((len(b) for b in blocks), dtype=np.int64, count=len(blocks))
    starts = np.zeros(len(blocks) + 1, dtype=np.int64)
    np.cumsum(lens, out=starts[1:])
    # 9 zero bytes of tail padding: a fused 64-bit read issued at the very
    # last bit of the final block may touch up to 9 bytes past it
    buf = np.frombuffer(b"".join(blocks) + b"\0" * 9, dtype=np.uint8)
    return buf, starts[:-1] * 8  # bit offset of each series block


class _ZGeom:
    """Z-section decode geometry that depends ONLY on per-series point
    counts — shared across every value stream of a series batch (5
    scalar + up to 11 bucket streams re-derived identical el_sid /
    intra / zflat index arrays before this hoist)."""

    def __init__(self, counts: np.ndarray, zn: np.ndarray):
        self.s = len(zn)
        self.zn = zn
        total_z = int(zn.sum())
        self.el_sid = np.repeat(np.arange(self.s), zn)
        self.intra = (np.arange(total_z)
                      - np.repeat(_excl_cumsum(zn)[:-1], zn))
        self.out_off = _excl_cumsum(counts)[:-1]
        lead_pts = counts - zn  # points before the Z section (1 head / 2 ts)
        self.zflat = (self.out_off[self.el_sid]
                      + lead_pts[self.el_sid] + self.intra)


def _presence_layout(buf, z_start_bits, zn, counts, geom: "_ZGeom | None" = None):
    """Shared Z-section decode: per-point presence bits for every series,
    plus the flat output index of each Z-covered point.

    Returns (changed mask over Z points, el_sid, zflat point positions in
    the concatenated output, nnz per series)."""
    g = geom if geom is not None else _ZGeom(counts, zn)
    unpacked = np.unpackbits(buf)
    presence = unpacked[z_start_bits[g.el_sid] + g.intra]
    changed = presence.astype(bool)
    nnz = np.bincount(g.el_sid, weights=presence,
                      minlength=g.s).astype(np.int64)
    return changed, g.el_sid, g.zflat, nnz


def decode_values_multi_flat(blocks: list[bytes], n_points: np.ndarray,
                             geom: "_ZGeom | None" = None) -> np.ndarray:
    """Inverse of encode_values_multi for all series at once; returns ONE
    float64 array with every series' points concatenated in input order.
    Pass a shared ``_ZGeom`` when decoding several streams of the same
    series batch (decode_blocks_batch does)."""
    s = len(blocks)
    counts = np.asarray(n_points, dtype=np.int64)
    total = int(counts.sum())
    if s == 0 or total == 0:
        return np.zeros(0, dtype=np.float64)
    buf, bit0 = _concat_blocks(blocks)
    nz = counts > 0
    heads = _bswap(_gather_bits(buf, bit0[nz], np.uint64(64)))
    zn = np.maximum(counts - 1, 0)
    z_start = bit0 + 64 * nz
    changed, el_sid, zflat, nnz = _presence_layout(buf, z_start, zn,
                                                   counts, geom)

    h_start = z_start + ((zn + 7) >> 3 << 3)
    ch = np.flatnonzero(changed)
    ch_sid = el_sid[ch]
    # rank of each changed point within its series' changed set
    rank = np.arange(len(ch)) - np.repeat(_excl_cumsum(nnz)[:-1][nnz > 0], nnz[nnz > 0])
    hdr = _gather_bits(buf, h_start[ch_sid] + 11 * rank, np.uint64(11))
    lead = (hdr >> np.uint64(6)) & np.uint64(0x1F)
    mlen = (hdr & np.uint64(0x3F)) + np.uint64(1)

    p_start = h_start + ((11 * nnz + 7) >> 3 << 3)
    p_off = _seg_cumsum(mlen.astype(np.int64), nnz) - mlen.astype(np.int64)
    payload = _gather_bits(buf, p_start[ch_sid] + p_off, mlen)
    xor = payload << (np.uint64(64) - lead - mlen)

    delta = np.zeros(total, dtype=np.uint64)
    delta[zflat[ch]] = xor
    out_off = _excl_cumsum(counts)[:-1]
    delta[out_off[nz]] = heads
    c = np.bitwise_xor.accumulate(delta)
    pre = c[out_off[nz]] ^ heads
    vals = c ^ np.repeat(pre, counts[nz])
    return vals.view(np.float64)


def decode_values_multi(blocks: list[bytes], n_points: np.ndarray) -> list[np.ndarray]:
    """List-of-arrays wrapper over decode_values_multi_flat."""
    n_points = np.asarray(n_points, dtype=np.int64)
    flat = decode_values_multi_flat(blocks, n_points)
    offs = _excl_cumsum(n_points)
    return [flat[offs[j] : offs[j + 1]] for j in range(len(n_points))]


def decode_timestamps_multi_flat(blocks: list[bytes], n_points: np.ndarray) -> np.ndarray:
    """Inverse of encode_timestamps_multi for all series at once; returns
    ONE int64 array, all series concatenated in input order."""
    s = len(blocks)
    counts = np.asarray(n_points, dtype=np.int64)
    total = int(counts.sum())
    if s == 0 or total == 0:
        return np.zeros(0, dtype=np.int64)
    buf, bit0 = _concat_blocks(blocks)
    nz = counts > 0
    t0 = _bswap(_gather_bits(buf, bit0[nz], np.uint64(64))).view(np.int64)
    two = counts >= 2
    d0 = _bswap(_gather_bits(buf, (bit0 + 64)[two], np.uint64(64))).view(np.int64)
    zn = np.maximum(counts - 2, 0)
    z_start = bit0 + 64 * nz + 64 * two
    changed, el_sid, zflat, nnz = _presence_layout(buf, z_start, zn, counts)

    cl_start = z_start + ((zn + 7) >> 3 << 3)
    ch = np.flatnonzero(changed)
    ch_sid = el_sid[ch]
    rank = np.arange(len(ch)) - np.repeat(_excl_cumsum(nnz)[:-1][nnz > 0], nnz[nnz > 0])
    cls = _gather_bits(buf, cl_start[ch_sid] + 2 * rank, np.uint64(2)).astype(np.int64)
    widths = _DOD_WIDTHS[cls]

    p_start = cl_start + ((2 * nnz + 7) >> 3 << 3)
    p_off = _seg_cumsum(widths, nnz) - widths
    payload = _gather_bits(buf, p_start[ch_sid] + p_off, widths)
    dod = np.where(
        cls == 3,
        payload.astype(np.uint32).view(np.int32).astype(np.int64),
        payload.view(np.int64) - _DOD_CLASS_BIAS[cls],
    )

    out_off = _excl_cumsum(counts)[:-1]
    # D[start]=0, D[start+1]=d0, D[i>=2]=dod → segmented cumsum = d per point
    D = np.zeros(total, dtype=np.int64)
    D[zflat[ch]] = dod
    D[(out_off + 1)[two]] = d0
    d_abs = _seg_cumsum(D, counts)
    # T[start]=t0, T[i>=1]=d_abs → segmented cumsum = absolute timestamps
    d_abs[out_off[nz]] = t0
    return _seg_cumsum(d_abs, counts)


def decode_timestamps_multi(blocks: list[bytes], n_points: np.ndarray) -> list[np.ndarray]:
    """List-of-arrays wrapper over decode_timestamps_multi_flat."""
    n_points = np.asarray(n_points, dtype=np.int64)
    flat = decode_timestamps_multi_flat(blocks, n_points)
    offs = _excl_cumsum(n_points)
    return [flat[offs[j] : offs[j + 1]] for j in range(len(n_points))]


def decode_flags_multi(blocks: list[bytes], n_points: np.ndarray) -> list[np.ndarray]:
    """All series' 2-bit flag streams unpacked in ONE numpy pass (each
    block is byte-padded, so expanded positions are 4 × byte offsets)."""
    if not blocks:
        return []
    n_points = np.asarray(n_points, dtype=np.int64)
    nbytes = np.fromiter((len(b) for b in blocks), dtype=np.int64, count=len(blocks))
    buf = np.frombuffer(b"".join(blocks), dtype=np.uint8)
    ex = np.empty(len(buf) * 4, dtype=np.uint8)
    ex[0::4] = (buf >> 6) & 3
    ex[1::4] = (buf >> 4) & 3
    ex[2::4] = (buf >> 2) & 3
    ex[3::4] = buf & 3
    starts = np.zeros(len(blocks), dtype=np.int64)
    np.cumsum(nbytes[:-1], out=starts[1:])
    starts *= 4
    return [ex[s : s + int(n)] for s, n in zip(starts, n_points)]


# ---------------------------------------------------------------------------
# flags stream: 2 bits per point (bit0 = filled, bit1 = stale), 4 per byte
# ---------------------------------------------------------------------------


def encode_flags_multi(flat: np.ndarray, offsets: np.ndarray) -> list[bytes]:
    """Per-series flag blocks in one vectorized pass: 2-bit fields, four
    per byte with the first point in the high bits, padded with zero
    fields to a byte boundary at each series end."""
    n = len(flat)
    s = len(offsets) - 1
    if n == 0:
        return [b""] * s
    counts = np.diff(np.asarray(offsets, dtype=np.int64))
    return _pack_const_per_series(
        np.asarray(flat, dtype=np.uint64) & np.uint64(3), 2, counts
    )

