"""Gorilla time-series compression (Pelkonen et al., VLDB 2015) — from
scratch, numpy-vectorized in BOTH directions.

One layout lives here, the engine's only Gorilla codec (``*_multi``
functions): the paper's delta-of-delta / XOR-window information,
transposed into per-section streams ("columnar Gorilla", see the
section comment below) so decode is pure flat numpy — no per-point
loop, throughput independent of series count and length skew. It works
on Arrow buffers, with no per-series Python object: each encoder builds
every section of all series as one byte-aligned buffer plus per-series
byte lengths and joins the sections per series into one ``binary``
array; each decoder reads a column's data as one padded uint8 buffer
(``stream_buffer``) at per-series bit offsets, and raises ValueError on
a block whose sections do not fit it.

The paper's interleaved per-point stream is not an engine format; its
readable single-series statement is the test spec (tests/gorilla_spec.py)
the property tests compare this codec against.

This module is numpy and Arrow buffers — no Ray. Two writers lay these
streams out as rows: the store's block writer and reader
(``GorillaEncode``, ``decode_blocks_flat``, stages/encode.py) and the
streaming encoder's one-stream blocks (``StreamGorillaEncoder``,
``decode_stream_blocks``, stages/stream_encode.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

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


def _pack_fields(codes: np.ndarray, lengths: np.ndarray, starts: np.ndarray,
                 total_bits: int) -> np.ndarray:
    """Fields of 1..64 bits, in start order, written MSB-first at bit
    ``starts`` of a zeroed ``total_bits`` output → its bytes (uint8).

    Word-aligned OR-reduce: each ≤64-bit field spans at most TWO 64-bit
    words of the output, so its write decomposes into a high-word and an
    (optional) spill-word contribution — a constant number of numpy
    passes over the FIELD count, independent of field widths (the
    per-bit-lane grid this replaced cost ~9 B per output BIT and a Python
    lane loop up to 64 deep; this is ~8 passes × 8 B per FIELD)."""
    n_bytes = (total_bits + 7) >> 3
    if len(codes) == 0:
        return np.zeros(n_bytes, dtype=np.uint8)
    codes = codes.astype(np.uint64, copy=False)
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
    return words.byteswap().view(np.uint8)[:n_bytes]


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
    """uint64 byte swap: _pack_fields writes fields MSB-first
    (big-endian), the raw headers are little-endian — swapping makes the
    packed header bytes identical to tobytes()."""
    return x.astype(np.uint64).byteswap()


# The block columns are Arrow ``binary`` / ``list<binary>`` with int32
# offsets (schema.BLOCK_SCHEMA): one batch's column data stays below this.
BINARY_MAX_BYTES = 2**31 - 1
# zero bytes after a decode buffer: a fused 64-bit read issued at the
# very last bit of the final block touches up to 9 bytes past it
_PAD = 9


def _addressable(nbytes: int) -> None:
    if nbytes > BINARY_MAX_BYTES:
        raise ValueError(
            f"{nbytes} bytes of block data in one batch: more than the "
            f"{BINARY_MAX_BYTES} a binary column's int32 offsets address")


def binary_array(data, lens: np.ndarray) -> pa.BinaryArray:
    """An Arrow binary array over ``data`` (bytes or a contiguous uint8
    array) whose element i is the next ``lens[i]`` bytes — no copy.
    Raises ValueError when the elements pass what int32 offsets address,
    rather than letting the offsets wrap."""
    offsets = _excl_cumsum(lens)
    _addressable(int(offsets[-1]))
    if memoryview(data).nbytes < offsets[-1]:
        raise ValueError("binary_array: lengths pass the end of the data")
    return pa.Array.from_buffers(
        pa.binary(), len(offsets) - 1,
        [None, pa.py_buffer(offsets.astype(np.int32)), pa.py_buffer(data)])


def join_sections(sections) -> pa.BinaryArray:
    """Per-series blocks from per-section ``(data, lens)`` buffers: series
    i's block is its bytes of each section, in section order."""
    _addressable(sum(int(np.sum(lens)) for _, lens in sections))
    return pc.binary_join_element_wise(
        *(binary_array(data, lens) for data, lens in sections), b"")


def _pad8(bits: np.ndarray) -> np.ndarray:
    return (bits + 7) >> 3 << 3


def _pack_const_per_series(codes: np.ndarray, w: int, counts: np.ndarray):
    """Pack CONSTANT-width (w ≤ 16) fields, grouped series-major, into
    byte-aligned per-series sections: ``(data, per-series byte lengths)``.
    Scatters each bit lane straight into a padded bit grid (w scatters +
    one packbits) — an order of magnitude less memory traffic than the
    general _pack_fields field expansion, and the presence (w=1) sections
    cover every point of every stream."""
    counts = np.asarray(counts, dtype=np.int64)
    n = len(codes)
    padded = _pad8(counts * w)
    if n == 0:
        return b"", padded >> 3
    if w > 2:
        # wide constant fields (e.g. the 11-bit XOR headers): the
        # word-OR _pack_fields path beats a w-deep lane loop
        return _pack_per_series(codes, np.full(n, w, dtype=np.int64),
                                counts)
    grid = np.zeros(int(padded.sum()), dtype=np.uint8)
    # base = w·(position within the concatenation) + per-series gap from
    # padding — one repeat of a per-series delta instead of materializing
    # sid + intra index arrays
    delta = _excl_cumsum(padded)[:-1] - w * _excl_cumsum(counts)[:-1]
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
    return np.packbits(grid), padded >> 3


def _pack_per_series(codes: np.ndarray, lens: np.ndarray,
                     counts: np.ndarray):
    """Pack variable-width fields (each ≥ 1 bit), grouped series-major
    (counts[i] fields belong to series i), into byte-aligned per-series
    sections: ``(data, per-series byte lengths)``."""
    offsets = _excl_cumsum(counts)
    lens = np.asarray(lens, dtype=np.int64)
    cum = _excl_cumsum(lens)
    series_bytes = (cum[offsets[1:]] - cum[offsets[:-1]] + 7) >> 3
    # a field's bit: its bit within its series' fields plus the series'
    # first (byte-aligned) bit in the section
    shift = 8 * _excl_cumsum(series_bytes)[:-1] - cum[offsets[:-1]]
    starts = cum[:-1] + np.repeat(shift, counts)
    return (_pack_fields(codes, lens, starts, 8 * int(series_bytes.sum())),
            series_bytes)


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
        offsets = np.asarray(offsets, dtype=np.int64)
        counts = np.diff(offsets)
        self.s = len(counts)
        self.n = int(offsets[-1]) if self.s else 0
        self.nonzero = counts > 0
        self.head_rows = offsets[:-1][self.nonzero]
        self.is_start = np.zeros(self.n, dtype=bool)
        self.is_start[self.head_rows] = True
        self.nonstart = ~self.is_start
        zn = np.maximum(counts - 1, 0)
        self.z_padded = _pad8(zn)
        self.z_total = int(self.z_padded.sum())
        delta = _excl_cumsum(self.z_padded)[:-1] - _excl_cumsum(zn)[:-1]
        self.z_base = np.arange(int(zn.sum())) + np.repeat(delta, zn)
        self.sid = np.repeat(np.arange(self.s), counts)

    def z_section(self, changed_nonstart: np.ndarray):
        if self.z_total == 0:
            return b"", np.zeros(self.s, dtype=np.int64)
        grid = np.zeros(self.z_total, dtype=np.uint8)
        grid[self.z_base] = changed_nonstart
        return np.packbits(grid), self.z_padded >> 3


def encode_values_multi_shared(flats: list,
                               offsets: np.ndarray) -> list[pa.BinaryArray]:
    """Value blocks of S series concatenated in each of ``flats``, MULTIPLE
    parallel streams over the same series layout (offsets has S+1
    entries; a zero-length series gets b""): one binary array per
    stream, joined from its head, Z, H and P section buffers, with the
    segment/scatter geometry hoisted across streams."""
    g = _SharedGeom(offsets)
    if g.n == 0:
        return [binary_array(b"", np.zeros(g.s, dtype=np.int64))
                for _ in flats]
    out = []
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
        h_counts = np.bincount(g.sid[changed], minlength=g.s)
        h_codes = (lead << np.uint64(6)) | (mlen - np.uint64(1))
        out.append(join_sections([
            (np.ascontiguousarray(bits[g.head_rows], dtype="<u8"),
             8 * g.nonzero),
            g.z_section(changed[g.nonstart]),
            _pack_const_per_series(h_codes, 11, h_counts),
            _pack_per_series(xor[changed] >> trail, mlen.astype(np.int64),
                             h_counts),
        ]))
    return out


_DOD_WIDTHS = np.array([7, 9, 12, 32], dtype=np.int64)
_DOD_CLASS_BIAS = np.array([63, 255, 2047, 0], dtype=np.int64)


def encode_timestamps_multi(flat: np.ndarray,
                            offsets: np.ndarray) -> pa.BinaryArray:
    """Timestamp blocks of S series concatenated in ``flat``: one binary
    array joined from the t0, d0, Z, CL and P section buffers."""
    offsets = np.asarray(offsets, dtype=np.int64)
    s = len(offsets) - 1
    counts = np.diff(offsets)
    n = len(flat)
    if n == 0:
        return binary_array(b"", np.zeros(s, dtype=np.int64))
    ts = np.asarray(flat, dtype=np.int64)
    starts = offsets[:-1]
    nz, two = counts > 0, counts >= 2
    is_start = np.zeros(n, dtype=bool)
    is_start[starts[nz]] = True
    is_second = np.zeros(n, dtype=bool)
    is_second[starts[two] + 1] = True

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
    sid = np.repeat(np.arange(s), counts)
    c_counts = np.bincount(sid[changed], minlength=s)
    return join_sections([
        # raw little-endian 8-byte heads
        (np.ascontiguousarray(ts[starts[nz]], dtype="<i8"), 8 * nz),
        (np.ascontiguousarray(d[starts[two] + 1], dtype="<i8"), 8 * two),
        _pack_const_per_series(changed[tail], 1, zn),
        _pack_const_per_series(cls, 2, c_counts),
        _pack_per_series(payload, widths, c_counts),
    ])


# ---------------------------------------------------------------------------
# vectorized multi-series decoders — no per-point loop anywhere. Throughput
# is a constant number of numpy passes over Σ n_points regardless of how
# many series there are or how skewed their lengths are. Each reads series
# i's block as bits [bit0[i], bit1[i]) of one padded uint8 buffer
# (``stream_buffer``), and raises ValueError when the sections that
# n_points and the block's own bits describe do not fill the block
# exactly, before any read past it.
# ---------------------------------------------------------------------------


def stream_buffer(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """A binary array's bytes, read off its Arrow buffers: one uint8 copy
    of its data with zero padding after it (the decoders' fused reads),
    and the byte offset of every element in it (len(arr) + 1 entries; a
    null reads as empty)."""
    n = len(arr)
    if arr.null_count:
        arr = pc.fill_null(arr, b"")
    _, offsets, data = arr.buffers()
    if n == 0:
        return np.zeros(_PAD, dtype=np.uint8), np.zeros(1, dtype=np.int64)
    odt = np.int64 if pa.types.is_large_binary(arr.type) else np.int32
    off = np.frombuffer(offsets, dtype=odt)[
        arr.offset: arr.offset + n + 1].astype(np.int64)
    lo, hi = int(off[0]), int(off[-1])
    buf = np.zeros(hi - lo + _PAD, dtype=np.uint8)
    if hi > lo:
        buf[: hi - lo] = np.frombuffer(data, dtype=np.uint8)[lo:hi]
    return buf, off - lo


def _check_fits(end: np.ndarray, bit1: np.ndarray, exact: bool = False):
    bad = (end != bit1) if exact else (end > bit1)
    if bad.any():
        raise ValueError(
            f"corrupt Gorilla block: {int(bad.sum())} series' sections "
            "do not match their block's length and n_points")


def _gather_bits(buf: np.ndarray, pos: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Read k (≤64) bits starting at absolute bit position pos for each
    entry, MSB-first. k == 0 entries return 0. buf is uint8 (with ≥9
    padding bytes at the end — stream_buffer guarantees it)."""
    byte0 = (pos >> 3).astype(np.int64)
    off = (pos & 7).astype(np.uint64)
    # every byte offset's big-endian 8-byte word, as one overlapping
    # (stride 1) view of the buffer: one gather per read
    words = np.ndarray((len(buf) - 7,), dtype=">u8", buffer=buf,
                       strides=(1,))
    word = words[byte0].astype(np.uint64)
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


class _ZGeom:
    """Z-section decode geometry that depends ONLY on per-series point
    counts — shared across every value stream of a series batch (5
    scalar + up to 11 bucket streams re-derived identical el_sid /
    intra / zflat index arrays before this hoist)."""

    def __init__(self, counts: np.ndarray, zn: np.ndarray):
        self.s = len(zn)
        self.el_sid = np.repeat(np.arange(self.s), zn)
        self.intra = (np.arange(int(zn.sum()))
                      - np.repeat(_excl_cumsum(zn)[:-1], zn))
        # points before the Z section: 1 head (values) / 2 (timestamps)
        lead = _excl_cumsum(counts)[:-1] + counts - zn
        self.zflat = lead[self.el_sid] + self.intra


def _presence_layout(buf, z_start_bits, zn, counts, geom: "_ZGeom | None" = None):
    """Shared Z-section decode: per-point presence bits for every series,
    read in place (one byte gather per bit), plus the flat output index
    of each Z-covered point.

    Returns (changed mask over Z points, el_sid, zflat point positions in
    the concatenated output, nnz per series)."""
    g = geom if geom is not None else _ZGeom(counts, zn)
    pos = z_start_bits[g.el_sid] + g.intra
    changed = ((buf[pos >> 3] >> (7 - (pos & 7)).astype(np.uint8))
               & 1).astype(bool)
    nnz = np.bincount(g.el_sid[changed], minlength=g.s)
    return changed, g.el_sid, g.zflat, nnz


def decode_values_multi_flat(buf: np.ndarray, bit0: np.ndarray,
                             bit1: np.ndarray, n_points: np.ndarray,
                             geom: "_ZGeom | None" = None) -> np.ndarray:
    """Inverse of encode_values_multi_shared for all series at once: the
    value blocks at bits [bit0, bit1) of ``buf`` → ONE float64 array with
    every series' points concatenated in input order. Pass a shared
    ``_ZGeom`` when decoding several streams of the same series batch
    (decode_blocks_flat does)."""
    counts = np.asarray(n_points, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        _check_fits(bit0, bit1, exact=True)
        return np.zeros(0, dtype=np.float64)
    nz = counts > 0
    zn = np.maximum(counts - 1, 0)
    z_start = bit0 + 64 * nz
    h_start = z_start + _pad8(zn)
    _check_fits(h_start, bit1)
    heads = _bswap(_gather_bits(buf, bit0[nz], np.uint64(64)))
    changed, el_sid, zflat, nnz = _presence_layout(buf, z_start, zn,
                                                   counts, geom)
    p_start = h_start + _pad8(11 * nnz)
    _check_fits(p_start, bit1)
    ch = np.flatnonzero(changed)
    ch_sid = el_sid[ch]
    first = _excl_cumsum(nnz)
    rank = np.arange(len(ch)) - first[ch_sid]  # within the series' changes
    hdr = _gather_bits(buf, h_start[ch_sid] + 11 * rank, np.uint64(11))
    lead = (hdr >> np.uint64(6)) & np.uint64(0x1F)
    mlen = (hdr & np.uint64(0x3F)) + np.uint64(1)

    cm = _excl_cumsum(mlen.astype(np.int64))
    _check_fits(p_start + _pad8(cm[first[1:]] - cm[first[:-1]]), bit1,
                exact=True)
    p_off = cm[:-1] - np.repeat(cm[first[:-1]], nnz)
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


def decode_timestamps_multi_flat(buf: np.ndarray, bit0: np.ndarray,
                                 bit1: np.ndarray,
                                 n_points: np.ndarray) -> np.ndarray:
    """Inverse of encode_timestamps_multi for all series at once: the
    timestamp blocks at bits [bit0, bit1) of ``buf`` → ONE int64 array,
    all series concatenated in input order."""
    counts = np.asarray(n_points, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        _check_fits(bit0, bit1, exact=True)
        return np.zeros(0, dtype=np.int64)
    nz, two = counts > 0, counts >= 2
    zn = np.maximum(counts - 2, 0)
    z_start = bit0 + 64 * nz + 64 * two
    cl_start = z_start + _pad8(zn)
    _check_fits(cl_start, bit1)
    t0 = _bswap(_gather_bits(buf, bit0[nz], np.uint64(64))).view(np.int64)
    d0 = _bswap(_gather_bits(buf, (bit0 + 64)[two], np.uint64(64))).view(np.int64)
    changed, el_sid, zflat, nnz = _presence_layout(buf, z_start, zn, counts)

    p_start = cl_start + _pad8(2 * nnz)
    _check_fits(p_start, bit1)
    ch = np.flatnonzero(changed)
    ch_sid = el_sid[ch]
    first = _excl_cumsum(nnz)
    rank = np.arange(len(ch)) - first[ch_sid]
    cls = _gather_bits(buf, cl_start[ch_sid] + 2 * rank,
                       np.uint64(2)).astype(np.int64)
    widths = _DOD_WIDTHS[cls]

    cw = _excl_cumsum(widths)
    _check_fits(p_start + _pad8(cw[first[1:]] - cw[first[:-1]]), bit1,
                exact=True)
    p_off = cw[:-1] - np.repeat(cw[first[:-1]], nnz)
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


# ---------------------------------------------------------------------------
# flags stream: 2 bits per point (bit0 = filled, bit1 = stale), 4 per byte
# ---------------------------------------------------------------------------


def encode_flags_multi(flat: np.ndarray, offsets: np.ndarray) -> pa.BinaryArray:
    """Per-series flag blocks in one vectorized pass: 2-bit fields, four
    per byte with the first point in the high bits, padded with zero
    fields to a byte boundary at each series end."""
    counts = np.diff(np.asarray(offsets, dtype=np.int64))
    return binary_array(*_pack_const_per_series(
        np.asarray(flat, dtype=np.uint64) & np.uint64(3), 2, counts))


def decode_flags_multi_flat(buf: np.ndarray, bit0: np.ndarray,
                            bit1: np.ndarray,
                            n_points: np.ndarray) -> np.ndarray:
    """All series' 2-bit flag blocks at bits [bit0, bit1) of ``buf`` (each
    byte-aligned) → ONE uint8 array, series concatenated in input
    order."""
    counts = np.asarray(n_points, dtype=np.int64)
    _check_fits(bit0 + _pad8(2 * counts), bit1, exact=True)
    first = _excl_cumsum(counts)
    # field index in the buffer: 4 fields per byte, blocks byte-aligned
    q = np.repeat((bit0 >> 1) - first[:-1], counts) + np.arange(first[-1])
    return (buf[q >> 2] >> (6 - 2 * (q & 3)).astype(np.uint8)) & np.uint8(3)
