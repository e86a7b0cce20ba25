"""MaxMind DB (.mmdb) binary format — reader + fixture writer, pure
stdlib/numpy, per the PUBLIC MaxMind DB file format spec 2.0.

The reference's geoip transform mmaps a real .mmdb
(src/transforms/geoip.rs:85-91) — until now stages/enrich substituted a
parquet lookup table (the right Ray broadcast shape, but no format
parser). This module closes that gap:

* :class:`MmdbReader` — parses the metadata map, walks the binary
  search tree (record sizes 24/28/32), and decodes the data section
  (pointers, utf8, double, bytes, uint16/32/64, int32, map, array,
  bool, float) for IPv4 and IPv6 trees (IPv4 addresses in a v6 tree
  descend 96 zero bits first, the spec's ::ffff:0:0/96 convention).
* :func:`encode_mmdb` — a fixture-grade writer (IPv4 networks → record
  maps, deduplicated data section, configurable record size) so tests
  and benchmarks have REAL .mmdb bytes without shipping any external
  database.
* :func:`geoip_enrich` — the actor-pool stage: the DB bytes are
  broadcast once (``ray.put``), parsed once per actor in ``__init__``,
  and each batch resolves its UNIQUE IPs through the tree (≤32 node
  steps each) then gathers per-row columns vectorized.
"""
from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

METADATA_MARKER = b"\xab\xcd\xefMaxMind.com"
_SEPARATOR = b"\x00" * 16

# --- data-section encoding (writer) ---------------------------------------


def _enc_ctrl(type_num: int, size: int) -> bytes:
    """Control byte(s) for a type/size (spec §'Data field format')."""
    if type_num <= 7:
        top, ext = type_num, b""
    else:
        top, ext = 0, bytes([type_num - 7])
    if size < 29:
        return bytes([(top << 5) | size]) + ext
    if size < 29 + 256:
        return bytes([(top << 5) | 29]) + ext + bytes([size - 29])
    if size < 285 + 65536:
        return bytes([(top << 5) | 30]) + ext + struct.pack(">H", size - 285)
    return bytes([(top << 5) | 31]) + ext + \
        struct.pack(">I", size - 65821)[1:]


def _enc_uint(type_num: int, v: int) -> bytes:
    b = b"" if v == 0 else v.to_bytes((v.bit_length() + 7) // 8, "big")
    return _enc_ctrl(type_num, len(b)) + b


def encode_value(v) -> bytes:
    """Encode a python value into the data-section format (writer
    subset: str, bytes, bool, int → smallest uint (negatives int32),
    float → double, dict → map, list → array)."""
    if isinstance(v, bool):
        return _enc_ctrl(14, 1 if v else 0)
    if isinstance(v, str):
        b = v.encode()
        return _enc_ctrl(2, len(b)) + b
    if isinstance(v, bytes):
        return _enc_ctrl(4, len(v)) + v
    if isinstance(v, float):
        return _enc_ctrl(3, 8) + struct.pack(">d", v)
    if isinstance(v, int):
        if v < 0:
            return _enc_ctrl(8, 4) + struct.pack(">i", v)
        if v < 1 << 16:
            return _enc_uint(5, v)
        if v < 1 << 32:
            return _enc_uint(6, v)
        return _enc_uint(9, v)
    if isinstance(v, dict):
        out = _enc_ctrl(7, len(v))
        for k, val in v.items():
            kb = str(k).encode()
            out += _enc_ctrl(2, len(kb)) + kb + encode_value(val)
        return out
    if isinstance(v, (list, tuple)):
        out = _enc_ctrl(11, len(v))
        for item in v:
            out += encode_value(item)
        return out
    raise TypeError(f"mmdb writer: unsupported type {type(v).__name__}")


# --- writer ----------------------------------------------------------------


def _parse_cidr4(cidr: str) -> tuple[int, int]:
    addr, _, plen = cidr.partition("/")
    parts = [int(x) for x in addr.split(".")]
    ip = (parts[0] << 24) | (parts[1] << 16) | (parts[2] << 8) | parts[3]
    return ip, int(plen or 32)


def encode_mmdb(networks: list[tuple[str, dict]],
                database_type: str = "vertex-ray-geo",
                record_size: int = 24) -> bytes:
    """IPv4 (CIDR string, record dict) pairs → .mmdb bytes. Longer
    prefixes win on overlap (inserted deepest-first). ``record_size`` ∈
    {24, 28, 32}."""
    if record_size not in (24, 28, 32):
        raise ValueError("mmdb: record_size must be 24, 28 or 32")
    # binary trie; node = [left, right], entries: None | ("node", i) |
    # ("data", offset)
    nodes: list[list] = [[None, None]]

    data = bytearray()
    data_offsets: dict[bytes, int] = {}

    def data_ref(record: dict) -> int:
        blob = encode_value(record)
        if blob not in data_offsets:
            data_offsets[blob] = len(data)
            data.extend(blob)
        return data_offsets[blob]

    def fill_empty(n: int, off: int) -> None:
        """Spec-style network expansion: a shorter prefix's data fills
        every still-empty leaf under its subtree; leaves already owned
        by a longer (earlier-inserted) prefix keep their data."""
        for b in (0, 1):
            s = nodes[n][b]
            if s is None:
                nodes[n][b] = ("data", off)
            elif s[0] == "node":
                fill_empty(s[1], off)

    for cidr, record in sorted(networks,
                               key=lambda nr: -_parse_cidr4(nr[0])[1]):
        ip, plen = _parse_cidr4(cidr)
        off = data_ref(record)
        cur = 0
        for depth in range(plen):
            bit = (ip >> (31 - depth)) & 1
            slot = nodes[cur][bit]
            if depth == plen - 1:
                if slot is None:
                    nodes[cur][bit] = ("data", off)
                elif slot[0] == "node":
                    fill_empty(slot[1], off)
                # ("data", _): an equal-or-longer prefix already owns it
                break
            if isinstance(slot, tuple) and slot[0] == "node":
                cur = slot[1]
            elif slot is None:
                nodes.append([None, None])
                nodes[cur][bit] = ("node", len(nodes) - 1)
                cur = len(nodes) - 1
            else:
                break  # covered by a longer (earlier-inserted) prefix

    node_count = len(nodes)

    def record_value(slot) -> int:
        if slot is None:
            return node_count            # no data
        kind, v = slot
        if kind == "node":
            return v
        return node_count + 16 + v       # pointer into the data section

    tree = bytearray()
    for left, right in nodes:
        lv, rv = record_value(left), record_value(right)
        if record_size == 24:
            tree += lv.to_bytes(3, "big") + rv.to_bytes(3, "big")
        elif record_size == 32:
            tree += lv.to_bytes(4, "big") + rv.to_bytes(4, "big")
        else:  # 28: 3 bytes left-low, middle byte = high nibbles, 3 right
            tree += (lv & 0xFFFFFF).to_bytes(3, "big")
            tree += bytes([((lv >> 24) << 4) | (rv >> 24)])
            tree += (rv & 0xFFFFFF).to_bytes(3, "big")

    meta = {
        "binary_format_major_version": 2,
        "binary_format_minor_version": 0,
        "build_epoch": 1700000000,
        "database_type": database_type,
        "description": {"en": "deterministic fixture database"},
        "ip_version": 4,
        "languages": ["en"],
        "node_count": node_count,
        "record_size": record_size,
    }
    return (bytes(tree) + _SEPARATOR + bytes(data)
            + METADATA_MARKER + encode_value(meta))


# --- reader ----------------------------------------------------------------


class MmdbReader:
    """Parse + query an .mmdb blob (spec 2.0 subset: all scalar types,
    pointers, maps, arrays; record sizes 24/28/32; IPv4 + IPv6 trees)."""

    def __init__(self, blob: bytes):
        self.blob = blob
        mpos = blob.rfind(METADATA_MARKER)
        if mpos < 0:
            raise ValueError("mmdb: metadata marker not found")
        self.meta, _ = self._decode(mpos + len(METADATA_MARKER),
                                    base=mpos + len(METADATA_MARKER))
        self.node_count = int(self.meta["node_count"])
        self.record_size = int(self.meta["record_size"])
        self.ip_version = int(self.meta.get("ip_version", 4))
        self.tree_size = self.node_count * self.record_size // 4
        self.data_start = self.tree_size + 16

    # data-section decoding (offset is absolute; ``base`` is the data
    # section start for pointer resolution — the metadata map uses its
    # own base so its absolute offsets resolve without pointers)
    def _decode(self, pos: int, base: int | None = None):
        base = self.data_start if base is None else base
        ctrl = self.blob[pos]
        pos += 1
        type_num = ctrl >> 5
        if type_num == 0:
            type_num = self.blob[pos] + 7
            pos += 1
        size = ctrl & 0x1F
        if type_num == 1:  # pointer
            ss = (ctrl >> 3) & 0x3
            vvv = ctrl & 0x7
            if ss == 0:
                v = (vvv << 8) | self.blob[pos]
                pos += 1
            elif ss == 1:
                v = (vvv << 16) | int.from_bytes(
                    self.blob[pos:pos + 2], "big")
                v += 2048
                pos += 2
            elif ss == 2:
                v = (vvv << 24) | int.from_bytes(
                    self.blob[pos:pos + 3], "big")
                v += 526336
                pos += 3
            else:
                v = int.from_bytes(self.blob[pos:pos + 4], "big")
                pos += 4
            val, _ = self._decode(self.data_start + v)
            return val, pos
        if size == 29:
            size = 29 + self.blob[pos]
            pos += 1
        elif size == 30:
            size = 285 + int.from_bytes(self.blob[pos:pos + 2], "big")
            pos += 2
        elif size == 31:
            size = 65821 + int.from_bytes(self.blob[pos:pos + 3], "big")
            pos += 3
        if type_num == 2:
            return self.blob[pos:pos + size].decode(), pos + size
        if type_num == 3:
            return struct.unpack(">d", self.blob[pos:pos + 8])[0], pos + 8
        if type_num == 4:
            return self.blob[pos:pos + size], pos + size
        if type_num in (5, 6, 9, 10):  # uint16/32/64/128
            return int.from_bytes(self.blob[pos:pos + size], "big"), \
                pos + size
        if type_num == 7:
            out = {}
            for _ in range(size):
                k, pos = self._decode(pos, base)
                v, pos = self._decode(pos, base)
                out[k] = v
            return out, pos
        if type_num == 8:  # int32
            raw = self.blob[pos:pos + size]
            v = int.from_bytes(raw, "big", signed=False)
            if size and raw[0] & 0x80 and size == 4:
                v -= 1 << 32
            return v, pos + size
        if type_num == 11:
            out = []
            for _ in range(size):
                v, pos = self._decode(pos, base)
                out.append(v)
            return out, pos
        if type_num == 14:
            return bool(size), pos
        if type_num == 15:  # float
            return struct.unpack(">f", self.blob[pos:pos + 4])[0], pos + 4
        raise ValueError(f"mmdb: unsupported type {type_num}")

    def _read_record(self, node: int, bit: int) -> int:
        rs = self.record_size
        if rs == 24:
            o = node * 6 + bit * 3
            return int.from_bytes(self.blob[o:o + 3], "big")
        if rs == 32:
            o = node * 8 + bit * 4
            return int.from_bytes(self.blob[o:o + 4], "big")
        o = node * 7
        if bit == 0:
            return (int.from_bytes(self.blob[o:o + 3], "big")
                    | ((self.blob[o + 3] >> 4) << 24))
        return (int.from_bytes(self.blob[o + 4:o + 7], "big")
                | ((self.blob[o + 3] & 0x0F) << 24))

    def lookup_ip4(self, ip: int):
        """32-bit IPv4 address → record dict or None (not found)."""
        node = 0
        if self.ip_version == 6:  # v4 maps into the last 32 bits
            for _ in range(96):
                node = self._read_record(node, 0)
                if node >= self.node_count:
                    return None
        for depth in range(32):
            bit = (ip >> (31 - depth)) & 1
            node = self._read_record(node, bit)
            if node == self.node_count:
                return None
            if node > self.node_count:
                val, _ = self._decode(
                    self.data_start + (node - self.node_count - 16))
                return val
        return None

    def lookup(self, ip_str: str):
        return self.lookup_ip4(_parse_cidr4(ip_str)[0])


# --- Ray stage -------------------------------------------------------------


class GeoipEnrich:
    """Actor-pool stage (the geoip.rs:85-91 shape): the .mmdb bytes are
    fetched + parsed ONCE per actor in ``__init__``; each batch resolves
    its UNIQUE IPs through the tree (≤32 record reads each, O(unique),
    never O(rows)) and gathers per-row attribute columns."""

    def __init__(self, blob_ref, ip_col: str, fields: list[str],
                 prefix: str = "geo_"):
        import ray

        self.reader = MmdbReader(ray.get(blob_ref))
        self.ip_col = ip_col
        self.fields = list(fields)
        self.prefix = prefix

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pandas as pd

        ips = batch[self.ip_col].to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(ips)
        recs = [self.reader.lookup(u) or {} for u in uniq]
        for f in self.fields:
            vals = np.array([r.get(f) for r in recs], dtype=object)[codes]
            batch = batch.append_column(f"{self.prefix}{f}",
                                        pa.array(vals))
        return batch


def geoip_enrich(ds, mmdb_bytes: bytes, ip_col: str, fields: list[str],
                 prefix: str = "geo_", concurrency: int = 4):
    import ray

    # an actor pool reserving EVERY CPU starves its producer and
    # deadlocks the pipeline (seen at 8 CPUs with an 8-actor pool) —
    # cap the pool below the session's CPU count
    cpus = int(ray.cluster_resources().get("CPU", 8)) \
        if ray.is_initialized() else 8
    concurrency = max(1, min(concurrency, cpus - 2))
    ref = ray.put(mmdb_bytes)
    return ds.map_batches(
        GeoipEnrich,
        fn_constructor_args=(ref, ip_col, fields, prefix),
        batch_format="pyarrow",
        concurrency=concurrency,
        num_cpus=1,
    )
