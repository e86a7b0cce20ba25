"""NetFlow v9 / IPFIX wire codec — the template-based flow telemetry
format of the reference's ``netflow`` source
(/root/reference/src/sources/netflow/: format/netflow.rs parses the
RFC 3954 v9 packet, format/ipfix.rs the RFC 7011 IPFIX packet,
template.rs caches templates per (version, observation-domain,
template-id), mod.rs:423 maps IANA information-element ids to named
typed values). Pure ``struct`` + numpy — public RFC formats only.

Both directions:

- ``encode_netflow_v9`` / ``encode_ipfix`` — the fixture writers: a
  template flowset (id 0 for v9, set 2 for IPFIX) announcing the field
  layout, then data flowsets whose records are packed big-endian per the
  template — exactly the wire a router would export.
- ``parse_packet`` — version-dispatched decode: header, template
  registration into a :class:`TemplateCache`, then data records resolved
  through the cache (records for an unknown template are SKIPPED with a
  count, the reference's warn-and-continue behavior).

Tabular deviation from the reference (documented): the reference folds
every record of a flowset into ONE LogRecord (later ``set_property``
calls overwrite earlier ones — mod.rs:168-180); a tabular engine emits
one ROW per data record, keeping header metadata as columns. Field ids,
names, types and byte decode match mod.rs:423-520.

Ray shape (the jaeger/remote-write pattern): ``netflow_encode_op`` emits
ONE packet payload row per input batch (the export unit);
``netflow_decode_op`` flat-maps payload rows back to flow rows. Batches
are wire units — no shuffle on either side; the template cache is
per-payload state (each packet carries its template, the self-contained
fixture form), so decode tasks need no cross-task state.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

__all__ = ["FIELDS", "TemplateCache", "encode_netflow_v9", "encode_ipfix",
           "parse_packet", "netflow_encode_op", "netflow_decode_op"]

# IANA IPFIX information elements (the subset of mod.rs:423 the flow
# fixtures exercise): id -> (name, kind, length). kind: u = unsigned
# big-endian, ip4 = dotted-quad string.
FIELDS = {
    1: ("octetDeltaCount", "u", 8),
    2: ("packetDeltaCount", "u", 8),
    4: ("protocolIdentifier", "u", 1),
    6: ("tcpControlBits", "u", 1),
    7: ("sourceTransportPort", "u", 2),
    8: ("sourceIPv4Address", "ip4", 4),
    10: ("ingressInterface", "u", 4),
    11: ("destinationTransportPort", "u", 2),
    12: ("destinationIPv4Address", "ip4", 4),
    14: ("egressInterface", "u", 4),
    21: ("flowEndSysUpTime", "u", 4),
    22: ("flowStartSysUpTime", "u", 4),
}

_NAME_TO_ID = {name: fid for fid, (name, _, _) in FIELDS.items()}

# the deterministic template the fixture writer announces
DEFAULT_TEMPLATE = (8, 12, 7, 11, 4, 6, 1, 2)
DEFAULT_TEMPLATE_ID = 256


class TemplateCache(dict):
    """(version, odid, template_id) → tuple of (field_id, length) —
    template.rs:TemplateCache."""

    def add(self, version: int, odid: int, tid: int, fields):
        self[(version, odid, tid)] = tuple(fields)


def _pack_template_flowset(tid: int, field_ids, set_id: int) -> bytes:
    body = struct.pack(">HH", tid, len(field_ids))
    for fid in field_ids:
        body += struct.pack(">HH", fid, FIELDS[fid][2])
    return struct.pack(">HH", set_id, 4 + len(body)) + body


def _pack_records(rows: list[dict], field_ids) -> bytes:
    out = bytearray()
    for row in rows:
        for fid in field_ids:
            name, kind, ln = FIELDS[fid]
            v = row[name]
            if kind == "ip4":
                out += bytes(int(p) for p in str(v).split("."))
            else:
                out += int(v).to_bytes(ln, "big")
    return bytes(out)


# flowset length and IPFIX total length are 16-bit fields, so a single
# data flowset holds at most (65535 - 4) // record_len records; cap well
# under that (and under the reference's 1000-sample DDoS guard shape)
MAX_RECORDS_PER_FLOWSET = 1000


def _data_flowsets(rows: list[dict], template_id: int,
                   field_ids) -> list[bytes]:
    out = []
    for i in range(0, max(len(rows), 1), MAX_RECORDS_PER_FLOWSET):
        part = rows[i:i + MAX_RECORDS_PER_FLOWSET]
        body = _pack_records(part, field_ids)
        if 4 + len(body) > 0xFFFF:
            raise ValueError("netflow: record layout too wide for a "
                             "16-bit flowset length")
        out.append(struct.pack(">HH", template_id, 4 + len(body)) + body)
    return out


def encode_netflow_v9(rows: list[dict], *, odid: int = 1,
                      unix_secs: int = 0, sequence: int = 0,
                      uptime_ms: int = 0,
                      template_id: int = DEFAULT_TEMPLATE_ID,
                      field_ids=DEFAULT_TEMPLATE) -> bytes:
    """Flow dicts → one RFC 3954 v9 packet: 20-byte header, template
    flowset (id 0), data flowsets of ≤1000 records each (flowset length
    is a 16-bit field). The header count is the total record count —
    template + data records — per RFC 3954 §5.1."""
    tmpl = _pack_template_flowset(template_id, field_ids, set_id=0)
    data = _data_flowsets(rows, template_id, field_ids)
    header = struct.pack(">HHIIII", 9, min(0xFFFF, 1 + len(rows)),
                         uptime_ms, unix_secs, sequence, odid)
    return header + tmpl + b"".join(data)


def encode_ipfix(rows: list[dict], *, odid: int = 1,
                 export_time: int = 0, sequence: int = 0,
                 template_id: int = DEFAULT_TEMPLATE_ID,
                 field_ids=DEFAULT_TEMPLATE) -> bytes:
    """Flow dicts → RFC 7011 IPFIX message(s) concatenated: each
    message's 16-bit total length bounds it, so big row sets emit a
    SEQUENCE of messages (the stream form a real exporter produces);
    parse_packet walks only the first message of a buffer, so the
    decode op feeds messages individually."""
    tmpl = _pack_template_flowset(template_id, field_ids, set_id=2)
    out = bytearray()
    for data in _data_flowsets(rows, template_id, field_ids):
        # the template repeats in every message so each is self-contained
        body = tmpl + data
        out += struct.pack(">HHIII", 10, 16 + len(body), export_time,
                           sequence, odid) + body
    return bytes(out)


def _parse_template_body(buf: bytes, version: int, odid: int,
                         cache: TemplateCache) -> None:
    def need4(pos: int) -> None:
        # a template cut short by its flowset length is a truncated
        # packet: fail with the module's eof error, never struct.error
        if pos + 4 > len(buf):
            raise ValueError("netflow: unexpected eof")

    pos = 0
    while pos + 4 < len(buf):
        tid, n_fields = struct.unpack_from(">HH", buf, pos)
        pos += 4
        if n_fields == 0:
            raise ValueError("netflow: no field in template")
        fields = []
        for _ in range(n_fields):
            need4(pos)
            fid, ln = struct.unpack_from(">HH", buf, pos)
            pos += 4
            if version == 10 and fid & 0x8000:
                # enterprise-scoped element: its id is the vendor's, not
                # IANA's, so it is cached as unknown (its bytes skipped)
                fid = None
                need4(pos)
                pos += 4  # enterprise number (PEN)
            fields.append((fid, ln))
        cache.add(version, odid, tid, fields)


def _decode_records(buf: bytes, fields) -> list[dict]:
    rec_len = sum(ln for _, ln in fields)
    if rec_len == 0:
        return []
    out = []
    pos = 0
    # trailing bytes shorter than one record are flowset padding
    while pos + rec_len <= len(buf):
        row = {}
        for fid, ln in fields:
            raw = buf[pos:pos + ln]
            pos += ln
            spec = FIELDS.get(fid)
            if spec is None:
                continue  # unknown element: skip (UnknownFieldType path)
            name, kind, _ = spec
            if kind == "ip4":
                row[name] = ".".join(str(b) for b in raw)
            else:
                row[name] = int.from_bytes(raw, "big")
        out.append(row)
    return out


def parse_packet(buf: bytes, cache: TemplateCache | None = None) -> dict:
    """One exported packet → {header: {...}, records: [dict], skipped}.

    ``header`` carries the reference's flow metadata (mod.rs:126-152):
    version string, observation_domain_id, sequence_number, plus
    unix_secs/system_uptime (v9) or export_time (IPFIX). A data
    FLOWSET whose template is in neither the cache nor this packet is
    counted (one per flowset — its record count is unknowable without
    the template) in ``skipped``, not an error. An IPFIX buffer may
    hold several concatenated messages (each bounded by its 16-bit
    total length, the stream form); all are walked."""
    cache = TemplateCache() if cache is None else cache
    if len(buf) < 2:
        raise ValueError("netflow: unexpected eof")
    version = struct.unpack_from(">H", buf, 0)[0]
    records: list[dict] = []
    skipped = 0

    def walk_sets(pos: int, end: int, odid: int, tmpl_set: int,
                  opts_set: int) -> None:
        nonlocal skipped
        while pos + 4 <= end:
            sid, ln = struct.unpack_from(">HH", buf, pos)
            if ln < 4 or pos + ln > end:
                raise ValueError("netflow: bad flowset length")
            body = buf[pos + 4:pos + ln]
            if sid == tmpl_set:
                _parse_template_body(body, version, odid, cache)
            elif sid == opts_set:
                pass  # options templates: exporter metadata, not tabular
            elif sid >= 256:
                fields = cache.get((version, odid, sid))
                if fields is None:
                    skipped += 1  # unknown template: warn-and-continue
                else:
                    records.extend(_decode_records(body, fields))
            pos += ln

    if version == 9:
        if len(buf) < 20:
            raise ValueError("netflow: unexpected eof")
        _, _count, uptime, unix_secs, seq, odid = struct.unpack_from(
            ">HHIIII", buf, 0)
        header = {"version": "netflow_v9", "observation_domain_id": odid,
                  "system_uptime": uptime, "unix_secs": unix_secs,
                  "sequence_number": seq}
        walk_sets(20, len(buf), odid, 0, 1)
    elif version == 10:
        header = None
        pos = 0
        while pos + 16 <= len(buf):
            ver, length, export_time, seq, odid = struct.unpack_from(
                ">HHIII", buf, pos)
            if ver != 10 or length < 16 or pos + length > len(buf):
                raise ValueError("netflow: bad ipfix message header")
            if header is None:
                header = {"version": "ipfix",
                          "observation_domain_id": odid,
                          "export_time": export_time,
                          "sequence_number": seq}
            walk_sets(pos + 16, pos + length, odid, 2, 3)
            pos += length
        if header is None:
            raise ValueError("netflow: unexpected eof")
    else:
        raise ValueError(f"netflow: incompatible version {version}")
    return {"header": header, "records": records, "skipped": skipped}


_OUT_COLS = (
    ("version", pa.string()),
    ("observation_domain_id", pa.int64()),
    ("sequence_number", pa.int64()),
    ("unix_secs", pa.int64()),
    ("sourceIPv4Address", pa.string()),
    ("destinationIPv4Address", pa.string()),
    ("sourceTransportPort", pa.int64()),
    ("destinationTransportPort", pa.int64()),
    ("protocolIdentifier", pa.int64()),
    ("tcpControlBits", pa.int64()),
    ("octetDeltaCount", pa.int64()),
    ("packetDeltaCount", pa.int64()),
)


def netflow_encode_op(version: int = 9):
    """map_batches body: flow rows → ONE packet payload row per batch
    (the export unit): (payload, n_records, version)."""

    def fn(t: pa.Table) -> pa.Table:
        rows = t.to_pylist()
        secs = int(rows[0].get("unix_secs", 0)) if rows else 0
        seq = int(rows[0].get("sequence_number", 0)) if rows else 0
        odid = int(rows[0].get("observation_domain_id", 1)) if rows else 1
        enc = encode_netflow_v9 if version == 9 else encode_ipfix
        kw = ({"unix_secs": secs} if version == 9
              else {"export_time": secs})
        payload = enc(rows, odid=odid, sequence=seq, **kw)
        return pa.table({
            "payload": pa.array([payload], type=pa.binary()),
            "n_records": pa.array([len(rows)], type=pa.int64()),
            "version": pa.array([version], type=pa.int64()),
        })

    return fn


def netflow_decode_op():
    """map_batches body over payload rows → one flow row per record,
    header metadata replicated onto its rows."""

    def fn(t: pa.Table) -> pa.Table:
        rows: list[dict] = []
        for p in t["payload"].to_pylist():
            parsed = parse_packet(p)
            h = parsed["header"]
            secs = h.get("unix_secs", h.get("export_time", 0))
            for r in parsed["records"]:
                rows.append({
                    "version": h["version"],
                    "observation_domain_id": h["observation_domain_id"],
                    "sequence_number": h["sequence_number"],
                    "unix_secs": secs,
                    **r,
                })
        arrays = {}
        for name, typ in _OUT_COLS:
            arrays[name] = pa.array([r.get(name) for r in rows], type=typ)
        return pa.table(arrays)

    return fn
