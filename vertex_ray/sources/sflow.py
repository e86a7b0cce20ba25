"""sFlow v5 datagram codec — the reference's ``sflow`` source
(/root/reference/src/sources/sflow/: datagram.rs:1987 decodes the InMon
sFlow v5 XDR wire — version, typed agent address, sub-agent id,
sequence, uptime, then samples; flow samples (format 1, interlaced
24/8-bit source id) carry raw / ethernet / ipv4 / ipv6 flow records,
counter samples (format 2) carry generic-interface counters; mod.rs:174
fans flow samples out as log rows and counter samples as
``sflow_interface_*`` metrics with index/type tags). Pure ``struct`` —
public InMon sFlow v5 spec.

Scope: the sample/record subset above — the formats the reference's own
unit fixtures exercise. Unknown flow-record types inside a sample are
SKIPPED by their declared XDR length (the record header makes every
record self-delimiting). This is a deliberate deviation: the reference
rejects the whole datagram with ``UnsupportedFlowRecordType``
(datagram.rs:1850), while here the known records of the datagram are
kept. Unknown SAMPLE formats abort the datagram as in datagram.rs (no
length-skip exists there before the format dispatch reads fields).

Tabular deviation (documented, same as the netflow module): one ROW per
flow record / per counter metric instead of nested Value objects —
flow rows carry the sample header columns replicated; counter rows are
(name, kind, value, index, typ, source_id, agent).

Ray shape: ``sflow_encode_op`` emits one payload row per ≤1000-sample
datagram (the decoder's DDoS cap; a real agent's MTU bounds datagrams
far tighter); ``sflow_decode_flows_op`` / ``sflow_decode_counters_op``
are the two output ports (logs / metrics) of the reference source.
"""

from __future__ import annotations

import ipaddress
import struct

import pyarrow as pa

__all__ = ["encode_datagram", "decode_datagram", "flow_rows",
           "counter_rows", "sflow_encode_op", "sflow_decode_flows_op",
           "sflow_decode_counters_op"]

SAMPLE_FLOW = 1
SAMPLE_COUNTER = 2
FLOW_RAW = 1
FLOW_ETH = 2
FLOW_IPV4 = 3
FLOW_IPV6 = 4
COUNTER_INTERFACE = 1

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")

_IF_COUNTER_FIELDS = (
    # (struct code, field) in wire order after index/typ
    ("Q", "speed"), ("I", "direction"), ("I", "status"),
    ("Q", "in_octets"), ("I", "in_ucast_pkts"),
    ("I", "in_multicast_pkts"), ("I", "in_broadcast_pkts"),
    ("I", "in_discards"), ("I", "in_errors"), ("I", "in_unknown_protos"),
    ("Q", "out_octets"), ("I", "out_ucast_pkts"),
    ("I", "out_multicast_pkts"), ("I", "out_broadcast_pkts"),
    ("I", "out_discards"), ("I", "out_errors"), ("I", "promiscuous_mode"),
)

# metric name → (kind, value expression over the counter dict) — the
# mod.rs:453-560 conversion table
IF_METRICS = (
    ("sflow_interface_speed", "gauge", "speed"),
    ("sflow_interface_direction", "gauge", "direction"),
    ("sflow_interface_admin_status", "gauge", "admin"),
    ("sflow_interface_oper_status", "gauge", "oper"),
    ("sflow_interface_in_octets", "sum", "in_octets"),
    ("sflow_interface_in_ucast_pkts", "sum", "in_ucast_pkts"),
    ("sflow_interface_in_multicast_pkts", "sum", "in_multicast_pkts"),
    ("sflow_interface_in_broadcast_pkts", "sum", "in_broadcast_pkts"),
    ("sflow_interface_in_discards", "sum", "in_discards"),
    ("sflow_interface_in_errors", "sum", "in_errors"),
    ("sflow_interface_in_unknown_protos", "sum", "in_unknown_protos"),
    ("sflow_interface_out_octets", "sum", "out_octets"),
    ("sflow_interface_out_ucast_pkts", "sum", "out_ucast_pkts"),
    ("sflow_interface_out_multicast_pkts", "sum", "out_multicast_pkts"),
    ("sflow_interface_out_broadcast_pkts", "sum", "out_broadcast_pkts"),
    ("sflow_interface_out_discards", "sum", "out_discards"),
    ("sflow_interface_out_errors", "sum", "out_errors"),
    ("sflow_interface_promiscuous_mode", "sum", "promiscuous_mode"),
)


def _mac_str(mac: bytes) -> str:
    return ":".join(f"{b:02X}" for b in mac)


def _mac_bytes(s: str) -> bytes:
    return bytes(int(p, 16) for p in s.split(":"))


# --- encode -----------------------------------------------------------------


def _enc_flow_record(rec: dict) -> bytes:
    t = rec["record_type"]
    if t == "ipv4":
        body = _U32.pack(rec["length"]) + _U32.pack(rec["protocol"]) \
            + ipaddress.ip_address(rec["src_ip"]).packed \
            + ipaddress.ip_address(rec["dst_ip"]).packed \
            + struct.pack(">IIII", rec["src_port"], rec["dst_port"],
                          rec["tcp_flags"], rec["tos"])
        return struct.pack(">II", FLOW_IPV4, len(body)) + body
    if t == "ipv6":
        body = _U32.pack(rec["length"]) + _U32.pack(rec["protocol"]) \
            + ipaddress.ip_address(rec["src_ip"]).packed \
            + ipaddress.ip_address(rec["dst_ip"]).packed \
            + struct.pack(">IIII", rec["src_port"], rec["dst_port"],
                          rec["tcp_flags"], rec["priority"])
        return struct.pack(">II", FLOW_IPV6, len(body)) + body
    if t == "eth":
        body = _U32.pack(rec["length"]) + _mac_bytes(rec["src_mac"]) \
            + _mac_bytes(rec["dst_mac"]) + _U32.pack(rec["eth_type"])
        return struct.pack(">II", FLOW_ETH, len(body)) + body
    if t == "raw":
        hb = rec["header_bytes"]
        body = struct.pack(">IIII", rec["protocol"], rec["frame_length"],
                           rec["stripped"], rec["original_length"]) + hb
        return struct.pack(">II", FLOW_RAW, len(body)) + body
    raise ValueError(f"sflow: unknown flow record type {t!r}")


def encode_datagram(*, agent_ip: str, sub_agent_id: int, sequence: int,
                    uptime: int, flow_samples: list[dict] | None = None,
                    counter_samples: list[dict] | None = None) -> bytes:
    """Samples → one sFlow v5 datagram. ``flow_samples``: dicts with the
    sample-header fields + ``records`` (list of record dicts);
    ``counter_samples``: dicts with ``source_id`` + ``interfaces`` (list
    of generic-interface counter dicts)."""
    addr = ipaddress.ip_address(agent_ip)
    out = bytearray(_U32.pack(5))
    out += _U32.pack(1 if addr.version == 4 else 2) + addr.packed
    samples = []
    for s in flow_samples or []:
        recs = b"".join(_enc_flow_record(r) for r in s["records"])
        body = (_U32.pack(s["sample_sequence_number"])
                + _U32.pack((s["source_id_type"] << 24)
                            | (s["source_id_value"] & 0x00FF_FFFF))
                + struct.pack(">IIIII", s["sampling_rate"],
                              s["sample_pool"], s["drops"], s["input"],
                              s["output"])
                + _U32.pack(len(s["records"])) + recs)
        samples.append(struct.pack(">II", SAMPLE_FLOW, len(body)) + body)
    for s in counter_samples or []:
        recs = b""
        for c in s["interfaces"]:
            body = _U32.pack(c["index"]) + _U32.pack(c["typ"])
            for code, name in _IF_COUNTER_FIELDS:
                body += struct.pack(">" + code, c[name])
            recs += struct.pack(">II", COUNTER_INTERFACE, len(body)) + body
        body = (_U32.pack(s["sample_sequence_number"])
                + _U32.pack((s["source_id_type"] << 24)
                            | (s["source_id_value"] & 0x00FF_FFFF))
                + _U32.pack(len(s["interfaces"])) + recs)
        samples.append(struct.pack(">II", SAMPLE_COUNTER, len(body))
                       + body)
    if len(samples) > 1000:
        raise ValueError("sflow: too many samples for one datagram "
                         "(cap 1000; chunk into multiple datagrams)")
    out += _U32.pack(sub_agent_id) + _U32.pack(sequence) \
        + _U32.pack(uptime) + _U32.pack(len(samples)) + b"".join(samples)
    return bytes(out)


# --- decode -----------------------------------------------------------------


class _Cur:
    def __init__(self, buf: bytes):
        self.buf, self.pos = buf, 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise ValueError("sflow: unexpected eof")
        b = self.buf[self.pos:self.pos + n]
        self.pos += n
        return b

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]


def _dec_flow_record(c: _Cur) -> dict | None:
    fmt = c.u32()
    ln = c.u32()
    end = c.pos + ln
    if fmt == FLOW_IPV4 or fmt == FLOW_IPV6:
        alen = 4 if fmt == FLOW_IPV4 else 16
        rec = {"record_type": "ipv4" if fmt == FLOW_IPV4 else "ipv6",
               "length": c.u32(), "protocol": c.u32(),
               "src_ip": str(ipaddress.ip_address(c.take(alen))),
               "dst_ip": str(ipaddress.ip_address(c.take(alen))),
               "src_port": c.u32(), "dst_port": c.u32(),
               "tcp_flags": c.u32()}
        last = c.u32()
        rec["tos" if fmt == FLOW_IPV4 else "priority"] = last
    elif fmt == FLOW_ETH:
        rec = {"record_type": "eth", "length": c.u32(),
               "src_mac": _mac_str(c.take(6)),
               "dst_mac": _mac_str(c.take(6)), "eth_type": c.u32()}
    elif fmt == FLOW_RAW:
        rec = {"record_type": "raw", "protocol": c.u32(),
               "frame_length": c.u32(), "stripped": c.u32(),
               "original_length": c.u32(),
               "header_bytes": c.take(ln - 16)}
    else:  # unknown record: self-delimiting → skip by declared length
        c.take(ln)
        return None
    c.pos = end
    return rec


def decode_datagram(buf: bytes) -> dict:
    """Datagram bytes → {agent, sub_agent_id, sequence_number, uptime,
    flow_samples, counter_samples, skipped_records}."""
    c = _Cur(buf)
    if c.u32() != 5:
        raise ValueError("sflow: incompatible version")
    ipver = c.u32()
    if ipver == 1:
        agent = str(ipaddress.ip_address(c.take(4)))
    elif ipver == 2:
        agent = str(ipaddress.ip_address(c.take(16)))
    else:
        raise ValueError(f"sflow: unknown agent ip version {ipver}")
    sub_agent_id, seq, uptime, n = c.u32(), c.u32(), c.u32(), c.u32()
    if n > 1000:
        raise ValueError("sflow: too many samples")
    flow_samples, counter_samples = [], []
    skipped = 0
    for _ in range(n):
        fmt = c.u32()
        ln = c.u32()
        end = c.pos + ln
        if fmt == SAMPLE_FLOW:
            ssn = c.u32()
            sid = c.u32()
            s = {"sample_sequence_number": ssn,
                 "source_id_type": sid >> 24,
                 "source_id_value": sid & 0x00FF_FFFF,
                 "sampling_rate": c.u32(), "sample_pool": c.u32(),
                 "drops": c.u32(), "input": c.u32(), "output": c.u32()}
            cnt = c.u32()
            if cnt > 1000:
                raise ValueError("sflow: too many flow records")
            recs = []
            for _ in range(cnt):
                r = _dec_flow_record(c)
                if r is None:
                    skipped += 1
                else:
                    recs.append(r)
            s["records"] = recs
            flow_samples.append(s)
        elif fmt == SAMPLE_COUNTER:
            ssn = c.u32()
            sid = c.u32()
            s = {"sample_sequence_number": ssn,
                 "source_id_type": sid >> 24,
                 "source_id_value": sid & 0x00FF_FFFF, "interfaces": []}
            cnt = c.u32()
            if cnt > 1000:
                raise ValueError("sflow: too many counter records")
            for _ in range(cnt):
                cfmt = c.u32()
                cln = c.u32()
                cend = c.pos + cln
                if cfmt == COUNTER_INTERFACE:
                    rec = {"index": c.u32(), "typ": c.u32()}
                    for code, name in _IF_COUNTER_FIELDS:
                        rec[name] = c.u64() if code == "Q" else c.u32()
                    s["interfaces"].append(rec)
                else:
                    skipped += 1
                c.pos = cend
            counter_samples.append(s)
        else:
            raise ValueError(f"sflow: unknown sample format {fmt}")
        c.pos = end
    return {"agent": agent, "sub_agent_id": sub_agent_id,
            "sequence_number": seq, "uptime": uptime,
            "flow_samples": flow_samples,
            "counter_samples": counter_samples,
            "skipped_records": skipped}


# --- tabular renderings -----------------------------------------------------

_FLOW_COLS = (
    ("agent", pa.string()), ("sequence_number", pa.int64()),
    ("sub_agent_id", pa.int64()), ("uptime", pa.int64()),
    ("sample_sequence_number", pa.int64()),
    ("source_id_type", pa.int64()), ("source_id_value", pa.int64()),
    ("sampling_rate", pa.int64()), ("sample_pool", pa.int64()),
    ("drops", pa.int64()), ("input", pa.int64()), ("output", pa.int64()),
    ("record_type", pa.string()), ("protocol", pa.int64()),
    ("src_ip", pa.string()), ("dst_ip", pa.string()),
    ("src_port", pa.int64()), ("dst_port", pa.int64()),
    ("tcp_flags", pa.int64()), ("tos", pa.int64()),
)


def flow_rows(parsed: dict) -> list[dict]:
    """One row per ipv4/ipv6 flow record with the sample + datagram
    headers replicated (the reference's logs port, flattened)."""
    out = []
    for s in parsed["flow_samples"]:
        head = {k: parsed[k] for k in ("agent", "sequence_number",
                                       "sub_agent_id", "uptime")}
        head.update({k: s[k] for k in (
            "sample_sequence_number", "source_id_type", "source_id_value",
            "sampling_rate", "sample_pool", "drops", "input", "output")})
        for r in s["records"]:
            if r["record_type"] not in ("ipv4", "ipv6"):
                continue
            out.append({**head, "record_type": r["record_type"],
                        "protocol": r["protocol"], "src_ip": r["src_ip"],
                        "dst_ip": r["dst_ip"], "src_port": r["src_port"],
                        "dst_port": r["dst_port"],
                        "tcp_flags": r["tcp_flags"],
                        "tos": r.get("tos", r.get("priority", 0))})
    return out


def counter_rows(parsed: dict) -> list[dict]:
    """One row per interface-counter METRIC — exactly the mod.rs
    conversion (18 series per interface: speed/direction/admin/oper
    gauges + the in_/out_ sums, tagged index/type/source_id/agent)."""
    out = []
    for s in parsed["counter_samples"]:
        for c in s["interfaces"]:
            vals = dict(c)
            vals["admin"] = int((c["status"] & 0x1) != 0)
            vals["oper"] = int((c["status"] & 0x2) != 0)
            for name, kind, key in IF_METRICS:
                out.append({
                    "name": name, "kind": kind,
                    "value": int(vals[key]),
                    "index": c["index"], "typ": c["typ"],
                    "source_id": s["source_id_value"],
                    "agent": parsed["agent"],
                })
    return out


def sflow_encode_op():
    """map_batches body: flow rows (the _FLOW_COLS layout, one sample
    per row with one ipv4/ipv6 record) → ONE datagram per batch."""

    def fn(t: pa.Table) -> pa.Table:
        rows = t.to_pylist()
        flow_samples = []
        for r in rows:
            rec = {k: r[k] for k in ("record_type", "protocol", "src_ip",
                                     "dst_ip", "src_port", "dst_port",
                                     "tcp_flags")}
            rec["length"] = 64
            rec["tos" if r["record_type"] == "ipv4" else "priority"] = \
                r["tos"]
            flow_samples.append({
                **{k: r[k] for k in (
                    "sample_sequence_number", "source_id_type",
                    "source_id_value", "sampling_rate", "sample_pool",
                    "drops", "input", "output")},
                "records": [rec],
            })
        first = rows[0] if rows else {"agent": "127.0.0.1",
                                      "sub_agent_id": 0,
                                      "sequence_number": 0, "uptime": 0}
        # one datagram per <=1000 samples (the decoder's DDoS cap, the
        # same bound a real agent's MTU forces) -> one payload ROW each
        payloads = [
            encode_datagram(
                agent_ip=first["agent"],
                sub_agent_id=first["sub_agent_id"],
                sequence=first["sequence_number"], uptime=first["uptime"],
                flow_samples=flow_samples[i:i + 1000])
            for i in range(0, max(len(flow_samples), 1), 1000)
        ]
        counts = [min(1000, max(len(flow_samples) - i, 0))
                  for i in range(0, max(len(flow_samples), 1), 1000)]
        return pa.table({"payload": pa.array(payloads, pa.binary()),
                         "n_samples": pa.array(counts, pa.int64())})

    return fn


def _rows_table(rows: list[dict], cols) -> pa.Table:
    return pa.table({name: pa.array([r[name] for r in rows], type=typ)
                     for name, typ in cols})


def sflow_decode_flows_op():
    def fn(t: pa.Table) -> pa.Table:
        rows: list[dict] = []
        for p in t["payload"].to_pylist():
            rows.extend(flow_rows(decode_datagram(p)))
        return _rows_table(rows, _FLOW_COLS)

    return fn


_COUNTER_COLS = (
    ("name", pa.string()), ("kind", pa.string()), ("value", pa.int64()),
    ("index", pa.int64()), ("typ", pa.int64()),
    ("source_id", pa.int64()), ("agent", pa.string()),
)


def sflow_decode_counters_op():
    def fn(t: pa.Table) -> pa.Table:
        rows: list[dict] = []
        for p in t["payload"].to_pylist():
            rows.extend(counter_rows(decode_datagram(p)))
        return _rows_table(rows, _COUNTER_COLS)

    return fn
