"""NetFlow v9 / IPFIX wire codec (sources/netflow — the reference's
src/sources/netflow format family): template flowsets, data-record
packing, template cache, unknown-template skip, Ray round-trip ops."""

import struct

import numpy as np
import pyarrow as pa
import pytest

from vertex_ray.sources.netflow import (
    DEFAULT_TEMPLATE_ID,
    TemplateCache,
    encode_ipfix,
    encode_netflow_v9,
    netflow_decode_op,
    netflow_encode_op,
    parse_packet,
)

ROWS = [
    {"sourceIPv4Address": "10.0.0.1", "destinationIPv4Address": "10.1.2.3",
     "sourceTransportPort": 1234, "destinationTransportPort": 443,
     "protocolIdentifier": 6, "tcpControlBits": 0x12,
     "octetDeltaCount": 123456789, "packetDeltaCount": 42},
    {"sourceIPv4Address": "192.168.0.9", "destinationIPv4Address": "8.8.8.8",
     "sourceTransportPort": 53001, "destinationTransportPort": 53,
     "protocolIdentifier": 17, "tcpControlBits": 0,
     "octetDeltaCount": 999, "packetDeltaCount": 3},
]


def test_v9_roundtrip_and_header():
    p = encode_netflow_v9(ROWS, odid=7, unix_secs=1_700_000_000,
                          sequence=5, uptime_ms=123)
    out = parse_packet(p)
    assert out["header"] == {
        "version": "netflow_v9", "observation_domain_id": 7,
        "system_uptime": 123, "unix_secs": 1_700_000_000,
        "sequence_number": 5}
    assert out["records"] == ROWS and out["skipped"] == 0


def test_ipfix_roundtrip_and_header():
    p = encode_ipfix(ROWS, odid=9, export_time=1_700_000_001, sequence=2)
    out = parse_packet(p)
    assert out["header"] == {
        "version": "ipfix", "observation_domain_id": 9,
        "export_time": 1_700_000_001, "sequence_number": 2}
    assert out["records"] == ROWS


def test_unknown_template_skipped_then_cache_resolves():
    """Data flowset with no template in packet or cache → counted as
    skipped (the reference's warn-and-continue, mod.rs:180-188); a cache
    primed by an earlier packet of the same (version, odid) resolves."""
    import struct

    p = encode_netflow_v9(ROWS, odid=7)
    tmpl_len = struct.unpack_from(">H", p, 22)[0]
    data_only = p[:20] + p[20 + tmpl_len:]
    out = parse_packet(data_only)
    assert out["skipped"] == 1 and out["records"] == []
    cache = TemplateCache()
    parse_packet(p, cache)
    assert (9, 7, DEFAULT_TEMPLATE_ID) in cache
    assert parse_packet(data_only, cache)["records"] == ROWS
    # a different observation domain must NOT see the template
    other = data_only[:16] + (99).to_bytes(4, "big") + data_only[20:]
    assert parse_packet(other, cache)["skipped"] == 1


def test_malformed_packets_rejected():
    with pytest.raises(ValueError, match="version"):
        parse_packet(b"\x00\x05" + b"\x00" * 40)
    with pytest.raises(ValueError, match="eof"):
        parse_packet(b"\x00\x09\x00\x00")
    good = encode_netflow_v9(ROWS)
    bad = bytearray(good)
    bad[22] = 0xFF  # template flowset length beyond the buffer
    bad[23] = 0xFF
    with pytest.raises(ValueError, match="length"):
        parse_packet(bytes(bad))


def _template_set(set_id: int, n_fields: int, field_bytes: bytes) -> bytes:
    """Template flowset announcing ``n_fields`` whose length covers only
    ``field_bytes`` — a template cut short inside its own flowset."""
    body = struct.pack(">HH", DEFAULT_TEMPLATE_ID, n_fields) + field_bytes
    return struct.pack(">HH", set_id, 4 + len(body)) + body


def _v9(flowset: bytes) -> bytes:
    return struct.pack(">HHIIII", 9, 1, 0, 0, 0, 1) + flowset


def _ipfix(flowset: bytes) -> bytes:
    return struct.pack(">HHIII", 10, 16 + len(flowset), 0, 0, 1) + flowset


@pytest.mark.parametrize("packet", [
    # v9: second field specifier cut after 2 of its 4 bytes
    _v9(_template_set(0, 2, b"\x00\x08\x00\x04" + b"\x00\x0c")),
    # IPFIX: same cut inside a field specifier
    _ipfix(_template_set(2, 2, b"\x00\x08\x00\x04" + b"\x00\x0c")),
    # IPFIX: enterprise bit set, 4-byte PEN cut after 2 bytes
    _ipfix(_template_set(2, 1, b"\x80\x08\x00\x04" + b"\x00\x00")),
], ids=["v9-field", "ipfix-field", "ipfix-pen"])
def test_truncated_template_is_eof(packet):
    """A template shorter than its field count fails with the module's
    documented ValueError, not struct.error or a half-read template."""
    cache = TemplateCache()
    with pytest.raises(ValueError, match="unexpected eof"):
        parse_packet(packet, cache)
    assert len(cache) == 0


def test_enterprise_field_is_not_decoded_as_iana():
    """An IPFIX enterprise-scoped element (PEN bit set) whose element id
    collides with an IANA id is skipped, not decoded under the IANA
    name: only the IANA sourceIPv4Address (id 8) of the record is read."""
    fields = (struct.pack(">HH", 8, 4)
              + struct.pack(">HHI", 0x8000 | 8, 4, 12345))
    record = bytes([10, 0, 0, 1]) + bytes([1, 2, 3, 4])
    data = struct.pack(">HH", DEFAULT_TEMPLATE_ID, 4 + len(record)) + record
    out = parse_packet(_ipfix(_template_set(2, 2, fields) + data))
    assert out["records"] == [{"sourceIPv4Address": "10.0.0.1"}]


def test_ray_ops_roundtrip(ray_session):
    import ray.data as rd

    flows = pa.table({k: pa.array([r[k] for r in ROWS * 10])
                      for k in ROWS[0]})
    for version in (9, 10):
        payloads = rd.from_arrow(flows).map_batches(
            netflow_encode_op(version), batch_format="pyarrow")
        got = payloads.map_batches(netflow_decode_op(),
                                   batch_format="pyarrow").to_pandas()
        assert len(got) == 20
        assert (got["version"] == ("netflow_v9" if version == 9
                                   else "ipfix")).all()
        assert got["octetDeltaCount"].sum() == (123456789 + 999) * 10
        assert set(got["sourceIPv4Address"]) == {"10.0.0.1", "192.168.0.9"}


def test_large_batch_splits_flowsets_and_messages():
    """5000 records: v9 splits into ≤1000-record data flowsets in ONE
    packet (no 16-bit length overflow); IPFIX emits concatenated
    self-contained messages, all walked by parse_packet."""
    import struct

    rows = [dict(ROWS[0], sourceTransportPort=1024 + i % 60000)
            for i in range(5000)]
    p9 = encode_netflow_v9(rows, odid=7)
    out = parse_packet(p9)
    assert len(out["records"]) == 5000
    # header count = 1 template + 5000 data records, capped at 0xFFFF
    assert struct.unpack_from(">H", p9, 2)[0] == min(0xFFFF, 5001)
    pi = encode_ipfix(rows, odid=7)
    assert len(parse_packet(pi)["records"]) == 5000
