"""Deserializer codecs: newline-framed text → typed Arrow columns.

The reference decodes wire bytes with framing + codec configs
(lib/codecs/src/decoding/config.rs:48 — json, logfmt, syslog, plain
text, among others). The Ray-Data-first form: ``ray.data.read_text``
(or any source producing a string column) followed by one of these
vectorized ``map_batches`` bodies. No per-row Python JSON parsing: the
JSON codec joins the batch's lines and hands ONE buffer to pyarrow's
C++ JSON-lines reader; logfmt/syslog are single vectorized regex passes
(pandas' cython extract), not per-line loops.

Sources in this engine are "anything that yields a Dataset": parquet
(pruned scans, the flagship input), synthesized tables (synth.py), text
lines + these codecs. The reference's 60 network/file connectors
collapse to this surface per SURVEY §2.2.
"""

from __future__ import annotations

import io

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.json as pajson


def decode_json_lines(batch: pa.Table, column: str = "text",
                      strict: bool = False) -> pa.Table:
    """JSON-lines codec: one C++ parse for the whole batch.

    Invalid lines: with strict=False (the reference's default is to log
    and drop — src/codecs errors are per-event) bad lines are dropped in
    a fallback per-line pass; strict=True raises."""
    lines = batch[column].to_numpy(zero_copy_only=False)
    joined = "\n".join(s for s in lines if s)
    if not joined:
        return pa.table({})
    try:
        return pajson.read_json(io.BytesIO(joined.encode()))
    except pa.ArrowInvalid:
        if strict:
            raise
        import json

        good = []
        for s in lines:
            if not s:
                continue
            try:
                good.append(json.loads(s))
            except ValueError:
                continue
        if not good:
            return pa.table({})
        return pa.Table.from_pylist(good)


_LOGFMT_PAIR = r'(?P<key>[A-Za-z0-9_.\-/]+)=(?:"(?P<qval>(?:[^"\\]|\\.)*)"|(?P<val>\S*))'

_SYSLOG_RE = (
    r"^<(?P<pri>\d{1,3})>"
    r"(?P<ts>[A-Z][a-z]{2} [ \d]\d \d{2}:\d{2}:\d{2}) "
    r"(?P<host>\S+) "
    r"(?P<tag>[^:\[\s]+)(?:\[(?P<pid>\d+)\])?: "
    r"(?P<msg>.*)$"
)


def decode_logfmt(batch: pa.Table, column: str = "text") -> pa.Table:
    """logfmt codec (key=value pairs, quoted values supported): ONE
    vectorized ``str.extractall`` over the batch, pivoted to columns.
    Keys missing on a line become nulls; all values are strings (typing
    is the job of downstream VTL functions, as in the reference)."""
    lines = pd.Series(batch[column].to_numpy(zero_copy_only=False)).fillna("")
    pairs = lines.str.extractall(_LOGFMT_PAIR)
    if pairs.empty:
        return pa.table({"__line__": pa.array(np.arange(len(lines)))})
    pairs["value"] = pairs["qval"].fillna(pairs["val"])
    pairs["value"] = pairs["value"].str.replace(r"\\(.)", r"\1", regex=True)
    wide = (
        pairs.reset_index()
        .drop_duplicates(["level_0", "key"], keep="last")
        .pivot(index="level_0", columns="key", values="value")
        .reindex(np.arange(len(lines)))
    )
    wide = wide.astype(object).where(pd.notna(wide), None)
    out = {"__line__": pa.array(np.arange(len(lines)))}
    for key in sorted(wide.columns):
        out[str(key)] = pa.array(wide[key].to_numpy(dtype=object), type=pa.string())
    return pa.table(out)


def decode_syslog(batch: pa.Table, column: str = "text",
                  year: int = 2026) -> pa.Table:
    """RFC3164-style syslog codec: one vectorized regex extract.
    Unparseable lines yield null fields (kept, like the reference's
    per-event decode errors surface as drops/nulls downstream)."""
    lines = pd.Series(batch[column].to_numpy(zero_copy_only=False)).fillna("")
    w = lines.str.extract(_SYSLOG_RE)
    pri = pd.to_numeric(w["pri"], errors="coerce")
    ts = pd.to_datetime(
        w["ts"].radd(f"{year} "), format="%Y %b %d %H:%M:%S", errors="coerce"
    )

    def s(col: pd.Series) -> pa.Array:
        return pa.array(
            col.astype(object).where(pd.notna(col), None).to_numpy(dtype=object),
            type=pa.string(),
        )

    return pa.table(
        {
            "facility": pa.array((pri // 8).to_numpy(), type=pa.float64()),
            "severity": pa.array((pri % 8).to_numpy(), type=pa.float64()),
            "ts": pa.array(ts.to_numpy(), type=pa.timestamp("us")),
            "host": s(w["host"]),
            "tag": s(w["tag"]),
            "pid": pa.array(
                pd.to_numeric(w["pid"], errors="coerce").to_numpy(), type=pa.float64()
            ),
            "message": s(w["msg"]),
        }
    )


def decode_csv(batch: pa.Table, column: str = "text",
               column_names: list[str] | None = None,
               strict: bool = False) -> pa.Table:
    """CSV codec (the reference's haproxy stats-CSV parse,
    ``src/sources/haproxy`` / ``benches/haproxy.rs``): the batch's lines go
    to pyarrow's C++ CSV reader as ONE buffer. ``column_names`` supplies
    the schema when the frames don't carry a header line (the usual case
    for line-framed streams); with strict=False malformed rows are skipped
    (the reference logs-and-drops per-event decode errors)."""
    import pyarrow.csv as pacsv

    lines = batch[column].to_numpy(zero_copy_only=False)
    joined = "\n".join(s for s in lines if s)
    if not joined:
        return pa.table({})
    read_opts = pacsv.ReadOptions(column_names=column_names)
    parse_opts = pacsv.ParseOptions(
        invalid_row_handler=None if strict else (lambda row: "skip"))
    return pacsv.read_csv(io.BytesIO(joined.encode()),
                          read_options=read_opts, parse_options=parse_opts)


def read_lines(paths, **kwargs):
    """Newline-framed text source; pair with a decode_* codec above."""
    import ray.data as rd

    return rd.read_text(paths, **kwargs)


# ---------------------------------------------------------------------------
# Framing (lib/codecs/src/decoding framing configs): how a raw byte stream
# is cut into frames BEFORE a deserializer runs. Newline framing is the
# read_lines path above; these cover the other reference modes over a
# binary "stream chunk" column (one row = one wire chunk, frames never
# split across chunks — the same contract the reference's stream sources
# maintain per connection read).
# ---------------------------------------------------------------------------


def frame_char_delimited(buf: bytes, delim: bytes = b"\n") -> list[bytes]:
    """Character-delimited framing (newline is the special case)."""
    if not buf:
        return []
    frames = buf.split(delim)
    if frames and frames[-1] == b"":
        frames.pop()
    return frames


def frame_octet_counting(buf: bytes) -> list[bytes]:
    """RFC 6587 octet-counting: each frame is ``<len-decimal><SP><msg>``.
    Sequential by nature (the next frame starts where the declared length
    ends), so this loops over FRAMES within one chunk — the same per-frame
    cost the reference's tokio codec pays; chunks parallelize across tasks."""
    frames = []
    pos, n = 0, len(buf)
    while pos < n:
        sp = buf.index(b" ", pos)
        ln = int(buf[pos:sp])
        start = sp + 1
        end = start + ln
        if end > n:
            raise ValueError("truncated octet-counted frame")
        frames.append(buf[start:end])
        pos = end
    return frames


def frame_length_delimited(buf: bytes, prefix_bytes: int = 4) -> list[bytes]:
    """Big-endian length-prefixed framing (the reference's
    length_delimited mode)."""
    frames = []
    pos, n = 0, len(buf)
    while pos < n:
        if pos + prefix_bytes > n:
            raise ValueError("truncated length prefix")
        ln = int.from_bytes(buf[pos:pos + prefix_bytes], "big")
        start = pos + prefix_bytes
        end = start + ln
        if end > n:
            raise ValueError("truncated length-delimited frame")
        frames.append(buf[start:end])
        pos = end
    return frames


_FRAMERS = {
    "newline": frame_char_delimited,
    "char": frame_char_delimited,
    "octet_counting": frame_octet_counting,
    "length_delimited": frame_length_delimited,
}


def frames_op(column: str = "stream", method: str = "newline", **kw):
    """map_batches body: explode a binary stream-chunk column into one
    string row per frame (column ``text`` — feed it any decode_* above)."""
    framer = _FRAMERS[method]

    def fn(t: pa.Table) -> pa.Table:
        out = []
        for buf in t[column].to_pylist():
            out.extend(framer(buf or b"", **kw))
        return pa.table({
            "text": pa.array([f.decode("utf-8", "replace") for f in out],
                             type=pa.string())
        })

    return fn
