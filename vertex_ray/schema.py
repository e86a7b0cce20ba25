"""Schemas and engine-wide constants.

Data model mirrors the reference's metric model
(``/root/reference/lib/event/src/metric/mod.rs:26-115``) re-expressed as
fixed Arrow schemas (the reference is row-oriented + schemaless; we are
columnar + declared-schema, see SURVEY.md §1.5).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

# ---------------------------------------------------------------------------
# Input: transcript turns (BASELINE.json input_hint)
# ---------------------------------------------------------------------------

TRANSCRIPT_SCHEMA = pa.schema(
    [
        pa.field("conv_id", pa.string()),
        pa.field("turn_idx", pa.int32()),
        pa.field("role", pa.string()),
        pa.field("text", pa.string()),
        pa.field("tool", pa.string()),
        pa.field("ts", pa.timestamp("us")),
    ]
)

ROLES = ("user", "assistant", "tool")
TOOLS = ("search", "code", "browser", "none")

# ---------------------------------------------------------------------------
# Metric kinds — mirrors MetricValue variants (metric/mod.rs:26-39).
# Summary is modeled but unused by the flagship pipeline (its merge is a
# no-op in the reference, metric/mod.rs:62-63).
# ---------------------------------------------------------------------------

KIND_SUM = 0  # monotonic counter        (MetricValue::Sum)
KIND_GAUGE = 1  # last-write-wins        (MetricValue::Gauge)
KIND_HISTOGRAM = 2  # cumulative-bucket  (MetricValue::Histogram)
KIND_SUMMARY = 3  # quantiles, non-mergeable (MetricValue::Summary)

# Default histogram uppers: exactly vertex's metricalize defaults
# (src/transforms/metricalize.rs:21-25); +Inf is implicit as the final
# cumulative bucket == count (rendered "+Inf", metric/mod.rs:190-193).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)
DEFAULT_BUCKETS_ARR = np.asarray(DEFAULT_BUCKETS, dtype=np.float64)
N_BUCKETS = len(DEFAULT_BUCKETS)

# ---------------------------------------------------------------------------
# Retention tiers. Window sizes in whole seconds; each coarser tier is an
# integer multiple of the previous so the continuous-aggregate cascade
# merges finer windows without re-reading raw turns.
# ---------------------------------------------------------------------------

TIERS: tuple[tuple[str, int], ...] = (
    ("1m", 60),
    ("5m", 300),
    ("1h", 3600),
    ("1d", 86400),
)
TIER_SECONDS = dict(TIERS)

# Staleness horizon: 5 minutes, matching the prometheus_exporter default
# series TTL (src/sinks/prometheus_exporter.rs:59-61).
STALENESS_SECONDS = 300

# Prometheus staleness NaN payload — must survive Gorilla encode/decode
# bit-for-bit (FIXTURES.md §F5).
STALE_NAN_BITS = np.uint64(0x7FF0000000000002)
STALE_NAN = float(np.uint64(STALE_NAN_BITS).view(np.float64))

US_PER_SECOND = 1_000_000

# ---------------------------------------------------------------------------
# Tier aggregate table (FIXTURES.md §F3). One row per (series_key,
# window_start). Cumulative histogram bucket counts are stored as flat
# int64 columns b00..b10 parallel to DEFAULT_BUCKETS (zero for non-
# histogram series) so every stage stays fully vectorized and the table is
# directly comparable to a SQL oracle. ``filled``/``stale`` are produced by
# the gap-fill stage; the cascade consumes only unfilled rows.
# ---------------------------------------------------------------------------

BUCKET_COLS = tuple(f"b{i:02d}" for i in range(N_BUCKETS))

AGG_FIELDS = (
    [
        ("bucket", pa.int32()),
        ("series_key", pa.string()),
        ("name", pa.string()),
        ("kind", pa.uint8()),
        ("window_start", pa.int64()),  # epoch seconds, multiple of tier window
        ("sum", pa.float64()),
        ("count", pa.int64()),
        ("min", pa.float64()),
        ("max", pa.float64()),
        ("last", pa.float64()),
        ("last_ts", pa.int64()),  # epoch us of the observation behind ``last``
    ]
    + [(b, pa.int64()) for b in BUCKET_COLS]
)
AGG_SCHEMA = pa.schema([pa.field(n, t) for n, t in AGG_FIELDS])

# Gorilla block table: one row per (series_key, tier) block.
BLOCK_SCHEMA = pa.schema(
    [
        pa.field("bucket", pa.int32()),
        pa.field("series_key", pa.string()),
        pa.field("name", pa.string()),
        pa.field("kind", pa.uint8()),
        pa.field("tier", pa.string()),
        pa.field("block_start", pa.int64()),
        pa.field("block_end", pa.int64()),  # last window_start in the block
        pa.field("n_points", pa.int32()),
        pa.field("ts_block", pa.binary()),
        pa.field("val_blocks", pa.list_(pa.binary())),
        pa.field("flags", pa.binary()),  # 2 bits/point: filled, stale
        # virtual-fill run codes (empty for dense blocks): [window_seconds:
        # u32 LE][u16 LE per REAL point: n_fill | stale << 15]. When
        # non-empty, ts/val/flag streams cover REAL points only and
        # n_points is the EXPANDED total (stages/encode docstring).
        pa.field("runs", pa.binary()),
    ]
)

# Value-stream order inside ``val_blocks`` (scalar streams first, then one
# stream per histogram bucket for kind == KIND_HISTOGRAM).
SCALAR_STREAMS = ("sum", "count", "min", "max", "last")
