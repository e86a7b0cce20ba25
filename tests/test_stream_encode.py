"""Streaming Gorilla encoder: per-partition open-block actor state.

The bit-for-bit contract: feeding a series in ANY micro-batch slicing
yields blocks whose decoded concatenation equals the original points —
and closed blocks are cut at exactly max_points regardless of how many
batches the points arrived in."""

import numpy as np
import pyarrow as pa

from vertex_ray.stages.stream_encode import (
    StreamGorillaEncoder,
    decode_stream_blocks,
    stream_encode,
)


def _mk(keys, ts, vals):
    return pa.table({
        "series_key": keys,
        "window_start": np.asarray(ts, dtype=np.int64),
        "value": np.asarray(vals, dtype=np.float64),
    })


def _decode_all(blocks: pa.Table) -> dict[str, tuple[list, list]]:
    out: dict[str, tuple[list, list]] = {}
    pts = decode_stream_blocks(blocks.sort_by(
        [("series_key", "ascending"), ("block_start", "ascending")]))
    for k, w, v in zip(*(pts[c].to_pylist() for c in pts.column_names)):
        a = out.setdefault(k, ([], []))
        a[0].append(w)
        a[1].append(v)
    return out


def test_open_blocks_span_micro_batches():
    enc = StreamGorillaEncoder(max_points=5)
    # series a arrives 3 points per batch: the first block must close
    # mid-SECOND-batch (5 points buffered across batch boundary)
    b1 = enc.append(_mk(["a"] * 3, [0, 60, 120], [1, 2, 3]))
    assert b1.num_rows == 0
    b2 = enc.append(_mk(["a"] * 3, [180, 240, 300], [4, 5, 6]))
    assert b2.num_rows == 1
    assert b2["n_points"][0].as_py() == 5
    assert b2["block_start"][0].as_py() == 0
    assert b2["block_end"][0].as_py() == 240
    rest = enc.flush()
    assert rest.num_rows == 1 and rest["n_points"][0].as_py() == 1
    got = _decode_all(pa.concat_tables([b2, rest]))
    assert got["a"] == ([0, 60, 120, 180, 240, 300],
                        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])


def test_multi_block_close_in_one_batch():
    enc = StreamGorillaEncoder(max_points=4)
    n = 11
    b = enc.append(_mk(["s"] * n, np.arange(n) * 60, np.arange(n) * 1.5))
    assert b.num_rows == 2  # 4 + 4 closed, 3 left open
    rest = enc.flush()
    assert rest["n_points"][0].as_py() == 3
    got = _decode_all(pa.concat_tables([b, rest]))
    assert got["s"][0] == (np.arange(n) * 60).tolist()
    assert got["s"][1] == (np.arange(n) * 1.5).tolist()
    # flush is terminal: nothing left behind
    assert enc.flush().num_rows == 0


def test_stream_encode_pool_matches_oneshot(ray_session):
    rng = np.random.default_rng(11)
    keys, ts, vals = [], [], []
    truth = {}
    for s in range(17):
        k = f"series{s:02d}"
        n = int(rng.integers(1, 40))
        t = np.cumsum(rng.integers(1, 5, n)) * 60
        v = rng.integers(-3, 4, n).astype(np.float64)
        truth[k] = (t.tolist(), v.tolist())
        keys.extend([k] * n)
        ts.extend(t.tolist())
        vals.extend(v.tolist())
    # interleave series but keep per-series time order: sort by ts then
    # slice into ragged micro-batches
    order = np.argsort(np.asarray(ts), kind="stable")
    keys = np.asarray(keys, dtype=object)[order]
    ts = np.asarray(ts)[order]
    vals = np.asarray(vals)[order]
    cuts = [0, 50, 120, 200, len(keys)]
    batches = [_mk(keys[a:b].tolist(), ts[a:b], vals[a:b])
               for a, b in zip(cuts, cuts[1:]) if b > a]
    blocks = stream_encode(batches, n_actors=3, max_points=8)
    got = _decode_all(blocks)
    assert got == truth
    # block sizing: every non-final block of a series is exactly 8 points
    df = blocks.to_pandas().sort_values(["series_key", "block_start"])
    for k, g in df.groupby("series_key"):
        assert (g["n_points"].to_numpy()[:-1] == 8).all()


def test_stream_encoder_slicing_property():
    """Hypothesis: ANY micro-batch slicing of a time-ordered stream
    yields the same decoded points as the unsliced stream, with every
    non-final block exactly max_points."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.lists(  # per series: number of points
            st.integers(min_value=1, max_value=30),
            min_size=1, max_size=5),
        cuts=st.lists(st.integers(min_value=1, max_value=120),
                      min_size=0, max_size=6),
        max_points=st.integers(min_value=2, max_value=9),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def check(data, cuts, max_points, seed):
        rng = np.random.default_rng(seed)
        keys, ts, vals = [], [], []
        truth = {}
        for s, n in enumerate(data):
            k = f"s{s}"
            t = np.cumsum(rng.integers(1, 4, n)) * 60
            v = rng.integers(-2, 3, n).astype(np.float64)
            truth[k] = (t.tolist(), v.tolist())
            keys.extend([k] * n)
            ts.extend(t.tolist())
            vals.extend(v.tolist())
        order = np.argsort(np.asarray(ts), kind="stable")
        keys = np.asarray(keys, dtype=object)[order]
        ts = np.asarray(ts)[order]
        vals = np.asarray(vals)[order]
        bounds = sorted({0, len(keys), *[c % (len(keys) + 1) for c in cuts]})
        enc = StreamGorillaEncoder(max_points=max_points)
        blocks = []
        for a, b in zip(bounds, bounds[1:]):
            out = enc.append(_mk(keys[a:b].tolist(), ts[a:b], vals[a:b]))
            if out.num_rows:
                blocks.append(out)
        out = enc.flush()
        if out.num_rows:
            blocks.append(out)
        allb = pa.concat_tables(blocks)
        assert _decode_all(allb) == truth
        df = allb.to_pandas().sort_values(["series_key", "block_start"])
        for _, g in df.groupby("series_key"):
            assert (g["n_points"].to_numpy()[:-1] == max_points).all()

    check()


def test_replay_guard_effectively_once():
    """At-least-once delivery: re-delivering an entire micro-batch (or a
    prefix overlap) leaves the encoded stream byte-identical to a clean
    single-delivery run — the per-series high-water mark absorbs it."""
    clean = StreamGorillaEncoder(max_points=4)
    dirty = StreamGorillaEncoder(max_points=4)

    b1 = _mk(["a"] * 3 + ["b"], [0, 60, 120, 0], [1, 2, 3, 9])
    b2 = _mk(["a"] * 3, [180, 240, 300], [4, 5, 6])

    out_c = [clean.append(b1), clean.append(b2), clean.flush()]
    # dirty: b1 delivered twice, then an overlapping b1+b2 union, then b2
    union = _mk(["a"] * 6 + ["b"], [0, 60, 120, 180, 240, 300, 0],
                [1, 2, 3, 4, 5, 6, 9])
    out_d = [dirty.append(b1), dirty.append(b1), dirty.append(union),
             dirty.append(b2), dirty.flush()]

    cat_c = pa.concat_tables([t for t in out_c if t.num_rows])
    cat_d = pa.concat_tables([t for t in out_d if t.num_rows])
    assert _decode_all(cat_c) == _decode_all(cat_d)
    # byte-identical blocks, same cut points
    dc = cat_c.to_pandas().sort_values(["series_key", "block_start"])
    dd = cat_d.to_pandas().sort_values(["series_key", "block_start"])
    assert dc["ts_block"].tolist() == dd["ts_block"].tolist()
    assert dc["val_block"].tolist() == dd["val_block"].tolist()

    # intra-batch duplicate rows are dropped too
    e = StreamGorillaEncoder(max_points=8)
    dup = _mk(["a"] * 4, [0, 0, 60, 60], [1, 1, 2, 2])
    e.append(dup)
    got = _decode_all(e.flush())
    assert got["a"] == ([0, 60], [1.0, 2.0])


def test_ooo_window_ingests_late_points():
    """Out-of-order ingest (the Prometheus out_of_order_time_window
    analogue): a genuinely-late point within the horizon lands in the
    OOO buffer and flushes as its own block; redelivered duplicates and
    too-old points still drop; the store invariant (one row per series
    window) holds across the union of in-order and OOO blocks."""
    enc = StreamGorillaEncoder(max_points=4, ooo_window_s=180)
    enc.append(_mk(["a"] * 3, [0, 60, 120], [1, 2, 3]))
    # 60 is a redelivery (already ingested) -> drop;
    # 30 is genuinely late, within 180s of head (120) -> OOO buffer;
    # -120 is older than the horizon -> drop
    enc.append(_mk(["a"] * 3, [60, 30, -120], [2, 9, 7]))
    # late point arriving together with new in-order points
    out = enc.append(_mk(["a"] * 3, [180, 90, 240], [4, 8, 5]))
    got = _decode_all(pa.concat_tables(
        [t for t in [out, enc.flush()] if t.num_rows]))
    # in-order stream: 0,60,120,180,240; OOO block: 30,90. OOO blocks
    # overlap the in-order blocks in TIME (disjoint windows, that's the
    # invariant) — compare the sorted union of points.
    pts = sorted(zip(*got["a"]))
    assert pts == [(0, 1.0), (30, 9.0), (60, 2.0), (90, 8.0),
                   (120, 3.0), (180, 4.0), (240, 5.0)]


def test_ooo_duplicate_guards():
    enc = StreamGorillaEncoder(max_points=8, ooo_window_s=600)
    enc.append(_mk(["a"] * 3, [0, 60, 120], [1, 2, 3]))
    # same late ts delivered twice in one batch and again in another:
    # ingested once
    enc.append(_mk(["a"] * 2, [30, 30], [9, 9]))
    enc.append(_mk(["a"], [30], [9]))
    first = enc.flush()
    got = _decode_all(first)
    assert sorted(zip(*got["a"])) == \
        [(0, 1.0), (30, 9.0), (60, 2.0), (120, 3.0)]
    # redelivering the late batch AFTER flush: the horizon memory still
    # rejects it (no duplicate block)
    enc.append(_mk(["a"], [30], [9]))
    assert enc.flush().num_rows == 0


def test_ooo_disabled_is_unchanged():
    # default (ooo_window_s=0): late points drop exactly as before
    enc = StreamGorillaEncoder(max_points=8)
    enc.append(_mk(["a"] * 2, [0, 60], [1, 2]))
    enc.append(_mk(["a"], [30], [9]))
    assert _decode_all(enc.flush())["a"] == ([0, 60], [1.0, 2.0])
