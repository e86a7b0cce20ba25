"""Gap-fill / LOCF / staleness vectors (FIXTURES.md §F5) + series packing
+ Gorilla block encode/decode round-trip (no Ray needed)."""

import numpy as np
import pandas as pd

from vertex_ray.schema import (
    BUCKET_COLS,
    KIND_GAUGE,
    KIND_HISTOGRAM,
    KIND_SUM,
    STALE_NAN,
)
from vertex_ray.stages.encode import GorillaEncode, decode_blocks_batch
from rollup_spec import AGG_COLS, fill_bucket_df, pack_series


def agg_row(sk, kind, w, **kw):
    row = {
        "bucket": 0,
        "series_key": sk,
        "name": sk.split("{")[0],
        "kind": kind,
        "window_start": w,
        "sum": kw.get("sum", 1.0),
        "count": kw.get("count", 1),
        "min": kw.get("min", 1.0),
        "max": kw.get("max", 1.0),
        "last": kw.get("last", 1.0),
        "last_ts": kw.get("last_ts", w * 1_000_000),
    }
    for i, b in enumerate(BUCKET_COLS):
        row[b] = kw.get("buckets", [0] * len(BUCKET_COLS))[i]
    return row


def make_df(rows):
    return pd.DataFrame(rows)[AGG_COLS]


def sbits(x):
    return np.float64(x).view if False else np.asarray([x]).view(np.uint64)[0]


def test_gauge_locf_then_stale():
    # samples at w0, w0+60; silence to horizon → 5 LOCF windows, then one
    # stale marker, then nothing (F5)
    w0 = 1767225600
    df = make_df(
        [
            agg_row("g{c=1}", KIND_GAUGE, w0, last=5.0),
            agg_row("g{c=1}", KIND_GAUGE, w0 + 60, last=7.0),
        ]
    )
    out = fill_bucket_df(df, 60, global_end_window=w0 + 3600)
    fills = out[out["filled"]]
    stales = out[out["stale"]]
    assert list(fills["window_start"]) == [w0 + 120, w0 + 180, w0 + 240, w0 + 300, w0 + 360]
    assert (fills["last"] == 7.0).all() and (fills["count"] == 0).all()
    assert (fills["sum"] == 7.0).all() and (fills["min"] == 7.0).all()
    assert len(stales) == 1
    assert stales.iloc[0]["window_start"] == w0 + 60 + 360
    assert np.isnan(stales.iloc[0]["last"])  # exact payload stamped at pack time
    # nothing after the stale marker
    assert out["window_start"].max() == w0 + 420


def test_counter_zero_increment_fill():
    w0 = 1767225600
    df = make_df(
        [
            agg_row("c{x=1}", KIND_SUM, w0, sum=3.0, count=3, last=1.0),
            agg_row("c{x=1}", KIND_SUM, w0 + 180, sum=1.0, count=1, last=1.0),
        ]
    )
    out = fill_bucket_df(df, 60, global_end_window=w0 + 180)
    fills = out[out["filled"]]
    # gap of 2 windows < horizon → 2 fills, no stale
    assert list(fills["window_start"]) == [w0 + 60, w0 + 120]
    assert (fills["sum"] == 0.0).all() and (fills["count"] == 0).all()
    assert (fills["last"] == 0.0).all()
    assert fills["min"].isna().all()
    assert not out["stale"].any()  # next sample arrives; end == global end


def test_histogram_carries_cumulative_vector():
    w0 = 1767225600
    bk = [0, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2]
    df = make_df(
        [agg_row("h{c=1}", KIND_HISTOGRAM, w0, sum=0.5, count=2, buckets=bk)]
    )
    out = fill_bucket_df(df, 60, global_end_window=w0 + 120)
    fills = out[out["filled"]]
    assert len(fills) == 2  # capped by global end
    assert (fills["count"] == 2).all() and (fills["sum"] == 0.5).all()
    for i, b in enumerate(BUCKET_COLS):
        assert (fills[b] == bk[i]).all()
    assert not out["stale"].any()  # global end reached before horizon+1


def test_stale_only_within_global_end():
    w0 = 1767225600
    df = make_df([agg_row("g{c=1}", KIND_GAUGE, w0, last=1.0)])
    # global end far → stale emitted exactly at w0+360
    out = fill_bucket_df(df, 60, global_end_window=w0 + 86400)
    assert out[out["stale"]]["window_start"].tolist() == [w0 + 360]
    # global end at w0+300 → no stale (horizon not yet past at end of data)
    out2 = fill_bucket_df(df, 60, global_end_window=w0 + 300)
    assert not out2["stale"].any()
    assert len(out2[out2["filled"]]) == 5


def test_coarse_tier_zero_locf():
    # 1h tier: horizon 300 < window 3600 → no LOCF fills, immediate stale
    w0 = 1767225600 // 3600 * 3600
    df = make_df(
        [
            agg_row("g{c=1}", KIND_GAUGE, w0, last=2.0),
            agg_row("g{c=1}", KIND_GAUGE, w0 + 4 * 3600, last=3.0),
        ]
    )
    out = fill_bucket_df(df, 3600, global_end_window=w0 + 4 * 3600)
    assert not out["filled"].any()
    assert out[out["stale"]]["window_start"].tolist() == [w0 + 3600]


def test_pack_and_gorilla_block_roundtrip():
    from vertex_ray.schema import STALE_NAN_BITS

    w0 = 1767225600
    rows = [
        agg_row("g{c=1}", KIND_GAUGE, w0, last=5.0),
        agg_row("g{c=1}", KIND_GAUGE, w0 + 60, last=7.0),
        agg_row("h{c=2}", KIND_HISTOGRAM, w0, sum=0.5, count=2,
                buckets=[0, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2]),
    ]
    filled = fill_bucket_df(make_df(rows), 60, global_end_window=w0 + 600)
    assert filled["stale"].any()
    import pyarrow as pa

    packed = pack_series(filled)
    assert packed.num_rows == 2  # one row per series
    packed = packed.append_column(
        "tier", pa.array(["1m"] * packed.num_rows, type=pa.string())
    )
    enc = GorillaEncode()
    blocks = enc(packed)
    assert blocks["tier"][0].as_py() == "1m"
    for i, row in enumerate(blocks.to_pylist()):
        t = decode_blocks_batch(blocks.slice(i, 1))
        dec = {c: t[c].to_numpy() for c in t.column_names}
        ref = filled[filled["series_key"] == row["series_key"]]
        stale = ref["stale"].to_numpy()
        np.testing.assert_array_equal(dec["window_start"], ref["window_start"].to_numpy())
        np.testing.assert_array_equal(dec["filled"], ref["filled"].to_numpy())
        np.testing.assert_array_equal(dec["stale"], stale)
        for s in ("sum", "min", "max", "last"):
            got = dec[s].view(np.uint64)
            want = ref[s].to_numpy(np.float64).view(np.uint64).copy()
            want[stale] = STALE_NAN_BITS  # pack stage stamps the exact payload
            np.testing.assert_array_equal(got, want)  # bit-for-bit
        np.testing.assert_array_equal(dec["count"], ref["count"].to_numpy(np.float64))
        if row["kind"] == KIND_HISTOGRAM:
            for b in BUCKET_COLS:
                np.testing.assert_array_equal(dec[b], ref[b].to_numpy(np.float64))


def test_histogram_quantile_interpolation():
    """Prometheus interpolation: rank inside a bucket interpolates
    linearly; overflow beyond the last finite bucket returns its upper;
    rank in the first bucket interpolates from 0."""
    import numpy as np
    import pyarrow as pa

    from vertex_ray.schema import DEFAULT_BUCKETS, N_BUCKETS
    from vertex_ray.stages.quantile import histogram_quantile_batch

    # row 0: all 100 obs <= 0.005 (first bucket): p50 interpolates 0..0.005
    # row 1: uniform-ish: 50 in <=0.1, 100 in <=0.25 -> p75 inside (0.1,0.25]
    # row 2: all obs above the last finite bucket -> returns 10.0
    def cum(partial):
        out = np.zeros(N_BUCKETS, dtype=np.int64)
        for i, v in partial:
            out[i] = v
        return np.maximum.accumulate(out)

    rows = [
        cum([(0, 100)]),
        cum([(4, 50), (5, 100)]),
        np.zeros(N_BUCKETS, dtype=np.int64),
    ]
    t = pa.table({
        **{f"b{i:02d}": pa.array([int(r[i]) for r in rows])
           for i in range(N_BUCKETS)},
        "count": pa.array([100, 100, 40]),
    })
    p50 = histogram_quantile_batch(t, 0.5, out_col="q")["q"].to_pylist()
    assert p50[0] == 0.005 * 0.5  # 0 + (0.005-0)*(50-0)/(100-0)
    assert p50[2] == DEFAULT_BUCKETS[-1]
    p75 = histogram_quantile_batch(t, 0.75, out_col="q")["q"].to_pylist()
    lo, hi = 0.1, 0.25
    assert abs(p75[1] - (lo + (hi - lo) * (75 - 50) / (100 - 50))) < 1e-12


def test_histogram_fraction():
    """histogram_fraction(lo, hi): linear interpolation at both
    thresholds; hi beyond the last finite bucket counts everything;
    lo <= 0 counts from zero."""
    import numpy as np
    import pyarrow as pa

    from vertex_ray.schema import N_BUCKETS
    from vertex_ray.stages.quantile import histogram_fraction_batch

    # cumulative: 2 obs <=0.25, 4 <=0.5, 6 <=1.0, 8 <=2.5, 10 <=5.0
    cum = np.zeros(N_BUCKETS, dtype=np.int64)
    for i, v in [(5, 2), (6, 4), (7, 6), (8, 8), (9, 10), (10, 10)]:
        cum[i] = v
    t = pa.table({
        **{f"b{i:02d}": pa.array([int(cum[i])]) for i in range(N_BUCKETS)},
        "count": pa.array([10]),
    })

    def frac(lo, hi):
        return histogram_fraction_batch(t, lo, hi, out_col="f")[
            "f"].to_pylist()[0]

    # cum(2.0) = 6 + (8-6)*(2-1)/(2.5-1); cum(0.3) = 2 + (4-2)*(.3-.25)/.25
    c2 = 6 + 2 * ((2.0 - 1.0) / (2.5 - 1.0))
    c03 = 2 + 2 * ((0.3 - 0.25) / (0.5 - 0.25))
    assert frac(0.3, 2.0) == (c2 - c03) / 10.0
    assert frac(0.0, 20.0) == 1.0     # everything
    assert frac(0.0, 0.25) == 0.2     # exact bucket boundary -> b05/count


def test_histogram_fraction_properties():
    """Estimator sanity under random monotone cumulative buckets:
    bounded to [0,1], monotone in the upper threshold, and additive
    across adjacent ranges (up to float addition)."""
    import numpy as np
    import pyarrow as pa
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from vertex_ray.schema import N_BUCKETS
    from vertex_ray.stages.quantile import histogram_fraction_batch

    @settings(max_examples=150, deadline=None)
    @given(
        incs=st.lists(st.integers(0, 20), min_size=N_BUCKETS,
                      max_size=N_BUCKETS),
        cuts=st.tuples(st.floats(0.001, 12.0), st.floats(0.001, 12.0),
                       st.floats(0.001, 12.0)),
    )
    def check(incs, cuts):
        cum = np.cumsum(np.asarray(incs, dtype=np.int64))
        if cum[-1] == 0:
            return
        t = pa.table({
            **{f"b{i:02d}": pa.array([int(cum[i])])
               for i in range(N_BUCKETS)},
            "count": pa.array([int(cum[-1])]),
        })
        a, b, c = sorted(cuts)

        def frac(lo, hi):
            return histogram_fraction_batch(t, lo, hi, out_col="f")[
                "f"].to_pylist()[0]

        f_ab, f_bc, f_ac = frac(a, b), frac(b, c), frac(a, c)
        for f in (f_ab, f_bc, f_ac):
            assert -1e-12 <= f <= 1 + 1e-12
        assert f_ac >= f_ab - 1e-12  # monotone in the upper threshold
        assert abs((f_ab + f_bc) - f_ac) < 1e-9  # additivity

    check()


def test_unpack_series_empty_dict_schema_matches_nonempty():
    """unpack_series(dict_encode=True) on an EMPTY batch emits the same
    dictionary-typed schema as non-empty batches — one schema per
    Dataset even when sentinel-only epoch buckets hit the empty branch
    (ADVICE r3)."""
    import pyarrow as pa

    from rollup_spec import empty_fill_df, pack_series
    from vertex_ray.stages.fill import unpack_series

    packed_empty = pack_series(empty_fill_df())
    out = unpack_series(packed_empty, dict_encode=True)
    assert out.num_rows == 0
    for col in ("series_key", "name", "tier"):
        assert pa.types.is_dictionary(out.schema.field(col).type), col
    # and the plain path still yields plain strings
    out_plain = unpack_series(packed_empty, dict_encode=False)
    assert pa.types.is_string(out_plain.schema.field("series_key").type)
