"""Virtual fill runs (kernel.fill_runs / pack_arrays_virtual) must be a
lossless re-representation of the materialized fill path: expansion back
to the dense layout — at the packed table, the agg sink, and the decoded
block level — is bit-for-bit identical to the pandas spec
(fill.fill_bucket_df + fill.pack_series), and the block metadata
(block_start / block_end / n_points) keeps its dense semantics."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertex_ray.schema import BUCKET_COLS, TIERS
from vertex_ray.stages.encode import (
    GorillaEncode,
    decode_blocks_batch,
    pack_agg_rows,
)
from rollup_spec import AGG_COLS, fill_bucket_df, pack_series
from vertex_ray.stages.fill import (
    expand_agg_table,
    expand_packed,
    fold_fills,
    unpack_series,
)
from vertex_ray.stages.kernel import (
    HIST_METRIC,
    concat_agg,
    fill_runs,
    pack_arrays_virtual,
    render_series_keys,
    sort_agg,
    window_agg,
)
from vertex_ray.stages.kernel_epoch import epoch_kernel
from vertex_ray.synth import generate_transcripts


def _kernel_packed(n_turns=6000, tiers=TIERS):
    """One bucket's virtual-packed output over synthetic transcripts."""
    from vertex_ray.stages.derive import project_for_rollup_fast

    t = generate_transcripts(n_turns)
    fast = project_for_rollup_fast(t, n_buckets=1)
    end = int(t["ts"].cast("int64").to_numpy().max() // 1_000_000)
    return epoch_kernel(
        fast["conv_id"].to_numpy(zero_copy_only=False),
        fast["turn_idx"].to_numpy(),
        fast["role_code"].to_numpy(),
        fast["tool_code"].to_numpy(),
        fast["ts"].cast(pa.int64()).to_numpy(),
        None,
        tiers,
        None,
        None,
        end,
        0,
        1,
    )[0]


def _agg_from_obs(uid, ts_s, vals, hist, window_seconds=60):
    ts_us = np.asarray(ts_s, dtype=np.int64) * 1_000_000
    return window_agg(
        np.asarray(uid, dtype=np.int64), ts_us,
        np.asarray(vals, dtype=np.float64), window_seconds, hist)


def _assert_tables_bit_identical(a: pa.Table, b: pa.Table):
    assert a.schema.names == b.schema.names
    assert a.num_rows == b.num_rows
    for name in a.schema.names:
        ca, cb = a[name].combine_chunks(), b[name].combine_chunks()
        if pa.types.is_list(ca.type):
            va = ca.flatten().to_numpy(zero_copy_only=False)
            vb = cb.flatten().to_numpy(zero_copy_only=False)
            la = pa.compute.list_value_length(ca).to_numpy(zero_copy_only=False)
            lb = pa.compute.list_value_length(cb).to_numpy(zero_copy_only=False)
            np.testing.assert_array_equal(la, lb, err_msg=f"{name} lengths")
            if va.dtype.kind == "f":
                np.testing.assert_array_equal(
                    va.view(np.uint64), vb.view(np.uint64), err_msg=name)
            else:
                np.testing.assert_array_equal(va, vb, err_msg=name)
        elif pa.types.is_floating(ca.type):
            np.testing.assert_array_equal(
                ca.to_numpy(zero_copy_only=False).view(np.uint64),
                cb.to_numpy(zero_copy_only=False).view(np.uint64),
                err_msg=name)
        else:
            assert ca.equals(cb), name


def _with_tier(t: pa.Table) -> pa.Table:
    return t.append_column("tier", pa.array(["1m"] * t.num_rows,
                                            type=pa.string()))


def _sorted(t: pa.Table) -> pa.Table:
    return t.sort_by([("series_key", "ascending"),
                      ("window_start", "ascending")]).combine_chunks()


def _spec_and_virtual(agg, window_seconds=60, end_window=None):
    """(pandas-spec packed table, virtual packed table) of the same agg
    rows, both with a ``tier`` column. The spec is fill_bucket_df +
    pack_series over the rows rendered as a pandas agg frame."""
    agg = sort_agg(agg)
    if end_window is None:
        end_window = int(agg["window"].max()) if len(agg["window"]) else 0
    conv_strs = np.array([f"c{i}" for i in range(1 << 8)], dtype=object)
    keys, names, kinds = render_series_keys(agg["uid"], conv_strs)
    df = pd.DataFrame({
        "bucket": np.full(len(keys), 7, dtype=np.int32),
        "series_key": keys, "name": names, "kind": kinds,
        "window_start": agg["window"], "sum": agg["sum"],
        "count": agg["count"], "min": agg["min"], "max": agg["max"],
        "last": agg["last"], "last_ts": agg["last_ts"],
    })
    hist = (agg["uid"] >> np.int64(40)) == HIST_METRIC
    for j, b in enumerate(BUCKET_COLS):
        col = np.zeros(len(keys), dtype=np.int64)
        col[hist] = agg["buckets"][:, j]
        df[b] = col
    spec = pack_series(fill_bucket_df(df[AGG_COLS], window_seconds,
                                      end_window))
    codes = fill_runs(agg, window_seconds, end_window)
    virt = pack_arrays_virtual(agg, codes, conv_strs, 7, window_seconds)
    return _with_tier(spec), _with_tier(virt)


def test_expand_packed_matches_dense_pack():
    # three series: a counter with gaps, a gauge, a histogram — all with
    # trailing windows so stale markers appear
    base = np.int64(1) << np.int64(40)
    obs = []
    obs.append(_agg_from_obs([2 << 8] * 3, [0, 70, 2000], [1, 1, 1], False))
    g_uid = int(3 * base) + (5 << 8)
    obs.append(_agg_from_obs([g_uid] * 3, [10, 700, 1500], [4, 7, 2], False))
    h_uid = int(2 * base) + (9 << 8)
    obs.append(_agg_from_obs([h_uid] * 4, [5, 65, 1000, 1100],
                             [0.1, 3.0, 0.5, 9.9], True))
    agg = concat_agg(obs)
    spec, virt = _spec_and_virtual(agg, 60, 2400)
    got = unpack_series(expand_packed(virt))
    _assert_tables_bit_identical(_sorted(got), _sorted(unpack_series(spec)))
    assert pa.compute.any(got["filled"]).as_py()
    assert pa.compute.any(got["stale"]).as_py()


def test_unpack_series_expands_virtual():
    packed = _kernel_packed(4000)
    assert "runs" in packed.schema.names
    flat_virtual = unpack_series(packed)
    flat_dense = unpack_series(expand_packed(packed))
    _assert_tables_bit_identical(flat_virtual, flat_dense)
    # fills/stales really exist in this workload
    assert pa.compute.any(flat_virtual["filled"]).as_py()
    assert pa.compute.any(flat_virtual["stale"]).as_py()


def test_sparse_agg_sink_roundtrip():
    """unpack_series(sparse_fills=True) + expand_agg_table == the dense
    unpack, bit-for-bit — the agg store's virtual-fill write/read
    contract. Also holds across an arbitrary row split (expansion is
    row-local) and under dict_encode after an undict pass."""
    from vertex_ray.pipelines.rollup_pipeline import undict_table

    packed = _kernel_packed(4000)
    dense = unpack_series(packed)
    sparse = unpack_series(packed, sparse_fills=True)
    assert sparse.num_rows < dense.num_rows
    _assert_tables_bit_identical(expand_agg_table(sparse), dense)
    # split the sparse table mid-stream: per-batch expansion must concat
    # to the same dense table
    cut = sparse.num_rows // 3
    parts = [expand_agg_table(sparse.slice(0, cut)),
             expand_agg_table(sparse.slice(cut))]
    _assert_tables_bit_identical(pa.concat_tables(parts).combine_chunks(),
                                 dense)
    # dict-encoded write path → undict → expand
    sparse_d = unpack_series(packed, dict_encode=True, sparse_fills=True)
    _assert_tables_bit_identical(
        expand_agg_table(undict_table(sparse_d)), dense)


def test_encode_decode_virtual_matches_dense():
    packed = _kernel_packed(4000)
    enc = GorillaEncode()
    v3 = enc(packed)
    dense = enc(expand_packed(packed))
    # block metadata keeps dense semantics
    for col in ("series_key", "tier", "block_start", "block_end", "n_points"):
        assert v3[col].equals(dense[col]), col
    # the virtual blocks carry fewer stream bytes
    def payload(t):
        return int(pa.compute.sum(
            pa.compute.binary_length(t["val_blocks"].combine_chunks()
                                     .flatten())).as_py())
    assert payload(v3) < payload(dense)
    da, db = decode_blocks_batch(v3), decode_blocks_batch(dense)
    _assert_tables_bit_identical(da, db)


def test_decode_mixed_v2_v3_batch():
    packed = _kernel_packed(2500)
    enc = GorillaEncode()
    v3 = enc(packed)
    dense = enc(expand_packed(packed))
    # interleave: even rows virtual, odd rows dense
    n = v3.num_rows
    take_v3 = list(range(0, n, 2))
    take_v2 = list(range(1, n, 2))
    mixed = pa.concat_tables([v3.take(take_v3), dense.take(take_v2)])
    got = decode_blocks_batch(mixed).to_pandas().sort_values(
        ["tier", "series_key", "window_start"], kind="stable").reset_index(drop=True)
    want = decode_blocks_batch(dense).to_pandas().sort_values(
        ["tier", "series_key", "window_start"], kind="stable").reset_index(drop=True)
    assert len(got) == len(want)
    for col in want.columns:
        a, b = got[col].to_numpy(), want[col].to_numpy()
        if a.dtype.kind == "f":
            np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64),
                                          err_msg=col)
        else:
            np.testing.assert_array_equal(a, b, err_msg=col)


# hypothesis inputs: series (metric counter/hist/gauge, sub code,
# observation seconds) and the global end second
_SERIES_SPEC = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.integers(0, 3),
        st.lists(st.integers(0, 5000), min_size=1, max_size=12, unique=True),
    ),
    min_size=1, max_size=6,
)
_END_S = st.integers(4000, 8000)


def _property_tables(series_spec, end_s):
    """(spec packed, virtual packed) of the hypothesis-drawn series."""
    base = np.int64(1) << np.int64(40)
    metric_of = {0: 0, 1: 2, 2: 3}  # counter, histogram, gauge metrics
    parts = []
    for m, sub, secs in series_spec:
        metric = metric_of[m]
        uid = int(metric * base) + (sub << 8)
        vals = [float((s % 7) + 0.5) for s in secs]
        parts.append(_agg_from_obs([uid] * len(secs), sorted(secs), vals,
                                   metric == 2))
    return _spec_and_virtual(concat_agg(parts), 60, end_s // 60 * 60)


@settings(max_examples=60, deadline=None)
@given(_SERIES_SPEC, _END_S)
def test_virtual_fill_property(series_spec, end_s):
    spec, virt = _property_tables(series_spec, end_s)
    _assert_tables_bit_identical(_sorted(unpack_series(expand_packed(virt))),
                                 _sorted(unpack_series(spec)))
    # and through encode/decode
    enc = GorillaEncode()
    _assert_tables_bit_identical(
        _sorted(decode_blocks_batch(enc(virt))),
        _sorted(decode_blocks_batch(enc(spec))),
    )


@settings(max_examples=60, deadline=None)
@given(_SERIES_SPEC, _END_S)
def test_fold_inverts_expand_property(series_spec, end_s):
    """The writer's fold is the inverse of expansion: folding the dense
    rows of a virtual-packed table (each point tagged with its tier's
    window seconds, as decode_blocks_points does) gives back the same
    stored points, run codes and (absent) flags, bit-for-bit."""
    _, virt = _property_tables(series_spec, end_s)
    dense = unpack_series(expand_packed(virt))
    dense = dense.append_column(
        "window_seconds", pa.array(np.full(dense.num_rows, 60, np.int64)))
    folded = pack_agg_rows(dense)
    assert sorted(folded.schema.names) == sorted(virt.schema.names)
    _assert_tables_bit_identical(folded.select(virt.schema.names), virt)


def test_fold_fills_keeps_orphans_stored():
    """Only fills whose chain is headed by a real point in the same row
    fold; a chain headed by a stored fill, a fill after a stale marker,
    a window gap or a row boundary stays stored with code 0."""
    #        real fill fill stale | fill fill real fill stale fill | fill
    w = np.array([0, 60, 120, 180, 0, 60, 120, 180, 240, 300, 360])
    fl = np.array([0, 1, 1, 2, 1, 1, 0, 1, 2, 1, 1], dtype=np.uint8)
    new_row = np.zeros(len(w), dtype=bool)
    new_row[[0, 4, 10]] = True
    w[10] = 360  # contiguous with the point before, but a new row
    stored, codes = fold_fills(w, fl, np.full(len(w), 60), new_row)
    assert stored.tolist() == [True, False, False, False, True, True, True,
                               False, False, True, True]
    assert codes.tolist() == [2 | 1 << 15, 0, 0, 1 | 1 << 15, 0, 0]
    # unknown window seconds (a source row without runs): nothing folds
    stored, codes = fold_fills(w, fl, np.zeros(len(w), np.int64), new_row)
    assert stored.all() and not codes.any()


def test_fold_uses_each_points_source_window_seconds():
    """Two source rows of one series merge into one output row: the fill
    from the row without runs (window seconds 0) stays stored, the fill
    from the run-coded row folds, and the output row gets a runs
    section."""
    n = 4
    rows = pa.table({
        "bucket": pa.array([0] * n, type=pa.int32()),
        "series_key": ["g"] * n, "name": ["g"] * n,
        "kind": pa.array([0] * n, type=pa.uint8()),
        "tier": ["1m"] * n,
        "window_start": [0, 60, 600, 660],
        **{s: [1.0, 1.0, 2.0, 2.0] for s in ("sum", "min", "max", "last")},
        "count": [1.0, 0.0, 1.0, 0.0],
        "filled": [False, True, False, True],
        "stale": [False] * n,
        "window_seconds": [0, 0, 60, 60],
    })
    packed = pack_agg_rows(rows)
    assert packed["window_starts"].to_pylist() == [[0, 60, 600]]
    assert packed["runs"].to_pylist() == [[0, 0, 1]]
    assert packed["flags"].to_pylist() == [[0, 1, 0]]
    assert packed["window_seconds"].to_pylist() == [60]


def test_decode_pre_runs_column_store():
    """Block rows written before the runs column existed (old committed
    stores) must decode unchanged — absence of the column means dense."""
    packed = _kernel_packed(2000)
    enc = GorillaEncode()
    dense = enc(expand_packed(packed))
    legacy = dense.drop_columns(["runs"])
    got = decode_blocks_batch(legacy)
    want = decode_blocks_batch(dense)
    _assert_tables_bit_identical(got, want)


def test_oversize_horizon_raises():
    """A horizon spanning more fill windows than the 15-bit run code can
    hold (fine windows + long staleness) is refused with fill_runs'
    ValueError; the pipelines' 300 s horizon never reaches it."""
    conv = np.array(["c1", "c1", "c2"], dtype=object)
    args = (conv, np.array([0, 1, 0]), np.array([1, 2, 1]),
            np.array([0, 0, 3]),
            np.array([0, 2_000_000, 65_000_000], dtype=np.int64))
    agg = _agg_from_obs([0, 0, 1], [0, 2, 65], [1.0, 1.0, 1.0], False, 1)
    with pytest.raises(ValueError, match="run-code range"):
        fill_runs(agg, 1, 70, horizon_seconds=50_000)
    assert "runs" in epoch_kernel(*args, None, (("1s", 1),), None, None, 70,
                                  0)[0].schema.names


E0 = 1_700_000_000 // 3600 * 3600


def _epoch_packed_with_carry():
    """Epoch 1 of a conversation whose epoch-0 turn leaves LOCF fills
    across the boundary, plus a real turn inside epoch 1: the block rows
    hold carried fills as flagged stored points AND run codes."""
    from vertex_ray.stages.kernel_epoch import epoch_kernel

    tiers = (("1m", 60), ("5m", 300))

    def run(turns, state, es):
        conv = np.array(["a"] * len(turns), dtype=object)
        return epoch_kernel(
            conv, np.array([t[0] for t in turns], dtype=np.int64),
            np.zeros(len(turns), np.uint8), np.zeros(len(turns), np.uint8),
            np.array([t[1] * 1_000_000 for t in turns], dtype=np.int64),
            state, tiers, es, es + 3600, es + 3599, bucket_id=0)

    _, state = run([(0, E0 + 3590)], None, E0)
    packed, _ = run([(1, E0 + 3700)], state, E0 + 3600)
    return packed


def test_flags_and_runs_row_decodes_like_dense():
    packed = _epoch_packed_with_carry()
    enc = GorillaEncode()
    blocks = enc(packed)
    flags = blocks["flags"].to_pylist()
    runs = blocks["runs"].to_pylist()
    both = [i for i in range(blocks.num_rows)
            if flags[i] and any(runs[i][4:])]
    assert both, "no block row holds both a flags and a runs section"
    _assert_tables_bit_identical(
        decode_blocks_batch(blocks),
        decode_blocks_batch(enc(expand_packed(packed))))


def test_expand_agg_table_keeps_stored_flags():
    packed = _epoch_packed_with_carry()
    sparse = unpack_series(packed, sparse_fills=True)
    stored_fill = pa.compute.and_(sparse["filled"],
                                  pa.compute.equal(sparse["fill_runs"], 0))
    assert pa.compute.any(stored_fill).as_py()
    _assert_tables_bit_identical(expand_agg_table(sparse),
                                 unpack_series(packed))
