"""The numpy bucket kernel must match the pandas reference path
bit-for-bit (same agg rows, fills, stale markers, packing)."""

from unittest import mock

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from rollup_spec import (
    AGG_COLS,
    empty_agg_df,
    fill_bucket_df,
    merge_agg,
    pack_series,
    rollup_bucket,
)
from vertex_ray.schema import (
    AGG_SCHEMA,
    BUCKET_COLS,
    KIND_GAUGE,
    KIND_HISTOGRAM,
    KIND_SUM,
    KIND_SUMMARY,
    TIERS,
)
from vertex_ray.pipelines.rollup_pipeline import bucket_kernel_group_packed
from vertex_ray.stages.derive import (
    conv_hash64,
    project_for_rollup_fast,
    project_for_rollup_packed,
)
from vertex_ray.stages.fill import unpack_series
from vertex_ray.stages.kernel import (
    keyed_agg,
    keyed_rows,
    merge_keyed,
)
from vertex_ray.stages.kernel_epoch import epoch_kernel
from vertex_ray.synth import generate_transcripts


def bucket_rollup_all_tiers(
    group: pd.DataFrame,
    tiers,
    global_end_s: int,
    salt: int = 1,
) -> pa.Table:
    """Per-bucket group body: raw pruned turns → packed per-series arrays
    for every retention tier (rollup → cascade → fill → pack)."""
    base_tier, base_seconds = tiers[0]
    agg = rollup_bucket(group, base_seconds, salt)
    parts = []
    prev = agg
    for tier, seconds in tiers:
        if seconds != base_seconds:
            prev = merge_agg(prev, seconds)
        filled = fill_bucket_df(prev, seconds, global_end_s // seconds * seconds)
        packed = pack_series(filled)
        parts.append(
            packed.append_column(
                "tier", pa.array([tier] * packed.num_rows, type=pa.string())
            )
        )
    return pa.concat_tables(parts)


def _unpack_df(packed: pa.Table) -> pd.DataFrame:
    df = unpack_series(packed).to_pandas()
    return (
        df.drop(columns=["bucket"])
        .sort_values(["tier", "series_key", "window_start"], kind="stable")
        .reset_index(drop=True)
    )


def run_both(n_turns=20000, salt=1):
    t = generate_transcripts(n_turns)
    fast = project_for_rollup_fast(t, n_buckets=4)
    end = int(t["ts"].cast("int64").to_numpy().max() // 1_000_000)

    # pandas reference path, grouped by the SAME buckets
    pdf = t.to_pandas()
    pdf["bucket"] = fast["bucket"].to_numpy()
    ref_parts = [
        bucket_rollup_all_tiers(g, TIERS, end, salt=salt)
        for _, g in pdf.groupby("bucket")
    ]
    ref = _unpack_df(pa.concat_tables(ref_parts))

    fast_df = fast.to_pandas()
    got_parts = []
    for b, g in fast_df.groupby("bucket"):
        got_parts.append(
            epoch_kernel(
                g["conv_id"].to_numpy(dtype=object),
                g["turn_idx"].to_numpy(),
                g["role_code"].to_numpy(),
                g["tool_code"].to_numpy(),
                g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64),
                None,
                TIERS,
                None,
                None,
                end,
                int(b),
                salt,
            )[0]
        )
    got = _unpack_df(pa.concat_tables(got_parts))
    return ref, got


def assert_bit_identical(ref: pd.DataFrame, got: pd.DataFrame):
    assert len(ref) == len(got)
    assert list(ref.columns) == list(got.columns)
    for col in ref.columns:
        a, b = got[col].to_numpy(), ref[col].to_numpy()
        if a.dtype.kind == "f":
            np.testing.assert_array_equal(
                a.view(np.uint64), b.astype(np.float64).view(np.uint64), err_msg=col
            )
        else:
            np.testing.assert_array_equal(a, b, err_msg=col)


def test_kernel_matches_pandas_reference():
    ref, got = run_both(20000)
    assert_bit_identical(ref, got)
    assert ref["stale"].any() and ref["filled"].any()


def test_kernel_salted_equals_unsalted():
    ref, _ = run_both(8000, salt=1)
    got, _ = run_both(8000, salt=4)
    assert_bit_identical(ref, got)


def test_kernel_hash_collision_safe():
    # force two conversations onto the SAME conv_hash: grouping must still
    # split them via the string-equality refinement
    t = generate_transcripts(600)
    fast = project_for_rollup_fast(t, n_buckets=1)
    conv = fast["conv_id"].to_numpy(zero_copy_only=False)
    end = int(t["ts"].cast("int64").to_numpy().max() // 1_000_000)
    # all conversations collide on the hash that orders them
    with mock.patch("vertex_ray.stages.kernel_epoch.conv_hash64",
                    lambda c: np.full(len(c), 42, dtype=np.uint64)):
        out = epoch_kernel(
            conv,
            fast["turn_idx"].to_numpy(),
            fast["role_code"].to_numpy(),
            fast["tool_code"].to_numpy(),
            fast["ts"].cast(pa.int64()).to_numpy(),
            None,
            TIERS,
            None,
            None,
            end,
            0,
        )[0]
    df = unpack_series(out).to_pandas()
    # every conversation must still appear as its own series
    n_convs = len(set(conv))
    turns_1m = df[(df["tier"] == "1m") & (df["name"] == "turns_total")]
    got_convs = {k.split("conv_id=")[1].split(",")[0] for k in turns_1m["series_key"]}
    assert len(got_convs) == n_convs


def test_oneshot_accepts_ts_decreasing_in_turn_order():
    """A one-shot run has no epoch boundary to guard: a conversation whose
    ts decreases in turn order, which a bounded epoch refuses
    (test_epoch_pipeline.test_nonmonotonic_ts_raises), goes through the
    one-shot group body and matches the pandas spec bit for bit."""
    t = generate_transcripts(3000)
    conv = t["conv_id"].to_numpy(zero_copy_only=False)
    ids, counts = np.unique(conv, return_counts=True)
    rows = np.flatnonzero(conv == ids[counts.argmax()])
    ts = t["ts"].cast(pa.int64()).to_numpy().copy()
    ts[rows] = ts[rows][::-1]  # the longest conversation runs backwards
    assert (np.diff(ts[rows]) < 0).any()
    t = t.set_column(t.schema.get_field_index("ts"), "ts",
                     pa.array(ts).cast(t.schema.field("ts").type))
    end = int(ts.max() // 1_000_000)

    pdf = t.to_pandas()
    pdf["bucket"] = project_for_rollup_fast(t, n_buckets=4)["bucket"].to_numpy()
    ref = _unpack_df(pa.concat_tables([
        bucket_rollup_all_tiers(g, TIERS, end) for _, g in pdf.groupby("bucket")
    ]))
    packed = project_for_rollup_packed(t, n_buckets=4)
    got = _unpack_df(pa.concat_tables([
        bucket_kernel_group_packed(
            packed.filter(pa.compute.equal(packed["bucket"], b)), TIERS, end, 1)
        for b in np.unique(packed["bucket"].to_numpy())
    ]))
    assert_bit_identical(ref, got)


_KEYED_KINDS = (KIND_SUM, KIND_GAUGE, KIND_HISTOGRAM, KIND_SUMMARY)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 9),
                          st.integers(0, 59), st.integers(-4, 4),
                          st.integers(1, 3), st.integers(0, 3)),
                min_size=0, max_size=40),
       st.sampled_from((60, 300, 3600)))
def test_keyed_merge_matches_pandas_spec(parts, window_seconds):
    """The string-keyed adapter (keyed_agg → merge_keyed → keyed_rows)
    equals the pandas spec's merge_agg on NaN-free partials of all four
    kinds: sums/counts/buckets add, min/max fold, ``last`` by latest
    ``last_ts``, summaries keep their earliest row."""
    rows = []
    for key, w, off, v, c, b in parts:
        kind = _KEYED_KINDS[key % 4]
        rows.append({
            "bucket": 0, "series_key": f"m{key}{{k={key}}}",
            "name": f"m{key}", "kind": kind, "window_start": w * 60,
            "sum": float(v * c), "count": c, "min": float(v - b),
            "max": float(v + b), "last": float(v),
            "last_ts": (w * 60 + off) * 1_000_000,
            **{col: (b + i if kind == KIND_HISTOGRAM else 0)
               for i, col in enumerate(BUCKET_COLS)}})
    df = (pd.DataFrame(rows, columns=AGG_COLS) if rows
          else empty_agg_df()).astype({c: t for c, t in zip(
              AGG_COLS, empty_agg_df().dtypes)})
    want = merge_agg(df, window_seconds)
    agg, series = keyed_agg(pa.Table.from_pandas(df, schema=AGG_SCHEMA,
                                                 preserve_index=False))
    got = keyed_rows(merge_keyed(agg, window_seconds), series).to_pandas()
    cols = ["series_key", "window_start", "kind", "sum", "count", "min",
            "max", "last", "last_ts", *BUCKET_COLS]
    key = ["series_key", "window_start"]
    want = want[cols].sort_values(key).reset_index(drop=True)
    got = got[cols].sort_values(key).reset_index(drop=True)
    assert len(got) == len(want)
    for c in cols:
        assert got[c].tolist() == want[c].tolist(), c


def test_no_engine_module_defines_or_imports_the_spec():
    """vertex_ray/ has one aggregation implementation: no module defines
    or imports a name of the pandas spec (tests/rollup_spec.py)."""
    import ast
    import pathlib

    import vertex_ray

    spec = {"merge_agg", "window_agg_points", "rollup_bucket",
            "fill_bucket_df", "pack_series"}
    root = pathlib.Path(vertex_ray.__file__).parent
    hits = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {part for a in node.names
                         for part in (a.name.rsplit(".", 1)[-1], a.asname)}
            elif isinstance(node, ast.Assign):
                names = {t.id for t in node.targets
                         if isinstance(t, ast.Name)}
            else:
                continue
            hits += [f"{path.relative_to(root)}:{node.lineno} {n}"
                     for n in sorted(names & spec)]
    assert not hits, hits
