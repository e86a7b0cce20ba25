"""The read façade's two executors (vertex_ray/read.py): a read whose
candidate part files are small runs in the driver on one table, a larger
one as a Ray Data execution. Both must return the same rows; the module
constant ``DRIVER_READ_MAX_BYTES`` picks the path, so each test forces a
path by patching it (0: Ray Data for every read that has a part to read;
huge: the driver for every read). The memory guard
``DRIVER_DECODE_MAX_POINTS`` = 0 adds a third path for range reads: the
driver reads and prunes, Ray Data decodes."""

import hashlib
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

import vertex_ray.pipelines.rollup_pipeline as rp
import vertex_ray.read as read
from vertex_ray.promql_lang import eval_promql, explain_promql, render_series
from vertex_ray.synth import ensure_transcripts

COLS = ["series_key", "window_start", "count"]
RAY, DRIVER = 0, 2**62


def _subset(path: str, n_convs: int) -> list[str]:
    """Write the turns of the first ``n_convs`` sf0.001 conversations to
    ``path``; returns their ids."""
    t = pq.read_table(ensure_transcripts(0.001,
                                         base="/tmp/vertex_ray_testdata"))
    convs = sorted(set(t["conv_id"].to_pylist()))[:n_convs]
    pq.write_table(t.filter(pc.is_in(t["conv_id"], pa.array(convs))), path)
    return convs


def _bucket(conv_id: str, n_buckets: int) -> int:
    h = hashlib.blake2b(conv_id.encode(), digest_size=8).digest()
    return int.from_bytes(h, "big") % n_buckets


@pytest.fixture(scope="module")
def stores(ray_session, tmp_path_factory):
    from vertex_ray.pipelines.epoch_pipeline import run_pipeline_epochs
    from vertex_ray.pipelines.rollup_pipeline import run_pipeline

    tmp = tmp_path_factory.mktemp("read_paths")
    trans = str(tmp / "transcripts.parquet")
    convs = _subset(trans, 24)
    one, epo = str(tmp / "oneshot"), str(tmp / "epochs")
    run_pipeline(trans, one, n_buckets=4)
    run_pipeline_epochs(trans, epo, epoch_seconds=86_400, n_buckets=4)
    return {"oneshot": one, "epochs": epo, "convs": convs}


def _rows(ds) -> pa.Table:
    parts = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(parts) if parts else pa.table({})


def _digest(t: pa.Table) -> tuple[int, str]:
    """Row count and order-independent digest (rows sorted by every
    column, hashed with their schema as Arrow IPC)."""
    if t.num_rows:
        t = t.sort_by([(n, "ascending") for n in t.schema.names])
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t.combine_chunks())
    return t.num_rows, hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()


def _both_paths(monkeypatch, query) -> tuple:
    """(digest on the Ray Data path, digest on the driver path, number
    of ``rd.read_parquet`` calls on each)."""
    calls = []
    real = rd.read_parquet

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(rd, "read_parquet", counting)
    out = []
    for limit in (RAY, DRIVER):
        monkeypatch.setattr(read, "DRIVER_READ_MAX_BYTES", limit)
        n0 = len(calls)
        out.append((_digest(_rows(query())), len(calls) - n0))
    (ray_d, ray_reads), (drv_d, drv_reads) = out
    return ray_d, drv_d, ray_reads, drv_reads


def _window(store: str, tier: str) -> tuple[int, int]:
    t = _rows(read.query_range(store, tier, metric="turns_total",
                               columns=COLS))
    w = sorted(set(t["window_start"].to_pylist()))
    return w[len(w) // 4], w[3 * len(w) // 4]


def _cases(s):
    one, epo, conv = s["oneshot"], s["epochs"], s["convs"][3]
    lo, hi = _window(one, "1h")
    partial = {"metric": "turns_total", "key_regex": r"role=assistant\}",
               "start": lo, "end": hi, "tiers": ["1h"]}
    full = {"metric": "turns_total", "key_regex": r"role=user\}",
            "start": None, "end": None, "tiers": None}
    qr = read.query_range
    kw = dict(metric="turns_total", columns=COLS)

    def pq_(expr: str, **k):
        return lambda: eval_promql(one, expr, **k)

    inc = "increase(turns_total[1h])"

    def rule_vector():
        """A recorded rule vector (a Dataset, so its side of the match
        is Ray Data on both paths) matched with a store selector."""
        rec = render_series(eval_promql(one, f"sum by (role) ({inc})"),
                            ["role"], "role_turns").materialize()
        return eval_promql(
            one, f"role_turns / on(role) sum by (role) ({inc})",
            vectors={"role_turns": (rec, 3600)})

    return {
        "range": lambda: qr(one, "1h", **kw),
        "range_filled": lambda: qr(one, "1m", include_filled=True, **kw),
        "range_start_end": lambda: qr(one, "1h", start=lo, end=hi, **kw),
        "range_offset": lambda: qr(one, "1h", start=lo, end=hi,
                                   offset=3600, **kw),
        "range_partial_stone": lambda: qr(one, "1h", tombstones=[partial],
                                          **kw),
        "range_full_stone": lambda: qr(one, "1h", tombstones=[full], **kw),
        "range_epochs": lambda: qr(epo, "1h", layout="epochs", **kw),
        "range_all_cols": lambda: qr(one, "1d"),
        "point": lambda: qr(one, "1m", conv_id=conv, **kw),
        "point_filled": lambda: qr(one, "1h", conv_id=conv,
                                   include_filled=True, start=lo, **kw),
        "point_epochs": lambda: qr(epo, "1h", conv_id=conv,
                                   layout="epochs", **kw),
        "instant": lambda: read.instant_query(one, "1h", at=hi,
                                              lookback=6 * 3600, **kw),
        "tsdb_status": lambda: read.tsdb_status(one, "1m"),
        "stitched": lambda: read.query_range_stitched(
            one, "1d", "1h", hi // 86_400 * 86_400, **kw),
        "promql": lambda: eval_promql(
            one, "sum by (role) (increase(turns_total[1h]))"),
        "promql_rate_2h": pq_("rate(turns_total[2h])"),
        "promql_sum_without": pq_(f"sum without (role) ({inc})"),
        "promql_sum_by_two": pq_(f"sum by (role, conv_id) ({inc})"),
        "promql_topk": pq_(f"topk(3, {inc})"),
        "promql_count_values": pq_(f'count_values("n", {inc})'),
        "promql_div_on": pq_(
            f'increase(turns_total{{role="user"}}[1h]) / on(conv_id) '
            f"sum by (conv_id) ({inc})"),
        "promql_and": pq_(
            f'{inc} and increase(turns_total{{role="user"}}[1h])'),
        "promql_or": pq_('increase(turns_total{role="user"}[1h]) or '
                         'increase(turns_total{role="assistant"}[1h])'),
        "promql_at": pq_(f"sum by (role) ({inc}) / on(role) sum by (role) "
                         f"(increase(turns_total[1h] @ {hi}))"),
        "promql_rule_vector": rule_vector,
        "series_metadata": lambda: read.series_metadata(
            one, "1h", metric="turns_total"),
        "label_values": lambda: read.label_values(one, "1h", "role"),
        "label_cardinality": lambda: read.label_cardinality(
            one, "1h", ["role", "conv_id"]),
        "multi_dedupe": lambda: read.query_range_multi(
            [one, one], "1h", dedupe=True, **kw),
    }


def test_driver_and_ray_paths_return_the_same_rows(stores, monkeypatch):
    for name, query in _cases(stores).items():
        ray_d, drv_d, ray_reads, drv_reads = _both_paths(monkeypatch, query)
        assert ray_d == drv_d, name
        assert ray_d[0] > 0, name  # every case selects rows
        assert ray_reads > 0, name  # 0 forces Ray Data
        assert drv_reads == 0, name  # huge forces the driver


def test_small_point_read_runs_in_the_driver(stores, monkeypatch):
    """Under the default constant a point read of a small store reads
    its part in the driver: no Ray Data read, a materialized result."""
    calls = []
    monkeypatch.setattr(rd, "read_parquet",
                        lambda *a, **k: calls.append(a))
    ds = read.query_range(stores["oneshot"], "1h", metric="turns_total",
                          conv_id=stores["convs"][0], columns=COLS)
    assert calls == []
    assert ds.count() > 0


def test_point_read_of_absent_bucket_reads_no_part(ray_session, tmp_path,
                                                   monkeypatch):
    """A conversation whose bucket file never materialized (more buckets
    than conversations) selects nothing, so no part file is read on
    either path."""
    from vertex_ray.pipelines.rollup_pipeline import run_pipeline
    from vertex_ray.state.checkpoint import read_manifest

    trans = str(tmp_path / "transcripts.parquet")
    _subset(trans, 2)
    out = str(tmp_path / "store")
    run_pipeline(trans, out, n_buckets=64)
    files = read_manifest(os.path.join(out, "blocks"))["files"]
    absent = next(c for c in (f"absent-{i}" for i in range(1000))
                  if f"part-{_bucket(c, 64):05d}.parquet" not in files)
    opened = []
    real_pq = rp.pq.read_table
    monkeypatch.setattr(rp.pq, "read_table",
                        lambda *a, **k: opened.append(a) or real_pq(*a, **k))
    real_rd = rd.read_parquet
    monkeypatch.setattr(rd, "read_parquet",
                        lambda *a, **k: opened.append(a) or real_rd(*a, **k))

    def absent_read() -> int:
        return read.query_range(out, "1h", metric="turns_total",
                                conv_id=absent, columns=COLS).count()

    assert absent_read() == 0
    assert opened == []
    for limit in (RAY, DRIVER):
        monkeypatch.setattr(read, "DRIVER_READ_MAX_BYTES", limit)
        assert absent_read() == 0
    assert opened == []


# the cases of ``_cases`` that decode nothing; every other one reads
# through ``query_range``
METADATA_CASES = ("tsdb_status", "series_metadata", "label_values",
                  "label_cardinality")


def test_driver_read_with_ray_decode_returns_the_same_rows(stores,
                                                           monkeypatch):
    """Memory guard 0 with the read gate huge: every range read is read
    and pruned in the driver and decoded on Ray Data, and returns the
    rows of the other two paths."""
    decodes, reads = [], []
    real_decode = rp.decode_tier_blocks
    monkeypatch.setattr(rp, "decode_tier_blocks",
                        lambda ds: decodes.append(ds) or real_decode(ds))
    real_read = rd.read_parquet

    def counting_read(*args, **kwargs):
        reads.append(args)
        return real_read(*args, **kwargs)

    default = read.DRIVER_DECODE_MAX_POINTS
    for name, query in _cases(stores).items():
        if name in METADATA_CASES:
            continue
        monkeypatch.setattr(rd, "read_parquet", counting_read)
        monkeypatch.setattr(read, "DRIVER_DECODE_MAX_POINTS", default)
        ray_d, drv_d, _, _ = _both_paths(monkeypatch, query)
        monkeypatch.setattr(read, "DRIVER_READ_MAX_BYTES", DRIVER)
        monkeypatch.setattr(read, "DRIVER_DECODE_MAX_POINTS", 0)
        n_decodes, n_reads = len(decodes), len(reads)
        mixed_d = _digest(_rows(query()))
        assert mixed_d == ray_d == drv_d, name
        assert len(decodes) > n_decodes, name  # Ray Data decoded
        assert len(reads) == n_reads, name  # the driver read


# the cases of ``_cases`` that the ``dashboard`` benchmark's scans run
DASHBOARD_SCANS = ("range", "instant", "tsdb_status", "stitched", "promql")


@pytest.fixture(scope="module")
def dashboard_store(ray_session, tmp_path_factory):
    """A one-shot store of every sf0.001 conversation. Its blocks stage
    (about 2.5 MB, like the ``dashboard`` benchmark's) is above 1 MB,
    where a price of read and decode per stage byte sent every scan to
    Ray Data, and below the read gate."""
    from vertex_ray.pipelines.rollup_pipeline import run_pipeline

    out = str(tmp_path_factory.mktemp("dashboard") / "store")
    run_pipeline(ensure_transcripts(0.001, base="/tmp/vertex_ray_testdata"),
                 out, n_buckets=4)
    return out


def test_dashboard_scans_read_in_the_driver(dashboard_store, monkeypatch):
    """Under the default constants the dashboard scans of a store between
    1 MB and the read gate start no Ray Data read, and build no Ray Data
    step or exchange: the promql scan's operators run on the driver's
    table too."""
    from vertex_ray.state.checkpoint import stage_files

    size = sum(os.path.getsize(f) for f in
               stage_files(os.path.join(dashboard_store, "blocks")))
    assert size > 1_000_000
    cases = _cases({"oneshot": dashboard_store, "epochs": None,
                    "convs": [None] * 4})
    calls = []
    real = rd.read_parquet
    monkeypatch.setattr(rd, "read_parquet",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    plans = []
    for verb in ("groupby", "map_batches"):
        real_verb = getattr(rd.Dataset, verb)
        monkeypatch.setattr(
            rd.Dataset, verb,
            lambda self, *a, _v=verb, _f=real_verb, **k:
                plans.append(_v) or _f(self, *a, **k))
    for name in DASHBOARD_SCANS:
        assert _rows(cases[name]()).num_rows > 0, name
        assert calls == [], name
        assert plans == [], name


def test_metadata_verbs_read_only_index_columns(stores, monkeypatch):
    """series_metadata, label_values and label_cardinality read only the
    block index columns, on both paths."""
    cases = _cases(stores)
    cols = []
    real_pq, real_rd = rp.pq.read_table, rd.read_parquet
    monkeypatch.setattr(rp.pq, "read_table", lambda *a, **k: cols.append(
        k.get("columns")) or real_pq(*a, **k))
    monkeypatch.setattr(rd, "read_parquet", lambda *a, **k: cols.append(
        k.get("columns")) or real_rd(*a, **k))
    for limit in (RAY, DRIVER):
        monkeypatch.setattr(read, "DRIVER_READ_MAX_BYTES", limit)
        for name in ("series_metadata", "label_values", "label_cardinality"):
            assert _rows(cases[name]()).num_rows > 0, name
    assert cols and all(c == ["name", "series_key", "block_start",
                              "block_end"] for c in cols)


# (expression, the columns of its result)
EMPTY_SELECTIONS = [
    ('increase(turns_total{role="nobody"}[1h])',
     ["series_key", "window_start", "value"]),
    ('rate(turns_total{role="nobody"}[2h])',
     ["series_key", "window_start", "value"]),
    ('sum by (role) (increase(turns_total{role="nobody"}[1h]))',
     ["role", "window_start", "value"]),
    ('sum by (role, conv_id) (increase(turns_total{role="nobody"}[1h]))',
     ["role", "conv_id", "window_start", "value"]),
    ('sum without (role) (increase(turns_total{role="nobody"}[1h]))',
     ["series_key", "window_start", "value"]),
    ('topk(2, increase(turns_total{role="nobody"}[1h]))',
     ["series_key", "window_start", "value"]),
    ('count_values("n", increase(turns_total{role="nobody"}[1h]))',
     ["n", "window_start", "value"]),
    ('holt_winters(turns_total{role="nobody"}[1h], 0.5, 0.5)',
     ["series_key", "window_start", "value"]),
    ('delta(turns_total{role="nobody"}[1h])',
     ["series_key", "window_start", "value"]),
]


def test_empty_selection_keeps_its_columns(stores, monkeypatch):
    """A matcher that selects no series returns zero rows on both
    executors. The driver's result carries the expression's columns
    (id_cols + window_start + value). Ray Data 2.49 emits a zero-column
    block for a map step whose input block is empty, so a Ray result
    carries those columns or none."""
    for expr, cols in EMPTY_SELECTIONS:
        for limit in (RAY, DRIVER):
            monkeypatch.setattr(read, "DRIVER_READ_MAX_BYTES", limit)
            blocks = ray.get(eval_promql(stores["oneshot"],
                                         expr).to_arrow_refs())
            assert sum(b.num_rows for b in blocks) == 0, expr
            names = [b.schema.names for b in blocks]
            if limit == DRIVER:
                assert names == [cols], expr
            else:
                assert all(n in ([], cols) for n in names), expr


def test_explain_names_the_executor(stores, monkeypatch):
    """Each selector and exchange note of explain_promql ends in the
    executor it runs on: the driver's table under the default constants
    for a small store, Ray Data with the read gate at 0."""
    expr = "sum by (role) (increase(turns_total[1h]))"
    for limit, tag in ((read.DRIVER_READ_MAX_BYTES, "[driver table]"),
                       (RAY, "[Ray Data]")):
        monkeypatch.setattr(read, "DRIVER_READ_MAX_BYTES", limit)
        lines = explain_promql(stores["oneshot"], expr).splitlines()
        notes = [ln for ln in lines if ln.startswith("  ")]
        assert len(notes) == 2, lines
        assert notes[0].startswith("  1. scan 1h tier"), lines
        assert "agg sum by(role)" in notes[1], lines
        assert all(ln.endswith(tag) for ln in notes), lines


def test_promql_operators_build_no_ray_step_of_their_own():
    """promql_lang.py and stages/promql.py build every per-batch step
    and exchange through stages/executor, the one seam that follows the
    input's executor: neither calls ``.map_batches(``, ``.map_groups(``
    or a Ray Data ``.groupby("<column>")`` itself. (Their pandas
    groupbys pass a list, an array or keywords, never one column name
    alone.)"""
    import ast
    import pathlib

    import vertex_ray

    root = pathlib.Path(vertex_ray.__file__).parent
    hits = []
    for rel in ("promql_lang.py", "stages/promql.py"):
        path = root / rel
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            name = node.func.attr
            one_column = (len(node.args) == 1 and not node.keywords
                          and isinstance(node.args[0], ast.Constant)
                          and isinstance(node.args[0].value, str))
            if name in ("map_batches", "map_groups") or (
                    name == "groupby" and one_column):
                hits.append(f"{rel}:{node.lineno} .{name}(")
    assert not hits, hits


def test_stage_operators_agree_on_both_executors(stores):
    """The stages/promql operators no promql case above reaches give the
    same rows over a driver table as over the same rows as a Dataset
    (the Ray Data plan)."""
    import vertex_ray.stages.promql as P

    one = stores["oneshot"]
    t = read.query_range.__wrapped__(one, "1h", metric="turns_total",
                                      columns=COLS + ["last"],
                                      tombstones=False)
    assert isinstance(t, pa.Table) and t.num_rows
    key = ("series_key", "window_start")
    ops = {
        "group_sum": lambda x: P.group_sum(x, ["window_start"], ["count"]),
        "zscore": lambda x: P.zscore_over_time(x, *key, "count", 3),
        "lttb": lambda x: P.lttb_downsample(x, *key, "count", 4),
        "predict_linear": lambda x: P.predict_linear(
            x, *key, "count", 3, 2, 3600),
        "alert_state": lambda x: P.alert_state(x, *key, "count", 2, 2, 3600,
                                               keep_firing_windows=1),
        "burn_rate": lambda x: P.burn_rate(x, *key, "count", "count", 2, 4,
                                           0.5, 1.0),
        "math_op": lambda x: P.math_op(x, "count", "sqrt", scalar=2.0),
        "label_join": lambda x: P.label_join(x, "cr", "-",
                                             ["conv_id", "role"]),
        "limit_ratio": lambda x: P.limit_ratio(x, "series_key", 0.5),
        "offset": lambda x: P.offset_modifier(x, "window_start", 3600),
        "resample": lambda x: P.resample_windows(
            x, 4 * 3600, 3600, {"count": "sum", "last": "last"}),
        "limitk": lambda x: P.limitk(x, "series_key", 3),
        "absent": lambda x: P.absent_over_time(x, tier_seconds=3600),
    }
    for name, op in ops.items():
        drv = op(t)
        assert isinstance(drv, pa.Table), name
        assert _digest(drv) == _digest(_rows(op(rd.from_arrow(t)))), name


def test_sum_by_over_multi_window_ranges(stores, monkeypatch):
    """``sum by`` composes with ``increase`` and ``rate`` over a range of
    more than one window, whose moving sums are float64: a float sum
    adds in one fixed order, so both executors give the same bits. The
    increase sums equal a pandas mirror over the 1h tier rows."""
    import numpy as np

    one = stores["oneshot"]
    base = _rows(read.query_range(one, "1h", metric="turns_total",
                                  columns=COLS)).to_pandas()
    base["role"] = base["series_key"].str.extract(r"role=([^,}]*)")[0]
    base = base.sort_values(["series_key", "window_start"])
    base["inc"] = (base.groupby("series_key")["count"]
                   .rolling(2, min_periods=1).sum()
                   .reset_index(level=0, drop=True))
    want = base.groupby(["role", "window_start"])["inc"].sum()
    exprs = {"increase": "sum by (role) (increase(turns_total[2h]))",
             "rate": "sum by (role) (rate(turns_total[2h]))",
             "user": 'sum by (role) (increase(turns_total{role="user"}[2h]))'}
    for name, expr in exprs.items():
        ray_d, drv_d, _, _ = _both_paths(
            monkeypatch, lambda e=expr: eval_promql(one, e))
        assert ray_d == drv_d and ray_d[0] > 0, name
        got = _rows(eval_promql(one, expr)).to_pandas().set_index(
            ["role", "window_start"])["value"]
        if name == "user":
            assert set(got.index.get_level_values("role")) == {"user"}
        mirror = want.loc[got.index]
        if name == "rate":
            np.testing.assert_allclose(got, mirror / 7200, rtol=1e-12)
        else:
            assert (got == mirror).all(), name


def test_two_input_ops_with_an_empty_side(stores, monkeypatch):
    """An operand that selects no series is an empty vector on both
    executors, Ray Data's schemaless one included: an arithmetic match
    or ``and`` with it gives nothing, ``or`` gives the other side and
    ``unless`` keeps the left side."""
    one = stores["oneshot"]
    none = 'increase(turns_total{role="nobody"}[1h])'
    user = 'increase(turns_total{role="user"}[1h])'
    by_conv = "sum by (conv_id) (increase(turns_total[1h]))"
    n_user = _digest(_rows(eval_promql(one, user)))[0]
    cases = {f"{none} / on(conv_id) {by_conv}": 0,
             f"{by_conv} / on(conv_id) sum by (conv_id) ({none})": 0,
             f"{none} or {user}": n_user,
             f"{user} or {none}": n_user,
             f"{none} or {none}": 0,
             f"{user} and {none}": 0,
             f"{none} and {user}": 0,
             f"{user} unless {none}": n_user,
             f"{none} unless {user}": 0}
    for expr, n in cases.items():
        ray_d, drv_d, _, _ = _both_paths(
            monkeypatch, lambda e=expr: eval_promql(one, e))
        assert ray_d[0] == n and drv_d[0] == n, expr
        if n:
            assert ray_d == drv_d, expr
