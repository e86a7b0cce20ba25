"""The four workloads. Each one drives the public API of ``vertex_ray``:

- ``oneshot``   rollup_pipeline.run_pipeline into a fresh store, then
                retention.apply_retention (1-day horizon on 1m and 5m);
- ``dashboard`` one closed-loop client sending seeded point reads (of
                conversations drawn by their turn count) and full-metric
                scans against a store built in set-up;
- ``append``    epoch_pipeline.run_pipeline_epochs with daily epochs;
- ``scrape``    scrape_pipeline.scrape_to_store(kind="counter") over the
                transcripts rendered as exposition lines in set-up.

A workload has ``setup`` (repeated, timed into ``setup_s``), ``warm``
(worker and cache warm-up, also counted in ``setup_s``), ``round`` (one
unit of timed work; each engine call in it is one operation, and an
operation fails if it raises or its output check fails), ``end_to_end``,
``replay_layers`` (the traced run's in-process replay of the layers its
operation runs) and ``layers`` (per-layer counts of its own outputs).
"""

from __future__ import annotations

import os
import re
import shutil
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from vertex_ray.pipelines.epoch_pipeline import epoch_dirs, run_pipeline_epochs
from vertex_ray.pipelines.rollup_pipeline import run_pipeline
from vertex_ray.pipelines.scrape_pipeline import scrape_to_store
from vertex_ray.promql_lang import eval_promql
from vertex_ray.read import instant_query, query_range, query_range_stitched, tsdb_status
from vertex_ray.schema import TIER_SECONDS
from vertex_ray.stages.encode import decode_blocks_batch
from vertex_ray.stages.retention import apply_retention, retention_cutoffs
from vertex_ray.state.checkpoint import stage_files

from perfbench import inputs, replay
from perfbench.inputs import Expect
from perfbench.proctree import CpuClock

RANGE_COLS = ["series_key", "window_start", "count"]
AGG_COLS = ["name", "tier", "count", "filled", "stale"]
WARM_TURNS = 3000


class CheckFailed(Exception):
    pass


def timed(ops, what: str, fn):
    """Call ``fn`` as one operation. Returns its result (None if it
    failed), its wall seconds and the CPU seconds the process tree used."""
    clock = CpuClock()
    t0 = time.perf_counter()
    res = ops.call(what, fn)
    return res, time.perf_counter() - t0, clock.stop()


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def fetch(ds: "rd.Dataset") -> pa.Table:
    """Materialize a Dataset's rows on the client."""
    parts = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(parts) if parts else pa.table({})


def col_sum(t: pa.Table, name: str) -> float:
    if t.num_rows == 0:
        return 0
    return pc.sum(t[name]).as_py() or 0


def _str(col) -> pa.ChunkedArray:
    return col.cast(pa.string()) if pa.types.is_dictionary(col.type) else col


def agg_count(agg: pa.Table, name: str, tier: str) -> int:
    """Σ count of the real (not gap-filled, not stale) points of one
    metric on one tier of an agg stage."""
    m = pc.and_(pc.equal(_str(agg["name"]), name), pc.equal(_str(agg["tier"]), tier))
    m = pc.and_(m, pc.and_(pc.invert(agg["filled"]), pc.invert(agg["stale"])))
    return int(col_sum(agg.filter(m), "count"))


def check_counts(agg: pa.Table, ex: Expect, where: str) -> None:
    for tier in ("1m", "1d"):
        got = agg_count(agg, "turns_total", tier)
        check(got == ex.n_turns, f"{where}: Σcount turns_total {tier} {got} != {ex.n_turns}")
        got = agg_count(agg, "tool_invocations_total", tier)
        check(got == ex.tool_turns,
              f"{where}: Σcount tool_invocations_total {tier} {got} != {ex.tool_turns}")


class Workload:
    name = ""
    setup_repeats = 3
    min_rounds = 2
    input_share = 1.0  # of --turns

    def __init__(self, ctx):
        self.ctx = ctx
        self.work = ctx.work
        self.walls: list[float] = []   # wall seconds per timed operation
        self.cpu: list[tuple[int, float]] = []  # (round, CPU seconds) per timed operation
        self.ref_cpu: list[list[float]] = []     # reference samples, before each round
        self.bpp: list[float] = []     # bytes_per_point per round

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    def fresh(self, *parts) -> str:
        p = self.path(*parts)
        shutil.rmtree(p, ignore_errors=True)
        return p

    def setup(self) -> None:
        self.trans, self.table = inputs.write_transcripts(
            max(WARM_TURNS, int(self.ctx.n_turns * self.input_share)), self.ctx.seed,
            self.fresh("input"))
        self.ex = inputs.expectations(self.table)

    def warm(self) -> None:
        """Run the operation once, untimed, on a tiny one-day input, so that
        its first-call costs (starting Ray's workers and Ray Data's helper
        actors, imports in the workers) stay out of the timed rounds."""
        tiny = inputs.write_transcripts(WARM_TURNS, self.ctx.seed, self.fresh("warm_input"),
                                        days=1)
        self.warm_op(*tiny)

    def warm_op(self, trans: str, table: pa.Table) -> None:
        raise NotImplementedError

    def round(self, i: int, ops) -> None:
        raise NotImplementedError

    def items(self) -> int:
        """Items one operation processes (turns, samples)."""
        return self.ex.n_turns

    def end_to_end(self, speeds: list[float]) -> dict:
        """``items_per_ref_cpu_s``: items over the median CPU seconds of
        one operation, each divided by the speed of its round
        (``speeds[round]``); ``bytes_per_point`` of the first round's
        output."""
        cpu = [c / speeds[i] for i, c in self.cpu]
        return {"items_per_ref_cpu_s": self.items() / statistics.median(cpu),
                "bytes_per_point": self.bpp[0]}

    def replay_layers(self, tr) -> dict:
        """Replay the layers the operation runs under ``tr``'s spans;
        returns their per-layer counts."""
        raise NotImplementedError

    def layers(self) -> dict:
        """Per-layer counts read from the workload's own outputs."""
        return {}

    # the replayed spans inside one operation, and how many operations
    # one replay stands for
    op_layers = replay.WRITE_LAYERS
    ops_per_replay = 1

    def op_wall(self) -> float:
        return statistics.median(self.walls)

    def op_layer_s(self, self_times: dict) -> float:
        """Replayed layer seconds inside one operation (``op_wall``)."""
        return sum(self_times.get(s, 0.0) for s in self.op_layers) / self.ops_per_replay

    def info(self) -> dict:
        """Run details: wall-clock throughput and median latency of one
        operation, and every operation's wall and CPU seconds."""
        cpu = [c for _, c in self.cpu]
        return {"turns": self.ex.n_turns,
                "items_per_cpu_s": self.items() / statistics.median(cpu),
                "items_per_s": self.items() / statistics.median(self.walls),
                "op_p50_ms": 1000 * statistics.median(self.walls),
                "op_walls_s": self.walls, "op_cpu_s": cpu}


def sink_counts(agg_files, block_files) -> dict:
    agg = inputs.read_files(agg_files, ["filled", "stale"])
    return {"sink.agg_rows": agg.num_rows, "sink.fill_rows": replay.fill_rows(agg),
            "sink.block_bytes": sum(os.path.getsize(f) for f in block_files)}


class OneShot(Workload):
    name = "oneshot"

    def __init__(self, ctx):
        super().__init__(ctx)
        self.retention_walls: list[float] = []

    def round(self, i, ops):
        store, ret = self.fresh("store"), self.fresh("retained")
        ingest, wall, cpu = timed(ops, "ingest", lambda: run_pipeline(self.trans, store))
        if ingest is None:
            return
        self.walls.append(wall)
        self.cpu.append((i, cpu))
        ops.check("ingest", lambda: self.check_store(store))
        if self.retention_walls:
            return  # retention is not gated: once per run is enough
        end = ingest["blocks"]["lineage"]["global_end_s"]
        ok, wall, _ = timed(ops, "retention", lambda: apply_retention(
            store, ret, replay.RETENTION_HORIZONS, now_s=end,
            tier_seconds=dict(TIER_SECONDS)))
        if ok is not None:
            self.retention_walls.append(wall)
            ops.check("retention", lambda: self.check_retention(store, ret, end))

    def warm_op(self, trans, table):
        run_pipeline(trans, self.fresh("warm_store"))

    def check_store(self, store):
        b, n = inputs.block_payload(inputs.read_files(stage_files(os.path.join(store, "blocks"))))
        check(n > 0, "oneshot: empty blocks stage")
        self.bpp.append(b / n)
        check(self.bpp[-1] == self.bpp[0],
              f"oneshot: bytes_per_point {self.bpp[-1]} != first round's {self.bpp[0]}")
        check_counts(inputs.read_files(stage_files(os.path.join(store, "agg")), AGG_COLS),
                     self.ex, "oneshot agg")

    def check_retention(self, store, ret, end):
        cols = ["tier", "block_start", "block_end"]
        src = inputs.read_files(stage_files(os.path.join(store, "blocks")), cols)
        out = inputs.read_files(stage_files(os.path.join(ret, "blocks")), cols)
        cut = retention_cutoffs(replay.RETENTION_HORIZONS, end, dict(TIER_SECONDS))
        for tier in ("1m", "5m"):
            t = out.filter(pc.equal(out["tier"], tier))
            check(t.num_rows == 0 or pc.min(t["block_start"]).as_py() >= cut[tier],
                  f"retention: {tier} keeps points before the cutoff")
            keep = src.filter(pc.and_(pc.equal(src["tier"], tier),
                                      pc.greater_equal(src["block_end"], cut[tier])))
            check(t.num_rows == keep.num_rows,
                  f"retention: {tier} rows {t.num_rows} != {keep.num_rows} live blocks")
        for tier in ("1h", "1d"):
            n_src = pc.sum(pc.equal(src["tier"], tier)).as_py()
            n_out = pc.sum(pc.equal(out["tier"], tier)).as_py()
            check(n_src == n_out, f"retention: {tier} rows changed {n_src} -> {n_out}")

    def info(self):
        info = super().info()
        if self.retention_walls:
            info["retention_ms"] = 1000 * self.retention_walls[0]
        return info

    def replay_layers(self, tr):
        blocks, counts = replay.replay_ingest(self.trans, self.fresh("replay"), tr)
        counts["retention.rows_rewritten"] = replay.replay_retention(blocks, self.ex.end_s, tr)
        return counts

    def layers(self):
        store = self.path("store")
        return sink_counts(stage_files(os.path.join(store, "agg")),
                           stage_files(os.path.join(store, "blocks")))


class Append(Workload):
    name = "append"
    min_rounds = 1

    def round(self, i, ops):
        store = self.fresh("store")
        manifests, wall, cpu = timed(ops, "epochs", lambda: run_pipeline_epochs(
            self.trans, store, epoch_seconds=86_400))
        if manifests is None:
            return
        self.walls.append(wall)
        self.cpu.append((i, cpu))
        ops.check("epochs", lambda: self.check_store(store))

    def warm_op(self, trans, table):
        run_pipeline_epochs(trans, self.fresh("warm_store"), epoch_seconds=86_400)

    def stage(self, store, stage):
        return [f for e in epoch_dirs(store) for f in stage_files(os.path.join(e, stage))]

    def check_store(self, store):
        b, n = inputs.block_payload(inputs.read_files(self.stage(store, "blocks")))
        check(n > 0, "append: empty blocks")
        self.bpp.append(b / n)
        check(self.bpp[-1] == self.bpp[0],
              f"append: bytes_per_point {self.bpp[-1]} != first round's {self.bpp[0]}")
        check_counts(inputs.read_files(self.stage(store, "agg"), AGG_COLS), self.ex, "append agg")

    def replay_layers(self, tr):
        return replay.replay_epochs(self.trans, self.fresh("replay"), tr)

    def layers(self):
        store = self.path("store")
        return {"epoch.count": len(epoch_dirs(store)),
                **sink_counts(self.stage(store, "agg"), self.stage(store, "blocks"))}


class Scrape(Workload):
    name = "scrape"
    min_rounds = 3
    op_layers = ("prometheus_text.decode",)

    def setup(self):
        super().setup()
        self.lines, self.fixture = self.write_fixture(self.table, "fixture")
        self.want = inputs.counter_increases(self.table)

    def write_fixture(self, table, name) -> tuple[pa.Table, str]:
        lines = inputs.render_exposition(table)
        fix = self.fresh(name)
        os.makedirs(fix)
        pq.write_table(lines, os.path.join(fix, "part-00000.parquet"))
        return lines, fix

    @staticmethod
    def scrape(fixture):
        return scrape_to_store(
            rd.read_parquet(fixture), metric="turns_total", kind="counter").materialize()

    def warm_op(self, trans, table):
        fetch(self.scrape(self.write_fixture(table, "warm_fixture")[1]))

    def round(self, i, ops):
        ds, wall, cpu = timed(ops, "scrape", lambda: self.scrape(self.fixture))
        if ds is None:
            return
        self.walls.append(wall)
        self.cpu.append((i, cpu))
        ops.check("scrape", lambda: self.check_blocks(fetch(ds)))

    def check_blocks(self, blocks):
        self.blocks = blocks
        b, n = inputs.block_payload(blocks)
        check(n > 0, "scrape: no block rows")
        self.bpp.append(b / n)
        check(self.bpp[-1] == self.bpp[0],
              f"scrape: bytes_per_point {self.bpp[-1]} != first round's {self.bpp[0]}")
        pts = pa.concat_tables(
            decode_blocks_batch(blocks.slice(lo, replay.DECODE_BATCH_ROWS))
            .select(["series_key", "sum"])
            for lo in range(0, blocks.num_rows, replay.DECODE_BATCH_ROWS))
        got = pts.group_by("series_key").aggregate([("sum", "sum")])
        pat = re.compile(r"conv=([^,}]*),role=([^,}]*)")
        have = {}
        for k, v in zip(got["series_key"].to_pylist(), got["sum_sum"].to_pylist()):
            mt = pat.search(k)
            check(mt is not None, f"scrape: unparsable series key {k!r}")
            have[mt.groups()] = v
        check(len(have) == len(self.want),
              f"scrape: {len(have)} series, expected {len(self.want)}")
        bad = [k for k, v in self.want.items() if have.get(k) != v]
        check(not bad, f"scrape: {len(bad)} series' deltas != last - first, e.g. {bad[:1]}")

    def items(self):
        return self.lines.num_rows

    def replay_layers(self, tr):
        replay.replay_scrape_parse(self.lines, tr)
        return {}

    def layers(self):
        return {"scrape.samples_in": self.lines.num_rows,
                "scrape.block_rows_out": self.blocks.num_rows}


class Dashboard(Workload):
    """Closed loop, one client. A round is 15 queries in seeded order:
    10 point reads (``query_range`` with ``conv_id`` of one conversation
    drawn by its turn count, tier cycling 1m/1h/1d) and one of each of
    the 5 scan verbs. The verbs are ``bench.py``'s read legs. The
    gated figure weighs the two classes equally whatever their counts,
    so the counts only set how many samples each class gets."""

    name = "dashboard"
    min_rounds = 2
    input_share = 0.5  # two rounds and the store build fit about 35 s
    op_layers = ("encode.decode",)
    POINTS = 10
    LOOKBACK = 6 * 3600
    PROMQL = "sum by (role) (increase(turns_total[1h]))"

    def warm(self):
        """Build the store the client reads (this also starts and warms
        the Ray workers), then send one point read and one scan."""
        self.store = self.fresh("store")
        run_pipeline(self.trans, self.store)
        self.blocks = inputs.read_files(stage_files(os.path.join(self.store, "blocks")))
        b, n = inputs.block_payload(self.blocks)
        self.bpp = [b / n]
        self.at = self.ex.end_s
        self.boundary = self.at // 86_400 * 86_400
        self.want_instant = self.instant_expect()
        rng = np.random.default_rng(self.ctx.seed)
        self.pick = inputs.traffic_picker(self.ex.conv_turns, rng)
        self.rng = rng
        self.lat: list[tuple[str, float, float, int]] = []  # (class, wall s, CPU s, round)
        self.seen: dict = {}
        self.executed: list[tuple] = []
        for q in (("point", "1h", self.pick()), ("scan", "range_1h", None)):
            fetch(self.dataset(q))

    def instant_expect(self) -> tuple[int, int]:
        """(series, Σ count) of the 1h instant vector at ``at``: per
        (conv, role), its newest 1h window inside the lookback."""
        df = self.table.select(["conv_id", "role"]).to_pandas()
        df["w"] = self.table["ts"].cast(pa.int64()).to_numpy() // 1_000_000 // 3600 * 3600
        df = df[(df["w"] > self.at - self.LOOKBACK) & (df["w"] <= self.at)]
        per = df.groupby(["conv_id", "role", "w"]).size().reset_index(name="n")
        newest = per.sort_values("w").groupby(["conv_id", "role"]).tail(1)
        return len(newest), int(newest["n"].sum())

    def queries(self):
        """One round's queries in seeded order."""
        qs = [("point", ("1m", "1h", "1d")[j % 3], self.pick()) for j in range(self.POINTS)]
        qs += [("scan", v, None) for v in ("range_1h", "instant_1h", "tsdb_status_1m",
                                           "stitched_1d_1h", "promql")]
        return [qs[j] for j in self.rng.permutation(len(qs))]

    def dataset(self, q):
        kind, arg, conv = q
        s = self.store
        if kind == "point":
            return query_range(s, arg, metric="turns_total", conv_id=conv, columns=RANGE_COLS)
        return {
            "range_1h": lambda: query_range(s, "1h", metric="turns_total", columns=RANGE_COLS),
            "instant_1h": lambda: instant_query(s, "1h", at=self.at, lookback=self.LOOKBACK,
                                                metric="turns_total", columns=RANGE_COLS),
            "tsdb_status_1m": lambda: tsdb_status(s, "1m"),
            "stitched_1d_1h": lambda: query_range_stitched(
                s, "1d", "1h", self.boundary, metric="turns_total", columns=RANGE_COLS),
            "promql": lambda: eval_promql(s, self.PROMQL),
        }[arg]()

    def check_result(self, q, t):
        kind, arg, conv = q
        if kind == "point":
            got = col_sum(t, "count")
            check(got == self.ex.conv_turns[conv], f"point {arg} {conv}: Σcount {got} != "
                  f"{self.ex.conv_turns[conv]} turns")
        elif arg in ("range_1h", "stitched_1d_1h"):
            got = col_sum(t, "count")
            check(got == self.ex.n_turns, f"{arg}: Σcount {got} != {self.ex.n_turns}")
        elif arg == "instant_1h":
            got = (t.num_rows, col_sum(t, "count"))
            check(got == self.want_instant, f"instant_1h: {got} != {self.want_instant}")
        elif arg == "tsdb_status_1m":
            row = t.filter(pc.equal(t["name"], "turns_total")).to_pylist()
            check(len(row) == 1 and row[0]["n_series"] == self.ex.n_role_series,
                  f"tsdb_status: turns_total series {row} != {self.ex.n_role_series}")
        else:
            check(t.num_rows > 0, "promql: empty result")
        digest = (t.num_rows, inputs.table_digest(t))
        check(self.seen.setdefault(q, digest) == digest,
              f"{q}: repeat returned {digest}, first {self.seen[q]}")

    def round(self, i, ops):
        for q in self.queries():
            t, wall, cpu = timed(ops, q[0], lambda: fetch(self.dataset(q)))
            if t is None:
                continue
            self.lat.append((q[0], wall, cpu, i))
            self.executed.append((q, t.num_rows))
            ops.check(q[0], lambda: self.check_result(q, t))

    def by_class(self, value) -> dict:
        """``value(record)`` of each query's ``lat`` record, per class."""
        return {c: [value(x) for x in self.lat if x[0] == c] for c in ("point", "scan")}

    @staticmethod
    def mix_rate(by_class: dict) -> float:
        """The geometric mean of the point and the scan class's queries
        per second, i.e. queries per second of a mix in which each class
        takes half the time. A change of either class's cost by a factor
        f moves it by sqrt(f)."""
        return statistics.geometric_mean([len(v) / sum(v) for v in by_class.values()])

    def end_to_end(self, speeds):
        return {"items_per_ref_cpu_s": self.mix_rate(self.by_class(lambda x: x[2] / speeds[x[3]])),
                "bytes_per_point": self.bpp[0]}

    def info(self):
        walls = self.by_class(lambda x: x[1])
        return {"turns": self.ex.n_turns, "items_per_s": self.mix_rate(walls),
                "items_per_cpu_s": self.mix_rate(self.by_class(lambda x: x[2])),
                "op_p50_ms": 1000 * statistics.median(x[1] for x in self.lat),
                **{f"{c}_p50_ms": 1000 * statistics.median(v) for c, v in walls.items() if v}}

    def op_wall(self):
        return statistics.fmean(x[1] for x in self.lat)

    def selection(self, q) -> pa.Table:
        """The block rows a query's selector matches (what it decodes)."""
        kind, arg, conv = q
        b = self.blocks
        name = pc.equal(b["name"], "turns_total")
        tier = lambda t: pc.equal(b["tier"], t)  # noqa: E731
        if kind == "point":
            m = pc.and_(pc.and_(name, tier(arg)), pc.match_substring_regex(
                b["series_key"], rf"\{{conv_id={re.escape(conv)}[,}}]"))
        elif arg in ("range_1h", "promql"):
            m = pc.and_(name, tier("1h"))
        elif arg == "instant_1h":
            m = pc.and_(pc.and_(name, tier("1h")), pc.and_(
                pc.greater_equal(b["block_end"], self.at - self.LOOKBACK + 1),
                pc.less_equal(b["block_start"], self.at)))
        elif arg == "tsdb_status_1m":
            m = tier("1m")
        else:
            m = pc.and_(name, pc.or_(
                pc.and_(tier("1d"), pc.less_equal(b["block_start"], self.boundary - 1)),
                pc.and_(tier("1h"), pc.greater_equal(b["block_end"], self.boundary))))
        return b.filter(m)

    def replay_layers(self, tr):
        """Decode each executed query's selected block rows."""
        sel_blocks = points = rows = 0
        for q, n_rows in self.executed:
            sel = self.selection(q)
            sel_blocks += sel.num_rows
            rows += n_rows
            if q[1] == "tsdb_status_1m":
                continue  # metadata only, decodes nothing
            points += int(col_sum(sel, "n_points"))
            replay.replay_decode(sel, tr)
        self.ops_per_replay = len(self.executed)
        return {"read.blocks_selected": sel_blocks, "read.points_decoded": points,
                "read.rows_returned": rows,
                "read.useful_ratio": rows / points if points else 0.0}


WORKLOADS = {w.name: w for w in (OneShot, Dashboard, Append, Scrape)}
