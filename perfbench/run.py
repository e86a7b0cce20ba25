"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 10 --trace 0

Run from the repository root. The command generates its inputs from
``--seed``, starts Ray on the CPUs ``nproc`` reports, sets up, warms up, runs
the workload's timed rounds for ``--seconds``, checks every output, stops
Ray and deletes everything it wrote except the traced run's span file.
With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics and the spans go to
``.perfbench_out/``. Exit code 0 means a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
N_TURNS = 200_000
REF_SAMPLES = 3  # reference runs before each round and after the last
TIME_LIMIT_S = 170
OBJECT_STORE_BYTES = 768 * 2**20
# Ray's socket paths must stay under the AF_UNIX limit (107 bytes); its
# session directory and socket name add 64 characters below the temp dir
RAY_TEMP_MAX_CHARS = 43
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` lists in ``section``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


class Ops:
    """Operations attempted and failed. An operation fails when the engine
    call raises or when its output check fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, what, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception as e:  # noqa: BLE001 - every failure is counted
            self._fail(what, e)
            return None

    def check(self, what, fn) -> None:
        try:
            fn()
        except Exception as e:  # noqa: BLE001
            self._fail(what, e)

    def _fail(self, what, e):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{what}: {type(e).__name__}: {e}")


def machine_cpus() -> int:
    """The CPU count ``nproc`` reports: OMP_NUM_THREADS when it is set,
    capped by the CPUs this process may run on."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "")
    return max(1, min(n, int(omp))) if omp.isdigit() else n


def start_ray(temp: str, cpus: int) -> None:
    """Start a private Ray instance whose files go under ``temp`` (when
    that path is short enough for Ray's sockets; else Ray's default)."""
    import ray

    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    kwargs = {}
    if len(temp) <= RAY_TEMP_MAX_CHARS:
        kwargs["_temp_dir"] = temp
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES, **kwargs)
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)


class Ctx:
    def __init__(self, work, seed, seconds, n_turns, cpus):
        self.work, self.seed, self.seconds = work, seed, seconds
        self.n_turns, self.cpus = n_turns, cpus


def run_rounds(wl, ops, seconds: float) -> int:
    """Run the workload's rounds for ``seconds``: at least ``min_rounds``,
    then another only while the mean round so far still fits. The
    reference work is sampled before each round and after the last."""
    from perfbench import reference

    reference.work()  # the first call pays first-touch costs
    t0 = time.perf_counter()
    i = 0
    while True:
        wl.ref_cpu.append(reference.sample(REF_SAMPLES))
        elapsed = time.perf_counter() - t0
        if i >= wl.min_rounds and elapsed + elapsed / i > seconds:
            return i
        wl.round(i, ops)
        i += 1


def measure(wl, ops, seconds: float) -> tuple[dict, dict]:
    """Untraced run: set up, warm up, timed rounds -> end-to-end metrics.
    Gated times are CPU seconds of the process tree at the reference
    speed (README "CPU time"); the raw CPU and wall figures go to the
    run details."""
    from perfbench import reference
    from perfbench.proctree import CpuClock

    setups, setup_walls = [], []
    for _ in range(wl.setup_repeats):
        clock = CpuClock()
        t0 = time.perf_counter()
        wl.setup()
        setup_walls.append(time.perf_counter() - t0)
        setups.append(clock.stop())
    clock = CpuClock()
    t0 = time.perf_counter()
    wl.warm()
    warm_wall = time.perf_counter() - t0
    warm = clock.stop()
    rounds = run_rounds(wl, ops, seconds)
    # a round's speed is that of the reference samples on either side of it
    g = wl.ref_cpu
    speeds = [reference.speed(before + after) for before, after in zip(g, g[1:])]
    speed = reference.speed([x for samples in g for x in samples])
    setup_cpu = warm + statistics.median(setups)
    m = {"setup_s": setup_cpu / speed}
    info = {"rounds": rounds, "speed": speed, "round_speeds": speeds, "ref_cpu_s": g,
            "setup_cpu_s": setup_cpu, "setup_wall_s": warm_wall + statistics.median(setup_walls)}
    if ops.attempted > ops.failed:
        m.update(wl.end_to_end(speeds))
        info.update(wl.info())
    m["ok_ops_ratio"] = (ops.attempted - ops.failed) / max(1, ops.attempted)
    return m, info


def traced(wl, ops, seconds: float, run_id: str, spans_path: str, names) -> dict:
    """Traced run: the same set-up and timed rounds (for the untraced
    operation wall), then the in-process replay of the layers the
    workload's operation runs, once without and once with spans, then
    the per-layer counts of the workload's own outputs. Layers off the
    workload's path report 0."""
    from perfbench.proctree import RssSampler
    from perfbench.tracer import Tracer

    sampler = RssSampler()
    sampler.start()
    tr = Tracer(run_id)
    try:
        with tr.span("setup"):
            wl.setup()
            wl.warm()
        with tr.span(f"op.{wl.name}"):
            run_rounds(wl, ops, seconds)
        # the untraced replay runs first, so first-call costs land on it
        # and the overhead below errs low rather than high
        t0 = time.perf_counter()
        wl.replay_layers(Tracer(run_id, enabled=False))
        t1 = time.perf_counter()
        with tr.span("replay"):
            counts = wl.replay_layers(tr)
        t2 = time.perf_counter()
        m = {k: 0 for k in names}
        m.update(counts)
        m.update(wl.layers())
        selfs = tr.self_times()
        for span, s in selfs.items():
            if f"{span}_s" in m:
                m[f"{span}_s"] = s
        m["op.wall_s"] = wl.op_wall()
        m["ray.overhead_s"] = m["op.wall_s"] - wl.op_layer_s(selfs)
        m["trace.overhead_s"] = (t2 - t1) - (t1 - t0)
    finally:
        sampler.halt.set()
        sampler.join()
    m["proc.peak_rss_mb"] = sampler.peak_kb / 1024
    m["host.cpus"] = wl.ctx.cpus
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tr.dump(spans_path)
    return m


def on_time_limit(signum, frame):
    raise TimeoutError(f"run exceeded {TIME_LIMIT_S} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--turns", type=int, default=N_TURNS)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "vertex_ray")):
        print(f"perfbench: no vertex_ray package under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, on_time_limit)
    signal.alarm(TIME_LIMIT_S)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = os.path.join(WORK_ROOT, run_id)
    ray_temp = os.path.join(WORK_ROOT, f"r{os.getpid()}")
    os.makedirs(work)
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    os.makedirs(os.environ["TMPDIR"])
    cpus = machine_cpus()
    # the whole process tree (Ray included) runs on those CPUs plus one for
    # the driver and Ray's control plane, so that the reference work samples
    # the cores the workload runs on rather than whichever the VM has free
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:cpus + 1])
    import ray

    try:
        start_ray(ray_temp, cpus)
        ctx = Ctx(work, args.seed, args.seconds, args.turns, cpus)
        wl = WORKLOADS[args.workload](ctx)
        ops = Ops()
        if args.trace:
            spans = os.path.join(ROOT, ".perfbench_out", f"spans-{run_id}.json")
            units = metric_units("per_layer")
            metrics = traced(wl, ops, args.seconds, run_id, spans, units)
            info = {"spans": os.path.relpath(spans, ROOT)}
        else:
            units = metric_units("end_to_end")
            metrics, info = measure(wl, ops, args.seconds)
        missing = [k for k in units if k not in metrics]
        if missing:
            raise RuntimeError(f"no value for {missing}: {ops.errors}")
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        signal.alarm(0)
        if ray.is_initialized():
            ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_temp, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    info.update(workload=args.workload, seed=args.seed, cpus=cpus, errors=ops.errors)
    print(json.dumps(info))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
