"""Re-measure the prices the ingest gate comes from
(``vertex_ray/pipelines/rollup_pipeline.py``: ``DRIVER_INGEST_MAX_BYTES``)
on one transcript input, and print one JSON line:

- ``ray_oneshot_fixed_cpu_s``: process-tree CPU of ``run_pipeline`` as
  a Ray execution minus the same run in the driver (Ray's fixed cost of
  one execution);
- ``ray_epoch_fixed_cpu_s``: the same for a daily-epoch
  ``run_pipeline_epochs``, per epoch;
- ``driver_cpu_ns_per_byte``: CPU of the driver's ``run_pipeline`` per
  input byte;
- ``driver_rss_per_byte``: peak RSS of the driver's ``run_pipeline``
  above the process's resting RSS, per input byte, in a fresh process
  with no Ray session;

plus the gate they give at 1 CPU, where a positive fixed cost means
the driver always costs less CPU: ``driver_max_bytes`` =
``--rss-budget-mb`` (512 MiB by default) over the RSS price. The CPU
price is what a rule for wider sessions would weigh against Ray's
fixed cost. Each CPU figure is the median of ``--repeats`` runs,
executors alternating; every store is written into a fresh temporary
directory.

    python scripts/ingest_prices.py <transcripts file or dir> [--repeats 3]

Run it from the repository root (Ray workers import ``vertex_ray`` from
the working directory). Like ``perfbench/run.py`` it starts its own Ray
session at 1 CPU with the process tree pinned to 2 CPUs, so the figures
compare with the benchmark's.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

# a fresh process: rest RSS after the imports, then peak RSS of one
# driver ingest, both in kB
RSS_PROBE = """
import resource, sys, tempfile
sys.path.insert(0, {repo!r})
import vertex_ray.pipelines.rollup_pipeline as rp
rp.DRIVER_INGEST_MAX_BYTES = 2**62
rp.session_cpus = lambda: 1  # the gate's 1-CPU test; no session here
with open("/proc/self/status") as f:
    rest = next(int(ln.split()[1]) for ln in f if ln.startswith("VmRSS:"))
with tempfile.TemporaryDirectory(dir={tmp!r}) as out:
    rp.run_pipeline({path!r}, out)
print(rest, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def force(executor: str) -> None:
    """Patch the gate so every ingest runs on ``executor``."""
    import vertex_ray.pipelines.rollup_pipeline as rp

    rp.DRIVER_INGEST_MAX_BYTES = 2**62 if executor == "driver" else 0


def timed_runs(ingest, repeats: int, tmp: str) -> dict[str, float]:
    """Median process-tree CPU of ``ingest(out_dir)`` per executor."""
    from perfbench.proctree import CpuClock

    runs = {"ray": [], "driver": []}
    for i in range(repeats + 1):
        for executor in runs:
            force(executor)
            out = tempfile.mkdtemp(dir=tmp)
            clock = CpuClock()
            ingest(out)
            cpu = clock.stop()
            shutil.rmtree(out)
            if i:  # the first round starts Ray's workers
                runs[executor].append(cpu)
    return {k: statistics.median(v) for k, v in runs.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("transcripts", help="transcript parquet file or dir")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--rss-budget-mb", type=float, default=512.0,
                    help="driver RSS above rest the gate may spend")
    args = ap.parse_args(argv)
    path = os.path.abspath(args.transcripts)

    import ray

    from perfbench.run import machine_cpus, start_ray
    from vertex_ray.pipelines.epoch_pipeline import epoch_dirs, run_pipeline_epochs
    from vertex_ray.pipelines.rollup_pipeline import input_bytes, run_pipeline

    nbytes, nproc = input_bytes(path), machine_cpus()
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
    temp = tempfile.mkdtemp(prefix="ip")
    try:
        probe = subprocess.run(
            [sys.executable, "-c",
             RSS_PROBE.format(repo=REPO, tmp=temp, path=path)],
            check=True, capture_output=True, text=True, cwd=REPO)
        rest_kb, peak_kb = map(int, probe.stdout.split()[-2:])
        start_ray(os.path.join(temp, "ray"), 1)
        oneshot = timed_runs(lambda out: run_pipeline(path, out),
                             args.repeats, temp)
        n_epochs = []

        def epochs(out):
            run_pipeline_epochs(path, out, epoch_seconds=86_400)
            n_epochs.append(len(epoch_dirs(out)))

        daily = timed_runs(epochs, args.repeats, temp)
    finally:
        ray.shutdown()
        shutil.rmtree(temp, ignore_errors=True)
    oneshot_fixed = oneshot["ray"] - oneshot["driver"]
    epoch_fixed = (daily["ray"] - daily["driver"]) / n_epochs[0]
    ns_per_byte = oneshot["driver"] / nbytes * 1e9
    rss_per_byte = (peak_kb - rest_kb) * 1024 / nbytes
    print(json.dumps({
        "input": path, "input_bytes": nbytes, "epochs": n_epochs[0],
        "repeats": args.repeats, "nproc": nproc,
        "oneshot_cpu_s": {k: round(v, 3) for k, v in oneshot.items()},
        "epochs_cpu_s": {k: round(v, 3) for k, v in daily.items()},
        "ray_oneshot_fixed_cpu_s": round(oneshot_fixed, 3),
        "ray_epoch_fixed_cpu_s": round(epoch_fixed, 3),
        "driver_cpu_ns_per_byte": round(ns_per_byte, 1),
        "driver_rest_rss_mb": round(rest_kb / 1024, 1),
        "driver_peak_rss_mb": round(peak_kb / 1024, 1),
        "driver_rss_per_byte": round(rss_per_byte, 1),
        "driver_max_bytes": int(args.rss_budget_mb * 2**20 / rss_per_byte),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
