"""Re-measure the prices the ingest gates come from
(``vertex_ray/pipelines/rollup_pipeline.py``: ``DRIVER_INGEST_MAX_BYTES``
for transcripts, ``DRIVER_SCRAPE_MAX_BYTES`` for exposition lines) on
one transcript input, and print one JSON line:

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

With ``--scrape`` it prices the scrape ingest instead, over the
transcripts rendered as exposition lines (one cumulative counter line
per turn, ``perfbench.inputs.render_exposition``: the ``scrape``
workload's input) and written as one parquet file, whose bytes are the
input bytes: ``ray_scrape_fixed_cpu_s`` per ``scrape_to_store`` of
``rd.read_parquet(<lines>)``, and the driver's CPU and RSS prices and
byte bound as above. Its RSS probe is a fresh process with a 1-CPU Ray
session (the driver reads the lines through the Dataset's plan), its
resting RSS taken once the session is up.

    python scripts/ingest_prices.py <transcripts file or dir> [--repeats 3]
        [--scrape]

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

GATES = ("DRIVER_INGEST_MAX_BYTES", "DRIVER_SCRAPE_MAX_BYTES")

# a fresh process: rest RSS after the set-up, then peak RSS of one
# driver ingest, both in kB
RSS_PROBE = """
import os, resource, sys, tempfile
sys.path.insert(0, {repo!r})
import vertex_ray.pipelines.rollup_pipeline as rp
for gate in {gates!r}:
    setattr(rp, gate, 2**62)
rp.session_cpus = lambda: 1  # the gate's 1-CPU test
{setup}
with open("/proc/self/status") as f:
    rest = next(int(ln.split()[1]) for ln in f if ln.startswith("VmRSS:"))
with tempfile.TemporaryDirectory(dir={tmp!r}) as out:
    {run}
print(rest, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
TRANSCRIPTS_RUN = "rp.run_pipeline({path!r}, out)"
SCRAPE_SETUP = """
from perfbench.run import start_ray
import ray.data as rd
from vertex_ray.pipelines.scrape_pipeline import scrape_to_store
start_ray(os.path.join({tmp!r}, "probe_ray"), 1)
"""
SCRAPE_RUN = ("scrape_to_store(rd.read_parquet({path!r}), metric='turns_total',"
              " kind='counter').materialize()")


def force(executor: str) -> None:
    """Patch the gates so every ingest runs on ``executor``."""
    import vertex_ray.pipelines.rollup_pipeline as rp

    for gate in GATES:
        setattr(rp, gate, 2**62 if executor == "driver" else 0)


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


def rss_probe(temp: str, setup: str, run: str) -> tuple[int, int]:
    """(rest, peak) RSS in kB of one driver ingest in a fresh process."""
    probe = subprocess.run(
        [sys.executable, "-c", RSS_PROBE.format(
            repo=REPO, gates=GATES, tmp=temp, setup=setup, run=run)],
        check=True, capture_output=True, text=True, cwd=REPO)
    rest_kb, peak_kb = map(int, probe.stdout.split()[-2:])
    return rest_kb, peak_kb


def write_lines(path: str, dest: str) -> str:
    """The transcripts at ``path`` rendered as exposition lines into one
    parquet file at ``dest``."""
    import pyarrow.parquet as pq

    from perfbench.inputs import render_exposition
    from vertex_ray.pipelines.rollup_pipeline import read_slice

    pq.write_table(render_exposition(read_slice(path)), dest)
    return dest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("transcripts", help="transcript parquet file or dir")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--rss-budget-mb", type=float, default=512.0,
                    help="driver RSS above rest the gate may spend")
    ap.add_argument("--scrape", action="store_true",
                    help="price the scrape ingest over the transcripts "
                         "rendered as exposition lines")
    args = ap.parse_args(argv)
    path = os.path.abspath(args.transcripts)

    import ray

    from perfbench.run import machine_cpus, start_ray
    from vertex_ray.pipelines.rollup_pipeline import input_bytes

    nproc = machine_cpus()
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
    temp = tempfile.mkdtemp(prefix="ip")
    out = {"input": path, "repeats": args.repeats, "nproc": nproc}
    try:
        if args.scrape:
            import ray.data as rd

            from vertex_ray.pipelines.scrape_pipeline import scrape_to_store

            lines = write_lines(path, os.path.join(temp, "lines.parquet"))
            nbytes = input_bytes(lines)
            rest_kb, peak_kb = rss_probe(
                temp, SCRAPE_SETUP.format(tmp=temp),
                SCRAPE_RUN.format(path=lines))
            start_ray(os.path.join(temp, "ray"), 1)
            cpu = timed_runs(lambda _out: scrape_to_store(
                rd.read_parquet(lines), metric="turns_total",
                kind="counter").materialize(), args.repeats, temp)
            out.update(lines_bytes=nbytes,
                       scrape_cpu_s={k: round(v, 3) for k, v in cpu.items()},
                       ray_scrape_fixed_cpu_s=round(
                           cpu["ray"] - cpu["driver"], 3))
        else:
            from vertex_ray.pipelines.epoch_pipeline import (
                epoch_dirs,
                run_pipeline_epochs,
            )
            from vertex_ray.pipelines.rollup_pipeline import run_pipeline

            nbytes = input_bytes(path)
            rest_kb, peak_kb = rss_probe(temp, "",
                                         TRANSCRIPTS_RUN.format(path=path))
            start_ray(os.path.join(temp, "ray"), 1)
            cpu = timed_runs(lambda o: run_pipeline(path, o),
                             args.repeats, temp)
            n_epochs = []

            def epochs(o):
                run_pipeline_epochs(path, o, epoch_seconds=86_400)
                n_epochs.append(len(epoch_dirs(o)))

            daily = timed_runs(epochs, args.repeats, temp)
            out.update(
                input_bytes=nbytes, epochs=n_epochs[0],
                oneshot_cpu_s={k: round(v, 3) for k, v in cpu.items()},
                epochs_cpu_s={k: round(v, 3) for k, v in daily.items()},
                ray_oneshot_fixed_cpu_s=round(cpu["ray"] - cpu["driver"], 3),
                ray_epoch_fixed_cpu_s=round(
                    (daily["ray"] - daily["driver"]) / n_epochs[0], 3))
    finally:
        ray.shutdown()
        shutil.rmtree(temp, ignore_errors=True)
    rss_per_byte = (peak_kb - rest_kb) * 1024 / nbytes
    out.update(
        driver_cpu_ns_per_byte=round(cpu["driver"] / nbytes * 1e9, 1),
        driver_rest_rss_mb=round(rest_kb / 1024, 1),
        driver_peak_rss_mb=round(peak_kb / 1024, 1),
        driver_rss_per_byte=round(rss_per_byte, 1),
        driver_max_bytes=int(args.rss_budget_mb * 2**20 / rss_per_byte))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
