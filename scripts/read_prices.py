"""Re-measure the two prices the read façade's read gate comes from
(``vertex_ray/read.py``: ``DRIVER_READ_MAX_BYTES``) on one one-shot
store, and print one JSON line:

- ``ray_fixed_cpu_s``: process-tree CPU of one ``query_range`` whose
  metric matches nothing, run as a Ray Data execution (Ray's fixed cost);
- ``read_ns_per_byte``: the driver's ``read_block_table`` of every part,
  CPU per stage byte;

plus the gate they give: ``read_max_bytes`` = fixed cost / read price.
Each price is the median of ``--repeats`` runs.

    python scripts/read_prices.py <store dir> [--repeats 9]

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
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)


def cpu_median(fn, repeats: int) -> float:
    from perfbench.proctree import CpuClock

    runs = []
    for _ in range(repeats):
        clock = CpuClock()
        fn()
        runs.append(clock.stop())
    return statistics.median(runs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("store", help="a one-shot store (holds blocks/)")
    ap.add_argument("--repeats", type=int, default=9)
    args = ap.parse_args(argv)

    import ray

    import vertex_ray.read as read
    from perfbench.run import start_ray
    from vertex_ray.pipelines.rollup_pipeline import read_block_table
    from vertex_ray.state import fsio
    from vertex_ray.state.checkpoint import stage_files

    files = stage_files(os.path.join(args.store, "blocks"))
    stage_bytes = sum(fsio.file_size(f) for f in files)
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
    temp = tempfile.mkdtemp(prefix="rp")
    try:
        start_ray(temp, 1)
        read.DRIVER_READ_MAX_BYTES = 0  # every read on Ray Data

        def empty_scan():
            ds = read.query_range(args.store, "1h", metric="__absent__")
            ray.get(ds.to_arrow_refs())

        empty_scan()  # starts the workers
        fixed = cpu_median(empty_scan, args.repeats)
        read_s = cpu_median(lambda: read_block_table(files), args.repeats)
    finally:
        ray.shutdown()
        shutil.rmtree(temp, ignore_errors=True)
    print(json.dumps({
        "store": os.path.abspath(args.store), "parts": len(files),
        "stage_bytes": stage_bytes, "repeats": args.repeats,
        "ray_fixed_cpu_s": round(fixed, 3),
        "read_ns_per_byte": round(read_s / stage_bytes * 1e9, 1),
        "read_max_bytes": int(fixed / read_s * stage_bytes),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
