"""Self-tests of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

1. Smoke: every workload, untraced and traced, on a 3000-turn input
   prints a correct result with every metric present.
2. Negative: one output is corrupted after the engine wrote it (a store
   count on ``oneshot``, a returned row on ``dashboard``); the run must
   report the failed operation (``failed`` > 0, ``ok_ops_ratio`` < 1,
   ``correct`` false).
Exits non-zero on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--turns", "3000", "--seconds", "0.1"]


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def smoke(workload: str, trace: int) -> None:
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                        "--seed", "3", "--trace", str(trace), *TINY],
                       cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, f"{workload} trace={trace} exit {p.returncode}:\n{p.stderr[-3000:]}"
    res = result(p.stdout)
    sys.path.insert(0, ROOT)
    from perfbench.run import metric_units

    names = metric_units("per_layer" if trace else "end_to_end")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
    assert sorted(res["metrics"]) == sorted(names), sorted(res["metrics"])
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values()), res["metrics"]
    print(f"ok   smoke {workload} trace={trace}: {res['attempted']} operations")


def corrupt_store_count(store: str) -> None:
    """Add one to the first ``count`` of the first agg file of a store."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from vertex_ray.state.checkpoint import stage_files

    f = stage_files(os.path.join(store, "agg"))[0]
    t = pq.read_table(f)
    c = t["count"].to_pylist()
    c[0] += 1
    t = t.set_column(t.schema.get_field_index("count"), "count", pa.array(c, t["count"].type))
    pq.write_table(t, f)


def negative(workload: str) -> None:
    """Run the workload in this process with one output corrupted."""
    sys.path.insert(0, ROOT)
    from perfbench import run, workloads

    if workload == "oneshot":
        real = workloads.run_pipeline

        def corrupted(trans, store, *a, **k):
            m = real(trans, store, *a, **k)
            corrupt_store_count(store)
            return m

        patch = ("run_pipeline", corrupted)
    else:
        real = workloads.fetch

        def corrupted(ds):
            t = real(ds)
            return t.slice(1) if t.num_rows else t

        patch = ("fetch", corrupted)
    setattr(workloads, *patch)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = run.main(["--workload", workload, "--seed", "3", "--trace", "0", *TINY])
    finally:
        setattr(workloads, patch[0], real)
    assert rc == 0, f"negative {workload}: exit {rc}"
    res = result(out.getvalue())
    ratio = res["metrics"]["ok_ops_ratio"]["value"]
    assert res["failed"] > 0 and not res["correct"] and ratio < 1, res
    print(f"ok   negative {workload}: {res['failed']}/{res['attempted']} operations "
          f"failed, ok_ops_ratio={ratio:.3f}")


def main() -> int:
    for w in ("oneshot", "dashboard", "append", "scrape"):
        for trace in (0, 1):
            smoke(w, trace)
    for w in ("oneshot", "dashboard"):
        negative(w)
    return 0


if __name__ == "__main__":
    sys.exit(main())
