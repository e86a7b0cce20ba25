"""A fixed piece of CPU work that uses no ``vertex_ray`` code, to tell how
fast the machine is while a workload runs.

It does the kinds of work the engine does (a numpy sort and scatter-add,
a pyarrow group-by, a parquet round trip, a Python loop over a dict,
zlib) on fixed seeded data built once at import. On a shared host the
same code takes more CPU time while neighbours load the shared cores and
caches; the benchmark divides that out (``speed``), so that its gated
figures track the program rather than the host.

    python3 perfbench/reference.py      # prints 9 samples and their speed
"""

from __future__ import annotations

import io
import statistics
import time
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# CPU seconds of one work() on the unloaded 4-vCPU x86-64 VM the README's
# figures come from; a speed of 1 means the machine runs that fast
NOMINAL_CPU_S = 0.22
N = 500_000

_rng = np.random.default_rng(0)
_keys = _rng.integers(0, 20_000, N)
_vals = _rng.random(N)
_table = pa.table({"k": _keys, "v": _vals, "s": pa.array(_keys % 97).cast(pa.string())})
_loop_keys = _keys[: N // 5].tolist()


def work() -> int:
    order = np.argsort(_keys, kind="stable")
    sums = np.zeros(20_000)
    np.add.at(sums, _keys[order], _vals[order])
    g = _table.group_by(["k", "s"], use_threads=False).aggregate([("v", "sum"), ("v", "max")])
    buf = io.BytesIO()
    pq.write_table(_table, buf)
    back = pq.read_table(io.BytesIO(buf.getvalue()), use_threads=False)
    counts: dict[int, int] = {}
    for k in _loop_keys:
        counts[k] = counts.get(k, 0) + 1
    packed = zlib.compress(np.diff(_keys[order]).astype(np.int32).tobytes(), 6)
    return g.num_rows + back.num_rows + len(counts) + len(packed)


def sample(k: int = 3) -> list[float]:
    """CPU seconds of this thread for each of ``k`` runs of ``work()``
    (every step of it runs on the calling thread; the thread's clock
    leaves out the other threads of the process, such as Ray's)."""
    out = []
    for _ in range(k):
        t0 = time.thread_time()
        work()
        out.append(time.thread_time() - t0)
    return out


def speed(samples: list[float]) -> float:
    """How much slower than nominal the machine ran: the median sample
    over ``NOMINAL_CPU_S``. CPU seconds divided by it (rates multiplied
    by it) read as they would on the unloaded machine."""
    return statistics.median(samples) / NOMINAL_CPU_S


if __name__ == "__main__":
    work()
    xs = sample(9)
    print(" ".join(f"{x:.4f}" for x in xs), f"speed {speed(xs):.3f}")
