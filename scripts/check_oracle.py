"""Local stand-in for the driver's correctness gate: run every queries()
entry at sf0.01 and compare to oracle_sql() via DuckDB (row count, column
names, order-insensitive value equality).

Each ``PASS`` and ``OK(rows-only)`` line ends with ``sha256=`` over the
query's canonical result (``canon``: its column names, dtypes and
values), so two trees' sweeps can be compared line by line, rows-only
queries included."""

import hashlib
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import numpy as np
import pandas as pd

SF_DIR = "/root/testdata/sf0.01"
TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(res):
    import pyarrow as pa

    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        if str(df[c].dtype).startswith("datetime64"):
            df[c] = df[c].astype("datetime64[us]")
        if str(df[c].dtype) in ("uint8", "int32", "uint32", "int16"):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def digest(df: pd.DataFrame) -> str:
    """sha256 of a canonical frame: per column its name, dtype and values
    (numeric and datetime values as raw bytes, so NaN payloads count;
    the rest as their str joined by a unit separator)."""
    h = hashlib.sha256()
    for c in df.columns:
        a = df[c].to_numpy()
        h.update(f"{c}\0{a.dtype}\0".encode())
        if a.dtype.kind in "biufcmM":
            h.update(np.ascontiguousarray(a).tobytes())
        else:
            h.update("\x1f".join(map(str, a)).encode())
    return h.hexdigest()


def main(only=None):
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import __ray_entry__ as e

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')")
    qs, oracles = e.queries(), e.oracle_sql()
    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            mine = canon(to_pandas(fn(SF_DIR)))
        except Exception as ex:
            failures.append((name, f"query raised: {ex!r}"))
            print(f"ERROR {name}: {ex!r}")
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"OK(rows-only) {name}: {len(mine)} rows in {dt:.1f}s "
                  f"sha256={digest(mine)}")
            continue
        ref = canon(con.execute(oracles[name]).df())
        status = []
        if len(mine) != len(ref):
            status.append(f"rowcount {len(mine)} != {len(ref)}")
        elif list(mine.columns) != list(ref.columns):
            status.append(f"columns {list(mine.columns)} != {list(ref.columns)}")
        else:
            for c in mine.columns:
                a, b = mine[c].to_numpy(), ref[c].to_numpy()
                if a.dtype.kind == "f":
                    same = np.array_equal(a.view(np.uint64), b.astype(np.float64).view(np.uint64))
                else:
                    same = np.array_equal(a, b)
                if not same:
                    ix = np.flatnonzero(a != b)[:3] if a.dtype.kind != "f" else \
                        np.flatnonzero(a.view(np.uint64) != b.astype(np.float64).view(np.uint64))[:3]
                    status.append(f"col {c} mismatch at {ix}: {a[ix]} vs {b[ix]}")
        if status:
            failures.append((name, "; ".join(status)))
            print(f"FAIL {name}: {'; '.join(status)}")
        else:
            print(f"PASS {name}: {len(mine)} rows in {dt:.1f}s "
                  f"sha256={digest(mine)}")
    ray.shutdown()
    if failures:
        sys.exit(1)


if __name__ == "__main__":
    main(set(sys.argv[1:]) or None)
