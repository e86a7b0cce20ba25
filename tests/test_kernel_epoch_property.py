"""Property: sequential epoch_kernel calls with carried state reproduce
the unbounded epoch's one-shot output bit-for-bit, for arbitrary (per-conv
ts-monotonic) turn data — the epoch pipeline's correctness contract at
the kernel level, where Hypothesis can run hundreds of cases cheaply."""

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from vertex_ray.stages.fill import unpack_series
from vertex_ray.stages.kernel_epoch import epoch_kernel

TIERS = (("1m", 60), ("5m", 300))
EPOCH = 3600
T0 = 1_700_000_000 // EPOCH * EPOCH
SPAN_EPOCHS = 4


@st.composite
def turn_data(draw):
    n_convs = draw(st.integers(1, 4))
    rows = []
    for c in range(n_convs):
        n_turns = draw(st.integers(1, 8))
        # strictly increasing offsets => ts monotonic in turn order (the
        # documented epoch-mode partitioning assumption)
        offs = sorted(
            draw(
                st.lists(
                    st.integers(0, SPAN_EPOCHS * EPOCH - 1),
                    min_size=n_turns,
                    max_size=n_turns,
                    unique=True,
                )
            )
        )
        for i, off in enumerate(offs):
            rows.append(
                (
                    f"conv{c}",
                    i,
                    draw(st.integers(0, 2)),  # role code
                    draw(st.integers(0, 4)),  # tool code (0 = none)
                    (T0 + off) * 1_000_000,
                )
            )
    return rows


def _arrays(rows):
    conv = np.array([r[0] for r in rows], dtype=object)
    return (
        conv,
        np.array([r[1] for r in rows], dtype=np.int64),
        np.array([r[2] for r in rows], dtype=np.uint8),
        np.array([r[3] for r in rows], dtype=np.uint8),
        np.array([r[4] for r in rows], dtype=np.int64),
    )


def _frame(tables: list[pa.Table]) -> pd.DataFrame:
    flat = pa.concat_tables([unpack_series(t) for t in tables if t.num_rows])
    df = flat.to_pandas()
    df = df.sort_values(["tier", "series_key", "window_start"], kind="stable")
    return df.drop(columns=["bucket"]).reset_index(drop=True)


@settings(max_examples=120, deadline=None)
@given(turn_data())
def test_epoch_kernel_equals_oneshot(rows):
    conv, ti, rc, tc, ts = _arrays(rows)
    end_s = int(ts.max()) // 1_000_000

    one, _ = epoch_kernel(
        conv, ti, rc, tc, ts, None,
        TIERS, None, None, end_s, bucket_id=0, salt=1,
    )

    sec = ts // 1_000_000
    state = None
    parts = []
    last_epoch = end_s // EPOCH * EPOCH
    for es in range(T0, last_epoch + 1, EPOCH):
        ee = es + EPOCH
        m = (sec >= es) & (sec < ee)
        fill_end = end_s if es == last_epoch else ee - 1
        packed, state = epoch_kernel(
            conv[m], ti[m], rc[m], tc[m], ts[m], state,
            TIERS, es, ee, fill_end, bucket_id=0, salt=1,
        )
        parts.append(packed)

    a, b = _frame([one]), _frame(parts)
    assert list(a.columns) == list(b.columns)
    assert len(a) == len(b)
    for c in a.columns:
        va, vb = a[c].to_numpy(), b[c].to_numpy()
        if va.dtype == np.float64:
            np.testing.assert_array_equal(
                va.view(np.uint64), vb.view(np.uint64), err_msg=c
            )
        else:
            np.testing.assert_array_equal(va, vb, err_msg=c)
