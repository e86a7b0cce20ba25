"""Price the Gorilla block codec, in process, on one seeded transcript
input, and print one JSON line.

Builds a one-shot store from ``perfbench.inputs.write_transcripts(
--turns, --seed)`` with ``run_pipeline`` on the driver executor (the
ingest gate forced open, as in a 1-CPU session), capturing the packed
table each ``bucket_group`` hands to ``GorillaEncode`` (the engine's
code is not edited: the module's ``GorillaEncode`` name is wrapped for
the run). Then, best of ``--repeats`` passes over all buckets:

- ``encode_cpu_s``: CPU seconds of ``GorillaEncode()(packed)``, and
  ``encode_points_per_s`` over the stored points it encodes;
- ``decode_cpu_s``: CPU seconds of ``decode_blocks_flat`` over the
  store's ``blocks/`` parts as read from parquet, and
  ``decode_points_per_s`` over the points it returns (fills expanded);

plus ``sha256``: one digest per block column over every bucket's
encoded table, to show two versions of the codec write the same bytes.
CPU is this process's (``time.process_time``), so the figures do not
depend on other load on the machine; they do depend on its CPU model,
so compare only runs made on one machine.

    python scripts/codec_prices.py [--turns 200000] [--seed 1601]
        [--repeats 7]

Run it from any directory; it starts no Ray session.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)


def best_cpu(fn, repeats: int) -> float:
    fn()  # warm: first-call imports and allocator growth
    best = float("inf")
    for _ in range(repeats):
        t0 = time.process_time()
        fn()
        best = min(best, time.process_time() - t0)
    return best


def capture_packed(transcripts: str, out: str) -> list:
    """``run_pipeline`` on the driver executor; the packed tables its
    buckets encode, in bucket order."""
    import vertex_ray.pipelines.rollup_pipeline as rp

    captured = []
    encode = rp.GorillaEncode

    class Recording(encode):
        def __call__(self, packed):
            captured.append(packed)
            return super().__call__(packed)

    saved = rp.GorillaEncode, rp.session_cpus, rp.DRIVER_INGEST_MAX_BYTES
    rp.GorillaEncode, rp.session_cpus = Recording, lambda: 1
    rp.DRIVER_INGEST_MAX_BYTES = 2**62
    try:
        rp.run_pipeline(transcripts, out)
    finally:
        rp.GorillaEncode, rp.session_cpus, rp.DRIVER_INGEST_MAX_BYTES = saved
    return captured


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--turns", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=1601)
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args(argv)

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from perfbench.inputs import write_transcripts
    from vertex_ray.stages.encode import GorillaEncode, decode_blocks_flat
    from vertex_ray.state.checkpoint import stage_files

    with tempfile.TemporaryDirectory(prefix="codec_prices") as tmp:
        transcripts, _ = write_transcripts(args.turns, args.seed,
                                           os.path.join(tmp, "in"))
        out = os.path.join(tmp, "store")
        packed = capture_packed(transcripts, out)
        parts = [pq.read_table(f)
                 for f in sorted(stage_files(os.path.join(out, "blocks")))]

    encoded = [GorillaEncode()(p) for p in packed]
    stored = sum(int(pc.sum(pc.list_value_length(p["window_starts"]))
                     .as_py() or 0) for p in packed)
    decoded = sum(int(decode_blocks_flat(t)[0].sum()) for t in parts)
    enc_s = best_cpu(lambda: [GorillaEncode()(p) for p in packed],
                     args.repeats)
    dec_s = best_cpu(lambda: [decode_blocks_flat(t) for t in parts],
                     args.repeats)
    digests = {}
    for name in encoded[0].column_names:
        h = hashlib.sha256()
        for t in encoded:
            h.update(repr(t[name].to_pylist()).encode())
        digests[name] = h.hexdigest()
    print(json.dumps({
        "turns": args.turns, "seed": args.seed, "repeats": args.repeats,
        "affinity_cpus": len(os.sched_getaffinity(0)), "buckets": len(packed),
        "encode_cpu_s": round(enc_s, 4),
        "encode_points": stored,
        "encode_points_per_s": round(stored / enc_s),
        "decode_cpu_s": round(dec_s, 4),
        "decode_points": decoded,
        "decode_points_per_s": round(decoded / dec_s),
        "sha256": digests,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
