"""Command-line entry points — the analogue of the reference daemon's
CLI surface (SURVEY.md §3.1/§3.2):

    python -m vertex_ray validate <config.{json,yaml}>   # `vertex validate`
    python -m vertex_ray run      <config.{json,yaml}>   # `vertex -c config`
    python -m vertex_ray serve    <config> [--watch]     # daemon loop:
                                       # SIGHUP / file-watch hot reload
                                       # (src/launch.rs:219-295)
    python -m vertex_ray top      <out_dir>              # `vertex top`
    python -m vertex_ray fn       <name> <value> [args…]  # one stdlib function
    python -m vertex_ray eval     <expr> [--table t.parquet]  # `vertex vtl`
    python -m vertex_ray rollup   <transcripts> <out_dir> [--epoch SECONDS]

`validate` is a dry build (src/validate.rs behavior: report every
diagnostic, exit non-zero on any). `run` builds the component graph and
executes the sinks. `top` prints the per-stage counters table
(src/top.rs / internal_metrics analogue) from committed stage manifests
only. `fn` evaluates one registry function (the VTL stdlib surface)
against literal values; `eval` runs a full exprlang expression
(functions/exprlang — the VTL expression-language analogue) either
standalone or with a parquet table's columns as the namespace.

This module OWNS the Ray session (guarded init): the library itself
never calls ray.init().
"""

from __future__ import annotations

import argparse
import json
import sys


def _load_config(path: str) -> dict:
    with open(path) as f:
        text = f.read()
    if path.endswith((".yaml", ".yml")):
        import yaml

        return yaml.safe_load(text)
    return json.loads(text)


def _ray_up() -> None:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def cmd_validate(args) -> int:
    from vertex_ray.pipelines.builder import validate

    errors = validate(_load_config(args.config))
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    if not errors:
        print("ok")
    return 1 if errors else 0


def cmd_run(args) -> int:
    from vertex_ray.pipelines.builder import build

    _ray_up()
    built = build(_load_config(args.config))
    for name, out in sorted(built.items()):
        if isinstance(out, dict) and "rows" in out:
            print(f"{name}: wrote {out['rows']} rows -> {out.get('path')}")
    return 0


def cmd_serve(args) -> int:
    """`vertex_ray serve <config> [--watch]` — the daemon lifecycle
    verb (src/launch.rs:219-295 analogue): build, then keep serving;
    SIGHUP always triggers a reload, ``--watch`` also polls the config
    file's mtime. Reloads rebuild only changed components + downstream
    (builder.rebuild); a bad new config is rejected and the old
    topology keeps serving."""
    import signal

    from vertex_ray.pipelines.builder import serve_loop

    _ray_up()
    hup = {"flag": False}
    if hasattr(signal, "SIGHUP"):
        signal.signal(signal.SIGHUP,
                      lambda *_: hup.__setitem__("flag", True))

    def requested() -> bool:
        f = hup["flag"]
        hup["flag"] = False
        return f

    try:
        _, _, n = serve_loop(
            args.config, _load_config, interval=args.interval,
            watch=args.watch, max_reloads=args.max_reloads or None,
            reload_requested=requested,
        )
    except KeyboardInterrupt:
        print("serve: interrupted", file=sys.stderr)
        return 0
    print(f"serve: exited after {n} reload(s)")
    return 0


def cmd_top(args) -> int:
    from vertex_ray.state.checkpoint import pipeline_counters

    t = pipeline_counters(args.out_dir)
    print(t.to_pandas().to_string(index=False))
    return 0


def cmd_stats(args) -> int:
    """LIVE per-stage execution stats — the ``vertex top`` live-tap
    analogue (the reference's src/top.rs:42-55, per-component live
    throughput via src/extensions/remote_tap): run the one-shot chain
    ``run_pipeline`` runs on Ray (rollup_pipeline.rollup_chain over
    ``read_transcripts``: read → run-packed projection → bucket groupby
    → bucket kernel + Gorilla encode + agg and blocks part writes) end
    to end, its parts into a temporary directory, and print Ray Data's
    executed-operator stats — per-operator wall time, rows in/out,
    object-store memory (``ds.stats()``) — plus a one-line total whose
    row counts come from the parts' footers. ``--out-dir`` appends the
    committed counters table (the static half the ``top`` verb already
    shows)."""
    _ray_up()
    import os as _os
    import tempfile

    import pyarrow.parquet as pq

    from vertex_ray.pipelines.rollup_pipeline import (
        read_transcripts,
        rollup_chain,
        transcripts_end_ts,
    )
    from vertex_ray.state.checkpoint import stage_files

    end = transcripts_end_ts(args.transcripts)
    with tempfile.TemporaryDirectory() as tmp:
        parts = {s: _os.path.join(tmp, s) for s in ("agg", "blocks")}
        for d in parts.values():
            _os.makedirs(d)
        mat = rollup_chain(read_transcripts(args.transcripts), end,
                           args.buckets, parts["agg"], parts["blocks"]
                           ).materialize()
        files = {s: stage_files(d) for s, d in parts.items()}
        rows = {s: sum(pq.ParquetFile(f).metadata.num_rows for f in fs)
                for s, fs in files.items()}
    print(mat.stats())
    print(f"TOTAL: {rows['blocks']} block rows in {len(files['blocks'])} "
          f"bucket parts, {rows['agg']} agg rows, "
          f"{mat.size_bytes() / 1e6:.1f} MB materialized")
    if args.out_dir:
        from vertex_ray.state.checkpoint import pipeline_counters

        print(pipeline_counters(args.out_dir).to_pandas()
              .to_string(index=False))
    return 0


def cmd_eval(args) -> int:
    """`vertex vtl` analogue with the full expression language: evaluate
    an exprlang expression either against a parquet table (columns are
    the namespace; prints the first --limit result rows) or standalone
    (literal expression, one value). Errors print the compiler/runtime
    diagnostic and exit non-zero, like the reference REPL."""
    import pyarrow as pa

    from vertex_ray.functions.exprlang import compile_expr

    try:
        fn = compile_expr(args.expr)
    except SyntaxError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    if args.table:
        import pyarrow.parquet as pq

        t = pq.read_table(args.table)
        t = t.slice(0, args.limit)
    else:
        t = pa.table({"_": pa.array([0])})
    try:
        out = fn(t)
    except Exception as ex:  # runtime diagnostic, not a stack trace
        print(f"error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 1
    vals = (out.to_pylist() if isinstance(out, (pa.Array, pa.ChunkedArray))
            else [out])
    for v in vals[: args.limit]:
        print(json.dumps(v, default=str))
    return 0


def cmd_fn(args) -> int:
    import pyarrow as pa

    from vertex_ray.functions.registry import FUNCTIONS

    if args.name not in FUNCTIONS:
        print(f"unknown function {args.name!r}; available: "
              f"{', '.join(sorted(FUNCTIONS))}", file=sys.stderr)
        return 1

    def lit(s: str):
        try:
            return json.loads(s)
        except json.JSONDecodeError:
            return s

    values = pa.array([lit(args.value)])
    extra = [lit(a) for a in args.args]
    out = FUNCTIONS[args.name](values, *extra)
    print(json.dumps(out.to_pylist()[0]))
    return 0


def cmd_rollup(args) -> int:
    _ray_up()
    if args.epoch:
        from vertex_ray.pipelines.epoch_pipeline import run_pipeline_epochs

        manifests = run_pipeline_epochs(
            args.transcripts, args.out_dir, epoch_seconds=args.epoch,
            n_buckets=args.buckets,
        )
    else:
        from vertex_ray.pipelines.rollup_pipeline import run_pipeline

        manifests = run_pipeline(args.transcripts, args.out_dir,
                                 n_buckets=args.buckets)
    for stage, m in sorted(manifests.items()):
        print(f"{stage}: {m['rows']} rows in {len(m['files'])} files")
    return 0


def cmd_retention(args) -> int:
    """Compact a committed block store under per-tier horizons
    (stages/retention): `--keep 1m=172800 --keep 5m=604800 ...`."""
    _ray_up()
    from vertex_ray.schema import TIER_SECONDS
    from vertex_ray.stages.retention import apply_retention
    from vertex_ray.state.checkpoint import read_manifest

    horizons = {}
    for spec in args.keep:
        tier, _, secs = spec.partition("=")
        if tier not in TIER_SECONDS or not secs.isdigit():
            print(f"bad --keep {spec!r}: want <tier>=<seconds>, "
                  f"tier in {sorted(TIER_SECONDS)}")
            return 2
        horizons[tier] = int(secs)
    now_s = args.now
    if now_s is None:
        import os as _os

        now_s = read_manifest(
            _os.path.join(args.src, "blocks"))["lineage"]["global_end_s"]
    m = apply_retention(args.src, args.dst, horizons, now_s=now_s,
                        tier_seconds=dict(TIER_SECONDS))
    print(f"blocks: {m['rows']} rows retained in {len(m['files'])} files "
          f"(cutoffs {m['lineage']['cutoffs']})")
    return 0


def cmd_compact(args) -> int:
    """Merge an epoch store's per-epoch blocks into one block per
    series × tier (stages/compact) and commit the result as a `blocks`
    stage at dst — the TSDB-compaction step of the store lifecycle."""
    _ray_up()
    import os as _os

    from vertex_ray.pipelines.epoch_pipeline import read_epochs_stage
    from vertex_ray.stages.compact import compact_blocks
    from vertex_ray.state.checkpoint import write_stage

    comp = compact_blocks(read_epochs_stage(args.src, "blocks"),
                          max_block_windows=args.max_windows)
    m = write_stage(comp, _os.path.join(args.dst, "blocks"),
                    {"compacted_from": args.src,
                     "max_block_windows": args.max_windows})
    print(f"blocks: {m['rows']} compacted rows in {len(m['files'])} files")
    return 0


def cmd_cascade(args) -> int:
    """Materialize coarser tiers for a committed block store at rest
    (stages/cascade): reads the source tier, merges 5m/1h/1d continuous
    aggregates per FIXTURES §F4, commits src tier + new tiers at dst."""
    _ray_up()
    from vertex_ray.stages.cascade import cascade_store

    m = cascade_store(args.src, args.dst, tiers=tuple(args.tiers),
                      source_tier=args.source_tier)
    print(f"blocks: {m['rows']} rows ({args.source_tier} + "
          f"{', '.join(args.tiers)}) committed to {args.dst}/blocks")
    return 0


def cmd_query(args) -> int:
    """Query the committed block store from the command line — the
    exporter-API verbs (range / instant / series / labels) over a store
    directory; prints CSV to stdout so it pipes into anything."""
    _ray_up()
    from vertex_ray.read import (
        instant_query,
        label_values,
        pick_tier,
        query_range,
        series_metadata,
    )

    tier = args.tier or pick_tier(args.step)
    if args.verb == "promql":
        from vertex_ray.promql_lang import eval_promql, explain_promql

        if args.explain:
            print(explain_promql(
                args.store, args.expr, value_col=args.value_col,
                step=tier, start=args.start or None,
                end=args.end or None, layout=args.layout))
            return 0
        ds = eval_promql(args.store, args.expr, value_col=args.value_col,
                         step=tier, start=args.start or None,
                         end=args.end or None, layout=args.layout)
    elif args.verb == "range":
        ds = query_range(args.store, tier, metric=args.metric,
                         key_regex=args.match, start=args.start,
                         end=args.end, layout=args.layout,
                         conv_id=args.conv, offset=args.offset)
    elif args.verb == "instant":
        ds = instant_query(args.store, tier, at=args.at,
                           lookback=args.lookback, metric=args.metric,
                           key_regex=args.match, layout=args.layout,
                           conv_id=args.conv, offset=args.offset)
    elif args.verb == "series":
        ds = series_metadata(args.store, tier, metric=args.metric,
                             key_regex=args.match, layout=args.layout)
    else:  # labels
        ds = label_values(args.store, tier, args.label,
                          metric=args.metric, layout=args.layout)
    df = ds.to_pandas()
    # Ray streaming execution does not preserve block order, so the raw
    # result order varies run-to-run; sort on every column for a stable,
    # diffable CSV. Results are query-sized — a driver-side sort is fine.
    if len(df.columns):
        df = df.sort_values(by=list(df.columns), kind="mergesort",
                            ignore_index=True)
    if args.limit:
        df = df.head(args.limit)
    print(df.to_csv(index=False), end="")
    return 0


def cmd_rules(args) -> int:
    """Evaluate a Prometheus-style rule group (PromQL text expressions,
    stages/record.rule_group_promql) against a block store: record rules
    are written as Gorilla block rows into ``--out`` (one committed
    stage per rule, readable by every query verb); alert rules print
    their state vectors as CSV."""
    import os as _os

    import yaml

    _ray_up()
    from vertex_ray.stages.record import rule_group_promql
    from vertex_ray.state.checkpoint import write_stage

    with open(args.rules) as f:
        doc = yaml.safe_load(f)
    rules = doc["rules"] if isinstance(doc, dict) else doc
    res = rule_group_promql(args.store, rules, tier=args.tier,
                            value_col=args.value_col, layout=args.layout)
    alerts = {r["alert"] for r in rules if "alert" in r}
    for name, ds in res.items():
        if name in alerts:
            df = ds.to_pandas()
            if len(df.columns):
                df = df.sort_values(by=list(df.columns), kind="mergesort",
                                    ignore_index=True)
            print(f"# alert: {name}")
            print(df.to_csv(index=False), end="")
        elif args.out:
            m = write_stage(ds, _os.path.join(args.out, f"record-{name}"),
                            {"rule": name, "tier": args.tier})
            print(f"# record: {name} -> {m['rows']} block rows")
        else:
            print(f"# record: {name} ({ds.count()} block rows; pass "
                  "--out to persist)")
    return 0


def cmd_scrape(args) -> int:
    """Ingest Prometheus exposition text files into a committed block
    store — the reference's primary path (prometheus_scrape →
    MetricNormalize → rollup → store) as one CLI verb
    (pipelines/scrape_pipeline.scrape_counters_to_store). The resulting
    store answers every query verb (``query range/instant/promql``)."""
    import os as _os

    _ray_up()
    from vertex_ray.pipelines.scrape_pipeline import (
        scrape_payload_to_store,
        scrape_to_store,
    )
    from vertex_ray.sources.codecs import read_lines
    from vertex_ray.state.checkpoint import write_stage

    if args.append or args.finalize:
        # incremental mode: append one epoch (or finalize open windows)
        # to an epoch-layout store with carried normalize state
        from vertex_ray.pipelines.scrape_incremental import (
            scrape_append,
            scrape_finalize,
        )

        if not args.metric:
            print("incremental mode needs --metric (counter|gauge "
                  "families)", file=sys.stderr)
            return 2
        kinds = {args.metric: args.kind or "counter"}
        if args.finalize:
            m = scrape_finalize(args.out, kinds=kinds,
                                window_s=args.window, tier=args.tier,
                                n_buckets=args.buckets)
        else:
            m = scrape_append(read_lines(args.path), args.out,
                              kinds=kinds, window_s=args.window,
                              tier=args.tier, n_buckets=args.buckets,
                              default_ts_ms=args.scrape_time)
        print(f"blocks: {m['blocks']['rows']} rows appended to "
              f"{args.out} (epoch layout)")
        return 0

    if args.metric:
        blocks = scrape_to_store(
            read_lines(args.path), metric=args.metric,
            kind=args.kind or "counter",
            window_s=args.window, tier=args.tier, n_buckets=args.buckets,
            fill_until_s=args.fill_until, staleness_s=args.staleness,
            default_ts_ms=args.scrape_time)
        kind = args.kind or "counter"
    else:
        if args.kind:
            print("--kind applies to single-family mode only; payload "
                  "mode types every family from its # TYPE line",
                  file=sys.stderr)
            return 2
        # payload mode: every typed family, kinds from # TYPE lines
        blocks = scrape_payload_to_store(
            read_lines(args.path), window_s=args.window, tier=args.tier,
            n_buckets=args.buckets, fill_until_s=args.fill_until,
            staleness_s=args.staleness, default_ts_ms=args.scrape_time)
        kind = "per-family (# TYPE)"
    m = write_stage(blocks, _os.path.join(args.out, "blocks"),
                    {"scrape": args.path, "metric": args.metric or "*",
                     "kind": kind, "tier": args.tier,
                     "window_s": args.window, "n_buckets": args.buckets})
    print(f"blocks: {m['rows']} rows committed to {args.out}/blocks")
    return 0


def cmd_delete(args) -> int:
    """Record a series-delete tombstone (the /api/v1/admin/tsdb/
    delete_series analogue): reads hide the selection immediately; the
    data itself goes away at the next compaction."""
    from vertex_ray.state.tombstones import add_tombstone, load_tombstones

    stone = add_tombstone(args.store, metric=args.metric,
                          key_regex=args.match, start=args.start,
                          end=args.end,
                          tiers=args.tiers.split(",") if args.tiers
                          else None)
    print(f"recorded {stone}; {len(load_tombstones(args.store))} stones "
          f"pending")
    return 0


def cmd_clean_tombstones(args) -> int:
    """Forget applied stones (the CleanTombstones step) — run AFTER a
    compaction that physically applied them was committed."""
    from vertex_ray.state.tombstones import clear_tombstones, load_tombstones

    n = len(load_tombstones(args.store))
    clear_tombstones(args.store)
    print(f"cleared {n} stones")
    return 0


def cmd_snapshot(args) -> int:
    """Consistent store snapshot (the /api/v1/admin/tsdb/snapshot
    analogue): copy every COMMITTED stage (data files named in the
    manifest + the manifest itself + tombstones) to dst — hardlinks on
    a local filesystem (Prometheus-style zero-copy snapshots; committed
    files are never rewritten in place, so links are safe), byte copies
    elsewhere. Uncommitted stages (no manifest) are skipped, so a
    snapshot taken mid-run is still a consistent view of committed
    work."""
    import os as _os
    import shutil as _shutil

    from vertex_ray.state.checkpoint import read_manifest
    from vertex_ray.state.tombstones import TOMBSTONE_FILE

    def link_or_copy(src, dst):
        try:
            _os.link(src, dst)
        except OSError:
            _shutil.copy2(src, dst)

    n_stages = n_files = 0
    for entry in sorted(_os.listdir(args.store)):
        roots = []
        sub = _os.path.join(args.store, entry)
        if entry.startswith("epoch-") and _os.path.isdir(sub):
            roots = [(_os.path.join(entry, d), _os.path.join(sub, d))
                     for d in sorted(_os.listdir(sub))]
        elif _os.path.isdir(sub):
            roots = [(entry, sub)]
        for rel, root in roots:
            try:
                m = read_manifest(root)
            except FileNotFoundError:
                continue  # uncommitted stage
            out = _os.path.join(args.dst, rel)
            _os.makedirs(out, exist_ok=True)
            for fname in list(m["files"]) + ["manifest.json"]:
                link_or_copy(_os.path.join(root, fname),
                             _os.path.join(out, fname))
                n_files += 1
            n_stages += 1
    stones = _os.path.join(args.store, TOMBSTONE_FILE)
    if _os.path.exists(stones):
        _shutil.copy2(stones, _os.path.join(args.dst, TOMBSTONE_FILE))
    print(f"snapshot: {n_stages} stages, {n_files} files -> {args.dst}")
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="vertex_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("validate", help="dry-build a pipeline config")
    sp.add_argument("config")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("run", help="build and execute a pipeline config")
    sp.add_argument("config")
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser(
        "serve",
        help="build and keep serving a pipeline config; reload on "
             "SIGHUP, and on file change with --watch")
    sp.add_argument("config")
    sp.add_argument("--watch", action="store_true",
                    help="poll the config file and hot-reload on change")
    sp.add_argument("--interval", type=float, default=1.0,
                    help="poll interval seconds (default 1.0)")
    sp.add_argument("--max-reloads", type=int, default=0,
                    help="exit after N successful reloads (0 = forever)")
    sp.set_defaults(fn=cmd_serve)

    sp = sub.add_parser("top", help="per-stage counters from manifests")
    sp.add_argument("out_dir")
    sp.set_defaults(fn=cmd_top)

    sp = sub.add_parser(
        "stats", help="live per-stage execution stats (ds.stats()) for "
                      "the flagship pipeline — the `vertex top` live tap")
    sp.add_argument("transcripts")
    sp.add_argument("--buckets", type=int, default=8)
    sp.add_argument("--out-dir", default=None,
                    help="also print this store's committed counters")
    sp.set_defaults(fn=cmd_stats)

    sp = sub.add_parser("eval",
                        help="evaluate an expression (vtl REPL analogue)")
    sp.add_argument("expr")
    sp.add_argument("--table", help="parquet file providing the columns")
    sp.add_argument("--limit", type=int, default=10)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("fn", help="evaluate one stdlib function")
    sp.add_argument("name")
    sp.add_argument("value")
    sp.add_argument("args", nargs="*")
    sp.set_defaults(fn=cmd_fn)

    sp = sub.add_parser("rollup", help="run the flagship tier cascade")
    sp.add_argument("transcripts")
    sp.add_argument("out_dir")
    sp.add_argument("--epoch", type=int, default=0,
                    help="epoch seconds for incremental mode (0 = one-shot)")
    sp.add_argument("--buckets", type=int, default=None,
                    help="reduce width (default: sized to input bytes and "
                         "CPUs; an epoch store keeps its committed width)")
    sp.set_defaults(fn=cmd_rollup)

    sp = sub.add_parser("retention",
                        help="compact a block store under per-tier horizons")
    sp.add_argument("src")
    sp.add_argument("dst")
    sp.add_argument("--keep", action="append", default=[],
                    metavar="TIER=SECONDS", required=True)
    sp.add_argument("--now", type=int, default=None,
                    help="retention reference time (epoch s); default: the "
                         "store's global_end_s lineage stamp")
    sp.set_defaults(fn=cmd_retention)

    sp = sub.add_parser("compact",
                        help="merge an epoch store's blocks per series")
    sp.add_argument("src", help="epoch store root (epoch-*/blocks)")
    sp.add_argument("dst", help="output store root (gets dst/blocks)")
    sp.add_argument("--max-windows", type=int, default=1 << 20,
                    dest="max_windows",
                    help="points per output block before splitting")
    sp.set_defaults(fn=cmd_compact)

    sp = sub.add_parser("query",
                        help="read the block store (range/instant/"
                             "series/labels)")
    sp.add_argument("verb", choices=["range", "instant", "series",
                                     "labels", "promql"])
    sp.add_argument("store")
    sp.add_argument("expr", nargs="?", default=None,
                    help="PromQL expression (promql verb): parsed by "
                         "vertex_ray/promql_lang and lowered onto the "
                         "distributed read stages")
    sp.add_argument("--value-col", default="count",
                    help="tier column selectors read (promql verb): "
                         "count/sum/min/max/last")
    sp.add_argument("--explain", action="store_true",
                    help="print the lowering plan (tier scans, pushdown, "
                         "exchanges) instead of executing (promql verb)")
    sp.add_argument("--tier", default=None,
                    help="explicit tier; default picks from --step")
    sp.add_argument("--step", type=int, default=60,
                    help="dashboard step (s) for tier auto-selection")
    sp.add_argument("--metric", default=None)
    sp.add_argument("--match", default=None,
                    help="RE2 over series_key")
    sp.add_argument("--conv", default=None,
                    help="exact conv_id (hash-bucket point-read "
                         "fast path: touches one part file)")
    sp.add_argument("--start", type=int, default=None)
    sp.add_argument("--end", type=int, default=None)
    sp.add_argument("--at", type=int, default=0,
                    help="instant evaluation time (epoch s)")
    sp.add_argument("--lookback", type=int, default=300)
    sp.add_argument("--offset", type=int, default=0,
                    help="PromQL offset modifier (seconds into the past; "
                         "results re-stamped into the query frame)")
    sp.add_argument("--label", default="role",
                    help="label for the labels verb")
    sp.add_argument("--limit", type=int, default=0)
    sp.add_argument("--layout", choices=["oneshot", "epochs"],
                    default="oneshot",
                    help="store layout: one-shot blocks dir or the "
                         "time-chunked epoch store")
    sp.set_defaults(fn=cmd_query)

    sp = sub.add_parser("rules",
                        help="evaluate a PromQL rule group (records + "
                             "alerts) over a block store")
    sp.add_argument("store")
    sp.add_argument("rules", help="YAML/JSON rule list: "
                                  "[{record|alert, expr, ...}]")
    sp.add_argument("--tier", default="1h")
    sp.add_argument("--value-col", default="count")
    sp.add_argument("--out", default=None,
                    help="directory for record-rule block stages")
    sp.add_argument("--layout", choices=["oneshot", "epochs"],
                    default="oneshot")
    sp.set_defaults(fn=cmd_rules)

    sp = sub.add_parser("cascade",
                        help="materialize coarser tiers for a committed "
                             "block store (continuous aggregates at rest)")
    sp.add_argument("src")
    sp.add_argument("dst")
    sp.add_argument("--tiers", nargs="+", default=["5m", "1h", "1d"])
    sp.add_argument("--source-tier", default="1m", dest="source_tier")
    sp.set_defaults(fn=cmd_cascade)

    sp = sub.add_parser("scrape",
                        help="ingest Prometheus exposition text files "
                             "into a committed block store")
    sp.add_argument("path", help="exposition text file(s)/glob "
                                 "(newline-framed)")
    sp.add_argument("out", help="store directory to commit blocks into")
    sp.add_argument("--metric", default=None,
                    help="metric family to ingest (omit to ingest every "
                         "typed family in the payload)")
    sp.add_argument("--kind", default=None,
                    choices=["counter", "gauge", "histogram"],
                    help="family kind (single-family mode; default "
                         "counter). Payload mode types per # TYPE line")
    sp.add_argument("--scrape-time", type=int, default=None,
                    dest="scrape_time", metavar="EPOCH_MS",
                    help="timestamp assigned to samples without one "
                         "(the Prometheus scrape-time rule)")
    sp.add_argument("--append", action="store_true",
                    help="incremental mode: append one epoch with "
                         "carried per-series normalize state")
    sp.add_argument("--finalize", action="store_true",
                    help="incremental mode: emit every open window as "
                         "a final epoch (PATH is ignored)")
    sp.add_argument("--window", type=int, default=60,
                    help="rollup window seconds")
    sp.add_argument("--tier", default="1m")
    sp.add_argument("--buckets", type=int, default=32)
    sp.add_argument("--fill-until", type=int, default=None,
                    dest="fill_until", metavar="EPOCH_S",
                    help="apply exporter-TTL staleness up to this time "
                         "(LOCF fills + one stale marker per expired "
                         "series)")
    sp.add_argument("--staleness", type=int, default=300,
                    help="staleness horizon seconds (default 300, the "
                         "exporter TTL default)")
    sp.set_defaults(fn=cmd_scrape)

    sp = sub.add_parser("delete",
                        help="record a series-delete tombstone "
                             "(hidden from reads now, removed at "
                             "compaction)")
    sp.add_argument("store")
    sp.add_argument("--metric", default=None)
    sp.add_argument("--match", default=None, help="RE2 over series_key")
    sp.add_argument("--start", type=int, default=None)
    sp.add_argument("--end", type=int, default=None)
    sp.add_argument("--tiers", default=None,
                    help="comma-separated tier names (default: all)")
    sp.set_defaults(fn=cmd_delete)

    sp = sub.add_parser("snapshot",
                        help="hardlink-copy every committed stage to a "
                             "snapshot dir (consistent backup)")
    sp.add_argument("store")
    sp.add_argument("dst")
    sp.set_defaults(fn=cmd_snapshot)

    sp = sub.add_parser("clean-tombstones",
                        help="forget applied stones (run after the "
                             "compaction that applied them committed)")
    sp.add_argument("store")
    sp.set_defaults(fn=cmd_clean_tombstones)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
