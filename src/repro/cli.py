"""Command-line interface: ``python -m repro`` or the ``repro-race`` script.

Subcommands
-----------

``check FILE``
    Run CIRC on a mini-C program; prove or refute race freedom for
    unboundedly many threads (per variable, or ``--all`` written globals).
    The static pre-analysis prunes provably-safe variables first;
    ``--no-prefilter`` forces CIRC on everything.

``static FILE``
    Run only the static pre-analysis: per-variable verdicts from the
    lattice ``{local, read-shared, protected, must-check}``.

``explore FILE``
    Exhaustive explicit-state exploration for a fixed thread count
    (exact on finite-state programs).

``baselines FILE``
    Run the comparison analyses: the two-phase racer (verdict +
    witness/proofs), the abstract-interpretation pass, the Eraser-style
    lockset discipline, and the stateless thread-modular checker.  The
    exit code follows the racer's reconciled verdict with the same
    mapping as ``check``.

``portfolio FILE``
    Run the witness-producing static detectors and CIRC one after
    another: the first confident verdict (sound proof or replayed
    witness) cancels the rest.  Win rates per workload shape are learned
    into the cache directory and reorder the schedule.

``cfa FILE``
    Dump the thread's control flow automaton (text or Graphviz).

``bench [APP]``
    Run the bundled nesC benchmark models (Table 1 of the paper).

``batch FILE... [--nesc [APP]]``
    Verify many (model, variable) queries through the verification
    engine: static pruning, a content-addressed on-disk artifact cache
    (re-runs answer instantly), predicate warm-starting, and a
    work-stealing fleet of ``--workers M`` worker processes (default:
    one per CPU; 1 runs every job in-process).  ``--json`` emits the
    shared report schema also used by ``static --json``.
    ``--shards N --shard-id I`` runs only bucket I of an N-way digest
    partition (no network needed; merge the payloads afterwards).

``merge-reports REPORT... [-o FILE]``
    Deterministically merge per-shard report-v1 JSON payloads into one
    canonical report: duplicates collapse, confident verdicts supersede
    unknown, and a confident cross-shard disagreement is a hard error
    (exit 2).  The exit code otherwise follows the merged verdicts.

``fuzz --seed N --iters K``
    Differential fuzzing: random programs through every verdict path
    (circ, prefilter, engine cold/warm, lockset, flow) cross-checked
    against the explicit-state oracle.  Hard disagreement classes
    (unsoundness, forged witness, oracle contradiction, crash) exit
    nonzero; minimized reproducers can be persisted with ``--corpus``.

``serve [--socket PATH | --host H --port P]``
    Long-running verification daemon: newline-delimited JSON over a
    Unix or TCP socket, hot ArgStore/qcache/win-rate state shared
    across requests, in-flight request dedup, per-client budgets, and
    graceful SIGTERM drain.  See ``docs/SERVICE.md``.

``submit FILE... [--socket PATH]``
    Send programs to a running daemon and print the same report the
    ``batch`` subcommand would (``--json`` for the shared payload).

Exit codes: 0 verified, 1 race found (or hard fuzz disagreement),
2 usage/parse error, a portfolio verdict conflict (two confident
analyses disagreed -- an internal soundness error, never silently
resolved) or an internal CIRC failure, 3 budget exhausted (explore) or
daemon-draining RETRYABLE, 4 verification undecided (UNKNOWN verdict:
CIRC gave up, or a solver quota ran out).  ``check`` (with or without
``--report``), ``batch``, ``portfolio``, ``baselines``, and ``submit``
all share this mapping via :func:`_verdict_exit`.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .baselines.lockset import lockset_analysis
from .baselines.threadmodular import thread_modular
from .circ import CircError, circ
from .exec.interp import MultiProgram, explore
from .lang.lower import lower_source
from .races.spec import racy_variables
from .smt.terms import pretty

__all__ = ["main"]

#: The one verdict -> exit-code mapping every verifying subcommand uses.
EXIT_OK = 0
EXIT_RACE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_UNKNOWN = 4


def _verdict_exit(races: int, unknown: int) -> int:
    """Exit code for a set of per-variable verdicts: any race wins,
    then any undecided query, then success.  ``check``, ``batch``,
    ``portfolio``, and ``baselines`` all route through here so their
    exit codes can never drift apart."""
    if races:
        return EXIT_RACE
    if unknown:
        return EXIT_UNKNOWN
    return EXIT_OK


def _load(path: str, thread: str | None):
    source = Path(path).read_text()
    return lower_source(source, thread)


def _print_smt_stats() -> None:
    from .smt.profile import PROFILER
    from .smt.qcache import SAT_CACHE
    from .smt.session import default_session

    print("\nSMT query profile (per stage):")
    print(
        f"  {'stage':10s} {'queries':>8s} {'sat':>7s} {'unsat':>7s} "
        f"{'hits':>7s} {'t-confl':>8s} {'wall_s':>9s}"
    )
    rows = list(PROFILER.snapshot().items())
    rows.append(("total", PROFILER.totals()))
    for label, st in rows:
        print(
            f"  {label:10s} {st['queries']:>8d} {st['sat']:>7d} "
            f"{st['unsat']:>7d} {st['cache_hits']:>7d} "
            f"{st['theory_conflicts']:>8d} {st['wall_s']:>9.3f}"
        )
    cs = SAT_CACHE.stats()
    print(
        f"query cache: size {cs['size']}/{cs['maxsize']}, "
        f"{cs['hits']} hits / {cs['misses']} misses, "
        f"{cs['evictions']} evictions, {cs['warm_hits']} warm hits"
    )
    ss = default_session().stats.to_obj()
    print(
        f"incremental session: {ss['queries']} queries "
        f"({ss['sat']} sat / {ss['unsat']} unsat), "
        f"{ss['theory_conflicts']} theory conflicts, "
        f"{ss['encode_hits']} encode hits, {ss['resets']} resets"
    )


def _print_reuse_stats(reuse: dict[str, int]) -> None:
    """The ArgStore reuse table shown under ``--stats``."""
    print("\nincremental exploration reuse (ArgStore):")
    print(f"  {'memo':12s} {'hits':>8s} {'misses':>8s} {'rate':>7s}")
    for memo in ("main_post", "ctx_post", "result", "omega",
                 "ctx_reach", "collapse"):
        hits = reuse.get(f"{memo}_hits", 0)
        misses = reuse.get(f"{memo}_misses", 0)
        total = hits + misses
        rate = f"{hits / total:6.1%}" if total else "     -"
        print(f"  {memo:12s} {hits:>8d} {misses:>8d} {rate:>7s}")
    print(
        f"  refinement invalidation: "
        f"{reuse.get('entries_kept', 0)} entries kept, "
        f"{reuse.get('entries_invalidated', 0)} invalidated; "
        f"{reuse.get('abstractor_extensions', 0)} abstractor extensions, "
        f"{reuse.get('abstractor_rebuilds', 0)} rebuilds"
    )


def _cmd_check(args) -> int:
    cfa = _load(args.file, args.thread)
    variables = (
        sorted(racy_variables(cfa)) if args.all else [args.var]
    )
    if not variables or variables == [None]:
        print("error: give --var NAME or --all", file=sys.stderr)
        return 2
    if args.stats:
        from .smt.profile import PROFILER

        PROFILER.reset()
    options = {"variant": args.variant, "k": args.k, **_budget_options(args)}
    if args.report:
        from .races.report import audit, render_markdown

        report = audit(
            cfa,
            name=Path(args.file).name,
            variables=None if args.all else variables,
            **options,
        )
        Path(args.report).write_text(render_markdown(report))
        print(f"wrote {args.report}")
        if args.stats:
            _print_smt_stats()
        return _verdict_exit(len(report.races), len(report.undecided))
    static_report = None
    if not args.no_prefilter:
        from .static import StaticSafe, classify, prefilter_check

        static_report = classify(cfa, variables)
    races = unknown = 0
    reuse_totals: dict[str, int] = {}
    for var in variables:
        start = time.perf_counter()
        if static_report is None:
            result = circ(cfa, race_on=var, **options)
        else:
            result = prefilter_check(cfa, var, report=static_report, **options)
            if isinstance(result, StaticSafe):
                print(
                    f"{var}: SAFE  [static: {result.static_verdict.value} "
                    f"-- {result.reason}]"
                )
                continue
        # The verifier's own stats record is the single timing source
        # (the engine's JSONL events read the same field); the local
        # clock only covers verdicts that never reached finalization.
        elapsed = result.stats.elapsed_seconds or (
            time.perf_counter() - start
        )
        if result.stats.reuse:
            for key, value in result.stats.reuse.items():
                reuse_totals[key] = reuse_totals.get(key, 0) + value
        if result.unknown:
            print(f"{var}: UNKNOWN  [{elapsed:.1f}s, {result.reason}]")
            unknown += 1
        elif result.safe:
            print(
                f"{var}: SAFE  [{elapsed:.1f}s, "
                f"{len(result.predicates)} predicates, "
                f"ACFA size {result.context.size}]"
            )
            if args.verbose:
                for p in result.predicates:
                    print(f"    predicate: {pretty(p)}")
                print(result.context)
        else:
            races += 1
            print(
                f"{var}: RACE  [{elapsed:.1f}s, "
                f"{result.n_threads} threads]"
            )
            for tid, edge in result.steps:
                print(f"    T{tid}: {edge.op}")
    if args.stats:
        _print_smt_stats()
        if reuse_totals:
            _print_reuse_stats(reuse_totals)
    return _verdict_exit(races, unknown)


def _nothing_to_check(args) -> bool:
    """``explore`` and ``simulate`` need a race variable or --errors;
    says so in the command line's terms when given neither."""
    if args.var is None and not args.errors:
        print("error: nothing to check: give --var NAME or --errors", file=sys.stderr)
        return True
    return False


def _cmd_explore(args) -> int:
    if _nothing_to_check(args):
        return EXIT_USAGE
    cfa = _load(args.file, args.thread)
    mp = MultiProgram.symmetric(cfa, args.threads)
    result = explore(
        mp,
        race_on=args.var,
        check_errors=args.errors,
        max_states=args.max_states,
    )
    kind = "assertion failure" if args.errors else f"race on {args.var!r}"
    if result.found:
        print(f"FOUND {kind} with {args.threads} threads:")
        print(result.witness)
        return 1
    scope = "complete" if result.complete else "BUDGET EXHAUSTED"
    print(
        f"no {kind} with {args.threads} threads "
        f"({result.visited} states, {scope})"
    )
    return 0 if result.complete else 3


def _cmd_baselines(args) -> int:
    from .portfolio import absint_check, racer_check
    from .races.report import rows_from_baselines
    from .static import mhp_analysis

    cfa = _load(args.file, args.thread)
    variables = (
        [args.var] if args.var else sorted(racy_variables(cfa))
    )
    lockset = lockset_analysis(cfa)
    facts = mhp_analysis(cfa)
    races = unknown = 0
    all_rows = []
    for var in variables:
        racer = racer_check(cfa, var, facts=facts)
        absint = absint_check(cfa, var, facts=facts)
        stateless = thread_modular(cfa, var)
        all_rows.extend(
            rows_from_baselines(
                model=Path(args.file).name,
                variable=var,
                racer=racer,
                absint=absint,
                lockset=lockset,
                stateless=type(stateless).__name__,
            )
        )
        if args.json:
            continue
        locks = sorted(lockset.candidate.get(var, ()))
        print(f"{var}:")
        print(
            f"  racer:          {racer.verdict.upper()} "
            f"({racer.reason})"
        )
        if racer.verdict == "race":
            for tid, edge in racer.witness:
                print(f"    T{tid}: {edge.op}")
        for p in racer.pairs:
            if p.status == "proved":
                print(f"    pair {p.pair}: proved -- {p.reason}")
        print(
            f"  absint:         {absint.verdict.upper()} "
            f"({absint.reason})"
        )
        print(
            f"  lockset:        "
            f"{'WARNS' if lockset.warns_on(var) else 'ok'} "
            f"(candidate lockset {locks})"
        )
        print(f"  thread-modular: {type(stateless).__name__}")
        # Exit parity with check/batch follows the racer's reconciled
        # verdict -- the one baseline whose claims carry proofs or
        # replayed witnesses rather than warnings.
        if racer.verdict == "race":
            races += 1
        elif racer.verdict == "unknown":
            unknown += 1
    if args.json:
        import json

        from .races.report import rows_to_payload

        print(json.dumps(rows_to_payload(all_rows), indent=2))
        races = sum(
            1 for r in all_rows if r.source == "racer" and r.verdict == "race"
        )
        unknown = sum(
            1
            for r in all_rows
            if r.source == "racer" and r.verdict == "unknown"
        )
    return _verdict_exit(races, unknown)


def _cmd_portfolio(args) -> int:
    from .portfolio import PortfolioConflict, run_portfolio
    from .portfolio.winrate import WinRateBook
    from .races.report import (
        render_rows_table,
        rows_from_portfolio,
        rows_to_payload,
    )

    cfa = _load(args.file, args.thread)
    variables = (
        [args.var] if args.var else sorted(racy_variables(cfa))
    )
    if not variables:
        print("error: no written globals to check", file=sys.stderr)
        return EXIT_USAGE

    from .engine.cache import ArtifactCache
    from .engine.events import EventLog

    cache = None if args.no_cache else ArtifactCache(args.cache)
    book = None if args.no_cache else WinRateBook(cache)
    events = EventLog(args.events) if args.events else EventLog()
    options = _budget_options(args)

    races = unknown = 0
    all_rows = []
    try:
        for var in variables:
            report = run_portfolio(
                cfa, var, cache=cache, events=events, winrates=book, **options
            )
            all_rows.extend(
                rows_from_portfolio(report, model=Path(args.file).name)
            )
            if report.verdict == "race":
                races += 1
            elif report.verdict == "unknown":
                unknown += 1
            if args.json:
                continue
            won = report.winner or "none"
            cancelled = (
                f", cancelled {', '.join(report.cancelled)}"
                if report.cancelled
                else ""
            )
            print(
                f"{var}: {report.verdict.upper()}  "
                f"[won by {won}{cancelled}, shape {report.shape}, "
                f"{report.total_ms / 1000.0:.1f}s]"
            )
            if report.verdict == "race":
                for tid, edge in report.witness:
                    print(f"    T{tid}: {edge.op}")
    except PortfolioConflict as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if book is not None:
            book.save()
        events.close()
    if args.json:
        import json

        print(json.dumps(rows_to_payload(all_rows), indent=2))
    elif args.verbose:
        print()
        print(render_rows_table(all_rows))
    return _verdict_exit(races, unknown)


def _cmd_redundant(args) -> int:
    from .races.redundancy import find_redundant_sync

    source = Path(args.file).read_text()
    findings = find_redundant_sync(
        source, args.var, thread=args.thread
    )
    if not findings:
        print("no synchronization constructs found")
        return 0
    for f in findings:
        tag = "REDUNDANT" if f.redundant else "needed"
        print(f"{f.site}: {tag} -- {f.detail}")
    return 0


def _cmd_simulate(args) -> int:
    from .exec.simulate import simulate

    if _nothing_to_check(args):
        return EXIT_USAGE
    cfa = _load(args.file, args.thread)
    mp = MultiProgram.symmetric(cfa, args.threads)
    result = simulate(
        mp,
        race_on=args.var,
        check_errors=args.errors,
        runs=args.runs,
        max_steps=args.max_steps,
        seed=args.seed,
    )
    if result.found:
        print(
            f"random schedule hit a bug after {result.runs} run(s) "
            f"({result.steps_total} steps):"
        )
        print(result.witness)
        return 1
    print(
        f"no bug in {result.runs} random runs "
        f"({result.steps_total} steps, {result.deadlocks} deadlocked); "
        "note: absence here proves nothing -- use 'check' for a proof"
    )
    return 0


def _cmd_static(args) -> int:
    from .static import classify

    cfa = _load(args.file, args.thread)
    report = classify(
        cfa, [args.var] if args.var else None
    )
    if args.json:
        import json

        from .races.report import REPORT_SCHEMA, rows_from_static

        payload = {
            "schema": REPORT_SCHEMA,
            "report": [
                r.to_obj()
                for r in rows_from_static(
                    report, model=Path(args.file).name
                )
            ],
            "thread": report.cfa_name,
            "monitors": [
                {"variable": m.variable, "kind": m.kind}
                for m in report.monitors
            ],
            "verdicts": {
                name: {
                    "verdict": vv.verdict.value,
                    "reason": vv.reason,
                    "read_sites": list(vv.read_sites),
                    "write_sites": list(vv.write_sites),
                    "protectors": list(vv.protectors),
                    "racing_pairs": [list(p) for p in vv.racing_pairs],
                }
                for name, vv in sorted(report.verdicts.items())
            },
            "summary": report.counts(),
            "must_check": list(report.must_check),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(report)
    return 0


def _cmd_cfa(args) -> int:
    cfa = _load(args.file, args.thread)
    if args.dot:
        print(cfa.to_dot())
        return 0
    print(cfa)
    # The per-location access/write sets the static passes operate on --
    # restricted to globals, since locals cannot race.
    print()
    print("global access sets per location:")
    for q in sorted(cfa.locations):
        reads = sorted(cfa.reads_at(q) & cfa.globals)
        writes = sorted(cfa.writes_at(q) & cfa.globals)
        if not reads and not writes:
            continue
        mark = "*" if cfa.is_atomic(q) else " "
        print(
            f"  loc {q}{mark} reads={{{', '.join(reads)}}} "
            f"writes={{{', '.join(writes)}}}"
        )
    return 0


def _cmd_bench(args) -> int:
    from .nesc.programs import BENCHMARKS

    rows = [
        b
        for b in BENCHMARKS
        if args.app is None or b.app_name == args.app
    ]
    status = 0
    for b in rows:
        var = b.variable.replace("_buggy", "")
        start = time.perf_counter()
        result = circ(b.app.cfa(), race_on=var)
        elapsed = time.perf_counter() - start
        verdict = "UNKNOWN" if result.unknown else "SAFE" if result.safe else "RACE"
        expected = "SAFE" if b.expect_safe else "RACE"
        mark = "ok" if verdict == expected else "UNEXPECTED"
        print(
            f"{b.key:34s} {verdict:5s} [{elapsed:6.1f}s]  "
            f"(paper: {b.paper_preds if b.paper_preds is not None else '-'} preds) {mark}"
        )
        if mark != "ok":
            status = 1
    return status


def _batch_items(args) -> list:
    """The queries of ``batch`` and ``submit``: each FILE, then the
    bundled nesC models ``--nesc`` names.  Prints an error and returns
    an empty list when there are none."""
    from .engine import BatchItem

    items = [
        BatchItem(
            model=Path(path).name,
            source=Path(path).read_text(),
            thread=args.thread,
            variables=(args.var,) if args.var else None,
        )
        for path in args.files
    ]
    if args.nesc is not None:
        from .nesc.programs import BENCHMARKS

        items.extend(
            BatchItem(
                model=b.key,
                source=b.app.thread_source(),
                variables=(b.variable.replace("_buggy", ""),),
            )
            for b in BENCHMARKS
            if not args.nesc or b.app_name == args.nesc
        )
    if not items:
        print("error: give FILE arguments and/or --nesc [APP]", file=sys.stderr)
    return items


def _print_summary(summary: dict) -> None:
    """The closing line of ``batch`` and ``submit``."""
    hit_rate = summary.get("hit_rate")
    print(
        f"\n{summary['queries']} queries: "
        f"{summary['static']} static, {summary['deduped']} deduped, "
        f"{summary['races']} race(s), {summary['unknown']} unknown; "
        + (f"cache hit rate {hit_rate:.0%}; " if hit_rate is not None else "")
        + f"{summary['wall_ms'] / 1000.0:.1f}s"
    )


def _cmd_batch(args) -> int:
    from .engine import run_batch
    from .races.report import (
        render_rows_table,
        rows_from_batch,
        rows_to_payload,
    )

    items = _batch_items(args)
    if not items:
        return EXIT_USAGE
    options = {"variant": args.variant, "k": args.k, **_budget_options(args)}
    if args.portfolio:
        options["portfolio"] = True
    report = run_batch(
        items,
        cache_dir=None if args.no_cache else args.cache,
        workers=args.workers,
        events=args.events,
        prefilter=not args.no_prefilter,
        shards=args.shards,
        shard_id=args.shard_id,
        **options,
    )
    rows = rows_from_batch(report)
    summary = {
        "queries": len(report.rows),
        "jobs": report.n_jobs,
        "static": report.n_static,
        "deduped": report.n_deduped,
        "races": len(report.races),
        "unknown": len(report.unknown),
        "cache": report.cache_stats,
        "hit_rate": round(report.hit_rate, 4),
        "wall_ms": round(report.wall_ms, 3),
    }
    if args.json:
        import json

        print(json.dumps(rows_to_payload(rows, summary=summary), indent=2))
    else:
        print(render_rows_table(rows))
        _print_summary(summary)
    return _verdict_exit(len(report.races), len(report.unknown))


def _cmd_merge_reports(args) -> int:
    import json

    from .shard.merge import ShardConflict, merge_payloads, render_merged

    payloads = []
    for path in args.files:
        try:
            payloads.append(json.loads(Path(path).read_text()))
        except ValueError as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        merged = merge_payloads(payloads)
    except ShardConflict as exc:
        # Two sound shards cannot disagree; mirroring the portfolio
        # conflict policy, this is an internal soundness error surfaced
        # loudly, never silently reconciled.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = render_merged(merged)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)
    summary = merged["summary"]
    return _verdict_exit(summary["races"], summary["unknown"])


def _cmd_serve(args) -> int:
    import asyncio

    from .serve.server import RaceServer, ServeConfig

    config = ServeConfig(
        socket=args.socket,
        host=args.host,
        port=args.port,
        cache_dir=None if args.no_cache else args.cache,
        workers=args.workers,
        memory_mb=args.memory_mb,
        qcache_flush_every=args.qcache_flush_every,
        max_client_jobs=args.max_client_jobs,
        solver_quota_s=args.solver_quota,
        events=args.events,
        prefilter=not args.no_prefilter,
    )
    server = RaceServer(config)
    where = args.socket or f"{args.host}:{args.port}"
    print(f"repro-race serve: listening on {where}", file=sys.stderr)
    asyncio.run(server.serve_forever())
    return EXIT_OK


def _cmd_submit(args) -> int:
    import json
    from dataclasses import asdict

    from .races.report import ReportRow, render_rows_table
    from .serve.client import ServeError, submit_sync

    items = [asdict(item) for item in _batch_items(args)]
    if not items:
        return EXIT_USAGE
    options = {"variant": args.variant, "k": args.k, **_budget_options(args)}
    mode = "portfolio" if args.portfolio else "batch"

    def on_event(frame):
        print(json.dumps(frame), file=sys.stderr)

    try:
        result = submit_sync(
            items,
            mode=mode,
            options=options,
            socket=args.socket,
            host=args.host,
            port=args.port,
            name=args.client,
            on_event=on_event if args.events else None,
            stream=bool(args.events),
        )
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ConnectionError, OSError) as exc:
        # Daemon down/unreachable is transient, not a verdict: exit 3 so
        # retry loops can tell it apart from a race or UNKNOWN.
        print(f"error: cannot reach daemon: {exc}", file=sys.stderr)
        return EXIT_BUDGET

    summary = result.get("summary", {})
    if args.json:
        payload = {
            "schema": result.get("schema"),
            "rows": result.get("rows", []),
            "summary": summary,
        }
        print(json.dumps(payload, indent=2))
    else:
        rows = [
            ReportRow(
                model=r["model"],
                variable=r["variable"],
                verdict=r["verdict"],
                source=r["source"],
                time_ms=r["time_ms"],
                detail=r.get("detail"),
            )
            for r in result.get("rows", [])
        ]
        print(render_rows_table(rows))
        _print_summary(summary)
    return int(result.get("exit_code", EXIT_OK))


def _cmd_fuzz(args) -> int:
    from .fuzz.diff import (
        HARD_CLASSES,
        FuzzConfig,
        run_fuzz,
        write_corpus,
    )
    from .fuzz.gen import GenConfig
    from .races.report import render_rows_table, rows_to_payload

    config = FuzzConfig(
        gen=GenConfig(),
        max_threads=args.threads,
        max_states=args.max_states,
        circ_options=FuzzConfig().circ_options + tuple(_budget_options(args).items()),
        shrink_failures=not args.no_shrink,
    )
    shrink_classes = (
        frozenset(HARD_CLASSES | {"incompleteness"})
        if args.shrink_all
        else HARD_CLASSES
    )
    report = run_fuzz(
        seed=args.seed,
        iters=args.iters,
        config=config,
        events=args.events,
        shrink_classes=shrink_classes,
    )

    by_class: dict[str, int] = {}
    for _, _, d in report.disagreements:
        by_class[d.classification] = by_class.get(d.classification, 0) + 1
    summary = {
        "seed": args.seed,
        "iters": args.iters,
        "oracle": report.oracle_counts,
        "disagreements": by_class,
        "hard": len(report.hard),
        "elapsed_s": round(report.elapsed_seconds, 2),
    }
    if args.corpus:
        written = write_corpus(report, args.corpus)
        summary["corpus_files"] = [str(p) for p in written]

    if args.json:
        import json

        print(json.dumps(rows_to_payload(report.rows, summary=summary), indent=2))
    else:
        if args.verbose:
            print(render_rows_table(report.rows))
            print()
        print(
            f"{args.iters} programs (seeds {args.seed}.."
            f"{args.seed + args.iters - 1}): oracle {report.oracle_counts}; "
            f"disagreements {by_class or 'none'}; "
            f"{report.elapsed_seconds:.1f}s"
        )
        for seed, source, d in report.hard:
            print(
                f"\nHARD {d.classification} on path {d.path} "
                f"(seed {seed}): tool={d.tool_verdict} "
                f"oracle={d.oracle_verdict} -- {d.detail}"
            )
            print(source)
    return 1 if report.hard else 0


def _add_variant_argument(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--variant",
        choices=("omega", "circ"),
        default="omega",
        help="omega-CIRC with the infinity-check (default) or plain CIRC",
    )


def _add_budget_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--max-iterations",
        type=int,
        help="CIRC refinement iteration budget per query (UNKNOWN when hit)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        help="CIRC wall-clock budget per query (UNKNOWN when hit)",
    )


def _budget_options(args) -> dict:
    """The :func:`~repro.circ.circ` options the budget flags set."""
    budgets = {"max_iterations": args.max_iterations, "timeout_s": args.timeout}
    return {name: value for name, value in budgets.items() if value is not None}


def _add_query_arguments(p: argparse.ArgumentParser) -> None:
    """The query flags ``batch`` and ``submit`` share."""
    p.add_argument("files", nargs="*", metavar="FILE", help="mini-C programs")
    p.add_argument(
        "--nesc",
        nargs="?",
        const="",
        metavar="APP",
        help="include the bundled nesC models (optionally one app)",
    )
    p.add_argument("--var", help="check one global (default: every written global)")
    p.add_argument("--thread", help="thread name for multi-thread files")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    _add_variant_argument(p)
    p.add_argument("-k", type=int, default=1, help="initial counter bound")
    _add_budget_arguments(p)
    p.add_argument(
        "--portfolio",
        action="store_true",
        help="resolve each job through the analysis portfolio "
        "(racer, absint and CIRC; a confident verdict cancels the rest)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-race",
        description="Race checking by context inference (PLDI 2004)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="CIRC verification (unbounded threads)")
    p.add_argument("file")
    p.add_argument("--var", help="global variable to check")
    p.add_argument("--all", action="store_true", help="check every written global")
    p.add_argument("--thread", help="thread name for multi-thread files")
    _add_variant_argument(p)
    p.add_argument("-k", type=int, default=1, help="initial counter bound")
    p.add_argument("-v", "--verbose", action="store_true")
    p.add_argument(
        "--stats",
        action="store_true",
        help="print solver-level profiling (per-stage queries, cache, "
        "session; a formula with one clause of literals counts as one "
        "conjunction query per disjunct tried) and the ArgStore reuse table",
    )
    p.add_argument("--report", metavar="FILE", help="write a Markdown audit report")
    p.add_argument(
        "--no-prefilter",
        action="store_true",
        help="run CIRC on every variable, skipping the static pre-analysis",
    )
    _add_budget_arguments(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "static",
        help="static pre-analysis only: per-variable race verdicts",
    )
    p.add_argument("file")
    p.add_argument("--var", help="classify a single global")
    p.add_argument("--thread", help="thread name for multi-thread files")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_static)

    p = sub.add_parser("explore", help="explicit-state search (fixed threads)")
    p.add_argument("file")
    p.add_argument("--var", help="race variable")
    p.add_argument("--errors", action="store_true", help="check assertions instead")
    p.add_argument("--threads", type=int, default=2)
    p.add_argument(
        "--max-states",
        type=int,
        default=200_000,
        help="state budget; the threads are interchangeable, so it counts "
        "one state per permutation of the same thread states",
    )
    p.add_argument("--thread", help="thread name")
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser(
        "baselines",
        help="comparison analyses: racer, absint, lockset, thread-modular",
    )
    p.add_argument("file")
    p.add_argument("--var")
    p.add_argument("--thread")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_baselines)

    p = sub.add_parser(
        "portfolio",
        help="static detectors, then CIRC; a confident verdict cancels the rest",
    )
    p.add_argument("file")
    p.add_argument("--var", help="global variable to check")
    p.add_argument("--thread", help="thread name for multi-thread files")
    p.add_argument(
        "--cache",
        default=".repro-cache",
        metavar="DIR",
        help="artifact cache / win-rate book directory (default: .repro-cache)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the artifact cache and win-rate learning",
    )
    p.add_argument(
        "--events", metavar="FILE", help="append JSONL telemetry to FILE"
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="print the per-analysis report table",
    )
    _add_budget_arguments(p)
    p.set_defaults(func=_cmd_portfolio)

    p = sub.add_parser(
        "redundant", help="find synchronization unnecessary for race freedom"
    )
    p.add_argument("file")
    p.add_argument("--var", required=True)
    p.add_argument("--thread")
    p.set_defaults(func=_cmd_redundant)

    p = sub.add_parser("simulate", help="random-schedule smoke testing")
    p.add_argument("file")
    p.add_argument("--var", help="race variable")
    p.add_argument("--errors", action="store_true")
    p.add_argument("--threads", type=int, default=2)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--max-steps", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--thread")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("cfa", help="dump the control flow automaton")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true", help="Graphviz output")
    p.add_argument("--thread")
    p.set_defaults(func=_cmd_cfa)

    p = sub.add_parser("bench", help="run the bundled nesC models")
    p.add_argument("app", nargs="?", help="secureTosBase | surge | sense")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "batch",
        help="verify many queries through the caching/parallel engine",
    )
    _add_query_arguments(p)
    p.add_argument(
        "--workers",
        type=int,
        metavar="N",
        help="worker processes (default: CPU count; 1 = in-process)",
    )
    p.add_argument(
        "--cache",
        default=".repro-cache",
        metavar="DIR",
        help="artifact cache directory (default: .repro-cache)",
    )
    p.add_argument(
        "--no-cache", action="store_true", help="disable the artifact cache"
    )
    p.add_argument(
        "--events", metavar="FILE", help="append JSONL telemetry to FILE"
    )
    p.add_argument(
        "--no-prefilter",
        action="store_true",
        help="plan a CIRC job for every variable",
    )
    p.add_argument(
        "--shards",
        type=int,
        metavar="N",
        help="partition jobs into N digest buckets (see docs/SHARDING.md)",
    )
    p.add_argument(
        "--shard-id",
        type=int,
        metavar="I",
        help="dry-run mode: run only bucket I of an N-way partition "
        "(requires --shards; merge the per-shard --json payloads with "
        "'merge-reports')",
    )
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser(
        "merge-reports",
        help="merge per-shard report-v1 JSON payloads deterministically",
    )
    p.add_argument(
        "files", nargs="+", metavar="REPORT", help="report-v1 JSON files"
    )
    p.add_argument(
        "-o", "--out", metavar="FILE", help="write the merged payload here"
    )
    p.set_defaults(func=_cmd_merge_reports)

    p = sub.add_parser(
        "serve",
        help="long-running verification daemon (NDJSON over a socket)",
    )
    p.add_argument(
        "--socket", metavar="PATH", help="listen on a Unix socket at PATH"
    )
    p.add_argument(
        "--host", default="127.0.0.1", help="TCP bind address (default: 127.0.0.1)"
    )
    p.add_argument(
        "--port", type=int, default=7734, help="TCP port (default: 7734; 0 = ephemeral)"
    )
    p.add_argument(
        "--cache",
        default=".repro-cache",
        metavar="DIR",
        help="artifact cache directory (default: .repro-cache)",
    )
    p.add_argument(
        "--no-cache", action="store_true", help="disable the artifact cache"
    )
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="verification worker threads (default: 2)",
    )
    p.add_argument(
        "--memory-mb",
        type=float,
        default=512.0,
        metavar="MB",
        help="hot-context memory ceiling before LRU eviction (default: 512)",
    )
    p.add_argument(
        "--qcache-flush-every",
        type=int,
        default=256,
        metavar="N",
        help="spill the SMT warm tier every N new entries (default: 256)",
    )
    p.add_argument(
        "--max-client-jobs",
        type=int,
        default=4,
        metavar="N",
        help="per-client concurrent job cap (default: 4)",
    )
    p.add_argument(
        "--solver-quota",
        type=float,
        metavar="SECONDS",
        help="per-client cumulative solver-time quota "
        "(over-quota jobs yield typed UNKNOWN verdicts)",
    )
    p.add_argument(
        "--events", metavar="FILE", help="append JSONL telemetry to FILE"
    )
    p.add_argument(
        "--no-prefilter",
        action="store_true",
        help="plan a CIRC job for every variable",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "submit",
        help="send programs to a running serve daemon",
    )
    _add_query_arguments(p)
    p.add_argument(
        "--socket", metavar="PATH", help="connect to a Unix socket at PATH"
    )
    p.add_argument(
        "--host", default="127.0.0.1", help="daemon address (default: 127.0.0.1)"
    )
    p.add_argument(
        "--port", type=int, default=7734, help="daemon TCP port (default: 7734)"
    )
    p.add_argument(
        "--client", metavar="NAME", help="client name for daemon telemetry"
    )
    p.add_argument(
        "--events",
        action="store_true",
        help="stream per-job telemetry frames to stderr",
    )
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing of every verdict path vs the oracle",
    )
    p.add_argument("--seed", type=int, default=0, help="first generator seed")
    p.add_argument(
        "--iters", type=int, default=100, help="number of programs to fuzz"
    )
    p.add_argument(
        "--threads",
        type=int,
        default=3,
        metavar="N",
        help="oracle exploration bound (threads)",
    )
    p.add_argument(
        "--max-states",
        type=int,
        default=60_000,
        help="oracle per-bound state budget",
    )
    p.add_argument(
        "--events", metavar="FILE", help="append JSONL telemetry to FILE"
    )
    p.add_argument(
        "--corpus",
        metavar="DIR",
        help="persist minimized reproducers into DIR",
    )
    p.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failing programs unminimized",
    )
    p.add_argument(
        "--shrink-all",
        action="store_true",
        help="also minimize logged (incompleteness) disagreements",
    )
    _add_budget_arguments(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="print the per-path report table",
    )
    p.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0  # downstream pager closed the pipe
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SyntaxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CircError as exc:
        # Never a verdict: an uncaught exception would exit 1, "race".
        print(f"error: internal CIRC failure: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
