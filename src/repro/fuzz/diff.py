"""Differential runner: every verdict path against the reference oracle.

Each generated program is pushed through nine verdict paths -- plain
CIRC and omega-CIRC (``circ()`` with ``variant="circ"`` and
``variant="omega"``), ``check_race(prefilter=True)``, the batch engine
cold and warm (two :func:`~repro.engine.verify_one` calls, each a
one-job batch, against one fresh cache directory), the
lockset/flowcheck baselines, the two-phase
``racer`` detector, and the cross-cancelling ``portfolio`` driver --
and every verdict is compared against the :mod:`repro.fuzz.oracle`
verdict.  The paths after ``omega`` run the library default, omega-CIRC.

Disagreement taxonomy (``HARD_CLASSES`` fail the build):

* ``unsoundness`` -- a path claimed Safe while a concrete race witness
  exists (from the oracle or replay-validated from another path).
* ``witness`` -- a path produced a race whose interleaving does not
  replay: the verdict may even be right, but the evidence is forged.
* ``oracle`` -- a path produced a *replayed* race inside a bound the
  oracle certified safe: an internal contradiction, someone is broken.
* ``crash`` -- a path raised an exception on a well-formed program: an
  internal error, since giving up is an ``unknown`` verdict.
* ``incompleteness`` -- a path said Race/Unknown where the oracle
  proved safety (logged: expected for the approximate baselines, e.g.
  lockset on the paper's Figure 1 monitor idiom).
* ``budget`` -- either side ran out of budget before a comparison was
  possible (logged).

Safe claims are interpreted at the strength each path advertises: the
CIRC-family paths, both warning baselines, the racer (whose ``safe``
only ever comes from phase-1 unbounded kill-rule proofs), and the
portfolio (which only relays its members' confident claims) all claim
safety for *unboundedly many* threads, so any concrete witness at any
thread count convicts them regardless of the oracle's certificate
bound.  The abstract-interpretation pass has no standalone path: it can
never answer ``race``, so it is exercised inside the portfolio instead
of trivially failing the all-paths-agree discipline on racy programs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from ..baselines.flowcheck import flow_analysis_cfa
from ..baselines.lockset import lockset_analysis
from ..cfa.cfa import CFA
from ..circ.circ import circ
from ..circ.result import CircResult, CircSafe, CircUnsafe
from ..engine.engine import verify_one
from ..engine.events import EventLog
from ..exec.interp import MultiProgram, replay
from ..lang import ast as A
from ..lang.lower import LowerError, lower_thread
from ..races.report import ReportRow
from ..static.prefilter import prefilter_check
from .gen import GenConfig, GeneratedProgram, generate
from .oracle import OracleVerdict, oracle_check

__all__ = [
    "PATHS",
    "HARD_CLASSES",
    "FuzzConfig",
    "PathResult",
    "Disagreement",
    "CheckOutcome",
    "FuzzReport",
    "check_one",
    "run_fuzz",
    "corpus_entry",
    "parse_corpus_entry",
    "write_corpus",
]

#: The verdict paths under differential test, in reporting order.
PATHS = (
    "circ",
    "omega",
    "prefilter",
    "engine-cold",
    "engine-warm",
    "lockset",
    "flow",
    "racer",
    "portfolio",
)

#: Disagreement classes that must fail a fuzz run (and the CI build).
HARD_CLASSES = frozenset({"unsoundness", "witness", "oracle", "crash"})


@dataclass(frozen=True)
class FuzzConfig:
    """Budgets and generator parameters for one fuzzing campaign."""

    gen: GenConfig = field(default_factory=GenConfig)
    #: oracle exploration bound (threads) and per-bound state budget
    max_threads: int = 3
    max_states: int = 60_000
    #: forwarded to every circ-family path.  The wall-clock cap keeps a
    #: campaign bounded: a program whose refinement diverges degrades to
    #: a logged ``unknown`` instead of wedging the whole run (and a
    #: timeout can never mask unsoundness -- only ``safe`` claims can).
    circ_options: tuple = (
        ("max_outer", 25),
        ("max_inner", 25),
        ("timeout_s", 30.0),
    )
    #: shrink failing programs before reporting/persisting
    shrink_failures: bool = True

    def circ_kwargs(self) -> dict:
        return dict(self.circ_options)


@dataclass(frozen=True)
class PathResult:
    """One verdict path's outcome on one program."""

    path: str
    verdict: str  # 'safe' | 'race' | 'unknown' | 'crash'
    time_ms: float
    n_threads: int = 0
    steps: tuple = ()
    detail: str = ""


@dataclass(frozen=True)
class Disagreement:
    """One classified divergence between a verdict path and the oracle."""

    path: str
    classification: str
    tool_verdict: str
    oracle_verdict: str
    detail: str = ""

    @property
    def hard(self) -> bool:
        return self.classification in HARD_CLASSES


@dataclass
class CheckOutcome:
    """Everything :func:`check_one` learned about one program."""

    oracle: OracleVerdict
    paths: list[PathResult]
    disagreements: list[Disagreement]

    @property
    def hard(self) -> list[Disagreement]:
        return [d for d in self.disagreements if d.hard]


@dataclass
class FuzzReport:
    """Outcome of a fuzzing campaign (``repro-race fuzz``)."""

    seed: int
    iters: int
    rows: list[ReportRow] = field(default_factory=list)
    disagreements: list[tuple[int, str, Disagreement]] = field(
        default_factory=list
    )  # (program seed, minimized source, disagreement)
    oracle_counts: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def hard(self) -> list[tuple[int, str, Disagreement]]:
        return [t for t in self.disagreements if t[2].hard]

    @property
    def ok(self) -> bool:
        return not self.hard


def _run_paths(cfa: CFA, race_var: str, config: FuzzConfig) -> list[PathResult]:
    """Execute every verdict path of :data:`PATHS` on one lowered
    thread template."""
    import tempfile

    from ..portfolio.driver import run_portfolio
    from ..portfolio.racer import racer_check

    opts = config.circ_kwargs()
    results: list[PathResult] = []

    def run(path: str, fn) -> None:
        start = time.perf_counter()
        try:
            verdict, n, steps, detail = fn()
        except Exception as exc:  # noqa: BLE001 -- a fuzzer reports, never dies
            verdict, n, steps, detail = "crash", 0, (), repr(exc)
        results.append(
            PathResult(
                path=path,
                verdict=verdict,
                time_ms=(time.perf_counter() - start) * 1000.0,
                n_threads=n,
                steps=steps,
                detail=detail,
            )
        )

    def from_circ(result: CircResult) -> tuple:
        if isinstance(result, CircSafe):
            return "safe", 0, (), ""
        if isinstance(result, CircUnsafe):
            return "race", result.n_threads, tuple(result.steps), ""
        return "unknown", 0, (), result.reason

    def run_circ(variant: str) -> tuple:
        return from_circ(
            circ(cfa, race_on=race_var, **{**opts, "variant": variant})
        )

    run("circ", lambda: run_circ("circ"))
    run("omega", lambda: run_circ("omega"))
    run(
        "prefilter",
        lambda: from_circ(prefilter_check(cfa, race_var, **opts)),
    )
    with tempfile.TemporaryDirectory(prefix="fuzz-cache-") as cache_dir:
        run(
            "engine-cold",
            lambda: from_circ(
                verify_one(cfa, race_var, cache_dir=cache_dir, **opts)
            ),
        )
        run(
            "engine-warm",
            lambda: from_circ(
                verify_one(cfa, race_var, cache_dir=cache_dir, **opts)
            ),
        )
    run(
        "lockset",
        lambda: (
            ("race", 0, (), "lock discipline violated")
            if lockset_analysis(cfa).warns_on(race_var)
            else ("safe", 0, (), "lock discipline satisfied")
        ),
    )
    run(
        "flow",
        lambda: (
            ("race", 0, (), "non-atomic access site")
            if flow_analysis_cfa(cfa, [race_var]).warns_on(race_var)
            else ("safe", 0, (), "all access sites atomic or read-only")
        ),
    )

    def from_racer() -> tuple:
        r = racer_check(
            cfa,
            race_var,
            max_threads=config.max_threads,
            max_states=config.max_states,
        )
        return r.verdict, r.n_threads, r.witness, r.reason

    run("racer", from_racer)

    def from_portfolio() -> tuple:
        # Serial, cancelling portfolio: with cancellation on, at most one
        # confident verdict exists per run, so a PortfolioConflict here
        # would mean a witness failed replay -- a genuine crash-class
        # finding, which the generic handler in run() reports as such.
        report = run_portfolio(cfa, race_var, **opts)
        return (
            report.verdict,
            report.n_threads,
            report.witness,
            f"won by {report.winner or 'none'}",
        )

    run("portfolio", from_portfolio)
    return results


def _classify(
    cfa: CFA, race_var: str, paths: list[PathResult], oracle: OracleVerdict
) -> list[Disagreement]:
    """Compare every path verdict against the strongest available evidence."""
    disagreements: list[Disagreement] = []

    # Replay-validate every witness-carrying race verdict first: a forged
    # witness is a hard failure on its own, and a validated one doubles
    # as race evidence even when the oracle ran out of budget.
    validated: dict[str, bool] = {}
    for p in paths:
        if p.verdict == "race" and p.steps:
            mp = MultiProgram.symmetric(cfa, max(1, p.n_threads))
            ok, _ = replay(mp, list(p.steps), race_on=race_var)
            validated[p.path] = ok
            if not ok:
                disagreements.append(
                    Disagreement(
                        path=p.path,
                        classification="witness",
                        tool_verdict="race",
                        oracle_verdict=oracle.verdict,
                        detail=f"{p.n_threads}-thread witness does not replay",
                    )
                )

    race_evidence = oracle.is_race or any(validated.values())
    witness_bound = oracle.n_threads if oracle.is_race else 0
    for p in paths:
        if validated.get(p.path):
            witness_bound = max(witness_bound, p.n_threads)

    for p in paths:
        if validated.get(p.path) is False:
            continue  # already flagged as a forged witness above
        if p.verdict == "crash":
            disagreements.append(
                Disagreement(
                    path=p.path,
                    classification="crash",
                    tool_verdict="crash",
                    oracle_verdict=oracle.verdict,
                    detail=p.detail,
                )
            )
        elif p.verdict == "safe" and race_evidence:
            disagreements.append(
                Disagreement(
                    path=p.path,
                    classification="unsoundness",
                    tool_verdict="safe",
                    oracle_verdict="race",
                    detail=(
                        f"concrete witness with {witness_bound} thread(s) "
                        f"refutes the safety claim ({p.detail})"
                    ),
                )
            )
        elif p.verdict == "race" and oracle.is_safe:
            cert = oracle.certificate
            covered = cert is not None and cert.covers(p.n_threads)
            if p.steps and covered and validated.get(p.path):
                disagreements.append(
                    Disagreement(
                        path=p.path,
                        classification="oracle",
                        tool_verdict="race",
                        oracle_verdict="safe",
                        detail=(
                            f"replayed {p.n_threads}-thread witness inside "
                            f"a certified bound ({cert.describe()})"
                        ),
                    )
                )
            else:
                disagreements.append(
                    Disagreement(
                        path=p.path,
                        classification="incompleteness",
                        tool_verdict="race",
                        oracle_verdict="safe",
                        detail=p.detail or "warning on an oracle-safe program",
                    )
                )
        elif p.verdict == "unknown" and oracle.is_safe:
            disagreements.append(
                Disagreement(
                    path=p.path,
                    classification="incompleteness",
                    tool_verdict="unknown",
                    oracle_verdict="safe",
                    detail=p.detail,
                )
            )
        elif oracle.verdict == "budget" and p.verdict in ("safe", "race"):
            disagreements.append(
                Disagreement(
                    path=p.path,
                    classification="budget",
                    tool_verdict=p.verdict,
                    oracle_verdict="budget",
                    detail="oracle abstained; verdict unchecked",
                )
            )

    return disagreements


def check_one(
    program: A.Program,
    thread: str = "t0",
    race_var: str = "x",
    config: FuzzConfig | None = None,
    events: EventLog | None = None,
) -> CheckOutcome:
    """Run the oracle plus every verdict path of :data:`PATHS` on one
    program.

    This is the unit of work shared by :func:`run_fuzz`, the shrinker's
    still-failing predicate, and the committed-corpus replay test.
    """
    config = config or FuzzConfig()
    events = events or EventLog()
    oracle = oracle_check(
        program,
        thread=thread,
        race_var=race_var,
        max_threads=config.max_threads,
        max_states=config.max_states,
    )
    events.emit(
        "fuzz_oracle",
        verdict=oracle.verdict,
        certificate=oracle.certificate.describe()
        if oracle.certificate
        else None,
        states=oracle.states_explored,
    )
    cfa = lower_thread(program, thread)
    paths = _run_paths(cfa, race_var, config)
    for p in paths:
        events.emit(
            "fuzz_path",
            path=p.path,
            verdict=p.verdict,
            ms=round(p.time_ms, 2),
        )
    disagreements = _classify(cfa, race_var, paths, oracle)
    for d in disagreements:
        events.emit(
            "fuzz_disagreement",
            path=d.path,
            classification=d.classification,
            tool=d.tool_verdict,
            oracle=d.oracle_verdict,
            hard=d.hard,
        )
    return CheckOutcome(oracle=oracle, paths=paths, disagreements=disagreements)


def _still_fails(
    original: Disagreement,
    thread: str,
    race_var: str,
    config: FuzzConfig,
):
    """Predicate for the shrinker: same path, same classification."""

    def predicate(candidate: A.Program) -> bool:
        try:
            outcome = check_one(
                candidate, thread=thread, race_var=race_var, config=config
            )
        except (LowerError, ValueError, KeyError):
            return False
        return any(
            d.path == original.path
            and d.classification == original.classification
            for d in outcome.disagreements
        )

    return predicate


def run_fuzz(
    seed: int = 0,
    iters: int = 100,
    config: FuzzConfig | None = None,
    events: EventLog | str | None = None,
    shrink_classes: frozenset[str] = HARD_CLASSES,
) -> FuzzReport:
    """Fuzz ``iters`` programs starting at ``seed``.

    Programs are generated at seeds ``seed .. seed+iters-1``.  Any
    disagreement in ``shrink_classes`` is minimized with the delta
    debugger before being reported (hard classes by default; pass a
    wider set to also shrink logged classes into corpus candidates).
    """
    from .shrink import shrink

    config = config or FuzzConfig()
    if isinstance(events, str):
        events = EventLog(events)
    events = events or EventLog()
    start = time.perf_counter()
    report = FuzzReport(seed=seed, iters=iters)
    events.emit("fuzz_started", seed=seed, iters=iters)

    for i in range(iters):
        program_seed = seed + i
        gen_config = replace(
            config.gen, n_threads=1 + program_seed % 2
        )
        gp: GeneratedProgram = generate(program_seed, gen_config)
        events.emit(
            "fuzz_program", seed=program_seed, chars=len(gp.source)
        )
        outcome = check_one(
            gp.program,
            thread=gp.thread,
            race_var=gp.race_var,
            config=config,
            events=events,
        )
        report.oracle_counts[outcome.oracle.verdict] = (
            report.oracle_counts.get(outcome.oracle.verdict, 0) + 1
        )
        for p in outcome.paths:
            report.rows.append(
                ReportRow(
                    model=f"fuzz-{program_seed}",
                    variable=gp.race_var,
                    verdict=p.verdict,
                    source=p.path,
                    time_ms=p.time_ms,
                    detail=p.detail,
                )
            )
        for d in outcome.disagreements:
            source = gp.source
            if config.shrink_failures and d.classification in shrink_classes:
                shrunk = shrink(
                    gp.program,
                    _still_fails(d, gp.thread, gp.race_var, config),
                )
                from ..lang.unparse import unparse

                source = unparse(shrunk)
                events.emit(
                    "fuzz_shrunk",
                    seed=program_seed,
                    path=d.path,
                    before=len(gp.source),
                    after=len(source),
                )
            report.disagreements.append((program_seed, source, d))

    report.elapsed_seconds = time.perf_counter() - start
    by_class: dict[str, int] = {}
    for _, _, d in report.disagreements:
        by_class[d.classification] = by_class.get(d.classification, 0) + 1
    events.emit(
        "fuzz_summary",
        iters=iters,
        oracle=report.oracle_counts,
        disagreements=by_class,
        hard=len(report.hard),
        elapsed_s=round(report.elapsed_seconds, 2),
    )
    return report


# -- committed corpus ---------------------------------------------------------


def corpus_entry(seed: int, disagreement: Disagreement, source: str) -> str:
    """Render one reproducer as committable mini-C source.

    The metadata rides in ``//`` comment lines the lexer already skips,
    so the file is directly consumable by every FILE-taking subcommand.
    """
    return (
        f"// fuzz reproducer (seed {seed})\n"
        f"// path: {disagreement.path}\n"
        f"// classification: {disagreement.classification}\n"
        f"// tool: {disagreement.tool_verdict}"
        f"  oracle: {disagreement.oracle_verdict}\n"
        f"// {disagreement.detail}\n"
        f"{source}"
        + ("" if source.endswith("\n") else "\n")
    )


def parse_corpus_entry(text: str) -> dict:
    """Recover the metadata of a :func:`corpus_entry` file."""
    meta: dict = {}
    for line in text.splitlines():
        if not line.startswith("//"):
            break
        body = line[2:].strip()
        for key in ("path", "classification"):
            if body.startswith(f"{key}:"):
                meta[key] = body.split(":", 1)[1].strip()
        if body.startswith("tool:"):
            parts = body.replace("tool:", "").replace("oracle:", "|").split("|")
            meta["tool"] = parts[0].strip()
            meta["oracle"] = parts[1].strip() if len(parts) > 1 else ""
    return meta


def write_corpus(report: FuzzReport, corpus_dir) -> list:
    """Persist every minimized disagreement of ``report`` as corpus files.

    One file per (seed, path, classification), named so re-runs
    overwrite rather than accumulate.  Returns the written paths.
    """
    from pathlib import Path

    corpus = Path(corpus_dir)
    corpus.mkdir(parents=True, exist_ok=True)
    written = []
    for seed, source, d in report.disagreements:
        name = f"{d.classification}-{d.path}-s{seed}.minc"
        path = corpus / name
        path.write_text(corpus_entry(seed, d, source))
        written.append(path)
    return written
