"""End-to-end engine behavior: planning, caching, crash recovery."""

import hashlib
import json
import sys
from collections import Counter

import pytest

import repro.engine.engine as engine_module
import repro.lang.lower as lower
from repro.circ.circ import circ
from repro.engine import (
    BatchItem,
    EventLog,
    Job,
    options_fingerprint,
    plan,
    run_batch,
    verify_one,
)
from repro.engine.cache import ArtifactCache
from repro.lang.lexer import LexError
from repro.lang.parser import ParseError
from repro.lang.lower import lower_source
from repro.portfolio.winrate import WinRateBook
from repro.smt.qcache import SAT_CACHE, QueryCache

BELT = """
global int m, x;
thread t {
  while (1) {
    lock(m);
    atomic { x = x + 1; }
    unlock(m);
  }
}
"""

TAS = """
global int x, state;
thread main {
  local int old;
  while (1) {
    atomic { old = state; if (state == 0) { state = 1; } }
    if (old == 0) { x = x + 1; state = 0; }
  }
}
"""

RACY = """
global int x;
thread t {
  while (1) { x = x + 1; }
}
"""

ITEMS = [
    BatchItem(model="belt", source=BELT, variables=("x",)),
    BatchItem(model="tas", source=TAS, variables=("x", "state")),
    BatchItem(model="racy", source=RACY, variables=("x",)),
]


def expected_verdicts():
    out = {}
    for item in ITEMS:
        cfa = lower_source(item.source, item.thread)
        for v in item.variables:
            result = circ(cfa, race_on=v)
            out[(item.model, v)] = "safe" if result.safe else "race"
    return out


def test_batch_matches_serial_circ(tmp_path):
    """Engine verdicts (static pruning + cache + pool) equal plain circ."""
    report = run_batch(ITEMS, cache_dir=str(tmp_path), workers=2)
    got = {(r.model, r.variable): r.verdict for r in report.rows}
    assert got == expected_verdicts()


def test_second_run_hits_cache(tmp_path):
    cold = run_batch(ITEMS, cache_dir=str(tmp_path), workers=1)
    warm = run_batch(ITEMS, cache_dir=str(tmp_path), workers=1)
    assert {(r.model, r.variable): r.verdict for r in warm.rows} == {
        (r.model, r.variable): r.verdict for r in cold.rows
    }
    assert warm.hit_rate >= 0.9
    assert all(
        r.source in ("cache", "static") for r in warm.rows
    ), [r.source for r in warm.rows]


def test_static_prune_discharges_protected_variable(tmp_path):
    report = run_batch(
        [BatchItem(model="belt", source=BELT, variables=("x",))],
        cache_dir=str(tmp_path),
    )
    (row,) = report.rows
    assert row.verdict == "safe" and row.source == "static"
    assert report.n_jobs == 0  # nothing was spawned


def test_no_prefilter_forces_jobs():
    report = run_batch(
        [BatchItem(model="belt", source=BELT, variables=("x",))],
        prefilter=False,
        workers=1,
    )
    (row,) = report.rows
    assert row.verdict == "safe" and row.source == "circ"


def test_identical_slices_dedup_to_one_job():
    """Two models whose slices for x coincide verify once."""
    report = run_batch(
        [
            BatchItem(model="a", source=TAS, variables=("x",)),
            BatchItem(model="b", source=TAS, variables=("x",)),
        ],
        workers=1,
    )
    assert report.n_jobs == 1
    assert report.n_deduped == 1
    assert [r.verdict for r in report.rows] == ["safe", "safe"]


def test_rows_keep_input_order():
    report = run_batch(ITEMS, workers=1)
    assert [(r.model, r.variable) for r in report.rows] == [
        (item.model, v) for item in ITEMS for v in item.variables
    ]


@pytest.mark.parametrize("portfolio", [False, True])
def test_in_process_batch_lowers_each_program_once(monkeypatch, tmp_path, portfolio):
    """The planner's CFA goes with each job, so a job run in-process
    never lowers its program again; jobs planned from the plan index,
    which carry no CFA, share one lowering of their program."""
    lowered = []
    real = lower.lower_source

    def counting(source, thread_name=None):
        lowered.append(source)
        return real(source, thread_name)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "lower_source", None) is real:
            monkeypatch.setattr(module, "lower_source", counting)
    report = run_batch(ITEMS, workers=1, portfolio=portfolio)
    assert report.n_jobs == 3  # tas x, tas state and racy x reach a job
    assert sorted(lowered) == sorted(item.source for item in ITEMS)

    # Options are not in the plan key: after a batch in the other mode,
    # every plan is read from the index and every verdict misses.
    run_batch(ITEMS, cache_dir=str(tmp_path), workers=1, portfolio=not portfolio)
    lowered.clear()
    report = run_batch(ITEMS, cache_dir=str(tmp_path), workers=1, portfolio=portfolio)
    assert report.cache_stats["misses"] == 3
    assert sorted(lowered) == sorted([TAS, RACY])  # belt's x is static


def test_non_ascii_digit_is_a_lex_error_with_its_position():
    source = "global int x;\nthread t {\n  x = ²;\n}\n"
    with pytest.raises(LexError, match="unexpected character '²' at line 3:7"):
        run_batch([BatchItem(model="sup", source=source)], workers=1)


def test_budget_exhaustion_reports_unknown():
    report = run_batch(
        [BatchItem(model="tas", source=TAS, variables=("x",))],
        prefilter=False,
        workers=1,
        max_iterations=1,
    )
    (row,) = report.rows
    assert row.verdict == "unknown"
    assert "budget" in row.detail
    assert report.unknown == [row]


def test_unknown_is_not_cached_as_verdict(tmp_path):
    """A budget UNKNOWN must not poison the cache: a repeat query with
    the same budget retries instead of being served a cached give-up."""
    run_batch(
        [BatchItem(model="tas", source=TAS, variables=("x",))],
        cache_dir=str(tmp_path),
        prefilter=False,
        workers=1,
        max_iterations=1,
    )
    again = run_batch(
        [BatchItem(model="tas", source=TAS, variables=("x",))],
        cache_dir=str(tmp_path),
        prefilter=False,
        workers=1,
        max_iterations=1,
    )
    (row,) = again.rows
    assert row.source != "cache"  # the give-up was not served back
    # A retry with an adequate budget then verifies (and caches).
    ok = run_batch(
        [BatchItem(model="tas", source=TAS, variables=("x",))],
        cache_dir=str(tmp_path),
        prefilter=False,
        workers=1,
    )
    assert ok.rows[0].verdict == "safe"


def test_events_jsonl_written(tmp_path):
    path = tmp_path / "events.jsonl"
    run_batch(ITEMS, cache_dir=str(tmp_path / "c"), events=str(path))
    lines = [json.loads(ln) for ln in path.read_text().splitlines()]
    kinds = {e["event"] for e in lines}
    assert "batch_started" in kinds
    assert "job_planned" in kinds
    assert "batch_summary" in kinds
    assert all("t" in e for e in lines)


@pytest.mark.parametrize(
    "item, error",
    [
        (BatchItem("sup", "global int x;\nthread t {\n  x = ²;\n}\n"), LexError),
        (BatchItem("open", "global int x;\nthread t {\n  x = 1;\n"), ParseError),
        (BatchItem("racy", RACY, variables=("nope",)), ValueError),
    ],
)
def test_events_file_closed_when_planning_raises(tmp_path, monkeypatch, item, error):
    opened, closed = [], []

    class Recorded(EventLog):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

        def close(self):
            closed.append(self)
            super().close()

    monkeypatch.setattr(engine_module, "EventLog", Recorded)
    with pytest.raises(error):
        run_batch([item], events=str(tmp_path / "events.jsonl"), workers=1)
    assert opened and closed == opened


def test_verify_one_uses_cache(tmp_path):
    cfa = lower_source(TAS)
    events = EventLog()
    first = verify_one(cfa, "x", cache_dir=str(tmp_path), events=events)
    second = verify_one(cfa, "x", cache_dir=str(tmp_path), events=events)
    assert first.safe and second.safe
    assert events.of_kind("cache_hit")


def test_verify_one_budget_returns_unknown(tmp_path):
    cfa = lower_source(TAS)
    result = verify_one(cfa, "x", max_iterations=1)
    assert result.unknown


def test_unknown_variable_rejected():
    with pytest.raises(ValueError, match="not a global"):
        run_batch([BatchItem(model="m", source=TAS, variables=("nope",))])


def test_warm_start_seeds_reduce_iterations(tmp_path):
    """After caching a proof for one shape, a near-miss (same accesses
    to x, different surrounding control flow) warm-starts: it must still
    verify, and the warm source is recorded."""
    # An extra statement on an unrelated variable perturbs the slice
    # structure (digest miss) without touching any access to x (shape
    # hit).
    variant = TAS.replace(
        "global int x, state;", "global int x, state, counter;"
    ).replace(
        "if (old == 0) { x = x + 1; state = 0; }",
        "counter = counter + 1; if (old == 0) { x = x + 1; state = 0; }",
    )
    run_batch(
        [BatchItem(model="orig", source=TAS, variables=("x",))],
        cache_dir=str(tmp_path),
        workers=1,
    )
    events = EventLog()
    report = run_batch(
        [BatchItem(model="variant", source=variant, variables=("x",))],
        cache_dir=str(tmp_path),
        workers=1,
        events=events,
    )
    (row,) = report.rows
    assert row.verdict == "safe"
    assert events.of_kind("warm_start")
    assert row.source == "circ-warm"


def test_batch_portfolio_matches_circ(tmp_path):
    """--portfolio batches agree with CIRC-only verdicts across pool
    workers, and every row names the winning analysis."""
    report = run_batch(
        ITEMS,
        cache_dir=str(tmp_path),
        workers=2,
        prefilter=False,
        portfolio=True,
    )
    got = {(r.model, r.variable): r.verdict for r in report.rows}
    assert got == expected_verdicts()
    for row in report.rows:
        assert row.source.startswith("portfolio:")
        assert row.source != "portfolio:none"


def test_portfolio_and_circ_only_never_share_cache(tmp_path):
    """The ``portfolio`` flag is a salient cache-key option: a portfolio
    run must not serve a later CIRC-only query (or vice versa)."""
    items = [BatchItem(model="belt", source=BELT, variables=("x",))]
    run_batch(
        items, cache_dir=str(tmp_path), workers=1, prefilter=False,
        portfolio=True,
    )
    events = EventLog()
    report = run_batch(
        items, cache_dir=str(tmp_path), workers=1, prefilter=False,
        events=events,
    )
    assert not events.of_kind("cache_hit")
    (row,) = report.rows
    assert row.verdict == "safe" and row.source != "cache"


def test_omitted_options_key_the_cache_as_circ_defaults():
    """A library call with no options and a CLI call spelling out the
    defaults compute the same thing, so they share cache keys; plain
    CIRC keys apart from the default omega-CIRC."""
    fp = options_fingerprint
    assert fp({}) == fp({"variant": "omega", "k": 1}) != fp({"variant": "circ"})


def reference_fingerprint(options: dict) -> str:
    """The options fingerprint as first written: defaults merged, every
    salient option JSON-dumped and hashed on every call."""
    defaults = {
        "k": 1, "variant": "omega", "strategy": "wp-atoms",
        "abstraction": "cartesian", "max_outer": 40, "max_inner": 40,
        "max_states": 500_000, "max_iterations": None, "timeout_s": None,
    }
    salient = (
        "variant", "k", "strategy", "abstraction", "max_outer", "max_inner",
        "max_states", "max_iterations", "timeout_s", "portfolio",
    )
    options = {**defaults, **options}
    kept = {
        key: options[key]
        for key in salient
        if key in options and options[key] is not None
    }
    blob = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


FINGERPRINTED_OPTIONS = [
    {},
    {"variant": "omega", "k": 1, "strategy": "wp-atoms", "abstraction": "cartesian",
     "max_outer": 40, "max_inner": 40, "max_states": 500_000,
     "max_iterations": None, "timeout_s": None},
    {"variant": "circ"}, {"k": 2}, {"strategy": "interpolants"},
    {"abstraction": "boolean"}, {"max_outer": 3}, {"max_inner": 3},
    {"max_states": 10}, {"max_iterations": 5}, {"timeout_s": 60},
    {"timeout_s": 60.0}, {"portfolio": True}, {"portfolio": False},
    {"keep_history": True}, {"timeout_s": 60, "portfolio": True, "k": 2},
]


@pytest.mark.parametrize("options", FINGERPRINTED_OPTIONS)
def test_jobs_carry_the_options_fingerprint_once_computed(options):
    """Each job carries its options' fingerprint, equal to the function
    as first written: omitted options count as circ's defaults, and
    every salient option keys apart."""
    expected = reference_fingerprint(options)
    assert options_fingerprint(options) == expected
    the_plan = plan(ITEMS, options=options, prefilter=False)
    assert [job.options_fp for job in the_plan.jobs] == [expected] * 4
    (job,) = plan(ITEMS[:1], options=options, prefilter=False).jobs
    rebuilt = Job(
        job_id=0, source=None, thread=None, variable="x", digest=job.digest,
        shape=job.shape, options=options,
    )
    assert rebuilt.options_fp == expected


def test_salient_options_key_apart():
    fps = [options_fingerprint(o) for o in FINGERPRINTED_OPTIONS]
    # {} equals its spelled-out defaults and the unkeyed keep_history;
    # everything else keys apart, 60 from 60.0 and portfolio=False too.
    assert fps[0] == fps[1] == fps[14]
    assert len(set(fps)) == len(fps) - 2


def test_portfolio_conflict_downgrades_to_unknown(tmp_path, monkeypatch):
    """A confident disagreement must not sink the batch and must not
    adopt either party's claim: the row is UNKNOWN and names the
    conflict."""
    import repro.portfolio.driver as driver

    def explode(*args, **kwargs):
        raise driver.PortfolioConflict("x", "racer=safe vs circ=race")

    monkeypatch.setattr(driver, "run_portfolio", explode)
    report = run_batch(
        [BatchItem(model="belt", source=BELT, variables=("x",))],
        cache_dir=str(tmp_path),
        workers=1,
        prefilter=False,
        portfolio=True,
    )
    (row,) = report.rows
    assert row.verdict == "unknown"
    assert "PORTFOLIO CONFLICT" in row.detail


# -- what a batch writes ------------------------------------------------------------


def count_tier_calls(monkeypatch) -> Counter:
    """Count ``QueryCache.load`` and ``QueryCache.save`` calls."""
    calls = Counter()
    for name in ("load", "save"):
        real = getattr(QueryCache, name)

        def counting(self, cache, _real=real, _name=name):
            calls[_name] += 1
            return _real(self, cache)

        monkeypatch.setattr(QueryCache, name, counting)
    return calls


def tier_file(root):
    """The one file of the SMT tier's cache entry under ``root``."""
    (path,) = (root / "smt").glob("*.json")
    return path


def tier_entries(root) -> dict:
    return json.loads(tier_file(root).read_bytes().split(b"\n")[1])


def test_batch_answered_from_the_cache_leaves_the_smt_tier_alone(
    tmp_path, monkeypatch
):
    """A batch answered entirely from the artifact cache runs no job, so
    it neither loads nor saves the SMT tier, and the file is untouched."""
    run_batch(ITEMS, cache_dir=str(tmp_path), workers=1)
    tier = tier_file(tmp_path)
    before = tier.stat()
    calls = count_tier_calls(monkeypatch)
    events = EventLog()
    report = run_batch(ITEMS, cache_dir=str(tmp_path), workers=1, events=events)
    assert all(r.source in ("cache", "static") for r in report.rows)
    assert calls == Counter()
    assert not events.of_kind("smt_warm_start") and not events.of_kind("smt_tier_saved")
    after = tier.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


def test_cold_batch_after_a_warm_one_loads_the_tier_before_its_first_job(
    tmp_path, monkeypatch
):
    """The first job the artifact cache cannot answer loads the tier,
    and the batch then saves the persisted entries with its own."""
    run_batch(ITEMS, cache_dir=str(tmp_path), workers=1)
    run_batch(ITEMS, cache_dir=str(tmp_path), workers=1)
    persisted = tier_entries(tmp_path)
    SAT_CACHE.clear()  # as in a new process
    calls = count_tier_calls(monkeypatch)
    events = EventLog()
    fresh = BatchItem(model="tas2", source=TAS.replace("x + 1", "x + 2"), variables=("x",))
    report = run_batch([fresh], cache_dir=str(tmp_path), workers=1, events=events)
    assert [r.source for r in report.rows] == ["circ"]
    assert calls == Counter(load=1, save=1)
    kinds = [e["event"] for e in events.events]
    assert kinds.index("smt_warm_start") < kinds.index("job_started")
    (warm,) = events.of_kind("smt_warm_start")
    assert warm["entries"] == len(persisted)
    saved = tier_entries(tmp_path)
    assert persisted.items() <= saved.items() and len(saved) > len(persisted)
    (tier_saved,) = events.of_kind("smt_tier_saved")
    assert tier_saved["entries"] == len(saved)


def book_runs(root) -> Counter:
    """Runs per analysis in the book under cache root ``root``, over
    every shape."""
    runs = Counter()
    for cells in WinRateBook(ArtifactCache(root)).counts.values():
        for analysis, cell in cells.items():
            runs[analysis] += cell["runs"]
    return runs


def test_in_process_portfolio_batch_saves_its_book_once(tmp_path, monkeypatch):
    """The jobs of one batch share one win-rate book, replaced once after
    the last job, and it holds a run for every analysis that ran."""
    writes = []
    real = ArtifactCache._write

    def counting(self, namespace, fields, payload):
        writes.append(namespace)
        real(self, namespace, fields, payload)

    monkeypatch.setattr(ArtifactCache, "_write", counting)
    events = EventLog()
    report = run_batch(
        ITEMS, cache_dir=str(tmp_path), workers=1, prefilter=False,
        portfolio=True, events=events,
    )
    assert report.n_jobs == 4
    assert writes.count("winrates") == 1
    ran = Counter(e["analysis"] for e in events.of_kind("portfolio_analysis_finished"))
    assert book_runs(tmp_path) == ran
    assert sum(ran.values()) >= report.n_jobs


def test_fleet_portfolio_batch_keeps_every_jobs_runs_in_the_book(tmp_path):
    """Each of two workers records its jobs in its own book and merges it
    into the file at shutdown: no job's runs are lost."""
    events = EventLog()
    report = run_batch(
        ITEMS, cache_dir=str(tmp_path), workers=2, prefilter=False,
        portfolio=True, events=events,
    )
    assert not [e for e in events.of_kind("job_started") if e["mode"] == "serial"]
    finished = events.of_kind("job_finished")
    assert len(finished) == report.n_jobs == 4
    ran = Counter(
        analysis
        for e in finished
        for analysis in e["portfolio_ms"]
        if analysis not in e["portfolio_cancelled"]
    )
    assert book_runs(tmp_path) == ran
