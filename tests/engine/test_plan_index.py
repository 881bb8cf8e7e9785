"""The planner's plan index: a warm batch skips the front end.

With the batch's artifact cache, :func:`repro.engine.planner.plan` reads
each item through a blob keyed by its source text, thread, variable
list, ``prefilter`` flag and the package's source fingerprint.  A hit
must give exactly the plan a fresh one does, and everything the key
names must miss.
"""

import shutil
import sys

import pytest

import repro.engine.planner as planner
from repro.engine import ArtifactCache, BatchItem, EventLog, plan, run_batch
from repro.fuzz.gen import RACE_VAR, GenConfig, generate
from repro.fuzz.oracle import oracle_check
from repro.lang.lexer import LexError
from repro.lang.lower import lower_source
from repro.nesc import BENCHMARKS

FIG1 = """
global int x, state;
thread main {
  local int old;
  while (1) {
    atomic { old = state; if (state == 0) { state = 1; } }
    if (old == 0) { x = x + 1; state = 0; }
  }
}
"""

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

RACY = """
global int x, y;
thread t {
  while (1) { x = x + 1; }
}
thread u {
  y = x;
}
"""


def _corpus_items(named: bool) -> list[BatchItem]:
    """Figure 1 (twice, so a job dedups), the 13 Table 1 rows, and fuzz
    0-31 in both generator configs."""
    queries = [("fig1", FIG1, None, "x"), ("fig1-again", FIG1, None, "x")]
    for b in BENCHMARKS:
        queries.append(
            (b.key, b.app.thread_source(), None, b.variable.replace("_buggy", ""))
        )
    for config in (GenConfig(), GenConfig(pointers=False)):
        for seed in range(32):
            gp = generate(seed, config)
            queries.append(
                (f"fuzz{seed}-{config.pointers}", gp.source, gp.thread, RACE_VAR)
            )
    return [
        BatchItem(model, source, thread, (var,) if named else None)
        for model, source, thread, var in queries
    ]


def _summary(the_plan):
    """Everything a plan decides, CFAs and timings aside."""
    return (
        the_plan.order,
        [
            (
                r.model,
                r.variable,
                r.verdict,
                r.source,
                r.detail,
                r.result.static_verdict,
                r.result.reason,
            )
            for r in the_plan.done
        ],
        [
            (
                j.job_id,
                j.source,
                j.thread,
                j.variable,
                j.digest,
                j.shape,
                j.options,
                j.aliases,
            )
            for j in the_plan.jobs
        ],
    )


@pytest.fixture
def counted(monkeypatch):
    """Counts lowering anywhere, and the planner's classification and
    digests."""
    calls = {"lower": 0, "classify": 0, "digest": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    lower = counting("lower", lower_source)
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "lower_source", None) is lower_source:
            monkeypatch.setattr(module, "lower_source", lower)
    monkeypatch.setattr(
        planner, "classify", counting("classify", planner.classify)
    )
    monkeypatch.setattr(
        planner, "slice_digest", counting("digest", planner.slice_digest)
    )
    monkeypatch.setattr(
        planner, "shape_key", counting("digest", planner.shape_key)
    )
    return calls


def _plan_files(root) -> list:
    return sorted((root / "plans").rglob("*.json"))


@pytest.mark.parametrize("prefilter", [True, False])
@pytest.mark.parametrize("named", [True, False])
def test_cached_plan_equals_fresh_plan(tmp_path, named, prefilter):
    items = _corpus_items(named)
    options = {"timeout_s": 60}
    fresh = plan(items, options=options, prefilter=prefilter)
    cache = ArtifactCache(tmp_path)
    missed = plan(items, options=options, prefilter=prefilter, cache=cache)
    hit = plan(items, options=options, prefilter=prefilter, cache=cache)
    assert _summary(missed) == _summary(fresh)
    assert _summary(hit) == _summary(fresh)
    assert fresh.jobs and (fresh.done or not prefilter)
    assert any(len(j.aliases) > 1 for j in fresh.jobs)
    # One entry per distinct item: the two Figure 1 items share one.
    keys = {planner._plan_key(item, prefilter) for item in items}
    assert len(keys) < len(items)
    assert len(_plan_files(tmp_path)) == len(keys)
    assert all(j.cfa is not None for j in missed.jobs)
    assert all(j.cfa is None for j in hit.jobs)


def test_index_reads_do_not_count_as_verdict_lookups(tmp_path):
    cache = ArtifactCache(tmp_path)
    items = [BatchItem("fig1", FIG1, None, ("x",))]
    plan(items, cache=cache)
    plan(items, cache=cache)
    assert cache.stats() == {"hits": 0, "misses": 0, "corrupt": 0}


def _batch_items() -> list[BatchItem]:
    items = [
        BatchItem("belt", BELT, None, ("x",)),
        BatchItem("fig1", FIG1, None, None),
        BatchItem("racy", RACY, "t", ("x",)),
    ]
    config = GenConfig(pointers=False)
    for seed in range(6):
        gp = generate(seed, config)
        items.append(BatchItem(f"fuzz{seed}", gp.source, gp.thread, (RACE_VAR,)))
    return items


def _rows(report):
    return [
        (r.model, r.variable, r.verdict, r.source, r.detail, r.digest)
        for r in report.rows
    ]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("portfolio", [False, True])
def test_warm_batch_rows_equal_those_without_the_index(tmp_path, portfolio, workers):
    items = _batch_items()
    indexed, plain = tmp_path / "indexed", tmp_path / "plain"
    options = {"workers": workers, "portfolio": portfolio, "timeout_s": 60}
    run_batch(items, cache_dir=str(indexed), **options)
    assert _plan_files(indexed)
    shutil.copytree(indexed, plain)
    shutil.rmtree(plain / "plans")
    with_index = run_batch(items, cache_dir=str(indexed), **options)
    without = run_batch(items, cache_dir=str(plain), **options)
    assert _rows(with_index) == _rows(without)
    assert with_index.cache_stats == without.cache_stats
    assert with_index.cache_stats["misses"] == 0
    assert all(r.source in ("cache", "static") for r in with_index.rows)


def test_warm_batch_answers_as_the_oracle(tmp_path):
    """A batch planned from the index gives the explicit-state oracle's
    verdict on each of the first 32 pointer-free fuzz programs."""
    programs = [generate(seed, GenConfig(pointers=False)) for seed in range(32)]
    items = [
        BatchItem(f"fuzz{seed}", gp.source, gp.thread, (RACE_VAR,))
        for seed, gp in enumerate(programs)
    ]
    run_batch(items, cache_dir=str(tmp_path), workers=1)
    warm = run_batch(items, cache_dir=str(tmp_path), workers=1)
    assert all(r.source in ("cache", "static") for r in warm.rows)
    assert [r.verdict for r in warm.rows] == [
        oracle_check(gp.program, gp.thread, RACE_VAR).verdict for gp in programs
    ]


def test_warm_batch_lowers_and_classifies_nothing(tmp_path, counted):
    items = _batch_items()
    run_batch(items, cache_dir=str(tmp_path), workers=1)
    assert counted["lower"] == len(items)
    counted.update(lower=0, classify=0, digest=0)
    warm = run_batch(items, cache_dir=str(tmp_path), workers=1)
    assert counted == {"lower": 0, "classify": 0, "digest": 0}
    assert all(r.source in ("cache", "static") for r in warm.rows)


@pytest.mark.parametrize(
    "change",
    [
        "one-byte edit",
        "another thread",
        "another variable list",
        "prefilter off",
        "another code fingerprint",
    ],
)
def test_anything_the_key_names_misses(tmp_path, monkeypatch, counted, change):
    cache = ArtifactCache(tmp_path)
    item = BatchItem("racy", RACY, "t", ("x",))
    plan([item], cache=cache)
    prefilter = True
    if change == "one-byte edit":
        item = BatchItem("racy", RACY + " ", "t", ("x",))
    elif change == "another thread":
        item = BatchItem("racy", RACY, "u", ("x",))
    elif change == "another variable list":
        item = BatchItem("racy", RACY, "t", ("x", "y"))
    elif change == "prefilter off":
        prefilter = False
    else:
        monkeypatch.setattr(planner, "_code_fingerprint", lambda: "other code")
    counted["lower"] = 0
    missed = plan([item], cache=cache, prefilter=prefilter)
    assert counted["lower"] == 1
    assert _summary(missed) == _summary(plan([item], prefilter=prefilter))
    assert len(_plan_files(tmp_path)) == 2


def test_corrupt_entry_is_a_quarantined_miss_that_heals(tmp_path, counted):
    cache = ArtifactCache(tmp_path)
    items = [BatchItem("fig1", FIG1, None, ("x",))]
    expected = _summary(plan(items, cache=cache))
    (entry,) = _plan_files(tmp_path)
    entry.write_text(entry.read_text()[:40])
    counted["lower"] = 0
    assert _summary(plan(items, cache=cache)) == expected
    assert counted["lower"] == 1
    assert cache.stats()["corrupt"] == 1
    assert _plan_files(tmp_path) == [entry]  # rewritten in place
    healed = plan(items, cache=cache)
    assert counted["lower"] == 1
    assert _summary(healed) == expected


def test_unreadable_entry_is_planned_afresh(tmp_path, counted):
    """An entry with a valid checksum that this code cannot decode is a
    miss, and the fresh plan overwrites it."""
    cache = ArtifactCache(tmp_path)
    item = BatchItem("fig1", FIG1, None, ("x",))
    expected = _summary(plan([item], cache=cache))
    key = planner._plan_key(item, True)
    cache.put_blob(planner.PLAN_NAMESPACE, key, [{"variable": "x", "static": "?"}])
    counted["lower"] = 0
    assert _summary(plan([item], cache=cache)) == expected
    assert counted["lower"] == 1
    plan([item], cache=cache)
    assert counted["lower"] == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_entries_without_their_verdicts_run_their_jobs(tmp_path, counted, workers):
    """A job planned from the index carries no CFA: run in-process it
    lowers its program once, and a fleet worker lowers it as always."""
    items = [
        BatchItem("fig1", FIG1, None, ("x",)),
        BatchItem("racy", RACY, "t", ("x",)),
    ]
    cold = run_batch(items, cache_dir=str(tmp_path), workers=1)
    shutil.rmtree(tmp_path / "objects")
    counted.update(lower=0, classify=0, digest=0)
    events = EventLog()
    again = run_batch(items, cache_dir=str(tmp_path), workers=workers, events=events)
    assert [(r.model, r.variable, r.verdict, r.digest) for r in again.rows] == [
        (r.model, r.variable, r.verdict, r.digest) for r in cold.rows
    ]
    assert [r.verdict for r in again.rows] == ["safe", "race"]
    assert all(r.source in ("circ", "circ-warm") for r in again.rows)
    modes = {e["mode"] for e in events.of_kind("job_started")}
    if workers == 1:
        assert modes == {"serial"}
        assert counted == {"lower": 2, "classify": 0, "digest": 0}
    else:
        assert "serial" not in modes and not events.of_kind("worker_failed")
        assert counted == {"lower": 0, "classify": 0, "digest": 0}


@pytest.mark.parametrize(
    "bad, error",
    [
        (BatchItem("sup", "global int x;\nthread t {\n  x = ²;\n}\n"), LexError),
        (BatchItem("racy", RACY, "t", ("nope",)), ValueError),
    ],
)
def test_plan_that_raises_writes_no_entry(tmp_path, bad, error):
    cache = ArtifactCache(tmp_path)
    good = BatchItem("fig1", FIG1, None, ("x",))
    with pytest.raises(error):
        plan([good, bad], cache=cache)
    with pytest.raises(error):
        plan([bad], cache=cache)
    assert _plan_files(tmp_path) == []
