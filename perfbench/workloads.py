"""The benchmark's workloads and queries (no ``repro`` import).

Every workload is one closed loop with one client: the next request is
sent when the previous one has answered.  A *pass* sends every query of
the workload once, in an order shuffled by the seed; the timed phase
repeats passes while the next one still fits in the run's seconds.

* ``check-table1`` -- one ``check_race(src, var, prefilter=True)`` call
  per request over Figures 2-4 and the Table 1 rows (``sense/tosPort``
  left out: its 17 s alone would take most of a run).
* ``batch-cold`` / ``batch-workers2`` / ``portfolio-cold`` -- one
  ``run_batch`` call over the whole corpus per request, into a fresh
  cache directory.
* ``batch-warm`` -- one ``run_batch`` call per request against a cache
  that set-up primed.

The corpus is a fixed pool: the first programs of
``repro.fuzz.gen.generate(i, GenConfig(pointers=False))``, race variable
``x``.  The seed shuffles the order, not the programs, because per-program
cost is heavy-tailed: in 50-program corpora drawn per seed, the total
cost varied threefold from seed to seed, far more than any regression
bound.

Times are reported *at reference speed*: a measured time is multiplied
by ``REFERENCE_SECONDS`` over the time a fixed pure-Python loop takes
just before and just after it.  On a shared machine the speed of the same
code drifts: within minutes, the loop took 10-22 ms on a 2-CPU sandbox,
and imports and requests slowed down with it.  Rescaling cancels most of
that drift; on a calm machine it leaves times close to wall-clock times.

This module does not import ``repro``, so the process that runs the
benchmark stays small: generating inputs, set-up and the timed phase
each run in a child interpreter (``prepare.py``, ``prime.py``,
``measure.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

RACE_VAR = "x"
#: Worker processes of ``batch-workers2``: one per CPU of a 2-CPU machine.
SHARD_WORKERS = 2
#: Iterations of the reference loop.
REFERENCE_ITERATIONS = 150_000
#: Seconds the reference loop takes on a calm 2-CPU sandbox.
REFERENCE_SECONDS = 0.010


def reference_time() -> float:
    """Seconds one run of the fixed reference loop takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def at_reference_speed(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` rescaled by the reference loop timed around it."""
    return elapsed * REFERENCE_SECONDS / ((before + after) / 2)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Modules the workload's process imports; set-up imports them in a
    #: fresh interpreter, so import-time work shows in ``setup_s``.
    imports: tuple[str, ...]
    #: Corpus programs per pass (None: the Table 1 queries).
    pool: int | None = None
    #: ``run_batch`` options of one request.
    options: dict = field(default_factory=dict)
    #: Set-up primes the artifact cache every request reads.
    primed: bool = False


_BATCH = {"workers": 1, "timeout_s": 60}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("check-table1", ("repro.races.spec",)),
        Workload("batch-cold", ("repro.engine",), 32, _BATCH),
        Workload("batch-warm", ("repro.engine",), 32, _BATCH, primed=True),
        # Two buckets per worker, so stealing has work to move.
        Workload(
            "batch-workers2",
            ("repro.engine", "repro.shard.coordinator"),
            32,
            {"shard_workers": SHARD_WORKERS, "shards": 2 * SHARD_WORKERS, "timeout_s": 60},
        ),
        # The racer spends 0.3-0.9 s on 7 of the first 32 programs, which
        # would make a pass 5 s; 16 programs keep several passes in a run.
        Workload(
            "portfolio-cold",
            ("repro.engine", "repro.portfolio.driver"),
            16,
            {**_BATCH, "portfolio": True},
        ),
    )
}


@dataclass(frozen=True)
class Query:
    """One (program, variable) query and its known answer.

    ``expect`` is ``"safe"`` or ``"race"`` for the Table 1 rows.  For the
    corpus it is the oracle's verdict (``"budget"`` when it abstained),
    and ``unbounded`` is False when a safe answer holds only up to the
    thread count the oracle enumerated.
    """

    key: str
    source: str
    thread: str | None
    variable: str
    expect: str
    unbounded: bool = True
