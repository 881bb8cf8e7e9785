"""Randomized schedule simulation (dynamic-checker style smoke testing).

``simulate`` drives a multithreaded CFA program under a seeded random
scheduler, recording any race or assertion failure it stumbles into --
the dynamic counterpart (Eraser-style happenstance testing) to the static
checkers, useful for quick smoke tests of models and as an extra oracle:
anything the simulator finds is, by construction, a genuine trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .interp import ConcreteState, MultiProgram, RaceWitness

__all__ = ["SimulationResult", "simulate"]


@dataclass
class SimulationResult:
    """Outcome of a batch of random runs.

    ``deadlocks`` counts runs that got *stuck*: no transition was
    enabled even though some thread still had out-edges (e.g. every
    thread blocked on an assume, or an atomic thread blocked while
    holding the section).  Runs where every thread simply reached a
    location with no out-edges are normal completions, counted in
    ``terminations`` instead.
    """

    runs: int
    steps_total: int
    witness: Optional[RaceWitness] = None
    deadlocks: int = 0
    terminations: int = 0

    @property
    def found(self) -> bool:
        return self.witness is not None


def simulate(
    program: MultiProgram,
    race_on: str | None = None,
    check_errors: bool = False,
    runs: int = 50,
    max_steps: int = 400,
    seed: int = 0,
) -> SimulationResult:
    """Run ``runs`` random schedules of up to ``max_steps`` steps each.

    Returns on the first race on ``race_on`` (or assertion failure when
    ``check_errors``); the witness is the executed prefix, genuine by
    construction.  A run with no enabled transition counts as a deadlock
    only when some thread could still move (it has out-edges but none is
    enabled); if every thread exhausted its out-edges the run terminated
    normally.
    """
    is_bad = program.bad_state_test(race_on, check_errors)
    rng = random.Random(seed)
    steps_total = 0
    deadlocks = 0
    terminations = 0

    def is_terminal(state: ConcreteState) -> bool:
        return not any(
            program.cfas[i].out(state.thread_pc(i))
            for i in range(program.n_threads)
        )

    for run in range(runs):
        state = program.initial()
        steps: list = []
        states = [state]
        if is_bad(state):
            return SimulationResult(
                runs=run + 1,
                steps_total=steps_total,
                witness=RaceWitness(steps, states),
            )
        for _ in range(max_steps):
            successors = list(program.successors(state))
            if not successors:
                if is_terminal(state):
                    terminations += 1
                else:
                    deadlocks += 1
                break
            thread, edge, nxt = rng.choice(successors)
            steps.append((thread, edge))
            states.append(nxt)
            state = nxt
            steps_total += 1
            if is_bad(state):
                return SimulationResult(
                    runs=run + 1,
                    steps_total=steps_total,
                    witness=RaceWitness(steps, states),
                )
    return SimulationResult(
        runs=runs,
        steps_total=steps_total,
        deadlocks=deadlocks,
        terminations=terminations,
    )
