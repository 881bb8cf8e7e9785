"""Tests for the command-line interface."""

import pytest

from repro.circ import CircError, circ
from repro.cli import main

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

RACY = "global int x; thread t { while (1) { x = x + 1; } }"

MIXED = """
global int dead, ro, p, c;
thread t {
  local int a;
  while (1) {
    a = ro;
    atomic { p = p + 1; }
    c = c + 1;
  }
}
"""


@pytest.fixture
def fig1_file(tmp_path):
    f = tmp_path / "fig1.c"
    f.write_text(FIG1)
    return str(f)


@pytest.fixture
def racy_file(tmp_path):
    f = tmp_path / "racy.c"
    f.write_text(RACY)
    return str(f)


@pytest.fixture
def mixed_file(tmp_path):
    f = tmp_path / "mixed.c"
    f.write_text(MIXED)
    return str(f)


@pytest.fixture
def locked_file(tmp_path):
    f = tmp_path / "locked.c"
    f.write_text(
        "global int m, x; "
        "thread t { while (1) { lock(m); x = x + 1; unlock(m); } }\n"
    )
    return str(f)


def test_check_safe(fig1_file, capsys):
    assert main(["check", fig1_file, "--var", "x"]) == 0
    out = capsys.readouterr().out
    assert "x: SAFE" in out


def test_check_race_exit_code(racy_file, capsys):
    assert main(["check", racy_file, "--var", "x"]) == 1
    out = capsys.readouterr().out
    assert "RACE" in out


def test_check_all(fig1_file, capsys):
    assert main(["check", fig1_file, "--all"]) == 0
    out = capsys.readouterr().out
    assert "x: SAFE" in out and "state: SAFE" in out


def test_check_verbose_shows_predicates(fig1_file, capsys):
    assert main(["check", fig1_file, "--var", "x", "-v"]) == 0
    out = capsys.readouterr().out
    assert "predicate: old == state" in out


def test_check_omega_variant(fig1_file, capsys):
    assert main(["check", fig1_file, "--var", "x", "--variant", "omega"]) == 0


@pytest.mark.parametrize("fixture, want", [("fig1_file", 0), ("racy_file", 1)])
def test_check_plain_circ_variant_matches_default(fixture, want, request):
    path = request.getfixturevalue(fixture)
    assert main(["check", path, "--var", "x"]) == want
    assert main(["check", path, "--var", "x", "--variant", "circ"]) == want


def test_check_requires_var(fig1_file, capsys):
    assert main(["check", fig1_file]) == 2


def test_explore_finds_race(racy_file, capsys):
    assert main(["explore", racy_file, "--var", "x", "--threads", "2"]) == 1
    assert "FOUND race" in capsys.readouterr().out


def test_explore_budget(fig1_file, capsys):
    code = main(
        ["explore", fig1_file, "--var", "x", "--max-states", "100"]
    )
    assert code == 3  # inconclusive: unbounded counter


def test_baselines(fig1_file, capsys):
    # Exit-code parity with check/batch: the racer cannot decide the
    # Figure 1 idiom (phase 1 finds no monitor, phase 2 no witness), so
    # the reconciled verdict -- and therefore the exit code -- is
    # UNKNOWN, not a blanket 0.
    assert main(["baselines", fig1_file, "--var", "x"]) == 4
    out = capsys.readouterr().out
    assert "lockset" in out and "WARNS" in out
    assert "StatelessInsufficient" in out
    assert "racer:          UNKNOWN" in out


def test_cfa_text(fig1_file, capsys):
    assert main(["cfa", fig1_file]) == 0
    assert "CFA main" in capsys.readouterr().out


def test_cfa_text_shows_access_sets(fig1_file, capsys):
    assert main(["cfa", fig1_file]) == 0
    out = capsys.readouterr().out
    assert "global access sets per location:" in out
    assert "writes={x}" in out
    assert "reads={state}" in out


def test_cfa_dot(fig1_file, capsys):
    assert main(["cfa", fig1_file, "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "access sets" not in out  # dot output stays pure Graphviz


def test_static_subcommand(mixed_file, capsys):
    assert main(["static", mixed_file]) == 0
    out = capsys.readouterr().out
    assert "dead" in out and "local" in out
    assert "read-shared" in out
    assert "protected" in out
    assert "must-check" in out
    assert "1/4 need CIRC" in out


def test_static_subcommand_json(mixed_file, capsys):
    import json

    assert main(["static", mixed_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdicts"]["dead"]["verdict"] == "local"
    assert payload["verdicts"]["ro"]["verdict"] == "read-shared"
    assert payload["verdicts"]["p"]["verdict"] == "protected"
    assert payload["verdicts"]["c"]["verdict"] == "must-check"
    assert payload["must_check"] == ["c"]


def test_static_single_variable(mixed_file, capsys):
    assert main(["static", mixed_file, "--var", "p"]) == 0
    out = capsys.readouterr().out
    assert "p" in out and "protected" in out
    assert "dead" not in out


def test_check_prefilter_prunes(mixed_file, capsys):
    # c genuinely races, so the exit code stays 1 -- pruning p must not
    # mask that.
    assert main(["check", mixed_file, "--all"]) == 1
    out = capsys.readouterr().out
    assert "p: SAFE  [static: protected" in out
    assert "c: RACE" in out  # CIRC still ran on c and found the bug


def test_check_no_prefilter_runs_circ_everywhere(mixed_file, capsys):
    assert main(["check", mixed_file, "--all", "--no-prefilter"]) == 1
    out = capsys.readouterr().out
    assert "static:" not in out
    assert "predicates" in out  # p went through CIRC this time
    assert "c: RACE" in out


def test_check_prefilter_identical_verdict_on_race(racy_file, capsys):
    assert main(["check", racy_file, "--var", "x"]) == 1
    assert "RACE" in capsys.readouterr().out


def test_missing_file(capsys):
    assert main(["check", "/nonexistent.c", "--var", "x"]) == 2


def test_parse_error(tmp_path, capsys):
    f = tmp_path / "bad.c"
    f.write_text("thread { oops")
    assert main(["cfa", str(f)]) == 2


def test_simulate_finds_bug(racy_file, capsys):
    assert main(["simulate", racy_file, "--var", "x", "--runs", "10"]) == 1
    assert "hit a bug" in capsys.readouterr().out


def test_simulate_clean_program(fig1_file, capsys):
    code = main(
        ["simulate", fig1_file, "--var", "x", "--runs", "10", "--threads", "3"]
    )
    assert code == 0
    assert "proves nothing" in capsys.readouterr().out


def test_redundant_subcommand(tmp_path, capsys):
    f = tmp_path / "belt.c"
    f.write_text(
        "global int m, x;\n"
        "thread t { while (1) { lock(m); atomic { x = x + 1; } unlock(m); } }\n"
    )
    assert main(["redundant", str(f), "--var", "x"]) == 0
    out = capsys.readouterr().out
    assert "REDUNDANT" in out


def test_check_budget_unknown_exit_code(fig1_file, capsys):
    assert main(["check", fig1_file, "--var", "x", "--max-iterations", "1"]) == 4
    assert "x: UNKNOWN" in capsys.readouterr().out


def test_static_json_includes_shared_report(mixed_file, capsys):
    import json

    assert main(["static", mixed_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "repro-race/report-v1"
    rows = {r["variable"]: r for r in payload["report"]}
    assert rows["p"]["verdict"] == "safe"
    assert rows["c"]["verdict"] == "unknown"
    assert all(r["source"] == "static" for r in payload["report"])
    assert set(rows["c"]) == {
        "model", "variable", "verdict", "source", "time_ms", "detail",
    }


def test_batch_subcommand(fig1_file, racy_file, tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code = main(
        ["batch", fig1_file, racy_file, "--var", "x", "--cache", cache,
         "--workers", "1"]
    )
    assert code == 1  # racy.c races on x
    out = capsys.readouterr().out
    assert "fig1.c" in out and "racy.c" in out
    assert "race" in out and "safe" in out
    # Second run answers from the cache.
    assert main(
        ["batch", fig1_file, racy_file, "--var", "x", "--cache", cache,
         "--workers", "1"]
    ) == 1
    out = capsys.readouterr().out
    assert "hit rate 100%" in out


def test_batch_json_shares_report_schema(fig1_file, tmp_path, capsys):
    import json

    code = main(
        ["batch", fig1_file, "--var", "x", "--json",
         "--cache", str(tmp_path / "cache"), "--workers", "1"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "repro-race/report-v1"
    (row,) = payload["rows"]
    assert set(row) == {
        "model", "variable", "verdict", "source", "time_ms", "detail",
    }
    assert row["verdict"] == "safe"
    assert payload["summary"]["queries"] == 1


def test_batch_budget_unknown_exit_code(fig1_file, tmp_path, capsys):
    code = main(
        ["batch", fig1_file, "--var", "x", "--no-cache", "--workers", "1",
         "--no-prefilter", "--max-iterations", "1"]
    )
    assert code == 4
    assert "unknown" in capsys.readouterr().out


def test_batch_without_inputs_is_usage_error(capsys):
    assert main(["batch"]) == 2


def test_portfolio_safe_baseline_win(locked_file, capsys):
    assert main(["portfolio", locked_file, "--var", "x", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "x: SAFE" in out
    assert "won by racer" in out
    assert "cancelled" in out  # a confident verdict killed the rest


def test_portfolio_race_exit_code(racy_file, capsys):
    assert main(["portfolio", racy_file, "--var", "x", "--no-cache"]) == 1
    out = capsys.readouterr().out
    assert "x: RACE" in out and "won by racer" in out


def test_portfolio_circ_wins_figure1(fig1_file, capsys):
    assert main(["portfolio", fig1_file, "--var", "x", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "x: SAFE" in out and "won by circ" in out


def test_portfolio_unknown_exit_code(fig1_file, capsys):
    code = main(
        ["portfolio", fig1_file, "--var", "x", "--no-cache",
         "--max-iterations", "1"]
    )
    assert code == 4
    assert "x: UNKNOWN" in capsys.readouterr().out


def test_portfolio_json_shares_report_schema(locked_file, capsys):
    import json

    assert main(
        ["portfolio", locked_file, "--var", "x", "--no-cache", "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "repro-race/report-v1"
    rows = payload["rows"]
    # Reconciled row first, then one row per portfolio member.
    assert rows[0]["source"] == "portfolio:racer"
    assert rows[0]["verdict"] == "safe"
    assert {r["source"] for r in rows[1:]} == {"racer", "absint", "circ"}
    for row in rows:
        assert set(row) == {
            "model", "variable", "verdict", "source", "time_ms", "detail",
        }


def test_batch_portfolio_flag(fig1_file, racy_file, tmp_path, capsys):
    code = main(
        ["batch", fig1_file, racy_file, "--var", "x", "--portfolio",
         "--cache", str(tmp_path / "cache"), "--workers", "1"]
    )
    assert code == 1  # racy.c races on x
    out = capsys.readouterr().out
    assert "portfolio:circ" in out  # fig1 decided by CIRC
    assert "portfolio:racer" in out  # racy decided by the racer


def test_batch_portfolio_passes_variant_and_k_to_circ(
    fig1_file, monkeypatch, capsys
):
    """``batch --portfolio`` is the portfolio's one command-line path
    that takes CIRC's --variant and -k, and CIRC receives both."""
    from repro.portfolio import driver

    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return circ(*args, **kwargs)

    monkeypatch.setattr(driver, "circ", spy)
    code = main(
        ["batch", fig1_file, "--var", "x", "--portfolio", "--no-cache",
         "--workers", "1", "--variant", "circ", "-k", "2"]
    )
    assert code == 0
    assert "portfolio:circ" in capsys.readouterr().out
    assert [(c["variant"], c["k"]) for c in calls] == [("circ", 2)]


@pytest.mark.parametrize(
    "command, flag",
    [
        ("check", "--portfolio"),
        ("check", "--parallel"),
        ("portfolio", "--parallel"),
        ("portfolio", "--no-cancel"),
    ],
)
def test_retired_portfolio_flags_are_usage_errors(
    racy_file, command, flag, capsys
):
    """The portfolio has one schedule and ``check`` runs CIRC alone: the
    flags that once chose otherwise are rejected, never ignored."""
    with pytest.raises(SystemExit) as exit_:
        main([command, racy_file, "--var", "x", flag])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_exit_code_parity_across_frontends(
    racy_file, locked_file, fig1_file, tmp_path, capsys
):
    """Lock the verdict->exit-code mapping across every frontend: the
    same query must yield the same exit code from check, check --report,
    batch, portfolio, and baselines (0 safe, 1 race, 4 unknown)."""
    report = str(tmp_path / "audit.md")
    rows = (
        (racy_file, (), 1),
        (locked_file, (), 0),
        # One refinement iteration cannot prove Figure 1.
        (fig1_file, ("--max-iterations", "1"), 4),
    )
    for path, budget, expected in rows:
        query = [path, "--var", "x", *budget]
        assert main(["check", *query]) == expected
        assert main(["check", *query, "--report", report]) == expected
        assert main(["batch", *query, "--no-cache", "--workers", "1"]) == expected
        assert main(["portfolio", *query, "--no-cache"]) == expected
        if not budget:  # baselines take no CIRC budget
            assert main(["baselines", *query]) == expected
        capsys.readouterr()


def test_check_and_batch_agree_when_circ_gives_up(
    fig1_file, monkeypatch, capsys
):
    """A CIRC run that gives up is UNKNOWN (exit 4) from check and batch
    alike, whichever way it gives up."""
    import functools

    from repro import cli
    from repro.engine import scheduler

    gives_up = functools.partial(circ, max_outer=1)
    monkeypatch.setattr(cli, "circ", gives_up)
    monkeypatch.setattr(scheduler, "circ", gives_up)
    assert main(["check", fig1_file, "--var", "x"]) == 4
    assert "x: UNKNOWN" in capsys.readouterr().out
    assert main(
        ["batch", fig1_file, "--var", "x", "--no-cache", "--workers", "1"]
    ) == 4


def test_internal_circ_failure_is_not_a_verdict(fig1_file, monkeypatch, capsys):
    """An internal CIRC failure exits 2, never 1 (race) or a verdict."""
    from repro import cli

    def broken(*args, **kwargs):
        raise CircError("counterexample failed concrete replay")

    monkeypatch.setattr(cli, "circ", broken)
    assert main(["check", fig1_file, "--var", "x"]) == 2
    assert "internal CIRC failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["baselines"],
        ["portfolio", "--no-cache"],
        ["check", "--no-prefilter"],
        ["explore"],
        ["simulate"],
    ],
    ids=lambda c: c[0],
)
def test_non_global_race_variable_is_a_usage_error(racy_file, command, capsys):
    """A race variable that is not a global is rejected, never proved
    safe (or explored until the state budget runs out)."""
    argv = [command[0], racy_file, "--var", "nope", *command[1:]]
    assert main(argv) == 2
    assert "'nope' is not a global" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["explore", "simulate"])
def test_nothing_to_check_is_a_usage_error(racy_file, command, capsys):
    """Given neither --var nor --errors, a search checks nothing: a usage
    error, never a clean result."""
    assert main([command, racy_file]) == 2
    err = capsys.readouterr().err
    assert "nothing to check" in err and "--var" in err


@pytest.mark.parametrize("command", ["explore", "simulate"])
def test_race_in_the_initial_state_prints_that_state(tmp_path, command, capsys):
    f = tmp_path / "once.c"
    f.write_text("global int y; thread t { y = y + 1; }")
    assert main([command, str(f), "--var", "y"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("initial state: <y=0 | T0@"), out


def test_explore_budget_counts_orbits(tmp_path, capsys):
    """Four interchangeable threads of a loop-free test-and-set reach 174
    orbits; a 200-state budget covers them all."""
    f = tmp_path / "tas_once.c"
    f.write_text(
        "global int x, m; thread t { local int got; "
        "atomic { got = m; if (m == 0) { m = 1; } } "
        "if (got == 0) { x = 1; m = 0; } }"
    )
    argv = ["explore", str(f), "--var", "x", "--threads", "4"]
    assert main([*argv, "--max-states", "200"]) == 0
    assert "(174 states, complete)" in capsys.readouterr().out
    assert main([*argv, "--max-states", "174"]) == 3


def test_batch_events_jsonl(fig1_file, tmp_path, capsys):
    import json

    events = tmp_path / "events.jsonl"
    assert main(
        ["batch", fig1_file, "--var", "x", "--no-cache", "--workers", "1",
         "--events", str(events)]
    ) == 0
    lines = [json.loads(ln) for ln in events.read_text().splitlines()]
    assert any(e["event"] == "batch_summary" for e in lines)
