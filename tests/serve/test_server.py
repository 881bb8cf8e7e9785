"""Daemon behavior: dedup, budgets, parity, drain, eviction.

No pytest-asyncio in the toolchain, so every test drives the server and
its clients inside one ``asyncio.run`` via :func:`with_server`.
"""

import asyncio
import importlib
import sys

import pytest

import repro.lang.lower as lower

from repro.engine import BatchItem, run_batch
from repro.nesc.programs import BENCHMARKS, TEST_AND_SET_SOURCE
from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import ErrorCode
from repro.serve.server import RaceServer, ServeConfig

RACY = """global int y;
thread main {
  y = y + 1;
}
"""

BELT = """global int m, x;
thread t {
  while (1) {
    lock(m);
    atomic { x = x + 1; }
    unlock(m);
  }
}
"""


def with_server(tmp_path, client_fn, **cfg):
    """Start a daemon on a Unix socket, run ``client_fn``, drain."""

    async def go():
        sock = str(tmp_path / "serve.sock")
        config = ServeConfig(
            socket=sock,
            cache_dir=cfg.pop("cache_dir", str(tmp_path / "cache")),
            workers=cfg.pop("workers", 2),
            **cfg,
        )
        server = RaceServer(config)
        await server.start()
        try:
            return await client_fn(server, sock)
        finally:
            await server.drain()

    return asyncio.run(go())


def test_verdicts_and_exit_codes(tmp_path):
    async def scenario(server, sock):
        async with await ServeClient.connect(socket=sock) as c:
            safe = await c.submit(
                [{"model": "fig1", "source": TEST_AND_SET_SOURCE, "variables": ["x"]}]
            )
            racy = await c.submit([{"model": "racy", "source": RACY}])
            return safe, racy

    safe, racy = with_server(tmp_path, scenario)
    assert safe["schema"] == "repro-race/report-v1"
    assert [r["verdict"] for r in safe["rows"]] == ["safe"]
    assert safe["exit_code"] == 0
    assert [r["verdict"] for r in racy["rows"]] == ["race"]
    assert racy["exit_code"] == 1


def test_verdict_parity_with_engine(tmp_path):
    """The daemon answers exactly what ``run_batch`` (the ``batch``
    subcommand's engine) answers for the same items, in ``batch`` and
    ``portfolio`` modes: every row's verdict, source and detail."""
    table1 = next(b for b in BENCHMARKS if b.key == "secureTosBase/gTxState")
    items = [
        BatchItem(model="fig1", source=TEST_AND_SET_SOURCE, variables=("x",)),
        BatchItem(model="racy", source=RACY),
        BatchItem(model="belt", source=BELT),  # x is a static row
        BatchItem(
            model=table1.key,
            source=table1.app.thread_source(),
            variables=(table1.variable,),
        ),
    ]
    modes = {"batch": {}, "portfolio": {"portfolio": True}}
    expected = {
        mode: [
            (r.model, r.variable, r.verdict, r.source, r.detail)
            for r in run_batch(items, cache_dir=None, workers=1, **options).rows
        ]
        for mode, options in modes.items()
    }
    assert ("belt", "x", "safe", "static") == expected["batch"][3][:4]
    submission = [
        {
            "model": i.model,
            "source": i.source,
            "variables": list(i.variables) if i.variables else None,
        }
        for i in items
    ]

    async def scenario(server, sock):
        async with await ServeClient.connect(socket=sock) as c:
            return {
                mode: await c.submit(submission, mode=mode) for mode in modes
            }

    results = with_server(tmp_path, scenario, cache_dir=None, workers=1)
    for mode, result in results.items():
        got = [
            (r["model"], r["variable"], r["verdict"], r["source"], r["detail"])
            for r in result["rows"]
        ]
        assert got == expected[mode], mode


def test_portfolio_submission_streams_portfolio_events(tmp_path):
    async def scenario(server, sock):
        frames = []
        async with await ServeClient.connect(socket=sock) as c:
            await c.submit(
                [{"model": "racy", "source": RACY}],
                mode="portfolio",
                stream=True,
                on_event=frames.append,
            )
        return [f["event"]["event"] for f in frames]

    kinds = with_server(tmp_path, scenario)
    assert "portfolio_verdict" in kinds


def test_jobs_of_one_program_share_its_hot_store(tmp_path, monkeypatch):
    """Figure 1's two must-check variables are two jobs; both run on
    the program's one hot ArgStore."""
    scheduler = importlib.import_module("repro.engine.scheduler")
    circ = scheduler.circ
    stores = []

    def spy(cfa, race_on, **options):
        stores.append(options.get("store"))
        return circ(cfa, race_on=race_on, **options)

    monkeypatch.setattr(scheduler, "circ", spy)

    async def scenario(server, sock):
        async with await ServeClient.connect(socket=sock) as c:
            result = await c.submit(
                [{"model": "fig1", "source": TEST_AND_SET_SOURCE}]
            )
            stats = await c.stats()
        hot = server.hot.context_for(
            TEST_AND_SET_SOURCE, None, lower.lower_source(TEST_AND_SET_SOURCE)
        )
        return result, stats, hot.store

    result, stats, hot_store = with_server(tmp_path, scenario)
    assert [(r["variable"], r["verdict"]) for r in result["rows"]] == [
        ("state", "safe"),
        ("x", "safe"),
    ]
    assert len(stores) == 2
    assert all(store is hot_store for store in stores)
    assert stats["hot"]["context_hits"] >= 1


def test_a_new_program_is_lowered_once(tmp_path, monkeypatch):
    """The request's plan lowers a new program and puts the CFA on its
    job; the new hot context adopts that CFA instead of lowering again."""
    lowered = []
    real = lower.lower_source

    def counting(source, thread_name=None):
        lowered.append(source)
        return real(source, thread_name)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "lower_source", None) is real:
            monkeypatch.setattr(module, "lower_source", counting)

    async def scenario(server, sock):
        async with await ServeClient.connect(socket=sock) as c:
            return await c.submit([{"model": "racy", "source": RACY}])

    result = with_server(tmp_path, scenario)
    assert [r["verdict"] for r in result["rows"]] == ["race"]
    assert lowered == [RACY]


def test_second_daemon_answers_repeat_from_artifact_cache(tmp_path):
    """A fresh daemon on an existing cache directory answers a repeat
    from the artifact cache: its completed-job map is empty."""
    cache_dir = str(tmp_path / "shared-cache")

    async def scenario(server, sock):
        async with await ServeClient.connect(socket=sock) as c:
            result = await c.submit([{"model": "m", "source": RACY}])
            return result["rows"][0], await c.stats()

    runs = []
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
        runs.append(with_server(tmp_path / name, scenario, cache_dir=cache_dir))
    (first, _), (second, stats) = runs
    assert first["source"] == "circ" and first["verdict"] == "race"
    assert second["source"] == "cache" and second["verdict"] == "race"
    assert second["time_ms"] == 0.0
    assert stats["jobs_run"] == 1 and stats["dedup_completed"] == 0


def test_concurrent_identical_submissions_share_one_job(tmp_path):
    """Satellite 3: two clients submitting the same program attach to a
    single engine job and receive identical report-v1 rows."""

    async def scenario(server, sock):
        c1 = await ServeClient.connect(socket=sock)
        c2 = await ServeClient.connect(socket=sock)
        try:
            a, b = await asyncio.gather(
                c1.submit([{"model": "m", "source": RACY}]),
                c2.submit([{"model": "m", "source": RACY}]),
            )
            stats = await c1.stats()
            return a, b, stats
        finally:
            await c1.close()
            await c2.close()

    a, b, stats = with_server(tmp_path, scenario, workers=1)
    assert a["rows"] == b["rows"]
    assert a["exit_code"] == b["exit_code"] == 1
    # The engine ran exactly once for the shared digest.
    assert stats["jobs_run"] == 1
    assert stats["dedup_inflight"] == 1


def test_repeat_submission_hits_completed_map(tmp_path):
    async def scenario(server, sock):
        async with await ServeClient.connect(socket=sock) as c:
            first = await c.submit([{"model": "m", "source": RACY}])
            second = await c.submit([{"model": "m", "source": RACY}])
            stats = await c.stats()
            return first, second, stats

    first, second, stats = with_server(tmp_path, scenario)
    assert first["rows"][0]["verdict"] == second["rows"][0]["verdict"] == "race"
    assert second["rows"][0]["source"] == "cache"
    assert stats["jobs_run"] == 1
    assert stats["dedup_completed"] == 1


def test_solver_quota_yields_typed_unknown(tmp_path):
    """Satellite 3: an over-quota client gets typed UNKNOWN rows with
    the shared exit-code mapping (4), not a connection error."""

    async def scenario(server, sock):
        async with await ServeClient.connect(socket=sock) as c:
            first = await c.submit([{"model": "a", "source": RACY}])
            second = await c.submit([{"model": "b", "source": BELT}])
            stats = await c.stats()
            return first, second, stats

    first, second, stats = with_server(
        tmp_path, scenario, solver_quota_s=1e-6
    )
    # First job is admitted (nothing used yet) and burns the quota.
    assert first["exit_code"] == 1
    row = second["rows"][0]
    assert row["verdict"] == "unknown"
    assert row["source"] == "budget"
    assert "quota" in row["detail"]
    assert second["exit_code"] == 4
    assert stats["quota_unknowns"] >= 1


def test_static_rows_skip_the_engine(tmp_path):
    async def scenario(server, sock):
        async with await ServeClient.connect(socket=sock) as c:
            result = await c.submit(
                [{"model": "belt", "source": BELT, "variables": ["x"]}]
            )
            stats = await c.stats()
            return result, stats

    result, stats = with_server(tmp_path, scenario)
    sources = {r["source"] for r in result["rows"]}
    assert sources == {"static"}
    assert result["exit_code"] == 0
    assert stats["jobs_run"] == 0


def test_portfolio_mode_attribution(tmp_path):
    async def scenario(server, sock):
        async with await ServeClient.connect(socket=sock) as c:
            return await c.submit(
                [{"model": "racy", "source": RACY}], mode="portfolio"
            )

    result = with_server(tmp_path, scenario)
    primary = [
        r for r in result["rows"] if r["source"].startswith("portfolio:")
    ]
    assert primary and primary[0]["verdict"] == "race"
    assert result["exit_code"] == 1


def test_parse_error_frame(tmp_path):
    async def scenario(server, sock):
        async with await ServeClient.connect(socket=sock) as c:
            with pytest.raises(ServeError) as exc:
                await c.submit([{"model": "bad", "source": "int x = ;"}])
            return exc.value

    err = with_server(tmp_path, scenario)
    assert err.code == ErrorCode.PARSE_ERROR
    assert err.exit_code == 2


def test_non_ascii_digit_is_a_parse_error(tmp_path):
    """A superscript two is not a number: the lexer rejects it with its
    position, rather than int() failing on it later."""
    source = "global int x;\nthread t { x = ²; }"

    async def scenario(server, sock):
        async with await ServeClient.connect(socket=sock) as c:
            with pytest.raises(ServeError) as exc:
                await c.submit([{"model": "sup", "source": source}])
            return exc.value

    err = with_server(tmp_path, scenario)
    assert err.code == ErrorCode.PARSE_ERROR
    assert "unexpected character '²' at line 2:16" in err.message


def test_bad_request_frame(tmp_path):
    async def scenario(server, sock):
        async with await ServeClient.connect(socket=sock) as c:
            with pytest.raises(ServeError) as exc:
                await c.submit(
                    [{"model": "m", "source": RACY}],
                    options={"workers": 64},
                )
            return exc.value

    err = with_server(tmp_path, scenario)
    assert err.code == ErrorCode.BAD_REQUEST
    assert "disallowed" in err.message


def test_draining_server_answers_retryable(tmp_path):
    async def scenario(server, sock):
        async with await ServeClient.connect(socket=sock) as c:
            server.draining = True
            with pytest.raises(ServeError) as exc:
                await c.submit([{"model": "m", "source": RACY}])
            server.draining = False  # let the helper drain cleanly
            return exc.value

    err = with_server(tmp_path, scenario)
    assert err.code == ErrorCode.RETRYABLE
    assert err.exit_code == 3


def test_drain_finishes_in_flight_work(tmp_path):
    """Graceful drain: a submission racing the drain either completes
    with its verdict or is refused RETRYABLE -- never hangs, never dies
    with a half-written response."""

    async def scenario(server, sock):
        async with await ServeClient.connect(socket=sock) as c:
            task = asyncio.ensure_future(
                c.submit([{"model": "m", "source": RACY}])
            )
            await asyncio.sleep(0)  # let the submit frame hit the server
            await server.drain()
            try:
                result = await task
                return result["rows"][0]["verdict"]
            except ServeError as exc:
                return exc.code

    outcome = with_server(tmp_path, scenario)
    assert outcome in ("race", ErrorCode.RETRYABLE)


def test_memory_ceiling_evicts_lru_context(tmp_path):
    """Distinct programs push the hot-context footprint over a tiny
    ceiling; the LRU context is evicted and counted."""
    programs = [
        ("p%d" % i, RACY.replace("y", "v%d" % i)) for i in range(3)
    ]

    async def scenario(server, sock):
        async with await ServeClient.connect(socket=sock) as c:
            for model, source in programs:
                await c.submit([{"model": model, "source": source}])
            return await c.stats()

    stats = with_server(tmp_path, scenario, memory_mb=0.3)
    assert stats["evictions"] >= 1
    assert stats["hot"]["hot_contexts"] <= 2


def test_hello_lowers_budgets_but_never_raises(tmp_path):
    async def scenario(server, sock):
        lowered = await ServeClient.connect(socket=sock, max_jobs=1)
        raised = await ServeClient.connect(socket=sock, max_jobs=99)
        try:
            return lowered.server_hello, raised.server_hello
        finally:
            await lowered.close()
            await raised.close()

    lowered, raised = with_server(tmp_path, scenario, max_client_jobs=4)
    assert lowered["max_jobs"] == 1
    assert raised["max_jobs"] == 4
