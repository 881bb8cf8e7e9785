"""The work-stealing coordinator: equivalence, stealing, crash retry."""

from repro.engine import EventLog, run_batch
from repro.engine.cache import ArtifactCache
from repro.engine.planner import options_fingerprint
from repro.shard.coordinator import _Buckets
from repro.shard.worker import Worker
from tests.engine.test_engine import ITEMS, expected_verdicts
from tests.shard.test_partition import make_jobs


# -- the steal queue, deterministically ---------------------------------------


def test_home_buckets_round_robin():
    b = _Buckets(make_jobs(12), shards=4, workers=2)
    assert b.home_buckets(0) == [0, 2]
    assert b.home_buckets(1) == [1, 3]


def test_take_prefers_home_then_steals_from_largest():
    jobs = make_jobs(30)
    b = _Buckets(jobs, shards=4, workers=2)
    # Drain worker 0's home buckets completely.
    while True:
        item = b.take(0)
        assert item is not None
        job, bucket, stolen = item
        if stolen:
            break
        assert bucket in (0, 2)
    # The first steal targets the fullest foreign bucket at that moment.
    sizes = {i: len(q) for i, q in enumerate(b.queues)}
    assert bucket in (1, 3)
    assert sizes[bucket] <= max(len(b.queues[1]), len(b.queues[3])) + 1
    assert b.steals == 1


def test_steal_takes_tail_owner_takes_head():
    b = _Buckets(make_jobs(16), shards=2, workers=2)
    # Empty worker 1's home bucket so its next take must be a steal.
    b.queues[1].clear()
    assert len(b.queues[0]) >= 2
    head = b.queues[0][0]
    tail = b.queues[0][-1]
    thief_job, bucket, stole = b.take(1)
    assert stole and bucket == 0 and thief_job is tail
    owner_job, _, owner_stole = b.take(0)
    assert not owner_stole and owner_job is head


def test_drain_empties_every_bucket():
    b = _Buckets(make_jobs(10), shards=3, workers=2)
    b.take(0)
    leftover = b.drain()
    assert len(leftover) == 9
    assert b.take(0) is None and b.take(1) is None


def test_requeue_goes_to_bucket_front():
    b = _Buckets(make_jobs(8), shards=2, workers=1)
    job, bucket, _ = b.take(0)
    b.requeue(job, bucket)
    again, bucket2, _ = b.take(0)
    assert again is job and bucket2 == bucket


# -- end-to-end through run_batch ---------------------------------------------


def test_sharded_run_matches_serial_circ(tmp_path):
    """The coordinator is a pure accelerator: verdicts equal plain circ,
    and the shard telemetry records the topology."""
    events = EventLog()
    report = run_batch(
        ITEMS, cache_dir=str(tmp_path), workers=2, events=events
    )
    got = {(r.model, r.variable): r.verdict for r in report.rows}
    assert got == expected_verdicts()
    (planned,) = events.of_kind("shard_planned")
    assert planned["workers"] >= 1
    assert sum(planned["buckets"]) == planned["jobs"]
    assert events.of_kind("worker_spawned")
    (summary,) = events.of_kind("shard_summary")
    assert summary["retries"] == 0


def test_single_worker_forces_steals_nowhere_but_completes(tmp_path):
    """shards=1, workers=2: one home bucket, so any job worker 1 ever
    gets is necessarily a steal; completion must hold regardless."""
    events = EventLog()
    report = run_batch(
        ITEMS,
        cache_dir=str(tmp_path),
        workers=2,
        shards=1,
        events=events,
    )
    got = {(r.model, r.variable): r.verdict for r in report.rows}
    assert got == expected_verdicts()
    for e in events.of_kind("shard_steal"):
        assert e["thief"] == 1  # bucket 0 is homed to worker 0


def test_dry_run_validates_arguments(tmp_path):
    import pytest

    with pytest.raises(ValueError, match="shard_id requires shards"):
        run_batch(ITEMS, shard_id=0)
    with pytest.raises(ValueError, match="shard_id"):
        run_batch(ITEMS, shards=2, shard_id=5)


# -- crash retry: the property test -------------------------------------------


def digest_verdicts(report, cache_dir):
    """The artifact-cache view of a run: digest -> cached verdict."""
    cache = ArtifactCache(cache_dir)
    out = {}
    for r in report.rows:
        if not r.digest:
            continue  # static rows never touch the cache
        entry = cache.get(r.digest, options_fingerprint({}))
        if entry is not None:
            out[r.digest] = "safe" if entry.result.safe else "race"
    return out


def kill_first_attempts(monkeypatch):
    """Make each job's first attempt kill the worker it is sent to."""
    send = Worker.send
    attempted: set[int] = set()

    def send_and_kill(self, frame):
        if frame.get("op") == "job":
            job_id = frame["payload"]["job_id"]
            if job_id not in attempted:
                attempted.add(job_id)
                payload = {**frame["payload"], "_test_kill_worker": True}
                frame = {**frame, "payload": payload}
        send(self, frame)

    monkeypatch.setattr(Worker, "send", send_and_kill)


def test_killed_workers_leave_no_trace(tmp_path, monkeypatch):
    """Kill every worker once mid-bucket: the merged verdicts AND the
    artifact-cache state must match an uninterrupted run, with no
    quarantined (torn) entries anywhere."""
    events = EventLog()
    with monkeypatch.context() as m:
        kill_first_attempts(m)
        killed = run_batch(
            ITEMS,
            cache_dir=str(tmp_path / "killed"),
            workers=2,
            events=events,
        )
    clean = run_batch(
        ITEMS, cache_dir=str(tmp_path / "clean"), workers=2
    )

    assert {(r.model, r.variable): r.verdict for r in killed.rows} == {
        (r.model, r.variable): r.verdict for r in clean.rows
    }
    # Every job's first attempt died and was retried as if fresh.
    assert events.of_kind("worker_crashed")
    assert len(events.of_kind("job_retry")) == len(
        events.of_kind("worker_crashed")
    )
    # The artifact caches agree digest-by-digest, and neither run left
    # a torn write for the checksum layer to quarantine.
    kv = digest_verdicts(killed, str(tmp_path / "killed"))
    cv = digest_verdicts(clean, str(tmp_path / "clean"))
    assert kv == cv and kv  # same verdicts, and the cache is populated
    assert ArtifactCache(str(tmp_path / "killed")).stats()["corrupt"] == 0


def test_exhausted_retries_fall_back_to_serial(tmp_path, monkeypatch):
    """If a job keeps killing workers past the retry budget, the
    coordinator's serial pass still completes the verdict table."""
    import repro.shard.coordinator as coord

    monkeypatch.setattr(coord, "MAX_JOB_RETRIES", 0)
    kill_first_attempts(monkeypatch)
    events = EventLog()
    report = run_batch(
        ITEMS, cache_dir=str(tmp_path), workers=2, events=events
    )
    got = {(r.model, r.variable): r.verdict for r in report.rows}
    assert got == expected_verdicts()
    serial = [
        e
        for e in events.of_kind("job_started")
        if e.get("mode") == "serial"
    ]
    assert serial, "over-budget jobs must run in the serial pass"


# -- wire-contract tripwires --------------------------------------------------


def test_primary_prefixes_agree_with_serve_protocol():
    """The serve protocol keeps a literal mirror of the primary-source
    contract; the shard merge consumes the races.report original.  They
    must never drift apart."""
    from repro.races.report import PRIMARY_SOURCE_PREFIXES as reported
    from repro.serve.protocol import PRIMARY_SOURCE_PREFIXES as served

    assert reported == served


def test_conflicting_worker_counts_rejected():
    """``shard_workers`` is the older name of ``workers``: giving both
    with different values is an error, not a silent pick."""
    import pytest

    with pytest.raises(ValueError, match="same setting"):
        run_batch(ITEMS, workers=2, shard_workers=3)


def test_workers_import_repro_without_pythonpath(tmp_path, monkeypatch):
    """A parent that found ``repro`` through ``sys.path`` alone still
    gets working fresh-interpreter workers (the launch used while other
    threads run): no failed handshake, no in-process fallback."""
    import threading

    import pytest

    import repro.shard.worker as worker_mod

    def no_fork():
        pytest.fail("a worker was forked with another thread running")

    monkeypatch.setattr(worker_mod, "_Forked", no_fork)
    monkeypatch.delenv("PYTHONPATH", raising=False)
    events = EventLog()
    idle = threading.Event()
    other = threading.Thread(target=idle.wait)
    other.start()
    try:
        report = run_batch(
            ITEMS, cache_dir=str(tmp_path), workers=2, events=events
        )
    finally:
        idle.set()
        other.join()
    got = {(r.model, r.variable): r.verdict for r in report.rows}
    assert got == expected_verdicts()
    assert events.of_kind("worker_spawned")
    assert not events.of_kind("worker_failed")
    assert not [
        e for e in events.of_kind("job_started") if e.get("mode") == "serial"
    ]


def test_worker_import_leaves_the_serve_daemon_unloaded():
    """The worker frames jobs with ``repro.serve.protocol`` alone: a
    fresh import of it loads neither asyncio nor the daemon's modules."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    probe = (
        "import sys, repro.shard.worker; "
        "print(sorted(m for m in sys.modules "
        "if m == 'asyncio' or m.startswith('repro.serve')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == ["['repro.serve',", "'repro.serve.protocol']"]
