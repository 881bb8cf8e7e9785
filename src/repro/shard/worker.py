"""The worker process: one NDJSON loop around the job runner.

Every job that leaves the parent process runs in this module's
:func:`main` loop, in ``python -m repro.shard.worker`` or in a fork of a
single-threaded parent (:meth:`Worker.spawn`).  Only the batch fleet's
coordinator (:mod:`repro.shard.coordinator`) starts workers.  It drives
each one through a :class:`Worker` handle, with a pipe per direction,
and speaks the serve daemon's framing
(:func:`repro.serve.protocol.encode_frame` / ``decode_frame``) with a
three-op vocabulary:

``{"op": "hello", "worker": N, "cache_root": PATH?}``
    Session setup.  With a cache root, the worker warm-starts its SMT
    query cache from the shared persistent tier, so every worker in the
    fleet begins with the fleet's accumulated verdicts.  Replies
    ``{"frame": "ready", "worker": N, "warm_entries": K}``.

``{"op": "job", "payload": {...}}``
    One verification job, exactly the scheduler's JSON-ready payload
    (:func:`repro.engine.scheduler._job_payload`).  The worker runs it
    through the same ``_run_job_payload`` in-process execution uses --
    verdicts cannot differ by transport -- and replies
    ``{"frame": "result", "job_id": I, "record": {...}}``.

``{"op": "shutdown"}``
    Drain: the worker merges its SMT verdicts into the shared warm tier
    and the counts its portfolio jobs recorded into the win-rate book
    (each a locked read-merge-write, so concurrent workers accumulate),
    then replies ``{"frame": "bye", "tier_entries": K}`` and exits.

A worker that dies mid-job or answers with anything but a result is
killed (:meth:`Worker.kill`) and its job retried; a worker is never
asked to stop mid-job.

Crash injection for the retry tests rides in the payload: a
``_test_kill_worker`` flag makes the worker die with ``os._exit(137)``
*before* touching the job, simulating an OOM-killed worker whose job
must re-enter the queue as if fresh.

Real stdout is reserved for frames; ``sys.stdout`` is rebound to stderr
so a stray ``print`` anywhere in the verifier can never corrupt the
framing.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import traceback
from pathlib import Path

from ..serve.protocol import decode_frame, encode_frame

__all__ = ["Worker", "main"]

#: The directory holding the ``repro`` package this module came from.
_PACKAGE_ROOT = str(Path(__file__).resolve().parents[2])


def _child_env() -> dict[str, str]:
    """The environment of a worker: this one, with the directory that
    holds the imported ``repro`` package first on ``PYTHONPATH``.

    A parent that found ``repro`` through ``sys.path`` rather than
    ``PYTHONPATH`` would otherwise start workers that cannot import it.
    """
    path = os.environ.get("PYTHONPATH")
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(p for p in (_PACKAGE_ROOT, path) if p),
    }


class _Forked:
    """A worker forked from this process, with the part of
    :class:`subprocess.Popen`'s interface :class:`Worker` uses."""

    def __init__(self):
        child_in, parent_out = os.pipe()
        parent_in, child_out = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            os.close(parent_out)
            os.close(parent_in)
            try:
                code = main(os.fdopen(child_in), os.fdopen(child_out, "w"))
            except BaseException:
                traceback.print_exc()
                code = 1
            os._exit(code)  # never run the parent's exit handlers
        os.close(child_in)
        os.close(child_out)
        self.pid = pid
        self.stdin = os.fdopen(parent_out, "w")
        self.stdout = os.fdopen(parent_in)
        self.returncode: int | None = None

    def poll(self) -> int | None:
        if self.returncode is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode

    def wait(self) -> int:
        if self.returncode is None:
            _, status = os.waitpid(self.pid, 0)
            self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode

    def kill(self) -> None:
        if self.returncode is None:
            os.kill(self.pid, signal.SIGKILL)


class Worker:
    """The parent's handle on one worker process and its pipes."""

    def __init__(self, worker_id: int, cache_root: str | None = None):
        self.id = worker_id
        self.cache_root = cache_root
        self.proc: subprocess.Popen | _Forked | None = None
        self.spawns = 0

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def spawn(self) -> None:
        """Start the process and complete the hello handshake; raises
        OSError when the worker does not answer ``ready``.

        A caller that is the process's only thread forks, so the worker
        starts with every module already imported; a fresh interpreter
        spends about 0.3 s importing ``repro``.  With other threads
        running, a fork could copy a lock one of them holds into the
        child, locked for good, so the worker is a fresh interpreter.
        """
        self.spawns += 1
        if hasattr(os, "fork") and threading.active_count() == 1:
            self.proc = _Forked()
        else:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.shard.worker"],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                env=_child_env(),
            )
        self.send({"op": "hello", "worker": self.id, "cache_root": self.cache_root})
        ready = self.recv()
        if ready is None or ready.get("frame") != "ready":
            self.kill()
            raise OSError(f"worker {self.id} failed its hello handshake")

    def send(self, frame: dict) -> None:
        assert self.proc is not None and self.proc.stdin is not None
        self.proc.stdin.write(encode_frame(frame).decode())
        self.proc.stdin.flush()

    def recv(self) -> dict | None:
        """Next frame from the worker; None on EOF (worker died)."""
        assert self.proc is not None and self.proc.stdout is not None
        for line in self.proc.stdout:
            line = line.strip()
            if line:
                return decode_frame(line)
        return None

    def kill(self) -> None:
        """Kill and reap the process, and close its pipes.  Until
        ``wait()`` collects it, ``poll()`` can still report a dead worker
        alive."""
        assert self.proc is not None
        try:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdin.close()
            self.proc.stdout.close()
        except OSError:
            pass

    def shutdown(self) -> None:
        """Ask a live worker to drain, and reap it."""
        if not self.alive():
            return
        try:
            self.send({"op": "shutdown"})
            while True:
                frame = self.recv()
                if frame is None or frame.get("frame") == "bye":
                    break
        except (OSError, ValueError):
            pass
        finally:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            self.proc.wait()
            self.proc.stdout.close()


def _send(out, frame: dict) -> None:
    out.write(encode_frame(frame).decode())
    out.flush()


def main(stdin=None, out=None) -> int:
    """Serve frames from ``stdin`` (default: ``sys.stdin``) until
    shutdown or EOF, answering on ``out`` (default: ``sys.stdout``)."""
    stdin = stdin or sys.stdin
    out = out or sys.stdout
    sys.stdout = sys.stderr  # stray prints must not corrupt framing

    from ..engine.cache import ArtifactCache
    from ..engine.scheduler import _run_job_payload
    from ..smt.qcache import SAT_CACHE

    cache = None  # the hello's cache root, which holds the SMT tier
    books: dict = {}  # win-rate books by cache root, saved at shutdown
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            frame = decode_frame(line)
        except ValueError as exc:
            _send(out, {"frame": "error", "message": str(exc)})
            continue
        op = frame.get("op")
        if op == "hello":
            cache_root = frame.get("cache_root")
            cache = ArtifactCache(cache_root) if cache_root else None
            warm = SAT_CACHE.load(cache) if cache is not None else 0
            _send(
                out,
                {
                    "frame": "ready",
                    "worker": frame.get("worker"),
                    "warm_entries": warm,
                },
            )
        elif op == "job":
            payload = dict(frame["payload"])
            if payload.pop("_test_kill_worker", False):
                os._exit(137)  # simulate a crashed/OOM-killed worker
            record = _run_job_payload(payload, books=books)
            _send(
                out,
                {
                    "frame": "result",
                    "job_id": payload["job_id"],
                    "record": record,
                },
            )
        elif op == "shutdown":
            saved = SAT_CACHE.save(cache) if cache is not None else 0
            for book in books.values():
                book.save()
            _send(out, {"frame": "bye", "tier_entries": saved})
            return 0
        else:
            _send(
                out,
                {"frame": "error", "message": f"unknown op {op!r}"},
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
