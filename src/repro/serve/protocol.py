"""The serve daemon's wire protocol: newline-delimited JSON frames.

One connection carries a bidirectional stream of *frames*, one JSON
object per line (LF-terminated, UTF-8, no intra-frame newlines).  The
protocol needs nothing outside the standard library and is trivially
scriptable: ``socat - UNIX:sock`` plus a text editor is a working
client.

Client -> server requests (``op`` selects the verb, ``id`` is an opaque
client-chosen correlation token echoed on every response):

``{"op": "hello", "client": NAME, "max_jobs": N?, "solver_quota_s": S?}``
    Optional session setup: names the client for telemetry and lowers
    its budgets below the server defaults (budgets can never be raised
    above the server's configured caps).

``{"op": "submit", "id": ID, "mode": M, "items": [...], "options": {}}``
    Submit verification work.  ``mode`` is ``check`` | ``batch`` |
    ``portfolio``; each item is ``{"model": NAME, "source": TEXT,
    "thread": T?, "variables": [..]?}`` (``variables`` omitted means
    every written global).  ``options`` may carry the allowlisted
    verifier options (:data:`ALLOWED_OPTIONS`).  ``stream`` (default
    true) toggles per-job event frames.

``{"op": "ping", "id": ID}`` / ``{"op": "stats", "id": ID}``
    Liveness probe / hot-state counter snapshot.

Server -> client frames (``frame`` tags the kind):

``{"frame": "hello", "protocol": ..., "server": ..., budgets...}``
``{"frame": "ack", "id", "queries", "jobs", "static", "deduped"}``
``{"frame": "event", "id", "job", "event": {...}}``
    One engine JSONL telemetry event, forwarded live to every client
    subscribed to the job that emitted it.
``{"frame": "result", "id", "schema": "repro-race/report-v1",
   "rows": [...], "summary": {...}, "exit_code": N}``
    Terminal success frame: the same report-v1 payload the CLI's
    ``batch --json`` prints, plus the exit code the CLI would have
    returned (the shared verdict -> exit mapping).
``{"frame": "error", "id"?, "code": CODE, "message": ...}``
    Terminal failure frame for a request (or, without ``id``, a
    connection-level protocol violation).  Codes: :class:`ErrorCode`.
``{"frame": "pong", "id"}`` / ``{"frame": "stats", "id", ...}``

Exit-code mapping (identical to the CLI's): 0 verified, 1 race found,
2 usage/parse error, 3 transient/RETRYABLE (resubmit later), 4 verdict
UNKNOWN (including solver-quota exhaustion, which yields typed UNKNOWN
rows rather than an error frame).

The framing layer (:func:`encode_frame` / :func:`decode_frame`) is
transport-agnostic and is reused verbatim by the sharded engine's
coordinator<->worker pipes (:mod:`repro.shard`), which speak their own
op set (``hello``/``job``/``shutdown``) over the same NDJSON lines --
see docs/SHARDING.md.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = [
    "PROTOCOL",
    "ALLOWED_OPTIONS",
    "MODES",
    "PRIMARY_SOURCE_PREFIXES",
    "ErrorCode",
    "ProtocolError",
    "encode_frame",
    "decode_frame",
    "error_frame",
    "exit_code_for",
    "validate_submit",
]

#: Protocol version tag, sent in the server's hello frame.
PROTOCOL = "repro-race/serve-v1"

#: Submission modes; ``check`` and ``batch`` share the engine path
#: (they dedup against each other), ``portfolio`` routes through the
#: analysis portfolio and is salient in the job fingerprint.
MODES = ("check", "batch", "portfolio")

#: Verifier options a client may set on a submission.  Everything here
#: is forwarded to :func:`repro.circ.circ` (or the portfolio driver) and
#: participates in the cache/dedup fingerprint where salient.
ALLOWED_OPTIONS = frozenset(
    {
        "variant",
        "k",
        "max_iterations",
        "timeout_s",
    }
)

#: Exit codes mirroring :mod:`repro.cli` (kept literal here so the wire
#: contract is self-contained; ``tests/serve`` asserts they agree).
EXIT_OK = 0
EXIT_RACE = 1
EXIT_USAGE = 2
EXIT_RETRYABLE = 3
EXIT_UNKNOWN = 4

#: Primary-row source prefixes, mirroring
#: :data:`repro.races.report.PRIMARY_SOURCE_PREFIXES` (kept literal so
#: this module stays import-light; ``tests/serve`` asserts they agree).
PRIMARY_SOURCE_PREFIXES = (
    "static",
    "cache",
    "circ",
    "budget",
    "portfolio:",
)


class ErrorCode:
    """Error frame codes."""

    #: The line was not a JSON object or lacked a recognized ``op``.
    BAD_FRAME = "BAD_FRAME"
    #: The request was well-formed JSON but semantically invalid
    #: (unknown mode, missing items, disallowed option, unknown global).
    BAD_REQUEST = "BAD_REQUEST"
    #: A submitted source failed to parse/lower.
    PARSE_ERROR = "PARSE_ERROR"
    #: The server is draining; the work was not started.  Resubmit.
    RETRYABLE = "RETRYABLE"
    #: An unexpected server-side failure; details in ``message``.
    INTERNAL = "INTERNAL"

    #: code -> the exit code ``repro-race submit`` returns for it.
    EXITS = {
        BAD_FRAME: EXIT_USAGE,
        BAD_REQUEST: EXIT_USAGE,
        PARSE_ERROR: EXIT_USAGE,
        RETRYABLE: EXIT_RETRYABLE,
        INTERNAL: EXIT_USAGE,
    }


class ProtocolError(ValueError):
    """A malformed or invalid frame; carries the error-frame code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def encode_frame(frame: dict[str, Any]) -> bytes:
    """One frame as a complete wire line."""
    return (json.dumps(frame, sort_keys=True) + "\n").encode()


def decode_frame(line: bytes | str) -> dict[str, Any]:
    """Parse one wire line into a frame dict.

    Raises :class:`ProtocolError` (code ``BAD_FRAME``) on anything that
    is not a single JSON object.
    """
    try:
        frame = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(
            ErrorCode.BAD_FRAME, f"not JSON: {exc}"
        ) from None
    if not isinstance(frame, dict):
        raise ProtocolError(
            ErrorCode.BAD_FRAME, "frame must be a JSON object"
        )
    return frame


def error_frame(
    code: str, message: str, request_id: str | None = None
) -> dict[str, Any]:
    frame: dict[str, Any] = {
        "frame": "error",
        "code": code,
        "message": message,
        "exit_code": ErrorCode.EXITS.get(code, EXIT_USAGE),
    }
    if request_id is not None:
        frame["id"] = request_id
    return frame


def exit_code_for(rows: list[dict[str, Any]]) -> int:
    """The CLI's shared verdict -> exit mapping over report-v1 rows.

    Only primary rows count: portfolio submissions carry one row per
    attempted analysis besides the reconciled ``portfolio:*`` row, and a
    cancelled analysis's ``unknown`` must not shadow a decided verdict
    (the ``portfolio`` CLI subcommand counts exactly the reconciled
    verdicts the same way).
    """
    primary = [
        r
        for r in rows
        if r.get("source", "").startswith(PRIMARY_SOURCE_PREFIXES)
    ]
    races = sum(1 for r in primary if r.get("verdict") == "race")
    unknown = sum(1 for r in primary if r.get("verdict") == "unknown")
    if races:
        return EXIT_RACE
    if unknown:
        return EXIT_UNKNOWN
    return EXIT_OK


def validate_submit(frame: dict[str, Any]) -> dict[str, Any]:
    """Check a submit frame's shape; returns it normalized.

    Raises :class:`ProtocolError` with ``BAD_REQUEST`` on semantic
    problems, so the server can answer with a typed error frame instead
    of an opaque internal failure.
    """
    request_id = frame.get("id")
    if not isinstance(request_id, str) or not request_id:
        raise ProtocolError(
            ErrorCode.BAD_REQUEST, "submit requires a string 'id'"
        )
    mode = frame.get("mode", "check")
    if mode not in MODES:
        raise ProtocolError(
            ErrorCode.BAD_REQUEST,
            f"unknown mode {mode!r} (expected one of {', '.join(MODES)})",
        )
    items = frame.get("items")
    if not isinstance(items, list) or not items:
        raise ProtocolError(
            ErrorCode.BAD_REQUEST, "submit requires a non-empty 'items' list"
        )
    norm_items = []
    for i, item in enumerate(items):
        if not isinstance(item, dict) or not isinstance(
            item.get("source"), str
        ):
            raise ProtocolError(
                ErrorCode.BAD_REQUEST,
                f"items[{i}] must be an object with a string 'source'",
            )
        variables = item.get("variables")
        if variables is not None and (
            not isinstance(variables, list)
            or not all(isinstance(v, str) for v in variables)
        ):
            raise ProtocolError(
                ErrorCode.BAD_REQUEST,
                f"items[{i}].variables must be a list of strings",
            )
        norm_items.append(
            {
                "model": str(item.get("model") or f"item{i}"),
                "source": item["source"],
                "thread": item.get("thread"),
                "variables": variables,
            }
        )
    options = frame.get("options") or {}
    if not isinstance(options, dict):
        raise ProtocolError(
            ErrorCode.BAD_REQUEST, "'options' must be an object"
        )
    bad = sorted(set(options) - ALLOWED_OPTIONS)
    if bad:
        raise ProtocolError(
            ErrorCode.BAD_REQUEST,
            f"disallowed option(s): {', '.join(bad)} "
            f"(allowed: {', '.join(sorted(ALLOWED_OPTIONS))})",
        )
    return {
        "id": request_id,
        "mode": mode,
        "items": norm_items,
        "options": dict(options),
        "stream": bool(frame.get("stream", True)),
    }
