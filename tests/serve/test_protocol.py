"""Wire-protocol unit tests: framing, validation, exit-code mapping."""

import pytest

from repro import cli
from repro.serve.protocol import (
    EXIT_OK,
    EXIT_RACE,
    EXIT_RETRYABLE,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    ErrorCode,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_frame,
    exit_code_for,
    validate_submit,
)


def test_frame_roundtrip():
    frame = {"op": "submit", "id": "r1", "items": [{"source": "x"}]}
    line = encode_frame(frame)
    assert line.endswith(b"\n")
    assert b"\n" not in line[:-1]
    assert decode_frame(line) == frame


def test_decode_rejects_garbage():
    with pytest.raises(ProtocolError) as exc:
        decode_frame(b"not json\n")
    assert exc.value.code == ErrorCode.BAD_FRAME
    with pytest.raises(ProtocolError):
        decode_frame(b"[1, 2]\n")


def test_exit_codes_agree_with_cli():
    # The wire contract repeats the CLI's constants literally; this is
    # the tripwire that keeps them from drifting apart.
    assert EXIT_OK == cli.EXIT_OK
    assert EXIT_RACE == cli.EXIT_RACE
    assert EXIT_USAGE == cli.EXIT_USAGE
    assert EXIT_RETRYABLE == cli.EXIT_BUDGET
    assert EXIT_UNKNOWN == cli.EXIT_UNKNOWN


def test_exit_code_for_verdict_priority():
    safe = {"verdict": "safe", "source": "circ"}
    race = {"verdict": "race", "source": "cache"}
    unknown = {"verdict": "unknown", "source": "budget"}
    assert exit_code_for([safe]) == EXIT_OK
    assert exit_code_for([safe, unknown]) == EXIT_UNKNOWN
    assert exit_code_for([safe, unknown, race]) == EXIT_RACE


def test_exit_code_for_counts_primary_rows_only():
    # A cancelled portfolio analysis's unknown must not shadow the
    # reconciled verdict row.
    rows = [
        {"verdict": "safe", "source": "portfolio:racer"},
        {"verdict": "unknown", "source": "absint"},
    ]
    assert exit_code_for(rows) == EXIT_OK


def test_error_frame_carries_exit_code():
    frame = error_frame(ErrorCode.RETRYABLE, "draining", request_id="r9")
    assert frame["exit_code"] == EXIT_RETRYABLE
    assert frame["id"] == "r9"
    assert error_frame(ErrorCode.PARSE_ERROR, "x")["exit_code"] == EXIT_USAGE


def test_validate_submit_normalizes():
    norm = validate_submit(
        {
            "id": "r1",
            "mode": "batch",
            "items": [{"source": "global int x;", "variables": ["x"]}],
            "options": {"k": 2},
        }
    )
    assert norm["mode"] == "batch"
    assert norm["items"][0]["model"] == "item0"
    assert norm["items"][0]["thread"] is None
    assert norm["stream"] is True


@pytest.mark.parametrize(
    "frame,fragment",
    [
        ({"items": [{"source": "x"}]}, "id"),
        ({"id": "r", "mode": "nope", "items": [{"source": "x"}]}, "mode"),
        ({"id": "r", "items": []}, "items"),
        ({"id": "r", "items": [{"model": "m"}]}, "source"),
        ({"id": "r", "items": [{"source": "x", "variables": "y"}]}, "variables"),
        (
            {"id": "r", "items": [{"source": "x"}], "options": {"jobs": 9}},
            "disallowed",
        ),
        (
            {
                "id": "r",
                "items": [{"source": "x"}],
                "options": {"incremental": False},
            },
            "disallowed",
        ),
        (
            {
                "id": "r",
                "items": [{"source": "x"}],
                "options": {"frontier": "dfs"},
            },
            "disallowed",
        ),
    ],
)
def test_validate_submit_rejects(frame, fragment):
    with pytest.raises(ProtocolError) as exc:
        validate_submit(frame)
    assert exc.value.code == ErrorCode.BAD_REQUEST
    assert fragment in exc.value.message
