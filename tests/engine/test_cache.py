"""Artifact cache behavior: hits, misses, corruption recovery."""

import json
from contextlib import contextmanager

from repro.circ import circ
from repro.circ.result import CircSafe, CircStats, CircUnsafe
from repro.acfa.acfa import empty_acfa
from repro.engine.artifacts import (
    result_from_obj,
    result_to_obj,
    term_from_obj,
    term_to_obj,
)
from repro.engine.cache import ArtifactCache
from repro.exec import MultiProgram, replay
from repro.lang import lower_source
from repro.portfolio import racer_check
from repro.smt import terms as T


def safe_result(var="x", preds=()):
    return CircSafe(
        variable=var,
        predicates=tuple(preds),
        context=empty_acfa(),
        stats=CircStats(),
    )


PRED = T.Cmp("==", T.Var("state"), T.IntConst(1))


@contextmanager
def tampered(path):
    """Yield a cache file's decoded payload line for editing in place,
    then write it back under the file's unchanged header line."""
    head, line, _ = path.read_bytes().split(b"\n", 2)
    payload = json.loads(line)
    yield payload
    line = json.dumps(payload, separators=(",", ":")).encode()
    path.write_bytes(head + b"\n" + line + b"\n")


def test_hit_on_identical_digest(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.put("d1", safe_result(preds=(PRED,)), "fp")
    entry = cache.get("d1", "fp")
    assert entry is not None
    assert entry.result.safe
    assert entry.result.predicates == (PRED,)
    assert cache.stats() == {"hits": 1, "misses": 0, "corrupt": 0}


def test_miss_on_different_digest_or_options(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.put("d1", safe_result(), "fp")
    assert cache.get("d2", "fp") is None
    assert cache.get("d1", "other-fp") is None
    assert cache.stats()["misses"] == 2


def test_corrupted_entry_is_a_miss_and_heals(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.put("d1", safe_result(), "fp")
    (obj_file,) = (tmp_path / "objects").glob("*.json")
    obj_file.write_text("{ this is not json")
    assert cache.get("d1", "fp") is None
    assert cache.stats()["corrupt"] == 1
    assert not obj_file.exists()  # quarantined
    # The slot heals on the next store.
    cache.put("d1", safe_result(), "fp")
    assert cache.get("d1", "fp") is not None


def test_checksum_mismatch_is_a_miss(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.put("d1", safe_result(preds=(PRED,)), "fp")
    (obj_file,) = (tmp_path / "objects").glob("*.json")
    with tampered(obj_file) as payload:
        payload["predicates"] = []  # tamper without fixing checksum
    assert cache.get("d1", "fp") is None
    assert cache.stats()["corrupt"] == 1


def test_shape_index_seeds_predicates(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.put("d1", safe_result(preds=(PRED,)), "fp", shape="s1")
    assert cache.seed_predicates("s1", "fp") == (PRED,)
    assert cache.seed_predicates("s2", "fp") == ()
    assert cache.seed_predicates("s1", "other-fp") == ()


def test_corrupt_shape_entry_returns_no_seeds(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.put("d1", safe_result(preds=(PRED,)), "fp", shape="s1")
    (shape_file,) = (tmp_path / "shapes").glob("*.json")
    shape_file.write_text("garbage")
    assert cache.seed_predicates("s1", "fp") == ()
    assert not shape_file.exists()


def _stored_blob(tmp_path, key="k1", data=None):
    cache = ArtifactCache(tmp_path)
    cache.put_blob("absint", key, data or {"verdict": "safe", "n": [1, 2]})
    (blob_file,) = (tmp_path / "absint").glob("*.json")
    return cache, blob_file


def _assert_quarantined_then_healed(cache, blob_file, key="k1"):
    assert cache.get_blob("absint", key) is None
    assert not blob_file.exists()
    assert cache.stats() == {"hits": 0, "misses": 0, "corrupt": 1}
    cache.put_blob("absint", key, {"verdict": "race"})
    assert cache.get_blob("absint", key) == {"verdict": "race"}


def test_truncated_blob_is_a_miss_and_heals(tmp_path):
    cache, blob_file = _stored_blob(tmp_path)
    raw = blob_file.read_bytes()
    blob_file.write_bytes(raw[: len(raw) - 10])  # inside the payload line
    _assert_quarantined_then_healed(cache, blob_file)


def test_blob_checksum_mismatch_is_a_miss_and_heals(tmp_path):
    cache, blob_file = _stored_blob(tmp_path)
    with tampered(blob_file) as payload:
        payload["verdict"] = "race"  # tamper without fixing checksum
    _assert_quarantined_then_healed(cache, blob_file)


def test_blob_under_another_key_is_a_miss_and_heals(tmp_path):
    """A well-formed blob at another key's path (a copied or misplaced
    file) never answers for that key."""
    cache, other = _stored_blob(tmp_path, key="k2")
    cache.put_blob("absint", "k1", {"verdict": "race"})
    (blob_file,) = set((tmp_path / "absint").glob("*.json")) - {other}
    blob_file.write_bytes(other.read_bytes())
    _assert_quarantined_then_healed(cache, blob_file)
    assert cache.get_blob("absint", "k2") == {"verdict": "safe", "n": [1, 2]}


def test_unsafe_result_round_trips(tmp_path):
    cache = ArtifactCache(tmp_path)
    unsafe = CircUnsafe(
        variable="x",
        steps=[],
        n_threads=2,
        predicates=(),
        stats=CircStats(),
    )
    cache.put("d1", unsafe, "fp")
    entry = cache.get("d1", "fp")
    assert entry is not None
    assert not entry.result.safe
    assert entry.result.n_threads == 2


def test_term_serialization_round_trips():
    terms = [
        T.Var("x"),
        T.IntConst(-3),
        T.BoolConst(True),
        T.And((T.Cmp("<=", T.Var("x"), T.IntConst(0)), T.BoolConst(False))),
        T.Implies(
            T.Not(T.Cmp("==", T.Var("s"), T.IntConst(1))),
            T.Or((T.Var("p"), T.Var("q"))),
        ),
        T.Add((T.Mul(T.IntConst(2), T.Var("y")), T.Neg(T.Var("z")))),
    ]
    for t in terms:
        assert term_from_obj(term_to_obj(t)) == t


def test_result_serialization_round_trips():
    r = safe_result(preds=(PRED,))
    back = result_from_obj(result_to_obj(r))
    assert back.safe and back.predicates == (PRED,)


def test_witnesses_replay_after_a_round_trip():
    # Replay accepts only the thread's own CFA edges, compared by value:
    # the edges a stored witness is rebuilt from must still match.
    cfa = lower_source("global int f, x; thread t { f = 1; x = x + 1; }")
    found = circ(cfa, race_on="x")
    racer = racer_check(cfa, "x")
    witnessed = CircUnsafe(
        variable="x",
        steps=list(racer.witness),
        n_threads=racer.n_threads,
        predicates=(),
        stats=CircStats(),
    )
    for result in (found, witnessed):
        assert isinstance(result, CircUnsafe) and result.steps
        back = result_from_obj(json.loads(json.dumps(result_to_obj(result))))
        assert back.steps == result.steps
        assert all(a is not b for (_, a), (_, b) in zip(back.steps, result.steps))
        program = MultiProgram.symmetric(cfa, back.n_threads)
        assert replay(program, back.steps, race_on="x")[0]
