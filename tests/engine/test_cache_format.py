"""The artifact cache's one file format, in every namespace.

A file is a header line (format, namespace, key fields, SHA-256 of the
payload line), then the payload as one line of compact JSON.  Every way
a file can stop being exactly that entry -- a flipped payload byte, a
cut inside or right after the header, a header without its checksum, a
valid entry under another key -- is a quarantined miss that heals on
the next store.  Files of the earlier formats are never read.

The SMT verdict tier and the win-rate book are one entry each, keyed by
their format; two of them in one namespace are entries of two formats.
"""

import hashlib
import json

import pytest

import repro.portfolio.winrate as winrate
import repro.smt.qcache as qcache
from repro.acfa.acfa import empty_acfa
from repro.circ.result import CircSafe, CircStats, CircUnknown
from repro.engine.artifacts import result_to_obj, term_to_obj
from repro.engine.cache import ArtifactCache
from repro.portfolio.winrate import WinRateBook
from repro.smt import terms as T
from repro.smt.qcache import QueryCache

PRED = T.Cmp("==", T.Var("state"), T.IntConst(1))


def _result(cls=CircSafe, **fields):
    fields.setdefault("predicates", (PRED,))
    if cls is CircUnknown:
        fields.setdefault("reason", "budget")
    else:
        fields.setdefault("context", empty_acfa())
    return cls(variable="x", stats=CircStats(), **fields)


# -- one store and one lookup per namespace -------------------------------------
#
# Each lookup returns None on a miss, else what the entry answers.


def _store_object(cache, key):
    cache.put(key, _result(), "fp")


def _lookup_object(cache, key):
    entry = cache.get(key, "fp")
    return None if entry is None else entry.result.predicates


def _store_shape(cache, key):
    # An UNKNOWN result is never stored as a verdict, so only the shape
    # entry is written.
    cache.put(f"digest-{key}", _result(CircUnknown), "fp", shape=key)


def _lookup_shape(cache, key):
    return cache.seed_predicates(key, "fp") or None


def _blob_namespace(kind):
    def store(cache, key):
        cache.put_blob(kind, key, {"key": key, "n": [1, 2]})

    def lookup(cache, key):
        return cache.get_blob(kind, key)

    return store, lookup


def _format_keyed(module, name):
    """Run a store or lookup with ``module.name``, the format that keys
    the store's one entry, set from ``key``."""

    def wrap(fn):
        def run(cache, key):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(module, name, f"{getattr(module, name)}-{key}")
                return fn(cache, key)

        return run

    return wrap


@_format_keyed(qcache, "QCACHE_FORMAT")
def _store_tier(cache, key):
    tier = QueryCache()
    tier.store(f"query-{key}", False)
    tier.save(cache)


@_format_keyed(qcache, "QCACHE_FORMAT")
def _lookup_tier(cache, key):
    tier = QueryCache()
    tier.load(cache)
    return tier.lookup(f"query-{key}")


@_format_keyed(winrate, "BOOK_FORMAT")
def _store_book(cache, key):
    book = WinRateBook(cache)
    book.record(f"shape-{key}", "circ", won=True, time_ms=1.0)
    book.save()


@_format_keyed(winrate, "BOOK_FORMAT")
def _lookup_book(cache, key):
    return WinRateBook(cache).counts or None


NAMESPACES = {
    "objects": (_store_object, _lookup_object),
    "shapes": (_store_shape, _lookup_shape),
    "plans": _blob_namespace("plans"),
    "absint": _blob_namespace("absint"),
    "smt": (_store_tier, _lookup_tier),
    "winrates": (_store_book, _lookup_book),
}


def _only_file(root, namespace, besides=()):
    (path,) = set((root / namespace).glob("*.json")) - set(besides)
    return path


# -- corruptions ------------------------------------------------------------------


def _flip_payload_byte(path, raw, other):
    line_start = raw.index(b"\n") + 1
    at = line_start + (len(raw) - line_start) // 2
    path.write_bytes(raw[:at] + bytes([raw[at] ^ 0x01]) + raw[at + 1 :])


def _cut_inside_header(path, raw, other):
    path.write_bytes(raw[: raw.index(b"\n") // 2])


def _cut_after_header(path, raw, other):
    path.write_bytes(raw[: raw.index(b"\n") + 1])


def _cut_before_header_newline(path, raw, other):
    path.write_bytes(raw[: raw.index(b"\n")])


def _header_without_checksum(path, raw, other):
    head, rest = raw.split(b"\n", 1)
    header = json.loads(head)
    del header["sha256"]
    path.write_bytes(json.dumps(header).encode() + b"\n" + rest)


def _entry_of_another_key(path, raw, other):
    path.write_bytes(other.read_bytes())


CORRUPTIONS = {
    "flipped payload byte": _flip_payload_byte,
    "cut inside the header": _cut_inside_header,
    "cut right after the header": _cut_after_header,
    "cut before the header's newline": _cut_before_header_newline,
    "header without checksum": _header_without_checksum,
    "entry of another key": _entry_of_another_key,
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
@pytest.mark.parametrize("namespace", NAMESPACES)
def test_corruption_is_a_quarantined_miss_that_heals(tmp_path, namespace, corrupt):
    store, lookup = NAMESPACES[namespace]
    cache = ArtifactCache(tmp_path)
    store(cache, "k2")
    other = _only_file(tmp_path, namespace)
    expected = lookup(cache, "k2")
    store(cache, "k1")
    path = _only_file(tmp_path, namespace, besides=[other])
    assert lookup(cache, "k1") is not None
    corrupt(path, path.read_bytes(), other)

    assert lookup(cache, "k1") is None
    assert not path.exists()
    assert cache.corrupt == 1
    # The slot heals on the next store, and the other entry is intact.
    store(cache, "k1")
    assert lookup(cache, "k1") is not None
    assert lookup(cache, "k2") == expected
    assert cache.corrupt == 1


@pytest.mark.parametrize("namespace", NAMESPACES)
def test_an_entry_is_a_header_line_and_a_compact_payload_line(tmp_path, namespace):
    store, _ = NAMESPACES[namespace]
    store(ArtifactCache(tmp_path), "k1")
    path = _only_file(tmp_path, namespace)
    head, line, rest = path.read_bytes().split(b"\n", 2)
    assert rest == b""
    header = json.loads(head)
    assert header["format"] == "circ-cache-v2"
    assert header["namespace"] == namespace
    assert header["sha256"] == hashlib.sha256(line).hexdigest()
    assert line == json.dumps(json.loads(line), separators=(",", ":")).encode()
    # One flat directory per namespace.
    assert [p for p in (tmp_path / namespace).iterdir() if p.is_dir()] == []


def test_object_under_another_configuration_is_a_miss_and_heals(tmp_path):
    """An object file copied under another options fingerprint's key
    never answers for that configuration."""
    cache = ArtifactCache(tmp_path)
    cache.put("d1", _result(), "fp-a")
    (a_file,) = (tmp_path / "objects").rglob("*.json")
    cache.put("d1", _result(predicates=()), "fp-b")
    (b_file,) = set((tmp_path / "objects").rglob("*.json")) - {a_file}
    b_file.write_bytes(a_file.read_bytes())

    assert cache.get("d1", "fp-b") is None
    assert not b_file.exists()
    assert cache.stats() == {"hits": 0, "misses": 1, "corrupt": 1}
    cache.put("d1", _result(predicates=()), "fp-b")
    assert cache.get("d1", "fp-b").result.predicates == ()
    assert cache.get("d1", "fp-a").result.predicates == (PRED,)


# -- the earlier format ----------------------------------------------------------


def _v1_checksum(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _v1_name(*parts):
    return hashlib.sha256("\n".join(("circ-cache-v1", *parts)).encode()).hexdigest()


def _write_v1(path, body, field):
    body = {"format": "circ-cache-v1", **body}
    body["checksum"] = _v1_checksum(body[field])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(body, sort_keys=True, indent=1))
    return path


def test_v1_files_at_their_v1_paths_are_neither_read_nor_unlinked(tmp_path):
    obj = result_to_obj(_result())
    name = _v1_name("d1", "fp")
    v1_object = _write_v1(
        tmp_path / "objects" / name[:2] / f"{name}.json",
        {"digest": "d1", "options_fp": "fp", "result": obj},
        "result",
    )
    name = _v1_name("shape", "s1", "fp")
    v1_shape = _write_v1(
        tmp_path / "shapes" / name[:2] / f"{name}.json",
        {"shape": "s1", "predicates": [term_to_obj(PRED)]},
        "predicates",
    )
    v1_blobs = [
        _write_v1(
            tmp_path / kind / f"{_v1_name('blob', kind, 'k1')}.json",
            {"kind": kind, "key": "k1", "data": {"n": 1}},
            "data",
        )
        for kind in ("plans", "absint")
    ]
    # The SMT tier and the win-rate book had files of their own.
    tier = tmp_path / "smt" / "qcache.json"
    tier.parent.mkdir()
    tier.write_text(
        json.dumps({"format": "smt-qcache-v1", "entries": {"d" * 64: True}})
    )
    book = tmp_path / "winrates.json"
    book.write_text(
        json.dumps({"shapes": {"s": {"circ": {"wins": 1, "runs": 1, "total_ms": 1.0}}}})
    )
    files = [v1_object, v1_shape, *v1_blobs, tier, book]
    before = {path: path.read_bytes() for path in files}

    cache = ArtifactCache(tmp_path)
    assert cache.get("d1", "fp") is None
    assert cache.seed_predicates("s1", "fp") == ()
    assert cache.get_blob("plans", "k1") is None
    assert cache.get_blob("absint", "k1") is None
    assert QueryCache().load(cache) == 0
    assert WinRateBook(cache).counts == {}
    assert cache.stats() == {"hits": 0, "misses": 1, "corrupt": 0}
    # Saving the tier and the book leaves their former files as they were.
    tier_cache = QueryCache()
    tier_cache.store("k", True)
    assert tier_cache.save(cache) == 1
    new_book = WinRateBook(cache)
    new_book.record("s", "circ", won=True, time_ms=1.0)
    new_book.save()
    assert {path: path.read_bytes() for path in files} == before
