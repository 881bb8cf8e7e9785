"""Content-addressed on-disk cache of verification artifacts.

Layout (everything under one cache root, safe to delete at any time)::

    objects/<name>.json   full artifact: verdict + predicates + ACFA, by
                          slice digest and options (the scheduler, after
                          a job)
    shapes/<name>.json    warm-start index: predicates by slice shape and
                          options (the scheduler, with each object)
    absint/<name>.json    blob: abstract-interpretation summary by slice
                          digest (the portfolio's absint)
    plans/<name>.json     blob: one batch item's plan by source text (the
                          planner, see repro.engine.planner)
    smt/qcache.json       persistent SMT verdict tier (run_batch, once a
                          job runs and the tier gains entries; fleet
                          workers and the serve daemon)
    winrates.json         the portfolio's win-rate book (portfolio jobs
                          and ``repro portfolio --cache``)

Each namespace is one flat directory: ``<name>`` is a SHA-256 of the
format version, the namespace and the entry's key fields.  Every file of
the four namespaces has the same two-line format::

    {"format":"circ-cache-v2","namespace":...,<key fields>,"sha256":...}
    <the payload as one line of compact JSON>

The header names the entry's key fields (``digest`` and ``options_fp``
for objects, ``shape`` and ``options_fp`` for shapes, ``key`` for
blobs) and the SHA-256 of the payload line's bytes.

Verdicts are keyed by the slice digest of :mod:`repro.engine.digest`, so a
hit *means* the lowered slice relevant to the variable is byte-identical
to the one verified before -- renaming files, editing unrelated threads,
reformatting, or rewriting the expressions of statements on irrelevant
variables all still hit.  The plan index is keyed by source text
instead, since it stands in for the lowering that computes the digest:
any edit misses it, and the digests it plans afresh still hit.

Robustness rules:

* writes are atomic (unique temp file + ``os.replace``) so a killed
  process -- or a concurrent writer -- never leaves a half-written
  file visible, and a torn write can never trip the quarantine path;
* every read hashes the payload bytes it read and compares them with
  the header's checksum, and checks the header's format and key fields
  against the lookup; any mismatch, truncation, undecodable header or
  payload is a **miss**, and the file is unlinked (quarantined) so the
  slot heals on the next store;
* a file of an earlier format sits at a path this format never
  computes, so it is never read (a miss, not a quarantine);
* concurrent writers may race on the same object/blob key -- last
  ``os.replace`` wins, which is fine because both wrote equivalent
  artifacts for the same content digest;
* the **shape index is the one genuinely mutated slot** (different
  digests append predicates to the same shape), so its update is a
  read-merge-write under an advisory ``flock``: two shard workers
  publishing predicates for the same shape accumulate instead of
  clobbering each other.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..circ.result import CircResult
from ..smt import terms as T
from ..util.locks import atomic_write_bytes, file_lock
from .artifacts import (
    ArtifactError,
    result_from_obj,
    result_to_obj,
    term_from_obj,
    term_to_obj,
)

__all__ = ["CacheEntry", "ArtifactCache"]

#: Bump when the on-disk entry format changes.
CACHE_FORMAT = "circ-cache-v2"

#: Warm-start seeds kept per shape after merging concurrent writers.
MAX_SHAPE_PREDICATES = 32

#: The namespaces of verdict objects and of the warm-start index.
OBJECTS = "objects"
SHAPES = "shapes"

_COMPACT = (",", ":")


def _header(namespace: str, fields: dict[str, str], line: bytes) -> dict:
    """The header of ``namespace``'s entry keyed by ``fields`` whose
    payload line is ``line``."""
    return {
        "format": CACHE_FORMAT,
        "namespace": namespace,
        **fields,
        "sha256": hashlib.sha256(line).hexdigest(),
    }


@dataclass
class CacheEntry:
    """A deserialized cache object."""

    digest: str
    result: CircResult
    options_fp: str


class ArtifactCache:
    """The on-disk artifact store.

    ``options_fp`` is a fingerprint of the verifier options that can
    change the *artifacts* (variant, abstraction, strategy, budgets); it
    is mixed into the storage key so runs with different configurations
    never serve each other's entries.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self._root = os.fspath(root)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    def smt_tier_path(self) -> Path:
        """Where the persistent SMT verdict tier lives under this root.

        The SMT query cache (:mod:`repro.smt.qcache`) keys entries by
        canonical-formula digest, not slice digest, so one file per cache
        root suffices -- verdicts are reusable across models and options.
        """
        return self.root / "smt" / "qcache.json"

    # -- objects -------------------------------------------------------------

    def get(self, digest: str, options_fp: str = "") -> CacheEntry | None:
        """Look up a verdict by slice digest; None on miss or corruption."""
        fields = {"digest": digest, "options_fp": options_fp}
        payload = self._read(OBJECTS, fields)
        result = None
        if payload is not None:
            try:
                result = result_from_obj(payload)
            except (ArtifactError, KeyError):
                self._quarantine(self._path(OBJECTS, fields))
        if result is None:
            self.misses += 1
            return None
        self.hits += 1
        return CacheEntry(
            digest=digest, result=result, options_fp=options_fp
        )

    def put(
        self,
        digest: str,
        result: CircResult,
        options_fp: str = "",
        shape: str | None = None,
    ) -> None:
        """Store a verdict; also refreshes the warm-start index.

        UNKNOWN results are never stored as verdicts -- a repeat query
        should retry (possibly warm-started), not be served a cached
        give-up -- but the predicates discovered before the budget ran
        out still feed the warm-start index.
        """
        if shape is not None and getattr(result, "predicates", ()):
            self._put_shape(shape, options_fp, result.predicates)
        if getattr(result, "unknown", False):
            return
        self._write(
            OBJECTS,
            {"digest": digest, "options_fp": options_fp},
            result_to_obj(result),
        )

    # -- generic blobs -------------------------------------------------------

    def get_blob(self, kind: str, key: str) -> Any | None:
        """Look up an auxiliary analysis artifact (e.g. an abstract-
        interpretation summary) by namespace + key.

        Blobs get the same robustness discipline as verdict objects --
        checksummed payloads, corruption treated as a miss with the file
        quarantined -- but none of the verdict-specific schema: the
        payload is arbitrary JSON owned by the storing analysis.  Blob
        lookups are not counted in :meth:`stats`, which counts verdict
        objects.
        """
        return self._read(kind, {"key": key})

    def put_blob(self, kind: str, key: str, data: Any) -> None:
        """Store an auxiliary analysis artifact (atomic, checksummed)."""
        self._write(kind, {"key": key}, data)

    # -- warm-start index ----------------------------------------------------

    def _put_shape(
        self, shape: str, options_fp: str, predicates: tuple[T.Term, ...]
    ) -> None:
        """Merge ``predicates`` into the shape's warm-start entry.

        Unlike objects and blobs (content-addressed, so concurrent
        writers store equivalent payloads), the shape slot aggregates
        predicates from *different* digests.  The update is therefore a
        read-merge-write under an advisory ``flock``: fresh predicates
        go first, previously published ones that are still distinct
        follow, capped at :data:`MAX_SHAPE_PREDICATES` so the seed set
        stays a warm start rather than a predicate dump.
        """
        fields = {"shape": shape, "options_fp": options_fp}
        fresh = [term_to_obj(p) for p in predicates]
        path = self._path(SHAPES, fields)
        with file_lock(os.path.splitext(path)[0] + ".lock"):
            existing = self._read(SHAPES, fields) or []
            merged = fresh + [o for o in existing if o not in fresh]
            self._write(SHAPES, fields, merged[:MAX_SHAPE_PREDICATES])

    def seed_predicates(
        self, shape: str, options_fp: str = ""
    ) -> tuple[T.Term, ...]:
        """Warm-start predicates for a slice shape; () when unknown."""
        fields = {"shape": shape, "options_fp": options_fp}
        payload = self._read(SHAPES, fields)
        if payload is None:
            return ()
        try:
            return tuple(term_from_obj(p) for p in payload)
        except (ArtifactError, KeyError):
            self._quarantine(self._path(SHAPES, fields))
            return ()

    # -- shared plumbing -----------------------------------------------------

    def _path(self, namespace: str, fields: dict[str, str]) -> str:
        """The one file of ``namespace`` that holds the entry keyed by
        ``fields``."""
        name = hashlib.sha256(
            "\n".join((CACHE_FORMAT, namespace, *fields.values())).encode()
        ).hexdigest()
        return os.path.join(self._root, namespace, name + ".json")

    def _write(self, namespace: str, fields: dict[str, str], payload: Any) -> None:
        """Publish ``payload`` as ``namespace``'s entry keyed by ``fields``:
        the header line, then the payload serialized once."""
        line = json.dumps(payload, separators=_COMPACT).encode()
        head = json.dumps(_header(namespace, fields, line), separators=_COMPACT)
        atomic_write_bytes(
            self._path(namespace, fields), b"%s\n%s\n" % (head.encode(), line)
        )

    def _read(self, namespace: str, fields: dict[str, str]) -> Any | None:
        """The decoded payload of ``namespace``'s entry keyed by
        ``fields``; None when there is none, and None (with the file
        quarantined) when the file is not exactly a header line naming
        this format and these fields, then a payload line whose bytes
        hash to the header's checksum."""
        path = self._path(namespace, fields)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError:
            return None
        try:
            head, line, rest = raw.split(b"\n", 2)
            if rest or json.loads(head) != _header(namespace, fields, line):
                raise ValueError("not this entry")
            return json.loads(line)
        except ValueError:
            self._quarantine(path)
            return None

    def _quarantine(self, path: str) -> None:
        """Drop a corrupt entry so the slot recomputes and heals."""
        self.corrupt += 1
        try:
            os.unlink(path)
        except OSError:
            pass

    def stats(self) -> dict[str, int]:
        """Verdict-object hits and misses, and every file quarantined."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
        }
