"""Content-addressed on-disk cache of verification artifacts.

Layout (everything under one cache root, safe to delete at any time)::

    objects/<dd>/<key>.json   full artifact: verdict + predicates + ACFA,
                              by slice digest (the scheduler, after a job)
    shapes/<dd>/<key>.json    warm-start index: predicates by slice shape
                              (the scheduler, with each object)
    smt/qcache.json           persistent SMT verdict tier (run_batch,
                              fleet workers and the serve daemon, when
                              it gains entries)
    winrates.json             the portfolio's win-rate book (portfolio
                              jobs and ``repro portfolio --cache``)
    absint/<key>.json         blob: abstract-interpretation summary by
                              slice digest (the portfolio's absint)
    plans/<key>.json          blob: one batch item's plan by source text
                              (the planner, see repro.engine.planner)

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
  object visible, and a torn write can never trip the
  checksum-quarantine path;
* every object embeds a checksum of its payload; reads verify it and
  treat any mismatch, decode error, or schema violation as a **miss**
  (the corrupt file is unlinked so the slot heals on the next store);
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
from ..util.locks import atomic_write_text, file_lock
from .artifacts import (
    ArtifactError,
    result_from_obj,
    result_to_obj,
    term_from_obj,
    term_to_obj,
)

__all__ = ["CacheEntry", "ArtifactCache"]

#: Bump when the on-disk entry format changes.
CACHE_FORMAT = "circ-cache-v1"

#: Warm-start seeds kept per shape after merging concurrent writers.
MAX_SHAPE_PREDICATES = 32


@dataclass
class CacheEntry:
    """A deserialized cache object."""

    digest: str
    result: CircResult
    options_fp: str


def _payload_checksum(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _atomic_write(path: Path, data: str) -> None:
    atomic_write_text(path, data)


class ArtifactCache:
    """The on-disk artifact store.

    ``options_fp`` is a fingerprint of the verifier options that can
    change the *artifacts* (variant, abstraction, strategy, budgets); it
    is mixed into the storage key so runs with different configurations
    never serve each other's entries.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    # -- storage keys --------------------------------------------------------

    def _object_path(self, digest: str, options_fp: str) -> Path:
        key = hashlib.sha256(
            f"{CACHE_FORMAT}\n{digest}\n{options_fp}".encode()
        ).hexdigest()
        return self.root / "objects" / key[:2] / f"{key}.json"

    def _shape_path(self, shape: str, options_fp: str) -> Path:
        key = hashlib.sha256(
            f"{CACHE_FORMAT}\nshape\n{shape}\n{options_fp}".encode()
        ).hexdigest()
        return self.root / "shapes" / key[:2] / f"{key}.json"

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
        path = self._object_path(digest, options_fp)
        payload = self._read_checked(path)
        if payload is None:
            self.misses += 1
            return None
        if (
            payload.get("format") != CACHE_FORMAT
            or payload.get("digest") != digest
        ):
            self._quarantine(path)
            self.misses += 1
            return None
        try:
            result = result_from_obj(payload["result"])
        except (ArtifactError, KeyError):
            self._quarantine(path)
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
        body = {
            "format": CACHE_FORMAT,
            "digest": digest,
            "options_fp": options_fp,
            "result": result_to_obj(result),
        }
        body["checksum"] = _payload_checksum(body["result"])
        _atomic_write(
            self._object_path(digest, options_fp),
            json.dumps(body, sort_keys=True, indent=1),
        )

    # -- generic blobs -------------------------------------------------------

    def _blob_path(self, kind: str, key: str) -> Path:
        # One directory per namespace, without the objects' two-character
        # fan-out: a batch writes a plan entry per new program, and on a
        # disk where each directory creation costs about as much as the
        # file's own creation and rename, the fan-out doubled that cost.
        digest = hashlib.sha256(
            f"{CACHE_FORMAT}\nblob\n{kind}\n{key}".encode()
        ).hexdigest()
        return self.root / kind / f"{digest}.json"

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
        path = self._blob_path(kind, key)
        payload = self._read_checked(path, field="data")
        if payload is None:
            return None
        if payload.get("format") != CACHE_FORMAT or payload.get("key") != key:
            self._quarantine(path)
            return None
        return payload["data"]

    def put_blob(self, kind: str, key: str, data: Any) -> None:
        """Store an auxiliary analysis artifact (atomic, checksummed)."""
        body = {
            "format": CACHE_FORMAT,
            "kind": kind,
            "key": key,
            "data": data,
        }
        body["checksum"] = _payload_checksum(body["data"])
        _atomic_write(
            self._blob_path(kind, key),
            json.dumps(body, sort_keys=True, indent=1),
        )

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
        path = self._shape_path(shape, options_fp)
        fresh = [term_to_obj(p) for p in predicates]
        with file_lock(path.with_suffix(".lock")):
            existing: list = []
            payload = self._read_checked(path, field="predicates")
            if payload is not None and payload.get("shape") == shape:
                existing = list(payload["predicates"])
            merged = fresh + [o for o in existing if o not in fresh]
            merged = merged[:MAX_SHAPE_PREDICATES]
            body = {
                "format": CACHE_FORMAT,
                "shape": shape,
                "predicates": merged,
            }
            body["checksum"] = _payload_checksum(body["predicates"])
            _atomic_write(
                path, json.dumps(body, sort_keys=True, indent=1)
            )

    def seed_predicates(
        self, shape: str, options_fp: str = ""
    ) -> tuple[T.Term, ...]:
        """Warm-start predicates for a slice shape; () when unknown."""
        path = self._shape_path(shape, options_fp)
        payload = self._read_checked(path, field="predicates")
        if payload is None or payload.get("shape") != shape:
            return ()
        try:
            return tuple(
                term_from_obj(p) for p in payload["predicates"]
            )
        except (ArtifactError, KeyError):
            self._quarantine(path)
            return ()

    # -- shared plumbing -----------------------------------------------------

    def _read_checked(
        self, path: Path, field: str = "result"
    ) -> dict | None:
        """Read + checksum-verify one cache file; None (and quarantine)
        on any failure mode: missing, unreadable, undecodable, wrong
        shape, checksum mismatch."""
        try:
            raw = path.read_text()
        except OSError:
            return None
        try:
            payload = json.loads(raw)
        except ValueError:
            self._quarantine(path)
            return None
        if not isinstance(payload, dict):
            self._quarantine(path)
            return None
        if _payload_checksum(payload.get(field)) != payload.get("checksum"):
            self._quarantine(path)
            return None
        return payload

    def _quarantine(self, path: Path) -> None:
        """Drop a corrupt entry so the slot recomputes and heals."""
        self.corrupt += 1
        try:
            path.unlink()
        except OSError:
            pass

    def stats(self) -> dict[str, int]:
        """Verdict-object hits and misses, and every file quarantined."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
        }
