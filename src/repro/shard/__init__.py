"""Distributed sharded engine: partition, coordinate, merge.

The shard package is the engine's out-of-process job runner, and
splits a corpus across runs:

* :mod:`~repro.shard.partition` -- deterministic digest-based bucketing
  (any party computes the same partition with no communication);
* :mod:`~repro.shard.coordinator` -- the work-stealing coordinator
  driving ``python -m repro.shard.worker`` fleets over NDJSON pipes,
  with crash retry and an in-process completion guarantee;
* :mod:`~repro.shard.worker` -- the worker process loop and the
  coordinator's handle on one worker;
* :mod:`~repro.shard.merge` -- deterministic reconciliation of
  per-shard report-v1 payloads into one canonical report.

See docs/SHARDING.md for the wire format and operational notes.
"""

from .coordinator import execute_sharded
from .merge import ShardConflict, canonical_row, merge_payloads, render_merged
from .partition import bucket_of, filter_shard, partition_jobs

__all__ = [
    "bucket_of",
    "partition_jobs",
    "filter_shard",
    "execute_sharded",
    "merge_payloads",
    "render_merged",
    "canonical_row",
    "ShardConflict",
]
