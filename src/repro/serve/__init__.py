"""Verification-as-a-service: the ``repro-race serve`` daemon.

The CLI rebuilds every piece of expensive state -- the persistent
ArgStore, the SMT query cache's warm tier, the content-addressed
artifact cache -- from disk on each invocation, so the warm case the
caches exist for is the exception instead of the rule.  This package
keeps all of it hot in one long-lived process:

* :mod:`repro.serve.protocol` -- the newline-delimited JSON wire
  protocol (request/response/event frames, error codes);
* :mod:`repro.serve.state` -- process-wide hot state: lowered CFAs and
  their ArgStores under an LRU memory ceiling, the artifact cache, the
  shared query cache with periodic spill;
* :mod:`repro.serve.jobs` -- the job manager: digest-keyed request
  dedup, per-client budgets, worker-pool scheduling; each job runs as
  a one-job batch through the engine's scheduler, so the cache, warm
  start, events and rows are ``batch``'s own;
* :mod:`repro.serve.server` -- the asyncio front door
  (``repro-race serve``): many concurrent clients over TCP or a Unix
  socket, streamed per-job telemetry, graceful SIGTERM drain;
* :mod:`repro.serve.client` -- the protocol client
  (``repro-race submit``) used by tests, the benchmark, and humans.
"""
