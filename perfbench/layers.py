"""Outside-in layer tracer for the ``repro`` package.

The tracer times the public functions of each layer without editing the
package: :meth:`Tracer.install` wraps every target function or method in
a timing wrapper and rebinds, in every loaded ``repro.*`` module, each
attribute that points to the original.  Modules that did ``from x import
f`` therefore call the wrapper too.  :meth:`Tracer.uninstall` puts every
original back, by identity.

A span records its layer, start, end, the span that was open below it
on the same thread (its parent) and the query the benchmark was running.
Spans stay in memory; :meth:`Tracer.dump` writes them as JSON.  A span's
self time is its duration minus the time its child spans cover, so the
layers' self times add up to the traced wall time when every step of a
query sits inside some layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass

#: Layer name -> ``module:qualname`` targets.  ``module:*`` stands for
#: every function the module lists in ``__all__`` and defines itself.
LAYERS: dict[str, tuple[str, ...]] = {
    "lang": ("repro.lang.lower:lower_source",),
    "static": ("repro.static.classify:classify",),
    "engine.digest": (
        "repro.engine.digest:slice_digest",
        "repro.engine.digest:shape_key",
    ),
    "engine.planner": ("repro.engine.planner:plan",),
    "engine.cache": (
        "repro.engine.cache:ArtifactCache.get",
        "repro.engine.cache:ArtifactCache.put",
        "repro.engine.cache:ArtifactCache.seed_predicates",
        "repro.engine.cache:ArtifactCache.get_blob",
        "repro.engine.cache:ArtifactCache.put_blob",
        "repro.smt.qcache:QueryCache.load",
        "repro.smt.qcache:QueryCache.save",
    ),
    "engine.scheduler": ("repro.engine.scheduler:execute",),
    "shard": ("repro.shard.coordinator:execute_sharded",),
    "circ": ("repro.circ.circ:circ",),
    "reach": ("repro.reach.explore:reach_and_build",),
    "predabs": ("repro.predabs.abstractor:Abstractor.abstract",),
    "smt": (
        "repro.smt.solver:is_sat",
        "repro.smt.solver:is_sat_conjunction",
        "repro.smt.solver:is_valid",
        "repro.smt.solver:entails",
        "repro.smt.solver:get_model",
        "repro.smt.solver:equivalent",
        "repro.smt.solver:ConjunctionContext.query",
    ),
    "acfa.simulate": ("repro.acfa.simulate:*",),
    "acfa.collapse": (
        "repro.acfa.collapse:collapse",
        "repro.acfa.collapse:project_acfa",
        "repro.reach.store:ArgStore.collapse_quotient",
    ),
    "circ.refine": ("repro.circ.refine:*",),
    "exec": ("repro.exec.interp:explore", "repro.exec.interp:replay"),
    "portfolio": ("repro.portfolio.driver:run_portfolio",),
    "portfolio.racer": ("repro.portfolio.racer:*",),
    "portfolio.absint": ("repro.portfolio.absint:*",),
    "baselines.lockset": ("repro.baselines.lockset:*",),
    "races.report": ("repro.races.report:*",),
}

#: Targets whose memo hits are counted: a call that leaves the named
#: work counter of its ``self`` unchanged was answered from the memo.
MEMO_COUNTERS = {"repro.predabs.abstractor:Abstractor.abstract": "query_count"}


@dataclass(slots=True)
class Span:
    layer: str
    start: float
    end: float
    parent: int | None
    query: int | None
    thread: int


def expand(target: str) -> list[str]:
    """``module:*`` -> one ``module:name`` per function in ``__all__``."""
    modname, qual = target.split(":")
    if qual != "*":
        return [target]
    mod = importlib.import_module(modname)
    return [
        f"{modname}:{name}"
        for name in mod.__all__
        if callable(obj := getattr(mod, name))
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == modname
    ]


def _repro_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


class Tracer:
    """Spans and counters for one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.memo_hits: dict[str, int] = {}
        #: The id spans started now are tagged with (see begin_query).
        self.query: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        # (owner, attribute, original) for every rebinding made.
        self._patched: list[tuple[object, str, object]] = []
        # id(wrapper) -> (wrapper, original); holding the wrapper keeps
        # its id from being reused while the tracer can still meet it.
        self._wrappers: dict[int, tuple[object, object]] = {}

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind every reference to it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = [
            (layer, t)
            for layer, specs in LAYERS.items()
            for spec in specs
            for t in expand(spec)
        ]
        functions: dict[int, object] = {}
        for layer, target in targets:
            modname, qual = target.split(":")
            owner = importlib.import_module(modname)
            attr = qual
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
            else:
                original = getattr(owner, attr)
            wrapper = self._wrap(layer, original, MEMO_COUNTERS.get(target))
            self._wrappers[id(wrapper)] = (wrapper, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._patched.append((owner, attr, original))
            else:
                functions[id(original)] = wrapper
        for mod in _repro_modules():
            for name, value in list(vars(mod).items()):
                wrapper = functions.get(id(value))
                if wrapper is not None:
                    setattr(mod, name, wrapper)
                    self._patched.append((mod, name, value))

    def uninstall(self) -> None:
        """Put every original back, including references to a wrapper
        that a module imported while the tracer was installed."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        for mod in _repro_modules():
            for name, value in list(vars(mod).items()):
                wrapper, original = self._wrappers.get(id(value), (None, None))
                if wrapper is value:
                    setattr(mod, name, original)
        self._wrappers.clear()

    def begin_query(self) -> None:
        """Tag the spans that follow with a new query id."""
        self.query = 0 if self.query is None else self.query + 1

    def patched(self) -> list[tuple[object, str, object]]:
        """The (owner, attribute, original) rebindings currently in place."""
        return list(self._patched)

    # -- recording -----------------------------------------------------------

    def _wrap(self, layer: str, fn, memo_attr: str | None):
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(
                layer,
                clock(),
                0.0,
                stack[-1] if stack else None,
                self.query,
                threading.get_ident(),
            )
            with self._lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            before = getattr(args[0], memo_attr) if memo_attr else None
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if memo_attr and getattr(args[0], memo_attr) == before:
                    with self._lock:
                        self.memo_hits[layer] = self.memo_hits.get(layer, 0) + 1

        return wrapper

    # -- results -------------------------------------------------------------

    def layer_table(self) -> dict[str, dict[str, float]]:
        """``{layer: {"calls": n, "self_s": s}}`` over every span, with
        every layer present."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        table = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for span, children in zip(self.spans, child_time):
            row = table[span.layer]
            row["calls"] += 1
            row["self_s"] += span.end - span.start - children
        return table

    def dump(self, path) -> None:
        """Write every span as JSON (parents are indices into the list)."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["layer", "start", "end", "parent", "query", "thread"],
                    "spans": [
                        [s.layer, s.start, s.end, s.parent, s.query, s.thread]
                        for s in self.spans
                    ],
                },
                fh,
            )
