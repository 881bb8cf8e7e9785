"""Lowering from the mini-C AST to Control Flow Automata.

Mirrors BLAST's CIL frontend in miniature:

* structured statements become assume/assign edges;
* ``atomic`` blocks mark their interior locations atomic (the entry edge
  carries the thread into the first atomic location; the last operation of
  the block releases atomicity by targeting a non-atomic location);
* functions are inlined at each call site with freshly renamed locals
  (recursion is rejected);
* ``lock``/``unlock`` desugar into an atomic test-and-set / a reset, with
  ``lock_info`` tags preserved for the lockset baseline;
* a final contraction pass removes stutter (``assume true``) edges that
  connect equi-atomic locations, keeping CFAs close to the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from ..smt import terms as T
from ..smt.simplify import fold_constants
from ..cfa.cfa import CFA, AssignOp, AssumeOp, Edge
from . import ast as A
from .parser import parse_program

__all__ = ["LowerError", "lower_thread", "lower_source", "lower_program"]

#: Maximum function-call inlining depth (recursion guard).
MAX_INLINE_DEPTH = 32


class LowerError(ValueError):
    """Raised on semantically invalid programs (undeclared variables,
    recursion, misplaced nondeterministic markers, ...)."""


@dataclass
class _Frame:
    """Inlining context for one function activation."""

    rename: dict[str, str]
    return_target: int | None = None
    return_var: str | None = None


class _Lowerer:
    def __init__(self, program: A.Program, thread: A.ThreadDef):
        self.program = program
        self.thread = thread
        self.globals = set(program.global_names())
        self.locals: set[str] = set()
        self.edges: list[Edge] = []
        self.atomic: set[int] = set()
        self.error_loc: int | None = None
        self._next_loc = 0
        self._inline_counter = 0
        self._break_targets: list[int] = []
        self._frames: list[_Frame] = [_Frame(rename={})]
        self._atomic_depth = 0

    # -- allocation ---------------------------------------------------------

    def fresh(self) -> int:
        q = self._next_loc
        self._next_loc += 1
        if self._atomic_depth > 0:
            self.atomic.add(q)
        return q

    def error(self) -> int:
        if self.error_loc is None:
            self.error_loc = self._next_loc
            self._next_loc += 1
        return self.error_loc

    def emit(self, src: int, op, dst: int, lock_info=None) -> None:
        self.edges.append(Edge(src, op, dst, lock_info))

    # -- variable resolution ----------------------------------------------------

    def resolve(self, name: str) -> str:
        for frame in reversed(self._frames):
            if name in frame.rename:
                return frame.rename[name]
        if name in self.globals or name in self.locals:
            return name
        raise LowerError(f"undeclared variable {name!r}")

    def resolve_term(self, t: T.Term) -> T.Term:
        mapping = {}
        for name in T.free_vars(t):
            mapping[name] = T.var(self.resolve(name))
        return T.substitute(t, mapping)

    def declare_local(self, name: str) -> str:
        """Register a local; inlined frames get suffixed copies."""
        frame = self._frames[-1]
        if len(self._frames) == 1:
            unique = name
        else:
            unique = f"{name}@{self._inline_counter}"
        if unique in self.globals or unique in self.locals:
            if len(self._frames) == 1:
                raise LowerError(f"duplicate declaration of {name!r}")
        self.locals.add(unique)
        frame.rename[name] = unique
        return unique

    # -- conditions ----------------------------------------------------------------

    def check_no_nested_nondet(self, cond: T.Term) -> None:
        from ..smt.terms import subterms

        for s in subterms(cond):
            if isinstance(s, A.Nondet) and s is not cond:
                raise LowerError(
                    "'*' may only be used as an entire condition"
                )

    def branch_preds(self, cond: T.Term) -> tuple[T.Term, T.Term]:
        """(then-assume, else-assume) for a condition."""
        if isinstance(cond, A.Nondet):
            return T.TRUE, T.TRUE
        self.check_no_nested_nondet(cond)
        cond = fold_constants(self.resolve_term(cond))
        return cond, fold_constants(T.not_(cond))

    # -- statement lowering -----------------------------------------------------------

    def lower_stmt(self, stmt: A.Stmt, entry: int) -> int:
        """Lower ``stmt`` starting at ``entry``; returns the exit location."""
        if isinstance(stmt, A.Block):
            cur = entry
            for s in stmt.stmts:
                cur = self.lower_stmt(s, cur)
            return cur
        if isinstance(stmt, A.LocalDecl):
            name = self.declare_local(stmt.name)
            if stmt.init is None:
                return entry
            rhs = self.resolve_term(stmt.init)
            exit_ = self.fresh()
            self.emit(entry, AssignOp(name, rhs), exit_)
            return exit_
        if isinstance(stmt, A.Assign):
            lhs = self.resolve(stmt.lhs)
            rhs = self.resolve_term(stmt.rhs)
            exit_ = self.fresh()
            self.emit(entry, AssignOp(lhs, rhs), exit_)
            return exit_
        if isinstance(stmt, A.Skip):
            return entry
        if isinstance(stmt, A.Assume):
            if isinstance(stmt.cond, A.Nondet):
                return entry
            self.check_no_nested_nondet(stmt.cond)
            pred = fold_constants(self.resolve_term(stmt.cond))
            exit_ = self.fresh()
            if pred == T.TRUE:
                self.emit(entry, AssumeOp(T.TRUE), exit_)
            elif pred != T.FALSE:
                self.emit(entry, AssumeOp(pred), exit_)
            return exit_
        if isinstance(stmt, A.Assert):
            then_p, else_p = self.branch_preds(stmt.cond)
            exit_ = self.fresh()
            if then_p != T.FALSE:
                self.emit(entry, AssumeOp(then_p), exit_)
            if else_p != T.FALSE:
                self.emit(entry, AssumeOp(else_p), self.error())
            return exit_
        if isinstance(stmt, A.If):
            then_p, else_p = self.branch_preds(stmt.cond)
            then_entry = self.fresh()
            if then_p != T.FALSE:
                self.emit(entry, AssumeOp(then_p), then_entry)
            then_exit = self.lower_stmt(stmt.then, then_entry)
            if stmt.els is None:
                join = self.fresh()
                if else_p != T.FALSE:
                    self.emit(entry, AssumeOp(else_p), join)
                self.emit(then_exit, AssumeOp(T.TRUE), join)
                return join
            else_entry = self.fresh()
            if else_p != T.FALSE:
                self.emit(entry, AssumeOp(else_p), else_entry)
            else_exit = self.lower_stmt(stmt.els, else_entry)
            join = self.fresh()
            self.emit(then_exit, AssumeOp(T.TRUE), join)
            self.emit(else_exit, AssumeOp(T.TRUE), join)
            return join
        if isinstance(stmt, A.While):
            head = self.fresh()
            self.emit(entry, AssumeOp(T.TRUE), head)
            then_p, else_p = self.branch_preds(stmt.cond)
            exit_ = self.fresh()
            body_entry = self.fresh()
            if then_p != T.FALSE:
                self.emit(head, AssumeOp(then_p), body_entry)
            if else_p != T.FALSE:
                self.emit(head, AssumeOp(else_p), exit_)
            self._break_targets.append(exit_)
            body_exit = self.lower_stmt(stmt.body, body_entry)
            self._break_targets.pop()
            self.emit(body_exit, AssumeOp(T.TRUE), head)
            return exit_
        if isinstance(stmt, A.Break):
            if not self._break_targets:
                raise LowerError("'break' outside a loop")
            self.emit(entry, AssumeOp(T.TRUE), self._break_targets[-1])
            # Unreachable continuation.
            return self.fresh()
        if isinstance(stmt, A.Atomic):
            atomic_entry = self.fresh()
            self.atomic.add(atomic_entry)
            self.emit(entry, AssumeOp(T.TRUE), atomic_entry)
            self._atomic_depth += 1
            body_exit = self.lower_stmt(stmt.body, atomic_entry)
            self._atomic_depth -= 1
            # The last operation releases atomicity: its target must be
            # non-atomic.  If the body exit ended up atomic (it was created
            # inside), append an explicit release edge.
            if body_exit in self.atomic and self._atomic_depth == 0:
                release = self.fresh()
                self.emit(body_exit, AssumeOp(T.TRUE), release)
                return release
            return body_exit
        if isinstance(stmt, A.Lock):
            mutex = self.resolve(stmt.mutex)
            mid = self.fresh()
            self.atomic.add(mid)
            exit_ = self.fresh()  # atomic only if inside an atomic block
            info = ("acquire", mutex)
            self.emit(
                entry, AssumeOp(T.eq(T.var(mutex), T.num(0))), mid, info
            )
            self.emit(mid, AssignOp(mutex, T.num(1)), exit_, info)
            return exit_
        if isinstance(stmt, A.Unlock):
            mutex = self.resolve(stmt.mutex)
            exit_ = self.fresh()
            self.emit(
                entry, AssignOp(mutex, T.num(0)), exit_, ("release", mutex)
            )
            return exit_
        if isinstance(stmt, A.Return):
            frame = self._frames[-1]
            if frame.return_target is None:
                # Return from the thread body: jump to a terminal sink.
                sink = self.fresh()
                self.emit(entry, AssumeOp(T.TRUE), sink)
                if stmt.value is not None:
                    raise LowerError("thread bodies cannot return a value")
                return self.fresh()  # unreachable continuation
            cur = entry
            if frame.return_var is not None:
                if stmt.value is None:
                    raise LowerError("missing return value")
                rhs = self.resolve_term(stmt.value)
                nxt = self.fresh()
                self.emit(cur, AssignOp(frame.return_var, rhs), nxt)
                cur = nxt
            elif stmt.value is not None:
                raise LowerError("void function returns a value")
            self.emit(cur, AssumeOp(T.TRUE), frame.return_target)
            return self.fresh()  # unreachable continuation
        if isinstance(stmt, A.CallStmt):
            return self.inline_call(stmt.func, stmt.args, None, entry)
        if isinstance(stmt, A.AssignCall):
            lhs = self.resolve(stmt.lhs)
            return self.inline_call(stmt.func, stmt.args, lhs, entry)
        raise TypeError(f"unknown statement {stmt!r}")

    def inline_call(
        self,
        func_name: str,
        args: tuple[T.Term, ...],
        result_var: str | None,
        entry: int,
    ) -> int:
        if len(self._frames) > MAX_INLINE_DEPTH:
            raise LowerError(
                f"call chain deeper than {MAX_INLINE_DEPTH}: recursion?"
            )
        func = self.program.function(func_name)
        if len(args) != len(func.params):
            raise LowerError(
                f"call to {func_name!r} with {len(args)} args, "
                f"expected {len(func.params)}"
            )
        if result_var is not None and not func.returns_value:
            raise LowerError(f"void function {func_name!r} used as a value")
        self._inline_counter += 1
        frame = _Frame(rename={}, return_target=None, return_var=result_var)
        # Evaluate arguments into fresh parameter locals (in the caller's
        # scope), then enter the callee frame.
        cur = entry
        param_names: list[str] = []
        for p, arg in zip(func.params, args):
            unique = f"{p}@{self._inline_counter}"
            self.locals.add(unique)
            param_names.append(unique)
            rhs = self.resolve_term(arg)
            nxt = self.fresh()
            self.emit(cur, AssignOp(unique, rhs), nxt)
            cur = nxt
        for p, unique in zip(func.params, param_names):
            frame.rename[p] = unique
        exit_ = self.fresh()
        frame.return_target = exit_
        self._frames.append(frame)
        body_exit = self.lower_stmt(func.body, cur)
        self._frames.pop()
        # Fall-through return (void functions, or int functions on paths
        # without an explicit return -- value stays unchanged).
        self.emit(body_exit, AssumeOp(T.TRUE), exit_)
        return exit_

    # -- assembly ---------------------------------------------------------------------

    def build(self) -> CFA:
        q0 = self.fresh()
        self.lower_stmt(self.thread.body, q0)
        locations = set(range(self._next_loc))
        error_locs = {self.error_loc} if self.error_loc is not None else set()
        cfa = CFA(
            name=self.thread.name,
            q0=q0,
            locations=locations,
            edges=self.edges,
            atomic=self.atomic,
            error_locations=error_locs,
            globals_=self.globals,
            locals_=self.locals,
            global_init={g.name: g.init for g in self.program.globals},
        )
        return _contract(cfa)


def _contract(cfa: CFA) -> CFA:
    """Contract stutter edges and drop unreachable locations.

    An edge ``u --[true]--> v`` with no lock tag is contracted (u merged
    into v) when it is u's only out-edge, u is not an error location,
    u != v, and the merge does not *acquire* atomicity early (contracting a
    non-atomic u into an atomic v would let predecessors enter the atomic
    section one step sooner, removing interleavings -- unsound).  Merging an
    atomic u into a non-atomic v is fine: a thread at u blocks every other
    thread and its only move is the free stutter, so eliding the state
    preserves both the reachable data states and the race states.  This
    removes the bookkeeping locations lowering introduces at joins and
    atomic-block exits, keeping CFAs equal to the paper's hand-drawn
    figures.
    """
    atomic = cfa.atomic
    error = cfa.error_locations

    # Merging u into v removes u's one out-edge and redirects u's in-edges
    # to v, so every other edge keeps its source.  Merges therefore run,
    # one at a time, on the contractible location whose first out-edge
    # comes first in ``cfa.edges``, and a merge can change only whether
    # the predecessors of u are contractible.  ``merged`` maps each merged
    # location towards the one it was merged into.
    merged: dict[int, int] = {}

    def find(q: int) -> int:
        root = q
        while root in merged:
            root = merged[root]
        while q != root:  # path compression
            merged[q], q = root, merged[q]
        return root

    out: dict[int, list[Edge]] = {}
    preds: dict[int, list[int]] = {}
    for e in cfa.edges:
        out.setdefault(e.src, []).append(e)
        preds.setdefault(e.dst, []).append(e.src)
    first = {u: i for i, u in enumerate(out)}

    def stutter_target(u: int) -> int | None:
        """The location ``u`` contracts into, or None."""
        outs = out[u]
        if len(outs) != 1 or u in error:
            return None
        e = outs[0]
        if e.lock_info is not None or not isinstance(e.op, AssumeOp):
            return None
        if e.op.pred != T.TRUE:
            return None
        v = find(e.dst)
        if u == v or (u not in atomic and v in atomic):
            return None  # never acquire atomicity early
        return v

    # Built in key order, so the list is already a heap.
    heap = [(first[u], u) for u in out if stutter_target(u) is not None]
    while heap:
        u = heappop(heap)[1]
        if u in merged:
            continue
        v = stutter_target(u)
        if v is None:
            continue
        merged[u] = v
        del out[u]
        moved = preds.pop(u, [])
        for w in moved:
            if w in out and stutter_target(w) is not None:
                heappush(heap, (first[w], w))
        into = preds.setdefault(v, [])
        if len(into) < len(moved):
            into, moved = moved, into
            preds[v] = into
        into.extend(moved)

    # Keep what q0 reaches, numbered densely in BFS order (successors in
    # increasing order) for stable output.  Merged locations have no
    # out-edges left and are no edge's target, so none is reached.
    q0 = find(cfa.q0)
    renum = {q0: 0}
    order = [q0]
    for q in order:
        for nxt in sorted(find(e.dst) for e in out.get(q, ())):
            if nxt not in renum:
                renum[nxt] = len(order)
                order.append(nxt)

    return CFA(
        name=cfa.name,
        q0=0,
        locations=range(len(order)),
        edges=[
            Edge(renum[e.src], e.op, renum[find(e.dst)], e.lock_info)
            for e in cfa.edges
            if e.src in renum
        ],
        atomic={renum[q] for q in atomic if q in renum},
        error_locations={renum[q] for q in error if q in renum},
        globals_=cfa.globals,
        locals_=cfa.locals,
        global_init=cfa.global_init,
    )


def lower_thread(program: A.Program, thread_name: str | None = None) -> CFA:
    """Lower one thread of a parsed program into a CFA.

    Programs using the Section 5 pointer extension are first rewritten by
    the alias-analysis-driven elimination pass."""
    from .pointers import eliminate_pointers

    program, _ = eliminate_pointers(program)
    thread = program.thread(thread_name)
    return _Lowerer(program, thread).build()


def lower_source(source: str, thread_name: str | None = None) -> CFA:
    """Parse source text and lower one thread."""
    return lower_thread(parse_program(source), thread_name)


def lower_program(source: str) -> dict[str, CFA]:
    """Parse source text and lower every thread."""
    program = parse_program(source)
    return {t.name: lower_thread(program, t.name) for t in program.threads}
