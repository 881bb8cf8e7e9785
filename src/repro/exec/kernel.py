"""Compiled successor tables for the explicit-state interpreter.

:meth:`repro.exec.interp.MultiProgram.successors` fires out-edges
through closures built here instead of interpreting their terms.  A
state keeps its globals and each thread's locals as ``(name, value)``
pairs sorted by name, and no step changes that layout, so a variable is
a fixed *slot*: its position in the globals tuple or in its thread's
locals tuple.

* :func:`compile_term` turns a term into a closure ``(globals, locals)
  -> value`` computing exactly what :func:`repro.smt.terms.evaluate`
  computes -- the same value of the same type (``bool`` or ``int``) --
  for each of its thirteen term classes.
* :func:`compile_edge` turns a CFA edge into ``fire(globals, locals)``,
  which returns the successor's globals tuple and ``(dst, locals)``
  pair, or None when the edge is not enabled.  An assignment replaces
  one slot, so the new tuple equals the one ``tuple(sorted(env.items()))``
  builds.
"""

from __future__ import annotations

import operator
from typing import Callable, Mapping, Optional

from ..cfa.cfa import AssignOp, AssumeOp, Edge
from ..smt.terms import (
    Add,
    And,
    BoolConst,
    Cmp,
    Iff,
    Implies,
    IntConst,
    Mul,
    Neg,
    Not,
    Or,
    Sub,
    Term,
    Var,
)

__all__ = ["Reader", "Fire", "compile_term", "compile_edge", "slot_readers"]

Pairs = tuple[tuple[str, int], ...]
#: A compiled term: ``(globals, locals) -> value``.
Reader = Callable[[Pairs, Pairs], "int | bool"]
#: A compiled edge: ``(globals, locals) -> (globals', (dst, locals'))``,
#: or None when the edge is not enabled.
Fire = Callable[[Pairs, Pairs], Optional[tuple[Pairs, tuple[int, Pairs]]]]


def _global(j: int) -> Reader:
    return lambda g, loc: g[j][1]


def _local(j: int) -> Reader:
    return lambda g, loc: loc[j][1]


def slot_readers(
    global_names: tuple[str, ...], local_names: tuple[str, ...]
) -> dict[str, Reader]:
    """One slot reader per variable, for the given sorted name layouts."""
    readers = {name: _global(j) for j, name in enumerate(global_names)}
    readers.update({name: _local(j) for j, name in enumerate(local_names)})
    return readers


#: Each comparison returns a ``bool`` on ``int`` and ``bool`` operands,
#: as ``evaluate``'s do.
_CMP = {
    "==": operator.eq,
    "!=": operator.ne,
    "<=": operator.le,
    "<": operator.lt,
    ">=": operator.ge,
    ">": operator.gt,
}


def compile_term(t: Term, readers: Mapping[str, Reader]) -> Reader:
    """A closure computing :func:`~repro.smt.terms.evaluate` of ``t``.

    ``readers`` maps every free variable of ``t`` to its slot reader.
    """
    if isinstance(t, Var):
        return readers[t.name]
    if isinstance(t, (IntConst, BoolConst)):
        value = t.value
        return lambda g, loc: value
    if isinstance(t, Add):
        fs = tuple(compile_term(a, readers) for a in t.args)
        return lambda g, loc: sum(f(g, loc) for f in fs)
    if isinstance(t, Sub):
        a, b = compile_term(t.lhs, readers), compile_term(t.rhs, readers)
        return lambda g, loc: a(g, loc) - b(g, loc)
    if isinstance(t, Neg):
        a = compile_term(t.arg, readers)
        return lambda g, loc: -a(g, loc)
    if isinstance(t, Mul):
        a, b = compile_term(t.lhs, readers), compile_term(t.rhs, readers)
        return lambda g, loc: a(g, loc) * b(g, loc)
    if isinstance(t, Cmp):
        cmp = _CMP[t.op]
        a, b = compile_term(t.lhs, readers), compile_term(t.rhs, readers)
        return lambda g, loc: cmp(a(g, loc), b(g, loc))
    if isinstance(t, Not):
        a = compile_term(t.arg, readers)
        return lambda g, loc: not a(g, loc)
    if isinstance(t, And):
        fs = tuple(compile_term(a, readers) for a in t.args)
        return lambda g, loc: all(f(g, loc) for f in fs)
    if isinstance(t, Or):
        fs = tuple(compile_term(a, readers) for a in t.args)
        return lambda g, loc: any(f(g, loc) for f in fs)
    if isinstance(t, Implies):
        a, b = compile_term(t.lhs, readers), compile_term(t.rhs, readers)
        return lambda g, loc: (not a(g, loc)) or b(g, loc)
    if isinstance(t, Iff):
        a, b = compile_term(t.lhs, readers), compile_term(t.rhs, readers)
        return lambda g, loc: bool(a(g, loc)) == bool(b(g, loc))
    raise TypeError(f"unknown term {t!r}")


def compile_edge(
    edge: Edge, global_names: tuple[str, ...], local_names: tuple[str, ...]
) -> Fire:
    """``fire(globals, locals)`` for ``edge`` over the given slot layout."""
    readers = slot_readers(global_names, local_names)
    dst, op = edge.dst, edge.op
    if isinstance(op, AssumeOp):
        pred = compile_term(op.pred, readers)

        def fire_assume(g, loc):
            if pred(g, loc):
                return g, (dst, loc)
            return None

        return fire_assume
    if isinstance(op, AssignOp):
        lhs, rhs = op.lhs, compile_term(op.rhs, readers)
        if lhs in global_names:
            j = global_names.index(lhs)
            return lambda g, loc: (
                g[:j] + ((lhs, rhs(g, loc)),) + g[j + 1 :],
                (dst, loc),
            )
        j = local_names.index(lhs)
        return lambda g, loc: (
            g,
            (dst, loc[:j] + ((lhs, rhs(g, loc)),) + loc[j + 1 :]),
        )
    raise TypeError(f"unknown op {op!r}")
