"""Term and formula representation for the SMT substrate.

The CIRC algorithm issues three kinds of logical queries: satisfiability of
trace formulas, entailment between abstract regions, and entailment checks
during simulation and bisimulation.  All of them fall inside quantifier-free
linear integer arithmetic (QF_LIA), so the term language here is deliberately
small: integer variables and constants, linear-friendly arithmetic (``+``,
``-``, ``*``), comparisons, and the boolean connectives.

Terms are immutable and **hash-consed**: every constructor call goes through
a per-process intern table (``_TermMeta.__call__``), so structurally equal
terms built anywhere in the process are the *same object*.  Equality between
two interned terms is pointer identity, hashes are computed once at intern
time, and the traversals that dominate the verifier's hot path
(``free_vars``, ``atoms``, ``substitute``) memoize per interned node.
Unpickling re-interns bottom-up through ``__reduce__``, so pointer identity
survives the scheduler's and serve daemon's process boundaries.

:func:`clear_intern_table` starts a new table generation.  Terms from an
older generation stay valid: the identity fast path is taken only between
two terms of the same generation, and ``__eq__`` falls back to comparing
``key()`` tuples across generations.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Iterator, Mapping

__all__ = [
    "Term",
    "Var",
    "IntConst",
    "BoolConst",
    "Add",
    "Sub",
    "Neg",
    "Mul",
    "Cmp",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "TRUE",
    "FALSE",
    "var",
    "num",
    "add",
    "sub",
    "neg",
    "mul",
    "eq",
    "ne",
    "le",
    "lt",
    "ge",
    "gt",
    "not_",
    "and_",
    "or_",
    "implies",
    "iff",
    "free_vars",
    "substitute",
    "rename",
    "evaluate",
    "atoms",
    "is_atom",
    "intern_generation",
    "intern_stats",
    "clear_intern_table",
]


class _InternState:
    """The per-process intern table and its bookkeeping."""

    __slots__ = ("table", "generation", "counter", "lock")

    def __init__(self) -> None:
        self.table: dict[tuple, "Term"] = {}
        #: Bumped on :func:`clear_intern_table`.
        self.generation = 1
        self.counter = itertools.count(1)
        self.lock = threading.Lock()


_INTERN = _InternState()


def intern_generation() -> int:
    """The live table generation (see ``Term._gen``)."""
    return _INTERN.generation


def intern_stats() -> dict:
    """Size and bookkeeping of the intern table (diagnostics)."""
    return {
        "size": len(_INTERN.table),
        "generation": _INTERN.generation,
    }


def clear_intern_table() -> None:
    """Drop the intern table and start a new generation.

    Live terms keep working -- two terms interned in *different*
    generations compare structurally, so clearing can never make equal
    terms unequal.  Only tests use this; a long-lived process keeps one
    table (terms are small and heavily shared).
    """
    with _INTERN.lock:
        _INTERN.table = {}
        _INTERN.generation += 1
        _SUBST_MEMO.clear()


class _TermMeta(type):
    """Metaclass routing every construction through the intern table.

    ``Cls(args)`` builds a candidate the normal way, then returns the
    canonical object for its ``key()`` if one exists.  The candidate is
    registered atomically (``dict.setdefault`` under the GIL), so
    concurrent construction from the serve daemon's worker threads can
    never publish two distinct objects for one key in one generation.
    """

    def __call__(cls, *args, **kwargs):
        self = super().__call__(*args, **kwargs)
        state = _INTERN
        key = self.key()
        canonical = state.table.get(key)
        if canonical is not None:
            return canonical
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_gen", state.generation)
        object.__setattr__(self, "_tid", next(state.counter))
        return state.table.setdefault(key, self)


class Term(metaclass=_TermMeta):
    """Base class of all terms and formulas."""

    __slots__ = ("_hash", "_gen", "_tid", "_free", "_atoms")

    def key(self) -> tuple:
        raise NotImplementedError

    @property
    def tid(self) -> int:
        """The intern id: a process-unique integer.

        Together with :func:`intern_generation` this forms the compact
        canonical-id cache keys used by :mod:`repro.smt.qcache`.
        """
        return self._tid

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        # Two distinct objects interned in the same table generation are
        # structurally distinct by construction -- equality is identity.
        if self._gen == other._gen:
            return False
        return type(self) is type(other) and self.key() == other.key()

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __reduce__(self):
        # The default slot-based pickling calls setattr on the restored
        # object, which trips the immutability guard.  Every leaf class
        # takes exactly its key() payload (minus the tag) as constructor
        # arguments, so rebuild through the constructor instead -- which
        # routes through the metaclass and therefore *re-interns* the
        # term (bottom-up, children first) in the receiving process.
        return (type(self), self.key()[1:])

    def __repr__(self) -> str:
        return pretty(self)


class Var(Term):
    """An integer program variable (or SSA instance of one)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("terms are immutable")

    def key(self) -> tuple:
        return ("var", self.name)


class IntConst(Term):
    __slots__ = ("value",)

    def __init__(self, value: int):
        object.__setattr__(self, "value", int(value))

    def __setattr__(self, *a):
        raise AttributeError("terms are immutable")

    def key(self) -> tuple:
        return ("int", self.value)


class BoolConst(Term):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        object.__setattr__(self, "value", bool(value))

    def __setattr__(self, *a):
        raise AttributeError("terms are immutable")

    def key(self) -> tuple:
        return ("bool", self.value)


class Add(Term):
    __slots__ = ("args",)

    def __init__(self, args: tuple[Term, ...]):
        object.__setattr__(self, "args", tuple(args))

    def __setattr__(self, *a):
        raise AttributeError("terms are immutable")

    def key(self) -> tuple:
        return ("add", self.args)


class Sub(Term):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: Term):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def __setattr__(self, *a):
        raise AttributeError("terms are immutable")

    def key(self) -> tuple:
        return ("sub", self.lhs, self.rhs)


class Neg(Term):
    __slots__ = ("arg",)

    def __init__(self, arg: Term):
        object.__setattr__(self, "arg", arg)

    def __setattr__(self, *a):
        raise AttributeError("terms are immutable")

    def key(self) -> tuple:
        return ("neg", self.arg)


class Mul(Term):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: Term):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def __setattr__(self, *a):
        raise AttributeError("terms are immutable")

    def key(self) -> tuple:
        return ("mul", self.lhs, self.rhs)


#: Comparison operator symbols in canonical order.
CMP_OPS = ("==", "!=", "<=", "<", ">=", ">")

#: Negation of each comparison operator.
CMP_NEGATION = {
    "==": "!=",
    "!=": "==",
    "<=": ">",
    "<": ">=",
    ">=": "<",
    ">": "<=",
}

#: Operator with swapped operands (a op b  <=>  b op' a).
CMP_SWAP = {
    "==": "==",
    "!=": "!=",
    "<=": ">=",
    "<": ">",
    ">=": "<=",
    ">": "<",
}


class Cmp(Term):
    """An arithmetic comparison atom ``lhs op rhs``."""

    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Term, rhs: Term):
        if op not in CMP_OPS:
            raise ValueError(f"unknown comparison operator {op!r}")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def __setattr__(self, *a):
        raise AttributeError("terms are immutable")

    def key(self) -> tuple:
        return ("cmp", self.op, self.lhs, self.rhs)


class Not(Term):
    __slots__ = ("arg",)

    def __init__(self, arg: Term):
        object.__setattr__(self, "arg", arg)

    def __setattr__(self, *a):
        raise AttributeError("terms are immutable")

    def key(self) -> tuple:
        return ("not", self.arg)


class And(Term):
    __slots__ = ("args",)

    def __init__(self, args: tuple[Term, ...]):
        object.__setattr__(self, "args", tuple(args))

    def __setattr__(self, *a):
        raise AttributeError("terms are immutable")

    def key(self) -> tuple:
        return ("and", self.args)


class Or(Term):
    __slots__ = ("args",)

    def __init__(self, args: tuple[Term, ...]):
        object.__setattr__(self, "args", tuple(args))

    def __setattr__(self, *a):
        raise AttributeError("terms are immutable")

    def key(self) -> tuple:
        return ("or", self.args)


class Implies(Term):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: Term):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def __setattr__(self, *a):
        raise AttributeError("terms are immutable")

    def key(self) -> tuple:
        return ("implies", self.lhs, self.rhs)


class Iff(Term):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: Term):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def __setattr__(self, *a):
        raise AttributeError("terms are immutable")

    def key(self) -> tuple:
        return ("iff", self.lhs, self.rhs)


TRUE = BoolConst(True)
FALSE = BoolConst(False)


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------


def var(name: str) -> Var:
    return Var(name)


def num(value: int) -> IntConst:
    return IntConst(value)


def _as_term(x) -> Term:
    if isinstance(x, Term):
        return x
    if isinstance(x, bool):
        return BoolConst(x)
    if isinstance(x, int):
        return IntConst(x)
    raise TypeError(f"cannot coerce {x!r} to a term")


def add(*args) -> Term:
    terms = [_as_term(a) for a in args]
    if not terms:
        return IntConst(0)
    if len(terms) == 1:
        return terms[0]
    return Add(tuple(terms))


def sub(lhs, rhs) -> Term:
    return Sub(_as_term(lhs), _as_term(rhs))


def neg(arg) -> Term:
    return Neg(_as_term(arg))


def mul(lhs, rhs) -> Term:
    return Mul(_as_term(lhs), _as_term(rhs))


def eq(lhs, rhs) -> Term:
    return Cmp("==", _as_term(lhs), _as_term(rhs))


def ne(lhs, rhs) -> Term:
    return Cmp("!=", _as_term(lhs), _as_term(rhs))


def le(lhs, rhs) -> Term:
    return Cmp("<=", _as_term(lhs), _as_term(rhs))


def lt(lhs, rhs) -> Term:
    return Cmp("<", _as_term(lhs), _as_term(rhs))


def ge(lhs, rhs) -> Term:
    return Cmp(">=", _as_term(lhs), _as_term(rhs))


def gt(lhs, rhs) -> Term:
    return Cmp(">", _as_term(lhs), _as_term(rhs))


def not_(arg) -> Term:
    arg = _as_term(arg)
    if isinstance(arg, BoolConst):
        return BoolConst(not arg.value)
    if isinstance(arg, Not):
        return arg.arg
    return Not(arg)


def and_(*args) -> Term:
    flat: list[Term] = []
    for a in args:
        a = _as_term(a)
        if isinstance(a, BoolConst):
            if not a.value:
                return FALSE
            continue
        if isinstance(a, And):
            flat.extend(a.args)
        else:
            flat.append(a)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def or_(*args) -> Term:
    flat: list[Term] = []
    for a in args:
        a = _as_term(a)
        if isinstance(a, BoolConst):
            if a.value:
                return TRUE
            continue
        if isinstance(a, Or):
            flat.extend(a.args)
        else:
            flat.append(a)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def implies(lhs, rhs) -> Term:
    lhs, rhs = _as_term(lhs), _as_term(rhs)
    if isinstance(lhs, BoolConst):
        return rhs if lhs.value else TRUE
    if isinstance(rhs, BoolConst) and rhs.value:
        return TRUE
    return Implies(lhs, rhs)


def iff(lhs, rhs) -> Term:
    lhs, rhs = _as_term(lhs), _as_term(rhs)
    if lhs == rhs:
        return TRUE
    return Iff(lhs, rhs)


# ---------------------------------------------------------------------------
# Traversals
# ---------------------------------------------------------------------------


def children(t: Term) -> tuple[Term, ...]:
    """The direct sub-terms of ``t``."""
    if isinstance(t, (Var, IntConst, BoolConst)):
        return ()
    if isinstance(t, (Add, And, Or)):
        return t.args
    if isinstance(t, (Sub, Mul, Implies, Iff)):
        return (t.lhs, t.rhs)
    if isinstance(t, Cmp):
        return (t.lhs, t.rhs)
    if isinstance(t, (Neg, Not)):
        return (t.arg,)
    if isinstance(t, Term):
        # Foreign leaf nodes (frontend extensions such as Nondet, AddrOf,
        # Deref) are opaque: no sub-terms.
        return ()
    raise TypeError(f"unknown term {t!r}")


def subterms(t: Term) -> Iterator[Term]:
    """Iterate over all sub-terms of ``t`` (including ``t``), pre-order."""
    stack = [t]
    while stack:
        cur = stack.pop()
        yield cur
        stack.extend(children(cur))


_EMPTY_VARS: frozenset[str] = frozenset()


def free_vars(t: Term) -> frozenset[str]:
    """The set of variable names occurring in ``t``.

    Memoized per node (``_free`` slot): interning makes structurally
    equal terms one object, so the support of a shared subtree is
    computed once per process.  The walk is iterative post-order and
    unions the children's *cached* sets, so a cold call is linear in the
    number of distinct nodes, not in tree size.
    """
    fv = getattr(t, "_free", None)
    if fv is not None:
        return fv
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        node, ready = stack.pop()
        if getattr(node, "_free", None) is not None:
            continue
        if not ready:
            stack.append((node, True))
            for k in children(node):
                if getattr(k, "_free", None) is None:
                    stack.append((k, False))
            continue
        if isinstance(node, Var):
            fv = frozenset((node.name,))
        else:
            kids = children(node)
            if not kids:
                fv = _EMPTY_VARS
            elif len(kids) == 1:
                fv = kids[0]._free
            else:
                fv = frozenset().union(*(k._free for k in kids))
        object.__setattr__(node, "_free", fv)
    return t._free


def _rebuild(t: Term, new_children: list[Term]) -> Term:
    if isinstance(t, Add):
        return Add(tuple(new_children))
    if isinstance(t, And):
        return and_(*new_children)
    if isinstance(t, Or):
        return or_(*new_children)
    if isinstance(t, Sub):
        return Sub(new_children[0], new_children[1])
    if isinstance(t, Mul):
        return Mul(new_children[0], new_children[1])
    if isinstance(t, Implies):
        return implies(new_children[0], new_children[1])
    if isinstance(t, Iff):
        return iff(new_children[0], new_children[1])
    if isinstance(t, Cmp):
        return Cmp(t.op, new_children[0], new_children[1])
    if isinstance(t, Neg):
        return Neg(new_children[0])
    if isinstance(t, Not):
        return not_(new_children[0])
    raise TypeError(f"unknown term {t!r}")


def transform(t: Term, fn: Callable[[Term], Term | None]) -> Term:
    """Bottom-up rewrite: ``fn`` may return a replacement for a node or None.

    ``fn`` is applied to every node after its children have been rewritten.
    """
    kids = children(t)
    if kids:
        new_kids = [transform(k, fn) for k in kids]
        if any(nk is not ok for nk, ok in zip(new_kids, kids)):
            t = _rebuild(t, new_kids)
    replacement = fn(t)
    return t if replacement is None else replacement


#: Bounded global memo for :func:`substitute`, keyed by the target term
#: and the (name-sorted) mapping items.  Cleared wholesale at the limit
#: and on :func:`clear_intern_table`.
_SUBST_MEMO: dict[tuple, Term] = {}
_SUBST_MEMO_LIMIT = 100_000


def substitute(t: Term, mapping: Mapping[str, Term]) -> Term:
    """Simultaneously substitute variables by terms.

    Subtrees whose memoized :func:`free_vars` are disjoint from the
    mapped names are returned untouched without descending into them --
    with interning this turns the havoc/renaming passes from tree walks
    into a handful of set checks plus rebuilds along the spine that
    actually changes.
    """
    if not mapping:
        return t
    keys = frozenset(mapping)
    if free_vars(t).isdisjoint(keys):
        return t
    memo_key = (t, tuple(sorted(mapping.items(), key=lambda kv: kv[0])))
    cached = _SUBST_MEMO.get(memo_key)
    if cached is not None:
        return cached

    def go(node: Term) -> Term:
        if free_vars(node).isdisjoint(keys):
            return node
        if isinstance(node, Var):
            return mapping.get(node.name, node)
        kids = children(node)
        if not kids:
            return node
        new_kids = [go(k) for k in kids]
        if all(nk is ok for nk, ok in zip(new_kids, kids)):
            return node
        return _rebuild(node, new_kids)

    result = go(t)
    if len(_SUBST_MEMO) >= _SUBST_MEMO_LIMIT:
        _SUBST_MEMO.clear()
    _SUBST_MEMO[memo_key] = result
    return result


def rename(t: Term, mapping: Mapping[str, str]) -> Term:
    """Rename variables according to ``mapping``."""
    return substitute(t, {old: Var(new) for old, new in mapping.items()})


def evaluate(t: Term, env: Mapping[str, int]) -> int | bool:
    """Evaluate a term under a total integer environment."""
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, IntConst):
        return t.value
    if isinstance(t, BoolConst):
        return t.value
    if isinstance(t, Add):
        return sum(evaluate(a, env) for a in t.args)
    if isinstance(t, Sub):
        return evaluate(t.lhs, env) - evaluate(t.rhs, env)
    if isinstance(t, Neg):
        return -evaluate(t.arg, env)
    if isinstance(t, Mul):
        return evaluate(t.lhs, env) * evaluate(t.rhs, env)
    if isinstance(t, Cmp):
        a, b = evaluate(t.lhs, env), evaluate(t.rhs, env)
        return {
            "==": a == b,
            "!=": a != b,
            "<=": a <= b,
            "<": a < b,
            ">=": a >= b,
            ">": a > b,
        }[t.op]
    if isinstance(t, Not):
        return not evaluate(t.arg, env)
    if isinstance(t, And):
        return all(evaluate(a, env) for a in t.args)
    if isinstance(t, Or):
        return any(evaluate(a, env) for a in t.args)
    if isinstance(t, Implies):
        return (not evaluate(t.lhs, env)) or evaluate(t.rhs, env)
    if isinstance(t, Iff):
        return bool(evaluate(t.lhs, env)) == bool(evaluate(t.rhs, env))
    raise TypeError(f"unknown term {t!r}")


def is_atom(t: Term) -> bool:
    """True for comparison atoms and boolean constants."""
    return isinstance(t, (Cmp, BoolConst))


_EMPTY_ATOMS: frozenset[Term] = frozenset()


def atoms(t: Term) -> frozenset[Term]:
    """All comparison atoms occurring in a formula.

    Memoized per node (``_atoms`` slot) the same way as
    :func:`free_vars`: shared subtrees contribute their cached atom set.
    """
    cached = getattr(t, "_atoms", None)
    if cached is not None:
        return cached
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        node, ready = stack.pop()
        if getattr(node, "_atoms", None) is not None:
            continue
        if not ready:
            stack.append((node, True))
            for k in children(node):
                if getattr(k, "_atoms", None) is None:
                    stack.append((k, False))
            continue
        kids = children(node)
        if not kids:
            found = _EMPTY_ATOMS
        elif len(kids) == 1:
            found = kids[0]._atoms
        else:
            found = frozenset().union(*(k._atoms for k in kids))
        if isinstance(node, Cmp):
            found = found | {node}
        object.__setattr__(node, "_atoms", found)
    return t._atoms


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------

_PRECEDENCE = {
    Iff: 1,
    Implies: 2,
    Or: 3,
    And: 4,
    Not: 5,
    Cmp: 6,
    Add: 7,
    Sub: 7,
    Neg: 8,
    Mul: 9,
}


def pretty(t: Term) -> str:
    """Render a term as a human-readable string."""

    def prec(node: Term) -> int:
        return _PRECEDENCE.get(type(node), 10)

    def render(node: Term, parent_prec: int) -> str:
        p = prec(node)
        if isinstance(node, Var):
            s = node.name
        elif isinstance(node, IntConst):
            s = str(node.value)
        elif isinstance(node, BoolConst):
            s = "true" if node.value else "false"
        elif isinstance(node, Add):
            s = " + ".join(render(a, p) for a in node.args)
        elif isinstance(node, Sub):
            s = f"{render(node.lhs, p)} - {render(node.rhs, p + 1)}"
        elif isinstance(node, Neg):
            s = f"-{render(node.arg, p)}"
        elif isinstance(node, Mul):
            s = f"{render(node.lhs, p)} * {render(node.rhs, p)}"
        elif isinstance(node, Cmp):
            s = f"{render(node.lhs, p)} {node.op} {render(node.rhs, p)}"
        elif isinstance(node, Not):
            s = f"!{render(node.arg, p + 2)}"
        elif isinstance(node, And):
            s = " && ".join(render(a, p) for a in node.args)
        elif isinstance(node, Or):
            s = " || ".join(render(a, p) for a in node.args)
        elif isinstance(node, Implies):
            s = f"{render(node.lhs, p + 1)} -> {render(node.rhs, p)}"
        elif isinstance(node, Iff):
            s = f"{render(node.lhs, p + 1)} <-> {render(node.rhs, p + 1)}"
        elif type(node).__repr__ is not Term.__repr__:
            s = type(node).__repr__(node)  # foreign leaf with its own repr
        else:
            raise TypeError(f"unknown term {node!r}")
        if p < parent_prec:
            return f"({s})"
        return s

    return render(t, 0)
