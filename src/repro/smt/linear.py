"""Linear-form extraction and atom normalization.

Every arithmetic term the verifier produces is linear.  This module converts
terms into a canonical linear form (a coefficient map plus a constant) and
comparison atoms into canonical constraints of the shape::

    sum(coeff_i * var_i) + const  <=  0        (LinLe)
    sum(coeff_i * var_i) + const  ==  0        (LinEq)

Over the integers every comparison reduces to these two shapes:

    t <  0   ==>   t + 1 <= 0
    t >  0   ==>   -t + 1 <= 0
    t >= 0   ==>   -t <= 0
    t != 0   ==>   (t + 1 <= 0)  or  (-t + 1 <= 0)   -- handled by callers

:class:`LinExpr` stores the numbers it is given.  Every expression built
from a term has ``int`` coefficients; a ``Fraction`` coefficient (an
interpolant's scaled Farkas sum, or a caller's own) works too, and renders
and hashes like an equal ``int`` (``str(Fraction(2)) == "2"``), so canonical
keys do not depend on which of the two a producer used.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .terms import (
    Add,
    Cmp,
    IntConst,
    Mul,
    Neg,
    Sub,
    Term,
    Var,
    add,
    le,
    mul,
    num,
    var,
)

__all__ = ["NonLinearError", "LinExpr", "LinLe", "LinEq", "linearize", "normalize_atom"]


class NonLinearError(ValueError):
    """Raised when a term is not linear in its variables."""


class LinExpr:
    """An immutable linear expression ``sum(coeffs[v] * v) + const``."""

    __slots__ = ("coeffs", "const", "_hash", "_key")

    def __init__(self, coeffs: Mapping[str, int | Fraction] | None = None, const=0):
        clean = {}
        if coeffs:
            for name, c in coeffs.items():
                if c != 0:
                    clean[name] = c
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "const", const)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_key", None)

    def __setattr__(self, *a):
        raise AttributeError("LinExpr is immutable")

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "LinExpr") -> "LinExpr":
        coeffs = dict(self.coeffs)
        for name, c in other.coeffs.items():
            coeffs[name] = coeffs.get(name, 0) + c
        return LinExpr(coeffs, self.const + other.const)

    def __sub__(self, other: "LinExpr") -> "LinExpr":
        return self + other.scale(-1)

    def scale(self, factor) -> "LinExpr":
        return LinExpr(
            {name: c * factor for name, c in self.coeffs.items()},
            self.const * factor,
        )

    def __neg__(self) -> "LinExpr":
        return self.scale(-1)

    # -- inspection ----------------------------------------------------------

    def is_const(self) -> bool:
        return not self.coeffs

    def coeff(self, name: str) -> int | Fraction:
        return self.coeffs.get(name, 0)

    def vars(self) -> frozenset[str]:
        return frozenset(self.coeffs)

    def evaluate(self, env: Mapping[str, Fraction | int]) -> int | Fraction:
        total = self.const
        for name, c in self.coeffs.items():
            total += c * env[name]
        return total

    def substitute(self, name: str, repl: "LinExpr") -> "LinExpr":
        """Replace ``name`` by the linear expression ``repl``."""
        c = self.coeffs.get(name)
        if c is None:
            return self
        coeffs = {n: v for n, v in self.coeffs.items() if n != name}
        base = LinExpr(coeffs, self.const)
        return base + repl.scale(c)

    def normalized(self) -> "LinExpr":
        """Scale so coefficients are coprime integers, first coeff positive.

        Used to build canonical dictionary keys; does not preserve the
        represented value (only the hyperplane/halfspace direction).
        """
        if not self.coeffs:
            return LinExpr({}, 0 if self.const == 0 else (1 if self.const > 0 else -1))
        denom_lcm = 1
        for c in list(self.coeffs.values()) + [self.const]:
            denom_lcm = _lcm(denom_lcm, c.denominator)
        ints = [c * denom_lcm for c in self.coeffs.values()] + [self.const * denom_lcm]
        g = 0
        for c in ints:
            g = _gcd(g, int(c))
        if g == 0:
            g = 1
        scale = Fraction(denom_lcm, g)
        return self.scale(scale)

    # -- term conversion ------------------------------------------------------

    def to_term(self) -> Term:
        """Rebuild an equivalent :class:`Term` (requires integer coeffs)."""
        parts: list[Term] = []
        for name in sorted(self.coeffs):
            c = self.coeffs[name]
            if c.denominator != 1:
                raise NonLinearError(f"non-integer coefficient {c} for {name}")
            ci = int(c)
            v = var(name)
            if ci == 1:
                parts.append(v)
            elif ci == -1:
                parts.append(Neg(v))
            else:
                parts.append(mul(num(ci), v))
        if self.const.denominator != 1:
            raise NonLinearError(f"non-integer constant {self.const}")
        if self.const != 0 or not parts:
            parts.append(num(int(self.const)))
        return add(*parts)

    # -- equality / hashing ----------------------------------------------------

    def key(self) -> tuple:
        k = self._key
        if k is None:
            k = (tuple(sorted(self.coeffs.items())), self.const)
            object.__setattr__(self, "_key", k)
        return k

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.key())
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        parts = []
        for name in sorted(self.coeffs):
            parts.append(f"{self.coeffs[name]}*{name}")
        parts.append(str(self.const))
        return " + ".join(parts)


def _gcd(a: int, b: int) -> int:
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def _lcm(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return a * b // _gcd(a, b)


class LinLe:
    """The constraint ``expr <= 0``."""

    __slots__ = ("expr",)

    def __init__(self, expr: LinExpr):
        object.__setattr__(self, "expr", expr)

    def __setattr__(self, *a):
        raise AttributeError("LinLe is immutable")

    def holds(self, env: Mapping[str, int]) -> bool:
        return self.expr.evaluate(env) <= 0

    def __eq__(self, other):
        return isinstance(other, LinLe) and self.expr == other.expr

    def __hash__(self):
        return hash(("le", self.expr))

    def __repr__(self):
        return f"{self.expr!r} <= 0"


class LinEq:
    """The constraint ``expr == 0``."""

    __slots__ = ("expr",)

    def __init__(self, expr: LinExpr):
        object.__setattr__(self, "expr", expr)

    def __setattr__(self, *a):
        raise AttributeError("LinEq is immutable")

    def holds(self, env: Mapping[str, int]) -> bool:
        return self.expr.evaluate(env) == 0

    def __eq__(self, other):
        return isinstance(other, LinEq) and self.expr == other.expr

    def __hash__(self):
        return hash(("eq", self.expr))

    def __repr__(self):
        return f"{self.expr!r} == 0"


#: Bounded memo for :func:`linearize`: interned terms make the same atom
#: sides pointer-identical across sessions, the abstractor, and the cache
#: key builder, so each is linearized once per process.
_LINEARIZE_MEMO: dict[Term, LinExpr] = {}
_LINEARIZE_MEMO_LIMIT = 200_000


def linearize(t: Term) -> LinExpr:
    """Convert an arithmetic term into linear form (memoized).

    Raises :class:`NonLinearError` on products of two non-constant terms.
    """
    cached = _LINEARIZE_MEMO.get(t)
    if cached is not None:
        return cached
    result = _linearize(t)
    if len(_LINEARIZE_MEMO) >= _LINEARIZE_MEMO_LIMIT:
        _LINEARIZE_MEMO.clear()
    _LINEARIZE_MEMO[t] = result
    return result


def _linearize(t: Term) -> LinExpr:
    if isinstance(t, Var):
        return LinExpr({t.name: 1})
    if isinstance(t, IntConst):
        return LinExpr({}, t.value)
    if isinstance(t, Add):
        total = LinExpr()
        for a in t.args:
            total = total + linearize(a)
        return total
    if isinstance(t, Sub):
        return linearize(t.lhs) - linearize(t.rhs)
    if isinstance(t, Neg):
        return -linearize(t.arg)
    if isinstance(t, Mul):
        lhs, rhs = linearize(t.lhs), linearize(t.rhs)
        if lhs.is_const():
            return rhs.scale(lhs.const)
        if rhs.is_const():
            return lhs.scale(rhs.const)
        raise NonLinearError(f"non-linear product: {t!r}")
    raise NonLinearError(f"not an arithmetic term: {t!r}")


def normalize_atom(atom: Term, negated: bool = False) -> list[object]:
    """Normalize a comparison atom to canonical linear constraints.

    Returns a list of constraints whose *conjunction* is equivalent to the
    (possibly negated) atom.  The result list contains :class:`LinLe` and
    :class:`LinEq` items, except for disequalities, which are returned as a
    2-tuple ``(LinLe, LinLe)`` meaning *disjunction* of the two branches
    (``t != 0`` over the integers is ``t <= -1 or -t <= -1``).
    """
    if not isinstance(atom, Cmp):
        raise TypeError(f"not a comparison atom: {atom!r}")
    diff = linearize(atom.lhs) - linearize(atom.rhs)
    op = atom.op
    if negated:
        from .terms import CMP_NEGATION

        op = CMP_NEGATION[op]
    one = LinExpr({}, 1)
    if op == "<=":
        return [LinLe(diff)]
    if op == "<":
        return [LinLe(diff + one)]
    if op == ">=":
        return [LinLe(-diff)]
    if op == ">":
        return [LinLe((-diff) + one)]
    if op == "==":
        return [LinEq(diff)]
    if op == "!=":
        return [(LinLe(diff + one), LinLe((-diff) + one))]
    raise AssertionError(op)
