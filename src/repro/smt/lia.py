"""Decision procedure for conjunctions of linear integer constraints.

This is the theory solver underneath :mod:`repro.smt.solver` and the direct
workhorse for trace-formula feasibility and abstract-region entailment in the
verifier.  Input constraints are the canonical :class:`~repro.smt.linear.LinLe`
(``expr <= 0``) and :class:`~repro.smt.linear.LinEq` (``expr == 0``) shapes.

The pipeline is:

1. **Gaussian elimination** of equalities (each equality either defines a
   variable, which is substituted everywhere, or degenerates to a constant).
2. **Fourier-Motzkin elimination** of the remaining inequalities.  Each
   derived constraint carries a *Farkas combination* -- the multipliers
   over input constraints that produce it -- which yields unsat cores and
   Craig interpolants for free.
3. **Model construction** by back-substitution, preferring integer values;
   if the rational model cannot be repaired to an integer one directly, a
   bounded **branch-and-bound** split completes the integer search.

Elimination is exact and *fraction-free*.  A working row holds integer
coefficients, an integer constant, an integer Farkas combination and one
positive integer *scale*; it stands for the rational constraint it equals
when divided by its scale.  A Gaussian step multiplies the target row by
the pivot's magnitude instead of dividing by the pivot, and multiplies its
scale by the same amount; an FM step combines two rows as usual and
multiplies their scales.  A rational input row enters scaled by the lcm of
its denominators.  Sign tests, the pivot and victim choices, bounds and
models never depend on a row's scale (the one rule that looks at a
coefficient's size, "prefer a +-1 pivot", compares it with the scale), so
the results are exactly those of elimination over the rationals.
``Fraction`` appears only in model back-substitution and in the returned
Farkas multipliers (combination / scale).

The procedure is sound and complete for QF_LIA conjunctions (branch-and-bound
depth permitting; the verifier's constraints are shallow and near-unimodular,
so in practice no branching occurs).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .linear import LinEq, LinExpr, LinLe

__all__ = [
    "LiaResult",
    "solve_conjunction",
    "implies_conjunction",
]

#: Maximum branch-and-bound depth before giving up (soundly reporting unknown
#: via an exception); never reached by the verifier's constraint profile.
MAX_BRANCH_DEPTH = 64


class BranchDepthExceeded(RuntimeError):
    """Integer branch-and-bound exceeded its depth budget."""


class LiaResult:
    """Outcome of a conjunction query.

    Attributes:
        status: ``"sat"`` or ``"unsat"``.
        model: for sat results, a total integer assignment to all variables.
        core: for unsat results, indices of input constraints participating
            in the contradiction.
        farkas: for unsat results, the Farkas combination -- a mapping from
            input index to multiplier such that the weighted sum of the input
            constraint expressions is a positive constant (for inequalities)
            or a non-zero constant (when ``all_equalities`` is true).
        all_equalities: whether every constraint in the combination is an
            equality (affects interpolant shape).
    """

    __slots__ = ("status", "model", "core", "farkas", "all_equalities")

    def __init__(self, status, model=None, core=None, farkas=None, all_equalities=False):
        self.status = status
        self.model = model
        self.core = core
        self.farkas = farkas
        self.all_equalities = all_equalities

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    def __repr__(self):
        if self.is_sat:
            return f"LiaResult(sat, model={self.model})"
        return f"LiaResult(unsat, core={sorted(self.core or ())})"


class _Row:
    """A working constraint ``coeffs . x + const`` (``<= 0`` or ``== 0``).

    Coefficients, constant and the Farkas combination ``comb`` (input
    index -> multiplier) are integers; the rational constraint the row
    stands for is the row divided by ``scale``, a positive integer.  The
    procedure never mutates a row's dicts, so an input row may share its
    coefficient map with the :class:`LinExpr` it came from.
    """

    __slots__ = ("coeffs", "const", "comb", "scale")

    def __init__(
        self, coeffs: dict[str, int], const: int, comb: dict[int, int], scale: int
    ):
        self.coeffs = coeffs
        self.const = const
        self.comb = comb
        self.scale = scale


def _input_row(index: int, expr: LinExpr) -> _Row:
    """The integer row of input ``index``, scaled by its denominators' lcm."""
    coeffs = expr.coeffs
    const = expr.const
    if type(const) is int and all(type(c) is int for c in coeffs.values()):
        return _Row(coeffs, const, {index: 1}, 1)
    scale = math.lcm(const.denominator, *(c.denominator for c in coeffs.values()))
    return _Row(
        {name: int(c * scale) for name, c in coeffs.items()},
        int(const * scale),
        {index: scale},
        scale,
    )


def _combine(a: _Row, fa: int, b: _Row, fb: int, scale: int) -> _Row:
    """The row ``fa*a + fb*b`` on ``scale``; zero entries are dropped."""
    coeffs = {name: c * fa for name, c in a.coeffs.items()}
    for name, c in b.coeffs.items():
        v = coeffs.get(name, 0) + c * fb
        if v:
            coeffs[name] = v
        else:
            del coeffs[name]
    comb = {idx: c * fa for idx, c in a.comb.items()}
    for idx, c in b.comb.items():
        v = comb.get(idx, 0) + c * fb
        if v:
            comb[idx] = v
        else:
            del comb[idx]
    return _Row(coeffs, a.const * fa + b.const * fb, comb, scale)


def _refutation(row: _Row, eq_indices: set[int], farkas: bool = True) -> LiaResult:
    """The unsat result a contradictory row certifies."""
    comb = row.comb
    return LiaResult(
        "unsat",
        core=frozenset(comb),
        farkas=(
            {idx: Fraction(c, row.scale) for idx, c in comb.items()}
            if farkas
            else None
        ),
        all_equalities=all(idx in eq_indices for idx in comb),
    )


def solve_conjunction(constraints: Sequence[LinLe | LinEq]) -> LiaResult:
    """Decide satisfiability of a conjunction over the integers."""
    return _solve(list(constraints), depth=0)


def implies_conjunction(
    antecedent: Sequence[LinLe | LinEq], consequent: LinLe | LinEq
) -> bool:
    """Does the conjunction ``antecedent`` entail ``consequent``?

    Implemented as unsatisfiability of ``antecedent and not(consequent)``.
    A negated equality splits into two branches, both of which must be
    refuted.
    """
    ante = list(antecedent)
    one = LinExpr({}, 1)
    if isinstance(consequent, LinLe):
        # not(e <= 0)  is  -e + 1 <= 0  over the integers.
        branches = [[LinLe((-consequent.expr) + one)]]
    else:
        # not(e == 0)  is  e+1 <= 0  or  -e+1 <= 0.
        branches = [
            [LinLe(consequent.expr + one)],
            [LinLe((-consequent.expr) + one)],
        ]
    for extra in branches:
        if solve_conjunction(ante + extra).is_sat:
            return False
    return True


# ---------------------------------------------------------------------------
# Core solving
# ---------------------------------------------------------------------------


def _solve(constraints: list[LinLe | LinEq], depth: int) -> LiaResult:
    if depth > MAX_BRANCH_DEPTH:
        raise BranchDepthExceeded(
            f"integer branch-and-bound exceeded depth {MAX_BRANCH_DEPTH}"
        )

    ineqs: list[_Row] = []
    pending: list[_Row] = []
    eq_indices: set[int] = set()
    for i, c in enumerate(constraints):
        if isinstance(c, LinEq):
            pending.append(_input_row(i, c.expr))
            eq_indices.add(i)
        elif isinstance(c, LinLe):
            ineqs.append(_input_row(i, c.expr))
        else:
            raise TypeError(f"unknown constraint {c!r}")

    # Phase 1: Gaussian elimination of equalities.  ``defs`` records, in
    # order, (var, defining row's coefficients, constant, pivot) for
    # back-substitution.
    defs: list[tuple[str, dict[str, int], int, int]] = []
    while pending:
        eq = pending.pop()
        coeffs = eq.coeffs
        if not coeffs:
            if eq.const != 0:
                return _refutation(eq, eq_indices)
            continue
        # Integer infeasibility (GCD test): if the gcd of the variable
        # coefficients does not divide the constant, the equality has no
        # integer solution (e.g. 2x + 2y + 1 == 0).  Without this,
        # branch-and-bound can diverge.  Scaling a row by a positive
        # integer does not change the outcome.
        if eq.const % math.gcd(*coeffs.values()):
            # Integrality argument, not a Farkas witness.
            return _refutation(eq, eq_indices, farkas=False)
        # Pick the variable with the simplest coefficient to define: a
        # rational coefficient of +-1 is an integer one equal to +-scale.
        scale = eq.scale
        name = min(coeffs, key=lambda n: (abs(coeffs[n]) != scale, n))
        a = coeffs[name]
        defs.append((name, coeffs, eq.const, a))
        # Eliminate ``name`` from a row with coefficient b on it: the row
        # |a|*row - sign(a)*b*eq on scale |a|*row.scale equals the
        # rational row - (b/a)*eq.
        m = abs(a)

        def subst(target: _Row) -> _Row:
            b = target.coeffs.get(name)
            if b is None:
                return target
            return _combine(
                target, m, eq, -b if a > 0 else b, target.scale * m
            )

        pending = [subst(e) for e in pending]
        ineqs = [subst(q) for q in ineqs]

    # Phase 2: Fourier-Motzkin elimination.
    elim_order: list[tuple[str, list[_Row]]] = []
    current = ineqs
    while True:
        # Drop trivially true constants, detect contradictions.
        remaining: list[_Row] = []
        for q in current:
            if q.coeffs:
                remaining.append(q)
            elif q.const > 0:
                return _refutation(q, eq_indices)
        current = remaining
        # Eliminate the variable occurring in the fewest constraints
        # (greedy heuristic keeping the blowup down).
        counts: dict[str, int] = {}
        for q in current:
            for v in q.coeffs:
                counts[v] = counts.get(v, 0) + 1
        if not counts:
            break
        victim = min(sorted(counts), key=counts.__getitem__)
        lowers: list[_Row] = []  # coeff < 0: gives lower bounds on victim
        uppers: list[_Row] = []  # coeff > 0: gives upper bounds
        new: list[_Row] = []
        for q in current:
            c = q.coeffs.get(victim, 0)
            if c < 0:
                lowers.append(q)
            elif c > 0:
                uppers.append(q)
            else:
                new.append(q)
        elim_order.append((victim, lowers + uppers))
        for lo in lowers:
            cl = -lo.coeffs[victim]  # positive
            for up in uppers:
                # cu*lo + cl*up eliminates victim; the scales multiply.
                new.append(
                    _combine(lo, up.coeffs[victim], up, cl, lo.scale * up.scale)
                )
        current = new

    # Phase 3: rational model by back-substitution through elim_order,
    # then integer repair.  Values stay ints while they are integral.
    env: dict[str, int | Fraction] = {}
    for victim, bounds in reversed(elim_order):
        lo_val: int | Fraction | None = None
        hi_val: int | Fraction | None = None
        for q in bounds:
            c = q.coeffs[victim]
            bound = _quotient(-_value_without(q.coeffs, q.const, victim, env), c)
            if c > 0:  # victim <= bound
                hi_val = bound if hi_val is None else min(hi_val, bound)
            else:  # victim >= bound
                lo_val = bound if lo_val is None else max(lo_val, bound)
        env[victim] = _pick_value(lo_val, hi_val)

    # Back-substitute equality definitions (most recent first).
    for name, coeffs, const, a in reversed(defs):
        env[name] = _quotient(-_value_without(coeffs, const, name, env), a)

    # Integer repair: if some variable is fractional, branch on it.
    frac_var = next(
        (n for n, v in env.items() if v.denominator != 1), None
    )
    if frac_var is None:
        model = {n: int(v) for n, v in env.items()}
        return LiaResult("sat", model=model)

    v = env[frac_var]
    floor_branch = list(constraints) + [
        LinLe(LinExpr({frac_var: 1}, -math.floor(v)))
    ]
    res_floor = _solve(floor_branch, depth + 1)
    if res_floor.is_sat:
        return res_floor
    ceil_branch = list(constraints) + [
        LinLe(LinExpr({frac_var: -1}, math.ceil(v)))
    ]
    res_ceil = _solve(ceil_branch, depth + 1)
    if res_ceil.is_sat:
        return res_ceil
    # Both integer branches refuted: unsat over Z.  Any integer value of
    # frac_var satisfies one of the two branch constraints, so the
    # contradiction needs the *union* of both branch cores (using a single
    # branch's core would be unsound: that branch alone may be satisfiable
    # once its synthetic bound is dropped).  The cores may mention the
    # synthetic branching constraints (indices >= len(constraints)); strip
    # them -- the contradiction still only depends on original constraints
    # plus integrality.
    n = len(constraints)
    core = frozenset(
        i
        for i in (res_floor.core or frozenset()) | (res_ceil.core or frozenset())
        if i < n
    )
    return LiaResult("unsat", core=core, farkas=None, all_equalities=False)


def _value_without(
    coeffs: dict[str, int], const: int, skip: str, env: dict[str, int | Fraction]
) -> int | Fraction:
    """``const + sum(c * env[v])`` over every variable but ``skip``.

    Variables that vanished during elimination (no constraints left on
    them) are free at this point and are pinned to 0.  They enter ``env``
    in the iteration order of a ``frozenset`` of the other variables,
    which fixes the key order of the returned model.
    """
    total = const
    for name, c in coeffs.items():
        if name != skip:
            value = env.get(name)
            if value is None:
                rest = {n: k for n, k in coeffs.items() if n != skip}
                for free in frozenset(rest):
                    env.setdefault(free, 0)
                return _value_without(coeffs, const, skip, env)
            total += c * value
    return total


def _quotient(num: int | Fraction, den: int) -> int | Fraction:
    """Exact ``num / den``: an int when it divides, else a ``Fraction``."""
    if type(num) is int:
        q, r = divmod(num, den)
        return Fraction(num, den) if r else q
    return num / den


def _pick_value(
    lo: int | Fraction | None, hi: int | Fraction | None
) -> int | Fraction:
    """Choose a value in [lo, hi], preferring small integers."""
    if lo is None:
        return 0 if hi is None else min(0, math.floor(hi))
    if hi is None:
        return max(0, math.ceil(lo))
    if lo > hi:
        raise AssertionError("empty interval after FM claimed sat")
    # Prefer an integer within the interval.
    candidate = math.ceil(lo)
    if candidate <= hi:
        return 0 if lo <= 0 <= hi else candidate
    # Only a fractional lo gets here, so this stays exact.
    return (lo + hi) / 2
