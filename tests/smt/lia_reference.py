"""Test-only reference: the LIA kernel as exact ``Fraction`` elimination.

:func:`solve_conjunction` here is the rational Gaussian / Fourier-Motzkin
procedure that :mod:`repro.smt.lia` replaced with fraction-free integer
rows.  ``_solve`` and ``_pick_value`` are kept as they were, so the
property suite can check that the production kernel returns the same
status, model, core, Farkas multipliers and ``all_equalities`` on every
input, and raises :class:`~repro.smt.lia.BranchDepthExceeded` on the same
ones.

:class:`~repro.smt.linear.LinExpr` stores the numbers it is given, so the
entry point converts every input coefficient to ``Fraction`` first: the
rational arithmetic below then never meets an ``int / int`` division.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from repro.smt.lia import MAX_BRANCH_DEPTH, BranchDepthExceeded, LiaResult
from repro.smt.linear import LinEq, LinExpr, LinLe


def solve_conjunction(constraints: Sequence[LinLe | LinEq]) -> LiaResult:
    """Decide satisfiability of a conjunction over the integers."""
    rational = [
        type(c)(
            LinExpr(
                {name: Fraction(v) for name, v in c.expr.coeffs.items()},
                Fraction(c.expr.const),
            )
        )
        for c in constraints
    ]
    return _solve(rational, depth=0)


class _Ineq:
    """A working inequality ``expr <= 0`` with its Farkas provenance."""

    __slots__ = ("expr", "comb")

    def __init__(self, expr: LinExpr, comb: dict[int, Fraction]):
        self.expr = expr
        self.comb = comb


def _comb_add(a: Mapping[int, Fraction], b: Mapping[int, Fraction], scale_b=1):
    out = dict(a)
    scale_b = Fraction(scale_b)
    for idx, c in b.items():
        val = out.get(idx, Fraction(0)) + c * scale_b
        if val == 0:
            out.pop(idx, None)
        else:
            out[idx] = val
    return out


def _solve(constraints: list[LinLe | LinEq], depth: int) -> LiaResult:
    if depth > MAX_BRANCH_DEPTH:
        raise BranchDepthExceeded(
            f"integer branch-and-bound exceeded depth {MAX_BRANCH_DEPTH}"
        )

    # Phase 1: Gaussian elimination of equalities.  ``defs`` records, in
    # order, (var, definition LinExpr) pairs used for back-substitution.
    ineqs: list[_Ineq] = []
    eqs: list[_Ineq] = []
    for i, c in enumerate(constraints):
        work = _Ineq(c.expr, {i: Fraction(1)})
        if isinstance(c, LinEq):
            eqs.append(work)
        elif isinstance(c, LinLe):
            ineqs.append(work)
        else:
            raise TypeError(f"unknown constraint {c!r}")

    eq_indices = {
        i for i, c in enumerate(constraints) if isinstance(c, LinEq)
    }
    defs: list[tuple[str, LinExpr]] = []

    pending = list(eqs)
    while pending:
        eq = pending.pop()
        if eq.expr.is_const():
            if eq.expr.const != 0:
                comb = eq.comb
                all_eq = all(idx in eq_indices for idx in comb)
                return LiaResult(
                    "unsat",
                    core=frozenset(comb),
                    farkas=dict(comb),
                    all_equalities=all_eq,
                )
            continue
        # Integer infeasibility (GCD test): scale to integer coefficients;
        # if the gcd of the variable coefficients does not divide the
        # constant, the equality has no integer solution (e.g.
        # 2x + 2y + 1 == 0).  Without this, branch-and-bound can diverge.
        denom = 1
        for c in list(eq.expr.coeffs.values()) + [eq.expr.const]:
            denom = denom * c.denominator // math.gcd(denom, c.denominator)
        g = 0
        for c in eq.expr.coeffs.values():
            g = math.gcd(g, abs(int(c * denom)))
        if g and int(eq.expr.const * denom) % g != 0:
            comb = eq.comb
            all_eq = all(idx in eq_indices for idx in comb)
            return LiaResult(
                "unsat",
                core=frozenset(comb),
                farkas=None,  # integrality argument, not a Farkas witness
                all_equalities=all_eq,
            )
        # Pick the variable with the simplest coefficient to define.
        name = min(eq.expr.coeffs, key=lambda n: (abs(eq.expr.coeffs[n]) != 1, n))
        a = eq.expr.coeffs[name]
        # name = -(expr - a*name)/a
        rest = eq.expr + LinExpr({name: -a})
        definition = rest.scale(Fraction(-1, 1) / a)
        defs.append((name, definition))

        def subst(target: _Ineq) -> _Ineq:
            b = target.expr.coeff(name)
            if b == 0:
                return target
            new_expr = target.expr + eq.expr.scale(-b / a)
            new_comb = _comb_add(target.comb, eq.comb, -b / a)
            return _Ineq(new_expr, new_comb)

        pending = [subst(e) for e in pending]
        ineqs = [subst(q) for q in ineqs]

    # Phase 2: Fourier-Motzkin elimination over the rationals.
    elim_order: list[tuple[str, list[_Ineq]]] = []
    current = ineqs
    while True:
        # Drop trivially true constants, detect contradictions.
        remaining: list[_Ineq] = []
        for q in current:
            if q.expr.is_const():
                if q.expr.const > 0:
                    all_eq = all(idx in eq_indices for idx in q.comb)
                    return LiaResult(
                        "unsat",
                        core=frozenset(q.comb),
                        farkas=dict(q.comb),
                        all_equalities=all_eq,
                    )
            else:
                remaining.append(q)
        current = remaining
        vars_left = set()
        for q in current:
            vars_left.update(q.expr.coeffs)
        if not vars_left:
            break
        # Eliminate the variable occurring in the fewest constraints
        # (greedy heuristic keeping the blowup down).
        counts = {v: 0 for v in vars_left}
        for q in current:
            for v in q.expr.coeffs:
                counts[v] += 1
        victim = min(sorted(vars_left), key=lambda v: counts[v])
        lowers: list[_Ineq] = []  # coeff < 0: gives lower bounds on victim
        uppers: list[_Ineq] = []  # coeff > 0: gives upper bounds
        others: list[_Ineq] = []
        for q in current:
            c = q.expr.coeff(victim)
            if c < 0:
                lowers.append(q)
            elif c > 0:
                uppers.append(q)
            else:
                others.append(q)
        elim_order.append((victim, lowers + uppers))
        new = list(others)
        for lo in lowers:
            cl = -lo.expr.coeff(victim)  # positive
            for up in uppers:
                cu = up.expr.coeff(victim)  # positive
                # cu*lo + cl*up eliminates victim.
                expr = lo.expr.scale(cu) + up.expr.scale(cl)
                comb = _comb_add(
                    {k: v * cu for k, v in lo.comb.items()}, up.comb, cl
                )
                new.append(_Ineq(expr, comb))
        current = new

    # Phase 3: rational model by back-substitution through elim_order,
    # then integer repair.
    env: dict[str, Fraction] = {}
    for victim, bounds in reversed(elim_order):
        lo_val: Fraction | None = None
        hi_val: Fraction | None = None
        for q in bounds:
            c = q.expr.coeff(victim)
            rest = q.expr + LinExpr({victim: -c})
            # Variables that vanished during elimination (no constraints
            # left on them) are free at this point; pin them to 0.
            for name in rest.vars():
                env.setdefault(name, Fraction(0))
            bound = -rest.evaluate(env) / c
            if c > 0:  # victim <= bound
                hi_val = bound if hi_val is None else min(hi_val, bound)
            else:  # victim >= bound
                lo_val = bound if lo_val is None else max(lo_val, bound)
        env[victim] = _pick_value(lo_val, hi_val)

    # Back-substitute equality definitions (most recent first).
    for name, definition in reversed(defs):
        for dep in definition.vars():
            env.setdefault(dep, Fraction(0))
        env[name] = definition.evaluate(env)

    # Integer repair: if some variable is fractional, branch on it.
    frac_var = next(
        (n for n, v in env.items() if v.denominator != 1), None
    )
    if frac_var is None:
        model = {n: int(v) for n, v in env.items()}
        return LiaResult("sat", model=model)

    v = env[frac_var]
    floor_branch = list(constraints) + [
        LinLe(LinExpr({frac_var: Fraction(1)}, -math.floor(v)))
    ]
    res_floor = _solve(floor_branch, depth + 1)
    if res_floor.is_sat:
        return res_floor
    ceil_branch = list(constraints) + [
        LinLe(LinExpr({frac_var: Fraction(-1)}, math.ceil(v)))
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



def _pick_value(lo: Fraction | None, hi: Fraction | None) -> Fraction:
    """Choose a value in [lo, hi], preferring small integers."""
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return Fraction(min(0, math.floor(hi)))
    if hi is None:
        return Fraction(max(0, math.ceil(lo)))
    if lo > hi:
        raise AssertionError("empty interval after FM claimed sat")
    # Prefer an integer within the interval.
    candidate = Fraction(math.ceil(lo))
    if candidate <= hi:
        if lo <= 0 <= hi:
            return Fraction(0)
        return candidate
    return (lo + hi) / 2
