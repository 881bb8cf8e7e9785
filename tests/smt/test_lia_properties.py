"""Property-based tests of the LIA procedure.

Against brute force on small boxes, against the rational reference kernel
in :mod:`tests.smt.lia_reference`, and on the Farkas certificates it
returns.
"""

import itertools
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.smt.lia import BranchDepthExceeded, implies_conjunction, solve_conjunction
from repro.smt.linear import LinEq, LinExpr, LinLe

from .lia_reference import solve_conjunction as reference_solve

_NAMES = ["x", "y", "z"]
_BOX = range(-3, 4)


@st.composite
def constraints(draw):
    n_vars = draw(st.integers(min_value=1, max_value=3))
    names = _NAMES[:n_vars]
    coeffs = {
        name: Fraction(draw(st.integers(min_value=-2, max_value=2)))
        for name in names
    }
    const = Fraction(draw(st.integers(min_value=-4, max_value=4)))
    expr = LinExpr(coeffs, const)
    if draw(st.booleans()):
        return LinLe(expr)
    return LinEq(expr)


def brute_force_sat(cs) -> bool:
    names = sorted({n for c in cs for n in c.expr.vars()})
    if not names:
        return all(c.holds({}) for c in cs)
    for values in itertools.product(_BOX, repeat=len(names)):
        env = dict(zip(names, values))
        if all(c.holds(env) for c in cs):
            return True
    return False


@settings(max_examples=150, deadline=None)
@given(st.lists(constraints(), min_size=1, max_size=4))
def test_sat_agrees_with_bruteforce_on_box(cs):
    """Within a small box: brute-force SAT implies solver SAT (the solver
    searches all of Z, so the converse need not hold -- check that
    direction only when the solver's model lands in the box)."""
    result = solve_conjunction(cs)
    brute = brute_force_sat(cs)
    if brute:
        assert result.is_sat
    if result.is_sat:
        model = result.model
        # Solver models always satisfy the constraints.
        for c in cs:
            env = {n: model.get(n, 0) for n in c.expr.vars()}
            assert c.holds(env)


@settings(max_examples=80, deadline=None)
@given(st.lists(constraints(), min_size=1, max_size=3), constraints())
def test_implication_is_sound(antecedent, consequent):
    """implies_conjunction never claims an implication violated by a point."""
    if not implies_conjunction(antecedent, consequent):
        return
    names = sorted(
        {n for c in antecedent + [consequent] for n in c.expr.vars()}
    )
    for values in itertools.product(_BOX, repeat=len(names)):
        env = dict(zip(names, values))
        if all(c.holds(env) for c in antecedent):
            assert consequent.holds(env)


@settings(max_examples=80, deadline=None)
@given(st.lists(constraints(), min_size=1, max_size=4))
def test_unsat_core_is_unsat(cs):
    """The reported core is itself unsatisfiable, and a Farkas
    certificate, when there is one, refutes it: the weighted sum of the
    constraints is a constant, positive (non-zero for a combination of
    equalities only), with non-negative multipliers on inequalities and
    multipliers only on core constraints."""
    result = solve_conjunction(cs)
    if result.is_sat or result.core is None:
        return
    core = [cs[i] for i in sorted(result.core)]
    assert not solve_conjunction(core).is_sat
    if result.farkas is None:
        return
    assert set(result.farkas) <= result.core
    total = LinExpr()
    for idx, lam in result.farkas.items():
        if isinstance(cs[idx], LinLe):
            assert lam >= 0
        total = total + cs[idx].expr.scale(lam)
    assert total.is_const()
    if result.all_equalities:
        assert total.const != 0
    else:
        assert total.const > 0


# -- parity with the rational reference ----------------------------------------


@st.composite
def mixed_constraints(draw):
    """A ``LinLe`` or ``LinEq`` over up to four variables with coefficients
    in [-3, 3], so pivots of magnitude 2 and 3 occur; about one row in
    five has ``Fraction`` coefficients and constant."""
    names = draw(st.lists(st.sampled_from(_NAMES + ["w"]), unique=True, max_size=4))
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        number = st.builds(
            Fraction,
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=1, max_value=4),
        )
    else:
        number = st.integers(min_value=-3, max_value=3)
    expr = LinExpr({name: draw(number) for name in names}, 2 * draw(number))
    return draw(st.sampled_from([LinLe(expr), LinEq(expr)]))


def _outcome(solve, cs):
    try:
        result = solve(cs)
    except BranchDepthExceeded:
        return "branch depth exceeded"
    if result.is_sat:
        # Key order too: both kernels fill the model in the same order.
        return ("sat", list(result.model.items()))
    return ("unsat", result.core, result.farkas, result.all_equalities)


@settings(max_examples=300, deadline=None)
@given(st.lists(mixed_constraints(), min_size=1, max_size=6))
@example(
    # 2x - 2y == 1 as two inequalities: no integer point, and no Farkas
    # refutation, so branch-and-bound descends until it gives up.
    [LinLe(LinExpr({"x": 2, "y": -2}, -1)), LinLe(LinExpr({"x": -2, "y": 2}, 1))]
)
# The "prefer a +-1 pivot" rule on scaled rows.  An input with a
# denominator: y has rational coefficient 1 on the row 2y + z + 4 (scale 2).
@example([LinEq(LinExpr({"y": 1, "z": Fraction(1, 2)}, 2))])
# A pivot of 2 (w) scales the other equality to 4x - 2y - 10 on scale 2,
# where y, not x, has rational coefficient -1.
@example([LinEq(LinExpr({"w": -1, "x": 2, "y": -1}, -3)), LinEq(LinExpr({"w": 2}, -4))])
# A refutation on scale 2 (x/2 + 1 <= 0 enters as x + 2 <= 0): its
# multipliers are {0: 1, 1: 1/2}, the combination divided by the scale.
@example([LinLe(LinExpr({"x": Fraction(1, 2)}, 1)), LinLe(LinExpr({"x": -1}))])
def test_kernel_matches_fraction_reference(cs):
    """Integer rows decide exactly what rational elimination decides:
    the same status, model, core, Farkas multipliers and
    ``all_equalities``, and the same inputs exhaust branch-and-bound."""
    assert _outcome(solve_conjunction, cs) == _outcome(reference_solve, cs)
