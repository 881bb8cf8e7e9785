"""Unit and property tests for the DPLL(T) solver facade."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import terms as T
from repro.smt.solver import (
    ConjunctionContext,
    clear_conjunction_cache,
    entails,
    equivalent,
    get_model,
    is_sat,
    is_sat_conjunction,
    is_valid,
)

x, y, z = T.var("x"), T.var("y"), T.var("z")


def test_true_and_false():
    assert is_sat(T.TRUE)
    assert not is_sat(T.FALSE)
    assert is_valid(T.TRUE)
    assert not is_valid(T.FALSE)


def test_basic_sat_with_model():
    f = T.and_(T.eq(x, T.add(y, 1)), T.ge(y, 5))
    m = get_model(f)
    assert m is not None
    assert m["x"] == m["y"] + 1 and m["y"] >= 5


def test_basic_unsat():
    f = T.and_(T.le(x, 0), T.ge(x, 1))
    assert not is_sat(f)


def test_disjunction_requires_sat_engine():
    f = T.and_(
        T.or_(T.eq(x, 1), T.eq(x, 2)),
        T.ne(x, 1),
    )
    m = get_model(f)
    assert m["x"] == 2


def test_negated_equality():
    f = T.and_(T.ne(x, 0), T.ge(x, 0), T.le(x, 1))
    m = get_model(f)
    assert m["x"] == 1


def test_implication_validity():
    f = T.implies(T.eq(x, 5), T.ge(x, 0))
    assert is_valid(f)
    g = T.implies(T.ge(x, 0), T.eq(x, 5))
    assert not is_valid(g)


def test_iff():
    f = T.iff(T.le(x, 0), T.not_(T.gt(x, 0)))
    assert is_valid(f)


def test_entails():
    assert entails(T.eq(x, 3), T.le(x, 10))
    assert not entails(T.le(x, 10), T.eq(x, 3))
    assert entails(T.FALSE, T.eq(x, 3))


def test_equivalent():
    assert equivalent(T.le(x, 4), T.lt(x, 5))  # integers
    assert not equivalent(T.le(x, 4), T.le(x, 5))


def test_unsat_via_transitivity_with_disjunction():
    f = T.and_(
        T.or_(T.le(x, y), T.le(x, z)),
        T.gt(x, y),
        T.gt(x, z),
    )
    assert not is_sat(f)


def test_model_evaluates_formula_true():
    f = T.and_(
        T.or_(T.eq(x, y), T.eq(x, z)),
        T.eq(T.add(y, z), 10),
        T.ge(x, 6),
    )
    m = get_model(f)
    assert m is not None
    assert T.evaluate(f, m) is True


def test_conjunction_fast_path():
    lits = [T.eq(x, 3), T.le(y, x), T.not_(T.eq(y, 3))]
    assert is_sat_conjunction(lits)
    lits_unsat = [T.eq(x, 3), T.ge(y, x), T.le(y, x), T.not_(T.eq(y, 3))]
    assert not is_sat_conjunction(lits_unsat)


def test_conjunction_fast_path_trivial():
    assert is_sat_conjunction([])
    assert is_sat_conjunction([T.TRUE])
    assert not is_sat_conjunction([T.FALSE])


# ---------------------------------------------------------------------------
# Property-based cross-check against brute-force evaluation
# ---------------------------------------------------------------------------

_names = st.sampled_from(["x", "y", "z"])


def _atoms():
    consts = st.integers(min_value=-4, max_value=4)

    def mk(draw_pair):
        name, c = draw_pair
        return st.sampled_from(
            [
                T.le(T.var(name), c),
                T.eq(T.var(name), c),
                T.lt(T.var(name), c),
                T.ne(T.var(name), c),
            ]
        )

    return st.tuples(_names, consts).flatmap(mk)


def _formulas(depth=2):
    if depth == 0:
        return _atoms()
    sub = _formulas(depth - 1)
    return st.one_of(
        _atoms(),
        st.tuples(sub, sub).map(lambda p: T.and_(*p)),
        st.tuples(sub, sub).map(lambda p: T.or_(*p)),
        sub.map(T.not_),
        st.tuples(sub, sub).map(lambda p: T.implies(*p)),
    )


@settings(max_examples=60, deadline=None)
@given(_formulas())
def test_solver_agrees_with_bruteforce(formula):
    names = sorted(T.free_vars(formula))
    brute = False
    # Atoms compare single vars against constants in [-4, 4]; the formula is
    # satisfiable iff satisfiable with each var in [-6, 6].
    import itertools

    for values in itertools.product(range(-6, 7), repeat=len(names)):
        if T.evaluate(formula, dict(zip(names, values))):
            brute = True
            break
    assert is_sat(formula) == brute


@settings(max_examples=40, deadline=None)
@given(_formulas())
def test_model_when_sat_is_genuine(formula):
    m = get_model(formula)
    if m is not None:
        assert T.evaluate(formula, m) is True


# ---------------------------------------------------------------------------
# An exact oracle for the equality fragment
# ---------------------------------------------------------------------------


def _equality_literals():
    """``x == y``, ``x != y``, ``x == c`` and ``x != c`` with c in [-3, 3]."""
    consts = st.integers(min_value=-3, max_value=3)
    return st.one_of(
        st.builds(lambda a, b: T.eq(T.var(a), T.var(b)), _names, _names),
        st.builds(lambda a, b: T.ne(T.var(a), T.var(b)), _names, _names),
        st.builds(lambda a, c: T.eq(T.var(a), c), _names, consts),
        st.builds(lambda a, c: T.ne(T.var(a), c), _names, consts),
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(_equality_literals(), min_size=1, max_size=6))
def test_equality_conjunctions_agree_with_bruteforce(literals):
    """The Table 1 predicates compare variables with each other.

    A conjunction of these literals over at most 3 variables is satisfiable
    iff it is with each variable in [-7, 7]: the equalities split the
    variables into classes, a class with a constant takes that constant,
    and each free class can take its own value from 4..6, which avoids
    every constant and every other class.  So the enumeration is exact,
    and the verdicts must agree both ways.
    """
    import itertools

    names = sorted(set().union(*(T.free_vars(lit) for lit in literals)))
    brute = any(
        all(T.evaluate(lit, dict(zip(names, values))) for lit in literals)
        for values in itertools.product(range(-7, 8), repeat=len(names))
    )
    clear_conjunction_cache()
    assert is_sat_conjunction(literals) == brute
    clear_conjunction_cache()
    assert ConjunctionContext(literals[:-1]).query(literals[-1]) == brute
