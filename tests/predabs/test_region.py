"""Unit tests for regions and predicate sets."""

import pytest

from repro.predabs.region import BOTTOM, TOP, PredicateSet, Region
from repro.smt import terms as T

P = PredicateSet([T.eq(T.var("x"), 0), T.ge(T.var("y"), 1)])


def test_predicate_set_dedup_and_order():
    p1 = T.eq(T.var("a"), 0)
    p2 = T.eq(T.var("b"), 0)
    ps = PredicateSet([p1, p2, p1])
    assert len(ps) == 2
    assert ps.index(p1) == 0 and ps.index(p2) == 1


def test_predicate_set_extended_keeps_indices():
    p1, p2, p3 = (T.eq(T.var(n), 0) for n in "abc")
    ps = PredicateSet([p1, p2])
    ps2 = ps.extended([p3, p1])
    assert len(ps2) == 3
    assert ps2.index(p1) == 0 and ps2.index(p3) == 2


def test_top_formula_is_true():
    assert TOP.formula(P) == T.TRUE
    assert not TOP.is_bottom()


def test_bottom_formula_is_false():
    assert BOTTOM.formula(P) == T.FALSE
    assert BOTTOM.is_bottom()


def test_region_formula_polarity():
    r = Region(frozenset({(0, True), (1, False)}))
    f = r.formula(P)
    assert T.evaluate(f, {"x": 0, "y": 0}) is True
    assert T.evaluate(f, {"x": 0, "y": 5}) is False
    assert T.evaluate(f, {"x": 1, "y": 0}) is False


def test_entailment_is_literal_containment():
    strong = Region(frozenset({(0, True), (1, True)}))
    weak = Region(frozenset({(0, True)}))
    assert strong.entails(weak)
    assert not weak.entails(strong)
    assert strong.entails(TOP)
    assert BOTTOM.entails(strong)
    assert not strong.entails(BOTTOM)


def test_meet():
    a = Region(frozenset({(0, True)}))
    b = Region(frozenset({(1, False)}))
    m = a.meet(b)
    assert m.literals == {(0, True), (1, False)}
    conflict = Region(frozenset({(0, False)}))
    assert a.meet(conflict).is_bottom()
    assert a.meet(BOTTOM).is_bottom()


def test_regions_are_hashable_values():
    a = Region(frozenset({(0, True)}))
    b = Region(frozenset({(0, True)}))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_render():
    r = Region(frozenset({(0, True)}))
    assert "x == 0" in r.render(P)
    assert TOP.render(P) == "true"
    assert BOTTOM.render(P) == "false"


def test_region_hash_consistent_with_equality():
    import pickle

    from repro.predabs.region import BooleanRegion

    a = Region(frozenset({(0, True), (1, False)}))
    b = Region(frozenset({(1, False), (0, True)}))
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash((a.literals, a.bottom))
    assert a != Region(frozenset({(0, True)}))
    assert Region(frozenset(), bottom=True) == BOTTOM
    assert hash(Region(frozenset(), bottom=True)) == hash(BOTTOM)
    assert pickle.loads(pickle.dumps(a)) == a
    # Boolean regions hash over their cubes too, and never equal a
    # cartesian region with the same hull.
    cube = frozenset({(0, True), (1, False)})
    c = BooleanRegion.from_cubes([cube])
    d = BooleanRegion.from_cubes([frozenset(cube)])
    assert c == d and hash(c) == hash(d)
    assert hash(c) == hash((c.literals, c.bottom, c.cubes))
    assert c != a
    assert c != BooleanRegion.from_cubes([cube, frozenset({(0, True), (1, True)})])
    e = pickle.loads(pickle.dumps(c))
    assert type(e) is BooleanRegion and e == c and hash(e) == hash(c)
    with pytest.raises(AttributeError):
        a._hash = 0
