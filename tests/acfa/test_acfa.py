"""Unit tests for the ACFA structure."""

import pytest

from repro.acfa.acfa import Acfa, AcfaEdge, empty_acfa
from repro.smt import terms as T

st0 = T.eq(T.var("state"), 0)
st1 = T.eq(T.var("state"), 1)


def simple_acfa():
    return Acfa(
        name="a",
        q0=0,
        locations=[0, 1, 2],
        label={0: (), 1: (st0,), 2: (st1,)},
        edges=[
            AcfaEdge(0, frozenset(), 1),
            AcfaEdge(1, frozenset({"state"}), 2),
            AcfaEdge(2, frozenset({"x", "state"}), 0),
        ],
        atomic=[1],
    )


def test_empty_acfa_shape():
    a = empty_acfa()
    assert a.is_empty()
    assert a.size == 1
    assert a.label[a.q0] == ()
    assert a.out(a.q0) == ()


def test_parallel_edges_merge_by_union():
    a = Acfa(
        name="m",
        q0=0,
        locations=[0, 1],
        label={},
        edges=[
            AcfaEdge(0, frozenset({"x"}), 1),
            AcfaEdge(0, frozenset({"y"}), 1),
        ],
    )
    assert len(a.edges) == 1
    assert a.edges[0].havoc == {"x", "y"}


def test_out_edges():
    a = simple_acfa()
    assert [e.dst for e in a.out(0)] == [1]
    assert a.out(1)[0].havoc == {"state"}


def test_may_write():
    a = simple_acfa()
    assert a.may_write(1, "state")
    assert not a.may_write(1, "x")
    assert a.may_write(2, "x") and a.may_write(2, "state")
    assert not a.may_write(0, "x")


def test_atomic_start_rejected():
    with pytest.raises(ValueError):
        Acfa("bad", 0, [0], {0: ()}, [], atomic=[0])


def test_unknown_edge_location_rejected():
    with pytest.raises(ValueError):
        Acfa("bad", 0, [0], {0: ()}, [AcfaEdge(0, frozenset(), 7)])


def test_str_rendering_mentions_labels():
    s = str(simple_acfa())
    assert "state == 0" in s and "{state}" in s


def test_dot_rendering():
    dot = simple_acfa().to_dot()
    assert dot.startswith("digraph") and "n0 -> n1" in dot


def test_edge_hash_consistent_with_equality():
    import pickle

    a = AcfaEdge(0, frozenset({"x", "y"}), 1)
    b = AcfaEdge(0, {"y", "x"}, 1)
    assert a == b and hash(a) == hash(b) and hash(a) == hash(a.key())
    assert a != AcfaEdge(0, frozenset({"x"}), 1)
    assert a != AcfaEdge(1, frozenset({"x", "y"}), 1)
    c = pickle.loads(pickle.dumps(a))
    assert c == a and hash(c) == hash(a)
    with pytest.raises(AttributeError):
        a.src = 2
    with pytest.raises(AttributeError):
        a._hash = 0
