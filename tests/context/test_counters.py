"""Unit tests for the counter abstraction."""

import pytest

from repro.context.counters import (
    OMEGA,
    ContextState,
    counter_dec,
    counter_inc,
)


def test_omega_is_singleton():
    import pickle

    assert pickle.loads(pickle.dumps(OMEGA)) is OMEGA


def test_increment_saturates_at_k():
    assert counter_inc(0, 2) == 1
    assert counter_inc(1, 2) == 2
    assert counter_inc(2, 2) is OMEGA
    assert counter_inc(OMEGA, 2) is OMEGA


def test_increment_k1():
    # k=1: 1+1 is already OMEGA (the paper's note: k+1 = omega).
    assert counter_inc(1, 1) is OMEGA


def test_decrement():
    assert counter_dec(2) == 1
    assert counter_dec(1) == 0
    assert counter_dec(OMEGA) is OMEGA  # omega - 1 = omega
    with pytest.raises(ValueError):
        counter_dec(0)


def test_initial_states():
    g = ContextState.initial_omega(3, 1)
    assert g.count(1) is OMEGA and g.count(0) == 0 and g.count(2) == 0
    g2 = ContextState.initial_exact(3, 0, 2)
    assert g2.count(0) == 2


def test_occupied():
    g = ContextState([0, 1, OMEGA])
    assert list(g.occupied()) == [1, 2]
    # Cached on first use; a moved state computes its own.
    assert g.occupied() is g.occupied()
    assert g.move(1, 0, k=1).occupied() == (0, 2)
    assert ContextState([0, 0]).occupied() == ()


def test_at_least_two():
    g = ContextState([0, 1, 2, OMEGA])
    assert not g.at_least_two(0)
    assert not g.at_least_two(1)
    assert g.at_least_two(2)
    assert g.at_least_two(3)


def test_move():
    g = ContextState([2, 0])
    g2 = g.move(0, 1, k=5)
    assert g2.counts == (1, 1)
    # Original unchanged (immutability).
    assert g.counts == (2, 0)


def test_move_from_omega_stays_omega():
    g = ContextState([OMEGA, 0])
    g2 = g.move(0, 1, k=1)
    assert g2.count(0) is OMEGA
    assert g2.count(1) == 1
    g3 = g2.move(0, 1, k=1)
    assert g3.count(1) is OMEGA  # 1+1 saturates at k=1


def test_hashable_value_semantics():
    a = ContextState([1, OMEGA])
    b = ContextState([1, OMEGA])
    assert a == b and hash(a) == hash(b)
    # A move() result equals the state built from the same counts, with
    # the same hash and occupancy, whichever of them cached it first.
    moved = ContextState([2, OMEGA, 0]).move(0, 2, k=1)
    built = ContextState([1, OMEGA, 1])
    assert built.occupied() == (0, 1, 2)
    assert moved == built and hash(moved) == hash(built)
    assert moved.occupied() == built.occupied()
    assert hash(moved) == hash(moved.counts)
    assert moved != ContextState([1, OMEGA, OMEGA])


def test_pickle_round_trip():
    import pickle

    g = ContextState([1, OMEGA])
    g.occupied()
    h = pickle.loads(pickle.dumps(g))
    assert h == g and hash(h) == hash(g) and h.occupied() == (0, 1)


def test_immutability():
    g = ContextState([1])
    with pytest.raises(AttributeError):
        g.counts = (2,)
    for cached in ("_hash", "_occupied"):
        with pytest.raises(AttributeError):
            setattr(g, cached, None)
