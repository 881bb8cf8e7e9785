"""Property suite for the hash-consed term layer.

Three families of properties, each against an independently computed
oracle:

* **intern identity** -- building a term twice, from scratch, yields the
  *same object*, and pickling round-trips through re-interning, also
  across a process boundary and a table clear;
* **alpha-renaming digest stability** -- canonical qcache digests are
  invariant under how a renamed formula was built (direct construction
  vs. :func:`substitute`), under conjunct permutation/duplication, and
  under rename round-trips;
* **memoized traversals** -- ``free_vars``/``atoms``/``substitute``
  agree with from-scratch recomputation (unmemoized walks and a
  semantic evaluation oracle).
"""

import multiprocessing
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import terms as T
from repro.smt.qcache import conjunction_key, key_digest

SETTINGS = dict(max_examples=60, deadline=None)

_NAMES = ("x", "y", "z", "w")
names = st.sampled_from(_NAMES)
ints = st.integers(min_value=-4, max_value=4)

arith = st.recursive(
    st.one_of(names.map(T.var), ints.map(T.num)),
    lambda kids: st.one_of(
        st.tuples(kids, kids).map(lambda ab: T.Add((ab[0], ab[1]))),
        st.tuples(kids, kids).map(lambda ab: T.Sub(ab[0], ab[1])),
        kids.map(T.Neg),
        st.tuples(ints, kids).map(lambda ab: T.Mul(T.num(ab[0]), ab[1])),
    ),
    max_leaves=8,
)

atoms_st = st.tuples(st.sampled_from(T.CMP_OPS), arith, arith).map(
    lambda t: T.Cmp(t[0], t[1], t[2])
)

formulas = st.recursive(
    st.one_of(atoms_st, st.booleans().map(T.BoolConst)),
    lambda kids: st.one_of(
        kids.map(T.Not),
        st.lists(kids, min_size=1, max_size=3).map(lambda xs: T.And(tuple(xs))),
        st.lists(kids, min_size=1, max_size=3).map(lambda xs: T.Or(tuple(xs))),
        st.tuples(kids, kids).map(lambda ab: T.Implies(ab[0], ab[1])),
        st.tuples(kids, kids).map(lambda ab: T.Iff(ab[0], ab[1])),
    ),
    max_leaves=6,
)

terms = st.one_of(arith, formulas)


def deep_rebuild(t: T.Term) -> T.Term:
    """Reconstruct ``t`` bottom-up through raw constructor calls."""
    if isinstance(t, T.Var):
        return T.Var(str(t.name))
    if isinstance(t, T.IntConst):
        return T.IntConst(int(t.value))
    if isinstance(t, T.BoolConst):
        return T.BoolConst(bool(t.value))
    if isinstance(t, (T.Add, T.And, T.Or)):
        return type(t)(tuple(deep_rebuild(k) for k in t.args))
    if isinstance(t, T.Cmp):
        return T.Cmp(t.op, deep_rebuild(t.lhs), deep_rebuild(t.rhs))
    if isinstance(t, (T.Sub, T.Mul, T.Implies, T.Iff)):
        return type(t)(deep_rebuild(t.lhs), deep_rebuild(t.rhs))
    if isinstance(t, (T.Neg, T.Not)):
        return type(t)(deep_rebuild(t.arg))
    raise TypeError(t)


# -- intern identity ----------------------------------------------------------


@settings(**SETTINGS)
@given(terms)
def test_building_twice_yields_the_same_object(t):
    assert deep_rebuild(t) is t


@settings(**SETTINGS)
@given(terms)
def test_interned_terms_carry_process_unique_ids(t):
    seen = {}
    for node in T.subterms(t):
        assert node.tid is not None
        prior = seen.setdefault(node.tid, node)
        assert prior is node  # one id, one object
    assert deep_rebuild(t).tid == t.tid


@settings(**SETTINGS)
@given(terms)
def test_pickle_roundtrip_reinterns_to_the_same_object(t):
    assert pickle.loads(pickle.dumps(t)) is t


# -- alpha-renaming digest stability ------------------------------------------

atom_lists = st.lists(atoms_st, min_size=1, max_size=5)


@settings(**SETTINGS)
@given(atom_lists, st.randoms(use_true_random=False))
def test_conjunction_digest_is_order_and_duplicate_insensitive(lits, rng):
    shuffled = list(lits) + [rng.choice(lits)]
    rng.shuffle(shuffled)
    assert key_digest(conjunction_key(lits)) == key_digest(
        conjunction_key(shuffled)
    )


@settings(**SETTINGS)
@given(atom_lists)
def test_alpha_renaming_digest_stability(lits):
    mapping = {n: f"{n}__renamed" for n in _NAMES}
    inverse = {v: k for k, v in mapping.items()}
    direct = [T.rename(lit, mapping) for lit in lits]
    # Substituting var terms and renaming names build the same formula...
    subst = [
        T.substitute(lit, {k: T.var(v) for k, v in mapping.items()})
        for lit in lits
    ]
    assert all(a is b for a, b in zip(direct, subst))
    # ...so the canonical digest cannot depend on construction route.
    assert key_digest(conjunction_key(direct)) == key_digest(
        conjunction_key(subst)
    )
    # Renaming back is the identity on interned terms and digests.
    back = [T.rename(lit, inverse) for lit in direct]
    assert all(a is b for a, b in zip(back, lits))
    assert key_digest(conjunction_key(back)) == key_digest(
        conjunction_key(lits)
    )


# -- memoized traversals vs. from-scratch oracles -----------------------------


def _scratch_free_vars(t):
    return frozenset(n.name for n in T.subterms(t) if isinstance(n, T.Var))


def _scratch_atoms(t):
    return frozenset(n for n in T.subterms(t) if isinstance(n, T.Cmp))


@settings(**SETTINGS)
@given(terms)
def test_memoized_free_vars_matches_scratch_walk(t):
    assert T.free_vars(t) == _scratch_free_vars(t)
    assert T.free_vars(t) is T.free_vars(t)  # memo returns the cached set


@settings(**SETTINGS)
@given(formulas)
def test_memoized_atoms_matches_scratch_walk(t):
    assert T.atoms(t) == _scratch_atoms(t)
    assert T.atoms(t) is T.atoms(t)


subst_maps = st.dictionaries(names, ints, min_size=0, max_size=3)


@settings(**SETTINGS)
@given(arith, subst_maps, st.integers(-3, 3))
def test_substitute_matches_semantic_oracle(t, const_map, fill):
    mapping = {k: T.num(v) for k, v in const_map.items()}
    out = T.substitute(t, mapping)
    assert out is T.substitute(t, mapping)  # memoized result is stable
    env = {n: fill for n in _NAMES}
    subst_env = dict(env)
    subst_env.update(const_map)
    assert T.evaluate(out, env) == T.evaluate(t, subst_env)


_SMART = {
    T.And: T.and_,
    T.Or: T.or_,
    T.Not: T.not_,
    T.Implies: T.implies,
    T.Iff: T.iff,
}


def _scratch_substitute(t, mapping):
    """Unmemoized substitution without free-variable pruning: a node is
    rebuilt, with the constructors the verifier uses, only when one of
    its children changed."""
    if isinstance(t, T.Var):
        return mapping.get(t.name, t)
    kids = T.children(t)
    new = [_scratch_substitute(k, mapping) for k in kids]
    if new == list(kids):
        return t
    if isinstance(t, T.Cmp):
        return T.Cmp(t.op, *new)
    if isinstance(t, T.Add):
        return T.Add(tuple(new))
    return _SMART.get(type(t), type(t))(*new)


@settings(**SETTINGS)
@given(terms, subst_maps)
def test_substitute_matches_structural_mode_recomputation(t, const_map):
    # Two mappings over the same names: a memo that forgot the values
    # would answer the second from the first.
    for shift in (0, 1):
        mapping = {k: T.num(v + shift) for k, v in const_map.items()}
        assert T.substitute(t, mapping) == _scratch_substitute(t, mapping)


@settings(**SETTINGS)
@given(terms, subst_maps)
def test_substitute_untouched_subtrees_are_shared(t, const_map):
    mapping = {k: T.num(v) for k, v in const_map.items()}
    if T.free_vars(t).isdisjoint(mapping):
        assert T.substitute(t, mapping) is t


# -- pickling across process boundaries (scheduler / serve workers) ----------


def _fixture_term():
    x, y = T.var("x"), T.var("y")
    return T.and_(
        T.le(T.add(x, T.mul(T.num(2), y)), T.num(3)),
        T.or_(T.eq(x, T.num(0)), T.not_(T.ge(y, T.num(1)))),
    )


def _child_probe(blob: bytes) -> tuple[bool, bool, bytes]:
    """Runs in a spawned process with an empty intern table."""
    received = pickle.loads(blob)
    local = _fixture_term()
    return (received is local, received.tid is not None, pickle.dumps(received))


def test_unpickling_reinterns_across_process_boundary():
    t = _fixture_term()
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(1) as pool:
        same, interned, back = pool.apply(_child_probe, (pickle.dumps(t),))
    # The child re-interned the payload: it coincides with the term the
    # child built locally, and the round-trip home re-interns onto ours.
    assert same
    assert interned
    assert pickle.loads(back) is t


def test_unpickling_reinterns_after_table_clear():
    t = _fixture_term()
    blob = pickle.dumps(t)
    gen = T.intern_generation()
    T.clear_intern_table()
    try:
        assert T.intern_generation() == gen + 1
        restored = pickle.loads(blob)
        assert restored is not t  # new generation, new canonical object
        assert restored == t  # cross-generation equality is structural
        assert hash(restored) == hash(t)
        assert len({restored, t}) == 1
        assert restored is pickle.loads(blob)
    finally:
        T.clear_intern_table()
