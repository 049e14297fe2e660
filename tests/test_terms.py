"""Unit and property tests for terms, unification and clause classes."""

import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from guardedsat.terms import (
    App, Clause, Const, Literal, Var, apply_clause, apply_lit, apply_term,
    canonical, clause_vars, compound_terms, condense, is_decomposable, is_ground, is_ground_lit, lit_vars, literal_key,
    membership, mgu, mgu_lits, normalize, rename_apart, renaming,
    subsumes, unify_into,
)
from util import (
    depth, is_variant, loose_guards, reference_clause_vars,
    reference_is_ground, reference_is_ground_lit, reference_lit_vars,
    reference_literal_key, reference_normalize, width,
)

x, y, z = Var("x"), Var("y"), Var("z")
a, b = Const("a"), Const("b")


def A(f, *args):
    return App(f, tuple(args))


def L(pred, *args, pos=True):
    return Literal(pos, pred, tuple(args))


class TestUnification:
    def test_basic(self):
        s = mgu([(A("f", x, a), A("f", b, y))])
        assert apply_term(A("f", x, a), s) == A("f", b, a)

    def test_occurs_check(self):
        assert mgu([(x, A("f", x))]) is None

    def test_clash(self):
        assert mgu([(A("f", x), A("g", x))]) is None

    def test_left_variable_binds_first(self):
        # side-premise terms go left, so side variables map to main ones
        s = mgu([(x, y)])
        assert s == {"x": y}

    def test_simultaneous(self):
        s = mgu_lits([(L("p", x, y), L("p", A("f", z), z))])
        assert s is not None
        got = apply_lit(L("p", x, y), s)
        assert got == L("p", A("f", z), z)

    def test_idempotent(self):
        s = normalize(mgu([(A("f", x, y), A("f", y, a))]))
        for v, t in s.items():
            assert apply_term(t, s) == t


class TestSubsumption:
    def test_subsumes_instance(self):
        c = Clause([L("p", x, y)])
        d = Clause([L("p", a, b), L("q", a)])
        assert subsumes(c, d)
        assert not subsumes(d, c)

    def test_polarity_matters(self):
        c = Clause([L("p", x, pos=False)])
        d = Clause([L("p", a)])
        assert not subsumes(c, d)

    def test_variant(self):
        c = Clause([L("p", x, y), L("q", y)])
        d = Clause([L("p", z, x), L("q", x)])
        assert is_variant(c, d)
        assert not is_variant(c, Clause([L("p", x, x), L("q", x)]))

    def test_condense(self):
        c = Clause([L("p", x, y), L("p", x, z)])
        got = condense(c)
        assert len(got) == 1

    def test_condense_returns_a_condensed_clause_itself(self):
        c = Clause([L("p", x, y), L("q", y, pos=False)])
        assert condense(c) is c
        d = condense(Clause([L("p", x, y), L("p", x, z)]))
        assert condense(d) is d

    def test_canonical_variant_invariance(self):
        c = Clause([L("p", x, y), L("q", y, pos=False)])
        d = Clause([L("p", z, x), L("q", x, pos=False)])
        assert canonical(c) == canonical(d)


class TestClassification:
    def test_guard_single_literal(self):
        c = Clause([L("g", x, y, pos=False), L("p", x), L("q", y)])
        m = membership(c)
        assert "LG" in m and "guarded" in m and "horn_guarded" not in m

    def test_horn_guarded(self):
        c = Clause([L("g", x, y, pos=False), L("p", x)])
        assert "horn_guarded" in membership(c)

    def test_loose_guard_pair_cover(self):
        c = Clause([L("r", x, y, pos=False), L("r", y, z, pos=False),
                    L("r", x, z, pos=False), L("p", A("f", x, y, z))])
        guards = loose_guards(c)
        assert guards, "three pair literals form a loose guard"
        assert "LG" in membership(c)

    def test_not_loose_guarded_missing_pair(self):
        c = Clause([L("r", x, y, pos=False), L("r", y, z, pos=False),
                    L("p", A("f", x, y, z))])
        assert "LG" not in membership(c)

    def test_query_clause(self):
        c = Clause([L("p", x, y, pos=False), L("q", y, pos=False)])
        assert "query" in membership(c)

    def test_covering_violation(self):
        c = Clause([L("g", x, y, pos=False), L("p", A("f", x))])
        assert "LG" not in membership(c)

    def test_strong_compatibility_violation(self):
        c = Clause([L("g", x, y, pos=False),
                    L("p", A("f", x, y)), L("q", A("f", y, x))])
        assert "LG" not in membership(c)

    def test_ground_is_lg(self):
        c = Clause([L("p", a), L("q", b, pos=False)])
        assert "LG" in membership(c)

    def test_decomposable(self):
        c = Clause([L("p", x, pos=False), L("q", y, pos=False)])
        assert is_decomposable(c)
        d = Clause([L("p", x, y, pos=False), L("q", y, pos=False)])
        assert not is_decomposable(d)


class TestValueClasses:
    """Terms and literals compare by class and fields, hash as their field
    tuple (cached on first use), print as before, and pickle by their
    fields."""

    def test_a_variable_is_not_a_constant_of_its_name(self):
        assert Var("a") != Const("a") and Const("a") != Var("a")
        assert not Var("a") == Const("a")
        assert Var("a") == Var("a") and Const("a") == Const("a")
        assert len({Var("a"), Const("a")}) == 2

    def test_equal_objects_hash_as_their_field_tuples(self):
        t = A("f", x, A("g", a))
        assert hash(x) == hash(("x",)) and hash(a) == hash(("a",))
        assert hash(t) == hash(("f", t.args))
        l1, l2 = L("p", t, y, pos=False), L("p", A("f", x, A("g", a)), y,
                                              pos=False)
        assert l1 == l2 and l1 is not l2
        assert hash(l1) == hash(l2) == hash((False, "p", (t, y)))
        assert hash(l1) == hash(l1)  # the cached value
        assert L("p", x) != L("p", x, pos=False)
        assert L("p", x) != L("q", x) and A("f", x) != A("g", x)
        assert A("f", x) != A("f", x, y)

    def test_comparing_with_a_non_term_is_false(self):
        for obj in (x, a, A("f", x), L("p", a)):
            for other in (None, "x", ("x",), 0, (True, "p", (a,)),
                          Clause([L("p", a)])):
                assert not obj == other and obj != other
                assert not other == obj

    def test_repr_text(self):
        assert repr(x) == "Var(name='x')"
        assert repr(a) == "Const(name='a')"
        assert repr(A("f", x, a)) == \
            "App(fn='f', args=(Var(name='x'), Const(name='a')))"
        assert repr(L("p", x, pos=False)) == \
            "Literal(pos=False, pred='p', args=(Var(name='x'),))"
        assert repr(Literal(True, "q")) == \
            "Literal(pos=True, pred='q', args=())"

    def test_pickle_rebuilds_the_cached_hash(self):
        lit = L("p", A("f", x, a), y)
        c = Clause([lit, L("q", b)])
        for obj in (x, a, lit.args[0], lit, c):
            hash(obj)
            back = pickle.loads(pickle.dumps(obj))
            assert back == obj and back is not obj
            assert back._hash is None
            assert hash(back) == hash(obj)
        back = pickle.loads(pickle.dumps(lit))
        assert all(t._hash is None for t in back.args)


# --------------------------------------------------------------------------
# hypothesis properties

terms = st.recursive(
    st.sampled_from([x, y, z, a, b]),
    lambda t: st.builds(lambda args: App("f", tuple(args)),
                        st.lists(t, min_size=1, max_size=2)),
    max_leaves=6)

literals = st.builds(
    lambda pos, pred, args: Literal(pos, pred, tuple(args)),
    st.booleans(), st.sampled_from(["p", "q"]),
    st.lists(terms, min_size=1, max_size=2))

clauses = st.builds(Clause, st.lists(literals, min_size=1, max_size=4))

# nested terms over a variable and a constant of one name, and literals of
# two predicates and ``=``
sort_terms = st.recursive(
    st.sampled_from([Var("a"), Const("a"), x, b]),
    lambda t: st.builds(lambda fn, args: App(fn, tuple(args)),
                        st.sampled_from(["f", "g"]),
                        st.lists(t, min_size=1, max_size=2)),
    max_leaves=8)

sort_literals = st.one_of(
    st.builds(lambda pos, pred, args: Literal(pos, pred, tuple(args)),
              st.booleans(), st.sampled_from(["p", "q"]),
              st.lists(sort_terms, max_size=3)),
    st.builds(lambda pos, l, r: Literal(pos, "=", (l, r)),
              st.booleans(), sort_terms, sort_terms))


@settings(max_examples=300, deadline=None)
@given(st.lists(sort_literals, max_size=6))
def test_clause_sorts_by_the_reference_key(lits):
    assert Clause(lits).literals == \
        tuple(sorted(lits, key=reference_literal_key))
    assert [literal_key(l) for l in lits] == \
        [reference_literal_key(l) for l in lits]


def _assert_cached_facts_agree(c):
    """The cached facts of ``c`` and its literals equal the walked
    references, on the first call, which fills the caches, and again."""
    for _ in range(2):
        for lit in c:
            assert isinstance(lit_vars(lit), frozenset)
            assert lit_vars(lit) == reference_lit_vars(lit)
            assert is_ground_lit(lit) == reference_is_ground_lit(lit)
            assert literal_key(lit) == reference_literal_key(lit)
        assert isinstance(clause_vars(c), frozenset)
        assert clause_vars(c) == reference_clause_vars(c)
        assert is_ground(c) == reference_is_ground(c)


@settings(max_examples=300, deadline=None)
@given(st.lists(sort_literals, max_size=6),
       st.dictionaries(st.sampled_from(["a", "x"]), sort_terms, max_size=2))
def test_cached_facts_agree_with_the_references(lits, sub):
    c = Clause(lits)
    _assert_cached_facts_agree(c)
    _assert_cached_facts_agree(apply_clause(c, sub))
    _assert_cached_facts_agree(
        apply_clause(c, renaming(c, {"_v1"}, itertools.count())))
    d = condense(c)
    _assert_cached_facts_agree(d)
    if is_ground(c):
        assert d.literals == tuple(dict.fromkeys(c.literals))
    # a pickled copy comes back with empty caches, which refill equal; a
    # clause of two or more literals sorts them, keying them as it does
    back = pickle.loads(pickle.dumps(c))
    assert back == c and back._vars is None
    assert all(l._vars is None for l in back)
    assert all(l._vars is None and l._key is None
               for l in pickle.loads(pickle.dumps(c.literals)))
    _assert_cached_facts_agree(back)


@settings(max_examples=200, deadline=None)
@given(terms, terms)
def test_mgu_unifies(s, t):
    sub = mgu([(s, t)])
    if sub is not None:
        assert apply_term(s, sub) == apply_term(t, sub)


def _random_triangular(rng):
    """A random triangular substitution over ``v0``..``v7``: each variable
    is left free or bound to a variable, a constant or a term of ``f``
    and ``g`` over later variables and constants only, so no chain of
    bindings comes back; the keys in shuffled order."""
    names = [f"v{i}" for i in range(8)]

    def term(i, depth):
        r = rng.random()
        later = names[i + 1:]
        if later and (r < 0.4 or depth == 0 and r < 0.8):
            return Var(rng.choice(later))
        if depth == 0 or r < 0.55:
            return Const(rng.choice("ab"))
        return App(rng.choice("fg"), tuple(
            term(i, depth - 1) for _ in range(rng.randint(1, 2))))

    sub = {v: term(i, 2) for i, v in enumerate(names) if rng.random() < 0.7}
    if sub and rng.random() < 0.1:
        v = rng.choice(names)
        sub[v] = Var(v)  # a binding to itself, which binds nothing
    keys = list(sub)
    rng.shuffle(keys)
    return {v: sub[v] for v in keys}


def test_normalize_agrees_with_the_fixpoint():
    """On random triangular substitutions, chains of variable bindings
    and bindings to themselves included, the one walk gives the
    fixpoint's substitution, with its keys in the same order."""
    rng = random.Random(5)
    chains = 0
    for _ in range(3000):
        sub = _random_triangular(rng)
        got = normalize(sub)
        assert list(got.items()) == list(reference_normalize(sub).items()), \
            sub
        chains += any(isinstance(t, Var) and t.name in sub and
                      sub[t.name] != t for t in sub.values())
    assert chains > 1000, chains


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(terms, terms), min_size=1, max_size=3))
def test_normalize_of_unify_into_agrees_with_the_fixpoint(pairs):
    sub = {}
    if unify_into(pairs, sub):
        assert list(normalize(sub).items()) == \
            list(reference_normalize(sub).items())


@settings(max_examples=100, deadline=None)
@given(clauses)
def test_rename_apart_is_variant(c):
    r = rename_apart(c, clause_vars(c))
    assert is_variant(c, r)
    assert subsumes(c, r) and subsumes(r, c)


@settings(max_examples=100, deadline=None)
@given(clauses)
def test_condense_idempotent_and_equivalent(c):
    d = condense(c)
    assert condense(d) == d
    assert subsumes(c, d) and subsumes(d, c)


@settings(max_examples=100, deadline=None)
@given(clauses)
def test_canonical_stable_under_renaming(c):
    r = rename_apart(c, clause_vars(c))
    assert canonical(c) == canonical(r)


@settings(max_examples=100, deadline=None)
@given(clauses)
def test_membership_invariant_under_renaming(c):
    r = rename_apart(c, clause_vars(c))
    assert membership(c) == membership(r)
    assert depth(c) == depth(r) and width(c) == width(r)


def test_loose_guards_are_minimal_covers():
    rng = random.Random(7)
    for _ in range(50):
        lits = []
        vs = [Var(f"v{i}") for i in range(rng.randint(1, 3))]
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(1, len(vs))
            lits.append(Literal(False, f"p{k}",
                                tuple(rng.choice(vs) for _ in range(k))))
        c = Clause(lits)
        if is_ground(c):
            continue
        for g in loose_guards(c):
            vars_in_guard = set()
            for lit in g:
                vars_in_guard.update(v.name for v in lit.args
                                     if isinstance(v, Var))
            assert vars_in_guard == clause_vars(c)
