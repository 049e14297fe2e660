"""Unit and property tests for terms, unification and clause classes."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from guardedsat.terms import (
    App, Clause, Const, Literal, UnifyFail, Var, apply_clause, apply_lit,
    apply_term, canonical, clause_vars, compound_terms, condense, depth,
    is_decomposable, is_ground, membership, mgu, mgu_lits, normalize,
    rename_apart, renaming, skip_names, subsumes,
)
from util import is_variant, loose_guards, width

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


@settings(max_examples=200, deadline=None)
@given(terms, terms)
def test_mgu_unifies(s, t):
    sub = mgu([(s, t)])
    if sub is not None:
        assert apply_term(s, sub) == apply_term(t, sub)


@settings(max_examples=100, deadline=None)
@given(clauses)
def test_rename_apart_is_variant(c):
    r = rename_apart(c, clause_vars(c))
    assert is_variant(c, r)
    assert subsumes(c, r) and subsumes(r, c)


@settings(max_examples=100, deadline=None)
@given(clauses, st.integers(0, 4), st.sets(st.integers(0, 12)))
def test_skip_names_draws_what_renaming_draws(c, start, taken):
    avoid = {f"_v{k}" for k in taken} | clause_vars(c)
    drawn, skipped = itertools.count(start), itertools.count(start)
    renaming(c, avoid, drawn)
    skip_names(len(clause_vars(c)), avoid, skipped)
    assert next(drawn) == next(skipped)


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
