"""Tests for the precedence, the lexicographic path order and maximality."""

import itertools
import random

import pytest

from guardedsat.orders import (
    Cmp, LPO, Precedence, comparisons, maximal, select_nc,
)
from guardedsat.terms import (
    App, Clause, Const, Literal, SymbolKind, SymbolOrigin, SymbolTable, Var,
    apply_lit,
)

from util import (
    CONSTS, clause_gt, funcs, make_symbols, preds, random_ground_atom,
    random_lg_set, reference_lpo_gt,
)

x, y = Var("x"), Var("y")


def A(f, *args):
    return App(f, tuple(args))


def L(pred, *args, pos=True):
    return Literal(pos, pred, tuple(args))


def golden_symbols() -> SymbolTable:
    s = SymbolTable()
    s.declare("f", SymbolKind.FUNCTION, 1, SymbolOrigin.SKOLEM)
    s.declare("g", SymbolKind.FUNCTION, 1, SymbolOrigin.SKOLEM)
    s.declare("a", SymbolKind.CONSTANT, 0, SymbolOrigin.INPUT)
    s.declare("b", SymbolKind.CONSTANT, 0, SymbolOrigin.INPUT)
    s.declare("B", SymbolKind.PREDICATE, 3, SymbolOrigin.INPUT)
    s.declare("A1", SymbolKind.PREDICATE, 2, SymbolOrigin.INPUT)
    s.declare("A2", SymbolKind.PREDICATE, 2, SymbolOrigin.INPUT)
    s.declare("A3", SymbolKind.PREDICATE, 2, SymbolOrigin.INPUT)
    s.declare("D", SymbolKind.PREDICATE, 1, SymbolOrigin.INPUT)
    s.declare("G1", SymbolKind.PREDICATE, 1, SymbolOrigin.INPUT)
    s.declare("G2", SymbolKind.PREDICATE, 1, SymbolOrigin.INPUT)
    s.declare("G3", SymbolKind.PREDICATE, 1, SymbolOrigin.INPUT)
    return s


def test_golden_precedence_chain():
    prec = Precedence(golden_symbols())
    order = ["f", "g", "a", "b", "B", "A1", "A2", "A3", "D", "G1", "G2",
             "G3"]
    for hi, lo in zip(order, order[1:]):
        assert prec.gt(hi, lo), f"{hi} should precede {lo}"


def test_lpo_subterm_and_precedence():
    lpo = LPO(Precedence(golden_symbols()))
    assert lpo.gt(A("f", x), x)
    assert lpo.gt(A("f", a := Const("a")), A("g", a))
    assert not lpo.gt(x, y)


def test_lpo_ground_total_and_transitive():
    lpo = LPO(Precedence(golden_symbols()))
    a, b = Const("a"), Const("b")
    terms = [a, b, A("f", a), A("g", b), A("f", A("g", a)), A("g", A("f", b))]
    for s, t in itertools.permutations(terms, 2):
        assert lpo.compare(s, t) in (Cmp.GT, Cmp.LT)
    for s, t, u in itertools.permutations(terms, 3):
        if lpo.gt(s, t) and lpo.gt(t, u):
            assert lpo.gt(s, u)


def test_negative_literal_greater_at_equal_atom():
    lpo = LPO(Precedence(golden_symbols()))
    atom = L("D", Const("a"))
    neg = L("D", Const("a"), pos=False)
    assert lpo.compare_lits(neg, atom) is Cmp.GT


def test_select_nc_smallest_negative_compound():
    c = Clause([L("A1", A("f", x), x, pos=False),
                L("D", A("g", x), pos=False),
                L("B", x, x, x)])
    sel = select_nc(c)
    assert sel is not None and not sel.pos
    assert any(isinstance(t, App) for t in sel.args)


def test_select_nc_none_on_ground():
    c = Clause([L("D", A("f", Const("a")), pos=False)])
    assert select_nc(c) is None


def test_maximal_a_priori():
    lpo = LPO(Precedence(golden_symbols()))
    c = Clause([L("B", A("f", x), x, Const("b")), L("D", A("g", x))])
    maxs = maximal(lpo, c, strict=True)
    assert L("B", A("f", x), x, Const("b")) in maxs


def _random_literals(symbols, rng):
    """The literals of random loosely guarded clauses and of ground atoms,
    their instances under substitutions with nested Skolem terms, and the
    complements of all of these."""
    fns = funcs(symbols)

    def term(nesting):
        r = rng.random()
        if nesting and r < 0.35:
            f, k = rng.choice(fns)
            return App(f, tuple(term(nesting - 1) for _ in range(k)))
        if r < 0.6:
            return Const(rng.choice(CONSTS))
        return Var(rng.choice(("x1", "x2", "x3")))

    lits = [l for c in random_lg_set(symbols, rng, 4) for l in c]
    lits += [random_ground_atom(symbols, rng) for _ in range(3)]
    sub = {v: term(2) for v in ("x1", "x2", "x3")}
    lits += [apply_lit(l, sub) for l in lits]
    return lits + [l.negate() for l in lits]


def test_compare_lits_is_antisymmetric():
    """``compare_lits(a, b)`` mirrors ``compare_lits(b, a)``: GT and LT
    swap, EQ and NC stay.  :func:`comparisons` compares each pair once on
    the strength of this, and must agree with comparing both ways."""
    mirror = {Cmp.GT: Cmp.LT, Cmp.LT: Cmp.GT, Cmp.EQ: Cmp.EQ,
              Cmp.NC: Cmp.NC}
    symbols = make_symbols(n_preds=5, max_arity=3, n_funcs=2,
                           rng=random.Random(7))
    lpo = LPO(Precedence(symbols))
    seen = {r: 0 for r in Cmp}
    skolem = 0
    for seed in range(8):
        lits = _random_literals(symbols, random.Random(seed))
        table = comparisons(lpo, lits)
        for i, a in enumerate(lits):
            for j, b in enumerate(lits):
                if i == j:
                    continue
                r = lpo.compare_lits(a, b)
                assert lpo.compare_lits(b, a) is mirror[r], (a, b)
                assert table[i][j] is r, (a, b)
                seen[r] += 1
                skolem += any(isinstance(t, App) for t in a.args + b.args)
    assert all(n > 100 for n in seen.values()), seen
    assert skolem > 1000, skolem


def test_clause_gt_ground_total():
    lpo = LPO(Precedence(golden_symbols()))
    a, b = Const("a"), Const("b")
    c1 = Clause([L("D", A("f", a))])
    c2 = Clause([L("D", a), L("G1", b)])
    assert clause_gt(lpo, c1, c2) != clause_gt(lpo, c2, c1)
    assert clause_gt(lpo, Clause([L("D", a), L("D", a)]),
                     Clause([L("D", a)]))


def test_clause_gt_proper_subclause():
    lpo = LPO(Precedence(golden_symbols()))
    big = Clause([L("D", Const("a")), L("G1", Const("b"))])
    small = Clause([L("G1", Const("b"))])
    assert clause_gt(lpo, big, small)
    assert not clause_gt(lpo, small, big)


def test_fresh_symbols_below_input():
    s = golden_symbols()
    s.declare("q9", SymbolKind.PREDICATE, 3, SymbolOrigin.DEFINER)
    prec = Precedence(s)
    assert prec.gt("D", "q9"), "input predicates precede definers"
    assert prec.gt("a", "q9")


def test_precedence_key_of_a_symbol_declared_later():
    """A symbol declared after the precedence was built (a definer) gets
    the key a fresh precedence would give it, and an undeclared name
    raises."""
    s = golden_symbols()
    prec = Precedence(s)
    with pytest.raises(KeyError):
        prec.key("P0")
    s.declare("P0", SymbolKind.PREDICATE, 2, SymbolOrigin.DEFINER)
    assert prec.key("P0") == Precedence(s).key("P0")
    assert prec.gt("B", "P0") and not prec.gt("P0", "G3")


def _reference_name_order(a: str, b: str) -> bool:
    """Whether name ``a`` precedes name ``b`` of the same kind, origin
    and arity: ``a`` beats ``b`` at the first character where they
    differ when its character is smaller, and a proper prefix beats its
    extensions."""
    for ca, cb in zip(a, b):
        if ca != cb:
            return ca < cb
    return len(a) < len(b)


def test_precedence_orders_random_names_as_before():
    """Over random names, some of them prefixes of others, the precedence
    puts one symbol above another exactly when the kind, origin, arity
    and name order say so, as it did when it built each name's key on
    every comparison."""
    rng = random.Random(5)
    kinds = [SymbolKind.FUNCTION, SymbolKind.CONSTANT, SymbolKind.PREDICATE]
    origins = list(SymbolOrigin)
    s = SymbolTable()
    names = []
    while len(names) < 120:
        name = "".join(rng.choice("abAB01_") for _ in range(rng.randint(1, 4)))
        if names and rng.random() < 0.3:
            name = rng.choice(names) + name[:rng.randint(1, 2)]
        if name in s:
            continue
        kind = rng.choice(kinds)
        arity = 0 if kind is SymbolKind.CONSTANT else rng.randint(1, 2)
        s.declare(name, kind, arity, rng.choice(origins))
        names.append(name)
    rank = {SymbolKind.FUNCTION: 3, SymbolKind.CONSTANT: 2,
            SymbolKind.PREDICATE: 1}
    prec = Precedence(s)
    prefixes = 0
    for a, b in itertools.permutations(names, 2):
        sa, sb = s.get(a), s.get(b)
        ra = (rank[sa.kind], sa.origin is SymbolOrigin.INPUT, sa.arity)
        rb = (rank[sb.kind], sb.origin is SymbolOrigin.INPUT, sb.arity)
        want = ra > rb if ra != rb else _reference_name_order(a, b)
        assert prec.gt(a, b) == want, (a, b)
        prefixes += ra == rb and (a.startswith(b) or b.startswith(a))
    assert prefixes >= 20, prefixes


def _reference_compare(prec, s, t):
    if s == t:
        return Cmp.EQ
    if reference_lpo_gt(prec, s, t):
        return Cmp.GT
    if reference_lpo_gt(prec, t, s):
        return Cmp.LT
    return Cmp.NC


def test_lpo_agrees_with_the_reference():
    """``gt``, ``compare`` and ``compare_lits`` give the answers of the
    order as first written (:func:`util.reference_lpo_gt`) on random
    terms and atoms, each pair also swapped and against an equal copy of
    itself.  The terms hold nested Skolem functions and meet atoms and
    propositional atoms; a function, a constant and two predicates are
    declared after the precedence was built.  A constant ranks above
    every predicate, so an atom with a constant argument can beat an
    atom of a higher predicate through the subterm case."""
    symbols = make_symbols(n_preds=4, max_arity=2, n_funcs=2,
                           rng=random.Random(11))
    symbols.declare("P0", SymbolKind.PROPOSITIONAL, 0, SymbolOrigin.INPUT)
    prec = Precedence(symbols)
    lpo = LPO(prec)
    symbols.declare("sk9", SymbolKind.FUNCTION, 2, SymbolOrigin.SKOLEM)
    symbols.declare("c9", SymbolKind.CONSTANT, 0, SymbolOrigin.INPUT)
    symbols.declare("q9", SymbolKind.PREDICATE, 2, SymbolOrigin.DEFINER)
    symbols.declare("Q9", SymbolKind.PROPOSITIONAL, 0, SymbolOrigin.DEFINER)
    late = {"sk9", "c9", "q9", "Q9"}
    fns = funcs(symbols)
    consts = list(CONSTS) + ["c9"]
    atoms = preds(symbols) + [("P0", 0), ("q9", 2), ("Q9", 0)]

    def term(rng, nesting):
        r = rng.random()
        if nesting and r < 0.4:
            f, k = rng.choice(fns)
            return App(f, tuple(term(rng, nesting - 1) for _ in range(k)))
        if r < 0.7:
            return Const(rng.choice(consts))
        return Var(rng.choice(("x1", "x2", "x3")))

    def copy(t):
        if isinstance(t, App):
            return App(t.fn, tuple(map(copy, t.args)))
        return t.__class__(t.name)

    def head(t):
        return t.fn if isinstance(t, App) else t.name

    seen = {r: 0 for r in Cmp}
    lit_seen = {r: 0 for r in Cmp}
    with_late = by_argument = 0
    for seed in range(40):
        rng = random.Random(seed)
        lits = []
        for _ in range(12):
            p, k = rng.choice(atoms)
            lits.append(Literal(rng.random() < 0.5, p, tuple(
                term(rng, 2) for _ in range(k))))
        pool = [term(rng, 3) for _ in range(12)] + \
            [lpo.atom_term(l) for l in lits]
        for s in pool:
            for t in pool + [copy(s)]:
                want = _reference_compare(prec, s, t)
                assert lpo.gt(s, t) == (want is Cmp.GT), (s, t)
                assert lpo.compare(s, t) is want, (s, t)
                seen[want] += 1
                if isinstance(s, Var) or isinstance(t, Var):
                    continue
                with_late += bool({head(s), head(t)} & late)
                by_argument += want is Cmp.GT and \
                    symbols.get(head(s)).kind is SymbolKind.PREDICATE and \
                    prec.gt(head(t), head(s))
        for l1 in lits:
            for l2 in lits + [l1.negate(),
                              Literal(l1.pos, l1.pred, tuple(map(copy,
                                                                 l1.args)))]:
                want = _reference_compare(
                    prec, lpo.atom_term(l1), lpo.atom_term(l2))
                if want is Cmp.EQ and l1.pos != l2.pos:
                    want = Cmp.LT if l1.pos else Cmp.GT
                assert lpo.compare_lits(l1, l2) is want, (l1, l2)
                lit_seen[want] += 1
    assert all(n > 200 for n in seen.values()), seen
    assert all(n > 100 for n in lit_seen.values()), lit_seen
    assert with_late > 5000 and by_argument > 1000, (with_late, by_argument)
