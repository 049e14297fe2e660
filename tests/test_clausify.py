"""Clausal normal form tests: golden transformations and invariants."""

import pathlib
import random

import pytest

from guardedsat.clausify import (
    ClausifyError, _nnf, _Renamer, clausify_formula, skolemize, trans,
)
from guardedsat.qans import run
from guardedsat.qrew import RewriteError, q_rew
from guardedsat.syntax import (
    And, Exists, Forall, Not, Or, free_vars, parse, print_formula,
)
from guardedsat.terms import (
    App, SymbolKind, SymbolOrigin, SymbolTable, canonical, is_ground,
    membership,
)
from util import (
    CONSTS, depth, parse_formula, random_formula, reference_clausify_formula,
    reference_miniscope, reference_skolemize, reference_to_nnf,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def names(clauses):
    return sorted(str(c) for c in clauses)


def definers(symbols):
    return {s.name: s.arity for s in symbols
            if s.origin is SymbolOrigin.DEFINER}


class TestGoldenUntil:
    """The loosely guarded rule with an existential body, conjoined with
    ground facts, is clausified at guard level: no definer, one Skolem
    function over the rule's universal variables."""

    def setup_method(self):
        self.prob = parse("""
            fact: r(c1,c2).
            fact: b(c2).
            rule: ! [X,Y] : ((r(X,Y) & b(Y)) =>
                              ? [Z] : (r(X,Z) & r(Z,Y) & a(Z))).
            query: ? [X] : a(X).
        """)
        self.out = trans(self.prob)

    def test_all_clauses_lg(self):
        for c in self.out.lg_clauses:
            assert "LG" in membership(c), str(c)

    def test_query_clause(self):
        assert len(self.out.query_clauses) == 1
        q = self.out.query_clauses[0]
        assert "query" in membership(q)

    def test_rule_clause_shape(self):
        # one clause per conjunct of the existential body, sharing one
        # binary Skolem function over the rule's universal variables
        non_units = [c for c in self.out.lg_clauses if len(c) > 1]
        assert len(non_units) == 3
        fns = {t.fn: len(t.args)
               for c in non_units for l in c for t in l.args
               if isinstance(t, App)}
        assert len(fns) == 1 and set(fns.values()) == {2}

    def test_rule_gets_no_definer(self):
        # a top-level universal is already at guard level: renaming it
        # would only add a symbol, a unit and a literal per clause
        assert not definers(self.prob.symbols)
        assert all(l.args for c in self.out.lg_clauses for l in c)


class TestGoldenClique:
    """Clausifying the clique guarded formula: miniscoping the clique
    guard, negative renaming of the guard universals, a definer for the
    nested universal, and a Skolem function over all three universal
    variables."""

    def setup_method(self):
        self.prob = parse("""
            rule: ! [X1,X2] : (g(X1,X2) => ! [X3] :
                ((? [X4,X5] : (a(X1,X3,X4) & b(X2,X3,X5))) =>
                 ? [X6] : d(X1,X6))).
            query: ? [X] : d(X,X).
        """)
        self.out = trans(self.prob)

    def test_four_clauses(self):
        assert len(self.out.lg_clauses) == 4

    def test_nested_universal_keeps_a_definer_with_arguments(self):
        names = definers(self.prob.symbols)
        [guard_clause] = [c for c in self.out.lg_clauses
                          if any(l.pred == "g" for l in c)]
        [head] = [l for l in guard_clause if l.pred in names]
        assert head.pos and names[head.pred] == 2
        # the others are the clique guard's negative renamings
        assert len(names) == 3 and 0 not in names.values()

    def test_skolem_function_arity_three(self):
        fns = {t.fn: len(t.args)
               for c in self.out.lg_clauses for l in c for t in l.args
               if isinstance(t, App)}
        assert fns, "one Skolem function expected"
        assert set(fns.values()) == {3}

    def test_all_lg(self):
        for c in self.out.lg_clauses:
            assert "LG" in membership(c), str(c)

    def test_depth_at_most_one(self):
        assert all(depth(c) <= 1 for c in self.out.lg_clauses)


class TestRejections:
    def test_unguarded_rule_rejected(self):
        prob = parse("""
            rule: ! [X,Y,Z] : ((r(X,Y) & r(Y,Z)) => r(X,Z)).
            query: ? [X,Y] : r(X,Y).
        """)
        with pytest.raises(ClausifyError):
            trans(prob)

    def test_plain_universal_rejected(self):
        prob = parse("""
            rule: ! [X] : a(X).
            query: ? [X] : a(X).
        """)
        with pytest.raises(ClausifyError):
            trans(prob)


class TestInvariants:
    def test_facts_become_ground_units(self):
        prob = parse("""
            fact: p(c1,c2).
            query: ? [X] : p(X,X).
        """)
        out = trans(prob)
        assert len(out.lg_clauses) == 1
        assert is_ground(out.lg_clauses[0])

    def test_canonical_deterministic(self):
        prob1 = parse("rule: ! [X,Y] : (g(X,Y) => a(X)).\n"
                      "query: ? [X] : a(X).")
        prob2 = parse("rule: ! [X,Y] : (g(X,Y) => a(X)).\n"
                      "query: ? [X] : a(X).")
        c1 = [canonical(c) for c in trans(prob1).lg_clauses]
        c2 = [canonical(c) for c in trans(prob2).lg_clauses]
        assert c1 == c2


def _forall_disjuncts(f) -> int:
    """The number of universal disjuncts in ``f``; miniscoping makes one
    each time it pushes a variable into part of a guard block."""
    if isinstance(f, (And, Or)):
        n = sum(_forall_disjuncts(g) for g in f.items)
        if isinstance(f, Or):
            n += sum(isinstance(g, Forall) for g in f.items)
        return n
    if isinstance(f, (Not, Forall, Exists)):
        return _forall_disjuncts(f.body)
    return 0


def miniscoped_nnf(f):
    """The clausifier's NNF of ``f``, miniscoped in the same walk."""
    return _nnf(f, True)[0]


def test_miniscope_agrees_with_the_reference():
    """The clausifier miniscopes in its NNF walk, working out each
    disjunct's free variables once per guard block; on random formulas it
    gives what NNF first, then miniscoping asking ``free_vars`` afresh at
    every step gave."""
    rng = random.Random(11)
    pushed = 0
    for _ in range(3000):
        f = random_formula(rng, rng.randint(1, 4))
        nnf = reference_to_nnf(f)
        got = miniscoped_nnf(f)
        assert got == reference_miniscope(nnf), print_formula(f)
        pushed += _forall_disjuncts(got) > _forall_disjuncts(nnf)
    assert pushed > 80, pushed


def _formula_symbols() -> SymbolTable:
    """The symbols ``random_formula`` draws from: ``p<n>`` of arity n,
    ``f``/1 and the constants."""
    s = SymbolTable()
    for n in range(4):
        s.declare(f"p{n}", SymbolKind.PREDICATE if n
                  else SymbolKind.PROPOSITIONAL, n)
    s.declare("f", SymbolKind.FUNCTION, 1)
    for c in CONSTS:
        s.declare(c, SymbolKind.CONSTANT, 0)
    return s


def _skolemized(f, skolemizer):
    """The matrix, the symbol table and the Skolem map that
    ``skolemizer`` gives for a conjunct, on a copy of the table."""
    symbols, skolem_map = _formula_symbols(), {}
    matrix = skolemizer(f, symbols, skolem_map)
    return print_formula(matrix), matrix, list(symbols), skolem_map


def test_one_walk_skolemize_agrees_with_the_reference():
    """``skolemize`` renames apart and Skolemises in one prefix-order
    walk; on the conjuncts the clausifier hands it (random formulas,
    closed, in NNF, miniscoped and renamed) it gives the matrix, symbols
    and Skolem map of prenexing first and substituting after.  So it does
    on the whole miniscoped formula, whose nested quantifiers reuse bound
    names."""
    rng = random.Random(13)
    conjuncts = functions = renamed = 0
    for _ in range(2000):
        f = random_formula(rng, rng.randint(1, 4))
        fv = sorted(free_vars(f))
        if fv:
            f = Exists(tuple(fv), f)
        f = miniscoped_nnf(f)
        for g in [f, *_Renamer(_formula_symbols()).run(f)]:
            got = _skolemized(g, skolemize)
            assert got == _skolemized(g, reference_skolemize), \
                print_formula(g)
            conjuncts += 1
            functions += any(s.kind is SymbolKind.FUNCTION
                             and s.origin is SymbolOrigin.SKOLEM
                             for s in got[2])
            renamed += "_1" in got[0]
    assert conjuncts > 3000 and functions > 300 and renamed > 100, \
        (conjuncts, functions, renamed)


@pytest.mark.parametrize("text, matrix, skolem_map", [
    # an existential takes every universal before it in prefix order,
    # a sibling's included
    ("(! [X] : p1(X)) | (? [Y] : p2(X,Y))", "p1(X) | p2(X,sk0(X))",
     {"sk0": "Y"}),
    ("(! [X,Z] : p1(X)) & (? [Y] : p1(Y))", "p1(X) & p1(sk0(X,Z))",
     {"sk0": "Y"}),
    # with no universal before it, an existential becomes a constant
    ("(? [Y] : p1(Y)) | (! [X] : p1(X))", "p1(skc0) | p1(X)",
     {"skc0": "Y"}),
    # a reused bound name is renamed apart: X, then X_1, then X_2
    ("(! [X] : p1(X)) | (! [X] : p2(X,X)) | (! [X] : p1(X))",
     "p1(X) | p2(X_1,X_1) | p1(X_2)", {}),
    ("! [X] : (p1(X) | (? [X] : p1(X)))", "p1(X) | p1(sk0(X))",
     {"sk0": "X_1"}),
])
def test_skolemize_cases(text, matrix, skolem_map):
    symbols, got_map = SymbolTable(), {}
    got = skolemize(parse_formula(text), symbols, got_map)
    assert (print_formula(got), got_map) == (matrix, skolem_map)
    assert _skolemized(parse_formula(text), skolemize) == \
        _skolemized(parse_formula(text), reference_skolemize)



def _clausified(clausifier, f, symbols):
    """The clauses, definitions, Skolem map and symbol table (in
    declaration order) that ``clausifier`` gives for ``f`` on a copy of
    ``symbols``, or its error."""
    symbols, definitions, skolem_map = symbols.copy(), {}, {}
    try:
        clauses = clausifier(f, symbols, definitions, skolem_map)
    except ClausifyError as e:
        return f"ClausifyError: {e}"
    return ([str(c) for c in clauses],
            {k: print_formula(v) for k, v in definitions.items()},
            skolem_map,
            [(s.name, s.kind, s.arity, s.origin) for s in symbols])


STATEMENTS = [
    # <=>, expanded once, under both polarities
    "! [X] : (p(X) <=> q(X))",
    "(? [X] : p(X)) <=> (! [Y] : (q(Y) => r(Y)))",
    "~(! [X] : (p(X) => (q(X) <=> ~r(X))))",
    # $true and $false, absorbed or dropped
    "! [X] : (p(X) => (q(X) <=> $true))",
    "~(p(a) <=> $false) | $true",
    "$false",
    "! [X] : (p(X) => (q(X) | $false)) & $true",
    # nested universals get definers
    "! [X] : (r(X,X) => ! [Y] : (r(X,Y) => ! [Z] : (r(Y,Z) => p(Z))))",
    "! [X] : (p(X) => ? [Y] : (r(X,Y) & ! [Z] : (r(Y,Z) => q(Z))))",
    "~? [X,Y] : (r(X,Y) & r(Y,X) & ! [Z] : (r(X,Z) => p(Z)))",
    # a CNF of 81 clauses, over MAX_DIRECT_CNF
    "! [X] : (p(X) => ((a1(X) & a2(X) & a3(X)) | (b1(X) & b2(X) & b3(X))"
    " | (c1(X) & c2(X) & c3(X)) | (d1(X) & d2(X) & d3(X))))",
    # free variables, closed existentially
    "r(X,Y) & (? [Z] : r(Y,Z))",
    "! [X] : (r(X,Y) => p(Y))",
    "p(X) | ~p(X) | q(Y)",
]


def _fixture_negated_rewritings():
    """¬Σ_q of every fact-free fixture answered No, with the symbols of
    a fresh parse of it, as the benchmark's check clausifies it."""
    out = []
    for path in sorted(FIXTURES.glob("*.p")):
        prob = parse(path.read_text())
        if prob.facts:
            continue
        result, state = run(prob)
        if result.verdict != "no":
            continue
        try:
            res = q_rew([c for _, c in state.worked_off.clauses()],
                        prob.symbols)
        except RewriteError:
            continue
        out.append((Not(res.sigma_q), parse(path.read_text()).symbols))
    return out


def test_clausifier_agrees_with_the_reference():
    """``clausify_formula`` expands ``<=>`` in its NNF walk, miniscopes
    in the same walk and distributes straight into literals; on random
    formulas, hand-picked statements and ¬Σ_q of the fixtures it gives
    the clauses, in order, the definitions, the Skolem map and the
    symbol table of the pass-per-step reference."""
    rng = random.Random(19)
    cases = [(random_formula(rng, rng.randint(1, 4)), _formula_symbols())
             for _ in range(1500)]
    for text in STATEMENTS:
        prob = parse(f"formula: {text}.")
        cases.append((prob.formulas[0], prob.symbols))
    negated = _fixture_negated_rewritings()
    assert len(negated) >= 4, len(negated)
    cases += negated
    definers = 0
    for f, symbols in cases:
        got = _clausified(clausify_formula, f, symbols)
        assert got == _clausified(reference_clausify_formula, f, symbols), \
            print_formula(f)
        definers += bool(got[1])
    assert definers > 200, definers
