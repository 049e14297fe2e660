"""Independent reference deciders used to cross-check the prover."""

from __future__ import annotations

import random

from guardedsat.oracle import dpll, ground_chase, sat_enumerate
from guardedsat.terms import App, Clause, Const, Literal, Var
from util import eval_clause, ground_entails, herbrand_sat

a, b, c = Const("a"), Const("b"), Const("c")
x, y = Var("x"), Var("y")


def _lit(pos, p, *args):
    return Literal(pos, p, tuple(args))


# ---------------------------------------------------------------------------
# propositional core


def test_dpll_satisfiable():
    m = dpll([frozenset({1, 2}), frozenset({-1, 2}), frozenset({-2, 3})])
    assert m is not None
    assert 2 in m and 3 in m


def test_dpll_unsatisfiable():
    assert dpll([frozenset({1}), frozenset({-1})]) is None
    assert dpll([frozenset()]) is None


def test_dpll_empty_set_is_satisfiable():
    assert dpll([]) is not None


def test_dpll_random_against_bruteforce():
    rng = random.Random(5)
    for _ in range(100):
        n_vars = rng.randint(1, 4)
        cls = [frozenset(rng.choice([-1, 1]) * rng.randint(1, n_vars)
                         for _ in range(rng.randint(1, 3)))
               for _ in range(rng.randint(1, 6))]
        brute = any(
            all(any((lit > 0) == bool(bits >> (abs(lit) - 1) & 1)
                    for lit in cl) for cl in cls)
            for bits in range(2 ** n_vars))
        assert (dpll(cls) is not None) == brute, cls


# ---------------------------------------------------------------------------
# Herbrand decision for function-free sets


def test_herbrand_ground_contradiction():
    assert not herbrand_sat([Clause([_lit(True, "p", a)]),
                             Clause([_lit(False, "p", a)])])


def test_herbrand_rule_chain():
    rule = Clause([_lit(False, "p", x), _lit(True, "q", x)])
    assert herbrand_sat([rule, Clause([_lit(True, "p", a)])])
    assert not herbrand_sat([rule, Clause([_lit(True, "p", a)]),
                             Clause([_lit(False, "q", a)])])


def test_herbrand_rejects_functions():
    try:
        herbrand_sat([Clause([_lit(True, "p", App("f", (a,)))])])
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError on compound terms")


# ---------------------------------------------------------------------------
# bounded finite-model search


def test_sat_enumerate_agrees_with_herbrand():
    rng = random.Random(9)
    preds = [("p", 1), ("q", 1), ("r", 2)]
    consts = [a, b]
    for _ in range(60):
        cls = []
        for _ in range(rng.randint(1, 5)):
            lits = []
            for _ in range(rng.randint(1, 3)):
                p, ar = rng.choice(preds)
                lits.append(Literal(rng.random() < 0.5, p,
                                    tuple(rng.choice(consts)
                                          for _ in range(ar))))
            cls.append(Clause(lits))
        expected = herbrand_sat(cls)
        model = sat_enumerate(cls, max_domain=2)
        assert (model is not None) == expected, cls


def test_sat_enumerate_model_satisfies_clauses():
    cls = [Clause([_lit(True, "p", a)]),
           Clause([_lit(False, "p", x), _lit(True, "q", x, x)])]
    model = sat_enumerate(cls, max_domain=2)
    assert model is not None
    for cl in cls:
        assert eval_clause(model, cl)


def test_sat_enumerate_functions():
    # p(a), ∀x p(x) → p(f(x)) has a one-element model
    cls = [Clause([_lit(True, "p", a)]),
           Clause([_lit(False, "p", x), _lit(True, "p", App("f", (x,)))])]
    model = sat_enumerate(cls, max_domain=2)
    assert model is not None and model.size == 1


def test_sat_enumerate_unsat():
    cls = [Clause([_lit(True, "p", a)]), Clause([_lit(False, "p", x)])]
    assert sat_enumerate(cls, max_domain=3) is None


# ---------------------------------------------------------------------------
# bounded forward chaining


def test_chase_yes():
    horn = [Clause([_lit(False, "p", x), _lit(True, "q", x)])]
    facts = [_lit(True, "p", a)]
    assert ground_chase(horn, facts,
                        [Clause([_lit(False, "q", a)])]) == "yes"


def test_chase_no_when_complete():
    horn = [Clause([_lit(False, "p", x), _lit(True, "q", x)])]
    facts = [_lit(True, "p", a)]
    assert ground_chase(horn, facts,
                        [Clause([_lit(False, "q", b)])]) == "no"


def test_chase_unknown_when_depth_bounded():
    # x → f(x) chains forever; target never derived within the bound
    horn = [Clause([_lit(False, "p", x),
                    _lit(True, "p", App("f", (x,)))])]
    facts = [_lit(True, "p", a)]
    out = ground_chase(horn, facts, [Clause([_lit(False, "q", a)])],
                       depth=2)
    assert out == "unknown"


# ---------------------------------------------------------------------------
# ground entailment


def test_ground_entails():
    prem = [Clause([_lit(True, "p", a), _lit(True, "q", a)]),
            Clause([_lit(False, "p", a)])]
    assert ground_entails(prem, Clause([_lit(True, "q", a)]))
    assert not ground_entails(prem, Clause([_lit(True, "q", b)]))
