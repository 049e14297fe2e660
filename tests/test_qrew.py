"""Rewriting a saturated clausal set into a Skolem-free first-order
formula: constant/variable abstraction, closed-set partition, argument
renaming and unskolemisation.

The golden fixture is a five-clause saturation with two Skolem functions
sharing argument lists, a Skolem constant linking into the same closed
set, an independent Skolem function with duplicated constant arguments,
and a flat clause cycle.  Expected output: a conjunction of three
conjuncts with quantifier prefixes exists-forall-exists, forall-exists and
forall, negated.
"""

from __future__ import annotations

import hashlib

from guardedsat.qrew import (
    abstract, con_abs, partition_closed, property_gate, q_rew, var_abs,
)
from guardedsat.syntax import Exists, Forall, Not, print_formula
from guardedsat.terms import (
    App, Clause, Const, Literal, SymbolKind, SymbolOrigin, SymbolTable,
    Var, clause_funcs, membership,
)

from util import parse_formula

GOLDEN_SHA256 = \
    "9306c6426ea7bc36e034c203cb2bd347d82253c29889a80a44f8af7e2336e6b0"


def _golden():
    s = SymbolTable()
    for n in ("a", "c"):
        s.declare(n, SymbolKind.CONSTANT, 0, SymbolOrigin.INPUT)
    s.declare("b", SymbolKind.CONSTANT, 0, SymbolOrigin.SKOLEM)
    for n in ("f", "g"):
        s.declare(n, SymbolKind.FUNCTION, 2, SymbolOrigin.SKOLEM)
    s.declare("h", SymbolKind.FUNCTION, 3, SymbolOrigin.SKOLEM)
    for n, ar in [("g1", 2), ("g2", 2), ("g3", 2), ("g4", 3), ("a1", 2),
                  ("a2", 2), ("a3", 2), ("a4", 2), ("a5", 2), ("a6", 1),
                  ("a7", 1), ("b1", 2), ("b2", 2), ("b3", 2)]:
        s.declare(n, SymbolKind.PREDICATE, ar, SymbolOrigin.INPUT)
    V, C, L = Var, Const, Literal

    def ap(f, *args):
        return App(f, tuple(args))

    x1, x2, x3, x4, x5, x6, x7, x8 = (V(f"x{i}") for i in range(1, 9))
    a, b, c = C("a"), C("b"), C("c")
    cl = [
        Clause([L(False, "g1", (x1, a)), L(True, "a1", (ap("f", x1, a), x1)),
                L(True, "a2", (ap("g", x1, a), x1))]),
        Clause([L(False, "g2", (x2, x3)),
                L(True, "a3", (ap("f", x2, x3), x2)),
                L(True, "a4", (ap("g", x2, x3), x2))]),
        Clause([L(False, "g3", (b, x4)), L(True, "a5", (ap("g", b, x4), b))]),
        Clause([L(False, "g4", (x5, c, c)), L(True, "a6", (ap("h", c, c, x5),)),
                L(True, "a7", (ap("h", c, c, x5),))]),
        Clause([L(False, "b1", (x8, x6)), L(False, "b2", (x6, x7)),
                L(False, "b3", (x7, x8))]),
    ]
    return cl, s


def test_constant_abstraction():
    cl, s = _golden()
    ab = con_abs(cl[0])
    # the constant inside the compound terms is pulled out behind a
    # disequation; no compound term mentions a constant afterwards
    assert ab.disequations == 1
    assert all(not any(isinstance(t, Const) for t in app.args)
               for lit in ab.clause for t0 in lit.args
               if isinstance(t0, App) for app in [t0])


def test_variable_abstraction_removes_duplicates():
    cl, s = _golden()
    ab = abstract(cl[3])  # h(c,c,x5) has the constant twice
    apps = [t for lit in ab.clause for t in lit.args if isinstance(t, App)]
    for app in apps:
        names = [t.name for t in app.args if isinstance(t, Var)]
        assert len(names) == len(set(names)) == len(app.args)


def test_abstraction_is_idempotent():
    cl, s = _golden()
    for c in cl:
        once = abstract(c)
        twice = abstract(once.clause)
        assert twice.clause == once.clause
        assert twice.disequations == 0


def test_property_gate_states():
    cl, s = _golden()
    gate_in = property_gate(cl)
    assert gate_in.locally_compatible
    assert not gate_in.normal and not gate_in.unique
    abstracted = [abstract(c).clause for c in cl]
    gate_abs = property_gate(abstracted)
    assert gate_abs.normal and gate_abs.unique
    assert gate_abs.locally_compatible and gate_abs.locally_linear
    assert not gate_abs.globally_compatible  # needs argument renaming


def test_abstracted_clauses_stay_strongly_compatible():
    cl, s = _golden()
    for c in cl:
        ab = abstract(c).clause
        if clause_funcs(ab):
            assert "strongly_compatible" in membership(ab) or \
                len({t.args for lit in ab for t in lit.args
                     if isinstance(t, App)}) == 1


def test_closed_set_partition():
    cl, s = _golden()
    abstracted = [abstract(c).clause for c in cl]
    sets = partition_closed(abstracted, s)
    # a set is interconnected iff it has function symbols
    shapes = sorted(("interconnected" if cs.functions else "flat",
                     tuple(sorted(cs.functions)),
                     tuple(sorted(cs.skolem_consts))) for cs in sets)
    assert shapes == [("flat", (), ()),
                      ("interconnected", ("f", "g"), ("b",)),
                      ("interconnected", ("h",), ())]


def test_golden_rewriting():
    cl, s = _golden()
    res = q_rew(cl, s)
    txt = print_formula(res.sigma_q)
    assert hashlib.sha256(txt.encode()).hexdigest() == GOLDEN_SHA256
    # parses back and prints identically
    assert print_formula(parse_formula(txt)) == txt
    # no Skolem symbol survives
    for sym in ("f(", "g(", "h(", "(b", "b,", ",b"):
        assert sym not in txt.replace("b1", "").replace("b2", "") \
            .replace("b3", "")
    assert res.equality_used
    assert res.skolem_constants_internalized == ["b"]


def _prefix_shape(f):
    shape = []
    while isinstance(f, (Exists, Forall)):
        shape.append("E" if isinstance(f, Exists) else "A")
        f = f.body
    return "".join(shape)


def test_golden_prefix_shapes():
    cl, s = _golden()
    res = q_rew(cl, s)
    assert isinstance(res.sigma_q, Not)
    shapes = [_prefix_shape(c) for c in res.conjuncts]
    assert shapes == ["EAE", "AE", "A"]


def test_rewriting_rejects_refuted_sets():
    cl, s = _golden()
    try:
        q_rew(cl + [Clause([])], s)
    except Exception:
        pass
    else:
        raise AssertionError("expected an error on the empty clause")
