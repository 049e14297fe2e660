"""Rewriting a saturated clausal set into a Skolem-free first-order
formula: constant/variable abstraction, closed-set partition, argument
renaming and unskolemisation.  The abstraction tests check the fixpoint
abstraction of the reference in ``util``; ``q_rew`` abstracts while it
names the argument tuple, and is checked against that reference.

The golden fixture is a five-clause saturation with two Skolem functions
sharing argument lists, a Skolem constant linking into the same closed
set, an independent Skolem function with duplicated constant arguments,
and a flat clause cycle.  Expected output: a conjunction of three
conjuncts with quantifier prefixes exists-forall-exists, forall-exists and
forall, negated.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from guardedsat.qans import run
from guardedsat.qrew import RewriteError, q_rew
from guardedsat.syntax import Exists, Forall, Not, parse, print_formula
from guardedsat.terms import (
    App, Clause, Const, Literal, SymbolKind, SymbolOrigin, SymbolTable,
    Var, membership,
)

from util import (
    abstract, clause_funcs, con_abs, digest_problems, parse_formula,
    partition_closed, property_gate, reference_q_rew,
)

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
    with pytest.raises(RewriteError, match="contains the empty clause"):
        q_rew(cl + [Clause([])], s)


def _outcome(rewrite, clauses, symbols):
    """Everything a rewriting gives: the printed Σ_q and conjuncts, the
    internalised constants and the equality flag, or the error text."""
    try:
        res = rewrite(clauses, symbols)
    except RewriteError as e:
        return f"RewriteError: {e}"
    return (print_formula(res.sigma_q),
            [print_formula(c) for c in res.conjuncts],
            res.skolem_constants_internalized, res.equality_used)


_FUNCS = {1: ("h", "h2"), 2: ("f", "g"), 3: ("k",)}
_VAR_NAMES = ("x1", "x2", "x10", "y", "Z1")


def _random_saturation(rng: random.Random):
    """A random saturation-like clause set over Skolem functions of
    arity 1 to 3 and the Skolem constants ``b``, ``d``: mostly strongly
    compatible clauses, some with a constant or a repeated variable among
    the compound terms' arguments (so abstraction changes them), flat
    clauses, and now and then a clause or set the rewriting rejects."""
    s = SymbolTable()
    for n in ("a", "c"):
        s.declare(n, SymbolKind.CONSTANT, 0, SymbolOrigin.INPUT)
    for n in ("b", "d"):
        s.declare(n, SymbolKind.CONSTANT, 0, SymbolOrigin.SKOLEM)
    for m, fns in _FUNCS.items():
        for fn in fns:
            s.declare(fn, SymbolKind.FUNCTION, m, SymbolOrigin.SKOLEM)
    for n in (1, 2, 3):
        s.declare(f"q{n}", SymbolKind.PREDICATE, n, SymbolOrigin.INPUT)
    consts = [Const(n) for n in ("a", "b", "c", "d")]
    clauses = []
    for _ in range(rng.randint(0, 6)):
        vs = [Var(n) for n in rng.sample(_VAR_NAMES, rng.randint(1, 4))]
        m = rng.randint(1, 3)
        args = [rng.choice(vs) if rng.random() < 0.1 else
                rng.choice(consts) if rng.random() < 0.1 else v
                for v in (vs * 3)[:m]]
        if m > 1 and rng.random() < 0.05:  # a constant twice
            args[0] = args[-1] = rng.choice(consts)
        tuples = [tuple(args)]
        r = rng.random()
        if r < 0.03:  # a second argument tuple
            tuples.append(tuple(reversed(args)))
        elif r < 0.06:  # a compound term of another arity
            tuples.append((vs[0],) * (m % 3 + 1))
        apps = [App(rng.choice(_FUNCS[len(t)]), t) for t in tuples]
        if rng.random() < 0.3:
            apps = apps[1:]  # a flat clause
        flat = vs + consts[:2] + consts[2:] * (rng.random() < 0.3)
        lits = []
        for _ in range(rng.randint(1, 4)):
            n = rng.randint(1, 3)
            lits.append(Literal(rng.random() < 0.5, f"q{n}", tuple(
                rng.choice(apps) if apps and rng.random() < 0.4
                else rng.choice(flat) for _ in range(n))))
        clauses.append(Clause(lits))
    return clauses, s


def _tuple_shapes(c: Clause) -> set[str]:
    """What abstraction has to handle in the one argument tuple of the
    compound terms of ``c``: a constant, that constant also as a flat
    argument, a repeated variable, a repeated constant."""
    tuples = {t.args for lit in c for t in lit.args if isinstance(t, App)}
    if len(tuples) != 1:
        return set()
    args = tuples.pop()
    flat = {t for lit in c for t in lit.args if not isinstance(t, App)}
    shapes = set()
    for i, a in enumerate(args):
        if isinstance(a, Const):
            shapes.add("constant")
            if a in flat:
                shapes.add("constant outside")
        if a in args[:i]:
            shapes.add("repeated constant" if isinstance(a, Const)
                       else "repeated variable")
    return shapes


def test_one_scan_rewriting_agrees_with_the_reference():
    """``q_rew`` scans each clause once and builds it once, naming the
    argument tuple with one disequation per constant or repeated term; on
    the golden and on random saturations it gives the printed Σ_q,
    conjuncts, internalised constants, equality flag and errors of the
    chain of passes and the fixpoint abstraction, the same twice over,
    and leaves the symbol table as it was.  The rewritten clauses of each
    tuple shape are counted."""
    rng = random.Random(17)
    cases = [_golden(), ([], _golden()[1])]
    cases += [_random_saturation(rng) for _ in range(2000)]
    seen = {"equality": 0, "linked": 0, "error": 0, "empty": 0}
    shapes = dict.fromkeys(("constant", "constant outside",
                            "repeated variable", "repeated constant"), 0)
    for clauses, symbols in cases:
        before = [(s.name, s.kind, s.arity, s.origin) for s in symbols]
        got = _outcome(q_rew, clauses, symbols)
        assert got == _outcome(reference_q_rew, clauses, symbols), \
            [str(c) for c in clauses]
        assert _outcome(q_rew, clauses, symbols) == got
        assert [(s.name, s.kind, s.arity, s.origin)
                for s in symbols] == before
        if isinstance(got, str):
            seen["error"] += 1
            continue
        seen["equality"] += got[3]
        # a Skolem constant links clauses into one closed set
        seen["linked"] += any(cs.skolem_consts and len(cs.clauses) > 1
                              for cs in partition_closed(clauses, symbols))
        seen["empty"] += not clauses
        for c in clauses:
            for shape in _tuple_shapes(c):
                shapes[shape] += 1
    assert seen["equality"] > 500 and seen["linked"] > 300 and \
        seen["error"] > 200 and seen["empty"] > 150, seen
    assert shapes["constant"] > 300 and shapes["constant outside"] > 70 \
        and shapes["repeated variable"] > 450 \
        and shapes["repeated constant"] >= 50, shapes


def test_two_argument_tuples_are_rejected():
    """A clause whose compound terms have two argument tuples,
    ``q2(h(X,X,Z), h(X,Y,Z))``, is not strongly compatible, and the
    rewriting rejects it.  The reference's fixpoint abstraction presumes
    one tuple: ``var_abs`` replaces the repeated ``X`` at the second
    position of every compound term, which merges the tuples and drops
    the clause's ``Y``.  No loosely guarded clause has two tuples."""
    _, s = _golden()
    s.declare("q2", SymbolKind.PREDICATE, 2, SymbolOrigin.INPUT)
    x, y, z = Var("X"), Var("Y"), Var("Z")
    clause = Clause([Literal(True, "q2", (App("h", (x, x, z)),
                                          App("h", (x, y, z))))])
    with pytest.raises(RewriteError, match="clause is not strongly "
                       "compatible"):
        q_rew([clause], s)
    assert print_formula(reference_q_rew([clause], s).sigma_q) == \
        "~(! [X1,X2,X3] : (? [Y1] : (X2 != X1 | q2(Y1,Y1))))"


def test_abstraction_end_to_end():
    """The ``abstraction`` problem of ``scripts/trace_digest.py``: its
    saturation keeps a constant and a repeated variable among a Skolem
    term's arguments, ``~p(c) | s(sk0(c))`` and ``~r(X,X) |
    t(sk1(X,X))``.  Each is rewritten with its disequation, and the
    reference gives the same Σ_q."""
    problem = parse(dict(digest_problems())["abstraction"])
    result, state = run(problem)
    assert result.verdict == "no"
    saturation = [c for _, c in state.worked_off.clauses()]
    assert {str(c) for c in saturation} >= {"~p(c) | s(sk0(c))",
                                            "~r(X,X) | t(sk1(X,X))"}
    res = q_rew(saturation, problem.symbols)
    assert print_formula(res.sigma_q) == (
        "~((! [X1] : (? [Y1] : ((~p(X1) | q(X1,Y1)) & "
        "(X1 != c | ~p(X1) | s(Y1))))) & "
        "(! [X1,X2] : (? [Y1] : ((g(X2,X1,Y1) | ~r(X2,X1)) & "
        "(X2 != X1 | ~r(X1,X1) | t(Y1))))) & "
        "(! [U1,U2] : ((~q(c,U1) | s(U1)) & (~g(U1,U1,U2) | t(U2)) & "
        "(~s(U1) | ~t(U1)))))")
    assert res.equality_used and res.skolem_constants_internalized == []
    assert _outcome(reference_q_rew, saturation, problem.symbols) == \
        _outcome(q_rew, saturation, problem.symbols)


def test_rewriting_errors_agree_with_the_reference():
    """Each error the rewriting raises, with the reference's message."""
    _, s = _golden()
    x, y = Var("x"), Var("y")

    def lit(*args):
        return Literal(True, f"q{len(args)}", args)

    for clauses, message in [
        ([Clause([lit(x)]), Clause([])], "the saturation contains the "
         "empty clause"),
        ([Clause([lit(App("f", (x, y)), App("h", (x,)))])],
         "closed set mixes compound-term arities [1, 2]"),
        ([Clause([lit(App("f", (x, y)))]),
          Clause([lit(App("f", (x, y)), App("k", (x, y, x)))])],
         "closed set mixes compound-term arities [2, 3]"),
        ([Clause([lit(App("f", (x, y)), App("g", (y, x)))])],
         "clause is not strongly compatible"),
        ([Clause([lit(App("h", (App("h", (x,)),)))])],
         "clause is not strongly compatible"),
    ]:
        got = _outcome(q_rew, clauses, s)
        assert got.startswith(f"RewriteError: {message}"), got
        assert got == _outcome(reference_q_rew, clauses, s)
