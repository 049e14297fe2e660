"""Query separation: surface/chained/isolated analysis and q_sep goldens.

The two golden queries are a chain with a pendant edge (acyclic) and a
3-hypergraph whose surface literals form a 4-cycle (cyclic, yielding one
inseparable chained-only query clause).
"""

from __future__ import annotations

import random

from guardedsat import qsep
from guardedsat.clausify import trans
from guardedsat.qans import answer
from guardedsat.qsep import (
    DefinitionRegistry, analyze, is_icq, q_sep,
)
from guardedsat.syntax import parse
from guardedsat.terms import (
    Clause, Const, Literal, SymbolKind, SymbolOrigin, SymbolTable, Var,
    clause_vars, is_decomposable, membership,
)

from util import digest_problems, make_symbols, preds, reference_analyze


def _neg(p, *vs):
    return Literal(False, p, tuple(Var(v) for v in vs))


def _symbols(sig):
    s = SymbolTable()
    for n, a in sig:
        s.declare(n, SymbolKind.PREDICATE, a, SymbolOrigin.INPUT)
    return s


def _chain_query():
    q = Clause([_neg("a1", "x1", "x2"), _neg("a2", "x2", "x3"),
                _neg("a3", "x3", "x4", "x5"), _neg("a4", "x5", "x6"),
                _neg("a5", "x3", "x4")])
    s = _symbols([("a1", 2), ("a2", 2), ("a3", 3), ("a4", 2), ("a5", 2)])
    return q, s


def _cycle_query():
    q = Clause([_neg("b1", "x1", "x2", "x3"), _neg("b2", "x3", "x4", "x5"),
                _neg("b3", "x5", "x6", "x7"), _neg("b4", "x1", "x7", "x8"),
                _neg("b5", "x3", "x4", "x9")])
    s = _symbols([(f"b{i}", 3) for i in range(1, 6)])
    return q, s


def test_analyze_chain_query():
    q, _ = _chain_query()
    an = analyze(q)
    assert sorted(l.pred for l in an.surface) == ["a1", "a2", "a3", "a4"]
    assert an.chained == frozenset({"x2", "x3", "x5"})
    assert an.isolated == frozenset({"x1", "x4", "x6"})
    assert not is_decomposable(q)


def test_qsep_chain_query_is_acyclic():
    q, s = _chain_query()
    res = q_sep(q, DefinitionRegistry(s))
    assert res.acyclic and res.icq == []
    assert len(res.guarded) == 4
    horn = [c for c in res.guarded
            if sum(1 for l in c if l.pos) == 1]
    assert len(horn) == 3  # three separated clauses, each with a definer
    for c in res.guarded:
        assert "horn_guarded" in membership(c)
        assert 2 <= len(c) <= 4
    # the residue is the definer-guarded remainder of the query
    residue = [c for c in res.guarded if all(not l.pos for l in c)]
    assert len(residue) == 1 and "guarded" in membership(residue[0])


def test_qsep_cycle_query_yields_icq():
    q, s = _cycle_query()
    res = q_sep(q, DefinitionRegistry(s))
    assert not res.acyclic
    assert len(res.guarded) == 5
    for c in res.guarded:
        assert "horn_guarded" in membership(c)
        assert sum(1 for l in c if l.pos) == 1
    assert len(res.icq) == 1
    cyc = res.icq[0]
    assert len(cyc) == 4 and is_icq(cyc)
    assert all(not l.pos for l in cyc)


def test_registry_reuses_definers():
    q, s = _chain_query()
    reg = DefinitionRegistry(s)
    r1 = q_sep(q, reg)
    n_after = len(reg)
    r2 = q_sep(q, reg)
    assert len(reg) == n_after  # same shapes, no new symbols
    assert r2.fresh_symbols == 0
    assert [str(c) for c in r1.guarded] == [str(c) for c in r2.guarded]


def _random_query(rng, symbols):
    ps = [(p, a) for p, a in preds(symbols)]
    k = rng.randint(2, 6)
    lits = []
    for _ in range(rng.randint(2, 5)):
        p, a = rng.choice(ps)
        lits.append(Literal(False, p, tuple(
            Var(f"x{rng.randint(1, k)}") for _ in range(a))))
    return Clause(lits)


def test_qsep_random_output_invariants():
    symbols = make_symbols(n_preds=5, max_arity=3, rng=random.Random(3))
    rng = random.Random(17)
    for _ in range(150):
        q = _random_query(rng, symbols)
        res = q_sep(q, DefinitionRegistry(symbols))
        for c in res.guarded:
            assert "LG" in membership(c) or c.is_empty(), (q, c)
        for c in res.icq:
            assert is_icq(c), (q, c)
        assert res.acyclic == (not res.icq)
        # separation never invents variables
        out_vars = set()
        for c in res.guarded + res.icq:
            out_vars |= clause_vars(c)
        assert out_vars <= clause_vars(q)


def _random_analyzed_query(rng):
    """A flat negative clause of 1-9 literals of arity 0-4 over up to six
    variables and the constant ``c``: literals may repeat a variable set,
    have none, or repeat outright."""
    vs = [f"X{i}" for i in range(rng.randint(1, 6))]
    lits = []
    for _ in range(rng.randint(1, 9)):
        k = rng.randint(0, 4)
        lits.append(Literal(False, f"p{k}_{rng.randint(0, 2)}", tuple(
            Const("c") if rng.random() < 0.1 else Var(rng.choice(vs))
            for _ in range(k))))
    return Clause(lits)


def test_analyze_agrees_with_pairwise_reference():
    """On 3,000 random query clauses, :func:`analyze` finds the surface
    literals, chained and isolated variables of the pairwise reference."""
    rng = random.Random(24)
    chained = isolated = inside = 0
    for _ in range(3000):
        q = _random_analyzed_query(rng)
        an = analyze(q)
        assert an == reference_analyze(q), q
        chained += bool(an.chained)
        isolated += bool(an.isolated)
        inside += len(an.surface) < len(q)
    assert min(chained, isolated, inside) > 300, (chained, isolated, inside)


def test_analyze_agrees_with_reference_on_every_digested_query(monkeypatch):
    """The problems of ``scripts/trace_digest.py`` (the sweeps, the
    fixtures and the benchmark's smoke problems): each query clause, and
    every clause that separation analyzes while the problem is answered,
    gets the reference's analysis."""
    calls = 0

    def checked(q):
        nonlocal calls
        an = analyze(q)
        assert an == reference_analyze(q), q
        calls += 1
        return an

    queries = 0
    monkeypatch.setattr(qsep, "analyze", checked)
    for _, text in digest_problems():
        for q in trans(parse(text)).query_clauses:
            checked(q)
            queries += 1
        answer(parse(text))
    assert queries > 80 and calls > queries + 15, (queries, calls)
