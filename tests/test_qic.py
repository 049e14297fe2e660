"""Resolution on chained-only query clauses followed by structural repair.

Golden scenario: a 4-cycle query resolves simultaneously against four
clauses with compound terms; the resolvent leaves the clausal class and is
repaired into one loosely guarded clause plus a guarded definer chain.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

from guardedsat.engine import ClauseIndex, _topvar_resolvent, com_t_all
from guardedsat.orders import LPO, Precedence
from guardedsat.qic import closed_partition, q_ic_all, t_trans
from guardedsat.qsep import DefinitionRegistry
from guardedsat.terms import (
    App, Clause, Literal, SymbolKind, SymbolOrigin, SymbolTable, Var,
    membership,
)

from util import com_t, depth, is_variant


def _setup(tie=False):
    """The 4-cycle query and its four sides; with ``tie``, the first side
    also has two literals ``~b(z1)``, ``~b(z2)`` that only their
    variables tell apart, ahead of its other literals."""
    s = SymbolTable()
    s.declare("f", SymbolKind.FUNCTION, 1, SymbolOrigin.SKOLEM)
    for n in ("g", "h"):
        s.declare(n, SymbolKind.FUNCTION, 4, SymbolOrigin.SKOLEM)
    for n, ar in [("p4", 2), ("p5", 2), ("p6", 2), ("p8", 2), ("a", 1),
                  ("g1", 4), ("g2", 4), ("g3", 1), ("g4", 1), ("b", 1)]:
        s.declare(n, SymbolKind.PREDICATE, ar, SymbolOrigin.INPUT)
    V, L = Var, Literal

    def a(f, *args):
        return App(f, tuple(args))

    x, y, z1, z2 = V("x"), V("y"), V("z1"), V("z2")
    x1, x3, x5, x7 = V("x1"), V("x3"), V("x5"), V("x7")
    c1 = Clause([L(True, "p4", (x, a("g", x, y, z1, z2))),
                 L(False, "g1", (x, y, z1, z2))] +
                ([L(False, "b", (z1,)), L(False, "b", (z2,))] if tie else []))
    c2 = Clause([L(False, "g2", (x, y, z1, z2)),
                 L(True, "p8", (a("g", x, y, z1, z2), x)),
                 L(True, "a", (a("h", x, y, z1, z2),))])
    c3 = Clause([L(True, "p6", (a("f", x), x)), L(False, "g3", (x,))])
    c4 = Clause([L(True, "p5", (a("f", x), x)), L(False, "g4", (x,))])
    q3 = Clause([L(False, "p4", (x1, x3)), L(False, "p8", (x3, x5)),
                 L(False, "p6", (x5, x7)), L(False, "p5", (x1, x7))])
    lpo = LPO(Precedence(s))
    idx = ClauseIndex(lpo)
    for i, c in enumerate([c1, c2, c3, c4, q3], 1):
        idx.add(i, c)
    return s, lpo, idx, [c1, c2, c3, c4, q3]


def test_topvar_partition_on_cycle_query():
    s, lpo, idx, clauses = _setup()
    tv = com_t(clauses[4], idx)
    assert tv is not None
    # the cycle variables bound to compound terms dominate; x3 is unified
    # with g(...) and becomes the single top variable of its block
    assert tv.top_vars
    blocks = closed_partition(tv)
    assert sum(len(b) for b in blocks) == len(tv.top_literals)


def test_qic_golden_resolvent_and_repair():
    s, lpo, idx, clauses = _setup()
    premises = clauses[:4] + [clauses[4]]
    res = q_ic_all(5, idx, DefinitionRegistry(s))[0]
    r = res.resolvent
    # resolvent depth stays within the premise depth bound
    assert depth(r) <= max(depth(c) for c in premises) == 1
    assert "LG" not in membership(r)  # repair is actually needed
    # one loosely guarded clause keeps the compound terms
    assert len(res.lg_clauses) == 1
    lg = res.lg_clauses[0]
    assert "LG" in membership(lg) and "guarded" in membership(lg)
    assert {l.pred for l in lg if not l.pos} == {"g1", "g2"}
    # the flat remainder separates into a guarded definer chain, no cycles
    assert res.icq == []
    assert len(res.guarded) == 2
    for c in res.guarded:
        assert "guarded" in membership(c)
        assert depth(c) == 0
    preds = {l.pred for c in res.guarded for l in c}
    assert {"p5", "p6"} <= preds


def test_qic_definers_are_reused_across_runs():
    s, lpo, idx, clauses = _setup()
    reg = DefinitionRegistry(s)
    r1 = q_ic_all(5, idx, reg)[0]
    n_defs = len(reg)
    r2 = q_ic_all(5, idx, reg)[0]
    assert len(reg) == n_defs
    for c1, c2 in zip(r1.lg_clauses, r2.lg_clauses):
        assert is_variant(c1, c2), (c1, c2)
    for c1, c2 in zip(r1.guarded, r2.guarded):
        assert is_variant(c1, c2), (c1, c2)


def test_t_trans_reads_a_side_clause_in_sorted_order():
    """:func:`com_t_all` hands over each renamed side clause in the
    clause's own order.  The definer's argument order follows the
    remainder's order, which must be that of the renamed clause sorted,
    as when the side was renamed into a :class:`Clause`.  The two differ
    when the renaming flips a tie between literals that only their
    variables tell apart: ``~b(_v10)`` sorts before ``~b(_v9)``."""
    flips = 0
    for start in range(16):
        s, _, idx, clauses = _setup(tie=True)
        idx.fresh = itertools.count(start)
        main = clauses[4]
        for tv in com_t_all(main, idx):
            res = _topvar_resolvent(5, main, tv, idx.lpo)
            assert res is not None
            _, sigma, _ = res
            as_clause = replace(tv, side_assignment=tuple(
                (mlit, cid, Clause(side_r).literals, pos_r)
                for mlit, cid, side_r, pos_r in tv.side_assignment))
            flips += as_clause != tv
            outs = []
            for t in (tv, as_clause):
                lg, query = t_trans(main, t, sigma,
                                    DefinitionRegistry(s.copy()))
                outs.append(([str(c) for c in lg], str(query)))
            assert outs[0] == outs[1], start
    assert flips, flips
