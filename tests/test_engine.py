"""Inference engine: dispatch, side premises, top-variable resolution.

Includes the two large randomized property suites:
* closure — random loosely guarded sets stay in the class under
  top-variable resolution and factoring, with bounded depth and width;
* redundancy — on ground premises the partial resolvent makes the main
  premise redundant (smaller in the clause order, and together with the
  side premises it entails the full resolvent).
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from guardedsat import engine
from guardedsat.engine import (
    ClauseIndex, _binary_resolvents, clause_record, com_t_all, dispatch,
    factor, stays_strictly_maximal,
)
from guardedsat.orders import LPO, Cmp, Precedence, maximal, select_nc
from guardedsat.qans import _as_main, answer, inferences
from guardedsat.qsep import DefinitionRegistry, is_icq, q_sep
from guardedsat.syntax import parse
from guardedsat.terms import (
    App, Clause, Const, Literal, SymbolKind, SymbolOrigin, SymbolTable,
    Var, apply_clause, apply_lit, apply_term, clause_vars, lit_vars,
    membership, normalize, unify_into,
)

import test_qsep
from util import (
    CONSTS, _iter_assignments, clause_gt, com_t, data_sweep_instances,
    depth, ground_entails, is_variant, make_symbols, p_res, preds,
    random_ground_atom, random_lg_set, reference_com_t_all,
    reference_factor, reference_kept_sides, s_res, width,
)

x, y, z = Var("x"), Var("y"), Var("z")
a, b = Const("a"), Const("b")


def _lit(pos, p, *args):
    return Literal(pos, p, tuple(args))


def _symbols():
    s = SymbolTable()
    for n in ("a", "b"):
        s.declare(n, SymbolKind.CONSTANT, 0, SymbolOrigin.INPUT)
    s.declare("f", SymbolKind.FUNCTION, 1, SymbolOrigin.SKOLEM)
    for n, ar in (("A", 1), ("B", 2), ("G", 2), ("D", 1)):
        s.declare(n, SymbolKind.PREDICATE, ar, SymbolOrigin.INPUT)
    return s


def _lpo():
    return LPO(Precedence(_symbols()))


# ---------------------------------------------------------------------------
# dispatch / eligibility


def test_dispatch_ground():
    c = Clause([_lit(True, "A", a), _lit(False, "B", a, b)])
    assert dispatch(c) == "max"


def test_dispatch_negative_compound():
    c = Clause([_lit(False, "A", App("f", (x,))), _lit(True, "A", x)])
    assert dispatch(c) == "select"


def test_dispatch_positive_compound():
    c = Clause([_lit(True, "A", App("f", (x,))), _lit(False, "A", x)])
    assert dispatch(c) == "max"


def test_dispatch_flat_nonground():
    c = Clause([_lit(False, "B", x, y), _lit(True, "A", x)])
    assert dispatch(c) == "topvar"


def test_eligible_selected_is_single_negative_compound():
    c = Clause([_lit(False, "A", App("f", (x,))), _lit(True, "B", x, y)])
    rec = clause_record(c, _lpo())
    assert rec.regime == "select"
    assert len(rec.main_literals) == 1 and not rec.main_literals[0].pos


def test_eligible_all_negative_without_sides():
    c = Clause([_lit(False, "B", x, y), _lit(True, "A", x)])
    rec = clause_record(c, _lpo())
    assert rec.regime == "topvar"
    assert rec.main_literals == (_lit(False, "B", x, y),)
    assert rec.side_literals == ()


def _check_record(c, lpo):
    rec = clause_record(c, lpo)
    d = dispatch(c)
    assert rec.regime == ("icq" if is_icq(c) else d), c
    maxlits = tuple(maximal(lpo, c)) if d == "max" else ()
    if d == "max":
        assert rec.main_literals == tuple(l for l in maxlits if not l.pos)
    elif d == "select":
        assert rec.main_literals == (select_nc(c),), c
    else:
        assert rec.main_literals == tuple(l for l in c if not l.pos), c
    sides = tuple(l for l in maximal(lpo, c, strict=True) if l.pos) \
        if d == "max" else ()
    assert rec.side_literals == sides, c
    assert rec.rivals == tuple(
        tuple(k for k, other in enumerate(c.literals)
              if other is not s and lpo.compare_lits(s, other) is not Cmp.GT)
        for s in sides), c
    return rec


def test_clause_record_matches_definitions():
    symbols = make_symbols(n_preds=5, max_arity=3, n_funcs=2,
                           rng=random.Random(7))
    lpo = LPO(Precedence(symbols))
    regimes = set()
    for seed in range(30):
        for c in random_lg_set(symbols, random.Random(seed), 8):
            regimes.add(_check_record(c, lpo).regime)
    for q, s in (test_qsep._chain_query(), test_qsep._cycle_query()):
        res = q_sep(q, DefinitionRegistry(s))
        for c in res.guarded + res.icq:
            regimes.add(_check_record(c, LPO(Precedence(s))).regime)
    # the generators never select a negative compound-term literal
    sel = Clause([_lit(False, "A", App("f", (x,))), _lit(True, "B", x, y),
                  _lit(False, "G", x, y)])
    regimes.add(_check_record(sel, _lpo()).regime)
    assert regimes == {"max", "select", "topvar", "icq"}
    # ground units, whose records come from their sign: facts and derived
    # facts, flat and over compound terms
    rng = random.Random(7)
    shapes = set()
    for _ in range(60):
        lit = random_ground_atom(symbols, rng, compound=0.5)
        for unit in (lit, lit.negate()):
            _check_record(Clause([unit]), lpo)
            shapes.add((unit.pos, any(isinstance(t, App) for t in unit.args)))
    assert len(shapes) == 4


def test_clause_record_compares_each_pair_once(monkeypatch):
    """The record of an n-literal ``"max"`` clause makes at most
    n(n-1)/2 literal comparisons."""
    calls = 0
    compare = LPO.compare_lits

    def counting(self, l1, l2):
        nonlocal calls
        calls += 1
        return compare(self, l1, l2)

    monkeypatch.setattr(LPO, "compare_lits", counting)
    symbols = make_symbols(n_preds=5, max_arity=3, n_funcs=2,
                           rng=random.Random(7))
    lpo = LPO(Precedence(symbols))
    checked = 0
    for seed in range(30):
        rng = random.Random(seed)
        clauses = random_lg_set(symbols, rng, 8)
        clauses += [Clause([random_ground_atom(symbols, rng)
                            for _ in range(rng.randint(2, 5))])]
        for c in clauses:
            if dispatch(c) != "max" or len(c) < 2:
                continue
            calls = 0
            rec = clause_record(c, lpo)
            n = len(c)
            assert calls <= n * (n - 1) // 2, (c, calls)
            checked += bool(rec.side_literals)
    assert checked >= 30, checked


def test_side_literals_only_strictly_maximal_positive():
    lpo = _lpo()
    c = Clause([_lit(True, "B", App("f", (x,)), x), _lit(True, "A", x)])
    sides = clause_record(c, lpo).side_literals
    assert sides == (_lit(True, "B", App("f", (x,)), x),)


def test_side_literals_none_for_selected_or_flat_nonground():
    lpo = _lpo()
    sel = Clause([_lit(False, "A", App("f", (x,))), _lit(True, "A", x)])
    assert clause_record(sel, lpo).side_literals == ()
    flat = Clause([_lit(True, "B", x, y)])
    assert clause_record(flat, lpo).side_literals == ()


def test_com_t_simultaneous_unifier_and_top_variables():
    lpo = _lpo()
    n = ClauseIndex(lpo)
    n.add(1, Clause([_lit(True, "A", App("f", (z,))),
                     _lit(False, "G", z, z)]))
    n.add(2, Clause([_lit(True, "B", App("f", (z,)), z),
                     _lit(False, "G", z, z)]))
    main = Clause([_lit(False, "A", x), _lit(False, "B", x, y),
                   _lit(True, "D", y)])
    tv = com_t(main, n)
    assert tv is not None
    # x is unified with the compound term f(z); it dominates y
    assert tv.top_vars == frozenset({"x"})
    assert all(l.pred == "A" or "x" in {v.name for v in l.args
                                        if isinstance(v, Var)}
               for l in tv.top_literals)


# ---------------------------------------------------------------------------
# the top-variable join against the nested-loop reference


def _side_literal(n, cid, side_r, pos_r):
    """The literal of the indexed clause ``cid`` whose image under
    renaming is ``pos_r``.  ``terms.renaming`` maps the clause's variables,
    in name order, to fresh names in the order they are drawn."""
    drawn = sorted(set().union(*map(lit_vars, side_r)),
                   key=lambda v: int(v[2:]))
    names = sorted(clause_vars(n.by_id[cid]))
    back = {v: Var(w) for v, w in zip(drawn, names)}
    return apply_lit(pos_r, back)


def _signature(n, assignment):
    """(main literal, side id, side literal before renaming) per side of
    ``assignment``."""
    return tuple((mlit, cid, _side_literal(n, cid, side_r, pos_r))
                 for mlit, cid, side_r, pos_r in assignment)


# the constant matching as defined, which the tests that count the join's
# own calls to it patch
_constant_leaf = engine._constant_leaf


def _row_signature(negs, sides):
    """(main literal, side id, side literal) per level of a join row with
    the sides ``sides``."""
    return tuple((neg, side.cid, side.lit) for neg, side in zip(negs, sides))


def _is_subsequence(xs, ys):
    it = iter(ys)
    return all(x in it for x in xs)


def _row_unifier(negs, sides, sub):
    """The unifier of a join row with the sides ``sides`` and the unifier
    ``sub``, with the bindings of a closing side over constants added,
    which the row leaves out; asserts that they bind only variables
    ``sub`` leaves free, and only to constants."""
    full = dict(sub)
    for i, (neg, side) in enumerate(zip(negs, sides)):
        assert unify_into(zip(side.at(i).args, neg.args), full)
    assert all(isinstance(t, Const) for v, t in full.items() if v not in sub)
    return normalize(full)


def _assert_joins_agree(main, n):
    """With and without each indexed clause required:

    * the join's rows are a subsequence of the reference join's tuples,
      in the same order, each with the reference's top variables and top
      literals and a unifier equivalent to the reference's once the
      bindings of its sides over constants are added
      (:func:`_row_unifier`);
    * every reference tuple the join leaves out has the key (top
      variables, side of each top literal) of an earlier row, so it could
      not be kept;
    * :func:`com_t_all` yields the reference's first tuple of each key,
      and nothing else, with the same top literals, the same sides of the
      top literals and a variant resolvent.

    Returns the number of reference tuples, of those :func:`com_t_all`
    does not keep, and of those the join leaves out."""
    negs = [l for l in main if not l.pos]
    mvars = clause_vars(main)
    lpo = n.lpo
    tuples = skipped = left_out = 0
    for must in [None] + sorted(n.by_id):
        want = list(reference_com_t_all(main, n, must_include=must))
        rows = engine._join(negs, mvars, n, must)
        ref = list(_iter_assignments(negs, n, mvars, must))
        row_keys = set()
        j = 0
        for (chosen, sigma), w in zip(ref, want):
            key = (w.top_vars, _signature(n, w.side_assignment))
            if j < len(rows) and \
                    _row_signature(negs, rows[j][0]) == _signature(n, chosen):
                sides, sub, (top_vars, top) = rows[j]
                assert (top_vars, tuple(negs[i] for i in top)) == \
                    (w.top_vars, w.top_literals), (main, must)
                sub = _row_unifier(negs, sides, sub)
                assert is_variant(Clause([apply_lit(l, sub) for l in negs]),
                                  Clause([apply_lit(l, sigma) for l in negs]))
                row_keys.add(key)
                j += 1
            else:
                assert key in row_keys, (main, must)
                left_out += 1
        assert j == len(rows), (main, must)
        first = {}
        for w in want:
            first.setdefault((w.top_vars, _signature(n, w.side_assignment)),
                             w)
        got = list(com_t_all(main, n, must_include=must))
        assert [_signature(n, g.side_assignment) for g in got] == \
            [_signature(n, w.side_assignment) for w in first.values()], \
            (main, must)
        for g, w in zip(got, first.values()):
            assert g.top_vars == w.top_vars
            assert g.top_literals == w.top_literals
            r_got = engine._topvar_resolvent(0, main, g, lpo)
            r_want = engine._topvar_resolvent(0, main, w, lpo)
            assert (r_got is None) == (r_want is None), (main, must)
            if r_got is not None:
                assert r_got[0] == r_want[0], (main, must)
                assert is_variant(r_got[2], r_want[2])
        tuples += len(ref)
        skipped += len(ref) - len(got)
    return tuples, skipped, left_out


def _ground_compound_args(rng, k, fn):
    """``k`` constants, at least one of them under the unary ``fn``."""
    args = [Const(rng.choice(CONSTS)) for _ in range(k)]
    j = rng.randrange(k)
    args[j] = App(fn, (args[j],))
    return tuple(args)


def _flat_args(rng, k):
    """``k`` arguments drawn from the constants and ``y``, ``z``, at least
    one of them a variable."""
    args = [rng.choice((Const(rng.choice(CONSTS)), y, z)) for _ in range(k)]
    args[rng.randrange(k)] = rng.choice((y, z))
    return tuple(args)


def _icq_join_index(rng):
    """The ICQ main that q_sep makes from the cycle query, indexed with
    random ground facts and guarded compound-term sides on its
    predicates, one ground side with a compound argument and one
    non-ground side over constants and variables only."""
    q, s = test_qsep._cycle_query()
    (icq,) = q_sep(q, DefinitionRegistry(s)).icq
    for c in CONSTS:
        s.declare(c, SymbolKind.CONSTANT, 0, SymbolOrigin.INPUT)
    s.declare("f", SymbolKind.FUNCTION, 1, SymbolOrigin.SKOLEM)
    s.declare("g", SymbolKind.PREDICATE, 1, SymbolOrigin.INPUT)
    n = ClauseIndex(LPO(Precedence(s)))
    n.add(0, icq)
    fx = App("f", (x,))
    cid = 0
    for pred in sorted({l.pred for l in icq}):
        for _ in range(rng.randint(0, 3)):
            cid += 1
            n.add(cid, Clause([_lit(True, pred, Const(rng.choice(CONSTS)),
                                    Const(rng.choice(CONSTS)))]))
        for _ in range(rng.randint(0, 2)):
            cid += 1
            args = rng.choice([(x, fx), (fx, x), (fx, fx)])
            n.add(cid, Clause([_lit(True, pred, *args), _lit(False, "g", x)]))
    on = sorted({l.pred for l in icq})
    n.add(cid + 1, Clause([_lit(True, rng.choice(on),
                                *_ground_compound_args(rng, 2, "f"))]))
    n.add(cid + 2, Clause([_lit(True, rng.choice(on), *_flat_args(rng, 2)),
                           _lit(True, "g", fx)]))
    return icq, n


def _join_index(symbols, rng):
    """A random index for the join tests: a random loosely guarded set and
    ground unit facts over ``symbols``, and clauses that take each path of
    the join:

    * a main premise with a selected literal that repeats a variable;
    * for one main premise, the ground instances of its selected
      literals under one grounding, which bind each level of a tuple
      fully, the closing one included;
    * ground side literals with a compound argument;
    * non-ground side literals over constants and variables only, made
      side literals by a positive literal on a compound term over another
      variable, which they do not lose to."""
    ext = symbols.copy()
    ext.declare("g", SymbolKind.PREDICATE, 1, SymbolOrigin.INPUT)
    ext.declare("h", SymbolKind.FUNCTION, 1, SymbolOrigin.SKOLEM)
    clauses = random_lg_set(symbols, rng, 8)
    clauses += [Clause([random_ground_atom(symbols, rng)])
                for _ in range(6)]
    ps = preds(symbols)
    wide = [(p, k) for p, k in ps if k >= 2]
    if wide:
        (p, k), (q, m) = rng.choice(wide), rng.choice(ps)
        clauses.append(Clause([
            _lit(False, p, x, x, *(rng.choice((x, y)) for _ in range(k - 2))),
            _lit(False, q, *(rng.choice((x, y)) for _ in range(m))),
            _lit(True, "g", y)]))
    mains = [c for c in clauses if dispatch(c) == "topvar"]
    if mains:
        main = rng.choice(mains)
        ground = {v: Const(rng.choice(CONSTS)) for v in clause_vars(main)}
        clauses += [Clause([apply_lit(l, ground).negate()])
                    for l in main if not l.pos]
    for _ in range(2):
        p, k = rng.choice(ps)
        clauses.append(Clause([_lit(True, p,
                                    *_ground_compound_args(rng, k, "h"))]))
    for _ in range(2):
        p, k = rng.choice(ps)
        clauses.append(Clause([_lit(True, p, *_flat_args(rng, k)),
                               _lit(True, "g", App("h", (x,)))]))
    n = ClauseIndex(LPO(Precedence(ext)))
    for i, c in enumerate(clauses):
        n.add(i, c)
    return n


def test_join_agrees_with_nested_loop_reference(monkeypatch):
    """Over random indexes (:func:`_join_index`, :func:`_icq_join_index`)
    the join agrees with the nested-loop reference, and every path of
    the join is taken: a probe through the argument index, a closing-level
    lookup that finds ground side literals, a closing-level probe that
    keeps a non-ground side literal over a constant, a last level over
    constants that binds a variable, one whose arguments are distinct
    free variables, so that every side over constants is taken, and
    tuples the join leaves out because an earlier row has their key."""
    probed = looked_up = mixed = leaves = free = 0
    probe = engine._probe
    closing_constants = engine._closing_constants

    def counting(sides, args, sub, closing):
        nonlocal probed, looked_up, mixed
        first, second, matched = probe(sides, args, sub, closing)
        probed += first is not sides.entries
        looked_up += matched and bool(first)
        mixed += second is sides.flat and any(
            isinstance(a, Const) for side in second for a in side.lit.args)
        return first, second, matched

    def counting_leaf(args, consts, sub):
        nonlocal leaves
        leaf = _constant_leaf(args, consts, sub)
        leaves += bool(leaf)
        return leaf

    def counting_constants(args, sub):
        nonlocal free
        taken = closing_constants(args, sub)
        free += bool(taken)
        return taken

    monkeypatch.setattr(engine, "_probe", counting)
    monkeypatch.setattr(engine, "_constant_leaf", counting_leaf)
    monkeypatch.setattr(engine, "_closing_constants", counting_constants)
    symbols = make_symbols(n_preds=5, max_arity=3, n_funcs=2,
                           rng=random.Random(7))
    tuples = skipped = left_out = 0
    for seed in range(40):
        rng = random.Random(seed)
        n = _join_index(symbols, rng)
        joins = [_assert_joins_agree(c, n) for cid, c in n.clauses()
                 if n.records[cid].regime == "topvar"]
        icq, icq_index = _icq_join_index(rng)
        joins.append(_assert_joins_agree(icq, icq_index))
        tuples += sum(t for t, _, _ in joins)
        skipped += sum(k for _, k, _ in joins)
        left_out += sum(r for _, _, r in joins)
    assert tuples >= 200 and skipped >= 20, (tuples, skipped)
    # levels extended through the argument index, not the full list
    assert probed > 0
    assert looked_up >= 20 and mixed >= 20 and leaves >= 20, \
        (looked_up, mixed, leaves)
    assert free >= 20 and left_out >= 20, (free, left_out)


def test_com_t_all_draws_names_only_for_the_kept_top_sides():
    """:func:`com_t_all` draws from the index's supply only what one
    renaming of each top side of each kept tuple draws, in the order
    kept, and names the kept top sides as
    :func:`util.reference_kept_sides` does.  The main premises' variables
    are names the supply hands out, so the draws must skip them."""
    symbols = make_symbols(n_preds=5, max_arity=3, n_funcs=2,
                           rng=random.Random(7))
    tuples = skipped = 0
    for seed in range(60):
        rng = random.Random(seed)
        n = _join_index(symbols, rng)
        joins = [(c, n) for cid, c in n.clauses()
                 if n.records[cid].regime == "topvar"]
        joins.append(_icq_join_index(rng))
        for c, n in joins:
            main = apply_clause(c, {v: Var(f"_v{1001 + 2 * i}") for i, v
                                    in enumerate(sorted(clause_vars(c)))})
            negs = [l for l in main if not l.pos]
            for must in [None] + sorted(n.by_id):
                fresh = itertools.count(1000)
                want = reference_kept_sides(main, n, must, fresh)
                n.fresh = itertools.count(1000)
                got = list(com_t_all(main, n, must_include=must))
                assert next(n.fresh) == next(fresh), (main, must)
                assert [g.side_assignment for g in got] == want, (main, must)
                found = sum(1 for _ in _iter_assignments(
                    negs, n, clause_vars(main), must))
                tuples += found
                skipped += found - len(got)
    assert tuples >= 500 and skipped >= 20, (tuples, skipped)


def _fact_join_index(fact_pred, n_facts):
    """The facts ``<fact_pred>(c1)`` to ``<fact_pred>(c<n_facts>)`` (ids 1
    to ``n_facts``), the sides ``p(sk0(U),U) | ~g(U)`` and
    ``p(sk1(U),U) | ~h(U)`` (ids 11, 12) and the main premise
    ``~p(X,Y) | ~<fact_pred>(Y)`` (id 13), whose top variable is ``X``
    under either side of ``~p(X,Y)``.  The literal on ``fact_pred``
    sorts before ``~p(X,Y)`` if ``fact_pred`` is ``a``, after it if it is
    ``q``."""
    s = SymbolTable()
    for k in range(1, n_facts + 1):
        s.declare(f"c{k}", SymbolKind.CONSTANT, 0, SymbolOrigin.INPUT)
    for fn in ("sk0", "sk1"):
        s.declare(fn, SymbolKind.FUNCTION, 1, SymbolOrigin.SKOLEM)
    for name, k in ((fact_pred, 1), ("g", 1), ("h", 1), ("p", 2)):
        s.declare(name, SymbolKind.PREDICATE, k, SymbolOrigin.INPUT)
    n = ClauseIndex(LPO(Precedence(s)))
    u = Var("U")
    for k in range(1, n_facts + 1):
        n.add(k, Clause([_lit(True, fact_pred, Const(f"c{k}"))]))
    for cid, (fn, guard) in enumerate((("sk0", "g"), ("sk1", "h")), 11):
        n.add(cid, Clause([_lit(True, "p", App(fn, (u,)), u),
                           _lit(False, guard, u)]))
    main = Clause([_lit(False, "p", Var("X"), Var("Y")),
                   _lit(False, fact_pred, Var("Y"))])
    n.add(13, main)
    return n, main


def test_com_t_all_names_no_tuple_it_does_not_keep():
    """The join of ``~p(X,Y) | ~q(Y)`` (:func:`_fact_join_index`) keeps
    one tuple per side of the top literal ``~p(X,Y)``, each closed at
    ``~q(Y)`` with the first fact.  The tuples with the other facts are
    never kept, and those of the first side sort between the two kept
    tuples; in ``~a(Y) | ~p(X,Y)`` they all sort after them.  The join
    emits only the kept tuples.  The kept sides and the end of the supply
    are those of renaming only the kept top sides
    (:func:`util.reference_kept_sides`), so one more fact leaves every
    kept side's names as they were."""
    for pred, rows in (("q", [[11, 1], [12, 1]]), ("a", [[1, 11], [1, 12]])):
        named = []
        for n_facts in (3, 4):
            n, main = _fact_join_index(pred, n_facts)
            negs = list(main.literals)
            assert [[side.cid for side in sides] for sides, _, _ in
                    engine._join(negs, clause_vars(main), n, None)] == rows
            got = {}
            for must in [None] + sorted(n.by_id):
                fresh = itertools.count(1000)
                want = reference_kept_sides(main, n, must, fresh)
                n.fresh = itertools.count(1000)
                got[must] = [g.side_assignment
                             for g in com_t_all(main, n, must_include=must)]
                assert next(n.fresh) == next(fresh), (pred, must)
                assert got[must] == want, (pred, must)
                # a tuple's key is its side of ~p(X,Y)
                assert len(got[must]) == \
                    {11: 1, 12: 1, 13: 0}.get(must, 2), (pred, must)
            named.append(got)
        three, four = named
        assert all(four[must] == kept for must, kept in three.items()), pred


def test_join_work_on_a_data_instance(monkeypatch):
    """On the first ``data_sweep`` instance (N=40, No), the join tests at
    most 116 candidates over the whole run, unifications and matches of
    a last level over constants; the closing-level lookup tests none,
    and no side over constants is matched where the unifier binds an
    argument to a compound term (that took 153).  Unifying every
    candidate, with no lookup and no constant probe, took 324
    unifications.  The join's rows are a subsequence of the tuples of the
    nested-loop reference, in its order: 18 rows over 7 calls, where the
    reference has 57 tuples.  It tests 76 candidates: a closing level
    whose arguments are distinct free variables takes every side over
    constants without matching it."""
    attempts = 0
    unify = engine.unify_into
    constant_leaf = engine._constant_leaf

    def counting(pairs, sub):
        nonlocal attempts
        attempts += 1
        return unify(pairs, sub)

    def counting_leaf(args, consts, sub):
        nonlocal attempts
        attempts += 1
        return constant_leaf(args, consts, sub)

    calls = rows = 0
    join = engine._join

    def checked(negs, mvars, n, must):
        nonlocal calls, rows
        found = join(negs, mvars, n, must)
        fresh, n.fresh = n.fresh, itertools.count(10 ** 6)
        want = [tuple((neg, cid, _side_literal(n, cid, side_r, pos_r))
                      for neg, cid, side_r, pos_r in chosen)
                for chosen, _ in _iter_assignments(
                    negs, n, clause_vars(Clause(negs)), must)]
        n.fresh = fresh
        assert _is_subsequence(
            [_row_signature(negs, sides) for sides, _, _ in found], want)
        calls += 1
        rows += len(found)
        return found

    monkeypatch.setattr(engine, "unify_into", counting)
    monkeypatch.setattr(engine, "_constant_leaf", counting_leaf)
    monkeypatch.setattr(engine, "_join", checked)
    inst = data_sweep_instances([40])[0]
    assert answer(parse(inst.text)).verdict == inst.expected == "no"
    assert (calls, rows) == (7, 18)
    assert attempts <= 116, attempts


def _renaming_flip_index():
    """A side clause whose two side literals would swap places if renamed
    into a sorted clause with the index's supply at 9: ``q(x,f(x)) |
    q(y,f(x))`` would become ``q(_v10,f(_v9)) | q(_v9,f(_v9))``, because
    the sort breaks the tie between the structurally equal literals by
    variable name."""
    s = SymbolTable()
    for c in ("a", "b"):
        s.declare(c, SymbolKind.CONSTANT, 0, SymbolOrigin.INPUT)
    s.declare("f", SymbolKind.FUNCTION, 1, SymbolOrigin.SKOLEM)
    s.declare("q", SymbolKind.PREDICATE, 2, SymbolOrigin.INPUT)
    n = ClauseIndex(LPO(Precedence(s)))
    fx = App("f", (x,))
    side = Clause([_lit(True, "q", x, fx), _lit(True, "q", y, fx)])
    n.add(1, side)
    assert n.records[1].side_literals == side.literals
    n.fresh = itertools.count(9)
    return n


def test_join_resolves_the_side_literal_it_picked():
    """The join picks ``q(y,f(x))`` for ``~q(z,z)`` (``q(x,f(x))`` fails
    the occurs check).  The side clause is renamed literal by literal in
    its own order, so the renamed literals do not swap as a re-sorted
    clause's would; the renamed side literal is the picked one's image,
    and its rival the image of the other literal."""
    n = _renaming_flip_index()
    main = Clause([_lit(False, "q", z, z)])
    (tv,) = com_t_all(main, n)
    ((_, cid, side_r, pos_r),) = tv.side_assignment
    assert [str(l) for l in side_r] == ["q(_v9,f(_v9))", "q(_v10,f(_v9))"]
    assert pos_r == side_r[1]
    assert str(pos_r) == "q(_v10,f(_v9))"
    assert tv.rivals == ((side_r[0],),)
    assert str(tv.rivals[0][0]) == "q(_v9,f(_v9))"


def test_binary_resolution_resolves_the_side_literal_it_picked():
    """Against ``~q(a,f(b))`` only ``q(y,f(x))`` resolves: one resolvent,
    ``q(b,f(b))``."""
    n = _renaming_flip_index()
    main = Clause([_lit(False, "q", a, App("f", (b,)))])
    n.add(2, main)
    ((rule, parents, (concl,)),) = _binary_resolvents(
        2, main, main.literals[0], n)
    assert (rule, parents) == ("TRes2a", (2, 1))
    assert str(concl) == "q(b,f(b))"


def _random_term(symbols, rng, nesting=2):
    r = rng.random()
    fns = [(sym.name, sym.arity) for sym in symbols
           if sym.kind is SymbolKind.FUNCTION]
    if nesting > 0 and r < 0.3:
        f, k = rng.choice(fns)
        return App(f, tuple(_random_term(symbols, rng, nesting - 1)
                            for _ in range(k)))
    if r < 0.6:
        return Const(rng.choice(CONSTS))
    return rng.choice((x, y, z))


def test_side_condition_on_rivals_agrees_with_full_check():
    """Re-checking only the literals a side literal does not dominate a
    priori decides the side condition as re-checking all of them does."""
    symbols = make_symbols(n_preds=5, max_arity=3, n_funcs=2,
                           rng=random.Random(7))
    lpo = LPO(Precedence(symbols))
    checks = fails = skipped = 0
    for seed in range(60):
        rng = random.Random(seed)
        sides = random_lg_set(symbols, rng, 8)
        # and clauses outside the class, whose literals need not share
        # their variables
        for _ in range(8):
            lits = []
            for _ in range(rng.randint(2, 4)):
                p, k = rng.choice(preds(symbols))
                lits.append(Literal(rng.random() < 0.7, p, tuple(
                    _random_term(symbols, rng, 1) for _ in range(k))))
            sides.append(Clause(lits))
        for c in sides:
            rec = clause_record(c, lpo)
            vs = sorted(clause_vars(c))
            for lit, rivals in zip(rec.side_literals, rec.rivals):
                others = [l for l in c if l is not lit]
                skipped += len(others) - len(rivals)
                for _ in range(5):
                    sigma = {v: _random_term(symbols, rng) for v in vs}
                    full = stays_strictly_maximal(lit, others, sigma, lpo)
                    got = stays_strictly_maximal(
                        lit, [c.literals[k] for k in rivals], sigma, lpo)
                    assert got == full, (c, lit, sigma)
                    checks += 1
                    fails += not full
    assert checks > 500 and fails > 50 and skipped > 50, \
        (checks, fails, skipped)


def _probed(sides, args, sub, closing=False):
    """The side literals a probe yields, and whether the first bucket is
    the closing-level lookup's; asserts that every side literal the probe
    drops fails to unify, and with the lookup, that each side literal in
    the first bucket holds the very arguments the selected ones have
    under ``sub``."""
    first, second, matched = engine._probe(sides, args, sub, closing)
    got = first + second
    for side in sides.entries:
        if side not in got:
            assert not unify_into(zip(side.at(1).args, args), dict(sub))
    if matched:
        image = tuple(apply_term(a, normalize(sub)) for a in args)
        assert all(side.lit.args == image for side in first)
    return sorted(side.cid for side in got), matched


def test_probe_by_head_symbol():
    """With no argument ground under the unifier but one bound to a
    compound term, a probe yields the side literals with that head symbol
    or a variable there, and drops only side literals that cannot
    unify."""
    n = ClauseIndex(_lpo())
    fx, fa = App("f", (x,)), App("f", (a,))
    for cid, args in enumerate([(fx, x), (x, fx), (a, b), (fa, b),
                                (App("f", (fx,)), x), (b, fa)]):
        n.add(cid, Clause([_lit(True, "B", *args)]))
    main = _lit(False, "B", y, z)
    sides = n.side_list(main)
    assert len(sides.entries) == 6
    sub = {"y": App("f", (Var(".0.w"),))}
    assert _probed(sides, main.args, sub) == ([0, 1, 3, 4], False)
    # the closing level probes the same way while an argument is open
    assert _probed(sides, main.args, sub, closing=True) == \
        ([0, 1, 3, 4], False)


def _probe_index():
    """Side literals on ``B`` over constants, variables and compound
    terms, ground and not.  The flat non-ground ones share their clause
    with ``A(f(w))``, which they do not lose to."""
    n = ClauseIndex(_lpo())
    fx, fa, fw = App("f", (x,)), App("f", (a,)), App("f", (Var("w"),))
    for cid, args in enumerate([(a, b), (a, b), (a, a), (fa, b), (b, fa),
                                (fx, x), (x, fx), (fx, b)]):
        n.add(cid, Clause([_lit(True, "B", *args)]))
    for cid, args in enumerate([(a, x), (x, b), (x, x), (x, y)], 8):
        n.add(cid, Clause([_lit(True, "B", *args), _lit(True, "A", fw)]))
    main = _lit(False, "B", y, z)
    sides = n.side_list(main)
    assert len(sides.entries) == 12
    return main, sides


def test_probe_by_constant():
    """Through an argument bound to a constant, a probe yields the side
    literals with that constant there or a variable there: a compound
    term there cannot unify with the constant, ground or not."""
    main, sides = _probe_index()
    sub = {"y": a}
    assert _probed(sides, main.args, sub) == \
        ([0, 1, 2, 6, 8, 9, 10, 11], False)
    # through a ground compound term: that term there or a non-ground one
    sub = {"y": App("f", (a,))}
    assert _probed(sides, main.args, sub) == \
        ([3, 5, 6, 7, 9, 10, 11], False)


def test_probe_closing_level_lookup():
    """At the closing level, with every argument ground under the
    unifier, a probe yields the ground side literals with that argument
    tuple, which unify binding nothing, then the non-ground ones, only
    those with no compound argument when every argument is a constant."""
    main, sides = _probe_index()
    assert _probed(sides, main.args, {"y": a, "z": b}, closing=True) == \
        ([0, 1, 8, 9, 10, 11], True)
    assert _probed(sides, main.args, {"y": a, "z": a}, closing=True) == \
        ([2, 8, 9, 10, 11], True)
    # through a variable bound to a level's variable, and so on to ``a``
    sub = {"y": Var(".0.w"), ".0.w": a, "z": b}
    assert _probed(sides, main.args, sub, closing=True) == \
        ([0, 1, 8, 9, 10, 11], True)
    # a compound argument keeps every non-ground side literal
    sub = {"y": b, "z": App("f", (a,))}
    assert _probed(sides, main.args, sub, closing=True) == \
        ([4, 5, 6, 7, 8, 9, 10, 11], True)
    # not at the closing level: a probe through the first argument
    assert _probed(sides, main.args, {"y": a, "z": b}) == \
        ([0, 1, 2, 6, 8, 9, 10, 11], False)


def test_constant_leaf_binds_as_unification_does():
    """A last level over constants binds what unifying the side literal
    with the selected one under the unifier binds, and fails where that
    fails: on a compound term, another constant, or a repeated variable
    meeting two constants."""
    fa = App("f", (a,))
    cases = [((x, x), (a, a), {}), ((x, x), (a, b), {}),
             ((x, y), (a, b), {"y": x}), ((x, y), (a, b), {"x": b}),
             ((x, y), (a, b), {"x": fa}), ((x, z), (b, a), {"x": y}),
             ((x, z), (b, b), {"x": y, "z": y}), ((x,), (a,), {"x": a})]
    for args, consts, sub in cases:
        leaf = engine._constant_leaf(args, consts, sub)
        full = dict(sub)
        ok = unify_into(zip(consts, args), full)
        assert (leaf is not None) == ok, (args, consts, sub)
        if ok:
            assert not leaf.keys() & sub.keys()
            assert normalize({**sub, **leaf}) == normalize(full)


def _position_contents(index):
    exact, wild, heads, free = index
    keys = [side.key for side in wild], [side.key for side in free]
    return ({t: [side.key for side in lst] for t, lst in exact.items()},
            {h: [side.key for side in lst] for h, lst in heads.items()},
            keys)


def _index_contents(n, positions=None):
    """What ``n`` holds.  For each side list: its side literals in order,
    the ground ones by argument tuple, the non-ground ones and the flat
    non-ground ones, and its argument index at each position of
    ``positions`` (by list), by default at each position built so far."""
    sides = {}
    for pred, lst in n._sides.items():
        if not lst.entries:
            continue
        js = sorted(lst.positions) if positions is None \
            else positions.get(pred, ())
        sides[pred] = (
            [(side.key, side.clause, side.lit) for side in lst.entries],
            {args: [side.key for side in ground]
             for args, ground in lst.ground.items()},
            [side.key for side in lst.nonground],
            [side.key for side in lst.flat],
            {j: _position_contents(lst.position(j)) for j in js})
    return (n.by_id, n.records, n.clauses(), sides,
            {p: ids for p, ids in n._main_index.items() if ids})


def test_remove_agrees_with_a_rebuilt_index():
    """After random adds, probes and removes, the index holds what adding
    the remaining clauses afresh gives, side lists and every argument
    index built so far included: the argument indexes are kept up as
    clauses come and go, not rebuilt."""
    symbols = make_symbols(n_preds=3, max_arity=3, n_funcs=2,
                           rng=random.Random(7))
    symbols.declare("q", SymbolKind.PREDICATE, 2, SymbolOrigin.INPUT)
    symbols.declare("h", SymbolKind.FUNCTION, 1, SymbolOrigin.SKOLEM)
    lpo = LPO(Precedence(symbols))
    hx = App("h", (x,))
    removed = shared = kept_up = 0
    for seed in range(30):
        rng = random.Random(seed)
        clauses = random_lg_set(symbols, rng, 12)
        clauses += [Clause([random_ground_atom(symbols, rng)])
                    for _ in range(8)]
        # two side literals on one predicate
        clauses += [Clause([_lit(True, "q", x, hx),
                            _lit(True, "q", rng.choice((y, z)), hx)])
                    for _ in range(4)]
        # flat non-ground and ground compound side literals
        clauses += [Clause([_lit(True, "q", Const(rng.choice(CONSTS)), y),
                            _lit(True, "q", hx, hx)]) for _ in range(2)]
        clauses += [Clause([_lit(True, "q", *_ground_compound_args(
            rng, 2, "h"))]) for _ in range(2)]
        rng.shuffle(clauses)
        n = ClauseIndex(lpo)
        live = {}
        for cid, c in zip(rng.sample(range(100), len(clauses)), clauses):
            n.add(cid, c)
            live[cid] = c
            for lit in n.records[cid].side_literals:
                if lit.args and rng.random() < 0.5:
                    n.side_list(lit).position(rng.randrange(len(lit.args)))
            if rng.random() < 0.4:
                gone = rng.choice(sorted(live))
                sides = [l.pred for l in n.records[gone].side_literals]
                shared += len(sides) > len(set(sides))
                built = {p: set(lst.positions)
                         for p, lst in n._sides.items()}
                kept_up += sum(len(js) for js in built.values())
                n.remove(gone)
                del live[gone]
                removed += 1
                rebuilt = ClauseIndex(lpo)
                for k, d in live.items():
                    rebuilt.add(k, d)
                assert _index_contents(n) == \
                    _index_contents(rebuilt, built)
    assert removed > 150 and shared > 5 and kept_up > 500, \
        (removed, shared, kept_up)


def test_sides_added_out_of_order_sit_as_if_added_in_id_order():
    """Facts and other side premises indexed in shuffled order, as picks
    add them, with joins that build argument indexes in between and with
    removals, of the clause just added too: after each step every side
    list holds what an index built by adding the live clauses one at a
    time in id order holds, argument indexes built so far included, and
    each join finds the same tuples in both."""
    symbols = make_symbols(n_preds=3, max_arity=2, rng=random.Random(3))
    symbols.declare("q", SymbolKind.PREDICATE, 2, SymbolOrigin.INPUT)
    symbols.declare("h", SymbolKind.FUNCTION, 1, SymbolOrigin.SKOLEM)
    lpo = LPO(Precedence(symbols))
    hx = App("h", (x,))
    joins = last_removed = out_of_order = kept_up = 0
    for seed in range(30):
        rng = random.Random(seed)
        clauses = list(dict.fromkeys(
            Clause([random_ground_atom(symbols, rng, compound=0.2)])
            for _ in range(30)))
        clauses += [Clause([_lit(True, "q", x, hx),
                            _lit(True, "q", rng.choice((y, z)), hx)]),
                    Clause([_lit(True, "q", Const(rng.choice(CONSTS)), y),
                            _lit(True, "q", hx, hx)])]
        picks = list(zip(rng.sample(range(100), len(clauses)), clauses))
        n = ClauseIndex(lpo)
        live = {}
        for cid, c in picks:
            lists = [n._sides[l.pred]
                     for l in clause_record(c, lpo).side_literals
                     if l.pred in n._sides]
            out_of_order += any(lst.entries and lst.entries[-1].cid > cid
                                for lst in lists)
            kept_up += any(lst.positions for lst in lists)
            n.add(cid, c)
            live[cid] = c
            rebuilt = ClauseIndex(lpo)
            for k in sorted(live):
                rebuilt.add(k, live[k])
            if rng.random() < 0.4:
                negs = [_lit(False, p, *(rng.choice((x, y, z, a))
                                         for _ in range(k)))
                        for p, k in rng.sample(preds(symbols), 2)]
                mvars = frozenset().union(*map(lit_vars, negs))
                joins += 1
                assert [[side.key for side in row[0]] for row in
                        engine._join(negs, mvars, n, None)] == \
                    [[side.key for side in row[0]] for row in
                     engine._join(negs, mvars, rebuilt, None)]
            elif rng.random() < 0.3:
                gone = cid if rng.random() < 0.5 else rng.choice(sorted(live))
                last_removed += gone == cid
                n.remove(gone)
                del live[gone]
                rebuilt = ClauseIndex(lpo)
                for k in sorted(live):
                    rebuilt.add(k, live[k])
            built = {p: set(lst.positions) for p, lst in n._sides.items()}
            assert _index_contents(n) == _index_contents(rebuilt, built)
    assert joins > 180 and last_removed > 60 and out_of_order > 250 \
        and kept_up > 180, (joins, last_removed, out_of_order, kept_up)


def test_mains_on_keeps_every_main_that_can_take_a_side():
    """A clause left out of :meth:`ClauseIndex.mains_on` for a side
    premise's predicates has no inference with that side premise."""
    symbols = make_symbols(n_preds=5, max_arity=3, n_funcs=2,
                           rng=random.Random(7))
    left_out = kept = 0
    for seed in range(30):
        rng = random.Random(seed)
        clauses = random_lg_set(symbols, rng, 8)
        clauses += [Clause([random_ground_atom(symbols, rng)])
                    for _ in range(4)]
        n = ClauseIndex(LPO(Precedence(symbols)))
        for i, c in enumerate(clauses):
            n.add(i, c)
        registry = DefinitionRegistry(symbols)
        for gid, rec in n.records.items():
            if not rec.side_literals:
                continue
            mains = n.mains_on(rec.side_literals)
            assert list(mains) == sorted(mains)
            for cid in sorted(n.by_id):
                if cid == gid or cid in mains:
                    kept += cid != gid
                    continue
                left_out += 1
                assert _as_main(n, registry, cid, gid) == [], (gid, cid)
    assert left_out > 100 and kept > 100, (left_out, kept)


def test_t_res_derives_empty_clause_from_units():
    lpo = _lpo()
    n = ClauseIndex(lpo)
    n.add(1, Clause([_lit(True, "A", a)]))
    main = Clause([_lit(False, "A", a)])
    n.add(2, main)
    derived = inferences(n, DefinitionRegistry(_symbols()), 2)
    assert any(c.is_empty() for _, _, cs in derived for c in cs)


def test_factor_positive_literals():
    lpo = _lpo()
    c = Clause([_lit(True, "B", App("f", (x,)), x),
                _lit(True, "B", App("f", (x,)), y),
                _lit(False, "G", x, y)])
    derived = factor(1, c, lpo)
    assert derived
    for rule, parents, (concl,) in derived:
        assert (rule, parents) == ("Factor", (1,))
        assert len(concl) < len(c)



def test_factor_agrees_with_the_record_based_reference():
    """:func:`factor`, called where :func:`inferences` calls it (a
    ``"max"`` clause with two positive literals or more), derives what
    factoring on the record's maximal literals derived, on every clause:
    on the others that derived nothing."""
    symbols = make_symbols(n_preds=4, max_arity=2, n_funcs=2,
                           rng=random.Random(5))
    lpo = LPO(Precedence(symbols))
    ps = preds(symbols)
    clauses = []
    for seed in range(1000):
        rng = random.Random(seed)
        lits = []
        for _ in range(rng.randint(1, 4)):
            # two predicates, so that positive literals often share one
            p, k = rng.choice(ps[:2])
            lits.append(Literal(rng.random() < 0.6, p, tuple(
                _random_term(symbols, rng, 1) for _ in range(k))))
        clauses.append(Clause(lits))
        if seed < 40:
            clauses += random_lg_set(symbols, rng, 8)
    gated = fired = 0
    for c in clauses:
        gate = dispatch(c) == "max" and sum(l.pos for l in c) > 1
        got = factor(1, c, lpo) if gate else []
        assert got == reference_factor(1, c, lpo), c
        gated += gate
        fired += bool(got)
    assert gated > 200 and fired > 50, (gated, fired)


def test_rule_2b_unifies_only_the_top_literals():
    """The join's unifier unifies every selected literal and binds ``Y``
    to ``c`` through the fact ``q(c)``; rule 2b resolves only the top
    literal ``~p(X,Y)``, so its conclusion keeps ``Y``.  Handing the
    join's unifier to the resolvent would give ``~g(c) | ~q(c)``."""
    text = ("fact: q(c).\n"
            "rule: ! [U] : (g(U) => ? [V] : (p(V,U) & h(V))).\n"
            "query: ? [X,Y] : (p(X,Y) & q(Y)).\n")
    assert answer(parse(text)).trace[4] == "[5] TRes2b(4,2) ~g(Y) | ~q(Y)"
    s = SymbolTable()
    s.declare("c", SymbolKind.CONSTANT, 0, SymbolOrigin.INPUT)
    s.declare("sk0", SymbolKind.FUNCTION, 1, SymbolOrigin.SKOLEM)
    for name, k in (("g", 1), ("h", 1), ("p", 2), ("q", 1)):
        s.declare(name, SymbolKind.PREDICATE, k, SymbolOrigin.INPUT)
    n = ClauseIndex(LPO(Precedence(s)))
    u, xx, yy, c = Var("U"), Var("X"), Var("Y"), Const("c")
    n.add(1, Clause([_lit(True, "q", c)]))
    n.add(2, Clause([_lit(False, "g", u),
                     _lit(True, "p", App("sk0", (u,)), u)]))
    main = Clause([_lit(False, "p", xx, yy), _lit(False, "q", yy)])
    n.add(4, main)
    negs = list(main.literals)
    ((sides, sub, _),) = engine._join(negs, {"X", "Y"}, n, None)
    assert [side.cid for side in sides] == [2, 1]
    leaf = _constant_leaf(negs[1].args, sides[1].lit.args, sub)
    assert apply_term(yy, normalize({**sub, **leaf})) == c
    (tv,) = com_t_all(main, n)
    assert tv.top_vars == {"X"}
    ((rule, parents, (concl,)),) = engine.topvar_resolvents(4, n, None)
    assert (rule, parents, str(concl)) == \
        ("TRes2b", (4, 2), "~g(Y) | ~q(Y)")

# ---------------------------------------------------------------------------
# closure property: random loosely guarded sets


def _closure_steps(seed: int, symbols, allow_compound=True):
    rng = random.Random(seed)
    clauses = random_lg_set(symbols, rng, 8, allow_compound=allow_compound)
    lpo = LPO(Precedence(symbols))
    n = ClauseIndex(lpo)
    for i, c in enumerate(clauses):
        n.add(i, c)
    registry = DefinitionRegistry(symbols)
    steps = []
    for cid, _ in n.clauses():
        for _, parents, conclusions in inferences(n, registry, cid):
            premises = [n.by_id[p] for p in parents]
            steps.extend((premises, concl) for concl in conclusions)
    return steps


def test_closure_500_random_lg_inferences():
    symbols = make_symbols(n_preds=5, max_arity=3, n_funcs=2,
                           rng=random.Random(7))
    t0 = time.monotonic()
    total = 0
    seed = 0
    while total < 500:
        seed += 1
        for premises, concl in _closure_steps(seed, symbols):
            total += 1
            if len(concl) == 0:
                continue
            assert "LG" in membership(concl), \
                f"conclusion left the class: {concl}"
            dmax = max(depth(p) for p in premises)
            assert depth(concl) <= dmax, (premises, concl)
            assert width(concl) <= max(width(p) for p in premises), \
                (premises, concl)
        assert seed < 400, "generator failed to produce inferences"
    assert time.monotonic() - t0 < 30.0
    assert total >= 500


# ---------------------------------------------------------------------------
# redundancy property: ground partial resolvents


def _random_ground_sres(rng: random.Random, symbols):
    """Build a ground main premise with n negative literals and n side
    premises whose strictly maximal positive literals match them."""
    lpo = LPO(Precedence(symbols))
    ps = preds(symbols)
    n_sel = rng.randint(2, 3)
    atoms = []
    while len(atoms) < n_sel:
        p, ar = rng.choice(ps)
        atom = Literal(True, p, tuple(Const(rng.choice(CONSTS))
                                      for _ in range(ar)))
        if atom not in atoms:
            atoms.append(atom)
    idx = ClauseIndex(lpo)
    sides = []
    for i, atom in enumerate(atoms):
        rest = []
        if rng.random() < 0.6:
            p, ar = rng.choice(ps)
            cand = Literal(False, p, tuple(Const(rng.choice(CONSTS))
                                           for _ in range(ar)))
            if lpo.compare_lits(atom, cand) is not None and \
                    cand.pred != atom.pred:
                rest = [cand]
        side = Clause([atom] + rest)
        if clause_record(side, lpo).side_literals != (atom,):
            side = Clause([atom])
        idx.add(i, side)
        sides.append(side)
    extra_pos = []
    main = Clause([l.negate() for l in atoms] + extra_pos)
    if main is None or len(main) != n_sel:
        return None
    return lpo, idx, main, sides, atoms


def test_redundancy_200_random_ground_partial_resolvents():
    symbols = make_symbols(n_preds=6, max_arity=2, n_funcs=0,
                           rng=random.Random(11))
    rng = random.Random(2024)
    done = 0
    guard = 0
    while done < 200 and guard < 4000:
        guard += 1
        built = _random_ground_sres(rng, symbols)
        if built is None:
            continue
        lpo, idx, main, sides, atoms = built
        main_id = 99
        full = s_res(main_id, main, idx)
        if not full:
            continue
        (r_full,) = full
        negs = [l for l in main if not l.pos]
        subset = rng.sample(negs, rng.randint(1, len(negs) - 1))
        partial = p_res(main_id, main, idx, subset)
        if not partial:
            continue
        (r_part,) = partial
        # the main premise is strictly greater than the partial resolvent
        assert clause_gt(lpo, main, r_part.conclusion), \
            (main, r_part.conclusion)
        # side premises plus the partial resolvent entail the resolvent
        assert ground_entails(sides + [r_part.conclusion],
                              r_full.conclusion), \
            (sides, r_part.conclusion, r_full.conclusion)
        done += 1
    assert done == 200
