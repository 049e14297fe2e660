"""End-to-end query answering by saturation.

The golden derivation feeds nine hand-built clauses (a triangle query with
a reporting atom, three generator clauses sharing one Skolem function, and
ground trigger facts) and checks the exact four-step refutation: one
top-variable resolution collapsing the triangle, two unit resolutions
against the purely negative constraints, a simultaneous step consuming the
ground triggers, and the empty clause.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace
from pathlib import Path

from guardedsat import qans, terms
from guardedsat.oracle import sat_enumerate
from guardedsat.clausify import trans
from guardedsat.qans import SaturationState, answer, run, saturate
from guardedsat.qrew import q_rew
from guardedsat.qsep import DefinitionRegistry
from guardedsat.orders import LPO, Precedence
from guardedsat.syntax import parse, print_formula
from guardedsat.terms import (
    App, Clause, Const, Literal, SymbolKind, SymbolOrigin, SymbolTable,
    Var, apply_clause, clause_vars, is_ground, is_ground_lit,
)

from util import (
    CONSTS, ReferenceSaturationState, data_sweep_instances, is_variant,
    make_symbols, preds, random_ground_atom, random_lg_set, random_problem,
    reference_saturate,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

x, y, z = Var("x"), Var("y"), Var("z")
a, b = Const("a"), Const("b")


def _f(t):
    return App("f", (t,))


def _g(t):
    return App("g", (t,))


def _golden_state():
    tab = SymbolTable()
    rows = [("f", SymbolKind.FUNCTION, 1, SymbolOrigin.SKOLEM),
            ("g", SymbolKind.FUNCTION, 1, SymbolOrigin.SKOLEM),
            ("a", SymbolKind.CONSTANT, 0, SymbolOrigin.INPUT),
            ("b", SymbolKind.CONSTANT, 0, SymbolOrigin.INPUT),
            ("B", SymbolKind.PREDICATE, 3, SymbolOrigin.INPUT),
            ("A1", SymbolKind.PREDICATE, 2, SymbolOrigin.INPUT),
            ("A2", SymbolKind.PREDICATE, 2, SymbolOrigin.INPUT),
            ("A3", SymbolKind.PREDICATE, 2, SymbolOrigin.INPUT),
            ("D", SymbolKind.PREDICATE, 1, SymbolOrigin.INPUT),
            ("G1", SymbolKind.PREDICATE, 1, SymbolOrigin.INPUT),
            ("G2", SymbolKind.PREDICATE, 1, SymbolOrigin.INPUT),
            ("G3", SymbolKind.PREDICATE, 1, SymbolOrigin.INPUT)]
    for n, k, ar, o in rows:
        tab.declare(n, k, ar, o)
    lpo = LPO(Precedence(tab))
    state = SaturationState(lpo=lpo, registry=DefinitionRegistry(tab))
    L = Literal
    cs = [
        Clause([L(False, "A1", (x, y)), L(False, "A2", (y, z)),
                L(False, "A3", (z, x)), L(True, "B", (x, y, b))]),
        Clause([L(True, "A3", (x, _f(x))), L(False, "G3", (x,))]),
        Clause([L(True, "A2", (_f(x), _f(x))), L(False, "G2", (x,))]),
        Clause([L(True, "A1", (_f(x), x)), L(True, "D", (_g(x),)),
                L(False, "G1", (x,))]),
        Clause([L(False, "B", (x, y, b))]),
        Clause([L(False, "D", (x,))]),
        Clause([L(True, "G1", (_f(a),))]),
        Clause([L(True, "G3", (_f(a),))]),
        Clause([L(True, "G2", (a,))]),
    ]
    for c in cs:
        state.insert(c, "input")
    return state


def record_kept(state: SaturationState) -> dict[int, Clause]:
    """From now on, map the id of every clause ``state`` keeps to the
    clause as inserted (the clause may later leave both sets)."""
    kept: dict[int, Clause] = {}
    insert = state.insert

    def recording(c: Clause, rule: str, parents: tuple[int, ...] = ()):
        cid = insert(c, rule, parents)
        if cid is not None:
            kept[cid] = state.usable[cid]
        return cid

    state.insert = recording
    return kept


def golden_12_as_v11() -> Clause:
    """Conclusion [12] of the golden derivation with its fresh variable
    named ``_v11``.  The number of a fresh variable depends on how many
    names the renamings before it drew, one per variable of each side
    clause a conclusion renames; the clause must stay this one up to
    renaming."""
    v = Var("_v11")
    return Clause([Literal(False, "A2", (v, v)), Literal(False, "G1", (v,)),
                   Literal(False, "G3", (v,))])


def test_golden_derivation():
    state = _golden_state()
    kept = record_kept(state)
    t0 = time.monotonic()
    verdict = saturate(state)
    elapsed = time.monotonic() - t0
    assert verdict == "yes"
    assert state.steps <= 100
    assert elapsed < 1.0
    text = "\n".join(state.trace)
    # the four derivation steps, in order, ending in the empty clause
    assert "[10] TRes2b(1,4,2) ~A2(z,z) | B(f(z),z,b) | D(g(z))" \
           " | ~G1(z) | ~G3(z)" in text
    assert "[11] TRes2b(5,10) ~A2(y,y) | D(g(y)) | ~G1(y) | ~G3(y)" in text
    assert "[12] TRes2b(6,11) ~A2(_v3,_v3) | ~G1(_v3) | ~G3(_v3)" in text
    assert is_variant(kept[12], golden_12_as_v11())
    assert "[13] TRes2b(12,3,7,8) ~G2(a)" in text
    assert "[14] TRes2a(13,9) []" in text


def test_golden_derivation_is_deterministic():
    t1 = saturate_trace()
    t2 = saturate_trace()
    assert t1 == t2


def saturate_trace():
    state = _golden_state()
    saturate(state)
    return list(state.trace)


def _parse(text):
    return parse(text)


def test_answer_trivial_yes_and_no():
    yes = _parse("fact: a0(c1).\nquery: ? [X] : a0(X).")
    no = _parse("fact: a0(c1).\nquery: ? [X] : b0(X).")
    assert answer(yes).verdict == "yes"
    assert answer(no).verdict == "no"


def test_answer_existential_witness():
    prob = _parse(
        "fact: a0(c1).\n"
        "rule: ! [X] : (a0(X) => ? [Y] : (r0(X,Y) & b0(Y))).\n"
        "query: ? [X,Y] : (r0(X,Y) & b0(Y)).")
    assert answer(prob).verdict == "yes"


def test_answer_query_requires_cycle_absent():
    prob = _parse(
        "fact: r0(c1,c2).\n"
        "query: ? [X,Y] : (r0(X,Y) & r0(Y,X)).")
    assert answer(prob).verdict == "no"


def test_run_returns_saturated_state_on_no():
    prob = _parse("fact: a0(c1).\nquery: ? [X] : b0(X).")
    result, state = run(prob)
    assert result.verdict == "no"
    assert state.worked_off.clauses()  # saturated set is available


def test_run_leaves_the_problem_as_it_was():
    """Two runs on one parsed problem give the same events and the same
    Σ_q, and the problem's symbol table holds the same symbols after
    them: the Skolem and definer symbols go into a copy."""
    problem = parse((FIXTURES / "thm13_08.p").read_text())
    before = list(problem.symbols)
    outs = []
    for _ in range(2):
        result, state = run(problem)
        assert result.verdict == "no"
        sigma_q = q_rew([c for _, c in state.worked_off.clauses()],
                        problem.symbols).sigma_q
        outs.append((result.events, print_formula(sigma_q)))
        assert list(problem.symbols) == before
    assert outs[0] == outs[1]


def test_facts_added_to_a_saturated_state_answer_as_from_scratch():
    """Saturate the rules and query of a ``data_sweep`` instance without
    its facts through :func:`run`, then insert the facts into that state
    and saturate again: the verdict is that of answering the whole
    problem.  The worked-off index keeps its side lists and argument
    indexes across the two saturations."""
    for inst in data_sweep_instances([40, 80]):
        problem = parse(inst.text)
        result, state = run(replace(problem, facts=[]))
        assert result.verdict == "no"
        facts = trans(replace(problem, rules=[], queries=[])).lg_clauses
        assert len(facts) == len(problem.facts)
        for c in facts:
            state.insert(c, "input")
        assert saturate(state) == answer(parse(inst.text)).verdict \
            == inst.expected


def test_an_empty_input_clause_is_the_first_pick():
    """An empty input clause drops the inputs before it, so the loop picks
    it first and prints no inference line."""
    result = answer(_parse(
        "fact: p(a). fact: r(a,b). rule: ! [X,Y] : (r(X,Y) => s(Y)). "
        "formula: $false. query: ? [X] : q(X)."))
    assert result.trace == ["[1] input p(a)", "[2] input r(a,b)",
                            "[3] input ~r(X,Y) | s(Y)", "[4] input []"]
    assert (result.verdict, result.steps) == ("yes", 1)


def test_an_empty_input_clause_subsumes_a_later_ground_query_clause():
    """The ground query clause ``~p(a)`` comes after the empty input
    clause, which subsumes it, so it is never kept: a ground unit is
    redundant once the empty clause is, whatever units are kept."""
    result = answer(_parse("fact: q(b). formula: $false. query: p(a)."))
    assert result.trace == ["[1] input q(b)", "[2] input []"]
    assert (result.verdict, result.steps) == ("yes", 1)


def test_the_trace_is_rendered_from_the_events():
    """The loop records one event per trace line, (id, rule, parent ids,
    clause), an input with no parents, and the lines are rendered from
    them when read: reading the trace twice gives the same lines and
    leaves the events as they were."""
    result, state = run(_parse(
        "fact: a0(c1).\nrule: ! [X] : (a0(X) => b0(X)).\n"
        "query: ? [X] : b0(X)."))
    assert [(cid, rule, parents, str(c))
            for cid, rule, parents, c in result.events] == [
        (1, "input", (), "a0(c1)"), (2, "input", (), "~a0(X) | b0(X)"),
        (3, "input", (), "~b0(X)"), (4, "TRes2b", (2, 1), "b0(c1)"),
        (5, "TRes2b", (3, 4), "[]")]
    events = list(result.events)
    first = result.trace
    assert first == ["[1] input a0(c1)", "[2] input ~a0(X) | b0(X)",
                     "[3] input ~b0(X)", "[4] TRes2b(2,1) b0(c1)",
                     "[5] TRes2b(3,4) []"]
    assert result.trace == first == state.trace
    assert result.events == events


def _assert_maps_hold_kept_clauses(state):
    """Every id the subsumption maps hold is in usable or worked-off, no
    per-signature unit map is left empty, and the posting sets are those
    of ``others``."""
    for cid in list(state.others) + [
            cid for us in state.units_by_sig.values() for cid in us.values()]:
        assert cid in state.usable or cid in state.worked_off.by_id, cid
    assert all(state.units_by_sig.values()), state.units_by_sig
    _assert_postings(state)


def _assert_postings(state):
    """The posting sets equal those built afresh from ``others``: each
    id under the (sign, predicate, arity) of each of its literals, the
    empty clause under ``()``, and no set empty."""
    postings: dict = {}
    for cid, c in state.others.items():
        keys = {(l.pos, l.pred, len(l.args)) for l in c} or {()}
        for key in keys:
            postings.setdefault(key, set()).add(cid)
    assert state.postings == postings


def test_a_picked_empty_input_clause_leaves_the_maps():
    """The empty input clause drops the fact before it and is picked
    first; once picked it is in neither usable nor worked-off, so it
    leaves the subsumption maps too, and the fact's emptied map goes.
    On random problems the maps hold only usable and worked-off
    clauses."""
    result, state = run(_parse(
        "fact: p(a).\nformula: $false.\nquery: ? [X] : q(X).\n"))
    assert result.verdict == "yes"
    assert (state.others, state.units_by_sig, state.postings) == ({}, {}, {})
    rng = random.Random(3)
    for _ in range(150):
        _, state = run(random_problem(rng), step_budget=20000)
        _assert_maps_hold_kept_clauses(state)


def test_a_derived_empty_clause_ends_the_loop(monkeypatch):
    """On the Yes ``data_sweep`` instances, stopping at a derived empty
    clause without inserting it gives the trace, steps and clause count
    of inserting it first (:func:`util.reference_saturate`), and leaves
    every clause the subsumption maps hold in usable or worked-off."""
    for inst in data_sweep_instances([40, 80]):
        if inst.expected != "yes":
            continue
        result, state = run(parse(inst.text))
        assert result.trace[-1].endswith(" []")
        _assert_maps_hold_kept_clauses(state)
        with monkeypatch.context() as m:
            m.setattr(qans, "saturate", reference_saturate)
            want, _ = run(parse(inst.text))
        assert (result.verdict, result.trace, result.steps,
                result.n_clauses) == \
            (want.verdict, want.trace, want.steps, want.n_clauses)


def test_random_function_free_agreement_with_model_search():
    """Saturation agrees with bounded finite-model search on random
    function-free problems (exact for problems over three constants)."""
    rng = random.Random(42)
    n = 0
    while n < 100:
        prob = random_problem(rng)
        res = answer(prob, step_budget=200000)
        if res.verdict == "unknown":
            continue
        clauses = trans(prob)
        neg = list(clauses.lg_clauses) + list(clauses.query_clauses)
        model = sat_enumerate(neg, max_domain=3)
        expected = "no" if model is not None else "yes"
        assert res.verdict == expected, prob.source if hasattr(
            prob, "source") else prob
        n += 1


# ---------------------------------------------------------------------------
# indexed insertion


def _random_clause(symbols, rng):
    """A ground unit, a non-ground unit or a loosely guarded clause; the
    units of either polarity, with a few repeats, and one ground unit in
    four with a compound argument, as a derived fact over Skolem terms
    has."""
    r = rng.random()
    if r < 0.45:
        lit = random_ground_atom(symbols, rng, compound=0.25)
        return Clause([lit if rng.random() < 0.7 else lit.negate()])
    if r < 0.7:
        p, k = rng.choice(preds(symbols))
        args = tuple(rng.choice((x, y, Const(rng.choice(CONSTS))))
                     for _ in range(k))
        return Clause([Literal(rng.random() < 0.7, p, args)])
    return random_lg_set(symbols, rng, 1)[0]


def test_indexed_insert_agrees_with_linear_scan():
    """The same kept/rejected decisions and the same surviving clauses as
    the linear scan, with clauses moving to worked-off along the way, and
    posting sets that match ``others`` after every insert and pick.
    The empty clause comes last in every other sequence and mid-stream
    in every third, followed by ground units of both signs, some with a
    compound argument."""
    symbols = make_symbols(n_preds=4, max_arity=2, n_funcs=1,
                           rng=random.Random(3))
    lpo = LPO(Precedence(symbols))
    kept = rejected = dropped = 0
    # ground units inserted after the empty clause, by sign, and ground
    # units with a compound argument
    late = {True: 0, False: 0}
    compound = 0
    for seed in range(30):
        rng = random.Random(seed)
        new, ref = (cls(lpo=lpo, registry=DefinitionRegistry(symbols))
                    for cls in (SaturationState, ReferenceSaturationState))
        empty_at = 30 if seed % 3 == 0 else None if seed % 2 else 60
        empty = False
        for step in range(61):
            if step != empty_at and rng.random() < 0.2 and ref.usable:
                for st in (new, ref):
                    cid, c = st.pick()
                    st.worked_off.add(cid, c)
                _assert_postings(new)
                continue
            if step == empty_at:
                c = Clause(())
                empty = True
            else:
                c = _random_clause(symbols, rng)
            if len(c) == 1 and is_ground(c):
                (lit,) = c
                late[lit.pos] += empty and step != empty_at
                compound += any(isinstance(t, App) for t in lit.args)
            before = len(ref.usable) + len(ref.worked_off.by_id)
            got, want = new.insert(c, "input"), ref.insert(c, "input")
            assert got == want, (seed, c)
            assert set(new.usable) == set(ref.usable)
            assert set(new.worked_off.by_id) == set(ref.worked_off.by_id)
            _assert_postings(new)
            after = len(ref.usable) + len(ref.worked_off.by_id)
            kept += want is not None
            rejected += want is None
            dropped += before + (want is not None) - after
        assert new.events == ref.events
        assert new.trace == ref.trace
    assert kept > 300 and rejected > 300 and dropped > 50, \
        (kept, rejected, dropped)
    assert min(late.values()) >= 30 and compound >= 80, (late, compound)


def _stream_clause(symbols, rng, seen):
    """The next clause of a stream rich in what the posting sets decide:
    a variant of an earlier clause, an earlier non-unit clause less one
    literal, a ground literal of an earlier non-unit clause as a unit, a
    loosely guarded clause with a ground literal of either sign added, or
    a loosely guarded clause; few predicates, so non-unit clauses share
    them."""
    r = rng.random()
    nonunit = [c for c in seen if len(c) > 1]
    if r < 0.25 and seen:
        c = rng.choice(seen)
        return apply_clause(c, {v: Var(v + "'") for v in clause_vars(c)})
    if r < 0.35 and nonunit:
        lits = list(rng.choice(nonunit))
        del lits[rng.randrange(len(lits))]
        return Clause(lits)
    ground = [l for c in nonunit for l in c if is_ground_lit(l)]
    if r < 0.5 and ground:
        return Clause([rng.choice(ground)])
    c = random_lg_set(symbols, rng, 1)[0]
    if r < 0.8:
        lit = random_ground_atom(symbols, rng)
        return Clause(c.literals + (lit if rng.random() < 0.5
                                    else lit.negate(),))
    return c


def test_posting_sets_agree_with_linear_scan(monkeypatch):
    """On streams of variants, clauses sharing predicates, and clauses
    holding a ground literal followed by that literal as a unit, the
    posting sets give the kept/rejected decisions, surviving clauses and
    events of the linear scan, and equal the sets rebuilt from
    ``others`` after every insert, pick and drop."""
    symbols = make_symbols(n_preds=3, max_arity=2, n_funcs=1,
                           rng=random.Random(4))
    lpo = LPO(Precedence(symbols))
    drop = SaturationState._drop

    def checked_drop(self, cid):
        drop(self, cid)
        _assert_postings(self)

    monkeypatch.setattr(SaturationState, "_drop", checked_drop)
    variants = unit_drops = backward = 0
    for seed in range(30):
        rng = random.Random(seed)
        new, ref = (cls(lpo=lpo, registry=DefinitionRegistry(symbols))
                    for cls in (SaturationState, ReferenceSaturationState))
        seen: list[Clause] = []
        for step in range(80):
            if step == 70 and seed % 3 == 0:
                c = Clause(())
            elif rng.random() < 0.15 and ref.usable:
                for st in (new, ref):
                    cid, c = st.pick()
                    st.worked_off.add(cid, c)
                _assert_postings(new)
                continue
            else:
                c = _stream_clause(symbols, rng, seen)
            before = set(new.others)
            got, want = new.insert(c, "input"), ref.insert(c, "input")
            assert got == want, (seed, c)
            assert set(new.usable) == set(ref.usable)
            assert set(new.worked_off.by_id) == set(ref.worked_off.by_id)
            _assert_postings(new)
            gone = len(before - set(new.others))
            variants += want is None and any(
                is_variant(c, d) for d in new.others.values())
            unit_drops += len(c) == 1 and is_ground(c) and gone > 0
            backward += len(c) > 1 and gone
            seen.append(c)
        assert new.events == ref.events
    assert variants > 150 and unit_drops > 50 and backward > 50, \
        (variants, unit_drops, backward)


def test_pick_agrees_with_the_weight_scan():
    """Random insert/pick sequences: the weight buckets pick the same ids
    as the scan of every usable weight and draw the RNG alike."""
    symbols = make_symbols(n_preds=3, max_arity=2, n_funcs=1,
                           rng=random.Random(5))
    lpo = LPO(Precedence(symbols))
    picks = draws = 0
    for seed in range(40):
        rng = random.Random(seed)
        new, ref = (cls(lpo=lpo, registry=DefinitionRegistry(symbols),
                        seed=seed)
                    for cls in (SaturationState, ReferenceSaturationState))
        for _ in range(120):
            if rng.random() < 0.4 and ref.usable:
                got, want = new.pick(), ref.pick()
                assert got == want, seed
                new.worked_off.add(*got)
                ref.worked_off.add(*want)
                picks += 1
            else:
                c = _random_clause(symbols, rng)
                assert new.insert(c, "input") == ref.insert(c, "input")
            assert list(new.usable) == sorted(ref.usable)
            assert new.weights == ref.weights
            assert new.by_weight == {
                w: sorted(cid for cid in ref.weights if ref.weights[cid] == w)
                for w in set(ref.weights.values())}
        assert new.rng.getstate() == ref.rng.getstate()
        draws += new.rng.getstate() != random.Random(seed).getstate()
    assert picks > 1000 and draws > 30, (picks, draws)


def test_inserting_ground_facts_is_not_quadratic(monkeypatch):
    """N ground facts cost at most 5N subsumption tests (the linear scan
    made N^2 - N: every earlier clause, forward and backward)."""
    symbols = SymbolTable()
    symbols.declare("r", SymbolKind.PREDICATE, 2, SymbolOrigin.INPUT)
    consts = [Const(f"c{i}") for i in range(15)]
    for c in consts:
        symbols.declare(c.name, SymbolKind.CONSTANT, 0, SymbolOrigin.INPUT)
    state = SaturationState(lpo=LPO(Precedence(symbols)),
                            registry=DefinitionRegistry(symbols))
    calls = 0

    def counting(c, d):
        nonlocal calls
        calls += 1
        return terms.subsumes(c, d)

    facts = [Clause([Literal(True, "r", (s, t))])
             for s in consts for t in consts][:200]
    monkeypatch.setattr(qans, "subsumes", counting)
    for c in facts:
        assert state.insert(c, "input") is not None
    assert calls <= 5 * len(facts), calls
