"""Acceptance suite: one test per shipped guarantee.

Each test is a self-contained statement of an external guarantee of the
package: golden derivations and rewritings, structural invariants of the
calculus on random inputs, agreement with independent reference deciders,
and resource bounds.  Run with ``pytest -v`` for one pass/fail line per
criterion.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pathlib
import random
import time

from guardedsat.clausify import clausify_formula, trans
from guardedsat.oracle import sat_enumerate
from guardedsat.orders import LPO, Precedence
from guardedsat.qans import answer, run, saturate
from guardedsat.qic import q_ic_all
from guardedsat.qrew import q_rew
from guardedsat.qsep import DefinitionRegistry, is_icq, q_sep
from guardedsat.syntax import Exists, Forall, Not, parse, print_formula
from guardedsat.terms import Clause, Literal, SymbolKind, Var, membership

import test_qans
import test_qic
import test_qrew
import test_qsep
from test_engine import _closure_steps, _random_ground_sres
from util import (
    CONSTS, clause_gt, depth, ground_entails, is_variant, make_symbols,
    p_res, parse_formula, random_problem, s_res, width,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


# -- 1 ----------------------------------------------------------------------


def test_criterion_01_golden_derivation():
    state = test_qans._golden_state()
    kept = test_qans.record_kept(state)
    t0 = time.monotonic()
    verdict = saturate(state)
    elapsed = time.monotonic() - t0
    assert verdict == "yes"
    assert state.steps <= 100
    assert elapsed < 1.0
    text = "\n".join(state.trace)
    for line in (
        "[10] TRes2b(1,4,2) ~A2(z,z) | B(f(z),z,b) | D(g(z))"
        " | ~G1(z) | ~G3(z)",
        "[11] TRes2b(5,10) ~A2(y,y) | D(g(y)) | ~G1(y) | ~G3(y)",
        "[12] TRes2b(6,11) ~A2(_v3,_v3) | ~G1(_v3) | ~G3(_v3)",
        "[13] TRes2b(12,3,7,8) ~G2(a)",
        "[14] TRes2a(13,9) []",
    ):
        assert line in text, line
    assert is_variant(kept[12], test_qans.golden_12_as_v11())


# -- 2 ----------------------------------------------------------------------


def test_criterion_02_separation_of_acyclic_chain_query():
    q, s = test_qsep._chain_query()
    res = q_sep(q, DefinitionRegistry(s))
    assert res.acyclic and res.icq == []
    horn = [c for c in res.guarded if sum(1 for l in c if l.pos) == 1]
    assert len(horn) == 3
    for c in res.guarded:
        assert "horn_guarded" in membership(c)
        assert 2 <= len(c) <= 4
    residue = [c for c in res.guarded if all(not l.pos for l in c)]
    assert len(residue) == 1 and "horn_guarded" in membership(residue[0])


# -- 3 ----------------------------------------------------------------------


def test_criterion_03_separation_of_cyclic_query():
    q, s = test_qsep._cycle_query()
    res = q_sep(q, DefinitionRegistry(s))
    assert len(res.guarded) == 5
    assert all("horn_guarded" in membership(c) and
               sum(1 for l in c if l.pos) == 1 for c in res.guarded)
    assert len(res.icq) == 1
    assert len(res.icq[0]) == 4 and is_icq(res.icq[0])


# -- 4 ----------------------------------------------------------------------


def test_criterion_04_cycle_resolution_and_repair():
    s, lpo, idx, clauses = test_qic._setup()
    res = q_ic_all(5, idx, DefinitionRegistry(s))[0]
    assert depth(res.resolvent) <= max(depth(c) for c in clauses[:4]) == 1
    assert len(res.lg_clauses) == 1
    assert "LG" in membership(res.lg_clauses[0])
    assert res.icq == [] and len(res.guarded) == 2
    assert all("guarded" in membership(c) for c in res.guarded)


# -- 5 ----------------------------------------------------------------------


def test_criterion_05_golden_rewriting():
    cl, s = test_qrew._golden()
    res = q_rew(cl, s)
    txt = print_formula(res.sigma_q)
    assert isinstance(res.sigma_q, Not)
    assert [test_qrew._prefix_shape(c) for c in res.conjuncts] == \
        ["EAE", "AE", "A"]
    assert print_formula(parse_formula(txt)) == txt
    stripped = txt.replace("b1", "").replace("b2", "").replace("b3", "")
    for sym in ("f(", "g(", "h(", "(b", "b,", ",b"):
        assert sym not in stripped
    assert hashlib.sha256(txt.encode()).hexdigest() == \
        test_qrew.GOLDEN_SHA256


# -- 6 ----------------------------------------------------------------------


def test_criterion_06_random_closure_of_the_clausal_class():
    symbols = make_symbols(n_preds=5, max_arity=3, n_funcs=2,
                           rng=random.Random(7))
    t0 = time.monotonic()
    total = 0
    seed = 0
    while total < 500:
        seed += 1
        assert seed < 400
        for premises, concl in _closure_steps(seed, symbols):
            total += 1
            if len(concl) == 0:
                continue
            assert "LG" in membership(concl), (premises, concl)
            assert depth(concl) <= max(depth(p) for p in premises)
            assert width(concl) <= max(width(p) for p in premises)
    assert total >= 500
    assert time.monotonic() - t0 < 30.0


# -- 7 ----------------------------------------------------------------------


def test_criterion_07_partial_resolvents_make_the_main_redundant():
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
        full = s_res(99, main, idx)
        if not full:
            continue
        (r_full,) = full
        negs = [l for l in main if not l.pos]
        subset = rng.sample(negs, rng.randint(1, len(negs) - 1))
        partial = p_res(99, main, idx, subset)
        if not partial:
            continue
        (r_part,) = partial
        assert clause_gt(lpo, main, r_part.conclusion)
        assert ground_entails(sides + [r_part.conclusion],
                              r_full.conclusion)
        done += 1
    assert done == 200


# -- 8 ----------------------------------------------------------------------


def test_criterion_08_agreement_with_model_search():
    rng = random.Random(42)
    n = 0
    while n < 100:
        prob = random_problem(rng)
        res = answer(prob, step_budget=200000)
        assert res.verdict != "unknown"
        out = trans(prob)
        model = sat_enumerate(list(out.lg_clauses) +
                              list(out.query_clauses), max_domain=3)
        expected = "no" if model is not None else "yes"
        assert res.verdict == expected
        n += 1


# -- 9 ----------------------------------------------------------------------


def _random_dataset(rng, preds):
    lines = []
    for _ in range(rng.randint(0, 5)):
        p, ar = rng.choice(preds)
        args = ",".join(rng.choice(CONSTS) for _ in range(ar))
        lines.append(f"fact: {p}({args}).")
    return lines


def test_criterion_09_rewriting_agrees_with_direct_answering():
    fixtures = sorted(FIXTURES.glob("thm13_*.p"))
    assert len(fixtures) == 10
    rng = random.Random(7)
    checked = 0
    for path in fixtures:
        text = path.read_text()
        base = parse(text)
        assert not base.facts
        result, state = run(base)
        neg = None
        if result.verdict == "no":
            sigma_q = q_rew([c for _, c in state.worked_off.clauses()],
                            base.symbols).sigma_q
            # clauses of the negated rewriting, shared across datasets
            neg = clausify_formula(Not(sigma_q), base.symbols, {}, {})
        # data predicates: everything from the fixture's own signature
        preds = [(sym.name, sym.arity) for sym in base.symbols
                 if sym.kind is SymbolKind.PREDICATE and sym.arity > 0 and
                 sym.name[0] in "abdgrs"]
        for _ in range(20):
            facts = _random_dataset(rng, preds)
            prob = parse(text + "\n" + "\n".join(facts) + "\n")
            got = answer(prob).verdict
            assert got in ("yes", "no")
            if result.verdict == "yes":
                expected = "yes"  # entailed without any data at all
            else:
                d_out = trans(parse("\n".join(facts) + "\n")) if facts \
                    else None
                d_cl = list(d_out.lg_clauses) if d_out else []
                model = sat_enumerate(d_cl + neg, max_domain=3)
                expected = "no" if model is not None else "yes"
            assert got == expected, (path.name, facts, got, expected)
            checked += 1
    assert checked == 200


def _declared_by_trans(prob):
    """The symbols ``trans`` declares for ``prob``, read off a copy."""
    probe = dataclasses.replace(prob, symbols=prob.symbols.copy())
    before = {s.name for s in probe.symbols}
    trans(probe)
    return {s.name for s in probe.symbols} - before


def test_rewriting_is_over_the_input_signature():
    # Σ_q may mention the query-separation definers q_i, but no Skolem or
    # definer symbol of the rules' clausal form
    problems = [parse(p.read_text()) for p in sorted(FIXTURES.glob("*.p"))]
    problems = [p for p in problems if not p.facts]
    assert len(problems) == 14
    rng = random.Random(11)
    for _ in range(200):
        prob = random_problem(rng)
        prob.facts.clear()
        problems.append(prob)
    for prob in problems:
        declared = _declared_by_trans(prob)
        result, state = run(prob)
        assert result.verdict == "no"
        sigma_q = q_rew([c for _, c in state.worked_off.clauses()],
                        prob.symbols).sigma_q
        # Σ_q's symbols, read off parsing it back
        text = f"formula: {print_formula(sigma_q)}."
        mentioned = {s.name for s in parse(text).symbols}
        assert not declared & mentioned, text


# -- 10 ---------------------------------------------------------------------


def _definer_bound(symbols, max_vars=12):
    """Static bound on distinct definers: two polarities per atom shape
    over the signature with a bounded variable supply."""
    n_atoms = 0
    n_terms = max_vars + sum(1 for s in symbols
                             if s.kind is SymbolKind.CONSTANT)
    for s in symbols:
        if s.kind is SymbolKind.PREDICATE:
            n_atoms += n_terms ** s.arity
        elif s.kind is SymbolKind.PROPOSITIONAL:
            n_atoms += 1
    return 2 ** (2 * n_atoms)


def test_criterion_10_resource_bounds_across_the_suite():
    budget = 10 ** 6
    for path in sorted(FIXTURES.glob("*.p")):
        prob = parse(path.read_text())
        res = answer(prob, step_budget=budget)
        assert res.verdict != "unknown", path.name
        assert res.steps < budget, path.name
        assert res.registry_size <= _definer_bound(prob.symbols), path.name
    rng = random.Random(3)
    for _ in range(25):
        prob = random_problem(rng)
        res = answer(prob, step_budget=budget)
        assert res.verdict != "unknown"
        assert res.steps < budget
        assert res.registry_size <= _definer_bound(prob.symbols)
