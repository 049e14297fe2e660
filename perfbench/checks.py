"""Answers that do not come from the saturation loop.

The generators already know each instance's answer (closed form, parity,
or "no facts, so No").  These checks confirm those answers, and the
rewritings, with the package's brute-force oracles, which share no code
with the given-clause loop.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

from workloads import Instance

CONSTS = ("c1", "c2", "c3")


def chase_agrees(gs: SimpleNamespace, inst: Instance) -> bool:
    """Depth-1 ground chase: it must prove every Yes instance and must
    never prove a No instance (it cannot saturate those, so it says
    "unknown")."""
    out = gs.clausify.trans(gs.syntax.parse(inst.text))
    unit = [len(c) == 1 and gs.terms.is_ground(c) for c in out.lg_clauses]
    facts = [c.literals[0] for c, u in zip(out.lg_clauses, unit) if u]
    horn = [c for c, u in zip(out.lg_clauses, unit) if not u]
    got = gs.oracle.ground_chase(horn, facts, out.query_clauses, depth=1)
    return got == "yes" if inst.expected == "yes" else got != "yes"


def model_exists(gs: SimpleNamespace, inst: Instance) -> bool:
    """A finite model of rules + negated query confirms the answer No."""
    out = gs.clausify.trans(gs.syntax.parse(inst.text))
    clauses = list(out.lg_clauses) + list(out.query_clauses)
    return gs.oracle.sat_enumerate(clauses, max_domain=2) is not None


def random_dataset(rng: random.Random,
                   preds: list[tuple[str, int]]) -> list[str]:
    lines = []
    for _ in range(rng.randint(0, 5)):
        p, ar = rng.choice(preds)
        args = ",".join(rng.choice(CONSTS) for _ in range(ar))
        lines.append(f"fact: {p}({args}).")
    return lines


def negated_sigma(gs: SimpleNamespace, inst: Instance, sigma_q):
    """Clauses of ¬Σ_q over a fresh parse of the instance, or None when
    model search over three elements would be too large to run (a Skolem
    function of arity 2, or more than one unary one)."""
    base = gs.syntax.parse(inst.text)
    neg = gs.clausify.clausify_formula(gs.syntax.Not(sigma_q), base.symbols,
                                       {}, {})
    _, funcs, _ = gs.oracle._signature(neg)
    if any(a > 1 for a in funcs.values()) or len(funcs) > 1:
        return None
    return base, neg


def sigma_agrees(gs: SimpleNamespace, inst: Instance, base, neg,
                 rng: random.Random, datasets: int) -> list[str]:
    """Compare Σ_q with direct answering on random small datasets, by the
    method of acceptance criterion 9.

    Direct answering runs the prover on rules + data + query; Σ_q is
    evaluated on the data alone by model search over D ∪ {¬Σ_q}.
    Returns one message per disagreement.
    """
    preds = [(s.name, s.arity) for s in base.symbols
             if s.kind is gs.terms.SymbolKind.PREDICATE and s.arity > 0
             and s.origin is gs.terms.SymbolOrigin.INPUT]
    bad = []
    for _ in range(datasets):
        facts = random_dataset(rng, preds)
        direct = gs.qans.answer(
            gs.syntax.parse(inst.text + "\n".join(facts) + "\n")).verdict
        d_cl = list(gs.clausify.trans(gs.syntax.parse(
            "\n".join(facts) + "\n")).lg_clauses) if facts else []
        model = gs.oracle.sat_enumerate(d_cl + neg, max_domain=3)
        via_sigma = "no" if model is not None else "yes"
        if direct != via_sigma:
            bad.append(f"{inst.name}: data {facts}: direct={direct} "
                       f"sigma_q={via_sigma}")
    return bad
