"""Independent satisfiability oracles used for cross-checking.

These are deliberately naive, brute-force procedures that share no code
with the saturation engine:

* ``dpll``: a small DPLL SAT solver over integer literals;
* ``sat_enumerate``: bounded finite-model search for arbitrary clause sets
  (functions and equality allowed), enumerating interpretations over
  domains of size 1..k;
* ``ground_chase``: a bounded forward-chaining procedure for Horn clause
  sets with ground facts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .terms import (
    App, Clause, Const, Literal, Subst, Term, Var, apply_lit, clause_vars,
    is_ground_lit, match_lit, term_depth,
)


# ---------------------------------------------------------------------------
# a small DPLL SAT solver over integer literals


def dpll(clauses: list[frozenset[int]]) -> Optional[set[int]]:
    """Return a satisfying assignment (set of true literals) or None."""
    assignment: set[int] = set()
    cls = clauses

    def simplify(cls: list[frozenset[int]], lit: int
                 ) -> Optional[list[frozenset[int]]]:
        out = []
        for c in cls:
            if lit in c:
                continue
            if -lit in c:
                c = c - {-lit}
                if not c:
                    return None
            out.append(c)
        return out

    def solve(cls: list[frozenset[int]], assignment: set[int]
              ) -> Optional[set[int]]:
        if any(not c for c in cls):
            return None
        while True:
            unit = next((next(iter(c)) for c in cls if len(c) == 1), None)
            if unit is None:
                break
            cls2 = simplify(cls, unit)
            if cls2 is None:
                return None
            cls = cls2
            assignment = assignment | {unit}
        if not cls:
            return assignment
        # branch on the first literal of the first clause
        lit = next(iter(cls[0]))
        for choice in (lit, -lit):
            cls2 = simplify(cls, choice)
            if cls2 is not None:
                r = solve(cls2, assignment | {choice})
                if r is not None:
                    return r
        return None

    return solve(cls, assignment)


# ---------------------------------------------------------------------------
# bounded finite-model enumeration (functions + equality allowed)


@dataclass
class FiniteModel:
    size: int
    const_map: dict[str, int]
    func_tables: dict[str, dict[tuple[int, ...], int]]
    pred_tables: dict[str, set[tuple[int, ...]]] = field(default_factory=dict)

    def eval_term(self, t: Term, env: dict[str, int]) -> int:
        if isinstance(t, Var):
            return env[t.name]
        if isinstance(t, Const):
            return self.const_map[t.name]
        args = tuple(self.eval_term(a, env) for a in t.args)
        return self.func_tables[t.fn][args]

    def eval_lit(self, l: Literal, env: dict[str, int]) -> bool:
        vals = tuple(self.eval_term(t, env) for t in l.args)
        if l.is_eq:
            holds = vals[0] == vals[1]
        else:
            holds = vals in self.pred_tables.get(l.pred, set())
        return holds if l.pos else not holds


def _signature(clauses: Iterable[Clause]
               ) -> tuple[list[str], dict[str, int], dict[str, int]]:
    consts: set[str] = set()
    funcs: dict[str, int] = {}
    preds: dict[str, int] = {}

    def walk(t: Term) -> None:
        if isinstance(t, Const):
            consts.add(t.name)
        elif isinstance(t, App):
            funcs[t.fn] = len(t.args)
            for a in t.args:
                walk(a)

    for c in clauses:
        for l in c:
            if not l.is_eq:
                preds[l.pred] = len(l.args)
            for t in l.args:
                walk(t)
    return sorted(consts), funcs, preds


MAX_DOMAIN = 4


def sat_enumerate(clauses: Sequence[Clause], max_domain: int = 3
                  ) -> Optional[FiniteModel]:
    """Search for a model with at most ``max_domain`` elements.

    Equality is interpreted as identity on the domain.  Returns the first
    model found, or None if no model of size <= max_domain exists (which
    does not rule out larger or infinite models).
    """
    if max_domain > MAX_DOMAIN:
        raise ValueError(f"domain bound larger than {MAX_DOMAIN}")
    clauses = list(clauses)
    consts, funcs, preds = _signature(clauses)
    for k in range(1, max_domain + 1):
        dom = range(k)
        for cvals in itertools.product(dom, repeat=len(consts)):
            const_map = dict(zip(consts, cvals))
            fn_spaces = []
            fn_keys: list[tuple[str, list[tuple[int, ...]]]] = []
            for fn, ar in sorted(funcs.items()):
                inputs = list(itertools.product(dom, repeat=ar))
                fn_keys.append((fn, inputs))
                fn_spaces.append(itertools.product(dom,
                                                   repeat=len(inputs)))
            for tables in itertools.product(*fn_spaces):
                func_tables = {
                    fn: dict(zip(inputs, outs))
                    for (fn, inputs), outs in zip(fn_keys, tables)}
                model = FiniteModel(k, const_map, func_tables)
                sat = _pred_tables_for(model, clauses, preds)
                if sat is not None:
                    model.pred_tables = sat
                    return model
    return None


def _pred_tables_for(model: FiniteModel, clauses: list[Clause],
                     preds: dict[str, int]
                     ) -> Optional[dict[str, set[tuple[int, ...]]]]:
    """Given fixed constants/functions, decide predicate tables by DPLL."""
    atom_ids: dict[tuple, int] = {}

    def aid(pred: str, vals: tuple[int, ...]) -> int:
        key = (pred, vals)
        if key not in atom_ids:
            atom_ids[key] = len(atom_ids) + 1
        return atom_ids[key]

    ground: list[frozenset[int]] = []
    for c in clauses:
        vs = sorted(clause_vars(c))
        for combo in itertools.product(range(model.size), repeat=len(vs)):
            env = dict(zip(vs, combo))
            lits: set[int] = set()
            sat_already = False
            for l in c:
                vals = tuple(model.eval_term(t, env) for t in l.args)
                if l.is_eq:
                    if (vals[0] == vals[1]) == l.pos:
                        sat_already = True
                        break
                    continue
                lits.add(aid(l.pred, vals) if l.pos else -aid(l.pred, vals))
            if sat_already:
                continue
            if not lits:
                return None
            fs = frozenset(lits)
            if any(-x in fs for x in fs):
                continue
            ground.append(fs)
    assignment = dpll(ground)
    if assignment is None:
        return None
    tables: dict[str, set[tuple[int, ...]]] = {p: set() for p in preds}
    for (pred, vals), i in atom_ids.items():
        if i in assignment:
            tables.setdefault(pred, set()).add(vals)
    return tables


# ---------------------------------------------------------------------------
# bounded forward chaining for Horn sets


def ground_chase(horn: Sequence[Clause], facts: Sequence[Literal],
                 queries: Sequence[Clause], depth: int = 3,
                 max_facts: int = 20000) -> str:
    """Bounded oblivious chase.

    ``horn`` holds clauses with at most one positive literal; ``queries``
    are all-negative clauses.  Returns "yes" when some query clause matches
    derived facts, "no" when the chase saturates within the bounds without
    a match, "unknown" when a bound is hit.
    """
    derived: set[Literal] = {l for l in facts}
    bounded = False
    changed = True
    while changed:
        changed = False
        for c in horn:
            pos = [l for l in c if l.pos]
            neg = [l.negate() for l in c if not l.pos]
            if len(pos) > 1:
                raise ValueError("ground_chase expects Horn clauses")
            for sub in list(_match_all(neg, set(derived))):
                if not pos:
                    return "yes"
                new = apply_lit(pos[0], sub)
                if not is_ground_lit(new):
                    continue
                if any(term_depth(t) > depth for t in new.args):
                    bounded = True
                    continue
                if new not in derived:
                    if len(derived) >= max_facts:
                        return "unknown"
                    derived.add(new)
                    changed = True
    for q in queries:
        neg = [l.negate() for l in q]
        if next(iter(_match_all(neg, derived)), None) is not None:
            return "yes"
    return "unknown" if bounded else "no"


def _match_all(goals: list[Literal], facts: set[Literal],
               sub: Optional[Subst] = None):
    sub = sub or {}
    if not goals:
        yield dict(sub)
        return
    g = apply_lit(goals[0], sub)
    for f in facts:
        if f.pred != g.pred or len(f.args) != len(g.args):
            continue
        ext = match_lit(g, f, {})
        if ext is not None:
            merged = dict(sub)
            merged.update(ext)
            yield from _match_all(goals[1:], facts, merged)
