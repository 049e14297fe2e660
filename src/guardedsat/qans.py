"""The given-clause saturation loop deciding BCQ answering.

Input clauses are the clausified rules and facts (loosely guarded clauses)
plus the separated query clauses.  The loop keeps a *usable* set and a
*worked-off* set; each round picks a given clause (one oldest pick for
every four lightest picks, so old clauses cannot starve), moves it to
worked-off and computes every inference between it and worked-off with
:func:`inferences`, the one inference entry point (the tests call it
too).  It reads each worked-off clause's
:class:`~guardedsat.engine.ClauseRecord`, computed once when the clause
entered worked-off.  Usable keeps its ids in insertion order, which is
the oldest pick, and grouped by weight under a heap of the weights, which
is the lightest pick.

Top-variable resolution yields one conclusion per distinct assignment of
sides to the top literals (:func:`~guardedsat.engine.com_t_all`): the
join tuples that differ only in a side of a non-top literal would give
variants of that conclusion, which insertion would reject anyway.

Forward and backward subsumption look up the ground unit clauses of
usable and worked-off by their literal: a ground unit subsumes exactly
the clauses that contain its literal, and only a non-ground unit or the
empty clause can subsume it (an equal unit is caught going forward).
Every other kept clause is posted under the (sign, predicate) of each of
its literals, the empty clause under a key of its own.  A clause maps
into the clauses it subsumes literal by literal, keeping sign and
predicate, so only the empty clause and the kept clauses whose keys all
occur in a new clause are tested as its subsumers, and only the kept
clauses in the intersection of its keys' sets as clauses it subsumes.
Forward subsumption records nothing and a dropped clause no event, so
the order of those tests cannot be observed.

A ground unit being inserted, every fact and every derived ground fact,
takes a lane decided by its shape, one literal and no variable.  It is
condensed and no tautology as it stands.  It is redundant if its literal
is among the ground units, or if a non-ground unit matches it, or if the
empty clause is kept; otherwise it drops the other clauses that contain
its literal.  One scan of the clauses posted under its literal's key
decides both, by matching and tuple membership, with no subsumption
test; the key is its literal's :func:`~guardedsat.terms.lit_key`, read
without building the clause's buckets.  Its record comes from its sign
(:func:`~guardedsat.engine.clause_record`); as a given clause it has no
main literal and nothing to factor, and meets only the mains on its
predicate.

The loop records its trace as events, not text: one per kept clause
and one for the derived empty clause, each the clause's id, the rule
that made it (``"input"`` for an input), the ids of its premises (none
for an input) and the clause itself (:data:`Event`).  Nothing on the
solve path reads a trace line, so the lines are rendered only when
:attr:`SaturationState.trace` or :attr:`AnswerResult.trace` is read.

Inseparable chained-only query clauses take the special route: their
top-variable resolvent is immediately re-abstracted (T-Trans) and
re-separated, so only loosely guarded clauses and query clauses are ever
inserted.  The derivation of the empty clause means the query is entailed:
the loop records its event and stops at once, without inserting it,
so it does no backward simplification with it.  Only an empty *input*
clause is inserted, dropping every input before it and subsuming every
input after it, so that it is the first pick.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from typing import Collection, Optional

from .clausify import TransOutput, trans
from .engine import (
    ClauseIndex, Derivation, _binary_resolvents, factor, is_tautology,
    topvar_resolvents,
)
from .orders import LPO, Precedence
from .qic import q_ic_all
from .qsep import DefinitionRegistry, q_sep
from .syntax import Problem
from .terms import (
    App, Clause, Literal, Term, condense, is_ground, lit_key, match_lit,
    subsumes,
)


# the key of the empty clause, which holds no literal
_EMPTY = ()


def _keys(c: Clause) -> Collection[tuple]:
    """The keys under which ``others`` posts ``c``: the (sign, predicate,
    arity) of its literals, as :meth:`~guardedsat.terms.Clause.buckets`
    has them, that is their (sign, predicate), since a predicate has one
    arity; the empty clause's is :data:`_EMPTY`."""
    return c.buckets().keys() or (_EMPTY,)


def _term_weight(t: Term) -> int:
    if isinstance(t, App):
        return 1 + sum(_term_weight(a) for a in t.args)
    return 1


def clause_weight(c: Clause) -> int:
    """Number of symbol occurrences (predicates, functions, constants,
    variables); a literal with no compound argument, every fact, weighs
    its arity plus one."""
    w = 0
    for lit in c.literals:
        args = lit.args
        w += 1 + (sum(map(_term_weight, args)) if App in map(type, args)
                  else len(args))
    return w


# one trace line: the clause id, the rule that made the clause, the ids of
# its premises with the main premise first (none for an input), the clause
Event = tuple[int, str, tuple[int, ...], Clause]


def render(events: list[Event]) -> list[str]:
    """The trace lines of ``events``: ``[id] input clause`` for an input,
    ``[id] rule(parent,...) clause`` for a conclusion."""
    return [f"[{cid}] {rule}({','.join(map(str, parents))}) {c}" if parents
            else f"[{cid}] {rule} {c}" for cid, rule, parents, c in events]


@dataclass
class SaturationState:
    lpo: LPO
    registry: DefinitionRegistry
    step_budget: int = 10 ** 6
    seed: int = 0
    worked_off: ClauseIndex = field(init=False)
    # in insertion order, which is id order
    usable: dict[int, Clause] = field(default_factory=dict, init=False)
    # clause_weight of each usable clause, kept alongside ``usable``
    weights: dict[int, int] = field(default_factory=dict, init=False)
    events: list[Event] = field(default_factory=list, init=False)
    steps: int = field(default=0, init=False)
    next_id: int = field(default=1, init=False)
    picks: int = field(default=0, init=False)
    # the kept clauses of usable and worked-off (a pick only moves a clause
    # from one to the other): the ground units by (polarity, predicate),
    # each as literal -> id, and every other clause
    units_by_sig: dict[tuple[bool, str], dict[Literal, int]] = field(
        default_factory=dict, init=False)
    others: dict[int, Clause] = field(default_factory=dict, init=False)
    # the posting sets of ``others``: the ids of the clauses holding a
    # literal of each key of :func:`_keys`
    postings: dict[tuple, set[int]] = field(default_factory=dict, init=False)
    # the usable ids by weight, each list in id order, and a heap of the
    # weights; a weight whose list has emptied leaves the heap lazily
    by_weight: dict[int, list[int]] = field(default_factory=dict, init=False)
    lightest: list[int] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        self.worked_off = ClauseIndex(self.lpo)
        self.rng = random.Random(self.seed)

    @property
    def trace(self) -> list[str]:
        """The trace lines, rendered from the events."""
        return render(self.events)

    # -- insertion ---------------------------------------------------------

    def insert(self, c: Clause, rule: str,
               parents: tuple[int, ...] = ()) -> Optional[int]:
        """Forward-simplify and add a clause, made by ``rule`` from
        ``parents``, to usable; None if redundant."""
        if len(c) == 1 and is_ground(c):
            return self._insert_ground_unit(c, rule, parents)
        c = condense(c)
        if is_tautology(c):
            return None
        if any(l in self.units_by_sig.get((l.pos, l.pred), ()) for l in c):
            return None
        others, postings = self.others, self.postings
        keys = _keys(c)
        size = len(c.literals)
        posted = [postings.get(key, ()) for key in keys] if size else []
        # forward: only the empty clause and the clauses whose keys all
        # occur among the new clause's can subsume it
        hits: dict[int, int] = {}
        for ids in (postings.get(_EMPTY, ()), *posted):
            for cid in ids:
                hits[cid] = hits.get(cid, 0) + 1
        for cid, n in hits.items():
            d = others[cid]
            if (n == len(_keys(d)) and len(d.literals) <= size
                    and subsumes(d, c)):
                return None
        # backward simplification: drop the clauses the new one subsumes,
        # which hold every key of it, in id order
        if not size:
            cands = list(others)
        elif all(posted):
            cands = sorted(set.intersection(*posted))
        else:
            cands = []
        for cid in cands:
            d = others[cid]
            if size <= len(d.literals) and subsumes(c, d):
                self._drop(cid)
        if c.is_empty():  # subsumes every ground unit
            units = [cid for us in self.units_by_sig.values()
                     for cid in us.values()]
        elif len(c) == 1:
            # one unit subsumes another iff its literal matches the other's
            (lit,) = c
            units = [cid for u, cid in self.units_by_sig.get(
                (lit.pos, lit.pred), {}).items()
                if match_lit(lit, u, {}) is not None]
        else:
            units = []
        for cid in units:
            self._drop(cid)
        cid = self._add(c, rule, parents)
        others[cid] = c
        for key in keys:
            postings.setdefault(key, set()).add(cid)
        return cid

    def _insert_ground_unit(self, c: Clause, rule: str,
                            parents: tuple[int, ...]) -> Optional[int]:
        """:meth:`insert` for a clause of one ground literal, decided by
        lookup and one scan of the clauses posted under its key: it is
        condensed and no tautology; an equal unit, a non-ground unit
        matching it or the empty clause subsumes it, and it subsumes
        exactly the clauses that contain its literal, never a unit."""
        (lit,) = c
        units = self.units_by_sig.get((lit.pos, lit.pred))
        if (units is not None and lit in units) or _EMPTY in self.postings:
            return None
        dropped = []
        for cid in self.postings.get(lit_key(lit), ()):
            lits = self.others[cid].literals
            if len(lits) > 1:
                if lit in lits:
                    dropped.append(cid)
            elif match_lit(lits[0], lit, {}) is not None:
                return None
        for cid in sorted(dropped):
            self._drop(cid)
        cid = self._add(c, rule, parents)
        if units is None:
            units = self.units_by_sig[(lit.pos, lit.pred)] = {}
        units[lit] = cid
        return cid

    def _add(self, c: Clause, rule: str, parents: tuple[int, ...]) -> int:
        """Give the kept clause ``c`` the next id, add it to usable and
        record its event."""
        cid = self.next_id
        self.next_id += 1
        self._add_usable(cid, c)
        self.events.append((cid, rule, parents, c))
        return cid

    def _drop(self, cid: int) -> None:
        """Remove the backward-subsumed clause with id ``cid`` from usable
        or worked-off."""
        if cid in self.usable:
            c = self._remove_usable(cid)
        else:
            c = self.worked_off.by_id[cid]
            self.worked_off.remove(cid)
        if cid in self.others:
            self._forget(cid)
        else:
            (lit,) = c
            units = self.units_by_sig[(lit.pos, lit.pred)]
            del units[lit]
            if not units:
                del self.units_by_sig[(lit.pos, lit.pred)]

    def _forget(self, cid: int) -> None:
        """Remove the clause with id ``cid`` from ``others`` and its
        posting sets."""
        for key in _keys(self.others.pop(cid)):
            ids = self.postings[key]
            ids.remove(cid)
            if not ids:
                del self.postings[key]

    # -- usable ------------------------------------------------------------

    def _add_usable(self, cid: int, c: Clause) -> None:
        """Add ``c`` to usable; ``cid`` must exceed every id there."""
        self.usable[cid] = c
        w = self.weights[cid] = clause_weight(c)
        ids = self.by_weight.get(w)
        if ids is None:
            ids = self.by_weight[w] = []
            heappush(self.lightest, w)
        ids.append(cid)

    def _remove_usable(self, cid: int) -> Clause:
        w = self.weights.pop(cid)
        ids = self.by_weight[w]
        del ids[bisect_left(ids, cid)]
        if not ids:
            del self.by_weight[w]
        return self.usable.pop(cid)

    def pick(self) -> tuple[int, Clause]:
        """1-in-5 oldest, otherwise lightest (ties broken by the seeded
        RNG for determinism under a fixed seed)."""
        self.picks += 1
        if self.picks % 5 == 1:
            cid = next(iter(self.usable))
        else:
            while self.lightest[0] not in self.by_weight:
                heappop(self.lightest)
            ties = self.by_weight[self.lightest[0]]
            cid = ties[self.rng.randrange(len(ties))] if len(ties) > 1 \
                else ties[0]
        return cid, self._remove_usable(cid)


@dataclass
class AnswerResult:
    verdict: str  # "yes" | "no" | "unknown"
    events: list[Event]
    steps: int
    n_clauses: int
    registry_size: int

    @property
    def trace(self) -> list[str]:
        """The trace lines, rendered from the events."""
        return render(self.events)


def saturate(state: SaturationState) -> str:
    """Run the loop to saturation or the empty clause."""
    while state.usable:
        if state.steps >= state.step_budget:
            return "unknown"
        state.steps += 1
        given_id, given = state.pick()
        if given.is_empty():
            state._forget(given_id)
            return "yes"
        state.worked_off.add(given_id, given)
        for rule, parents, conclusions in inferences(
                state.worked_off, state.registry, given_id):
            for concl in conclusions:
                if concl.is_empty():
                    # nothing in the state subsumes it: an empty clause
                    # there would have been picked first
                    state.events.append((state.next_id, rule, parents, concl))
                    state.next_id += 1
                    return "yes"
                state.insert(concl, rule, parents)
    return "no"


def inferences(n: ClauseIndex, registry: DefinitionRegistry,
               given_id: int) -> list[Derivation]:
    """Every inference between the indexed clause ``given_id`` and the
    clauses of ``n``, in the order the loop inserts their conclusions.

    The given clause is first the main premise (:func:`_as_main`), then
    factored.  If it has side literals, it is then the side premise of
    every other indexed clause as a main premise, in id order; only the
    clauses with a main literal on a predicate of those side literals can
    take it (:meth:`~guardedsat.engine.ClauseIndex.mains_on`).  A clause
    with no main literal is no main premise, and only a ``"max"`` clause
    with two positive literals or more can be factored: a fact skips both
    passes.
    """
    rec = n.records[given_id]
    out = _as_main(n, registry, given_id, None) if rec.main_literals else []
    c = n.by_id[given_id]
    if len(c) > 1 and rec.regime == "max" and sum(l.pos for l in c) > 1:
        out.extend(factor(given_id, c, n.lpo))
    if rec.side_literals:
        for cid in n.mains_on(rec.side_literals):
            if cid != given_id:
                out.extend(_as_main(n, registry, cid, given_id))
    return out


def _as_main(n: ClauseIndex, registry: DefinitionRegistry, main_id: int,
             only_side: Optional[int]) -> list[Derivation]:
    """The inferences of the indexed clause ``main_id`` as the main
    premise, by the rule its regime takes: an ICQ clause through T-Res,
    T-Trans and Q-Sep (rule ``QIC``, definers from ``registry``), a
    ``"topvar"`` clause through top-variable resolution (rule 2b), any
    other through binary resolution of each main literal (rule 2a); with
    ``only_side``, only those using that side premise."""
    rec = n.records[main_id]
    if rec.regime == "icq":
        return [("QIC", r.parents, tuple(r.lg_clauses + r.guarded + r.icq))
                for r in q_ic_all(main_id, n, registry,
                                  must_include=only_side)]
    if rec.regime == "topvar":
        return topvar_resolvents(main_id, n, only_side)
    main = n.by_id[main_id]
    return [d for neg in rec.main_literals
            for d in _binary_resolvents(main_id, main, neg, n, only_side)]


def answer(problem: Problem, step_budget: int = 10 ** 6,
           seed: int = 0) -> AnswerResult:
    """Decide whether the rules and facts entail the union of BCQs."""
    result, _ = run(problem, step_budget=step_budget, seed=seed)
    return result


def run(problem: Problem, step_budget: int = 10 ** 6,
        seed: int = 0) -> tuple[AnswerResult, SaturationState]:
    """Like answer(), but also hands back the final saturation state (the
    worked-off set is the saturated clausal set when the verdict is
    "no").  The caller's ``problem`` is left as it was: the Skolem and
    definer symbols are declared into a copy of its symbol table."""
    problem = replace(problem, symbols=problem.symbols.copy())
    symbols = problem.symbols
    out: TransOutput = trans(problem)
    registry = DefinitionRegistry(symbols)
    lpo = LPO(Precedence(symbols))
    state = SaturationState(lpo=lpo, registry=registry,
                            step_budget=step_budget, seed=seed)
    # ground unit facts first, then the remaining rule clauses; an empty
    # input clause drops the inputs before it, so it is the first pick
    facts: list[Clause] = []
    rest: list[Clause] = []
    for c in out.lg_clauses:
        (facts if len(c) == 1 and is_ground(c) else rest).append(c)
    for c in facts + rest:
        state.insert(c, "input")
    for q in out.query_clauses:
        sep = q_sep(q, registry)
        for c in sep.guarded + sep.icq:
            state.insert(c, "input")
    verdict = saturate(state)
    result = AnswerResult(
        verdict=verdict,
        events=state.events,
        steps=state.steps,
        n_clauses=state.next_id - 1,
        registry_size=len(registry),
    )
    return result, state
