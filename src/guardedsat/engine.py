"""The selection-based resolution engine with the top-variable refinement.

Eligibility of literals is decided per clause:

* ground clauses use the ordering (maximal literals are eligible);
* a clause with a negative compound-term literal selects exactly one of
  them (the structurally smallest);
* a non-ground clause with positive compound-term literals uses the
  ordering;
* a non-ground flat clause selects all its negative literals and acts as a
  main premise only: to resolve it, side premises are found for *all* the
  selected literals at once, the simultaneous unifier is inspected, and
  only the literals binding maximally-deep variables (the top varials) are
  actually resolved.

:class:`ClauseIndex` computes these facts once per clause, when the clause
is added, as a :class:`ClauseRecord`; :func:`resolvents` and
:func:`factor` read the record.  The saturation loop and the tests reach
them through :func:`guardedsat.qans.inferences`.

The top-variable join is a backtracking search.  It fetches each
selected literal's side candidates once, visits the literals from the
fewest candidates up and extends one triangular unifier level by level,
on level-local copies of the non-ground side literals.  Once an argument
of a literal is ground under the unifier, the level tries only the
candidates with that argument there or a non-ground one; failing that,
once an argument is bound to a compound term, only the candidates with
its head symbol there or a variable (an index by argument, built on the
level's first such probe).  When a new clause must take part, the search
is seeded once at each literal where it can stand (semi-naive
evaluation).  The tuples found are sorted into clause-id order.

:func:`com_t_all` reads each tuple's top variables off the join's own
unifier.  A conclusion of rule 2b depends only on the top variables and
the sides of the top literals, so it keeps the first tuple of each such
key: only that one has its sides renamed apart and becomes a
:class:`TopVarResult`.  A later tuple with the same key would give a
variant conclusion, which insertion rejects; it still draws as many
fresh names as renaming its sides would, so the names of every later
conclusion stay as they were.

The index also maps each predicate to the clauses with a main literal on
it (:meth:`ClauseIndex.mains_on`), so a new side premise meets only the
mains it can resolve with, and each side literal's record lists the
literals it does not dominate a priori, the only ones the side condition
of rule 2b must re-check after unification.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from .orders import LPO, Cmp, comparisons, select_nc
from .qsep import is_icq
from .terms import (
    App, Clause, Const, Literal, Subst, Term, Var, apply_clause, apply_lit,
    clause_vars, is_ground, is_ground_term, lit_vars, mgu_lits, renaming,
    skip_names, unify_into,
)


# ---------------------------------------------------------------------------
# eligibility


def dispatch(c: Clause) -> str:
    """Which eligibility regime a clause falls under.

    ``"max"``: ordering decides (ground, or positive compound terms only);
    ``"select"``: one negative compound-term literal is selected;
    ``"topvar"``: non-ground flat clause, all negative literals selected.
    """
    if is_ground(c):
        return "max"
    has_neg_comp = any(not l.pos and any(isinstance(a, App) for a in l.args)
                       for l in c)
    if has_neg_comp:
        return "select"
    has_pos_comp = any(l.pos and any(isinstance(a, App) for a in l.args)
                       for l in c)
    if has_pos_comp:
        return "max"
    return "topvar"


@dataclass(frozen=True, slots=True)
class ClauseRecord:
    """What inference needs to know about a clause, computed once.

    ``regime`` is the :func:`dispatch` regime, or ``"icq"`` for an
    inseparable chained-only query clause.  ``main_literals`` are the
    selected literals: the selected compound-term literal, the maximal
    negative literals, or all negative literals of a flat non-ground
    clause.  ``maximal`` holds the maximal literals of a ``"max"`` clause
    (empty otherwise), which is all factoring needs; ``side_literals``
    are those on which the clause serves as a side premise.  ``rivals``
    holds, for each side literal, the positions in the clause of the other
    literals it does not strictly dominate a priori: the ordering is
    stable under substitution, so only those can outgrow it after
    unification.  ``n_vars`` counts the clause's variables, the names a
    renaming of it draws.
    """
    regime: str  # "max" | "select" | "topvar" | "icq"
    main_literals: tuple[Literal, ...]
    maximal: tuple[Literal, ...]
    side_literals: tuple[Literal, ...]
    rivals: tuple[tuple[int, ...], ...]
    n_vars: int


def clause_record(c: Clause, lpo: LPO) -> ClauseRecord:
    """The record of ``c``; :meth:`ClauseIndex.add` calls this once.

    A ``"max"`` clause compares each pair of its literals once
    (:func:`~guardedsat.orders.comparisons`).  A literal is maximal when
    no other literal beats it; a positive one is a side literal when none
    equals it either, and its rivals are the others it does not beat.
    Only a flat all-negative clause, which is ``"topvar"``, can be an ICQ.
    """
    d = dispatch(c)
    n_vars = len(clause_vars(c))
    if d == "select":
        sel = select_nc(c)
        return ClauseRecord(d, (sel,) if sel is not None else (), (), (), (),
                            n_vars)
    if d == "topvar":
        main = tuple(l for l in c if not l.pos)
        icq = len(main) == len(c) and is_icq(c)
        return ClauseRecord("icq" if icq else d, main, (), (), (), n_vars)
    maxlits, sides, rivals = [], [], []
    for i, (lit, row) in enumerate(
            zip(c.literals, comparisons(lpo, c.literals))):
        others = [(k, r) for k, r in enumerate(row) if k != i]
        if any(r is Cmp.LT for _, r in others):
            continue
        maxlits.append(lit)
        if lit.pos and all(r is not Cmp.EQ for _, r in others):
            sides.append(lit)
            rivals.append(tuple(k for k, r in others if r is not Cmp.GT))
    return ClauseRecord(d, tuple(l for l in maxlits if not l.pos),
                        tuple(maxlits), tuple(sides), tuple(rivals), n_vars)


# ---------------------------------------------------------------------------
# clause index


_entry_id = itemgetter(0)


class ClauseIndex:
    """Clauses with stable ids, their records, a positive-literal
    side-premise index, the main premises by predicate, and the supply
    of fresh variable numbers for renaming side premises apart."""

    def __init__(self, lpo: LPO) -> None:
        self.lpo = lpo
        self.fresh: Iterator[int] = itertools.count()
        self.by_id: dict[int, Clause] = {}
        self.records: dict[int, ClauseRecord] = {}
        # ids arrive in pick order; the id list, the side-index lists and
        # the main-index lists are kept in id order as they grow
        self._ids: list[int] = []
        self._side_index: dict[str, list[tuple[int, Literal]]] = {}
        self._main_index: dict[str, list[int]] = {}

    def add(self, cid: int, c: Clause) -> None:
        rec = clause_record(c, self.lpo)
        self.by_id[cid] = c
        self.records[cid] = rec
        insort(self._ids, cid)
        for lit in rec.side_literals:
            insort(self._side_index.setdefault(lit.pred, []), (cid, lit),
                   key=_entry_id)
        for pred in {l.pred for l in rec.main_literals}:
            insort(self._main_index.setdefault(pred, []), cid)

    def remove(self, cid: int) -> None:
        if self.by_id.pop(cid, None) is None:
            return
        rec = self.records.pop(cid)
        del self._ids[bisect_left(self._ids, cid)]
        for pred in {l.pred for l in rec.side_literals}:
            lst = self._side_index[pred]
            del lst[bisect_left(lst, cid, key=_entry_id):
                    bisect_right(lst, cid, key=_entry_id)]
        for pred in {l.pred for l in rec.main_literals}:
            ids = self._main_index[pred]
            del ids[bisect_left(ids, cid)]

    def mains_on(self, preds: set[str]) -> list[int]:
        """The ids, in id order, of the clauses with a main literal on one
        of ``preds``: no other clause can resolve against a side premise
        whose side literals use only ``preds``."""
        ids: set[int] = set()
        for pred in preds:
            ids.update(self._main_index.get(pred, ()))
        return sorted(ids)

    def side_candidates(self, pred: str) -> list[tuple[int, Clause, Literal]]:
        return [(cid, self.by_id[cid], lit)
                for cid, lit in self._side_index.get(pred, ())]

    def clauses(self) -> list[tuple[int, Clause]]:
        """The indexed clauses in id order."""
        return [(cid, self.by_id[cid]) for cid in self._ids]


# ---------------------------------------------------------------------------
# top-variable computation


@dataclass(frozen=True, slots=True)
class TopVarResult:
    top_vars: frozenset[str]
    top_literals: tuple[Literal, ...]
    # (main literal, side clause id, renamed side clause, renamed side literal)
    side_assignment: tuple[tuple[Literal, int, Clause, Literal], ...]
    # per assignment, the renamed literals of the side clause that the side
    # literal does not dominate a priori (``ClauseRecord.rivals``)
    rivals: tuple[tuple[Literal, ...], ...]


# (position in the literal's candidate list, side clause id, side clause,
#  side literal, side literal on this level's variable names)
_Candidate = tuple[int, int, Clause, Literal, Literal]


def _level_candidates(lit: Literal, n: ClauseIndex,
                      level: int) -> list[_Candidate]:
    """The side candidates of the selected literal ``lit``.  A non-ground
    side literal is copied onto variables named ``.<level>.<name>``: no
    other variable name starts with a dot, so the levels of the join share
    no variable with each other or with the main premise."""
    prefix = f".{level}."
    out = []
    for pos, (cid, side, pos_lit) in enumerate(n.side_candidates(lit.pred)):
        if len(pos_lit.args) != len(lit.args):
            continue
        vs = lit_vars(pos_lit)
        copy = apply_lit(pos_lit, {v: Var(prefix + v) for v in vs}) \
            if vs else pos_lit
        out.append((pos, cid, side, pos_lit, copy))
    return out


def _ground_image(t: Term, sub: Subst) -> Optional[Term]:
    """``t`` under the triangular unifier ``sub`` if that is ground, else
    ``None``."""
    while isinstance(t, Var):
        if t.name not in sub:
            return None
        t = sub[t.name]
    if isinstance(t, Const):
        return t
    args = []
    for a in t.args:
        g = _ground_image(a, sub)
        if g is None:
            return None
        args.append(g)
    return App(t.fn, tuple(args))


def _depth_under(t: Term, sub: Subst) -> int:
    """The depth of ``t`` under the triangular unifier ``sub``."""
    while isinstance(t, Var):
        if t.name not in sub:
            return 0
        t = sub[t.name]
    if isinstance(t, Const):
        return 0
    return 1 + max((_depth_under(a, sub) for a in t.args), default=0)


# the candidates of a level by what they hold at one argument position: by
# their ground argument there, those with a non-ground one there, by the
# head symbol (name, arity) of a compound argument there, and those with a
# variable there
_PositionIndex = tuple[dict[Term, list[_Candidate]], list[_Candidate],
                       dict[tuple[str, int], list[_Candidate]],
                       list[_Candidate]]


def _position_index(level: list[_Candidate], j: int) -> _PositionIndex:
    exact: dict[Term, list[_Candidate]] = {}
    wild: list[_Candidate] = []
    heads: dict[tuple[str, int], list[_Candidate]] = {}
    free: list[_Candidate] = []
    for cand in level:
        b = cand[4].args[j]
        if is_ground_term(b):
            exact.setdefault(b, []).append(cand)
        else:
            wild.append(cand)
        if isinstance(b, App):
            heads.setdefault((b.fn, len(b.args)), []).append(cand)
        elif isinstance(b, Var):
            free.append(cand)
    return exact, wild, heads, free


def _probed(level: list[_Candidate], args: Sequence[Term], sub: Subst,
            index: dict[int, _PositionIndex]) -> Optional[list[_Candidate]]:
    """The candidates of ``level`` that can still unify with a selected
    literal over ``args`` under ``sub``, found through the first argument
    that ``sub`` makes ground: the candidates with that very term there,
    then those with a non-ground one.  With no ground argument, through
    the first argument that ``sub`` binds to a compound term: the
    candidates with its head symbol there, then those with a variable
    there.  ``None`` when there is neither.  ``index`` is filled on the
    first probe of each position."""
    head = None
    for j, a in enumerate(args):
        t = _ground_image(a, sub)
        if t is not None:
            if j not in index:
                index[j] = _position_index(level, j)
            exact, wild, _, _ = index[j]
            return exact.get(t, []) + wild
        if head is None:
            while isinstance(a, Var) and a.name in sub:
                a = sub[a.name]
            if isinstance(a, App):
                head = j, (a.fn, len(a.args))
    if head is None:
        return None
    j, symbol = head
    if j not in index:
        index[j] = _position_index(level, j)
    _, _, heads, free = index[j]
    return heads.get(symbol, []) + free


# a join tuple: one candidate per selected literal, and the triangular
# unifier of the candidates' level copies with the selected literals
_JoinTuple = tuple[tuple[_Candidate, ...], Subst]


def _search(negs: Sequence[Literal], levels: list[list[_Candidate]],
            found: list[_JoinTuple]) -> None:
    """Append to ``found`` every tuple, one candidate per level, whose side
    literals unify with ``negs`` simultaneously, with its unifier.  Levels
    are visited from the fewest candidates up; each extends its own copy
    of the triangular unifier of the levels before it, trying only the
    candidates that :func:`_probed` lets through.  Candidates are tried
    out of their list order; the caller sorts what is found."""
    order = sorted(range(len(negs)), key=lambda i: len(levels[i]))
    _extend(0, {}, negs, levels, order, [None] * len(negs),
            [{} for _ in negs], found)


def _extend(k: int, sub: Subst, negs: Sequence[Literal],
            levels: list[list[_Candidate]], order: list[int], chosen: list,
            indexes: list[dict[int, _PositionIndex]],
            found: list[_JoinTuple]) -> None:
    """Extend the tuple ``chosen`` at the levels ``order[:k]``, unified by
    ``sub``, by a candidate at each level of ``order[k:]``."""
    if k == len(order):
        found.append((tuple(chosen), sub))
        return
    i = order[k]
    args = negs[i].args
    cands = _probed(levels[i], args, sub, indexes[i])
    for cand in levels[i] if cands is None else cands:
        sub2 = dict(sub)
        if unify_into(zip(cand[4].args, args), sub2) is None:
            chosen[i] = cand
            _extend(k + 1, sub2, negs, levels, order, chosen, indexes, found)


def _join(negs: Sequence[Literal], n: ClauseIndex,
          must_include: Optional[int]) -> list[_JoinTuple]:
    """All side-premise tuples simultaneously unifiable with the selected
    literals ``negs``, each with its unifier, in clause-id order
    (lexicographic by candidate position, literal by literal).

    With ``must_include``, only the tuples that use that clause: the join
    is seeded once at each level ``p`` where it can stand, with earlier
    levels excluding it and later levels open, so every such tuple is
    found exactly once (semi-naive evaluation).
    """
    levels = []
    for i, lit in enumerate(negs):
        levels.append(_level_candidates(lit, n, i))
        if not levels[-1]:
            return []
    found: list[_JoinTuple] = []
    if must_include is None:
        _search(negs, levels, found)
    else:
        for p, level in enumerate(levels):
            new = [c for c in level if c[1] == must_include]
            if new:
                _search(negs, [[c for c in lv if c[1] != must_include]
                               for lv in levels[:p]]
                        + [new] + levels[p + 1:], found)
    found.sort(key=lambda t: tuple(c[0] for c in t[0]))
    return found


def com_t_all(main: Clause, n: ClauseIndex,
              must_include: Optional[int] = None) -> Iterator[TopVarResult]:
    """The side-premise assignments for the selected literals of ``main``,
    one per distinct key: the top variables and, for each top literal,
    the side candidate it takes.  Each is the first join tuple of its key
    in clause-id order.

    The top variables are the variables of ``main`` that are deepest under
    the join's unifier.  The sides of a kept tuple are renamed apart from
    ``main``, so the join's own variable copies never reach a conclusion;
    a skipped tuple draws as many fresh names and drops them.
    """
    negs = [l for l in main if not l.pos]
    if not negs:
        return
    mvars = clause_vars(main)
    neg_vars = [lit_vars(l) for l in negs]
    seen: set[tuple] = set()
    for chosen, sub in _join(negs, n, must_include):
        depths = {v: _depth_under(Var(v), sub) for v in mvars}
        top_depth = max(depths.values(), default=0)
        top_vars = frozenset(v for v, d in depths.items()
                             if d == top_depth)
        top = [i for i, vs in enumerate(neg_vars) if vs & top_vars]
        key = (top_vars, tuple((i, chosen[i][0]) for i in top))
        if key in seen:
            for cand in chosen:
                skip_names(n.records[cand[1]].n_vars, mvars, n.fresh)
            continue
        seen.add(key)
        assignment = []
        rivals = []
        for lit, (_, cid, side, pos_lit, _) in zip(negs, chosen):
            # one renaming for the clause and its literals: the renamed
            # clause is re-sorted, so positions in ``side`` do not carry over
            ren = renaming(side, mvars, n.fresh)
            side_r = apply_clause(side, ren) if ren else side
            assignment.append((lit, cid, side_r, apply_lit(pos_lit, ren)))
            rec = n.records[cid]
            rivals.append(tuple(
                apply_lit(side.literals[k], ren)
                for k in rec.rivals[rec.side_literals.index(pos_lit)]))
        yield TopVarResult(top_vars, tuple(negs[i] for i in top),
                           tuple(assignment), tuple(rivals))


# ---------------------------------------------------------------------------
# inferences


@dataclass(frozen=True, slots=True)
class Inference:
    rule: str  # "Factor" | "TRes2a" | "TRes2b" | "SRes" | "PRes"
    main: int
    sides: tuple[int, ...]
    sigma: tuple[tuple[str, Term], ...]
    conclusion: Clause


def _freeze(sub: Subst) -> tuple[tuple[str, Term], ...]:
    return tuple(sorted(sub.items()))


def _remove_one(c: Clause, lit: Literal) -> list[Literal]:
    lits = list(c.literals)
    lits.remove(lit)
    return lits


def factor(cid: int, c: Clause, rec: ClauseRecord) -> list[Inference]:
    """Positive factoring on clauses with no selected literal."""
    if rec.regime != "max":
        return []
    out: list[Inference] = []
    pos = [l for l in c if l.pos]
    maxlits = set(rec.maximal)
    for i, a1 in enumerate(pos):
        if a1 not in maxlits:
            continue
        for a2 in pos[i + 1:]:
            sigma = mgu_lits([(a1, a2)])
            if sigma is None:
                continue
            rest = _remove_one(c, a2)
            concl = Clause(dict.fromkeys(
                apply_lit(l, sigma) for l in rest))
            out.append(Inference("Factor", cid, (), _freeze(sigma), concl))
    return out


def _binary_resolvents(main_id: int, main: Clause, neg: Literal,
                       n: ClauseIndex,
                       only_side: Optional[int] = None) -> list[Inference]:
    """Rule-2a resolution of ``neg`` in ``main`` against indexed sides."""
    out = []
    avoid = clause_vars(main)
    for cid, side, pos_lit in n.side_candidates(neg.pred):
        if only_side is not None and cid != only_side:
            continue
        if len(pos_lit.args) != len(neg.args):
            continue
        ren = renaming(side, avoid, n.fresh)
        side_r = apply_clause(side, ren) if ren else side
        pos_r = apply_lit(pos_lit, ren)
        sigma = mgu_lits([(pos_r, neg)])
        if sigma is None:
            continue
        lits = _remove_one(main, neg) + _remove_one(side_r, pos_r)
        concl = Clause(dict.fromkeys(apply_lit(l, sigma) for l in lits))
        out.append(Inference("TRes2a", main_id, (cid,), _freeze(sigma), concl))
    return out


def stays_strictly_maximal(lit: Literal, rivals: Sequence[Literal],
                           sigma: Subst, lpo: LPO) -> bool:
    """No literal of ``rivals`` is greater than ``lit`` after ``sigma``."""
    lit_s = apply_lit(lit, sigma)
    return all(lpo.compare_lits(apply_lit(other, sigma), lit_s)
               is not Cmp.GT for other in rivals)


def _topvar_resolvent(main_id: int, main: Clause, tv: TopVarResult,
                      lpo: LPO) -> Optional[Inference]:
    """Rule-2b: resolve exactly the top-variable literals of ``main``."""
    pairs = []
    side_ids = []
    extra: list[Literal] = []
    top = set(tv.top_literals)
    for (mlit, cid, side_r, pos_r) in tv.side_assignment:
        if mlit in top:
            pairs.append((pos_r, mlit))
            side_ids.append(cid)
            extra.extend(_remove_one(side_r, pos_r))
    sigma = mgu_lits(pairs)
    if sigma is None:
        return None
    # side condition: the resolved positive literals stay strictly maximal
    for (mlit, _, _, pos_r), rivals in zip(tv.side_assignment, tv.rivals):
        if mlit in top and \
                not stays_strictly_maximal(pos_r, rivals, sigma, lpo):
            return None
    rest = [l for l in main if l not in top or l.pos]
    # (multiset caveat: `in` over the sorted tuple is fine because query
    # literals are distinct after condensation)
    lits = [apply_lit(l, sigma) for l in rest] + \
           [apply_lit(l, sigma) for l in extra]
    concl = Clause(dict.fromkeys(lits))
    return Inference("TRes2b", main_id, tuple(side_ids), _freeze(sigma),
                     concl)


def resolvents(main_id: int, n: ClauseIndex,
               only_side: Optional[int]) -> list[Inference]:
    """Binary (rule 2a) or top-variable (rule 2b) resolvents of the
    indexed, non-ICQ clause ``main_id`` as the main premise; with
    ``only_side``, only those using that side premise."""
    main = n.by_id[main_id]
    rec = n.records[main_id]
    out: list[Inference] = []
    if rec.regime == "topvar":
        for tv in com_t_all(main, n, must_include=only_side):
            inf = _topvar_resolvent(main_id, main, tv, n.lpo)
            if inf is not None:
                out.append(inf)
    else:
        for neg in rec.main_literals:
            out.extend(_binary_resolvents(main_id, main, neg, n,
                                          only_side=only_side))
    return out


# ---------------------------------------------------------------------------
# redundancy


def is_tautology(c: Clause) -> bool:
    pos = {(l.pred, l.args) for l in c if l.pos}
    return any((l.pred, l.args) in pos for l in c if not l.pos)
