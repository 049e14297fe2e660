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
them through :func:`guardedsat.qans.inferences`.  ``s_res`` and ``p_res``
are reference implementations used by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .orders import LPO, Cmp, maximal, select_nc
from .qsep import is_icq
from .terms import (
    App, Clause, Literal, Subst, Term, Var, apply_lit, apply_term,
    clause_vars, is_ground, lit_vars, mgu_lits, rename_apart, term_depth,
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


def side_literals(c: Clause, lpo: LPO) -> tuple[Literal, ...]:
    """Positive literals on which ``c`` may serve as a side premise.

    Flat non-ground clauses never do; otherwise the strictly maximal
    positive literals of an unselected clause qualify.
    """
    d = dispatch(c)
    if d == "select":
        return ()
    if d == "topvar" and not is_ground(c):
        return ()
    return tuple(l for l in maximal(lpo, c, strict=True) if l.pos)


@dataclass(frozen=True, slots=True)
class ClauseRecord:
    """What inference needs to know about a clause, computed once.

    ``regime`` is the :func:`dispatch` regime, or ``"icq"`` for an
    inseparable chained-only query clause.  ``main_literals`` are the
    selected literals: the selected compound-term literal, the maximal
    negative literals, or all negative literals of a flat non-ground
    clause.  ``maximal`` holds the maximal literals of a ``"max"`` clause
    (empty otherwise), which is all factoring needs; ``side_literals``
    are those on which the clause serves as a side premise.
    """
    regime: str  # "max" | "select" | "topvar" | "icq"
    main_literals: tuple[Literal, ...]
    maximal: tuple[Literal, ...]
    side_literals: tuple[Literal, ...]


def clause_record(c: Clause, lpo: LPO) -> ClauseRecord:
    """The record of ``c``; :meth:`ClauseIndex.add` calls this once."""
    d = dispatch(c)
    maxlits: tuple[Literal, ...] = ()
    if d == "max":
        maxlits = tuple(maximal(lpo, c))
        main = tuple(l for l in maxlits if not l.pos)
    elif d == "select":
        sel = select_nc(c)
        main = (sel,) if sel is not None else ()
    else:
        main = tuple(l for l in c if not l.pos)
    return ClauseRecord("icq" if is_icq(c) else d, main, maxlits,
                        side_literals(c, lpo))


# ---------------------------------------------------------------------------
# clause index


class ClauseIndex:
    """Clauses with stable ids, their records and a positive-literal
    side-premise index."""

    def __init__(self, lpo: LPO) -> None:
        self.lpo = lpo
        self.by_id: dict[int, Clause] = {}
        self.records: dict[int, ClauseRecord] = {}
        self._side_index: dict[str, list[tuple[int, Literal]]] = {}

    def add(self, cid: int, c: Clause) -> None:
        rec = clause_record(c, self.lpo)
        self.by_id[cid] = c
        self.records[cid] = rec
        for lit in rec.side_literals:
            self._side_index.setdefault(lit.pred, []).append((cid, lit))
            self._side_index[lit.pred].sort(key=lambda e: e[0])

    def remove(self, cid: int) -> None:
        if self.by_id.pop(cid, None) is None:
            return
        for pred in {l.pred for l in self.records.pop(cid).side_literals}:
            lst = self._side_index[pred]
            lst[:] = [(i, l) for (i, l) in lst if i != cid]

    def side_candidates(self, pred: str) -> list[tuple[int, Clause, Literal]]:
        return [(cid, self.by_id[cid], lit)
                for cid, lit in self._side_index.get(pred, ())
                if cid in self.by_id]

    def clauses(self) -> list[tuple[int, Clause]]:
        return sorted(self.by_id.items())


# ---------------------------------------------------------------------------
# top-variable computation


@dataclass(frozen=True, slots=True)
class TopVarResult:
    sres_mgu: Subst
    top_vars: frozenset[str]
    top_literals: tuple[Literal, ...]
    # (main literal, side clause id, renamed side clause, renamed side literal)
    side_assignment: tuple[tuple[Literal, int, Clause, Literal], ...]


def _iter_assignments(
        negs: Sequence[Literal], n: ClauseIndex, avoid: set[str],
        must_include: Optional[int],
) -> Iterator[tuple[list[tuple[Literal, int, Clause, Literal]], Subst]]:
    """All side-premise tuples (in clause-id order) simultaneously
    unifiable with all the selected literals."""
    chosen: list[tuple[Literal, int, Clause, Literal]] = []

    def extend(i: int, pairs: list[tuple[Literal, Literal]],
               used_must: bool):
        if i == len(negs):
            if must_include is not None and not used_must:
                return
            sigma = mgu_lits(pairs)
            if sigma is not None:
                yield list(chosen), sigma
            return
        lit = negs[i]
        for cid, side, pos_lit in n.side_candidates(lit.pred):
            if len(pos_lit.args) != len(lit.args):
                continue
            side_r = rename_apart(side, avoid)
            # recover the renamed positive literal by position
            idx = side.literals.index(pos_lit)
            pos_r = side_r.literals[idx]
            new_pairs = pairs + [(pos_r, lit)]
            if mgu_lits(new_pairs) is None:
                continue
            chosen.append((lit, cid, side_r, pos_r))
            yield from extend(i + 1, new_pairs,
                              used_must or cid == must_include)
            chosen.pop()

    yield from extend(0, [], must_include is None)


def com_t(main: Clause, lpo: LPO, n: ClauseIndex,
          must_include: Optional[int] = None) -> Optional[TopVarResult]:
    """Compute the prospective simultaneous unifier and the top variables.

    Returns ``None`` when no side premises exist for the selected literals
    of ``main`` (the clause then stays passive).
    """
    for tv in com_t_all(main, lpo, n, must_include=must_include):
        return tv
    return None


def com_t_all(main: Clause, lpo: LPO, n: ClauseIndex,
              must_include: Optional[int] = None) -> Iterator[TopVarResult]:
    """All side-premise assignments for the selected literals of ``main``,
    each with its simultaneous unifier and top variables."""
    negs = [l for l in main if not l.pos]
    if not negs:
        return
    avoid = set(clause_vars(main))
    mvars = clause_vars(main)
    for chosen, sigma in _iter_assignments(negs, n, avoid, must_include):
        depths = {v: term_depth(apply_term(Var(v), sigma)) for v in mvars}
        top_depth = max(depths.values(), default=0)
        top_vars = frozenset(v for v, d in depths.items()
                             if d == top_depth)
        top_literals = tuple(l for l in negs if lit_vars(l) & top_vars)
        yield TopVarResult(sigma, top_vars, top_literals, tuple(chosen))


# ---------------------------------------------------------------------------
# inferences


@dataclass(frozen=True, slots=True)
class Inference:
    rule: str  # "Factor" | "TRes2a" | "TRes2b" | "SRes" | "PRes"
    main: int
    sides: tuple[int, ...]
    sigma: tuple[tuple[str, Term], ...]
    conclusion: Clause
    sres_mgu: tuple[tuple[str, Term], ...] = ()


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
    avoid = set(clause_vars(main))
    for cid, side, pos_lit in n.side_candidates(neg.pred):
        if only_side is not None and cid != only_side:
            continue
        if len(pos_lit.args) != len(neg.args):
            continue
        side_r = rename_apart(side, avoid)
        pos_r = side_r.literals[side.literals.index(pos_lit)]
        sigma = mgu_lits([(pos_r, neg)])
        if sigma is None:
            continue
        lits = _remove_one(main, neg) + _remove_one(side_r, pos_r)
        concl = Clause(dict.fromkeys(apply_lit(l, sigma) for l in lits))
        out.append(Inference("TRes2a", main_id, (cid,), _freeze(sigma), concl))
    return out


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
    for (mlit, cid, side_r, pos_r) in tv.side_assignment:
        if mlit not in top:
            continue
        pos_s = apply_lit(pos_r, sigma)
        for other in side_r:
            if other is pos_r:
                continue
            if lpo.compare_lits(apply_lit(other, sigma), pos_s) is Cmp.GT:
                return None
    rest = [l for l in main if l not in top or l.pos]
    # (multiset caveat: `in` over the sorted tuple is fine because query
    # literals are distinct after condensation)
    lits = [apply_lit(l, sigma) for l in rest] + \
           [apply_lit(l, sigma) for l in extra]
    concl = Clause(dict.fromkeys(lits))
    return Inference("TRes2b", main_id, tuple(side_ids), _freeze(sigma),
                     concl, sres_mgu=_freeze(tv.sres_mgu))


def resolvents(main_id: int, n: ClauseIndex,
               only_side: Optional[int]) -> list[Inference]:
    """Binary (rule 2a) or top-variable (rule 2b) resolvents of the
    indexed, non-ICQ clause ``main_id`` as the main premise; with
    ``only_side``, only those using that side premise."""
    main = n.by_id[main_id]
    rec = n.records[main_id]
    out: list[Inference] = []
    if rec.regime == "topvar":
        for tv in com_t_all(main, n.lpo, n, must_include=only_side):
            inf = _topvar_resolvent(main_id, main, tv, n.lpo)
            if inf is not None:
                out.append(inf)
    else:
        for neg in rec.main_literals:
            out.extend(_binary_resolvents(main_id, main, neg, n,
                                          only_side=only_side))
    return out


# ---------------------------------------------------------------------------
# reference rules for the test suite


def s_res(main_id: int, main: Clause, n: ClauseIndex) -> list[Inference]:
    """Full simultaneous resolution: resolve *all* selected literals."""
    negs = [l for l in main if not l.pos]
    tvr = com_t(main, n.lpo, n)
    if tvr is None:
        return []
    sigma = tvr.sres_mgu
    lits = [l for l in main if l.pos]
    side_ids = []
    for (mlit, cid, side_r, pos_r) in tvr.side_assignment:
        side_ids.append(cid)
        lits.extend(_remove_one(side_r, pos_r))
    concl = Clause(dict.fromkeys(apply_lit(l, sigma) for l in lits))
    del negs
    return [Inference("SRes", main_id, tuple(side_ids), _freeze(sigma),
                      concl, sres_mgu=_freeze(sigma))]


def p_res(main_id: int, main: Clause, n: ClauseIndex,
          subset: Sequence[Literal]) -> list[Inference]:
    """Partial resolution: resolve a chosen subset of the selected
    literals, provided the full simultaneous unifier exists."""
    tvr = com_t(main, n.lpo, n)
    if tvr is None:
        return []
    pairs = []
    side_ids = []
    extra: list[Literal] = []
    chosen = set(subset)
    for (mlit, cid, side_r, pos_r) in tvr.side_assignment:
        if mlit in chosen:
            pairs.append((pos_r, mlit))
            side_ids.append(cid)
            extra.extend(_remove_one(side_r, pos_r))
    sigma = mgu_lits(pairs)
    if sigma is None:
        return []
    rest = [l for l in main if l not in chosen or l.pos]
    concl = Clause(dict.fromkeys(
        apply_lit(l, sigma) for l in rest + extra))
    return [Inference("PRes", main_id, tuple(side_ids), _freeze(sigma),
                      concl, sres_mgu=_freeze(tvr.sres_mgu))]


# ---------------------------------------------------------------------------
# redundancy


def is_tautology(c: Clause) -> bool:
    pos = {(l.pred, l.args) for l in c if l.pos}
    return any((l.pred, l.args) in pos for l in c if not l.pos)
