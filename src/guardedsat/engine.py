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
is added, as a :class:`ClauseRecord`.  Each rule returns the
:data:`Derivation` the loop records: :func:`_binary_resolvents` (rule
2a), :func:`topvar_resolvents` (rule 2b) and :func:`factor`.  One place,
``qans._as_main``, picks the rule for a main premise by its regime; the
saturation loop and the tests reach the rules through
:func:`guardedsat.qans.inferences`.

The index keeps the side literals of each predicate in one list in
clause-id order (a predicate has one arity: ``SymbolTable.declare``
rejects a second); the ground ones also by their argument tuple,
the non-ground ones apart, and of those the ones with no compound
argument.  Per argument position it indexes them by ground term,
non-ground term, head symbol and variable; a position's index is built
on its first probe and kept up by ``add`` and ``remove``.  ``add``
appends a side literal to a list where it sorts last, as one of a clause
picked after every clause there does, and insorts it otherwise.  The
top-variable join is a backtracking search over it that extends one
triangular unifier level by level, always at the most constrained level
under the current unifier: the open level whose probe holds the fewest
candidates.  A probe reads the first argument of the selected literal
that the unifier makes ground: the candidates with that term there, and
those with a variable there if it is a constant (a compound term cannot
unify with a constant), else those with a non-ground term there.
Failing that it reads the first argument bound to a compound term: the
candidates with its head symbol there or a variable.  At the closing
level, the last one open, a probe whose every argument the unifier makes
ground looks the image up instead: the ground side literals with that
argument tuple unify binding nothing and are taken as they are, and only
the non-ground ones are tried, just those with no compound argument when
every argument is a constant.  A closing-level candidate whose arguments
are all constants is matched against the unifier, binding variables to
constants aside, or taken unmatched when the unifier leaves the
selected literal's arguments distinct free variables; any other
candidate is unified with a copy of the unifier.  The candidates taken
as they are or matched share the unifier object and leave every depth
as it is, so the top variables are worked out once for all of them.
When the closing literal holds none, the tuples they complete differ
only in a side of a non-top literal, so they share a key and only the
first in key order can be kept: the join emits that one alone.  Every
other tuple is a row of its own.  A non-ground side literal is
copied onto a level's variables when the level first tries it, and the
copy is kept.  When a new clause must take part, the search is seeded
once at each literal where it can stand with that clause's own side
literals (semi-naive evaluation).  The rows found are sorted into
clause-id order of their tuples.

A conclusion of rule 2b depends only on the top variables and the sides
of the top literals, so :func:`com_t_all` keeps the first tuple of each
such key.  A kept tuple has its top sides renamed apart and becomes a
:class:`TopVarResult`.  Fresh names are drawn from
:attr:`ClauseIndex.fresh` only for a clause that is renamed: the top
sides of a kept tuple, level by level, tuple after tuple, and each side
of rule 2a.  Clauses are equal up to renaming, so no name is drawn for
a side or a tuple that no conclusion carries.

A :class:`TopVarResult` holds the top variables and literals and, for
each top literal, its side: the clause id, the side clause's literals
renamed one by one in the clause's own order, with no sorted clause
built, the renamed side literal and its renamed rivals, both read by
position.  :func:`_topvar_resolvent` sorts its conclusion anyway, and
checks the side condition only on a side with rivals;
:func:`~guardedsat.qic.t_trans`, which reads the order, sorts by
:func:`~guardedsat.terms.literal_key`.

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
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .orders import LPO, Cmp, comparisons, maximal, select_nc
from .qsep import is_icq
from .terms import (
    App, Clause, Const, Literal, Subst, Term, Var, apply_lit,
    clause_vars, is_ground, is_ground_lit, is_ground_term, lit_vars,
    mgu_lits, renaming, unify_into,
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


@dataclass(slots=True)
class ClauseRecord:
    """What inference needs to know about a clause, computed once; not
    frozen, so that building one costs plain attribute stores.

    ``regime`` is the :func:`dispatch` regime, or ``"icq"`` for an
    inseparable chained-only query clause.  ``main_literals`` are the
    selected literals: the selected compound-term literal, the maximal
    negative literals, or all negative literals of a flat non-ground
    clause.  ``side_literals`` are those on which the clause serves as a
    side premise.  ``rivals`` holds, for each side literal, the positions
    in the clause of the other literals it does not strictly dominate a
    priori: the ordering is stable under substitution, so only those can
    outgrow it after unification.
    """
    regime: str  # "max" | "select" | "topvar" | "icq"
    main_literals: tuple[Literal, ...]
    side_literals: tuple[Literal, ...]
    rivals: tuple[tuple[int, ...], ...]


def clause_record(c: Clause, lpo: LPO) -> ClauseRecord:
    """The record of ``c``; :meth:`ClauseIndex.add` calls this once.

    A ``"max"`` clause compares each pair of its literals once
    (:func:`~guardedsat.orders.comparisons`).  A literal is maximal when
    no other literal beats it; a positive one is a side literal when none
    equals it either, and its rivals are the others it does not beat.
    Only a flat all-negative clause, which is ``"topvar"``, can be an ICQ.

    A ground unit, every fact, gets its record from its sign alone, as
    the definitions give it for one literal with no variable: it is
    ``"max"``, a positive one is a side literal with no rivals, a negative
    one a main literal.
    """
    if len(c) == 1 and is_ground(c):
        (lit,) = c
        if lit.pos:
            return ClauseRecord("max", (), (lit,), ((),))
        return ClauseRecord("max", (lit,), (), ())
    d = dispatch(c)
    if d == "select":
        sel = select_nc(c)
        return ClauseRecord(d, (sel,) if sel is not None else (), (), ())
    if d == "topvar":
        main = tuple(l for l in c if not l.pos)
        icq = len(main) == len(c) and is_icq(c)
        return ClauseRecord("icq" if icq else d, main, (), ())
    mains, sides, rivals = [], [], []
    for i, (lit, row) in enumerate(
            zip(c.literals, comparisons(lpo, c.literals))):
        others = [(k, r) for k, r in enumerate(row) if k != i]
        if any(r is Cmp.LT for _, r in others):
            continue
        if not lit.pos:
            mains.append(lit)
        elif all(r is not Cmp.EQ for _, r in others):
            sides.append(lit)
            rivals.append(tuple(k for k, r in others if r is not Cmp.GT))
    return ClauseRecord(d, tuple(mains), tuple(sides), tuple(rivals))


# ---------------------------------------------------------------------------
# clause index


class _Side:
    """The ``k``-th side literal ``lit`` of the indexed clause ``cid``,
    with its copies onto the variables of join levels, each made when the
    level first tries it.  A copy at level ``i`` renames every variable
    ``v`` to ``.<i>.v``: no other variable name starts with a dot, so the
    levels of a join share no variable with each other or with the main
    premise.  ``copies`` is ``None`` for a ground literal, its own copy.
    ``constants`` says whether every argument is a constant.  ``pos`` is
    the literal's position in the clause."""
    __slots__ = ("key", "cid", "clause", "lit", "copies", "constants",
                 "pos")

    def __init__(self, cid: int, k: int, clause: Clause, lit: Literal):
        self.key = (cid, k)
        self.cid = cid
        self.clause = clause
        self.lit = lit
        self.copies: Optional[dict[int, Literal]] = \
            None if is_ground_lit(lit) else {}
        self.constants = all(isinstance(a, Const) for a in lit.args)
        self.pos = clause.literals.index(lit)

    def at(self, level: int) -> Literal:
        """The side literal on the variables of join level ``level``."""
        copies = self.copies
        if copies is None:
            return self.lit
        copy = copies.get(level)
        if copy is None:
            prefix = f".{level}."
            copy = copies[level] = apply_lit(
                self.lit, {v: Var(prefix + v) for v in lit_vars(self.lit)})
        return copy


_key = attrgetter("key")
_cid = attrgetter("cid")

# the side literals of a list by what they hold at one argument position:
# by their ground argument there, those with a non-ground one there, by
# the head symbol (name, arity) of a compound argument there, and those
# with a variable there; each bucket in key order
_PositionIndex = tuple[dict[Term, list[_Side]], list[_Side],
                       dict[tuple[str, int], list[_Side]], list[_Side]]


def _buckets(index: _PositionIndex, t: Term) -> list[list[_Side]]:
    """The buckets of ``index`` that hold a side literal with ``t`` at the
    index's position, made if missing."""
    exact, wild, heads, free = index
    out = [exact.setdefault(t, []) if is_ground_term(t) else wild]
    if isinstance(t, App):
        out.append(heads.setdefault((t.fn, len(t.args)), []))
    elif isinstance(t, Var):
        out.append(free)
    return out


class _SideList:
    """The side literals on one predicate in key order, (clause
    id, position among the clause's side literals); the ground ones by
    their argument tuple, the non-ground ones, and those of the non-ground
    ones with no compound argument, each in key order; and for each
    argument position probed so far the same literals by what they hold
    there (:data:`_PositionIndex`), built on the first probe and kept
    since."""
    __slots__ = ("entries", "ground", "nonground", "flat", "positions")

    def __init__(self) -> None:
        self.entries: list[_Side] = []
        self.ground: dict[tuple[Term, ...], list[_Side]] = {}
        self.nonground: list[_Side] = []
        self.flat: list[_Side] = []
        self.positions: dict[int, _PositionIndex] = {}

    def _lists(self, side: _Side) -> list[list[_Side]]:
        """The lists that hold ``side``, made if missing."""
        args = side.lit.args
        if side.copies is None:
            lists = [self.entries, self.ground.setdefault(args, [])]
        elif App in map(type, args):
            lists = [self.entries, self.nonground]
        else:
            lists = [self.entries, self.nonground, self.flat]
        for j, index in self.positions.items():
            lists += _buckets(index, args[j])
        return lists

    def add(self, side: _Side) -> None:
        """Put ``side`` into each list that holds it, appending it where
        it sorts last."""
        for lst in self._lists(side):
            if lst and lst[-1].key > side.key:
                insort(lst, side, key=_key)
            else:
                lst.append(side)

    def remove(self, cid: int) -> None:
        entries = self.entries
        for side in entries[bisect_left(entries, cid, key=_cid):
                            bisect_right(entries, cid, key=_cid)]:
            for lst in self._lists(side):
                del lst[bisect_left(lst, side.key, key=_key)]
            args = side.lit.args
            if side.copies is None and not self.ground[args]:
                del self.ground[args]
            for j, (exact, _, heads, _) in self.positions.items():
                t = args[j]
                if is_ground_term(t) and not exact[t]:
                    del exact[t]
                if isinstance(t, App) and not heads[t.fn, len(t.args)]:
                    del heads[t.fn, len(t.args)]

    def position(self, j: int) -> _PositionIndex:
        index = self.positions.get(j)
        if index is None:
            index = self.positions[j] = ({}, [], {}, [])
            for side in self.entries:
                for bucket in _buckets(index, side.lit.args[j]):
                    bucket.append(side)
        return index


class ClauseIndex:
    """Clauses with stable ids, their records, the side literals by
    predicate (:class:`_SideList`), the main premises by predicate, and
    the supply of fresh variable numbers for renaming side premises apart.

    The side lists are keyed by predicate alone: ``SymbolTable.declare``
    gives a predicate one arity, so every literal on it has that arity,
    and a side literal on a selected literal's predicate has as many
    arguments as the selected literal."""

    def __init__(self, lpo: LPO) -> None:
        self.lpo = lpo
        self.fresh: Iterator[int] = itertools.count()
        self.by_id: dict[int, Clause] = {}
        self.records: dict[int, ClauseRecord] = {}
        # ids arrive in pick order; the side lists and the main-index lists
        # are kept in id order as they grow
        self._sides: dict[str, _SideList] = {}
        self._main_index: dict[str, list[int]] = {}

    def add(self, cid: int, c: Clause) -> None:
        rec = clause_record(c, self.lpo)
        self.by_id[cid] = c
        self.records[cid] = rec
        for k, lit in enumerate(rec.side_literals):
            sides = self._sides.get(lit.pred)
            if sides is None:
                sides = self._sides[lit.pred] = _SideList()
            sides.add(_Side(cid, k, c, lit))
        if rec.main_literals:
            for pred in {l.pred for l in rec.main_literals}:
                insort(self._main_index.setdefault(pred, []), cid)

    def remove(self, cid: int) -> None:
        if self.by_id.pop(cid, None) is None:
            return
        rec = self.records.pop(cid)
        for pred in {l.pred for l in rec.side_literals}:
            self._sides[pred].remove(cid)
        for pred in {l.pred for l in rec.main_literals}:
            ids = self._main_index[pred]
            del ids[bisect_left(ids, cid)]

    def mains_on(self, sides: Sequence[Literal]) -> Sequence[int]:
        """The ids, in id order, of the clauses with a main literal on the
        predicate of one of ``sides``, the only ones that can resolve with
        a side premise whose side literals these are."""
        if len(sides) == 1:
            return tuple(self._main_index.get(sides[0].pred, ()))
        ids: set[int] = set()
        for lit in sides:
            ids.update(self._main_index.get(lit.pred, ()))
        return sorted(ids)

    def side_list(self, lit: Literal) -> Optional[_SideList]:
        """The side literals on the predicate of ``lit``."""
        return self._sides.get(lit.pred)

    def side_candidates(self, pred: str) -> list[tuple[int, Clause, Literal]]:
        """The side literals on ``pred`` with their clauses, in key
        order."""
        sides = self._sides.get(pred)
        if sides is None:
            return []
        return [(side.cid, side.clause, side.lit) for side in sides.entries]

    def clauses(self) -> list[tuple[int, Clause]]:
        """The indexed clauses in id order."""
        return [(cid, self.by_id[cid]) for cid in sorted(self.by_id)]


# ---------------------------------------------------------------------------
# top-variable computation


@dataclass(frozen=True, slots=True)
class TopVarResult:
    top_vars: frozenset[str]
    top_literals: tuple[Literal, ...]
    # per top literal, in the main premise's order: (main literal, side
    # clause id, literals of the renamed side clause in the clause's own
    # order, renamed side literal)
    side_assignment: tuple[tuple[Literal, int, tuple[Literal, ...], Literal],
                           ...]
    # per assignment, the renamed literals of the side clause that the side
    # literal does not dominate a priori (``ClauseRecord.rivals``)
    rivals: tuple[tuple[Literal, ...], ...]


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


# an empty bucket, never written to
_NONE: list[_Side] = []

# what a probe yields: two buckets of candidates, and whether each side
# literal in the first already unifies with the selected literal under the
# unifier, binding nothing (the closing-level lookup)
_Probe = tuple[list[_Side], list[_Side], bool]


def _probe(sides: _SideList, args: Sequence[Term], sub: Subst,
           closing: bool) -> _Probe:
    """Two buckets of ``sides`` that together hold every side literal
    that can still unify with a selected literal over ``args`` under
    ``sub``.

    At the closing level (``closing``), when ``sub`` makes every argument
    ground: the ground side literals with that very argument tuple, then
    the non-ground ones, only those with no compound argument if every
    argument is a constant.  Otherwise through the first argument that
    ``sub`` makes ground: the side literals with that very term there,
    then those with a variable there if it is a constant, else those with
    a non-ground term there.  With no ground argument, through the first
    argument that ``sub`` binds to a compound term: those with its head
    symbol there, then those with a variable there.  With neither, all of
    them."""
    if closing:
        image = []
        for a in args:
            t = _ground_image(a, sub)
            if t is None:
                break
            image.append(t)
        else:
            flat = all(isinstance(t, Const) for t in image)
            return (sides.ground.get(tuple(image), _NONE),
                    sides.flat if flat else sides.nonground, True)
    head = None
    for j, a in enumerate(args):
        t = _ground_image(a, sub)
        if t is not None:
            exact, wild, _, free = sides.position(j)
            return (exact.get(t, _NONE),
                    free if isinstance(t, Const) else wild, False)
        if head is None:
            while isinstance(a, Var) and a.name in sub:
                a = sub[a.name]
            if isinstance(a, App):
                head = j, (a.fn, len(a.args))
    if head is None:
        return sides.entries, _NONE, False
    j, symbol = head
    _, _, heads, free = sides.position(j)
    return heads.get(symbol, _NONE), free, False


def _closing_constants(args: Sequence[Term], sub: Subst) -> Optional[bool]:
    """Which side literals over constants only unify with a selected
    literal over ``args`` under the triangular unifier ``sub``: none
    (``None``) when ``sub`` binds an argument to a compound term; every
    one (``True``) when ``sub`` leaves each argument a variable, no two
    the same; else (``False``) those that :func:`_constant_leaf`
    matches."""
    free = True
    names: set[str] = set()
    for a in args:
        while isinstance(a, Var) and a.name in sub:
            a = sub[a.name]
        if isinstance(a, App):
            return None
        if isinstance(a, Var) and a.name not in names:
            names.add(a.name)
        else:
            free = False
    return free


def _constant_leaf(args: Sequence[Term], consts: Sequence[Term],
                   sub: Subst) -> Optional[Subst]:
    """The bindings that extend ``sub`` to unify a selected literal over
    ``args`` with a side literal over the constants ``consts``, or
    ``None``: an argument that ``sub`` leaves a variable is bound to its
    constant, one that it makes a constant must be that constant, and one
    that it makes a compound term fails."""
    leaf: Subst = {}
    for a, c in zip(args, consts):
        while isinstance(a, Var) and a.name in sub:
            a = sub[a.name]
        if isinstance(a, Var):
            if leaf.setdefault(a.name, c) != c:
                return None
        elif a != c:
            return None
    return leaf


# the top variables of a main premise under a join's unifier, and the
# positions of the selected literals that hold one
_Top = tuple[frozenset[str], tuple[int, ...]]

# a join row: a tuple's sides, one per selected literal; the triangular
# unifier of their level copies with the selected literals, less the
# bindings of a closing side over constants, which bind variables to
# constants only and so leave every depth as it is; and the top variables
# under the unifier
_JoinRow = tuple[tuple[_Side, ...], Subst, _Top]


# what the join reads at one level: the selected literal's arguments, its
# side list, a fixed candidate list in place of the list's probe (the seed
# level of a semi-naive join) or None, and the clause id the level skips
_Level = tuple[tuple[Term, ...], _SideList, Optional[list[_Side]],
               Optional[int]]


def _extend(open_: list[int], sub: Subst, levels: list[_Level],
            chosen: list, top: Callable[[Subst], _Top],
            found: list[_JoinRow]) -> None:
    """Extend the tuple ``chosen``, unified by ``sub``, by a side literal
    at each level of ``open_``.  The next level is the most constrained:
    the open level whose probe (:func:`_probe`) under ``sub`` holds the
    fewest candidates, the first in ``open_`` on a tie, and the scan stops
    at a level with at most one.

    At the last open level, a candidate from the closing-level lookup is
    taken as it is, and one over constants only is matched against
    ``sub`` (:func:`_closing_constants`, :func:`_constant_leaf`).  Those
    candidates share ``sub`` and make one row each, except that when the
    closing literal holds no top variable under ``sub`` (``top``, read at
    the first such candidate) their tuples share a key, and only the
    first in key order, which alone can be kept, makes a row: the scan
    takes only the first such candidate of each bucket, the buckets
    being in key order.  Every other candidate is unified with a copy of
    ``sub`` and makes a row of its own.  The candidates are tried out
    of key order; the caller sorts what is found."""
    closing = len(open_) == 1
    best = best_size = -1
    best_probe: _Probe = _NONE, _NONE, False
    for i in open_:
        args, sides, fixed, _ = levels[i]
        probe = (fixed, _NONE, False) if fixed is not None \
            else _probe(sides, args, sub, closing)
        size = len(probe[0]) + len(probe[1])
        if best < 0 or size < best_size:
            best, best_size, best_probe = i, size, probe
            if size <= 1:
                break
    if not best_size:
        return
    args, _, _, skip = levels[best]
    first, second, matched = best_probe
    # the closing candidates that share sub, and top(sub)
    shared: list[_Side] = []
    info: Optional[_Top] = None
    if matched:
        for side in first:
            if side.cid != skip:
                shared.append(side)
                info = info or top(sub)
                if best not in info[1]:
                    break
        first = _NONE
    rest = [i for i in open_ if i != best]
    constants = closing and _closing_constants(args, sub)
    for bucket in (first, second):
        done = False  # the bucket's one side that can be kept is shared
        for side in bucket:
            if side.cid == skip:
                continue
            if closing and side.constants:
                if not done and (constants or constants is not None and
                                 _constant_leaf(args, side.lit.args, sub)
                                 is not None):
                    shared.append(side)
                    info = info or top(sub)
                    done = best not in info[1]
                continue
            lit = side.lit if side.copies is None else side.at(best)
            sub2 = dict(sub)
            if unify_into(zip(lit.args, args), sub2):
                chosen[best] = side
                if closing:
                    found.append((tuple(chosen), sub2, top(sub2)))
                else:
                    _extend(rest, sub2, levels, chosen, top, found)
    if info is None:
        return
    if best not in info[1]:
        shared = [min(shared, key=_key)]
    for side in shared:
        chosen[best] = side
        found.append((tuple(chosen), sub, info))


def _join(negs: Sequence[Literal], mvars: frozenset[str], n: ClauseIndex,
          must_include: Optional[int]) -> list[_JoinRow]:
    """All side-premise tuples simultaneously unifiable with the selected
    literals ``negs`` (at least one) of a main premise over the variables
    ``mvars``, in rows (:data:`_JoinRow`), sorted by their tuples in
    clause-id order (lexicographic by side-literal key, level by
    level).

    With ``must_include``, only the tuples that use that clause: the join
    is seeded once at each level ``p`` where it can stand, with that
    clause's own side literals there, earlier levels skipping it and
    later levels open, so every such tuple is found exactly once
    (semi-naive evaluation).
    """
    lists = []
    for lit in negs:
        sides = n.side_list(lit)
        if sides is None or not sides.entries:
            return []
        lists.append(sides)
    neg_vars = [lit_vars(lit) for lit in negs]

    def top(sub: Subst) -> _Top:
        depths = {v: _depth_under(sub[v], sub) if v in sub else 0
                  for v in mvars}
        top_depth = max(depths.values(), default=0)
        top_vars = frozenset(v for v, d in depths.items() if d == top_depth)
        return top_vars, tuple(i for i, vs in enumerate(neg_vars)
                               if vs & top_vars)

    found: list[_JoinRow] = []
    chosen: list = [None] * len(negs)
    if must_include is None:
        _extend(list(range(len(negs))), {},
                [(lit.args, sides, None, None)
                 for lit, sides in zip(negs, lists)], chosen, top, found)
    else:
        for p, sides in enumerate(lists):
            entries = sides.entries
            own = entries[bisect_left(entries, must_include, key=_cid):
                          bisect_right(entries, must_include, key=_cid)]
            if own:
                levels = [(lit.args, lst, own if i == p else None,
                           must_include if i < p else None)
                          for i, (lit, lst) in enumerate(zip(negs, lists))]
                _extend([p] + [i for i in range(len(negs)) if i != p], {},
                        levels, chosen, top, found)
    found.sort(key=lambda row: tuple(side.key for side in row[0]))
    return found


def com_t_all(main: Clause, n: ClauseIndex,
              must_include: Optional[int] = None) -> Iterator[TopVarResult]:
    """The side-premise assignments for the selected literals of ``main``,
    one per distinct key: the top variables and, for each top literal,
    the side candidate it takes.  Each is the first join tuple of its key
    in clause-id order.

    The join works out the top variables, once per unifier object: the
    tuples that share one differ only in bindings to constants, which
    leave every depth as it is.  A kept tuple's top sides, and nothing
    else, are renamed apart from ``main``, level by level, each drawing
    its names from ``n.fresh``; the join's own variable copies never
    reach a conclusion.
    """
    negs = [l for l in main if not l.pos]
    if not negs:
        return
    mvars = clause_vars(main)
    seen: set[tuple] = set()
    for chosen, _, (top_vars, top) in _join(negs, mvars, n, must_include):
        key = (top_vars, tuple((i, chosen[i].key) for i in top))
        if key in seen:
            continue
        seen.add(key)
        assignment = []
        rivals = []
        for i in top:
            # the side clause renamed literal by literal, in its own
            # order, so its side literal and rivals are found by position
            side = chosen[i]
            c = side.clause
            ren = renaming(c, mvars, n.fresh)
            side_r = tuple(apply_lit(l, ren) for l in c.literals) \
                if ren else c.literals
            assignment.append((negs[i], side.cid, side_r, side_r[side.pos]))
            cid, k = side.key
            rivals.append(tuple(side_r[r] for r in n.records[cid].rivals[k]))
        yield TopVarResult(top_vars, tuple(negs[i] for i in top),
                           tuple(assignment), tuple(rivals))


# ---------------------------------------------------------------------------
# inferences


# what each rule returns and the loop records: the rule, the parent ids
# with the main premise first, and the conclusions
Derivation = tuple[str, tuple[int, ...], tuple[Clause, ...]]


def _remove_one(c: Iterable[Literal], lit: Literal) -> list[Literal]:
    lits = list(c)
    lits.remove(lit)
    return lits


def factor(cid: int, c: Clause, lpo: LPO) -> list[Derivation]:
    """Positive factoring of the ``"max"`` clause ``c`` on its maximal
    positive literals."""
    out: list[Derivation] = []
    pos = [l for l in c if l.pos]
    maxlits = set(maximal(lpo, c))
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
            out.append(("Factor", (cid,), (concl,)))
    return out


def _binary_resolvents(main_id: int, main: Clause, neg: Literal,
                       n: ClauseIndex,
                       only_side: Optional[int] = None) -> list[Derivation]:
    """Rule-2a resolution of ``neg`` in ``main`` against indexed sides."""
    out: list[Derivation] = []
    avoid = clause_vars(main)
    for cid, side, pos_lit in n.side_candidates(neg.pred):
        if only_side is not None and cid != only_side:
            continue
        ren = renaming(side, avoid, n.fresh)
        side_r = [apply_lit(l, ren) for l in side] if ren else side
        pos_r = apply_lit(pos_lit, ren)
        sigma = mgu_lits([(pos_r, neg)])
        if sigma is None:
            continue
        lits = _remove_one(main, neg) + _remove_one(side_r, pos_r)
        concl = Clause(dict.fromkeys(apply_lit(l, sigma) for l in lits))
        out.append(("TRes2a", (main_id, cid), (concl,)))
    return out


def stays_strictly_maximal(lit: Literal, rivals: Sequence[Literal],
                           sigma: Subst, lpo: LPO) -> bool:
    """No literal of ``rivals`` is greater than ``lit`` after ``sigma``."""
    lit_s = apply_lit(lit, sigma)
    return all(lpo.compare_lits(apply_lit(other, sigma), lit_s)
               is not Cmp.GT for other in rivals)


def _topvar_resolvent(main_id: int, main: Clause, tv: TopVarResult,
                      lpo: LPO
                      ) -> Optional[tuple[tuple[int, ...], Subst, Clause]]:
    """Rule-2b: resolve exactly the top-variable literals of ``main``.
    Returns the parent ids (``main_id``, then the side of each top
    literal), the unifier and the conclusion, or ``None``."""
    pairs = []
    parents = [main_id]
    extra: list[Literal] = []
    for (mlit, cid, side_r, pos_r) in tv.side_assignment:
        pairs.append((pos_r, mlit))
        parents.append(cid)
        extra.extend(_remove_one(side_r, pos_r))
    sigma = mgu_lits(pairs)
    if sigma is None:
        return None
    # side condition: the resolved positive literals stay strictly maximal
    for (_, _, _, pos_r), rivals in zip(tv.side_assignment, tv.rivals):
        if rivals and not stays_strictly_maximal(pos_r, rivals, sigma, lpo):
            return None
    top = set(tv.top_literals)
    rest = [l for l in main if l not in top or l.pos]
    # (multiset caveat: `in` over the sorted tuple is fine because query
    # literals are distinct after condensation)
    lits = [apply_lit(l, sigma) for l in rest] + \
           [apply_lit(l, sigma) for l in extra]
    return tuple(parents), sigma, Clause(dict.fromkeys(lits))


def topvar_resolvents(main_id: int, n: ClauseIndex,
                      only_side: Optional[int]) -> list[Derivation]:
    """Rule-2b resolvents of the indexed ``"topvar"`` clause ``main_id``
    as the main premise, one per assignment :func:`com_t_all` yields;
    with ``only_side``, only those using that side premise."""
    main = n.by_id[main_id]
    out: list[Derivation] = []
    for tv in com_t_all(main, n, must_include=only_side):
        res = _topvar_resolvent(main_id, main, tv, n.lpo)
        if res is not None:
            parents, _, concl = res
            out.append(("TRes2b", parents, (concl,)))
    return out


# ---------------------------------------------------------------------------
# redundancy


def is_tautology(c: Clause) -> bool:
    pos = {(l.pred, l.args) for l in c if l.pos}
    return any((l.pred, l.args) in pos for l in c if not l.pos)
