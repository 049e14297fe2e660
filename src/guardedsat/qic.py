"""Resolution on chained-only query clauses (variable cycles).

A top-variable resolution step on an ICQ clause can produce a resolvent
that is neither loosely guarded nor a query clause.  The resolvent is
repaired structurally: the top-variable literals are partitioned into
*closed* blocks (top variables connected through co-occurrence in a
top-variable literal), the side remainders of each block are abstracted
behind a fresh definer over their variables, and the rest becomes a new
query clause which is separated again.  Definers come from the shared
:class:`~guardedsat.qsep.DefinitionRegistry`, so recurring block shapes
reuse their symbol.

:func:`q_ic_all` reads the unifier of each T-Res step from
:func:`~guardedsat.engine._topvar_resolvent`, which T-Trans applies, and
hands back the step's parent ids with its clauses (:class:`QicResult`);
the loop records them as one ``QIC`` derivation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import ClauseIndex, TopVarResult, com_t_all, _topvar_resolvent
from .qsep import DefinitionRegistry, SepResult, q_sep
from .terms import (
    Clause, Literal, Subst, Var, apply_lit, connected_groups, literal_key,
    lit_vars,
)


@dataclass
class QicResult:
    """One QIC step: the T-Res resolvent, the clauses T-Trans and Q-Sep
    make of it, and the parent ids (the main premise, then the side of
    each top literal)."""
    resolvent: Clause
    lg_clauses: list[Clause] = field(default_factory=list)
    guarded: list[Clause] = field(default_factory=list)
    icq: list[Clause] = field(default_factory=list)
    parents: tuple[int, ...] = ()


def closed_partition(tv: TopVarResult) -> list[list[Literal]]:
    """Partition the top-variable literals into closed blocks.

    Two top variables are connected when they co-occur in a top-variable
    literal; a block is the set of top literals over one connected
    component of top variables.
    """
    lits = tv.top_literals
    return [[lits[i] for i in g]
            for g in connected_groups([lit_vars(l) & tv.top_vars
                                       for l in lits])]


def t_trans(main: Clause, tv: TopVarResult, sigma: Subst,
            reg: DefinitionRegistry) -> tuple[list[Clause], Clause]:
    """Abstract the side remainders of each closed block out of a T-Res
    resolvent.  Returns the new LG clauses and the residue query clause."""
    top = set(tv.top_literals)
    blocks = closed_partition(tv)
    by_mlit = {mlit: (side_r, pos_r)
               for (mlit, _cid, side_r, pos_r) in tv.side_assignment}
    lg_out: list[Clause] = []
    residue: list[Literal] = [apply_lit(l, sigma)
                              for l in main if l not in top]
    for block in blocks:
        remainder: list[Literal] = []
        for mlit in block:
            side_r, pos_r = by_mlit[mlit]
            rest = list(side_r)
            rest.remove(pos_r)
            # sorted as the renamed side clause would be: the order fixes
            # the order of the definer's arguments
            rest.sort(key=literal_key)
            remainder.extend(apply_lit(l, sigma) for l in rest)
        remainder = list(dict.fromkeys(remainder))
        if not remainder:
            continue
        order: list[str] = []
        for l in remainder:
            for v in sorted(lit_vars(l)):
                if v not in order:
                    order.append(v)
        args = tuple(Var(v) for v in order)
        name = reg.definer(remainder, args)
        lg_out.append(Clause(remainder + [Literal(True, name, args)]))
        residue.append(Literal(False, name, args))
    return lg_out, Clause(dict.fromkeys(residue))


def q_ic_all(main_id: int, n: ClauseIndex, reg: DefinitionRegistry,
             must_include: int | None = None) -> list[QicResult]:
    """T-Res on an ICQ main premise followed by T-Trans and Q-Sep, one
    result per side-premise assignment that :func:`com_t_all` yields (one
    per distinct assignment of sides to the top literals, the only sides
    :func:`t_trans` reads)."""
    main = n.by_id[main_id]
    out: list[QicResult] = []
    for tv in com_t_all(main, n, must_include=must_include):
        res = _topvar_resolvent(main_id, main, tv, n.lpo)
        if res is None:
            continue
        parents, sigma, resolvent = res
        lg, query = t_trans(main, tv, sigma, reg)
        sep: SepResult = q_sep(query, reg)
        out.append(QicResult(resolvent=resolvent, lg_clauses=lg,
                             guarded=sep.guarded, icq=sep.icq,
                             parents=parents))
    return out

