"""Lexicographic path ordering, symbol precedence and literal selection.

The precedence puts function symbols above constants above predicates.
Within a kind, input symbols sit above fresh (Skolem / definer) symbols,
higher arity above lower, and earlier names above later ones.  Fresh
symbols landing at the bottom of their kind is what keeps definer atoms
small in the ordering, so introducing them never blocks an inference that
was possible before.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Sequence

from .terms import (
    App, Clause, Const, Literal, SymbolKind, SymbolOrigin, SymbolTable,
    Term, Var, is_ground, literal_key, term_vars,
)


class Cmp(Enum):
    GT = "gt"
    LT = "lt"
    EQ = "eq"
    NC = "incomparable"


_KIND_RANK = {
    SymbolKind.FUNCTION: 3,
    SymbolKind.CONSTANT: 2,
    SymbolKind.PREDICATE: 1,
    SymbolKind.PROPOSITIONAL: 1,
}

_ORIGIN_RANK = {
    SymbolOrigin.INPUT: 1,
    SymbolOrigin.SKOLEM: 0,
    SymbolOrigin.DEFINER: 0,
}


class Precedence:
    """Total precedence on the symbols of a :class:`SymbolTable`."""

    def __init__(self, symbols: SymbolTable) -> None:
        self.symbols = symbols

    def key(self, name: str) -> tuple:
        sym = self.symbols.get(name)
        if sym is None:
            raise KeyError(f"symbol {name!r} not declared")
        return (_KIND_RANK[sym.kind], _ORIGIN_RANK[sym.origin], sym.arity,
                sym.name_key)

    def gt(self, a: str, b: str) -> bool:
        return self.key(a) > self.key(b)


class LPO:
    """Lexicographic path ordering lifted to non-ground terms and atoms.

    Total on ground terms, and stable under substitution: ``compare`` only
    answers ``GT`` when every ground instance is greater.
    """

    def __init__(self, prec: Precedence) -> None:
        self.prec = prec

    # -- terms ------------------------------------------------------------

    def _args(self, t: Term) -> tuple[Term, ...]:
        return t.args if isinstance(t, App) else ()

    def _head(self, t: Term) -> str:
        return t.fn if isinstance(t, App) else t.name  # type: ignore[union-attr]

    def gt(self, s: Term, t: Term) -> bool:
        if s == t:
            return False
        if isinstance(s, Var):
            return False
        if isinstance(t, Var):
            return t.name in term_vars(s)
        sargs, targs = self._args(s), self._args(t)
        if any(si == t or self.gt(si, t) for si in sargs):
            return True
        f, g = self._head(s), self._head(t)
        if f != g:
            return self.prec.gt(f, g) and all(self.gt(s, tj) for tj in targs)
        # same head: lexicographic on arguments
        for si, ti in zip(sargs, targs):
            if si == ti:
                continue
            return self.gt(si, ti) and all(self.gt(s, tj) for tj in targs)
        return False

    def compare(self, s: Term, t: Term) -> Cmp:
        if s == t:
            return Cmp.EQ
        if self.gt(s, t):
            return Cmp.GT
        if self.gt(t, s):
            return Cmp.LT
        return Cmp.NC

    # -- literals ----------------------------------------------------------

    def atom_term(self, lit: Literal) -> Term:
        return App(lit.pred, lit.args) if lit.args else Const(lit.pred)

    def compare_lits(self, l1: Literal, l2: Literal) -> Cmp:
        """Admissible literal ordering: atoms first, then polarity.

        A negative literal is greater than the positive literal over the
        same atom, and a strictly greater atom dominates either polarity.
        """
        r = self.compare(self.atom_term(l1), self.atom_term(l2))
        if r is not Cmp.EQ:
            return r
        if l1.pos == l2.pos:
            return Cmp.EQ
        return Cmp.GT if not l1.pos else Cmp.LT


_MIRROR = {Cmp.GT: Cmp.LT, Cmp.LT: Cmp.GT, Cmp.EQ: Cmp.EQ, Cmp.NC: Cmp.NC}


def comparisons(lpo: LPO, lits: Sequence[Literal]) -> list[list[Cmp]]:
    """The table ``t`` with ``t[i][j] = lpo.compare_lits(lits[i], lits[j])``
    for ``i != j`` (the diagonal holds ``EQ``).

    The literal ordering is antisymmetric, so each unordered pair is
    compared once and the result mirrored.
    """
    n = len(lits)
    table = [[Cmp.EQ] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            r = lpo.compare_lits(lits[i], lits[j])
            table[i][j] = r
            table[j][i] = _MIRROR[r]
    return table


def maximal(lpo: LPO, c: Clause, strict: bool = False) -> list[Literal]:
    """Maximal (or strictly maximal) literals of ``c`` under the ordering.

    Computed a-priori, i.e. on the clause as written rather than per ground
    instance; on the clausal classes the pipeline produces the two notions
    coincide.
    """
    beaten = (Cmp.LT, Cmp.EQ) if strict else (Cmp.LT,)
    return [lit for i, (lit, row) in enumerate(
                zip(c.literals, comparisons(lpo, c.literals)))
            if not any(r in beaten for j, r in enumerate(row) if j != i)]


def select_nc(c: Clause) -> Optional[Literal]:
    """The selected negative compound-term literal, if the clause has one.

    Exactly one literal is selected: the structurally smallest negative
    literal containing a compound term.  Ground clauses never select.
    """
    if is_ground(c):
        return None
    cands = [lit for lit in c
             if not lit.pos and not lit.is_eq
             and any(isinstance(a, App) for a in lit.args)]
    if not cands:
        return None
    return min(cands, key=literal_key)
