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
    Term, Var, _occurs, is_ground, literal_key,
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
    """Total precedence on the symbols of a :class:`SymbolTable`.

    A name's key is built the first time it is asked for and kept: a
    declared symbol never changes, and one declared after the precedence
    was built (a Skolem function or a definer) is keyed when first met.
    """

    def __init__(self, symbols: SymbolTable) -> None:
        self.symbols = symbols
        self._keys: dict[str, tuple] = {}

    def key(self, name: str) -> tuple:
        key = self._keys.get(name)
        if key is None:
            sym = self.symbols.get(name)
            if sym is None:
                raise KeyError(f"symbol {name!r} not declared")
            key = self._keys[name] = (
                _KIND_RANK[sym.kind], _ORIGIN_RANK[sym.origin], sym.arity,
                sym.name_key)
        return key

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

    def gt(self, s: Term, t: Term) -> bool:
        if s == t or isinstance(s, Var):
            return False
        if isinstance(t, Var):
            return _occurs(t.name, s, {})
        if isinstance(s, App):
            # a constant argument is tried too: constants rank above
            # predicates, so one can be greater than an atom
            for si in s.args:
                if si == t or self.gt(si, t):
                    return True
            f, sargs = s.fn, s.args
        else:
            f, sargs = s.name, ()
        if isinstance(t, App):
            g, targs = t.fn, t.args
        else:
            g, targs = t.name, ()
        if f != g:
            key = self.prec.key
            if key(f) <= key(g):
                return False
        else:
            # same head: lexicographic on the arguments
            for si, ti in zip(sargs, targs):
                if si != ti:
                    break
            else:
                return False
            if not self.gt(si, ti):
                return False
        for tj in targs:
            if not self.gt(s, tj):
                return False
        return True

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
