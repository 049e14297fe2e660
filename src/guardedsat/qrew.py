"""Back-translation of a saturated clausal set into a Skolem-free formula.

The saturation of (rules + negated query) consists of loosely guarded
clauses and query clauses.  They are made *normal*, *unique*, *globally
compatible* and *globally linear* by three equivalence-preserving steps:

* ``con_abs``: a constant occurring inside a compound term is replaced
  everywhere in the clause by a fresh variable ``y`` guarded by ``y != a``;
* ``var_abs``: a variable duplicated among a compound term's arguments is
  replaced (at the later positions, in every compound term) by a fresh
  variable ``y`` guarded by ``y != x``;
* ``var_re``: clauses are partitioned into closed sets (connected by shared
  function symbols or shared Skolem constants; flat clauses stand alone)
  and within each set every compound term's argument sequence is renamed to
  one shared variable tuple.

After that each Skolem function ``f(X1,...,Xm)`` stands for one existential
witness over the shared universals, and each Skolem constant for one
outer existential, so the set can be written as a first-order formula with
prefix exists/forall/exists (``_unsko``; a flat set has no shared tuple and
no Skolem function, so its prefix is exists/forall).  The negation of the
conjunction of these formulas is the rewriting.

The three steps are worked out per clause from one scan of its terms:
its function symbols, its Skolem constants, the argument tuples of its
compound terms, and whether abstraction would change it (a constant
inside a compound term, or a variable repeated among one's arguments).
Only such a flagged clause is abstracted, after its variables are
renamed ``U1, U2, ...`` in sorted order, and its output is scanned in
turn.  The scans key the closed sets and decide the checks of
``var_re`` and of the property gate.  Then each clause is built once,
through one substitution, and sorted once.  The substitution sends the
clause's variables to ``U<n>`` (abstraction's fresh ones keep their
names ``Yc<n>``/``Yd<n>``), the shared argument tuple to ``X1..Xm``,
each Skolem constant to ``Z<n>`` and each Skolem function term to
``Y<n>``, numbering the constants and functions in name order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .syntax import And, AtomF, Exists, Forall, Formula, Not, Or, Top
from .terms import (
    EQ, App, Clause, Const, Literal, SymbolOrigin, SymbolTable, Subst, Term,
    Var, apply_clause, clause_vars, compound_terms, connected_groups,
    literal_key,
)


class RewriteError(ValueError):
    pass


@dataclass
class AbstractedClause:
    clause: Clause
    disequations: int = 0  # how many guards abstraction added


@dataclass
class RewriteResult:
    sigma_q: Formula
    skolem_constants_internalized: list[str]
    equality_used: bool
    conjuncts: list[Formula] = field(default_factory=list)


def _fresh_var(base: str, counter: list[int], avoid: set[str]) -> Var:
    while True:
        name = f"{base}{counter[0]}"
        counter[0] += 1
        if name not in avoid:
            avoid.add(name)
            return Var(name)


# ---------------------------------------------------------------------------
# abstraction


def con_abs(c: Clause) -> AbstractedClause:
    """Replace constants occurring inside compound terms by guarded fresh
    variables, to a fixpoint."""
    avoid: Optional[set[str]] = None  # the clause's variables, on demand
    counter = [0]
    added = 0
    while True:
        target: Optional[Const] = None
        for t in compound_terms(c):
            for a in t.args:
                if isinstance(a, Const):
                    target = a
                    break
            if target:
                break
        if target is None:
            return AbstractedClause(c, added)
        if avoid is None:
            avoid = set(clause_vars(c))
        y = _fresh_var("Yc", counter, avoid)
        lits = [_replace_const(l, target, y) for l in c]
        lits.append(Literal(False, EQ, (y, target)))
        c = Clause(lits)
        added += 1


def _replace_const(lit: Literal, a: Const, y: Var) -> Literal:
    return Literal(lit.pos, lit.pred,
                   tuple(_const_to_var(t, a, y) for t in lit.args))


def _const_to_var(t: Term, a: Const, y: Var) -> Term:
    if t == a:
        return y
    if isinstance(t, App):
        return App(t.fn, tuple(_const_to_var(x, a, y) for x in t.args))
    return t


def var_abs(c: Clause) -> AbstractedClause:
    """Replace duplicated compound-term argument variables by guarded fresh
    variables, to a fixpoint.

    All compound terms of a strongly compatible clause share one argument
    tuple, so the replacement happens at the same position in every term;
    flat occurrences of the duplicated variable are left alone (the clause
    stays covering either way, and the two forms are equivalent thanks to
    the added disequation).
    """
    avoid: Optional[set[str]] = None  # the clause's variables, on demand
    counter = [0]
    added = 0
    while True:
        comps = compound_terms(c)
        pos_dup: Optional[tuple[int, Var]] = None
        for t in comps:
            seen: dict[Term, int] = {}
            for i, a in enumerate(t.args):
                if a in seen and isinstance(a, Var):
                    pos_dup = (i, a)
                    break
                seen.setdefault(a, i)
            if pos_dup:
                break
        if pos_dup is None:
            return AbstractedClause(c, added)
        i, x = pos_dup
        if avoid is None:
            avoid = set(clause_vars(c))
        y = _fresh_var("Yd", counter, avoid)
        lits = [_replace_arg_pos(l, i, y) for l in c]
        lits.append(Literal(False, EQ, (y, x)))
        c = Clause(lits)
        added += 1


def _replace_arg_pos(lit: Literal, i: int, y: Var) -> Literal:
    return Literal(lit.pos, lit.pred,
                   tuple(_arg_pos_to_var(t, i, y) for t in lit.args))


def _arg_pos_to_var(t: Term, i: int, y: Var) -> Term:
    if isinstance(t, App):
        return App(t.fn, tuple(y if j == i else _arg_pos_to_var(a, i, y)
                               for j, a in enumerate(t.args)))
    return t


def abstract(c: Clause) -> AbstractedClause:
    a1 = con_abs(c)
    a2 = var_abs(a1.clause)
    return AbstractedClause(a2.clause, a1.disequations + a2.disequations)


# ---------------------------------------------------------------------------
# the one-scan rewriting


@dataclass(slots=True)
class _Scanned:
    """What the rewriting needs of one clause, from one walk over its
    terms."""
    clause: Clause
    funcs: set[str]
    skolem_consts: set[str]
    # the argument tuples of its compound terms, nested ones included
    tuples: set[tuple[Term, ...]]
    flagged: bool  # abstraction would change the clause
    # each variable's name in the rewriting, unless it is an argument
    names: dict[str, Var]


def _scan(c: Clause, symbols: SymbolTable, skolem: dict[str, bool],
          uppercase: bool = True) -> _Scanned:
    """Scan ``c``, naming its variables ``U1, U2, ...`` in sorted order
    (``uppercase``) or keeping their names; ``skolem`` caches whether a
    constant is a Skolem constant, by name."""
    funcs: set[str] = set()
    consts: set[str] = set()
    tuples: set[tuple[Term, ...]] = set()
    flagged = False
    todo = [t for lit in c.literals for t in lit.args
            if t.__class__ is not Var]
    while todo:
        t = todo.pop()
        if t.__class__ is Const:
            is_sk = skolem.get(t.name)
            if is_sk is None:
                sym = symbols.get(t.name)
                is_sk = skolem[t.name] = sym is not None and \
                    sym.origin is SymbolOrigin.SKOLEM
            if is_sk:
                consts.add(t.name)
            continue
        funcs.add(t.fn)
        tuples.add(t.args)
        seen: set[Term] = set()
        for a in t.args:
            if a.__class__ is Var:
                flagged |= a in seen  # var_abs would replace it
                seen.add(a)
            else:
                flagged |= a.__class__ is Const  # con_abs would
                todo.append(a)
    names = {v: Var(f"U{i + 1}" if uppercase else v)
             for i, v in enumerate(sorted(clause_vars(c)))}
    return _Scanned(c, funcs, consts, tuples, flagged, names)


def _unsko(scans: list[_Scanned], fns: set[str],
           consts: set[str]) -> Formula:
    """Unskolemise a closed set.

    Prefix: one existential per Skolem constant, the shared universal
    tuple, one existential per Skolem function (in name order), then any
    residual variables universally.
    """
    # var_re's checks
    arities = {len(args) for s in scans for args in s.tuples}
    if len(arities) > 1:
        raise RewriteError(
            f"closed set mixes compound-term arities {sorted(arities)}")
    shared = tuple(Var(f"X{i + 1}")
                   for i in range(arities.pop() if arities else 0))
    renames: list[dict[str, Var]] = []
    for s in scans:
        if len(s.tuples) > 1:
            raise RewriteError("clause is not strongly compatible")
        args = next(iter(s.tuples), ())
        if not all(a.__class__ is Var for a in args):
            raise RewriteError("compound-term arguments are not variables")
        renames.append({a.name: x  # type: ignore[union-attr]
                        for a, x in zip(args, shared)})
    # the property gate on the renamed tuples: every argument is a
    # variable now (normal), and globally linear is globally compatible
    # and unique together
    renamed = {tuple(ren[a.name] for a in args)  # type: ignore[union-attr]
               for s, ren in zip(scans, renames) for args in s.tuples}
    bad = "unique" if any(len(set(t)) < len(t) for t in renamed) else \
        "globally_compatible" if len(renamed) > 1 else None
    if bad:
        raise RewriteError(f"closed set violates property: {bad}")
    zs = {k: Var(f"Z{i + 1}") for i, k in enumerate(sorted(consts))}
    ys = {fn: Var(f"Y{i + 1}") for i, fn in enumerate(sorted(fns))}
    # Each clause is built once, through one substitution.  The names
    # cannot collide: a clause's variables are named U<n> (or keep their
    # Yc<n>/Yd<n> from abstraction), apart from the X<n>, Y<n> and Z<n>,
    # so no variable has to be renamed away from the shared tuple.
    items: list[Formula] = []
    residual: dict[str, None] = {}
    for s, ren in zip(scans, renames):
        names = s.names
        lits = []
        for lit in s.clause.literals:
            args = []
            for t in lit.args:
                cls = t.__class__
                if cls is Var:
                    args.append(ren.get(t.name) or names[t.name])
                elif cls is Const:
                    args.append(zs.get(t.name, t))
                else:  # a compound term, over the shared tuple
                    args.append(ys[t.fn])  # type: ignore[union-attr]
            lits.append(Literal(lit.pos, lit.pred, tuple(args)))
        lits.sort(key=literal_key)
        disj: list[Formula] = [AtomF(l.pred, l.args) if l.pos
                               else Not(AtomF(l.pred, l.args))
                               for l in lits]
        items.append(disj[0] if len(disj) == 1 else Or(tuple(disj)))
        residual.update(dict.fromkeys(sorted(
            u.name for v, u in names.items() if v not in ren)))
    f: Formula = And(tuple(items)) if len(items) > 1 else items[0]
    if residual:
        f = Forall(tuple(residual), f)
    if ys:
        f = Exists(tuple(y.name for y in ys.values()), f)
    if shared:
        f = Forall(tuple(x.name for x in shared), f)
    if zs:
        f = Exists(tuple(z.name for z in zs.values()), f)
    return f


def q_rew(saturation: list[Clause], symbols: SymbolTable) -> RewriteResult:
    """Rewrite a saturated clausal set into the query rewriting formula.

    The result is the negation of the conjunction of the unskolemised
    closed sets; it contains no Skolem symbols, but may use equality with
    input constants (the abstraction guards, flipped positive by the
    negation).
    """
    if any(c.is_empty() for c in saturation):
        raise RewriteError(
            "the saturation contains the empty clause: the query holds in "
            "every dataset, there is nothing to rewrite")
    skolem: dict[str, bool] = {}
    scans: list[_Scanned] = []
    equality_used = False
    for c in saturation:
        s = _scan(c, symbols, skolem)
        if s.flagged:
            ab = abstract(_uppercase_vars(c))
            equality_used |= ab.disequations > 0
            s = _scan(ab.clause, symbols, skolem, uppercase=False)
        scans.append(s)
    # closed sets: clauses sharing a function symbol or a Skolem
    # constant; the clauses with neither form one flat set, last
    conjuncts: list[Formula] = []
    internalized: list[str] = []
    flat: list[_Scanned] = []
    for g in connected_groups([[f"f:{f}" for f in s.funcs] +
                               [f"c:{k}" for k in s.skolem_consts]
                               for s in scans]):
        group = [scans[i] for i in g]
        if not (group[0].funcs or group[0].skolem_consts):
            flat.extend(group)  # a clause with no token stands alone
            continue
        consts = set().union(*(s.skolem_consts for s in group))
        conjuncts.append(_unsko(
            group, set().union(*(s.funcs for s in group)), consts))
        internalized.extend(sorted(consts))
    if flat:
        conjuncts.append(_unsko(flat, set(), set()))
    # an empty saturation rewrites to the empty conjunction
    big: Formula = And(tuple(conjuncts)) if len(conjuncts) > 1 \
        else conjuncts[0] if conjuncts else Top()
    return RewriteResult(
        sigma_q=Not(big),
        skolem_constants_internalized=internalized,
        equality_used=equality_used,
        conjuncts=conjuncts,
    )


def _uppercase_vars(c: Clause) -> Clause:
    sub: Subst = {}
    for i, v in enumerate(sorted(clause_vars(c))):
        name = f"U{i + 1}"
        if v != name:
            sub[v] = Var(name)
    return apply_clause(c, sub) if sub else c
