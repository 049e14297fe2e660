"""Back-translation of a saturated clausal set into a Skolem-free formula.

The saturation of (rules + negated query) consists of loosely guarded
clauses and query clauses.  They are partitioned into closed sets:
clauses connected by shared function symbols or shared Skolem
constants; flat clauses stand alone.  In a strongly compatible clause
every compound term has the same argument tuple, and within a closed
set every such tuple is named by one shared variable tuple ``X1..Xm``
(``var_re``).  Abstraction (``con_abs`` and ``var_abs``) then reduces
to one disequation per position of the tuple: ``X<i> != a`` where
position i holds a constant ``a``, which then reads ``X<i>`` everywhere
in the clause, and ``X<i> != X<j>`` where position i repeats the term of
an earlier position j.  The set so renamed is normal, unique, globally
compatible and globally linear.

After that each Skolem function ``f(X1,...,Xm)`` stands for one existential
witness over the shared universals, and each Skolem constant for one
outer existential, so the set can be written as a first-order formula with
prefix exists/forall/exists (``_unsko``; a flat set has no shared tuple and
no Skolem function, so its prefix is exists/forall).  The negation of the
conjunction of these formulas is the rewriting.

Each clause is scanned once, for its function symbols, its Skolem
constants and the argument tuples of its compound terms; the scans key
the closed sets and decide the checks of ``var_re``.  Then each clause
is built once, through one substitution, and sorted once.  The
substitution sends the clause's variables to ``U<n>`` in sorted order,
the shared argument tuple to ``X1..Xm``, each Skolem constant to
``Z<n>`` and each Skolem function term to ``Y<n>``, numbering the
constants and functions in name order; the tuple's disequations join
the clause before it is sorted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .syntax import And, AtomF, Exists, Forall, Formula, Not, Or, Top
from .terms import (
    EQ, Clause, Const, Literal, SymbolOrigin, SymbolTable, Term, Var,
    clause_vars, connected_groups, literal_key,
)


class RewriteError(ValueError):
    pass


@dataclass
class RewriteResult:
    sigma_q: Formula
    skolem_constants_internalized: list[str]
    equality_used: bool
    conjuncts: list[Formula] = field(default_factory=list)


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
    # each variable's name in the rewriting, unless it is an argument
    names: dict[str, Var]


def _scan(c: Clause, symbols: SymbolTable,
          skolem: dict[str, bool]) -> _Scanned:
    """Scan ``c``, naming its variables ``U1, U2, ...`` in sorted order;
    ``skolem`` caches whether a constant is a Skolem constant, by name.
    A constant is one unless ``symbols`` has it as an input constant: a
    saturation holds no other constants, and the caller's table need not
    hold the Skolem constants the prover declared."""
    funcs: set[str] = set()
    consts: set[str] = set()
    tuples: set[tuple[Term, ...]] = set()
    todo = [t for lit in c.literals for t in lit.args
            if t.__class__ is not Var]
    while todo:
        t = todo.pop()
        if t.__class__ is Const:
            is_sk = skolem.get(t.name)
            if is_sk is None:
                sym = symbols.get(t.name)
                is_sk = skolem[t.name] = sym is None or \
                    sym.origin is SymbolOrigin.SKOLEM
            if is_sk:
                consts.add(t.name)
            continue
        funcs.add(t.fn)
        tuples.add(t.args)
        for a in t.args:
            if a.__class__ is not Var:
                todo.append(a)
    names = {v: Var(f"U{i + 1}")
             for i, v in enumerate(sorted(clause_vars(c)))}
    return _Scanned(c, funcs, consts, tuples, names)


def _unsko(scans: list[_Scanned], fns: set[str],
           consts: set[str]) -> tuple[Formula, bool]:
    """Unskolemise a closed set, and tell whether it needed a
    disequation.

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
    if any(len(s.tuples) > 1 for s in scans):
        raise RewriteError("clause is not strongly compatible")
    zs = {k: Var(f"Z{i + 1}") for i, k in enumerate(sorted(consts))}
    ys = {fn: Var(f"Y{i + 1}") for i, fn in enumerate(sorted(fns))}
    # Each clause is built once, through one substitution.  The names
    # cannot collide: a clause's variables are named U<n>, apart from the
    # X<n>, Y<n> and Z<n>, so no variable has to be renamed away from the
    # shared tuple.
    items: list[Formula] = []
    residual: dict[str, None] = {}
    equality_used = False
    for s in scans:
        # The tuple's variables and constants, by name, each to its first
        # position; a constant or a repeated term gets its disequation
        # (con_abs, var_abs).  A single tuple has no compound argument.
        ren: dict[str, Var] = {}
        cren: dict[str, Var] = {}
        lits = []
        for a, x in zip(next(iter(s.tuples), ()), shared):
            seen = ren if a.__class__ is Var else cren
            first = seen.setdefault(a.name, x)  # type: ignore[union-attr]
            if first is not x:
                lits.append(Literal(False, EQ, (x, first)))
            elif seen is cren:
                lits.append(Literal(False, EQ, (x, zs.get(
                    a.name, a))))  # type: ignore[union-attr]
        equality_used |= bool(lits)
        names = s.names
        for lit in s.clause.literals:
            args = []
            for t in lit.args:
                cls = t.__class__
                if cls is Var:
                    args.append(ren.get(t.name) or names[t.name])
                elif cls is Const:
                    args.append(cren.get(t.name) or zs.get(t.name, t))
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
    return f, equality_used


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
    scans = [_scan(c, symbols, skolem) for c in saturation]
    # closed sets: clauses sharing a function symbol or a Skolem
    # constant; the clauses with neither form one flat set, last
    conjuncts: list[Formula] = []
    internalized: list[str] = []
    equality_used = False
    flat: list[_Scanned] = []
    for g in connected_groups([[f"f:{f}" for f in s.funcs] +
                               [f"c:{k}" for k in s.skolem_consts]
                               for s in scans]):
        group = [scans[i] for i in g]
        if not (group[0].funcs or group[0].skolem_consts):
            flat.extend(group)  # a clause with no token stands alone
            continue
        consts = set().union(*(s.skolem_consts for s in group))
        f, eq = _unsko(group, set().union(*(s.funcs for s in group)),
                       consts)
        conjuncts.append(f)
        internalized.extend(sorted(consts))
        equality_used |= eq
    if flat:
        f, eq = _unsko(flat, set(), set())
        conjuncts.append(f)
        equality_used |= eq
    # an empty saturation rewrites to the empty conjunction
    big: Formula = And(tuple(conjuncts)) if len(conjuncts) > 1 \
        else conjuncts[0] if conjuncts else Top()
    return RewriteResult(
        sigma_q=Not(big),
        skolem_constants_internalized=internalized,
        equality_used=equality_used,
        conjuncts=conjuncts,
    )
