"""Clausification of guarded formulas into the loosely guarded clausal class.

``trans`` checks each rule and ``formula:`` statement against the guarded
fragments and clausifies it.

The pipeline per rule: one walk puts the formula in negation normal
form, expanding ``<=>`` and ``=>`` where it meets them, and miniscopes
each quantifier as it leaves it (which splits clique guards into
per-atom universal blocks), working out free variables bottom-up; the
free variables left are closed existentially.  Then definitional
renaming of the nested universal subformulas, per conjunct one walk that
prenexes and Skolemises it, and CNF, which distributes the matrix
straight into literal lists.

A top-level universal (a rule, or a universal conjunct of a top-level
conjunction) is at guard level already and is clausified as it stands,
with no definer: only the universals nested below it are renamed.

Renaming a universal subformula ``! [Xs] : H`` over free variables ``Ys``
(in order of first free occurrence) replaces it by a fresh definer atom
``P(Ys)`` and adds the definition ``! [Ys] : (~P(Ys) | ! [Xs] : H)``.
When ``H`` is a single negated atom (the shape clique guards take after
miniscoping) the renaming is negative: the occurrence becomes ``~P(Ys)``
and the definition ``! [Ys] : (P(Ys) | ! [Xs] : H)``, which keeps the
produced clauses Horn-friendly and guarded.

The output clauses are simple, covering and strongly compatible by
construction, which is what the resolution engine's a-priori literal
selection relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .syntax import (
    And, AtomF, Bottom, Exists, Forall, Formula, Iff, Implies, Not, Or,
    Problem, Top, _merge_quant, check_fragment, free_vars, negate_query,
    print_formula,
)
from .terms import (
    App, Clause, Const, Literal, SymbolKind, SymbolOrigin, SymbolTable,
    Term, Var, apply_term, term_vars,
)

MAX_DIRECT_CNF = 64


@dataclass
class TransOutput:
    lg_clauses: list[Clause]
    query_clauses: list[Clause]
    # how many of ``lg_clauses``, the first ones, come from the rules
    n_rule_clauses: int = 0


class ClausifyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# negation normal form and miniscoping


def _nnf(f: Formula, positive: bool) -> tuple[Formula, set[str]]:
    """The NNF of ``f`` (``positive``) or of ``~f``, with ``<=>``/``=>``
    expanded and negation pushed onto atoms, miniscoped in the same walk
    (:func:`_miniscope`); and its free variables, worked out bottom-up."""
    if isinstance(f, AtomF):
        return f if positive else Not(f), _atom_vars(f)
    if isinstance(f, Not):
        return _nnf(f.body, not positive)
    if isinstance(f, (And, Or)):
        return _join(isinstance(f, And) == positive,
                     [_nnf(g, positive) for g in f.items])
    if isinstance(f, Implies):
        return _join(not positive, [_nnf(f.left, not positive),
                                    _nnf(f.right, positive)])
    if isinstance(f, Iff):
        # (A => B) & (B => A), each side normalised once per polarity
        pl, nl = _nnf(f.left, True), _nnf(f.left, False)
        pr, nr = _nnf(f.right, True), _nnf(f.right, False)
        if positive:
            return _join(True, [_join(False, [nl, pr]),
                                _join(False, [nr, pl])])
        return _join(False, [_join(True, [pl, nr]), _join(True, [pr, nl])])
    if isinstance(f, (Forall, Exists)):
        body, free = _nnf(f.body, positive)
        return _miniscope(f.vars, body, free,
                          isinstance(f, Forall) == positive)
    if isinstance(f, (Top, Bottom)):
        return Top() if isinstance(f, Top) == positive else Bottom(), set()
    raise TypeError(f"not a formula: {f!r}")


def _atom_vars(a: AtomF) -> set[str]:
    out: set[str] = set()
    for t in a.args:
        term_vars(t, out)
    return out


def _join(conj: bool, parts: list[tuple[Formula, set[str]]]
          ) -> tuple[Formula, set[str]]:
    """The flattened conjunction (``conj``) or disjunction of ``parts``,
    with its free variables: all of the parts' unless a unit absorbed
    them."""
    items = tuple(g for g, _ in parts)
    g = _flatten(And(items) if conj else Or(items))
    if isinstance(g, (Top, Bottom)):
        return g, set()
    return g, set().union(*(free for _, free in parts))


def _flatten(f: Formula) -> Formula:
    """Flatten nested conjunctions/disjunctions and simplify units."""
    cls = f.__class__
    if cls is not And and cls is not Or:
        return f
    unit, zero = (Top, Bottom) if cls is And else (Bottom, Top)
    items: list[Formula] = []
    for g in f.items:  # type: ignore[union-attr]
        kind = g.__class__
        if kind is cls:
            items.extend(g.items)  # type: ignore[union-attr]
        elif kind is zero:
            return zero()
        elif kind is not unit:
            items.append(g)
    if not items:
        return unit()
    return items[0] if len(items) == 1 else cls(tuple(items))


def _miniscope(qvars: tuple[str, ...], body: Formula, free: set[str],
               universal: bool) -> tuple[Formula, set[str]]:
    """Quantify the miniscoped NNF ``body``, whose free variables are
    ``free``, over ``qvars``, narrowing the scope of a clique-guard block;
    and the free variables left.

    In NNF a negated clique guard ``~? [Xs] : (A1 & ... & An)`` is a
    universal block over a disjunction of negated atoms.  Each quantified
    variable is pushed into the disjuncts it occurs in, splitting the block
    into per-atom universals, which is the shape the renaming step expects.
    Other quantifiers are left alone (vacuous ones are dropped) so Skolem
    functions keep their full universal prefix.
    """
    quant = Forall if universal else Exists
    free = set(free)
    # a guard block's disjuncts, each with its free variables
    block: Optional[list[tuple[Formula, set[str]]]] = None
    if universal and isinstance(body, Or) and \
            all(isinstance(g, Not) and isinstance(g.body, AtomF)
                for g in body.items):
        block = [(g, _atom_vars(g.body))  # type: ignore[union-attr]
                 for g in body.items]
    for v in qvars:
        if v not in free:
            continue
        free.discard(v)
        if block is not None:
            inside = [(g, fv) for g, fv in block if v in fv]
            outside = [(g, fv) for g, fv in block if v not in fv]
            if outside:
                # the disjuncts are miniscoped already and each holds
                # v, so v's universal over them is final as it stands
                pushed = inside[0][0] if len(inside) == 1 \
                    else Or(tuple(g for g, _ in inside))
                fv = set().union(*(fv for _, fv in inside))
                fv.discard(v)
                block = [(Forall((v,), pushed), fv), *outside]
                body = Or(tuple(g for g, _ in block))
                continue
            block = None
        body = quant((v,), body)
    return body, free


# ---------------------------------------------------------------------------
# renaming of universal subformulas


class _Renamer:
    def __init__(self, symbols: SymbolTable) -> None:
        self.symbols = symbols
        self.definitions: dict[str, Formula] = {}
        self.conjuncts: list[Formula] = []

    def run(self, f: Formula) -> list[Formula]:
        """Split ``f`` into conjuncts, each with at most one universal
        quantifier block (at guard level).  Top-level universals stay in
        place, each skolemised over its own universals only."""
        top: list[Formula] = []
        for g in f.items if isinstance(f, And) else (f,):
            if isinstance(g, Forall):
                g = _merge_quant(g)
                g = Forall(g.vars, self._replace(g.body))
            else:
                g = self._replace(g)
            top.append(g)
        return [g for g in top + self.conjuncts if not isinstance(g, Top)]

    def _replace(self, f: Formula) -> Formula:
        if isinstance(f, And):
            return _flatten(And(tuple(self._replace(g) for g in f.items)))
        if isinstance(f, Or):
            return _flatten(Or(tuple(self._replace(g) for g in f.items)))
        if isinstance(f, Exists):
            return Exists(f.vars, self._replace(f.body))
        if isinstance(f, Forall):
            return self._rename_universal(f)
        return f

    def _rename_universal(self, f: Forall) -> Formula:
        f = _merge_quant(f)
        fv = list(free_vars(f))
        negative = isinstance(f.body, Not) and isinstance(f.body.body, AtomF)
        sym = self.symbols.fresh(
            "p", SymbolKind.PREDICATE if fv else SymbolKind.PROPOSITIONAL,
            len(fv), SymbolOrigin.DEFINER)
        head = AtomF(sym.name, tuple(Var(v) for v in fv))
        inner = Forall(f.vars, self._replace(f.body))
        if negative:
            definition: Formula = Or((head, inner))
        else:
            definition = Or((Not(head), inner))
        if fv:
            definition = Forall(tuple(fv), definition)
        self.definitions[sym.name] = definition
        self.conjuncts.append(definition)
        return Not(head) if negative else head


# ---------------------------------------------------------------------------
# prenexing and Skolemisation


def skolemize(f: Formula, symbols: SymbolTable,
              skolem_map: dict[str, str]) -> Formula:
    """Prenex one conjunct and replace existentials by Skolem terms.

    One prefix-order walk renames each bound variable apart (``X``, then
    ``X_1``, ...) and gives each existential a Skolem term over every
    universal declared before it in that order, siblings' included.
    Returns the quantifier-free matrix.
    """
    return _skolem_walk(f, symbols, skolem_map, set(), [], {})


def _skolem_walk(f: Formula, symbols: SymbolTable, skolem_map: dict[str, str],
                 used: set[str], universals: list[Var],
                 env: dict[str, Term]) -> Formula:
    if isinstance(f, (Forall, Exists)):
        env = dict(env)
        for v in f.vars:
            name = v
            n = 0
            while name in used:
                n += 1
                name = f"{v}_{n}"
            used.add(name)
            if isinstance(f, Forall):
                u = env[v] = Var(name)
                universals.append(u)
                continue
            if universals:
                sym = symbols.fresh("sk", SymbolKind.FUNCTION,
                                    len(universals), SymbolOrigin.SKOLEM)
                env[v] = App(sym.name, tuple(universals))
            else:
                sym = symbols.fresh("skc", SymbolKind.CONSTANT, 0,
                                    SymbolOrigin.SKOLEM)
                env[v] = Const(sym.name)
            skolem_map[sym.name] = name
        return _skolem_walk(f.body, symbols, skolem_map, used, universals,
                            env)
    if isinstance(f, (And, Or)):
        return _flatten(type(f)(tuple(
            _skolem_walk(g, symbols, skolem_map, used, universals, env)
            for g in f.items)))
    if isinstance(f, Not):
        return Not(_skolem_walk(f.body, symbols, skolem_map, used,
                                universals, env))
    if isinstance(f, AtomF) and env:
        return AtomF(f.pred, tuple(apply_term(t, env) for t in f.args))
    return f


# ---------------------------------------------------------------------------
# CNF


def to_clauses(matrix: Formula, symbols: SymbolTable) -> list[Clause]:
    """CNF of a quantifier-free NNF matrix.

    Distribution is direct unless it would overshoot ``MAX_DIRECT_CNF``
    clauses, in which case offending conjunctions under a disjunction are
    renamed with fresh definer atoms first.  Tautologies are dropped and
    repeated literals merged.
    """
    if _cnf_size(matrix) > MAX_DIRECT_CNF:
        matrix = _bounded_rename(matrix, symbols)
    out: list[Clause] = []
    for lits in _distribute(matrix):
        signs: dict[tuple, bool] = {}
        if all(signs.setdefault((l.pred, l.args), l.pos) is l.pos
               for l in lits):
            out.append(Clause(dict.fromkeys(lits)))
    return out


def _cnf_size(f: Formula) -> int:
    if isinstance(f, And):
        return sum(_cnf_size(g) for g in f.items)
    if isinstance(f, Or):
        n = 1
        for g in f.items:
            n *= _cnf_size(g)
        return n
    return 1


def _bounded_rename(f: Formula, symbols: SymbolTable) -> Formula:
    if _cnf_size(f) <= MAX_DIRECT_CNF:
        return f
    if isinstance(f, And):
        return _flatten(And(tuple(_bounded_rename(g, symbols)
                                  for g in f.items)))
    if isinstance(f, Or):
        items = list(f.items)
        # rename the biggest conjunctive disjunct and retry
        idx = max(range(len(items)), key=lambda i: _cnf_size(items[i]))
        g = items[idx]
        if not isinstance(g, And):
            return f
        fv = list(free_vars(g))
        sym = symbols.fresh(
            "p", SymbolKind.PREDICATE if fv else SymbolKind.PROPOSITIONAL,
            len(fv), SymbolOrigin.DEFINER)
        head = AtomF(sym.name, tuple(Var(v) for v in fv))
        items[idx] = head
        definition = _flatten(And(tuple(
            _flatten(Or((Not(head), h))) for h in g.items)))
        return _flatten(And((
            _bounded_rename(_flatten(Or(tuple(items))), symbols),
            _bounded_rename(definition, symbols))))
    return f


def _distribute(f: Formula) -> list[list[Literal]]:
    """The clauses of ``f`` by distribution, as literal lists."""
    if isinstance(f, And):
        out: list[list[Literal]] = []
        for g in f.items:
            out.extend(_distribute(g))
        return out
    if isinstance(f, Or):
        combos: list[list[Literal]] = [[]]
        for g in f.items:
            part = _distribute(g)
            combos = [c + d for c in combos for d in part]
        return combos
    if isinstance(f, Bottom):
        return [[]]
    if isinstance(f, Top):
        return []
    if isinstance(f, AtomF):
        return [[Literal(True, f.pred, f.args)]]
    if isinstance(f, Not) and isinstance(f.body, AtomF):
        return [[Literal(False, f.body.pred, f.body.args)]]
    raise ClausifyError(f"not a literal: {print_formula(f)}")


# ---------------------------------------------------------------------------
# the full transformation


def clausify_formula(f: Formula, symbols: SymbolTable,
                     definitions: dict[str, Formula],
                     skolem_map: dict[str, str]) -> list[Clause]:
    f, free = _nnf(f, True)
    # the free variables are closed existentially
    f = _miniscope(tuple(sorted(free)), f, free, False)[0]
    renamer = _Renamer(symbols)
    renamer.definitions = definitions
    out: list[Clause] = []
    for conjunct in renamer.run(f):
        matrix = skolemize(conjunct, symbols, skolem_map)
        out.extend(to_clauses(matrix, symbols))
    return out


def trans(problem: Problem) -> TransOutput:
    """Clausify a problem: rules, then ``formula:`` statements, then facts
    into LG clauses (the first ``n_rule_clauses`` of them are the rules',
    the last ``len(problem.facts)`` the facts), negated query disjuncts
    into query clauses.  Rules and formulas must lie in one of the
    guarded fragments."""
    symbols = problem.symbols
    out = TransOutput([], [])
    for kind, fs in (("rule", problem.rules), ("formula", problem.formulas)):
        for f in fs:
            res = check_fragment(f)
            if res.fragment == "none":
                wit = print_formula(res.witness) if res.witness else "?"
                raise ClausifyError(
                    f"{kind} outside the supported fragments: "
                    f"{print_formula(f)} (offending part: {wit})")
            out.lg_clauses.extend(clausify_formula(f, symbols, {}, {}))
        if kind == "rule":
            out.n_rule_clauses = len(out.lg_clauses)
    for fact in problem.facts:
        out.lg_clauses.append(Clause((Literal(True, fact.pred, fact.args),)))
    for q in problem.queries:
        out.query_clauses.append(negate_query(q))
    return out
