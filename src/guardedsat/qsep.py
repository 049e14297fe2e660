"""Query separation: rewriting a query clause into guarded clauses and
inseparable chained-only query (ICQ) clauses.

A query clause is a flat negative clause (the negation of a Boolean
conjunctive query).  ``analyze`` computes its surface literals (those whose
variable set is not strictly contained in another literal's), its chained
variables (shared between surface literals with different variable sets)
and its isolated variables (the rest).

``q_sep`` repeatedly splits the clause:

* decomposable clauses split into variable-disjoint parts linked by two
  fresh propositional symbols;
* an indecomposable clause with isolated variables gives up a surface
  literal, together with everything touching its isolated variables, to a
  fresh definer over its chained variables;
* chained-only indecomposable clauses (variable cycles) are emitted as ICQ
  clauses, everything else lands in the guarded set.

Fresh definers are drawn from a :class:`DefinitionRegistry` keyed by the
canonical form of the defined subclause, so re-separating the same shape
reuses the same symbol; this is what keeps saturation finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .terms import (
    Clause, Literal, SymbolKind, SymbolOrigin, SymbolTable, Var, canonical,
    clause_vars, condense, lit_vars, literal_key, membership,
    variable_components,
)

_MARK = "?def"


@dataclass(frozen=True, slots=True)
class QueryAnalysis:
    surface: tuple[Literal, ...]
    chained: frozenset[str]
    isolated: frozenset[str]


def analyze(q: Clause) -> QueryAnalysis:
    """The surface literals of ``q`` in clause order, and its chained and
    isolated variables.

    A variable set can be strictly inside only the sets that hold all of
    its variables, so each distinct set is tested against the holders of
    its rarest variable alone; an empty set is strictly inside any other.
    A variable is chained iff two surface literals with different
    variable sets hold it.  On a query whose variables each occur in a
    bounded number of literals, both take time linear in its size."""
    varsets = [lit_vars(lit) for lit in q]
    holders: dict[str, list[frozenset[str]]] = {}
    for vs in dict.fromkeys(varsets):
        for v in vs:
            holders.setdefault(v, []).append(vs)
    inside: dict[frozenset[str], bool] = {}
    surface = []
    for lit, vs in zip(q.literals, varsets):
        strict = inside.get(vs)
        if strict is None:
            strict = inside[vs] = _strictly_inside(vs, holders)
        if not strict:
            surface.append(lit)
    first: dict[str, frozenset[str]] = {}
    chained: set[str] = set()
    for lit in surface:
        vs = lit_vars(lit)
        for v in vs:
            if first.setdefault(v, vs) != vs:
                chained.add(v)
    return QueryAnalysis(
        surface=tuple(surface),
        chained=frozenset(chained),
        isolated=clause_vars(q) - chained,
    )


def _strictly_inside(vs: frozenset[str],
                     holders: dict[str, list[frozenset[str]]]) -> bool:
    """Whether the variable set ``vs`` is strictly inside one of the sets
    in ``holders``, the distinct sets of a clause by variable."""
    if not vs:
        return bool(holders)
    rare = None
    for v in vs:
        held = holders[v]
        if rare is None or len(held) < len(rare):
            rare = held
    for other in rare:
        if vs < other:
            return True
    return False


class DefinitionRegistry:
    """Canonical-clause-form keyed registry of definer symbols.

    The key of a definition is the canonical form (condensed, variables
    renumbered by first occurrence) of the defined subclause with a marker
    literal holding the definer's argument tuple.  Defining the same shape
    twice returns the same symbol.
    """

    def __init__(self, symbols: SymbolTable) -> None:
        self.symbols = symbols
        self._defs: dict[tuple, str] = {}

    def __len__(self) -> int:
        return len(self._defs)

    def definer(self, subclause: list[Literal], args: tuple[Var, ...]) -> str:
        """Definer symbol for ``subclause`` abstracted over ``args``."""
        key = canonical(Clause(subclause + [Literal(True, _MARK, args)])
                        ).literals
        name = self._defs.get(key)
        if name is None:
            kind = SymbolKind.PREDICATE if args else SymbolKind.PROPOSITIONAL
            name = self._defs[key] = self.symbols.fresh(
                "q", kind, len(args), SymbolOrigin.DEFINER).name
        return name


@dataclass
class SepResult:
    guarded: list[Clause] = field(default_factory=list)
    icq: list[Clause] = field(default_factory=list)
    acyclic: bool = True
    fresh_symbols: int = 0


def _split_components(q: Clause) -> list[list[Literal]]:
    """Variable-connected components; variable-free literals attach to the
    first component so a split always shrinks the variable part."""
    ground = [l for l in q if not lit_vars(l)]
    rest = [l for l in q if lit_vars(l)]
    comps = variable_components(Clause(rest)) if rest else []
    if ground:
        if comps:
            comps[0] = comps[0] + ground
        else:
            comps = [ground]
    return comps


def sep_decomposable(q: Clause, reg: DefinitionRegistry
                     ) -> tuple[Clause, Clause, Clause]:
    """Split ``C | D`` into ``C | ~p1``, ``~p2 | D`` and ``p1 | p2``."""
    comps = _split_components(q)
    assert len(comps) > 1
    c_part, d_part = comps[0], [l for grp in comps[1:] for l in grp]
    p1 = reg.definer(c_part, ())
    p2 = reg.definer(d_part, ())
    return (Clause(c_part + [Literal(False, p1)]),
            Clause([Literal(False, p2)] + d_part),
            Clause([Literal(True, p1), Literal(True, p2)]))


def sep_indecomposable(q: Clause, reg: DefinitionRegistry,
                       an: QueryAnalysis) -> tuple[Clause, Clause]:
    """One separation step on an indecomposable query clause.

    Picks the surface literal with the most isolated variables (ties broken
    structurally), peels it off together with the literals sharing its
    isolated variables, and bridges through a fresh definer over the
    chained variables that remain in the residue.
    """
    def iso_count(lit: Literal) -> int:
        return len(lit_vars(lit) & an.isolated)

    cands = [l for l in an.surface if iso_count(l) > 0]
    pick = sorted(cands, key=lambda l: (-iso_count(l), literal_key(l)))[0]
    iso = lit_vars(pick) & an.isolated
    c_part = [l for l in q if l != pick and lit_vars(l) & iso]
    d_part = [l for l in q if l != pick and not (lit_vars(l) & iso)]
    d_vars = clause_vars(Clause(d_part))
    # definer arguments: chained variables of the picked literal that the
    # residue still needs, in first-occurrence order within the literal
    xbar = tuple(dict.fromkeys(
        v for v in _var_order(pick) if v in an.chained and v in d_vars))
    args = tuple(Var(v) for v in xbar)
    name = reg.definer(c_part + [pick], args)
    sep = Clause(c_part + [pick, Literal(True, name, args)])
    residue = Clause([Literal(False, name, args)] + d_part)
    return sep, residue


def _var_order(lit: Literal) -> list[str]:
    out: list[str] = []
    for a in lit.args:
        if isinstance(a, Var) and a.name not in out:
            out.append(a.name)
    return out


def q_sep(q: Clause, reg: DefinitionRegistry) -> SepResult:
    """Separate a query clause to a fixpoint.

    Returns the guarded clauses and the ICQ clauses; the query was acyclic
    iff no ICQ clause is produced.
    """
    res = SepResult()
    before = len(reg)
    todo = [q]
    while todo:
        cur = condense(todo.pop())
        if cur.is_empty():
            res.guarded.append(cur)
            continue
        if "LG" in membership(cur):
            # already in the clausal class (covers ground literals and
            # loosely guarded residues); re-splitting could loop on the
            # propositional definers a split introduces
            res.guarded.append(cur)
            continue
        if len(_split_components(cur)) > 1:
            c1, c2, link = sep_decomposable(cur, reg)
            res.guarded.append(link)
            todo.extend([c1, c2])
            continue
        an = analyze(cur)
        if not an.chained:
            # isolated-only residue: loosely covered by any surface literal
            res.guarded.append(cur)
            continue
        if not an.isolated:
            res.icq.append(cur)
            res.acyclic = False
            continue
        sep, residue = sep_indecomposable(cur, reg, an)
        res.guarded.append(sep)
        todo.append(residue)
    res.fresh_symbols = len(reg) - before
    return res


def is_icq(c: Clause) -> bool:
    """Chained-only indecomposable query clause (a variable cycle)."""
    m = membership(c)
    return "query" in m and "LG" not in m and not c.is_empty()
