"""Shared random generators and reference rules for the test suites.

The generators build clauses in the loosely guarded class by
construction: a guard literal covers every variable pair, compound terms
contain the full variable sequence (covering + strong compatibility).

The reference rules are the nested-loop top-variable join
(:func:`reference_com_t_all`), which the engine's join and its one
result per top-literal assignment are checked against, full and partial
simultaneous resolution (:func:`s_res`, :func:`p_res`, each giving an
:class:`Inference`), which the redundancy tests compare, factoring on
the maximal literals that the clause record held for a ``"max"`` clause
(:func:`reference_factor`), the multiset extension of the literal order
to clauses (:func:`clause_gt`), the lexicographic path order as first
written (:func:`reference_lpo_gt`, which ``LPO.gt`` must agree with),
and the resolution of a triangular
unifier by applying it until nothing changes
(:func:`reference_normalize`).

The reference kernels are the clause-order subsumption search, the
pairwise condensation loop, and membership read off the enumeration of
every minimal loose guard (:func:`loose_guards`); the kernels in
``terms`` must give the same answers.  :func:`is_variant`, the variant
check the suites use as ground truth, runs the same search in connected
order, and is checked against the clause-order one;
:func:`reference_search_order` finds that order by scanning every
unplaced literal at each step, as ``terms._search_order`` did before it
kept counts.
:class:`ReferenceSaturationState` inserts with the linear forward and
backward subsumption scan and picks with a scan of every usable weight,
which the indexed :meth:`guardedsat.qans.SaturationState.insert` and
the weight buckets of :meth:`~guardedsat.qans.SaturationState.pick`
must agree with.

:func:`reference_parse` and :func:`reference_parse_formula` are the
parser that walked the text one character at a time into token objects
carrying their line and column, declaring each symbol at the same point
as the parser does; ``syntax.parse`` and :func:`parse_formula` (the
product parser on one bare formula) must give the same statements,
symbol table and errors.
:func:`reference_check_fragment` decides the fragment with one pass per
fragment (GF, then LGF, then CGF); ``syntax.check_fragment`` must give
the same fragment and witness.  :func:`reference_miniscope` is the
miniscoping that asked for free variables afresh at each step, and
:func:`reference_to_nnf` the NNF pass that ran before it, after a pass
expanding ``<=>``; the clausifier's one NNF-and-miniscoping walk must
give an equal formula.  :func:`reference_clausify_formula` is the
clausifier with those passes and a CNF that distributed into formula
lists (:func:`reference_to_clauses`); ``clausify.clausify_formula`` must
give the same clauses in order, definitions, Skolem map and symbols.
:func:`reference_q_rew` is the rewriting as a chain of passes that each
rebuild every clause (upper-casing, the fixpoint abstraction
:func:`abstract`, which pulls out one constant (:func:`con_abs`) or one
repeated argument variable (:func:`var_abs`) at a time behind a fresh
guarded variable, :func:`partition_closed`, :func:`var_re`, the
internalisation of Skolem constants, :func:`property_gate`, the
replacement of Skolem terms); ``qrew.q_rew``, which names the shared
argument tuple once and writes one disequation per constant or repeated
argument, must give the same Σ_q, conjuncts and errors.
:func:`reference_skolemize` is the Skolemisation that prenexed a
conjunct in one walk and substituted the Skolem terms in a second;
``clausify.skolemize`` must give the same matrix, symbols and map.
:func:`reference_analyze` is the query analysis by pairwise scans of
the literals' variable sets; ``qsep.analyze`` must give the same
surface, chained and isolated variables.  :func:`digest_problems` lists
the problems of ``scripts/trace_digest.py``.
:func:`reference_literal_key` is the literal sort key as first written,
with ``isinstance`` tests and generators; ``Clause`` must sort by it.
:func:`reference_lit_vars`, :func:`reference_clause_vars`,
:func:`reference_is_ground_lit` and :func:`reference_is_ground` walk the
terms on every call; the facts ``terms`` caches on literals and clauses
must equal them.  :func:`reference_kept_sides` names the side premises
of the top-variable join by renaming only the top sides of the kept
tuples, kept tuple after kept tuple in clause-id order;
:func:`~guardedsat.engine.com_t_all` must give its kept tuples those
names.  :func:`reference_saturate` is the loop
that inserted the empty clause, sweeping the state with it, before it
stopped.

:func:`data_sweep_instances` gives the instances of
``scripts/data_sweep.py`` from the benchmark's own generator.

:func:`herbrand_sat` (exact satisfiability of function-free sets),
:func:`ground_entails` (propositional entailment between ground clauses)
and :func:`eval_clause` (truth of a clause in an
:class:`~guardedsat.oracle.FiniteModel`) are the oracles only the tests
use; they share no code with the engine.  :func:`depth` is the depth of
the deepest term in a term, literal or clause.
"""

from __future__ import annotations

import importlib.util
import itertools
import random
import string
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from guardedsat.clausify import (
    ClausifyError, _Renamer, _bounded_rename, _flatten, skolemize,
)
from guardedsat.engine import (
    ClauseIndex, Derivation, TopVarResult, _remove_one, com_t_all, dispatch,
    is_tautology,
)
from guardedsat.oracle import FiniteModel, dpll
from guardedsat.orders import _KIND_RANK, _ORIGIN_RANK, Cmp, LPO, Precedence
from guardedsat.qans import SaturationState, clause_weight, inferences
from guardedsat.qsep import QueryAnalysis
from guardedsat.qrew import RewriteError, RewriteResult
from guardedsat.syntax import (
    EQ_PRED, MAX_NESTING, And, AtomF, Bottom, Exists, Forall, Formula,
    FragmentResult, Iff, Implies, Not, Or, ParseError, Problem, Top, _END,
    _Parser as _SyntaxParser, _atom_ok, _conj_atoms, _merge_quant,
    expand_iff, free_vars, print_formula,
)
from guardedsat.terms import (
    EQ, App, Clause, Const, Literal, Subst, SymbolKind, SymbolOrigin,
    SymbolTable, Term, Var, _is_flat_term, apply_clause, apply_lit,
    apply_term, classify, clause_vars, compound_terms,
    condense, connected_groups, is_ground, lit_vars, match_lit, membership,
    mgu_lits, renaming, subsumes, term_depth, term_vars,
)

CONSTS = ("c1", "c2", "c3")


def data_sweep_instances(sizes: Sequence[int]) -> list:
    """The instances ``scripts/data_sweep.py --sizes ...`` answers: per
    size N one No and one Yes ``data`` instance from
    ``perfbench/workloads.data_instance``, generator seeded with 1.  Each
    has ``text`` and the ``expected`` verdict."""
    name = "perfbench_workloads"
    workloads = sys.modules.get(name)
    if workloads is None:
        path = Path(__file__).resolve().parent.parent / "perfbench" \
            / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        assert spec is not None and spec.loader is not None
        workloads = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    rng = random.Random(1)
    return [workloads.data_instance(rng, n, yes, f"N{n}")
            for n in sizes for yes in (False, True)]


def make_symbols(n_preds: int = 6, max_arity: int = 3,
                 n_funcs: int = 0, rng: random.Random | None = None
                 ) -> SymbolTable:
    rng = rng or random.Random(0)
    s = SymbolTable()
    for c in CONSTS:
        s.declare(c, SymbolKind.CONSTANT, 0, SymbolOrigin.INPUT)
    for i in range(n_preds):
        s.declare(f"p{i + 1}", SymbolKind.PREDICATE,
                  rng.randint(1, max_arity), SymbolOrigin.INPUT)
    for i in range(n_funcs):
        s.declare(f"f{i + 1}", SymbolKind.FUNCTION,
                  rng.randint(1, 2), SymbolOrigin.SKOLEM)
    return s


def preds(symbols: SymbolTable) -> list[tuple[str, int]]:
    return [(sym.name, sym.arity) for sym in symbols
            if sym.kind is SymbolKind.PREDICATE]


def funcs(symbols: SymbolTable) -> list[tuple[str, int]]:
    return [(sym.name, sym.arity) for sym in symbols
            if sym.kind is SymbolKind.FUNCTION]


def random_lg_clause(symbols: SymbolTable, rng: random.Random,
                     allow_compound: bool = True) -> Clause:
    """A random clause in the loosely guarded class."""
    ps = preds(symbols)
    k = rng.randint(1, 3)
    vs = tuple(Var(f"x{i + 1}") for i in range(k))
    lits: list[Literal] = []
    # guard: one negative literal per variable pair (or one covering all)
    wide = [(p, a) for p, a in ps if a >= k]
    if wide and rng.random() < 0.7:
        p, a = rng.choice(wide)
        args = list(vs) + [rng.choice(vs) for _ in range(a - k)]
        rng.shuffle(args)
        # make sure every variable still occurs
        for i, v in enumerate(vs):
            if v not in args:
                args[i] = v
        lits.append(Literal(False, p, tuple(args)))
    else:
        pairs = [(vs[i], vs[j]) for i in range(k) for j in range(i + 1, k)]
        if not pairs:
            pairs = [(vs[0], vs[0])]
        binary = [(p, a) for p, a in ps if a >= 2] or ps
        for v1, v2 in pairs:
            p, a = rng.choice(binary)
            args = [v1, v2] + [rng.choice(vs) for _ in range(a - 2)]
            lits.append(Literal(False, p, tuple(args[:a])
                                if a >= 2 else (v1,)))
    # positive literals, possibly with one shared compound term
    fns = funcs(symbols)
    fn_term = None
    if allow_compound and fns and rng.random() < 0.5:
        name = rng.choice([f for f, a in fns])
        fn_term = App(name, vs)  # arity adjusted below
        sym = symbols.get(name)
        if sym.arity != k:
            fn_term = None
    for _ in range(rng.randint(1, 2)):
        p, a = rng.choice(ps)
        args = []
        for _ in range(a):
            r = rng.random()
            if fn_term is not None and r < 0.4:
                args.append(fn_term)
            elif r < 0.8:
                args.append(rng.choice(vs))
            else:
                args.append(Const(rng.choice(CONSTS)))
        lits.append(Literal(True, p, tuple(args)))
    return Clause(lits)


def random_lg_set(symbols: SymbolTable, rng: random.Random, n: int,
                  allow_compound: bool = True) -> list[Clause]:
    out = []
    guard = 0
    while len(out) < n and guard < 50 * n:
        guard += 1
        c = random_lg_clause(symbols, rng, allow_compound)
        if "LG" in membership(c):
            out.append(c)
    return out


def random_ground_atom(symbols: SymbolTable, rng: random.Random,
                       compound: float = 0.0) -> Literal:
    """A positive literal over constants; with probability ``compound``
    one argument is a ground compound term instead, as in a derived fact
    over Skolem terms, nested one time in three."""
    p, a = rng.choice(preds(symbols))
    args = [Const(rng.choice(CONSTS)) for _ in range(a)]
    if compound and rng.random() < compound:
        t: Term = Const(rng.choice(CONSTS))
        for _ in range(1 + (rng.random() < 1 / 3)):
            f, k = rng.choice(funcs(symbols))
            t = App(f, (t,) + tuple(Const(rng.choice(CONSTS))
                                    for _ in range(k - 1)))
        args[rng.randrange(a)] = t
    return Literal(True, p, tuple(args))


def random_problem(rng: random.Random, n_preds: int = 6,
                   max_arity: int = 3) -> Problem:
    """A random function-free problem: ground facts, guarded rules with
    flat heads, one conjunctive query."""
    prob = Problem()
    s = prob.symbols
    for c in CONSTS:
        s.declare(c, SymbolKind.CONSTANT, 0, SymbolOrigin.INPUT)
    sig = []
    for i in range(rng.randint(2, n_preds)):
        a = rng.randint(1, max_arity)
        s.declare(f"p{i + 1}", SymbolKind.PREDICATE, a, SymbolOrigin.INPUT)
        sig.append((f"p{i + 1}", a))
    for _ in range(rng.randint(0, 4)):
        p, a = rng.choice(sig)
        prob.facts.append(AtomF(p, tuple(
            Const(rng.choice(CONSTS)) for _ in range(a))))
    for _ in range(rng.randint(1, 4)):
        gp, ga = rng.choice(sig)
        vs = tuple(Var(f"X{i + 1}") for i in range(ga))
        guard = AtomF(gp, vs)
        heads = []
        for _ in range(rng.randint(1, 2)):
            hp, ha = rng.choice(sig)
            heads.append(AtomF(hp, tuple(
                rng.choice(vs) for _ in range(ha))))
        head = heads[0] if len(heads) == 1 else Or(tuple(heads))
        prob.rules.append(Forall(tuple(v.name for v in vs),
                                 Implies(guard, head)))
    # conjunctive query over 2-3 atoms with shared variables
    qvars = tuple(f"Y{i + 1}" for i in range(rng.randint(1, 3)))
    atoms = []
    for _ in range(rng.randint(1, 3)):
        p, a = rng.choice(sig)
        atoms.append(AtomF(p, tuple(
            Var(rng.choice(qvars)) for _ in range(a))))
    body = atoms[0] if len(atoms) == 1 else And(tuple(atoms))
    prob.queries.append(Exists(qvars, body))
    return prob


_FORMULA_VARS = ("X", "Y", "Z", "U", "V")


def random_formula(rng: random.Random, depth: int = 3) -> Formula:
    """A random formula near the guarded fragments: quantifiers over
    guards of one or more atoms, sometimes existentially closed (clique
    guards), with ``<=>``, equality and function terms mixed in, and the
    guarded part mostly over the guard's variables."""

    def term(pool: Sequence[str]) -> Term:
        r = rng.random()
        if r < 0.06:
            return App("f", (term(pool),))
        if r < 0.12 or not pool:
            return Const(rng.choice(CONSTS))
        return Var(rng.choice(pool))

    def atom(pool: Sequence[str]) -> Formula:
        if rng.random() < 0.06:
            return AtomF(EQ_PRED, (term(pool), term(pool)))
        n = rng.choice((0, 1, 2, 2, 3))
        return AtomF(f"p{n}", tuple(term(pool) for _ in range(n)))

    def guard(pool: Sequence[str]) -> Formula:
        atoms = [atom(pool) for _ in range(rng.choice((1, 1, 2, 3)))]
        g = atoms[0] if len(atoms) == 1 else And(tuple(atoms))
        vs = sorted(free_vars(g))
        if vs and rng.random() < 0.25:
            g = Exists(tuple(rng.sample(vs, rng.randint(1, len(vs)))), g)
        return g

    def quantified(d: int, pool: Sequence[str]) -> Formula:
        qvars = rng.sample(_FORMULA_VARS, rng.randint(1, 2))
        g = guard(list(pool) + qvars)
        inner = sorted(free_vars(g))
        if rng.random() < 0.1:
            inner.append(rng.choice(_FORMULA_VARS))
        sub = formula(d - 1, inner)
        if rng.random() < 0.5:
            if rng.random() < 0.08:
                return Forall(tuple(qvars), sub)
            return Forall(tuple(qvars), Implies(g, sub))
        items = list(g.items) if isinstance(g, And) else [g]
        items.extend(formula(d - 1, inner) for _ in range(rng.randint(0, 2)))
        body = items[0] if len(items) == 1 else And(tuple(items))
        return Exists(tuple(qvars), body)

    def formula(d: int, pool: Sequence[str]) -> Formula:
        r = rng.random()
        if d <= 0 or r < 0.15:
            return Top() if r < 0.01 else atom(pool)
        if r < 0.25:
            return Not(formula(d - 1, pool))
        if r < 0.35:
            cls = And if rng.random() < 0.5 else Or
            return cls(tuple(formula(d - 1, pool)
                             for _ in range(rng.randint(2, 3))))
        if r < 0.42:
            return Implies(formula(d - 1, pool), formula(d - 1, pool))
        if r < 0.48:
            return Iff(formula(d - 1, pool), formula(d - 1, pool))
        return quantified(d, pool)

    return formula(depth, ())


# ---------------------------------------------------------------------------
# reference rules


def _iter_assignments(
        negs: Sequence[Literal], n: ClauseIndex, avoid: set[str],
        must_include: Optional[int],
) -> Iterator[tuple[list[tuple[Literal, int, tuple[Literal, ...], Literal]],
                    Subst]]:
    """All side-premise tuples (in clause-id order) simultaneously
    unifiable with all the selected literals, each side clause renamed
    literal by literal in its own order."""
    chosen: list[tuple[Literal, int, tuple[Literal, ...], Literal]] = []

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
            ren = renaming(side, avoid, n.fresh)
            side_r = tuple(apply_lit(l, ren) for l in side)
            pos_r = apply_lit(pos_lit, ren)
            new_pairs = pairs + [(pos_r, lit)]
            if mgu_lits(new_pairs) is None:
                continue
            chosen.append((lit, cid, side_r, pos_r))
            yield from extend(i + 1, new_pairs,
                              used_must or cid == must_include)
            chosen.pop()

    yield from extend(0, [], must_include is None)


def reference_com_t_all(main: Clause, n: ClauseIndex,
                        must_include: Optional[int] = None
                        ) -> Iterator[TopVarResult]:
    """The top-variable join as a nested loop that renames every candidate
    and re-solves the whole unifier at every level, one result per join
    tuple with the sides of its top literals.  Every other literal of a
    side clause is a rival of its side literal (the full side
    condition)."""
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
        sides = tuple(s for s in chosen if s[0] in top_literals)
        rivals = tuple(tuple(l for l in side_r if l != pos_r)
                       for _, _, side_r, pos_r in sides)
        yield TopVarResult(top_vars, top_literals, sides, rivals)


def reference_kept_sides(main: Clause, n: ClauseIndex,
                         must_include: Optional[int], fresh: Iterator[int]
                         ) -> list[tuple[tuple[Literal, int,
                                               tuple[Literal, ...],
                                               Literal], ...]]:
    """The side assignments :func:`~guardedsat.engine.com_t_all` keeps,
    with the names it gives them: the sides of the top literals.  Nested
    loops enumerate the join tuples in clause-id order, and the first
    tuple of each key (top variables, side literal of each top literal)
    is kept.  A kept tuple renames each of its top sides apart from
    ``main`` with one :func:`renaming` call drawing from ``fresh``, level
    by level, each side clause's literals in the clause's own order.  No
    other side and no tuple not kept draws a name; the unifiability tests
    draw theirs elsewhere."""
    negs = [l for l in main if not l.pos]
    mvars = clause_vars(main)
    trial = itertools.count(10 ** 6)
    kept: dict[tuple, tuple[tuple[Literal, int, tuple[Literal, ...],
                                  Literal], ...]] = {}

    def extend(i: int, chosen: list[tuple[int, Clause, Literal]],
               pairs: list[tuple[Literal, Literal]]) -> None:
        if i == len(negs):
            if must_include is not None and \
                    all(cid != must_include for cid, _, _ in chosen):
                return
            sigma = mgu_lits(pairs)
            assert sigma is not None
            depths = {v: term_depth(apply_term(Var(v), sigma)) for v in mvars}
            top = max(depths.values(), default=0)
            top_vars = frozenset(v for v, d in depths.items() if d == top)
            key = (top_vars, tuple((k, cid, pos) for k, (neg, (cid, _, pos))
                                   in enumerate(zip(negs, chosen))
                                   if lit_vars(neg) & top_vars))
            if key in kept:
                return
            sides = []
            for neg, (cid, side, pos) in zip(negs, chosen):
                if lit_vars(neg) & top_vars:
                    ren = renaming(side, mvars, fresh)
                    sides.append((neg, cid,
                                  tuple(apply_lit(l, ren) for l in side),
                                  apply_lit(pos, ren)))
            kept[key] = tuple(sides)
            return
        neg = negs[i]
        for cid, side, pos in n.side_candidates(neg.pred):
            if len(pos.args) != len(neg.args):
                continue
            new_pairs = pairs + [(apply_lit(
                pos, renaming(side, mvars, trial)), neg)]
            if mgu_lits(new_pairs) is not None:
                extend(i + 1, chosen + [(cid, side, pos)], new_pairs)

    extend(0, [], [])
    return list(kept.values())


def com_t(main: Clause, n: ClauseIndex,
          must_include: Optional[int] = None) -> Optional[TopVarResult]:
    """The first side-premise assignment of :func:`com_t_all`, or ``None``
    when the selected literals of ``main`` have none."""
    for tv in com_t_all(main, n, must_include=must_include):
        return tv
    return None


@dataclass(frozen=True)
class Inference:
    """One step of :func:`s_res` or :func:`p_res`: the rule, the main and
    side premise ids, the unifier as sorted pairs and the conclusion."""
    rule: str  # "SRes" | "PRes"
    main: int
    sides: tuple[int, ...]
    sigma: tuple[tuple[str, Term], ...]
    conclusion: Clause


def _first_assignment(main: Clause, n: ClauseIndex
                      ) -> Optional[list[tuple[Literal, int,
                                               tuple[Literal, ...], Literal]]]:
    """The sides of the first join tuple for every selected literal of
    ``main``, renamed apart, or ``None`` when there is no tuple."""
    negs = [l for l in main if not l.pos]
    for chosen, _ in _iter_assignments(negs, n, set(clause_vars(main)),
                                       None):
        return chosen
    return None


def s_res(main_id: int, main: Clause, n: ClauseIndex) -> list[Inference]:
    """Full simultaneous resolution: resolve *all* selected literals."""
    chosen = _first_assignment(main, n)
    if chosen is None:
        return []
    sigma = mgu_lits([(pos_r, mlit) for mlit, _, _, pos_r in chosen])
    assert sigma is not None
    lits = [l for l in main if l.pos]
    side_ids = []
    for (mlit, cid, side_r, pos_r) in chosen:
        side_ids.append(cid)
        lits.extend(_remove_one(side_r, pos_r))
    concl = Clause(dict.fromkeys(apply_lit(l, sigma) for l in lits))
    return [Inference("SRes", main_id, tuple(side_ids),
                      tuple(sorted(sigma.items())), concl)]


def p_res(main_id: int, main: Clause, n: ClauseIndex,
          subset: Sequence[Literal]) -> list[Inference]:
    """Partial resolution: resolve a chosen subset of the selected
    literals, provided the full simultaneous unifier exists."""
    assignment = _first_assignment(main, n)
    if assignment is None:
        return []
    pairs = []
    side_ids = []
    extra: list[Literal] = []
    chosen = set(subset)
    for (mlit, cid, side_r, pos_r) in assignment:
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
    return [Inference("PRes", main_id, tuple(side_ids),
                      tuple(sorted(sigma.items())), concl)]


def reference_factor(cid: int, c: Clause, lpo: LPO) -> list[Derivation]:
    """Positive factoring as it read the clause record: nothing for a
    clause that is not ``"max"``; otherwise on each positive literal that
    the record listed as maximal, one that no other literal of ``c`` is
    greater than, with every later positive literal it unifies with."""
    if dispatch(c) != "max":
        return []
    maxlits = {l for l in c if not any(
        lpo.compare_lits(l, other) is Cmp.LT for other in c if other != l)}
    out: list[Derivation] = []
    pos = [l for l in c if l.pos]
    for i, a1 in enumerate(pos):
        if a1 not in maxlits:
            continue
        for a2 in pos[i + 1:]:
            sigma = mgu_lits([(a1, a2)])
            if sigma is not None:
                out.append(("Factor", (cid,), (Clause(dict.fromkeys(
                    apply_lit(l, sigma) for l in _remove_one(c, a2))),)))
    return out


def reference_normalize(sub: Subst) -> Subst:
    """``terms.normalize`` as first written: apply the triangular ``sub``
    to each variable again and again until the term stops changing."""
    out: Subst = {}
    for x in sub:
        t = apply_term(Var(x), sub)
        while True:
            t2 = apply_term(t, sub)
            if t2 == t:
                break
            t = t2
        if not (isinstance(t, Var) and t.name == x):
            out[x] = t
    return out


def clause_gt(lpo: LPO, c: Clause, d: Clause) -> bool:
    """Multiset extension of the literal order to clauses.

    C > D iff after removing a maximal common sub-multiset, every leftover
    literal of D is dominated by some leftover literal of C.  Total on
    ground clauses.
    """
    cs = list(c.literals)
    ds = list(d.literals)
    for lit in list(ds):
        if lit in cs:
            cs.remove(lit)
            ds.remove(lit)
    if not ds:
        return bool(cs)
    return all(
        any(lpo.compare_lits(lc, ld) is Cmp.GT for lc in cs) for ld in ds)


def reference_lpo_gt(prec: Precedence, s: Term, t: Term) -> bool:
    """:meth:`guardedsat.orders.LPO.gt` as first written: it collects the
    variables of ``s`` in a set, tests the arguments with ``any`` and
    ``all``, and builds both heads' precedence keys from the symbol table
    at each comparison."""

    def key(name: str) -> tuple:
        sym = prec.symbols.get(name)
        if sym is None:
            raise KeyError(f"symbol {name!r} not declared")
        return (_KIND_RANK[sym.kind], _ORIGIN_RANK[sym.origin], sym.arity,
                sym.name_key)

    def gt(s: Term, t: Term) -> bool:
        if s == t:
            return False
        if isinstance(s, Var):
            return False
        if isinstance(t, Var):
            return t.name in term_vars(s)
        sargs = s.args if isinstance(s, App) else ()
        targs = t.args if isinstance(t, App) else ()
        if any(si == t or gt(si, t) for si in sargs):
            return True
        f = s.fn if isinstance(s, App) else s.name
        g = t.fn if isinstance(t, App) else t.name
        if f != g:
            return key(f) > key(g) and all(gt(s, tj) for tj in targs)
        # same head: lexicographic on arguments
        for si, ti in zip(sargs, targs):
            if si == ti:
                continue
            return gt(si, ti) and all(gt(s, tj) for tj in targs)
        return False

    return gt(s, t)


# ---------------------------------------------------------------------------
# reference literal order


def _reference_term_key(t: Term) -> tuple:
    if isinstance(t, Var):
        # all variables compare equal structurally; names break ties last
        return (0, "", ())
    if isinstance(t, Const):
        return (1, t.name, ())
    return (2, t.fn, tuple(_reference_term_key(a) for a in t.args))


def reference_literal_key(lit: Literal) -> tuple:
    """Structural total order on literals (variable names ignored)."""
    return (lit.pred, len(lit.args), not lit.pos,
            tuple(_reference_term_key(a) for a in lit.args),
            tuple(str(a) for a in lit.args))


# ---------------------------------------------------------------------------
# reference per-literal and per-clause facts, walked afresh on every call


def reference_lit_vars(lit: Literal) -> set[str]:
    acc: set[str] = set()
    for a in lit.args:
        term_vars(a, acc)
    return acc


def reference_clause_vars(c: Clause) -> set[str]:
    acc: set[str] = set()
    for lit in c:
        acc |= reference_lit_vars(lit)
    return acc


def _reference_is_ground_term(t: Term) -> bool:
    if isinstance(t, Var):
        return False
    if isinstance(t, App):
        return all(_reference_is_ground_term(a) for a in t.args)
    return True


def reference_is_ground_lit(lit: Literal) -> bool:
    return all(_reference_is_ground_term(a) for a in lit.args)


def reference_is_ground(c: Clause) -> bool:
    return all(reference_is_ground_lit(lit) for lit in c)


# ---------------------------------------------------------------------------
# reference query analysis


def reference_analyze(q: Clause) -> QueryAnalysis:
    """The query analysis by pairwise scans: a literal is on the surface
    when no other literal's variable set strictly contains its own, and
    the chained variables are those two surface sets that differ
    share."""
    varsets = [(lit, frozenset(lit_vars(lit))) for lit in q]
    surface = tuple(lit for lit, vs in varsets
                    if not any(vs < vs2 for _, vs2 in varsets))
    surf_sets = [frozenset(lit_vars(l)) for l in surface]
    chained: set[str] = set()
    for i, vs1 in enumerate(surf_sets):
        for vs2 in surf_sets[i + 1:]:
            if vs1 != vs2:
                chained |= vs1 & vs2
    isolated = clause_vars(q) - chained
    return QueryAnalysis(
        surface=surface,
        chained=frozenset(chained),
        isolated=frozenset(isolated),
    )


def digest_problems() -> list[tuple[str, str]]:
    """(name, problem text) of every problem ``scripts/trace_digest.py``
    digests: the sweeps' problems, the fixtures and the benchmark's smoke
    problems."""
    scripts = str(Path(__file__).resolve().parent.parent / "scripts")
    if scripts not in sys.path:
        sys.path.insert(0, scripts)
    import trace_digest
    return list(trace_digest.problems())


# ---------------------------------------------------------------------------
# reference clause-redundancy kernels


def _reference_subsume_search(pat: Sequence[Literal],
                              target: Sequence[Literal], sub: Subst, i: int,
                              bijective: bool) -> Optional[Subst]:
    """Backtracking search over the pattern literals in clause order."""
    if i == len(pat):
        return sub
    for lit in target:
        nxt = match_lit(pat[i], lit, sub)
        if nxt is None:
            continue
        if bijective:
            imgs = [t for t in nxt.values()]
            if any(not isinstance(t, Var) for t in imgs):
                continue
            if len({t.name for t in imgs}) != len(imgs):  # type: ignore[union-attr]
                continue
        res = _reference_subsume_search(pat, target, nxt, i + 1, bijective)
        if res is not None:
            return res
    return None


def reference_subsumes(c: Clause, d: Clause) -> bool:
    """Classic theta-subsumption: some ``c sigma`` is a subset of ``d``."""
    # cheap filter: every predicate/polarity of c appears in d
    sig_d = {(l.pred, l.pos) for l in d}
    if any((l.pred, l.pos) not in sig_d for l in c):
        return False
    # one-way matching never applies its substitution to d, so c and d
    # may share variable names
    return _reference_subsume_search(c.literals, d.literals, {}, 0,
                                     False) is not None


def reference_search_order(lits: Sequence[Literal]) -> Sequence[Literal]:
    """The connected order by a scan of every unplaced literal per step:
    the first literal, then each time the first in clause order of those
    sharing the most variables with the literals already placed."""
    if len(lits) <= 2:
        return lits
    rest = [(lit_vars(lit), lit) for lit in lits]
    placed, first = rest.pop(0)
    order = [first]
    while rest:
        k = max(range(len(rest)), key=lambda i: len(rest[i][0] & placed))
        vs, lit = rest.pop(k)
        placed |= vs
        order.append(lit)
    return order


def lit_depth(lit: Literal) -> int:
    return max((term_depth(a) for a in lit.args), default=0)


def depth(c: Clause | Literal | Term) -> int:
    """Depth of the deepest term in an expression."""
    if isinstance(c, (Var, Const, App)):
        return term_depth(c)
    if isinstance(c, Literal):
        return lit_depth(c)
    return max((lit_depth(lit) for lit in c), default=0)


def width(c: Clause | Literal) -> int:
    """Number of distinct variables."""
    if isinstance(c, Literal):
        return len(lit_vars(c))
    return len(clause_vars(c))


def _variant(c: Clause, d: Clause, connected: bool) -> bool:
    """True if ``c`` and ``d`` differ only by a bijective variable
    renaming; each search visits its pattern in connected order
    (:meth:`~guardedsat.terms.Clause.search_order`) or in clause order."""
    if len(c) != len(d) or width(c) != width(d):
        return False
    return all(
        _reference_subsume_search(
            [p.literals[i] for i in p.search_order()] if connected
            else p.literals, q.literals, {}, 0, True) is not None
        for p, q in ((c, d), (d, c)))


def is_variant(c: Clause, d: Clause) -> bool:
    """True if ``c`` and ``d`` differ only by a bijective variable renaming.

    The searches run in connected order, which keeps long cyclic clauses
    cheap; this is the variant check the other suites use."""
    return _variant(c, d, True)


def reference_is_variant(c: Clause, d: Clause) -> bool:
    """:func:`is_variant` with the searches in clause order."""
    return _variant(c, d, False)


def reference_condense(c: Clause) -> Clause:
    """Smallest factor of ``c`` that subsumes ``c``, by repeated pairwise
    scans that each run a full subsumption search."""
    lits = list(dict.fromkeys(c.literals))  # drop exact duplicates
    changed = True
    while changed:
        changed = False
        for i, li in enumerate(lits):
            for j, lj in enumerate(lits):
                if i == j:
                    continue
                sub = match_lit(li, lj, {})
                if sub is None:
                    continue
                cand = list(dict.fromkeys(apply_lit(l, sub) for l in lits))
                if len(cand) < len(lits) and \
                        reference_subsumes(Clause(cand), Clause(lits)):
                    lits = cand
                    changed = True
                    break
            if changed:
                break
    return Clause(lits)


GROUND_GUARD = ()


def loose_guards(c: Clause) -> list[tuple[Literal, ...]]:
    """All minimal loose guards of a clause.

    A loose guard is a set of negative flat literals in which every variable
    of the clause occurs and every pair of distinct variables co-occurs in
    one literal.  A ground clause needs no guard: the distinguished witness
    ``()`` is returned.  Clauses with no guard yield the empty list.
    """
    if is_ground(c):
        return [GROUND_GUARD]
    cvars = sorted(clause_vars(c))
    need_pairs = {frozenset(p) for p in itertools.combinations(cvars, 2)}
    candidates = [lit for lit in c
                  if not lit.pos and not lit.is_eq
                  and all(_is_flat_term(a) for a in lit.args)]
    # BFS over subsets by size so only minimal guards are reported
    found: list[tuple[Literal, ...]] = []
    for size in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            if any(set(g) < set(combo) for g in found):
                continue
            covered_vars: set[str] = set()
            covered_pairs: set[frozenset[str]] = set()
            for lit in combo:
                vs = lit_vars(lit)
                covered_vars |= vs
                covered_pairs |= {frozenset(p)
                                  for p in itertools.combinations(sorted(vs), 2)}
            if covered_vars >= set(cvars) and covered_pairs >= need_pairs:
                found.append(combo)
    return found


def reference_membership(c: Clause) -> set[str]:
    """:func:`guardedsat.terms.membership` read off every minimal loose
    guard."""
    out: set[str] = set()
    flags = classify(c)
    if flags.flat and all(not lit.pos and not lit.is_eq for lit in c):
        out.add("query")
    if any(lit.is_eq for lit in c):
        return out
    guards = loose_guards(c)
    if flags.simple and flags.covering and flags.strongly_compatible and guards:
        out.add("LG")
        if any(len(g) <= 1 for g in guards):
            out.add("guarded")
            if sum(1 for lit in c if lit.pos) <= 1:
                out.add("horn_guarded")
    return out


# ---------------------------------------------------------------------------
# reference insertion


class ReferenceSaturationState(SaturationState):
    """A saturation state whose insert scans every clause of usable and
    worked-off for forward and backward subsumption, and whose pick scans
    every usable weight.  It keeps ``usable`` and ``weights`` itself and
    leaves the weight buckets empty."""

    def insert(self, c: Clause, rule: str,
               parents: tuple[int, ...] = ()) -> Optional[int]:
        """Forward-simplify and add a clause to usable; None if redundant."""
        c = condense(c)
        if is_tautology(c):
            return None
        # in id order, which fixes how many tests run before a subsumer
        for d in list(self.usable.values()) + \
                [cl for _, cl in self.worked_off.clauses()]:
            if len(d) <= len(c) and subsumes(d, c):
                return None
        # backward simplification: drop clauses the new one subsumes
        for cid, d in list(self.usable.items()):
            if len(c) <= len(d) and subsumes(c, d):
                del self.usable[cid]
                del self.weights[cid]
        for cid, d in list(self.worked_off.by_id.items()):
            if len(c) <= len(d) and subsumes(c, d):
                self.worked_off.remove(cid)
        cid = self.next_id
        self.next_id += 1
        self.usable[cid] = c
        self.weights[cid] = clause_weight(c)
        self.events.append((cid, rule, parents, c))
        return cid

    def pick(self) -> tuple[int, Clause]:
        """1-in-5 the least id, otherwise one of the sorted ids of least
        weight, drawn by the seeded RNG when there are several."""
        self.picks += 1
        if self.picks % 5 == 1:
            cid = min(self.usable)
        else:
            best = min(self.weights.values())
            ties = sorted(cid for cid, w in self.weights.items()
                          if w == best)
            cid = ties[self.rng.randrange(len(ties))] if len(ties) > 1 \
                else ties[0]
        del self.weights[cid]
        return cid, self.usable.pop(cid)


def reference_saturate(state: SaturationState) -> str:
    """The given-clause loop with the derived empty clause inserted, so
    that it drops every clause of the state it subsumes, before the loop
    stops."""
    while state.usable:
        if state.steps >= state.step_budget:
            return "unknown"
        state.steps += 1
        given_id, given = state.pick()
        if given.is_empty():
            return "yes"
        state.worked_off.add(given_id, given)
        for rule, parents, conclusions in inferences(
                state.worked_off, state.registry, given_id):
            for concl in conclusions:
                new_id = state.insert(concl, rule, parents)
                if new_id is not None and concl.is_empty():
                    return "yes"
    return "no"


# ---------------------------------------------------------------------------
# reference parser: a character-by-character tokenizer and a parser over
# token objects that carry their line and column


@dataclass(frozen=True, slots=True)
class _Tok:
    kind: str  # 'id', 'var', 'punct', 'dollar'
    text: str
    line: int
    col: int


_PUNCT = ("<=>", "=>", "!=", "(", ")", "[", "]", ",", ".", ":",
          "&", "|", "~", "!", "?", "=")
_ID_CHARS = set(string.ascii_letters + string.digits + "_")


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "$":
            j = i + 1
            while j < n and text[j] in _ID_CHARS:
                j += 1
            toks.append(_Tok("dollar", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _ID_CHARS:
            j = i
            while j < n and text[j] in _ID_CHARS:
                j += 1
            word = text[i:j]
            kind = "var" if word[0].isupper() else "id"
            toks.append(_Tok(kind, word, line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(_Tok("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok], symbols: SymbolTable) -> None:
        self.toks = toks
        self.i = 0
        self.depth = 0
        self.symbols = symbols

    def peek(self) -> Optional[_Tok]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> _Tok:
        tok = self.peek()
        if tok is None:
            last = self.toks[-1] if self.toks else _Tok("punct", "", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.col)
        self.i += 1
        return tok

    def expect(self, text: str) -> _Tok:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}",
                             tok.line, tok.col)
        return tok

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.text == text

    def declare(self, tok: _Tok, kind: SymbolKind, arity: int) -> None:
        try:
            self.symbols.declare(tok.text, kind, arity)
        except ValueError as e:
            raise ParseError(str(e), tok.line, tok.col) from None

    def deeper(self, tok: _Tok) -> None:
        """Enter one nesting level at ``tok``; the caller leaves it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels",
                             tok.line, tok.col)

    # formula := disjunction (('=>' | '<=>') formula)?
    def formula(self) -> Formula:
        left = self.disjunction()
        if not (self.at("=>") or self.at("<=>")):
            return left
        op = self.next()
        self.deeper(op)
        right = self.formula()
        self.depth -= 1
        return Implies(left, right) if op.text == "=>" else Iff(left, right)

    def disjunction(self) -> Formula:
        items = [self.conjunction()]
        while self.at("|"):
            self.next()
            items.append(self.conjunction())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def conjunction(self) -> Formula:
        items = [self.unary()]
        while self.at("&"):
            self.next()
            items.append(self.unary())
        return items[0] if len(items) == 1 else And(tuple(items))

    def unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", 0, 0)
        self.deeper(tok)
        f = self._unary(tok)
        self.depth -= 1
        return f

    def _unary(self, tok: _Tok) -> Formula:
        if tok.text == "~":
            self.next()
            return Not(self.unary())
        if tok.text in ("!", "?"):
            self.next()
            self.expect("[")
            vs = [self._variable()]
            while self.at(","):
                self.next()
                vs.append(self._variable())
            self.expect("]")
            self.expect(":")
            body = self.unary()
            return Forall(tuple(vs), body) if tok.text == "!" \
                else Exists(tuple(vs), body)
        if tok.text == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        if tok.kind == "dollar":
            self.next()
            if tok.text == "$true":
                return Top()
            if tok.text == "$false":
                return Bottom()
            raise ParseError(f"unknown token {tok.text!r}", tok.line, tok.col)
        return self.atom()

    def _variable(self) -> str:
        tok = self.next()
        if tok.kind != "var":
            raise ParseError(
                f"expected a variable (upper-case), found {tok.text!r}",
                tok.line, tok.col)
        return tok.text

    def atom(self) -> Formula:
        head = self.peek()
        # the head symbol is declared once it is known to head a term or
        # an atom
        t = self.term(declare_head=False)
        if self.at("=") or self.at("!="):
            if isinstance(t, Const):
                self.declare(head, SymbolKind.CONSTANT, 0)
            elif isinstance(t, App):
                self.declare(head, SymbolKind.FUNCTION, len(t.args))
            op = self.next().text
            rhs = self.term()
            eq = AtomF(EQ_PRED, (t, rhs))
            return eq if op == "=" else Not(eq)
        # reinterpret the parsed term as a predicate atom
        if isinstance(t, Const):
            self.declare(head, SymbolKind.PROPOSITIONAL, 0)
            return AtomF(t.name)
        if isinstance(t, App):
            self.declare(head, SymbolKind.PREDICATE, len(t.args))
            return AtomF(t.fn, t.args)
        tok = self.toks[self.i - 1]
        raise ParseError("a variable is not a formula", tok.line, tok.col)

    def term(self, declare_head: bool = True) -> Term:
        tok = self.next()
        if tok.kind == "var":
            return Var(tok.text)
        if tok.kind != "id":
            raise ParseError(f"expected a term, found {tok.text!r}",
                             tok.line, tok.col)
        if self.at("("):
            self.deeper(self.next())
            args = [self.term()]
            while self.at(","):
                self.next()
                args.append(self.term())
            self.expect(")")
            self.depth -= 1
            if declare_head:
                self.declare(tok, SymbolKind.FUNCTION, len(args))
            return App(tok.text, tuple(args))
        if declare_head:
            self.declare(tok, SymbolKind.CONSTANT, 0)
        return Const(tok.text)


_STATEMENT_KINDS = ("rule", "fact", "query", "formula")


def reference_parse(text: str) -> Problem:
    """Parse a problem file into rules, facts and query disjuncts."""
    prob = Problem()
    p = _Parser(_tokenize(text), prob.symbols)
    while p.peek() is not None:
        head = p.next()
        if head.kind != "id" or head.text not in _STATEMENT_KINDS:
            raise ParseError(
                f"expected one of {_STATEMENT_KINDS}, found {head.text!r}",
                head.line, head.col)
        p.expect(":")
        f = p.formula()
        dot = p.expect(".")
        if head.text == "fact":
            if not isinstance(f, AtomF) or free_vars(f) or \
                    any(isinstance(a, App) for a in f.args) or \
                    f.pred == EQ_PRED:
                raise ParseError("a fact must be a ground function-free atom",
                                 head.line, head.col)
            prob.facts.append(f)
        elif head.text == "rule":
            prob.rules.append(f)
        elif head.text == "query":
            prob.queries.append(f)
        else:
            prob.formulas.append(f)
        del dot
    return prob


def parse_formula(text: str) -> Formula:
    """Parse a single bare formula (no statement keyword, no final dot)
    with the product parser.

    Its symbols are declared in a table of its own, so a symbol used with
    two kinds or arities is an error here too."""
    p = _SyntaxParser(text, SymbolTable())
    f = p.formula()
    tok = p.toks[p.i]
    if tok != _END:
        raise p.error(f"trailing input {tok!r}", p.i)
    return f


def reference_parse_formula(text: str) -> Formula:
    """Parse a single bare formula (no statement keyword, no final dot)."""
    p = _Parser(_tokenize(text), SymbolTable())
    f = p.formula()
    tok = p.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return f


# ---------------------------------------------------------------------------
# reference fragment checker: one pass per fragment, GF, then LGF, then CGF


def reference_miniscope(f: Formula) -> Formula:
    """``clausify.miniscope`` as it was, asking ``free_vars`` again for
    the body at each quantified variable and for each disjunct twice;
    the clausifier's miniscoping must give an equal formula."""
    if isinstance(f, And):
        return _flatten(And(tuple(reference_miniscope(g) for g in f.items)))
    if isinstance(f, Or):
        return _flatten(Or(tuple(reference_miniscope(g) for g in f.items)))
    if isinstance(f, Not):
        return Not(reference_miniscope(f.body))
    if isinstance(f, (Forall, Exists)):
        body = reference_miniscope(f.body)
        quant = type(f)
        guard_block = isinstance(f, Forall) and isinstance(body, Or) and \
            all(isinstance(g, Not) and isinstance(g.body, AtomF)
                for g in body.items)
        for v in f.vars:
            if v not in free_vars(body):
                continue
            if guard_block and isinstance(body, Or):
                inside = [g for g in body.items if v in free_vars(g)]
                outside = [g for g in body.items if v not in free_vars(g)]
                if outside:
                    pushed = inside[0] if len(inside) == 1 \
                        else Or(tuple(inside))
                    body = _flatten(Or(
                        (reference_miniscope(Forall((v,), pushed)),
                         *outside)))
                    continue
            body = quant((v,), body)
        return body
    return f


def reference_to_nnf(f: Formula) -> Formula:
    """``clausify.to_nnf`` as it was, a walk of its own after expanding
    ``<=>``: NNF with ``<=>``/``=>`` expanded and negation pushed onto
    atoms."""
    return _reference_nnf(expand_iff(f), positive=True)


def _reference_nnf(f: Formula, positive: bool) -> Formula:
    if isinstance(f, Top):
        return Top() if positive else Bottom()
    if isinstance(f, Bottom):
        return Bottom() if positive else Top()
    if isinstance(f, AtomF):
        return f if positive else Not(f)
    if isinstance(f, Not):
        return _reference_nnf(f.body, not positive)
    if isinstance(f, And):
        items = tuple(_reference_nnf(g, positive) for g in f.items)
        return _flatten(And(items)) if positive else _flatten(Or(items))
    if isinstance(f, Or):
        items = tuple(_reference_nnf(g, positive) for g in f.items)
        return _flatten(Or(items)) if positive else _flatten(And(items))
    if isinstance(f, Implies):
        l = _reference_nnf(f.left, not positive)
        r = _reference_nnf(f.right, positive)
        return _flatten(Or((l, r))) if positive else _flatten(And((l, r)))
    if isinstance(f, Forall):
        body = _reference_nnf(f.body, positive)
        return Forall(f.vars, body) if positive else Exists(f.vars, body)
    if isinstance(f, Exists):
        body = _reference_nnf(f.body, positive)
        return Exists(f.vars, body) if positive else Forall(f.vars, body)
    raise TypeError(f"not a formula: {f!r}")


def reference_to_clauses(matrix: Formula,
                         symbols: SymbolTable) -> list[Clause]:
    """``clausify.to_clauses`` as it was: distribution into lists of
    formulas, each turned into literals after, deduplicated and tested
    for tautology by list scans."""
    matrix = _bounded_rename(matrix, symbols)
    cnf = _reference_distribute(matrix)
    out: list[Clause] = []
    for disj in cnf:
        lits = []
        taut = False
        for g in disj:
            lit = _reference_to_literal(g)
            if lit.negate() in lits:
                taut = True
                break
            if lit not in lits:
                lits.append(lit)
        if not taut:
            out.append(Clause(lits))
    return out


def _reference_distribute(f: Formula) -> list[list[Formula]]:
    if isinstance(f, And):
        out: list[list[Formula]] = []
        for g in f.items:
            out.extend(_reference_distribute(g))
        return out
    if isinstance(f, Or):
        parts = [_reference_distribute(g) for g in f.items]
        combos: list[list[Formula]] = [[]]
        for p in parts:
            combos = [c + d for c in combos for d in p]
        return combos
    if isinstance(f, Bottom):
        return [[]]
    if isinstance(f, Top):
        return []
    return [[f]]


def _reference_to_literal(f: Formula) -> Literal:
    if isinstance(f, AtomF):
        return Literal(True, f.pred, f.args)
    if isinstance(f, Not) and isinstance(f.body, AtomF):
        return Literal(False, f.body.pred, f.body.args)
    raise ClausifyError(f"not a literal: {print_formula(f)}")


def reference_clausify_formula(f: Formula, symbols: SymbolTable,
                               definitions: dict[str, Formula],
                               skolem_map: dict[str, str]) -> list[Clause]:
    """``clausify.clausify_formula`` as it was, one pass per step:
    expand ``<=>``, NNF, miniscoping (:func:`reference_miniscope`), then
    renaming and Skolemisation as the clausifier does them, and CNF
    through formula lists (:func:`reference_to_clauses`)."""
    fv = sorted(free_vars(f))
    if fv:
        f = Exists(tuple(fv), f)
    f = reference_miniscope(reference_to_nnf(f))
    renamer = _Renamer(symbols)
    renamer.definitions = definitions
    out: list[Clause] = []
    for conjunct in renamer.run(f):
        matrix = skolemize(conjunct, symbols, skolem_map)
        out.extend(reference_to_clauses(matrix, symbols))
    return out


def reference_skolemize(f: Formula, symbols: SymbolTable,
                        skolem_map: dict[str, str]) -> Formula:
    """``clausify.skolemize`` as it was, in two walks: prenex the conjunct,
    renaming bound variables apart, then substitute a Skolem term for
    each existential of the prefix over the universals before it; the
    one-walk version must give an equal matrix, symbols and map."""
    prefix, matrix = _reference_prenex(f, set(), {})
    sub: dict[str, Term] = {}
    universals: list[str] = []
    for kind, v in prefix:
        if kind == "forall":
            universals.append(v)
        else:
            if universals:
                sym = symbols.fresh("sk", SymbolKind.FUNCTION,
                                    len(universals), SymbolOrigin.SKOLEM)
                sub[v] = App(sym.name, tuple(Var(u) for u in universals))
            else:
                sym = symbols.fresh("skc", SymbolKind.CONSTANT, 0,
                                    SymbolOrigin.SKOLEM)
                sub[v] = Const(sym.name)
            skolem_map[sym.name] = v
    return _subst_formula(matrix, sub)


def _reference_prenex(f: Formula, used: set[str], ren: dict[str, str]
                      ) -> tuple[list[tuple[str, str]], Formula]:
    if isinstance(f, (Forall, Exists)):
        kind = "forall" if isinstance(f, Forall) else "exists"
        prefix: list[tuple[str, str]] = []
        local = dict(ren)
        for v in f.vars:
            name = v
            n = 0
            while name in used:
                n += 1
                name = f"{v}_{n}"
            used.add(name)
            local[v] = name
            prefix.append((kind, name))
        sub_prefix, matrix = _reference_prenex(f.body, used, local)
        return prefix + sub_prefix, matrix
    if isinstance(f, (And, Or)):
        prefix = []
        mats: list[Formula] = []
        for g in f.items:
            p, m = _reference_prenex(g, used, ren)
            prefix.extend(p)
            mats.append(m)
        cls = And if isinstance(f, And) else Or
        return prefix, _flatten(cls(tuple(mats)))
    if isinstance(f, Not):
        p, m = _reference_prenex(f.body, used, ren)
        return p, Not(m)
    if isinstance(f, AtomF):
        return [], _subst_formula(f, {v: Var(n) for v, n in ren.items()})
    return [], f


def _subst_formula(f: Formula, sub: dict[str, Term]) -> Formula:
    if not sub:
        return f
    if isinstance(f, AtomF):
        return AtomF(f.pred, tuple(apply_term(t, sub) for t in f.args))
    if isinstance(f, Not):
        return Not(_subst_formula(f.body, sub))
    if isinstance(f, (And, Or)):
        cls = And if isinstance(f, And) else Or
        return cls(tuple(_subst_formula(g, sub) for g in f.items))
    if isinstance(f, (Forall, Exists)):
        inner = {v: t for v, t in sub.items() if v not in f.vars}
        cls = Forall if isinstance(f, Forall) else Exists
        return cls(f.vars, _subst_formula(f.body, inner))
    return f


def reference_check_fragment(f: Formula) -> FragmentResult:
    """Smallest guarded fragment containing ``f`` (after expanding
    ``<=>``), by one pass per fragment, smallest first."""
    f = expand_iff(f)
    bad = _fragment_violation(f, "GF")
    if bad is None:
        return FragmentResult("GF")
    bad = _fragment_violation(f, "LGF")
    if bad is None:
        return FragmentResult("LGF")
    bad = _fragment_violation(f, "CGF")
    if bad is None:
        return FragmentResult("CGF")
    return FragmentResult("none", witness=bad)


def _atom_vars(a: AtomF) -> set[str]:
    out: set[str] = set()
    for t in a.args:
        term_vars(t, out)
    return out


def _cooccur_ok(pairs_left: set[str], guard_atoms: list[AtomF],
                all_guard_vars: set[str]) -> bool:
    """Each variable in ``pairs_left`` co-occurs with every other guard
    variable in some single guard atom."""
    for x in pairs_left:
        for y in all_guard_vars:
            if y == x:
                continue
            if not any({x, y} <= _atom_vars(a) for a in guard_atoms):
                return False
    return True


def _guard_split(f: Formula) -> Optional[tuple[Formula, Formula]]:
    """Split a quantifier body into (guard part, guarded part)."""
    if isinstance(f, Implies):
        return f.left, f.right
    return None


def _fragment_violation(f: Formula, frag: str) -> Optional[Formula]:
    """The first subformula breaking the rules of ``frag``, if any."""
    if isinstance(f, (Top, Bottom)):
        return None
    if isinstance(f, AtomF):
        return None if _atom_ok(f) else f
    if isinstance(f, Not):
        return _fragment_violation(f.body, frag)
    if isinstance(f, (And, Or)):
        for g in f.items:
            bad = _fragment_violation(g, frag)
            if bad is not None:
                return bad
        return None
    if isinstance(f, Implies):
        bad = _fragment_violation(f.left, frag)
        if bad is not None:
            return bad
        return _fragment_violation(f.right, frag)
    if isinstance(f, (Forall, Exists)):
        return _check_quantified(_merge_quant(f), frag)
    return f


def _guard_ok(frag: str, outer: set[str], guard_f: Formula,
              sub: Formula) -> bool:
    """Do ``guard_f`` and ``sub`` satisfy the guard conditions of ``frag``?"""
    inner_ex: tuple[str, ...] = ()
    g = guard_f
    if isinstance(g, Exists):
        if frag != "CGF":
            return False
        g = _merge_quant(g)
        inner_ex = g.vars  # type: ignore[union-attr]
        g = g.body  # type: ignore[union-attr]
    atoms = _conj_atoms(g)
    if atoms is None or not all(_atom_ok(a) for a in atoms):
        return False
    if frag == "GF" and len(atoms) != 1:
        return False

    guard_vars: set[str] = set()
    for a in atoms:
        guard_vars |= _atom_vars(a)
    fv_sub = free_vars(sub)

    # (a) free variables of the guarded part occur (free) in the guard
    if not fv_sub <= guard_vars - set(inner_ex):
        return False
    if frag == "CGF":
        # (b) each guard-existential variable occurs in only one guard atom
        for x in inner_ex:
            if sum(1 for a in atoms if x in _atom_vars(a)) != 1:
                return False
    if frag in ("LGF", "CGF"):
        # (b)/(c) each quantified variable co-occurs with every other guard
        # variable in a single guard atom
        if not _cooccur_ok(outer & guard_vars, atoms, guard_vars):
            return False
    return True


def _check_quantified(f: Forall | Exists, frag: str) -> Optional[Formula]:
    body = f.body
    outer = set(f.vars)
    if isinstance(f, Forall):
        split = _guard_split(body)
        if split is None:
            return f
        guard_f, sub = split
        if not _guard_ok(frag, outer, guard_f, sub):
            return f
        return _fragment_violation(sub, frag)
    # existential: try every split of the conjunction into guard & rest
    items = body.items if isinstance(body, And) else (body,)
    for k in range(1, len(items) + 1):
        head = items[:k]
        guard_f: Formula
        if len(head) == 1:
            guard_f = head[0]
        elif all(isinstance(h, AtomF) for h in head):
            guard_f = And(head)
        else:
            break
        rest = items[k:]
        sub = Top() if not rest else (rest[0] if len(rest) == 1 else And(rest))
        if _guard_ok(frag, outer, guard_f, sub) and \
                _fragment_violation(sub, frag) is None:
            return None
    return f


# ---------------------------------------------------------------------------
# reference rewriting: the chain of whole-clause passes


@dataclass
class AbstractedClause:
    clause: Clause
    disequations: int = 0  # how many guards abstraction added


def _fresh_var(base: str, counter: list[int], avoid: set[str]) -> Var:
    while True:
        name = f"{base}{counter[0]}"
        counter[0] += 1
        if name not in avoid:
            avoid.add(name)
            return Var(name)


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

    The replacement happens at the same position in every compound term,
    which presumes they share one argument tuple (a strongly compatible
    clause); flat occurrences of the duplicated variable are left alone
    (the clause stays covering either way, and the two forms are
    equivalent thanks to the added disequation).
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
    """``con_abs`` then ``var_abs``."""
    a1 = con_abs(c)
    a2 = var_abs(a1.clause)
    return AbstractedClause(a2.clause, a1.disequations + a2.disequations)


def uppercase_vars(c: Clause) -> Clause:
    """``c`` with its variables renamed ``U1, U2, ...`` in sorted order."""
    sub: Subst = {}
    for i, v in enumerate(sorted(clause_vars(c))):
        name = f"U{i + 1}"
        if v != name:
            sub[v] = Var(name)
    return apply_clause(c, sub) if sub else c


def term_funcs(t: Term, acc: Optional[set[str]] = None) -> set[str]:
    if acc is None:
        acc = set()
    if isinstance(t, App):
        acc.add(t.fn)
        for a in t.args:
            term_funcs(a, acc)
    return acc


def clause_funcs(c: Clause) -> set[str]:
    acc: set[str] = set()
    for lit in c:
        for a in lit.args:
            term_funcs(a, acc)
    return acc


@dataclass
class ClosedSet:
    """A closed set of clauses (:func:`partition_closed`): interconnected
    when it has ``functions``, flat otherwise."""
    clauses: list[Clause]
    functions: frozenset[str] = frozenset()
    skolem_consts: frozenset[str] = frozenset()


def _skolem_consts(c: Clause, symbols: SymbolTable) -> frozenset[str]:
    out: set[str] = set()
    for lit in c:
        for a in lit.args:
            _add_skolem_consts(a, symbols, out)
    return frozenset(out)


def _add_skolem_consts(t: Term, symbols: SymbolTable, out: set[str]) -> None:
    if isinstance(t, Const):
        sym = symbols.get(t.name)
        if sym is not None and sym.origin is SymbolOrigin.SKOLEM:
            out.add(t.name)
    elif isinstance(t, App):
        for a in t.args:
            _add_skolem_consts(a, symbols, out)


def partition_closed(clauses: list[Clause],
                     symbols: SymbolTable) -> list[ClosedSet]:
    """Group clauses into closed sets.

    Clauses connected through shared function symbols belong together.
    Clauses sharing a Skolem constant also belong together, since the
    constant is internalized as a single existential witness.  All
    remaining flat clauses form one flat set.
    """
    keyed = [(c, clause_funcs(c), _skolem_consts(c, symbols))
             for c in clauses]
    sets: list[ClosedSet] = []
    plain_flat: list[Clause] = []
    for g in connected_groups([[f"f:{f}" for f in fns] +
                               [f"c:{s}" for s in sks]
                               for _, fns, sks in keyed]):
        c, fns, sks = keyed[g[0]]
        if not (fns or sks):  # a clause with no token stands alone
            plain_flat.append(c)
            continue
        fns = frozenset().union(*(keyed[i][1] for i in g))
        sks = frozenset().union(*(keyed[i][2] for i in g))
        sets.append(ClosedSet([keyed[i][0] for i in g], fns, sks))
    if plain_flat:
        sets.append(ClosedSet(plain_flat))
    return sets


@dataclass(frozen=True, slots=True)
class PropertyGate:
    normal: bool
    unique: bool
    locally_compatible: bool
    locally_linear: bool
    globally_compatible: bool
    globally_linear: bool

    def violated(self) -> Optional[str]:
        """The first of the properties unskolemisation needs that fails."""
        for name in ("normal", "unique", "globally_compatible",
                     "globally_linear"):
            if not getattr(self, name):
                return name
        return None


def property_gate(clauses: Iterable[Clause]) -> PropertyGate:
    """Report the six renaming-related syntactic properties.

    normal: compound-term arguments are variables only; unique: no
    duplicate arguments within a compound term; locally compatible /
    linear: one shared argument tuple (of distinct variables) per clause;
    globally compatible / linear: one shared argument tuple across the
    whole set.
    """
    clauses = list(clauses)
    comps = [t for c in clauses for t in compound_terms(c)]
    normal = all(isinstance(a, Var) for t in comps for a in t.args)
    unique = all(len(set(t.args)) == len(t.args) for t in comps)
    locally_compatible = all(
        len({t.args for t in compound_terms(c)}) <= 1 for c in clauses)
    globally_compatible = len({t.args for t in comps}) <= 1
    return PropertyGate(
        normal=normal,
        unique=unique,
        locally_compatible=locally_compatible,
        locally_linear=locally_compatible and unique,
        globally_compatible=globally_compatible,
        globally_linear=globally_compatible and unique,
    )


def var_re(s: ClosedSet) -> tuple[list[Clause], tuple[str, ...]]:
    """Rename every clause of an interconnected set so all compound terms
    share one argument tuple of fresh variables."""
    arities = {len(t.args) for c in s.clauses for t in compound_terms(c)}
    if len(arities) > 1:
        raise RewriteError(
            f"closed set mixes compound-term arities {sorted(arities)}")
    m = arities.pop() if arities else 0
    shared = tuple(f"X{i + 1}" for i in range(m))
    out: list[Clause] = []
    for c in s.clauses:
        comps = compound_terms(c)
        tuples = {t.args for t in comps}
        if len(tuples) > 1:
            raise RewriteError("clause is not strongly compatible")
        args = tuples.pop() if tuples else ()
        if not all(isinstance(a, Var) for a in args):
            raise RewriteError("compound-term arguments are not variables")
        sub: Subst = {a.name: Var(v)  # type: ignore[union-attr]
                      for a, v in zip(args, shared)}
        # keep the remaining variables out of the shared names
        taken = set(shared)
        counter = [0]
        for v in sorted(clause_vars(c)):
            if v not in sub and v in taken:
                sub[v] = _fresh_var("W", counter, taken)
        out.append(apply_clause(c, sub) if sub else c)
    return out, shared


def _clause_to_disjunction(c: Clause) -> Formula:
    items: list[Formula] = []
    for l in c:
        atom = AtomF(l.pred if not l.is_eq else "=", l.args)
        items.append(atom if l.pos else Not(atom))
    if len(items) == 1:
        return items[0]
    return Or(tuple(items))


def _internalize_consts(clauses: list[Clause], consts: Iterable[str]
                        ) -> tuple[list[Clause], list[str]]:
    """Replace Skolem constants by fresh variables; returns the variable
    names, one per constant, in sorted constant order."""
    names: list[str] = []
    out = clauses
    for i, cname in enumerate(sorted(consts)):
        v = Var(f"Z{i + 1}")
        names.append(v.name)
        repl: list[Clause] = []
        for c in out:
            repl.append(Clause(
                _replace_const(l, Const(cname), v) for l in c))
        out = repl
    return out, names


def unsko(s: ClosedSet) -> Formula:
    """Unskolemise a closed set.

    Prefix: one existential per Skolem constant, the shared universal
    tuple, one existential per Skolem function (in name order), then any
    residual variables universally.
    """
    renamed, shared = var_re(s)
    clauses, const_vars = _internalize_consts(renamed, s.skolem_consts)
    bad = property_gate(clauses).violated()
    if bad:
        raise RewriteError(f"closed set violates property: {bad}")
    fns = sorted(s.functions)
    fn_vars = {fn: f"Y{i + 1}" for i, fn in enumerate(fns)}
    final = [Clause(_replace_apps(l, fn_vars) for l in c)
             for c in clauses] if fns else clauses
    residual: list[str] = []
    for c in final:
        for v in sorted(clause_vars(c)):
            if v not in shared and v not in fn_vars.values() and \
                    v not in const_vars and v not in residual:
                residual.append(v)
    matrix: Formula = And(tuple(_clause_to_disjunction(c) for c in final)) \
        if len(final) > 1 else _clause_to_disjunction(final[0])
    f: Formula = matrix
    if residual:
        f = Forall(tuple(residual), f)
    if fns:
        f = Exists(tuple(fn_vars[fn] for fn in fns), f)
    if shared:
        f = Forall(shared, f)
    if const_vars:
        f = Exists(tuple(const_vars), f)
    return f


def _replace_apps(lit: Literal, fn_vars: dict[str, str]) -> Literal:
    return Literal(lit.pos, lit.pred,
                   tuple(_apps_to_vars(t, fn_vars) for t in lit.args))


def _apps_to_vars(t: Term, fn_vars: dict[str, str]) -> Term:
    if isinstance(t, App):
        if t.fn in fn_vars:
            return Var(fn_vars[t.fn])
        return App(t.fn, tuple(_apps_to_vars(a, fn_vars) for a in t.args))
    return t


def reference_q_rew(saturation: list[Clause],
                    symbols: SymbolTable) -> RewriteResult:
    """``qrew.q_rew`` as a chain of passes that each rebuild every clause,
    abstracting to a fixpoint first; the one-scan rewriting must give
    equal results and errors."""
    if any(c.is_empty() for c in saturation):
        raise RewriteError(
            "the saturation contains the empty clause: the query holds in "
            "every dataset, there is nothing to rewrite")
    abstracted = [abstract(uppercase_vars(c)) for c in saturation]
    equality_used = any(a.disequations for a in abstracted)
    sets = partition_closed([a.clause for a in abstracted], symbols)
    conjuncts: list[Formula] = []
    internalized: list[str] = []
    for s in sets:
        conjuncts.append(unsko(s))
        internalized.extend(sorted(s.skolem_consts))
    # an empty saturation rewrites to the empty conjunction
    big: Formula = And(tuple(conjuncts)) if len(conjuncts) > 1 \
        else conjuncts[0] if conjuncts else Top()
    return RewriteResult(
        sigma_q=Not(big),
        skolem_constants_internalized=internalized,
        equality_used=equality_used,
        conjuncts=conjuncts,
    )


# ---------------------------------------------------------------------------
# exact oracles for small clause sets


def _clause_constants(clauses: Iterable[Clause]) -> list[str]:
    out: set[str] = set()
    for c in clauses:
        for l in c:
            for t in l.args:
                stack = [t]
                while stack:
                    s = stack.pop()
                    if isinstance(s, Const):
                        out.add(s.name)
                    elif isinstance(s, App):
                        stack.extend(s.args)
    return sorted(out)


def herbrand_sat(clauses: Sequence[Clause]) -> bool:
    """Exact satisfiability of a function-free, equality-free clause set.

    Such a set is satisfiable iff it has a Herbrand model over its
    constants (one fresh constant if there are none); the set is grounded
    over them and handed to ``oracle.dpll``.
    """
    for c in clauses:
        for l in c:
            if l.is_eq:
                raise ValueError("herbrand_sat does not support equality")
            for t in l.args:
                if isinstance(t, App):
                    raise ValueError(
                        "herbrand_sat does not support function symbols")
    consts = _clause_constants(clauses) or ["d0"]
    domain = [Const(n) for n in consts]
    atom_ids: dict[tuple, int] = {}

    def aid(l: Literal) -> int:
        key = (l.pred, l.args)
        if key not in atom_ids:
            atom_ids[key] = len(atom_ids) + 1
        return atom_ids[key]

    ground: list[frozenset[int]] = []
    for c in clauses:
        vs = sorted(clause_vars(c))
        for combo in itertools.product(domain, repeat=len(vs)):
            sub: Subst = dict(zip(vs, combo))
            g = apply_clause(c, sub)
            lits = frozenset(
                aid(l) if l.pos else -aid(l) for l in g)
            if any(-x in lits for x in lits):
                continue
            ground.append(lits)
    return dpll(ground) is not None


def eval_clause(model: FiniteModel, c: Clause) -> bool:
    """Whether ``c`` holds in ``model`` under every assignment."""
    vs = sorted(clause_vars(c))
    for combo in itertools.product(range(model.size), repeat=len(vs)):
        env = dict(zip(vs, combo))
        if not any(model.eval_lit(l, env) for l in c):
            return False
    return True


def ground_entails(premises: Sequence[Clause], conclusion: Clause) -> bool:
    """Do the ground premises entail the ground conclusion clause?"""
    atom_ids: dict[tuple, int] = {}

    def aid(l: Literal) -> int:
        key = (l.pred, l.args)
        if key not in atom_ids:
            atom_ids[key] = len(atom_ids) + 1
        return atom_ids[key]

    cls = []
    for c in premises:
        if not is_ground(c):
            raise ValueError("premises must be ground")
        cls.append(frozenset(aid(l) if l.pos else -aid(l) for l in c))
    for l in conclusion:
        cls.append(frozenset({-aid(l) if l.pos else aid(l)}))
    return dpll(cls) is None
