"""The clause-redundancy kernels of ``terms`` against their references.

``subsumes``, ``condense`` and ``membership``, and the connected-order
``is_variant`` of ``tests/util.py``, must give exactly the answers of the
clause-order search, the pairwise condensation loop and the
minimal-loose-guard enumeration kept there, and the connected search
order that of the scan over every unplaced literal.  The one endomorphism search
that decides whether a clause is condensed must agree with that loop,
also on clauses with many automorphisms, where it skips the images of
the first literal that an automorphism reaches, and with the closed
form on unions of two directed cycles.  Condensing a k-cycle must stay
within k(3 + ceil(log2 k)) literal matches whatever its variable names,
the directed 6-clique within 5,000, and condensing a clause a second
time must cost nothing.  The one search behind all of them keeps its own
stack, so condensing a 2,000-literal cycle, subsumption between it and
a long chain, and separating a 1,000-literal cycle query all finish.
"""

from __future__ import annotations

import math
import random

from guardedsat import terms
from guardedsat.qsep import DefinitionRegistry, q_sep
from guardedsat.terms import (
    App, Clause, Const, Literal, SymbolTable, Var, apply_clause, clause_vars,
    condense, membership, subsumes,
)

from util import (
    is_variant, make_symbols, random_lg_clause, reference_condense,
    reference_is_variant, reference_membership, reference_search_order,
    reference_subsumes,
)


def _vars(rng: random.Random, n: int) -> list[Var]:
    """``n`` distinct variables under a random naming, so the clause
    order of the literals varies from clause to clause."""
    return [Var(f"V{i}") for i in rng.sample(range(100), n)]


def _flat_negative(rng: random.Random) -> Clause:
    """A path, cycle or clique of binary negative literals on 1-5
    variables, over one or two predicates."""
    vs = _vars(rng, rng.randint(1, 5))
    shape = rng.choice(["path", "cycle", "clique"])
    if shape == "path":
        edges = list(zip(vs, vs[1:])) or [(vs[0], vs[0])]
    elif shape == "cycle":
        edges = list(zip(vs, vs[1:] + vs[:1]))
    else:
        edges = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]] \
            or [(vs[0], vs[0])]
    preds = ["r"] if rng.random() < 0.5 else ["r", "s"]
    return Clause(Literal(False, rng.choice(preds), e) for e in edges)


def _ground_or_equality(rng: random.Random) -> Clause:
    """A ground clause, or a clause with one equality literal."""
    consts = [Const("a"), Const("b")]
    lits = [Literal(rng.random() < 0.5, rng.choice(["p", "q"]),
                    (rng.choice(consts),))
            for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        x, y = _vars(rng, 2)
        lits.append(Literal(False, "r", (x, y)))
        lits.append(Literal(rng.random() < 0.5, terms.EQ,
                            (x, rng.choice([y, consts[0]]))))
    return Clause(lits)


def _redundant(rng: random.Random) -> Clause:
    """Few predicates, shared variables and Skolem terms; half the time
    joined with an instance of itself, so that it can shrink."""
    vs = _vars(rng, rng.randint(1, 3))

    def arg() -> Var | Const | App:
        r = rng.random()
        if r < 0.15:
            return App("f", (rng.choice(vs),))
        if r < 0.25:
            return Const("a")
        return rng.choice(vs)

    lits = [Literal(rng.random() < 0.4, rng.choice(["p", "q"]),
                    tuple(arg() for _ in range(2)))
            for _ in range(rng.randint(1, 4))]
    c = Clause(lits)
    if rng.random() < 0.5:
        sigma = {v: rng.choice(vs + [Var("W")]) for v in clause_vars(c)}
        c = Clause(lits + list(apply_clause(c, sigma)))
    return c


def _one_predicate(rng: random.Random) -> Clause:
    """Two to five ternary literals of one sign and predicate over shared
    variables, constants and Skolem terms, sometimes with one of the other
    sign: the search looks these up by a constant or a bound variable."""
    vs = _vars(rng, rng.randint(1, 3))

    def arg() -> Var | Const | App:
        r = rng.random()
        if r < 0.2:
            return App("f", (rng.choice(vs),))
        if r < 0.45:
            return Const(rng.choice("ab"))
        return rng.choice(vs)

    sign = rng.random() < 0.5
    lits = [Literal(sign, "p", (arg(), arg(), arg()))
            for _ in range(rng.randint(2, 5))]
    if rng.random() < 0.3:
        lits.append(Literal(not sign, "p", (arg(), arg(), arg())))
    return Clause(lits)


def _random_clauses(count: int, seed: int) -> list[Clause]:
    rng = random.Random(seed)
    symbols = make_symbols(n_preds=4, n_funcs=2, rng=rng)
    makers = [lambda: random_lg_clause(symbols, rng),
              lambda: _flat_negative(rng),
              lambda: _ground_or_equality(rng),
              lambda: _redundant(rng),
              lambda: _one_predicate(rng)]
    return [makers[i % len(makers)]() for i in range(count)]


def _partners(c: Clause, others: list[Clause],
              rng: random.Random) -> list[Clause]:
    """Clauses to test ``c`` against: a renamed variant, an instance with
    an extra literal, ``c`` minus a literal, and an unrelated clause."""
    cvars = sorted(clause_vars(c))
    renamed = apply_clause(c, {v: Var(f"R{i}") for i, v in enumerate(cvars)})
    pool = [Var(v) for v in cvars] + [Const("a")]
    instance = Clause(list(apply_clause(
        c, {v: rng.choice(pool) for v in cvars})) + [rng.choice(others)
                                                     .literals[0]])
    out = [renamed, instance, rng.choice(others)]
    if len(c) > 1:
        lits = list(c.literals)
        del lits[rng.randrange(len(lits))]
        out.append(Clause(lits))
    return out


def test_kernels_agree_with_references(monkeypatch):
    # which kinds of argument the search met in a target bucket of more
    # than one literal: constants and bound variables are probed,
    # compound terms never
    met: set[str] = set()
    candidates = Clause.candidates

    def spying(self, pat, sub):
        if len(self.buckets().get((pat.pos, pat.pred, len(pat.args)),
                                  ())) > 1:
            for t in pat.args:
                met.add("compound" if isinstance(t, App)
                        else "constant" if isinstance(t, Const)
                        else "bound" if t.name in sub else "free")
        return candidates(self, pat, sub)

    monkeypatch.setattr(Clause, "candidates", spying)
    rng = random.Random(3)
    clauses = _random_clauses(600, seed=11)
    shrank = 0
    lg = 0
    subsumed = variants = pairs = 0
    for c in clauses:
        got = condense(c)
        want = reference_condense(c)
        assert got.literals == want.literals, (str(c), str(got), str(want))
        # ``condense`` asks only of clauses without exact duplicates
        d = Clause(dict.fromkeys(c.literals))
        assert terms._is_condensed(d) == (len(want) == len(d)), str(c)
        shrank += len(got) < len(d)
        m = membership(c)
        assert m == reference_membership(c), str(c)
        # worked out once per clause, and read again from there
        assert isinstance(m, frozenset) and membership(c) is m
        lg += "LG" in m
        for d in _partners(c, clauses, rng):
            for p, q in ((c, d), (d, c)):
                s = subsumes(p, q)
                assert s == reference_subsumes(p, q), (str(p), str(q))
                v = is_variant(p, q)
                assert v == reference_is_variant(p, q), (str(p), str(q))
                subsumed += s
                variants += v
                pairs += 1
    # a clause shrinks only after a map of it into itself leaves a literal out
    assert shrank >= 20
    assert 0 < lg < len(clauses)
    assert 0 < variants < subsumed < pairs
    assert met == {"compound", "constant", "bound", "free"}


def _cycle(vs: list[Var]) -> list[Literal]:
    """The directed cycle ``~r(v1,v2) | ... | ~r(vk,v1)`` on ``vs``."""
    return [Literal(False, "r", (u, v)) for u, v in zip(vs, vs[1:] + vs[:1])]


def _clique(vs: list[Var]) -> list[Literal]:
    """The directed clique on ``vs``: ``~r(u,v)`` for every ``u != v``."""
    return [Literal(False, "r", (u, v)) for u in vs for v in vs if u != v]


def _symmetric(rng: random.Random) -> Clause:
    """A directed cycle on 1-6 variables, or one time in ten a directed
    clique on 3 or 4, with one or two of: a chord, a unary literal, a
    literal with a constant, a second cycle that shares at most one
    variable.  A second cycle keeps the clause within 8 literals, which
    keeps the pairwise reference loop fast."""
    if rng.random() < 0.1:
        vs = _vars(rng, rng.randint(3, 4))
        lits = _clique(vs)
    else:
        vs = _vars(rng, rng.randint(1, 6))
        lits = _cycle(vs)
    for _ in range(rng.randint(1, 2)):
        kind = rng.choice(["chord", "unary", "constant", "cycle"])
        if kind == "chord":
            lits.append(Literal(False, "r", (rng.choice(vs), rng.choice(vs))))
        elif kind == "unary":
            lits.append(Literal(rng.random() < 0.3, rng.choice("pq"),
                                (rng.choice(vs),)))
        elif kind == "constant":
            x, a = rng.choice(vs), Const(rng.choice("ab"))
            lits.append(Literal(False, "r",
                                (x, a) if rng.random() < 0.5 else (a, x)))
        elif len(lits) < 8:
            ws = [v for v in _vars(rng, 20) if v not in vs]
            ws = ws[:rng.randint(1, 8 - len(lits))]
            if rng.random() < 0.3:
                ws[0] = rng.choice(vs)
            lits.extend(_cycle(ws))
    return Clause(lits)


def test_search_order_agrees_with_the_scan():
    """The counted connected order is the order of the scan over every
    unplaced literal, on random clauses (loosely guarded, flat, ground,
    redundant, one-predicate), on symmetric ones, and on k-cycles and
    their unions under random names up to k=480."""
    rng = random.Random(13)
    clauses = _random_clauses(600, seed=13) + \
        [_symmetric(rng) for _ in range(200)]
    for k in (3, 5, 16, 60, 240, 480):
        vs = [Var(f"V{i}") for i in rng.sample(range(10 ** 4), k)]
        clauses.append(Clause(_cycle(vs)))
        clauses.append(Clause(_cycle(vs[:k // 3]) + _cycle(vs[k // 3:])))
    long = 0
    for c in clauses:
        want = reference_search_order(c.literals)
        got = [c.literals[i] for i in terms._search_order(c.literals)]
        assert got == list(want), str(c)
        long += len(c) > 2
    assert long >= 400, long


def test_symmetric_clauses_agree_with_reference(monkeypatch):
    # how often a one-to-one search found an automorphism, whose orbit
    # the search then skipped
    found = [0]
    find_map = terms._find_map

    def spying(pat, target, sub, img, hits=None, unhit=0):
        got = find_map(pat, target, sub, img, hits, unhit)
        found[0] += hits is not None and not unhit and got is not None
        return got

    monkeypatch.setattr(terms, "_find_map", spying)
    rng = random.Random(5)
    shrank = 0
    for _ in range(300):
        c = _symmetric(rng)
        want = reference_condense(c)
        assert condense(c).literals == want.literals, str(c)
        d = Clause(dict.fromkeys(c.literals))
        assert terms._is_condensed(d) == (len(want) == len(d)), str(c)
        shrank += len(want) < len(d)
    assert 50 <= shrank <= 250
    assert found[0] >= 100
    # a loop-free directed clique maps into itself only one to one
    for n in (3, 4, 5):
        c = Clause(_clique(_vars(rng, n)))
        assert terms._is_condensed(c)
        assert condense(c).literals == c.literals


def test_two_cycles_are_condensed_iff_neither_length_divides_the_other():
    # C_b maps onto C_a iff a divides b, and a cycle maps into a cycle of
    # its own length only onto it
    rng = random.Random(8)
    for a in range(1, 13):
        for b in range(1, 13):
            vs = _vars(rng, a + b)
            c = Clause(_cycle(vs[:a]) + _cycle(vs[a:]))
            assert terms._is_condensed(c) == (a % b != 0 and b % a != 0), \
                (a, b, str(c))


def test_a_literal_that_cannot_be_left_out_may_be_an_image():
    # ~t(Z,Z) matches no other literal, so every map hits it; it is also
    # the image of ~t(V,Z) under V -> Z, which leaves ~t(V,Z) out
    z, v = Var("Z"), Var("V")
    c = Clause([Literal(False, "t", (z, z)), Literal(False, "t", (v, z))])
    assert not terms._is_condensed(c)
    assert condense(c).literals == (Literal(False, "t", (z, z)),)


def _counting_match_lit(monkeypatch) -> list[int]:
    """Count the calls of ``terms.match_lit`` in the returned cell."""
    calls = [0]
    match_lit = terms.match_lit

    def counting(*args):
        calls[0] += 1
        return match_lit(*args)

    monkeypatch.setattr(terms, "match_lit", counting)
    return calls


def test_condensing_a_condensed_clause_is_free(monkeypatch):
    condensed = [condense(c) for c in _random_clauses(600, seed=11)]
    calls = _counting_match_lit(monkeypatch)
    for d in condensed:
        assert condense(d) is d
    assert calls[0] == 0


def test_condensing_a_cycle_takes_polynomial_work(monkeypatch):
    # the k-cycle ~r(V1,V2) | ... | ~r(Vk,V1) is condensed; the clause
    # order of its literals, and with it the search, depends on the names
    calls = _counting_match_lit(monkeypatch)
    # one match per literal to find which can be left out, one walk of
    # the cycle from the identity image, then one walk per rotation
    # found, each of which at least doubles the images skipped
    rng = random.Random(12)
    for k in (12, 24, 48, 96):
        for _ in range(3):
            vs = [Var(f"V{i}") for i in rng.sample(range(1000), k)]
            c = Clause(_cycle(vs))
            calls[0] = 0
            assert condense(c).literals == c.literals
            assert calls[0] <= k * (3 + math.ceil(math.log2(k))), \
                (k, calls[0])
    # the directed 6-clique: 30 literals, 720 automorphisms
    vs = [Var(f"V{i}") for i in rng.sample(range(1000), 6)]
    c = Clause(_clique(vs))
    calls[0] = 0
    assert condense(c).literals == c.literals
    assert calls[0] <= 5000, calls[0]


def _long_cycle(k: int) -> Clause:
    return Clause(_cycle([Var(f"V{i}") for i in range(k)]))


def _long_chain(k: int) -> Clause:
    """The directed path ``~r(W0,W1) | ... | ~r(W(k-1),Wk)``."""
    vs = [Var(f"W{i}") for i in range(k + 1)]
    return Clause(Literal(False, "r", e) for e in zip(vs, vs[1:]))


def test_condensing_a_long_cycle_needs_no_recursion():
    c = _long_cycle(2000)
    assert condense(c).literals == c.literals


def test_subsumption_between_a_long_chain_and_cycle_needs_no_recursion():
    assert subsumes(_long_chain(1999), _long_cycle(2000))
    # a failing search tries every image of the first literal and walks
    # the cycle from each to an end of the chain, k*k/2 literal matches
    # in all, so this direction runs at k=1000
    assert not subsumes(_long_cycle(1000), _long_chain(999))


def test_separating_a_long_cycle_query_needs_no_recursion():
    c = _long_cycle(1000)
    res = q_sep(c, DefinitionRegistry(SymbolTable()))
    assert res.icq == [c] and not res.guarded
