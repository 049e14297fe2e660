"""Parser, printer and fragment-classification tests."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from guardedsat.syntax import (
    MAX_NESTING, And, AtomF, Exists, Forall, Iff, Implies, Not, Or,
    ParseError, Problem, check_fragment, expand_iff, negate_query, parse,
    print_formula,
)
from guardedsat.terms import Const, Var, membership
from test_cli import _mutated_statements, _token_soups
from util import (
    parse_formula, random_formula, reference_check_fragment,
    reference_parse, reference_parse_formula,
)


def roundtrip(text: str) -> str:
    return print_formula(parse_formula(text))


class TestParser:
    def test_roundtrip_simple(self):
        for t in ["p(X,c1)", "~p(X)", "p(X) & q(X)", "p(X) | q(X) | r(X)",
                  "p(X) => q(X)", "p(X) <=> q(X)",
                  "! [X,Y] : (g(X,Y) => p(X))",
                  "? [X] : (p(X) & q(X))",
                  "a = b", "X != c1"]:
            again = roundtrip(t)
            assert roundtrip(again) == again

    def test_problem_statements(self):
        prob = parse("""
            % a comment
            fact: p(c1).
            rule: ! [X] : (p(X) => q(X)).
            query: ? [X] : q(X).
        """)
        assert len(prob.facts) == 1
        assert len(prob.rules) == 1
        assert len(prob.queries) == 1

    def test_fact_must_be_ground(self):
        with pytest.raises(ParseError):
            parse("fact: p(X).")

    def test_unterminated_statement(self):
        with pytest.raises(ParseError):
            parse("fact: p(c1)")

    def test_variable_alone_is_not_a_formula(self):
        with pytest.raises(ParseError):
            parse_formula("X")

    def test_symbols_in_text_order(self):
        prob = parse("rule: ! [X] : (r(X,f(c2)) => a).\nfact: b(c1).")
        assert [s.name for s in prob.symbols] == \
            ["c2", "f", "r", "a", "c1", "b"]

    def test_redeclared_symbol_is_reported_where_it_is_used(self):
        with pytest.raises(ParseError) as e:
            parse("fact: p(c1).\nfact: p(c1,c2).")
        assert (e.value.line, e.value.col) == (2, 7)
        assert "'p' redeclared as predicate/2, was predicate/1" in \
            str(e.value)

    def test_redeclared_symbol_in_a_bare_formula(self):
        with pytest.raises(ParseError) as e:
            parse_formula("a(c) & c = a")
        assert (e.value.line, e.value.col) == (1, 12)


# ---------------------------------------------------------------------------
# the parser against the reference parser

_ODD = ["\t", "\r\n", "% note\n", "%", "  ", "\x0c", "é", "Ω", "<", "<=",
        ">", "!=>", "$", "_x", "9"]


@st.composite
def _odd_layouts(draw) -> str:
    """Token soups and fixture statements with tabs, comments, form
    feeds, non-ASCII characters or a lone ``<`` put in, CRLF line
    endings and trailing blanks."""
    text = draw(st.one_of(_token_soups, _mutated_statements()))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_ODD)) + text[at:]
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    return text + draw(st.sampled_from(["", " ", "\t", "\n\n", "% end"]))


@st.composite
def _deep_nestings(draw) -> str:
    """A statement nested ``MAX_NESTING`` levels deep, give or take two."""
    n = MAX_NESTING + draw(st.integers(-2, 2))
    body = draw(st.sampled_from([
        "~" * n + "p",
        "(" * n + "p" + ")" * n,
        "p(" + "f(" * n + "c" + ")" * (n + 1),
        " => ".join(["p"] * n),
        " <=> ".join(["p"] * n),
        "! [X] : " * n + "p(X)",
    ]))
    return draw(st.sampled_from(["query: ", "rule: ", ""])) + body + \
        draw(st.sampled_from([".", "", ". x"]))


def _outcome(parse_fn, text):
    """The statements of each kind and the symbol table in order, or the
    error's type, text, line and column."""
    try:
        prob = parse_fn(text)
    except ParseError as e:
        return ("error", str(e), e.line, e.col)
    if not isinstance(prob, Problem):  # a bare formula
        return print_formula(prob), prob
    return (prob.rules, prob.facts, prob.queries, prob.formulas,
            list(prob.symbols))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=st.one_of(_token_soups, _mutated_statements(), _odd_layouts(),
                      _deep_nestings()))
@example(text="fact: p(c1).\nfact: p(c1,c2).")
def test_parser_agrees_with_reference(text):
    assert _outcome(parse, text) == _outcome(reference_parse, text), text
    assert _outcome(parse_formula, text) == \
        _outcome(reference_parse_formula, text), text


# ``fact:`` statements, which the parser reads by their shape

_FACT_NAMES = ["p", "q", "r", "c1", "c2", "c3", "f"]

# (kind, statement) makers of malformed facts, and of rules and queries
# that use the fact names with other kinds or arities
_FACT_BREAKS = [
    ("variable", lambda a: f"fact: p({a},X)."),
    ("nested", lambda a: f"fact: p(f({a}))."),
    ("equality", lambda a: f"fact: {a} = c2."),
    ("equality", lambda a: f"fact: p({a}) = c2."),
    ("equality", lambda a: f"fact: p({a}) != q."),
    ("no ')'", lambda a: f"fact: p({a},c2."),
    ("no '.'", lambda a: f"fact: p({a})"),
    ("arity", lambda a: f"rule: ! [X,Y] : (p(X,Y) => q(X)).\nfact: p({a})."),
    ("arity", lambda a: f"query: ? [X] : r(X,{a}).\nfact: r({a})."),
    ("arity", lambda a: f"fact: q({a}).\nfact: p(q)."),
]


def _random_facts(rng):
    """A problem text of ``fact:`` lines, most well-formed, some broken
    in one of the ways of ``_FACT_BREAKS``; with the kind of break, or
    None."""
    lines = []
    for _ in range(rng.randint(1, 5)):
        # mostly one arity per predicate; now and then another arity, or
        # a constant's name as the predicate, which clashes
        pred = rng.choice(_FACT_NAMES[:3]) if rng.random() < 0.95 \
            else rng.choice(_FACT_NAMES[3:])
        arity = 1 + _FACT_NAMES.index(pred) % 3 if rng.random() < 0.95 \
            else rng.randint(1, 3)
        args = ",".join(rng.choice(_FACT_NAMES[3:6]) for _ in range(arity))
        lines.append(f"fact: {pred}({args}).")
    kind = None
    if rng.random() < 0.6:
        kind, make = rng.choice(_FACT_BREAKS)
        lines.insert(rng.randint(0, len(lines)),
                     make(rng.choice(_FACT_NAMES[3:6])))
    return rng.choice(["\n", " ", "\n% c\n"]).join(lines), kind


def test_facts_parse_as_in_the_reference():
    """Random ``fact:`` lines, well-formed and malformed, give the facts
    and the symbol table in order that the reference parser gives, or
    its error with the same message, line and column."""
    rng = random.Random(11)
    seen: dict = {}
    for _ in range(600):
        text, kind = _random_facts(rng)
        got = _outcome(parse, text)
        assert got == _outcome(reference_parse, text), text
        key = (kind, got[0] == "error")
        seen[key] = seen.get(key, 0) + 1
    kinds = {k for k, _ in _FACT_BREAKS}
    assert all(seen.get((k, True), 0) >= 10 for k in kinds), seen
    assert seen.get((None, False), 0) >= 100, seen


def test_well_formed_facts_skip_the_descent(monkeypatch):
    """A ``fact: p(c1,...,cn).`` statement never enters the formula
    descent; the facts come out as atoms over constants."""
    from guardedsat import syntax

    def refuse(self):
        raise AssertionError("descent entered")

    monkeypatch.setattr(syntax._Parser, "formula", refuse)
    prob = parse("fact: p(c1,c2).\nfact: q(c2).  % c\nfact: p(c2,c1).")
    assert prob.facts == [AtomF("p", (Const("c1"), Const("c2"))),
                          AtomF("q", (Const("c2"),)),
                          AtomF("p", (Const("c2"), Const("c1")))]
    assert [s.name for s in prob.symbols] == ["c1", "c2", "p", "q"]


def _constants(f, out):
    """Append the constant objects of the formula ``f`` to ``out``."""
    if isinstance(f, AtomF):
        out.extend(t for t in f.args if isinstance(t, Const))
    elif isinstance(f, Not):
        _constants(f.body, out)
    elif isinstance(f, (And, Or)):
        for g in f.items:
            _constants(g, out)
    elif isinstance(f, (Implies, Iff)):
        _constants(f.left, out)
        _constants(f.right, out)
    elif isinstance(f, (Forall, Exists)):
        _constants(f.body, out)
    return out


def test_one_constant_object_per_name_per_parse(monkeypatch):
    """Within one parse, every occurrence of a constant name, in a fact
    read by its shape or by the descent, a rule, a query or an equality,
    is one :class:`Const` object, declared once.  Two parses of the same
    text share no constant object, so no table outlives a parse."""
    from guardedsat.terms import SymbolKind, SymbolTable
    declared = []
    declare = SymbolTable.declare

    def counting(self, name, kind, arity, *rest):
        declared.append((name, kind))
        return declare(self, name, kind, arity, *rest)

    monkeypatch.setattr(SymbolTable, "declare", counting)
    text = ("fact: p(c1,c2).\n"
            "rule: ! [X] : (p(X,c1) => q(X)).\n"
            "fact: (p(c2,c1)).\n"
            "query: ? [X] : (p(c1,X) & q(X)).\n"
            "formula: c1 != c2.\n")

    def constants(prob):
        out = []
        for f in prob.facts + prob.rules + prob.queries + prob.formulas:
            _constants(f, out)
        return out

    first = constants(parse(text))
    assert sorted(c.name for c in first) == ["c1"] * 5 + ["c2"] * 3
    assert len({id(c) for c in first}) == 2
    assert [name for name, kind in declared
            if kind is SymbolKind.CONSTANT] == ["c1", "c2"]
    second = constants(parse(text))
    assert second == first
    assert not {id(c) for c in first} & {id(c) for c in second}


class TestFragments:
    def test_plain_universal_not_guarded(self):
        f = parse_formula("! [X] : a(X)")
        assert check_fragment(f).fragment == "none"

    def test_guarded(self):
        f = parse_formula("! [X,Y] : (g(X,Y) => a(X))")
        assert check_fragment(f).fragment == "GF"

    def test_transitivity_not_in_any_fragment(self):
        f = parse_formula(
            "! [X,Y,Z] : ((r(X,Y) & r(Y,Z)) => r(X,Z))")
        assert check_fragment(f).fragment == "none"

    def test_loosely_guarded(self):
        f = parse_formula(
            "! [X,Y] : ((r(X,Y) & b(Y)) => "
            "? [Z] : (r(X,Z) & r(Z,Y) & a(Z)))")
        r = check_fragment(f)
        assert r.fragment == "LGF"

    def test_clique_guarded(self):
        f = parse_formula(
            "! [X1,X2] : (g(X1,X2) => ! [X3] : "
            "((? [X4,X5] : (a(X1,X3,X4) & b(X2,X3,X5))) => "
            "? [X6] : d(X1,X6)))")
        r = check_fragment(f)
        assert r.fragment == "CGF"

    def test_gf_subset_lgf(self):
        # every GF formula is also accepted when testing LGF directly
        f = parse_formula("! [X,Y] : (g(X,Y) => a(X))")
        assert check_fragment(f).fragment == "GF"


@pytest.mark.parametrize("seed", range(4))
def test_fragment_agrees_with_reference(seed):
    # the one-walk checker against one pass per fragment, on formulas
    # mixing <=>, nested and clique guards, equality and function terms
    rng = random.Random(seed)
    seen = set()
    for _ in range(1500):
        f = random_formula(rng, rng.randint(1, 4))
        want = reference_check_fragment(f)
        assert check_fragment(f) == want, print_formula(f)
        seen.add(want.fragment)
    assert seen == {"GF", "LGF", "CGF", "none"}


@pytest.mark.parametrize("text", [
    # a <=> as a universal's body, and as an existential's
    "! [X] : (p1(X) <=> p1(X))",
    "! [X] : ! [Y] : (p2(X,Y) <=> p1(X))",
    "? [X] : (p1(X) <=> p1(X))",
    # as an existential's conjunct, holding the witness or guarding
    "? [X] : (p1(X) & (p1(X) <=> ! [Y] : p1(Y)))",
    "? [X] : ((p1(X) <=> p1(X)) & p1(X))",
    # witnesses under a <=>, on either side, and nested ones
    "p0 <=> ! [X] : p1(X)",
    "(! [X] : p1(X)) <=> p0",
    "~(p0 <=> (p0 <=> ! [X] : p1(X)))",
    "! [X] : (p1(X) => (p1(X) <=> p2(X,f(X))))",
    "! [X] : (p1(X) => ! [Y] : (p2(X,Y) <=> ! [Z] : p1(Z)))",
    # a guard holding a <=>, a guarded part holding one, in a fragment
    "! [X] : ((p1(X) <=> p1(X)) => p1(X))",
    "! [X,Y] : (p2(X,Y) => (p1(X) <=> ? [Z] : (p2(Y,Z) & p1(Z))))",
])
def test_fragment_witness_with_iff_agrees_with_reference(text):
    """A <=> is ranked as its two implications without building them,
    and only the witness is expanded: the fragment and the witness are
    those of the checker run on the expanded formula."""
    f = parse_formula(text)
    want = reference_check_fragment(f)
    assert check_fragment(f) == want
    assert check_fragment(f) == check_fragment(expand_iff(f))


@pytest.mark.parametrize("seed", range(2))
def test_fragment_of_random_iff_agrees_with_reference(seed):
    """The same on random formulas put under a <=> or around one: as a
    universal's body, as an existential's conjunct, and as a side."""
    rng = random.Random(seed)
    witnesses = 0
    for _ in range(600):
        a = random_formula(rng, rng.randint(1, 3))
        b = random_formula(rng, rng.randint(1, 3))
        iff = Iff(a, b) if rng.random() < 0.5 else Iff(b, a)
        for f in (iff, Not(iff), Forall(("X",), iff),
                  Exists(("X",), And((AtomF("p1", (Var("X"),)), iff))),
                  Forall(("X",), Implies(AtomF("p1", (Var("X"),)), iff))):
            want = reference_check_fragment(f)
            assert check_fragment(f) == want, print_formula(f)
            witnesses += want.witness is not None
    assert witnesses > 1000, witnesses


class TestQueries:
    def test_negate_query(self):
        q = parse_formula("? [X,Y] : (r(X,Y) & b(Y))")
        c = negate_query(q)
        assert all(not l.pos for l in c)
        assert "query" in membership(c)

    def test_negate_query_rejects_disjunction(self):
        q = parse_formula("? [X] : (a(X) | b(X))")
        with pytest.raises(ValueError):
            negate_query(q)

    def test_negate_query_rejects_functions(self):
        q = parse_formula("? [X] : a(f(X))")
        with pytest.raises(ValueError):
            negate_query(q)
