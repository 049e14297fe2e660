"""Formula syntax: AST, a TPTP-flavoured parser, printer, fragment checks.

Problem files are sequences of statements::

    % comment
    rule:  ! [X,Y] : (r(X,Y) => a(X)).
    fact:  r(c1,c2).
    query: ? [X] : (a(X) & b(X)).

Identifiers starting with an upper-case letter are variables, everything
else names constants, functions or predicates.  ``query`` statements are
the disjuncts of a union of Boolean conjunctive queries.  The grammar also
accepts ``formula:`` statements with ``=`` / ``!=`` atoms so that rewriting
output can be parsed back.

The parser reads token texts, not token objects: one compiled regex's
``findall`` turns the text into a list of strings, and a recursive
descent walks that list by index, reading a token's kind off its first
character.  Line and column are worked out only when a ``ParseError`` is
raised, by scanning the text again up to the offending token.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from typing import Optional

from .terms import (
    App, Clause, Const, Literal, SymbolKind, SymbolOrigin, SymbolTable,
    Term, Var,
)


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True, slots=True)
class Top:
    pass


@dataclass(frozen=True, slots=True)
class Bottom:
    pass


@dataclass(frozen=True, slots=True)
class AtomF:
    pred: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True, slots=True)
class Not:
    body: "Formula"


@dataclass(frozen=True, slots=True)
class And:
    items: tuple["Formula", ...]


@dataclass(frozen=True, slots=True)
class Or:
    items: tuple["Formula", ...]


@dataclass(frozen=True, slots=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Forall:
    vars: tuple[str, ...]
    body: "Formula"


@dataclass(frozen=True, slots=True)
class Exists:
    vars: tuple[str, ...]
    body: "Formula"


Formula = Top | Bottom | AtomF | Not | And | Or | Implies | Iff | Forall | Exists

EQ_PRED = "="


def free_vars(f: Formula, bound: frozenset[str] = frozenset()) -> set[str]:
    if isinstance(f, AtomF):
        out: set[str] = set()
        for t in f.args:
            _term_free(t, bound, out)
        return out
    if isinstance(f, Not):
        return free_vars(f.body, bound)
    if isinstance(f, (And, Or)):
        out = set()
        for g in f.items:
            out |= free_vars(g, bound)
        return out
    if isinstance(f, (Implies, Iff)):
        return free_vars(f.left, bound) | free_vars(f.right, bound)
    if isinstance(f, (Forall, Exists)):
        return free_vars(f.body, bound | frozenset(f.vars))
    return set()


def _term_free(t: Term, bound: frozenset[str], out: set[str]) -> None:
    if isinstance(t, Var):
        if t.name not in bound:
            out.add(t.name)
    elif isinstance(t, App):
        for a in t.args:
            _term_free(a, bound, out)


# ---------------------------------------------------------------------------
# printing


def print_term(t: Term) -> str:
    if isinstance(t, App):
        return f"{t.fn}({','.join(print_term(a) for a in t.args)})"
    return t.name


def print_formula(f: Formula) -> str:
    if isinstance(f, Top):
        return "$true"
    if isinstance(f, Bottom):
        return "$false"
    if isinstance(f, AtomF):
        if f.pred == EQ_PRED:
            return f"{print_term(f.args[0])} = {print_term(f.args[1])}"
        if not f.args:
            return f.pred
        return f"{f.pred}({','.join(print_term(a) for a in f.args)})"
    if isinstance(f, Not):
        if isinstance(f.body, AtomF) and f.body.pred == EQ_PRED:
            return (f"{print_term(f.body.args[0])} != "
                    f"{print_term(f.body.args[1])}")
        return f"~{_wrap(f.body)}"
    if isinstance(f, And):
        return " & ".join(_wrap(g) for g in f.items)
    if isinstance(f, Or):
        return " | ".join(_wrap(g) for g in f.items)
    if isinstance(f, Implies):
        return f"{_wrap(f.left)} => {_wrap(f.right)}"
    if isinstance(f, Iff):
        return f"{_wrap(f.left)} <=> {_wrap(f.right)}"
    if isinstance(f, Forall):
        return f"! [{','.join(f.vars)}] : {_wrap(f.body)}"
    if isinstance(f, Exists):
        return f"? [{','.join(f.vars)}] : {_wrap(f.body)}"
    raise TypeError(f"not a formula: {f!r}")


def _wrap(f: Formula) -> str:
    if isinstance(f, (Top, Bottom, AtomF, Not)):
        return print_formula(f)
    return f"({print_formula(f)})"


# ---------------------------------------------------------------------------
# parsing


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int) -> None:
        super().__init__(f"{msg} at line {line}, column {col}")
        self.line = line
        self.col = col


# A token is a word, a ``$`` keyword, a two- or three-character connective
# or any other single character but a blank.  ``findall`` skips the blanks
# between tokens.  Comments are cut out before it runs; the error path
# scans the text as it was, and skips them.
_TOKEN = re.compile(
    r"%[^\n]*|[A-Za-z0-9_]+|\$[A-Za-z0-9_]*|<=>|=>|!=|[^ \t\r\n]")
_COMMENT = re.compile(r"%[^\n]*")
_WORD = frozenset(string.ascii_letters + string.digits + "_")
_UPPER = frozenset(string.ascii_uppercase)
_NAME = _WORD - _UPPER
# the one-character tokens the grammar has; any other is a character no
# token may hold
_ONE_CHAR = _WORD | frozenset("$()[],.:&|~!?=")
# put after the last token: no token is a blank, so no rule takes it
_END = " "


@dataclass
class Problem:
    rules: list[Formula] = field(default_factory=list)
    facts: list[AtomF] = field(default_factory=list)
    queries: list[Formula] = field(default_factory=list)
    formulas: list[Formula] = field(default_factory=list)
    symbols: SymbolTable = field(default_factory=SymbolTable)
    mode: str = "answer"


# Deepest nesting of formulas and terms the parser accepts.  The parser
# and the later passes recurse once per level, so the cap keeps deep input
# an input error instead of a RecursionError.
MAX_NESTING = 100


class _Parser:
    """Recursive descent over the token texts of ``text``, by index.

    A token's kind is read off its first character: an upper-case letter
    starts a variable, another word character a name, ``$`` a keyword.
    Positions are worked out only for an error, by scanning the text again.
    """

    __slots__ = ("text", "toks", "i", "depth")

    def __init__(self, text: str) -> None:
        self.text = text
        self.toks = _TOKEN.findall(_COMMENT.sub("", text))
        self.toks.append(_END)
        self.i = 0
        self.depth = 0

    def error(self, msg: str, i: Optional[int]) -> ParseError:
        """``msg`` at token ``i``, or at line 0, column 0 when ``i`` is None.

        A character no token may hold is reported first, wherever it is:
        the parser stops at it or earlier, since no rule takes it.
        """
        toks = self.toks
        for j in range(len(toks) - 1):
            if len(toks[j]) == 1 and toks[j] not in _ONE_CHAR:
                msg, i = f"unexpected character {toks[j]!r}", j
                break
        if i is None:
            return ParseError(msg, 0, 0)
        pos = 0  # with no token at all, line 1, column 1
        k = -1
        for m in _TOKEN.finditer(self.text):
            if m.group()[0] != "%":
                k += 1
                if k == i:
                    pos = m.start()
                    break
        return ParseError(msg, self.text.count("\n", 0, pos) + 1,
                          pos - self.text.rfind("\n", 0, pos))

    def unexpected(self, expected: str, i: int) -> ParseError:
        """``expected``, found token ``i``, or the end of the input."""
        tok = self.toks[i]
        if tok == _END:
            return self.error("unexpected end of input", i - 1)
        return self.error(f"{expected}, found {tok!r}", i)

    def expect(self, text: str) -> None:
        i = self.i
        if self.toks[i] != text:
            raise self.unexpected(f"expected {text!r}", i)
        self.i = i + 1

    def deeper(self, i: int) -> None:
        """Enter one nesting level at token ``i``; the caller leaves it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels", i)

    # formula := disjunction (('=>' | '<=>') formula)?
    def formula(self) -> Formula:
        left = self.disjunction()
        i = self.i
        op = self.toks[i]
        if op != "=>" and op != "<=>":
            return left
        self.i = i + 1
        self.deeper(i)
        right = self.formula()
        self.depth -= 1
        return Implies(left, right) if op == "=>" else Iff(left, right)

    def disjunction(self) -> Formula:
        f = self.conjunction()
        if self.toks[self.i] != "|":
            return f
        items = [f]
        while self.toks[self.i] == "|":
            self.i += 1
            items.append(self.conjunction())
        return Or(tuple(items))

    def conjunction(self) -> Formula:
        f = self.unary()
        if self.toks[self.i] != "&":
            return f
        items = [f]
        while self.toks[self.i] == "&":
            self.i += 1
            items.append(self.unary())
        return And(tuple(items))

    def unary(self) -> Formula:
        i = self.i
        tok = self.toks[i]
        if tok == _END:
            raise self.error("unexpected end of input", None)
        self.deeper(i)
        if tok == "~":
            self.i = i + 1
            f = Not(self.unary())
        elif tok == "!" or tok == "?":
            self.i = i + 1
            self.expect("[")
            vs = [self.variable()]
            while self.toks[self.i] == ",":
                self.i += 1
                vs.append(self.variable())
            self.expect("]")
            self.expect(":")
            body = self.unary()
            f = Forall(tuple(vs), body) if tok == "!" \
                else Exists(tuple(vs), body)
        elif tok == "(":
            self.i = i + 1
            f = self.formula()
            self.expect(")")
        elif tok[0] == "$":
            self.i = i + 1
            if tok == "$true":
                f = Top()
            elif tok == "$false":
                f = Bottom()
            else:
                raise self.error(f"unknown token {tok!r}", i)
        else:
            f = self.atom()
        self.depth -= 1
        return f

    def variable(self) -> str:
        i = self.i
        tok = self.toks[i]
        if tok[0] not in _UPPER:
            raise self.unexpected("expected a variable (upper-case)", i)
        self.i = i + 1
        return tok

    def atom(self) -> Formula:
        toks = self.toks
        i = self.i
        tok = toks[i]
        if tok[0] in _NAME and toks[i + 1] == "(":
            # read a predicate's arguments here: its atom needs no App
            self.deeper(i + 1)
            args = self.arguments(i + 2)
            op = toks[self.i]
            if op != "=" and op != "!=":
                return AtomF(tok, args)
            t: Term = App(tok, args)
        else:
            t = self.term()
            op = toks[self.i]
        if op == "=" or op == "!=":
            self.i += 1
            eq = AtomF(EQ_PRED, (t, self.term()))
            return eq if op == "=" else Not(eq)
        # reinterpret the parsed term as a predicate atom
        if isinstance(t, Const):
            return AtomF(t.name)
        raise self.error("a variable is not a formula", self.i - 1)

    def term(self) -> Term:
        toks = self.toks
        i = self.i
        tok = toks[i]
        if tok[0] in _UPPER:
            self.i = i + 1
            return Var(tok)
        if tok[0] not in _NAME:
            raise self.unexpected("expected a term", i)
        if toks[i + 1] != "(":
            self.i = i + 1
            return Const(tok)
        self.deeper(i + 1)
        return App(tok, self.arguments(i + 2))

    def arguments(self, i: int) -> tuple[Term, ...]:
        """The terms from token ``i`` to the ``)`` that leaves the level
        the caller entered at the ``(``."""
        self.i = i
        args = [self.term()]
        while self.toks[self.i] == ",":
            self.i += 1
            args.append(self.term())
        self.expect(")")
        self.depth -= 1
        return tuple(args)


_STATEMENT_KINDS = ("rule", "fact", "query", "formula")


def parse(text: str) -> Problem:
    """Parse a problem file into rules, facts and query disjuncts."""
    p = _Parser(text)
    toks = p.toks
    prob = Problem()
    while toks[p.i] != _END:
        i = p.i
        head = toks[i]
        if head not in _STATEMENT_KINDS:
            raise p.unexpected(f"expected one of {_STATEMENT_KINDS}", i)
        p.i = i + 1
        p.expect(":")
        f = p.formula()
        p.expect(".")
        if head == "fact":
            if not isinstance(f, AtomF) or f.pred == EQ_PRED or \
                    not all(isinstance(a, Const) for a in f.args):
                raise p.error("a fact must be a ground function-free atom", i)
            prob.facts.append(f)
        elif head == "rule":
            prob.rules.append(f)
        elif head == "query":
            prob.queries.append(f)
        else:
            prob.formulas.append(f)
    _declare_symbols(prob)
    return prob


def parse_formula(text: str) -> Formula:
    """Parse a single bare formula (no statement keyword, no final dot)."""
    p = _Parser(text)
    f = p.formula()
    tok = p.toks[p.i]
    if tok != _END:
        raise p.error(f"trailing input {tok!r}", p.i)
    return f


def _declare_symbols(prob: Problem) -> None:
    for f in prob.rules + prob.queries + prob.formulas:
        declare_formula_symbols(prob.symbols, f)
    for a in prob.facts:
        declare_formula_symbols(prob.symbols, a)


def declare_formula_symbols(symbols: SymbolTable, f: Formula) -> None:
    if isinstance(f, AtomF):
        if f.pred != EQ_PRED:
            kind = SymbolKind.PREDICATE if f.args else SymbolKind.PROPOSITIONAL
            symbols.declare(f.pred, kind, len(f.args))
        for t in f.args:
            if isinstance(t, Const):
                symbols.declare(t.name, SymbolKind.CONSTANT, 0)
            elif isinstance(t, App):
                _declare_term_symbols(symbols, t)
    elif isinstance(f, Not):
        declare_formula_symbols(symbols, f.body)
    elif isinstance(f, (And, Or)):
        for g in f.items:
            declare_formula_symbols(symbols, g)
    elif isinstance(f, (Implies, Iff)):
        declare_formula_symbols(symbols, f.left)
        declare_formula_symbols(symbols, f.right)
    elif isinstance(f, (Forall, Exists)):
        declare_formula_symbols(symbols, f.body)


def _declare_term_symbols(symbols: SymbolTable, t: Term) -> None:
    if isinstance(t, Const):
        symbols.declare(t.name, SymbolKind.CONSTANT, 0)
    elif isinstance(t, App):
        symbols.declare(t.fn, SymbolKind.FUNCTION, len(t.args))
        for a in t.args:
            _declare_term_symbols(symbols, a)


# ---------------------------------------------------------------------------
# fragment checking


@dataclass(frozen=True, slots=True)
class FragmentResult:
    fragment: str  # "GF" | "LGF" | "CGF" | "none"
    witness: Optional[Formula] = None  # offending subformula when "none"


def expand_iff(f: Formula) -> Formula:
    if isinstance(f, Iff):
        l, r = expand_iff(f.left), expand_iff(f.right)
        return And((Implies(l, r), Implies(r, l)))
    if isinstance(f, Not):
        return Not(expand_iff(f.body))
    if isinstance(f, And):
        return And(tuple(expand_iff(g) for g in f.items))
    if isinstance(f, Or):
        return Or(tuple(expand_iff(g) for g in f.items))
    if isinstance(f, Implies):
        return Implies(expand_iff(f.left), expand_iff(f.right))
    if isinstance(f, Forall):
        return Forall(f.vars, expand_iff(f.body))
    if isinstance(f, Exists):
        return Exists(f.vars, expand_iff(f.body))
    return f


def _merge_quant(f: Formula) -> Formula:
    """Fuse ``! [X] : ! [Y] : F`` into ``! [X,Y] : F`` (same for ``?``)."""
    if isinstance(f, Forall) and isinstance(f.body, Forall):
        return _merge_quant(Forall(f.vars + f.body.vars, f.body.body))
    if isinstance(f, Exists) and isinstance(f.body, Exists):
        return _merge_quant(Exists(f.vars + f.body.vars, f.body.body))
    return f


def _conj_atoms(f: Formula) -> Optional[list[AtomF]]:
    if isinstance(f, AtomF):
        return [f]
    if isinstance(f, And):
        out: list[AtomF] = []
        for g in f.items:
            sub = _conj_atoms(g)
            if sub is None:
                return None
            out.extend(sub)
        return out
    return None


def _atom_vars(a: AtomF) -> set[str]:
    out: set[str] = set()
    for t in a.args:
        _term_free(t, frozenset(), out)
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


def check_fragment(f: Formula) -> FragmentResult:
    """Smallest guarded fragment containing ``f`` (after expanding ``<=>``).

    Function symbols and equality are outside all three fragments.  The
    result is monotone: membership in GF implies LGF implies CGF.
    """
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


def _atom_ok(a: AtomF) -> bool:
    return a.pred != EQ_PRED and not any(isinstance(t, App) for t in a.args)


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
# query clauses


def negate_query(q: Formula) -> Clause:
    """Negate one BCQ disjunct into a flat negative (query) clause."""
    body = q
    seen_vars: tuple[str, ...] = ()
    while isinstance(body, Exists):
        seen_vars += body.vars
        body = body.body
    atoms = _conj_atoms(body)
    if atoms is None or not all(_atom_ok(a) for a in atoms):
        raise ValueError(
            f"not a Boolean conjunctive query: {print_formula(q)}")
    return Clause(Literal(False, a.pred, a.args) for a in atoms)
