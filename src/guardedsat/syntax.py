"""Formula syntax: AST, a TPTP-flavoured parser, printer, fragment checks.

Problem files are sequences of statements::

    % comment
    rule:  ! [X,Y] : (r(X,Y) => a(X)).
    fact:  r(c1,c2).
    query: ? [X] : (a(X) & b(X)).

Identifiers starting with an upper-case letter are variables, everything
else names constants, functions or predicates.  ``query`` statements are
the disjuncts of a union of Boolean conjunctive queries.  ``formula``
statements are clausified with the rules; the grammar accepts ``=`` /
``!=`` atoms so that rewriting output can be parsed back, though
equality lies outside the guarded fragments.

The parser reads token texts, not token objects: one compiled regex's
``findall`` turns the text into a list of strings, and a recursive
descent walks that list by index, reading a token's kind off its first
character.  It declares each symbol where it reads it, so a symbol used
with two kinds or arities is a ``ParseError`` at its second use, and it
interns constants: a parse makes one :class:`Const` per name, declared
where the name is first read, and the table dies with the parse.  Line
and column are worked out only when a ``ParseError`` is raised, by
scanning the text again up to the offending token.  A statement
``fact: p(c1,...,cn).`` is read by its shape, declaring what the descent
would in the same order; any other statement, a malformed fact
included, goes through the descent, which raises the errors.

The fragment check is one walk: the fragments nest (GF in LGF in CGF),
so each quantifier gets the smallest fragment whose guard conditions it
meets, and a formula the largest over its quantifiers.

The formula nodes are slotted dataclasses that compare by fields.  They
are immutable by convention: no code assigns to a node's fields once it
is built.  Nothing hashes a formula, so the nodes are not frozen, which
keeps their constructors at plain attribute stores, and not hashable.
The terms inside them are :mod:`guardedsat.terms` objects, which keep a
cached hash that is rebuilt on unpickling.
"""

from __future__ import annotations

import operator
import re
import string
from dataclasses import dataclass, field
from typing import KeysView, Optional

from .terms import (
    App, Clause, Const, Literal, SymbolKind, SymbolTable, Term, Var,
)


# ---------------------------------------------------------------------------
# AST


@dataclass(slots=True)
class Top:
    pass


@dataclass(slots=True)
class Bottom:
    pass


@dataclass(slots=True)
class AtomF:
    pred: str
    args: tuple[Term, ...] = ()


@dataclass(slots=True)
class Not:
    body: "Formula"


@dataclass(slots=True)
class And:
    items: tuple["Formula", ...]


@dataclass(slots=True)
class Or:
    items: tuple["Formula", ...]


@dataclass(slots=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(slots=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(slots=True)
class Forall:
    vars: tuple[str, ...]
    body: "Formula"


@dataclass(slots=True)
class Exists:
    vars: tuple[str, ...]
    body: "Formula"


Formula = Top | Bottom | AtomF | Not | And | Or | Implies | Iff | Forall | Exists

EQ_PRED = "="


def free_vars(f: Formula, bound: frozenset[str] = frozenset()
              ) -> KeysView[str]:
    """The free variables of ``f``, in order of first free occurrence."""
    out: dict[str, None] = {}
    _free(f, bound, out)
    return out.keys()


def _free(f: Formula, bound: frozenset[str], out: dict[str, None]) -> None:
    if isinstance(f, AtomF):
        for t in f.args:
            _term_free(t, bound, out)
    elif isinstance(f, Not):
        _free(f.body, bound, out)
    elif isinstance(f, (And, Or)):
        for g in f.items:
            _free(g, bound, out)
    elif isinstance(f, (Implies, Iff)):
        _free(f.left, bound, out)
        _free(f.right, bound, out)
    elif isinstance(f, (Forall, Exists)):
        _free(f.body, bound | frozenset(f.vars), out)


def _term_free(t: Term, bound: frozenset[str], out: dict[str, None]) -> None:
    if isinstance(t, Var):
        if t.name not in bound:
            out[t.name] = None
    elif isinstance(t, App):
        for a in t.args:
            _term_free(a, bound, out)


# ---------------------------------------------------------------------------
# printing


def print_formula(f: Formula) -> str:
    if isinstance(f, Top):
        return "$true"
    if isinstance(f, Bottom):
        return "$false"
    if isinstance(f, AtomF):
        if f.pred == EQ_PRED:
            return f"{f.args[0]} = {f.args[1]}"
        if not f.args:
            return f.pred
        return f"{f.pred}({','.join(map(str, f.args))})"
    if isinstance(f, Not):
        if isinstance(f.body, AtomF) and f.body.pred == EQ_PRED:
            return f"{f.body.args[0]} != {f.body.args[1]}"
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


# Deepest nesting of formulas and terms the parser accepts.  The parser
# and the later passes recurse once per level, so the cap keeps deep input
# an input error instead of a RecursionError.
MAX_NESTING = 100


class _Parser:
    """Recursive descent over the token texts of ``text``, by index.

    A token's kind is read off its first character: an upper-case letter
    starts a variable, another word character a name, ``$`` a keyword.
    Positions are worked out only for an error, by scanning the text again.

    Each name is declared in ``symbols`` where it is read: a constant at
    once, a function or predicate once its arguments are read, so that its
    arity is known.  A symbol used with two kinds or arities is an error at
    the name's token.
    """

    __slots__ = ("text", "toks", "i", "depth", "symbols", "consts")

    def __init__(self, text: str, symbols: SymbolTable) -> None:
        self.text = text
        self.toks = _TOKEN.findall(_COMMENT.sub("", text))
        self.toks.append(_END)
        self.i = 0
        self.depth = 0
        self.symbols = symbols
        self.consts: dict[str, Const] = {}

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

    def declare(self, kind: SymbolKind, arity: int, i: int) -> None:
        """Declare the name at token ``i``."""
        try:
            self.symbols.declare(self.toks[i], kind, arity)
        except ValueError as e:
            raise self.error(str(e), i) from None

    def constant(self, i: int) -> Const:
        """The constant named at token ``i``: the parse's one object of
        that name, declared and made where the name is first read."""
        c = self.consts.get(self.toks[i])
        if c is None:
            self.declare(SymbolKind.CONSTANT, 0, i)
            c = self.consts[self.toks[i]] = Const(self.toks[i])
        return c

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
        t: Term
        if tok[0] in _NAME:
            # a name heads an atom unless ``=`` or ``!=`` follows its term
            if toks[i + 1] == "(":
                self.deeper(i + 1)
                args = self.arguments(i + 2)
            else:
                self.i = i + 1
                args = ()
            op = toks[self.i]
            if op != "=" and op != "!=":
                self.declare(SymbolKind.PREDICATE if args
                             else SymbolKind.PROPOSITIONAL, len(args), i)
                return AtomF(tok, args)
            if args:
                self.declare(SymbolKind.FUNCTION, len(args), i)
                t = App(tok, args)
            else:
                t = self.constant(i)
        else:
            t = self.term()
            op = toks[self.i]
            if op != "=" and op != "!=":
                raise self.error("a variable is not a formula", self.i - 1)
        self.i += 1
        eq = AtomF(EQ_PRED, (t, self.term()))
        return eq if op == "=" else Not(eq)

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
            return self.constant(i)
        self.deeper(i + 1)
        args = self.arguments(i + 2)
        self.declare(SymbolKind.FUNCTION, len(args), i)
        return App(tok, args)

    def fact(self, i: int) -> Optional[AtomF]:
        """The statement ``fact: p(c1,...,cn).`` that starts at token
        ``i``, read without the descent: it declares the constants, then
        the predicate, as the descent does.  ``None``, having read
        nothing, for a statement of any other shape."""
        toks = self.toks
        if toks[i + 1] != ":" or toks[i + 2][0] not in _NAME or \
                toks[i + 3] != "(":
            return None
        j = i + 4  # the last argument
        while toks[j][0] in _NAME and toks[j + 1] == ",":
            j += 2
        if toks[j][0] not in _NAME or toks[j + 1] != ")" or \
                toks[j + 2] != ".":
            return None
        args = tuple([self.constant(k) for k in range(i + 4, j + 1, 2)])
        self.declare(SymbolKind.PREDICATE, len(args), i + 2)
        self.i = j + 3
        return AtomF(toks[i + 2], args)

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
    """Parse a problem file into rules, facts, query disjuncts and
    formulas, declaring their symbols in the order the text first uses
    them (a function's or predicate's arguments before it)."""
    prob = Problem()
    p = _Parser(text, prob.symbols)
    toks = p.toks
    while toks[p.i] != _END:
        i = p.i
        head = toks[i]
        if head == "fact":
            fact = p.fact(i)
            if fact is not None:
                prob.facts.append(fact)
                continue
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
    return prob


# ---------------------------------------------------------------------------
# fragment checking


@dataclass(frozen=True, slots=True)
class FragmentResult:
    fragment: str  # "GF" | "LGF" | "CGF" | "none"
    witness: Optional[Formula] = None  # offending subformula when "none"


def expand_iff(f: Formula) -> Formula:
    """``f`` with each ``A <=> B`` written as ``(A => B) & (B => A)``;
    ``f`` itself, and each subformula holding no ``<=>``, as it is."""
    if isinstance(f, Iff):
        l, r = expand_iff(f.left), expand_iff(f.right)
        return And((Implies(l, r), Implies(r, l)))
    if isinstance(f, Not):
        body = expand_iff(f.body)
        return f if body is f.body else Not(body)
    if isinstance(f, (Forall, Exists)):
        body = expand_iff(f.body)
        return f if body is f.body else type(f)(f.vars, body)
    if isinstance(f, (And, Or)):
        items = tuple(map(expand_iff, f.items))
        return f if all(map(operator.is_, items, f.items)) \
            else type(f)(items)
    if isinstance(f, Implies):
        l, r = expand_iff(f.left), expand_iff(f.right)
        return f if l is f.left and r is f.right else Implies(l, r)
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


# The fragments nest, GF in LGF in CGF, so a formula's fragment is a rank
# into _FRAGMENTS, or _NONE outside all three.
_FRAGMENTS = ("GF", "LGF", "CGF")
_GF, _LGF, _CGF, _NONE = range(4)


def check_fragment(f: Formula) -> FragmentResult:
    """Smallest guarded fragment containing ``f`` (after expanding ``<=>``).

    Function symbols and equality are outside all three fragments.  One
    walk gives each quantifier the smallest fragment whose guard
    conditions it meets; the formula's fragment is the largest of these.
    The walk reads ``A <=> B`` as ``(A => B) & (B => A)`` without
    building it, and only the witness is expanded, as it is printed.
    """
    rank, witness = _rank(f)
    if rank == _NONE:
        assert witness is not None
        return FragmentResult("none", witness=expand_iff(witness))
    return FragmentResult(_FRAGMENTS[rank])


def _atom_ok(a: AtomF) -> bool:
    return a.pred != EQ_PRED and not any(isinstance(t, App) for t in a.args)


def _rank(f: Formula) -> tuple[int, Optional[Formula]]:
    """The rank of the smallest fragment containing ``f``; when that is
    ``_NONE``, also the first subformula breaking the rules of CGF.

    ``f`` is ranked as if each ``A <=> B`` in it were expanded to ``(A =>
    B) & (B => A)``: the two implications rank ``A``, then ``B``, then the
    same again, so ``A <=> B`` ranks as ``A => B`` does.  A quantifier
    whose body or guard is a ``<=>`` is outside every fragment whether it
    is expanded or not.  The witness is the unexpanded subformula in the
    place of the expanded one."""
    if isinstance(f, AtomF):
        return (_GF, None) if _atom_ok(f) else (_NONE, f)
    if isinstance(f, Not):
        return _rank(f.body)
    if isinstance(f, (And, Or, Implies, Iff)):
        rank = _GF
        for g in (f.left, f.right) if isinstance(f, (Implies, Iff)) \
                else f.items:
            r, bad = _rank(g)
            if bad is not None:
                return r, bad
            rank = max(rank, r)
        return rank, None
    if isinstance(f, Forall):
        f = _merge_quant(f)
        body = f.body
        if not isinstance(body, Implies):
            return _NONE, f
        guard = _guard_rank(set(f.vars), body.left, body.right)
        if guard == _NONE:
            return _NONE, f
        r, bad = _rank(body.right)
        return max(guard, r), bad
    if isinstance(f, Exists):
        return _exists_rank(_merge_quant(f))
    if isinstance(f, (Top, Bottom)):
        return _GF, None
    return _NONE, f


def _exists_rank(f: Exists) -> tuple[int, Optional[Formula]]:
    """The best split of the body's conjuncts into guard and rest: the
    least, over splits, of the larger of the two ranks.  With no split in
    a fragment, ``f`` itself is the witness."""
    outer = set(f.vars)
    body = f.body
    items = body.items if isinstance(body, And) else (body,)
    # rest_rank[k]: the rank of the conjunction of items[k:]
    rest_rank = [_GF] * (len(items) + 1)
    for k in range(len(items) - 1, 0, -1):
        rest_rank[k] = max(rest_rank[k + 1], _rank(items[k])[0])
    best = _NONE
    for k in range(1, len(items) + 1):
        guard: Formula
        if k == 1:
            guard = items[0]
        elif all(isinstance(h, AtomF) for h in items[:k]):
            guard = And(items[:k])
        else:
            break
        rest = items[k:]
        sub = Top() if not rest else (rest[0] if len(rest) == 1
                                      else And(rest))
        best = min(best, max(_guard_rank(outer, guard, sub), rest_rank[k]))
        if best == _GF:
            break
    return best, (f if best == _NONE else None)


def _guard_rank(outer: set[str], guard: Formula, sub: Formula) -> int:
    """The smallest fragment whose guard conditions ``guard`` and ``sub``
    meet, for a quantifier over ``outer``."""
    inner_ex: tuple[str, ...] = ()
    least = _GF
    if isinstance(guard, Exists):
        # an existentially closed conjunction is a clique guard only
        guard = _merge_quant(guard)
        inner_ex = guard.vars  # type: ignore[union-attr]
        guard = guard.body  # type: ignore[union-attr]
        least = _CGF
    atoms = _conj_atoms(guard)
    if atoms is None or not all(_atom_ok(a) for a in atoms):
        return _NONE
    atom_vars = [set(free_vars(a)) for a in atoms]
    guard_vars = set().union(*atom_vars)
    # (a) free variables of the guarded part occur (free) in the guard
    if not free_vars(sub) <= guard_vars.difference(inner_ex):
        return _NONE
    if least == _GF:
        if len(atoms) == 1:
            return _GF
        least = _LGF
    # (b) each guard-existential variable occurs in only one guard atom
    for x in inner_ex:
        if sum(1 for vs in atom_vars if x in vs) != 1:
            return _NONE
    # (b)/(c) each quantified variable co-occurs with every other guard
    # variable in a single guard atom
    for x in outer & guard_vars:
        for y in guard_vars:
            if y != x and not any(x in vs and y in vs for vs in atom_vars):
                return _NONE
    return least


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
