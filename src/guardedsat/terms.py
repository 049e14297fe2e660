"""First-order terms, literals, clauses and the operations the engine needs.

Terms are trees built from :class:`Var`, :class:`Const` and
:class:`App`.  A :class:`Literal` is a signed atom; equality literals are
tagged so the resolution engine can refuse them.  A :class:`Clause` is a
multiset of literals stored in a deterministic order.

Terms, literals and clauses are immutable by convention: they are plain
``__slots__`` classes, and no code assigns to their fields once built.
Each compares equal by class and fields and hashes as the tuple of its
fields, a hash worked out on first use and kept in a slot, since every
term and literal is hashed over and over as a dict or set key.  A
literal also keeps its variable names (:func:`lit_vars`) and its sort key
(:func:`literal_key`), and a clause its variable names
(:func:`clause_vars`, the union of its literals'), each worked out on
first use; a literal or clause is ground iff that set is empty.  These
caches are only sound because the objects stay immutable, and the sets
are frozensets, so a caller cannot change them either.  A pickled object
is rebuilt from its fields, so its caches start empty, and the cached
hash, which depends on the process's string hash seed, never crosses
processes.

Substitutions are plain ``dict[str, Term]`` mapping variable names to terms.
``mgu`` keeps them idempotent, so applying a substitution once is enough.

The clause-redundancy kernels stay polynomial on cyclic queries.  One
search with its own stack, ``_find_map``, maps clauses for subsumption,
condensation and automorphisms alike, so no clause length makes it
recurse.  It visits the pattern literals in connected order: the first
literal, then each time the one sharing the most variables with those
already placed, ties by clause order.  It looks its candidates up
instead of scanning the target: a clause keeps its literal positions by
sign, predicate and arity, and where several share one, a pattern
argument that is a constant or an already bound variable is probed in a
lazily built map from the terms at that argument to positions, so only
literals holding that very term are tried.  When a cycle is condensed,
each literal after the first finds its one image by a single probe.  A
clause is condensed iff every map of it into itself is onto (Gottlob &
Fermüller, "Removing redundancy from a clause", 1993).  ``condense``
first asks that with one search over those maps, which stops as soon as
a map leaves a literal out; only a clause that can shrink runs a step of
the pairwise scan.  The search walks one image of the first literal per
orbit of the clause's automorphisms, so a k-cycle costs about log2(k)
walks instead of k.  ``condense`` flags its result, which it cannot
shrink further, so condensing it again costs nothing.  ``membership``
decides "LG" and "guarded" directly: covering only grows with the
literal set, so a loose guard exists iff all negative flat literals
together cover every variable and pair, and a guard of at most one
literal exists iff one of them holds every variable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush
from typing import Any, Hashable, Iterable, Iterator, Optional, Sequence


# ---------------------------------------------------------------------------
# terms


class _Named:
    """A leaf term: a :class:`Var` or a :class:`Const` of a name.  A
    variable never equals a constant of the same name."""

    __slots__ = ("name", "_hash")

    def __init__(self, name: str) -> None:
        self.name = name
        self._hash: Optional[int] = None

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return False
        return self is other or self.name == other.name

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.name,))
        return h

    def __reduce__(self) -> tuple:
        return self.__class__, (self.name,)

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}(name={self.name!r})"

    def __str__(self) -> str:
        return self.name


class Var(_Named):
    __slots__ = ()


class Const(_Named):
    __slots__ = ()


class App:
    __slots__ = ("fn", "args", "_hash")

    def __init__(self, fn: str, args: tuple["Term", ...]) -> None:
        self.fn = fn
        self.args = args
        self._hash: Optional[int] = None

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not App:
            return False
        return self is other or (self.fn == other.fn
                                 and self.args == other.args)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.fn, self.args))
        return h

    def __reduce__(self) -> tuple:
        return App, (self.fn, self.args)

    def __repr__(self) -> str:
        return f"App(fn={self.fn!r}, args={self.args!r})"

    def __str__(self) -> str:
        return f"{self.fn}({','.join(map(str, self.args))})"


Term = Var | Const | App
Subst = dict[str, Term]


class SymbolKind(Enum):
    VARIABLE = "variable"
    CONSTANT = "constant"
    FUNCTION = "function"
    PREDICATE = "predicate"
    PROPOSITIONAL = "propositional"


class SymbolOrigin(Enum):
    INPUT = "input"
    SKOLEM = "skolem"
    DEFINER = "definer"


@dataclass(frozen=True, slots=True)
class Symbol:
    """A declared symbol.  ``name_key`` orders names for the precedence,
    inverted lexicographically: ``a`` beats ``b``, and a proper prefix
    beats its extensions."""
    name: str
    kind: SymbolKind
    arity: int
    origin: SymbolOrigin = SymbolOrigin.INPUT
    name_key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "name_key",
                           (*[-ord(ch) for ch in self.name], float("inf")))


class SymbolTable:
    """Registry of the non-variable symbols appearing in a problem.

    Tracks arity (checked on re-declaration) and origin, which the term
    ordering uses to place fresh Skolem and definer symbols below the input
    symbols of the same kind.
    """

    def __init__(self) -> None:
        self._symbols: dict[str, Symbol] = {}
        self._fresh_counters: dict[str, int] = {}

    def declare(self, name: str, kind: SymbolKind, arity: int,
                origin: SymbolOrigin = SymbolOrigin.INPUT) -> Symbol:
        prev = self._symbols.get(name)
        if prev is not None:
            if prev.kind is not kind or prev.arity != arity:
                raise ValueError(
                    f"symbol {name!r} redeclared as {kind.value}/{arity}, "
                    f"was {prev.kind.value}/{prev.arity}")
            return prev
        sym = Symbol(name, kind, arity, origin)
        self._symbols[name] = sym
        return sym

    def get(self, name: str) -> Optional[Symbol]:
        return self._symbols.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._symbols

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self._symbols.values())

    def fresh(self, prefix: str, kind: SymbolKind, arity: int,
              origin: SymbolOrigin) -> Symbol:
        """Declare a new symbol ``<prefix><n>`` not colliding with anything."""
        n = self._fresh_counters.get(prefix, 0)
        while f"{prefix}{n}" in self._symbols:
            n += 1
        self._fresh_counters[prefix] = n + 1
        return self.declare(f"{prefix}{n}", kind, arity, origin)

    def copy(self) -> "SymbolTable":
        dup = SymbolTable()
        dup._symbols = dict(self._symbols)
        dup._fresh_counters = dict(self._fresh_counters)
        return dup


# ---------------------------------------------------------------------------
# literals and clauses

EQ = "="


class Literal:
    """A signed atom.  ``pos`` is the polarity; ``pred`` the predicate name.

    Equality literals use the reserved predicate ``=`` with exactly two
    arguments; they appear only in the rewriting pipeline, never in the
    resolution engine.
    """

    __slots__ = ("pos", "pred", "args", "_hash", "_vars", "_key")

    def __init__(self, pos: bool, pred: str, args: tuple[Term, ...] = ()
                 ) -> None:
        self.pos = pos
        self.pred = pred
        self.args = args
        self._hash: Optional[int] = None
        # filled by :func:`lit_vars` and :func:`literal_key`
        self._vars: Optional[frozenset[str]] = None
        self._key: Optional[tuple] = None

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not Literal:
            return False
        return self is other or (self.pred == other.pred
                                 and self.pos == other.pos
                                 and self.args == other.args)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.pos, self.pred, self.args))
        return h

    def __reduce__(self) -> tuple:
        return Literal, (self.pos, self.pred, self.args)

    def __repr__(self) -> str:
        return (f"Literal(pos={self.pos!r}, pred={self.pred!r}, "
                f"args={self.args!r})")

    @property
    def is_eq(self) -> bool:
        return self.pred == EQ

    def negate(self) -> "Literal":
        return Literal(not self.pos, self.pred, self.args)

    def __str__(self) -> str:
        if self.is_eq:
            op = "=" if self.pos else "!="
            return f"{self.args[0]} {op} {self.args[1]}"
        body = self.pred if not self.args else \
            f"{self.pred}({','.join(map(str, self.args))})"
        return body if self.pos else "~" + body


_VAR_KEY = (0, "", ())


def _term_key(t: Term) -> tuple:
    cls = t.__class__
    if cls is Var:
        # all variables compare equal structurally; names break ties last
        return _VAR_KEY
    if cls is Const:
        return (1, t.name, ())
    return (2, t.fn, tuple(map(_term_key, t.args)))  # type: ignore[union-attr]


def literal_key(lit: Literal) -> tuple:
    """Structural total order on literals (variable names break ties
    last), worked out once per literal."""
    key = lit._key
    if key is None:
        args = lit.args
        key = lit._key = (lit.pred, len(args), not lit.pos,
                          tuple(map(_term_key, args)), tuple(map(str, args)))
    return key


class Clause:
    """A multiset of literals kept in sorted order.

    Two clauses are equal when their sorted literal tuples are.
    """

    __slots__ = ("literals", "_hash", "_vars", "_order", "_buckets",
                 "_probes", "_condensed")

    def __init__(self, literals: Iterable[Literal]) -> None:
        lits = tuple(literals)
        if len(lits) > 1:
            lits = tuple(sorted(lits, key=literal_key))
        self.literals: tuple[Literal, ...] = lits
        self._hash: Optional[int] = None
        self._vars: Optional[frozenset[str]] = None  # see clause_vars
        self._order: Optional[Sequence[int]] = None
        self._buckets: Optional[dict[tuple, list[int]]] = None
        self._probes: Optional[dict[tuple, dict[Term, list[int]]]] = None
        # set on a clause that :func:`condense` returned
        self._condensed = False

    def search_order(self) -> Sequence[int]:
        """The positions of the literals in the order the subsumption
        search visits them (see :func:`_search_order`), worked out once
        per clause."""
        if self._order is None:
            self._order = _search_order(self.literals)
        return self._order

    def buckets(self) -> dict[tuple, list[int]]:
        """Positions of the literals by (sign, predicate, arity), worked
        out once per clause."""
        if self._buckets is None:
            self._buckets = {}
            for j, lit in enumerate(self.literals):
                self._buckets.setdefault(
                    (lit.pos, lit.pred, len(lit.args)), []).append(j)
        return self._buckets

    def candidates(self, pat: Literal, sub: Subst) -> Sequence[int]:
        """Positions, in clause order, of the literals that ``pat`` may
        match under ``sub``.

        These are the literals of ``pat``'s sign, predicate and arity.
        When there are several, the first argument of ``pat`` that is a
        constant, or a variable bound in ``sub``, narrows them to the
        literals holding that very term there; the map from terms to
        positions for that argument is built on its first probe.
        """
        key = (pat.pos, pat.pred, len(pat.args))
        bucket = self.buckets().get(key, ())
        if len(bucket) <= 1:
            return bucket
        for a, t in enumerate(pat.args):
            if isinstance(t, Var):
                t = sub.get(t.name)
                if t is None:
                    continue
            elif not isinstance(t, Const):
                continue
            if self._probes is None:
                self._probes = {}
            probe = self._probes.get((key, a))
            if probe is None:
                probe = self._probes[key, a] = {}
                for j in bucket:
                    probe.setdefault(self.literals[j].args[a], []).append(j)
            return probe.get(t, ())
        return bucket

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Clause) and self.literals == other.literals

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(self.literals)
        return h

    def __reduce__(self) -> tuple:
        return Clause, (self.literals,)

    def __len__(self) -> int:
        return len(self.literals)

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.literals)

    def __str__(self) -> str:
        if not self.literals:
            return "[]"
        return " | ".join(map(str, self.literals))

    def is_empty(self) -> bool:
        return not self.literals


# ---------------------------------------------------------------------------
# basic measures


def term_vars(t: Term, acc: Optional[set[str]] = None) -> set[str]:
    if acc is None:
        acc = set()
    if isinstance(t, Var):
        acc.add(t.name)
    elif isinstance(t, App):
        for a in t.args:
            term_vars(a, acc)
    return acc


def lit_vars(lit: Literal) -> frozenset[str]:
    """The names of the variables of ``lit``, worked out once per
    literal."""
    vs = lit._vars
    if vs is None:
        acc: set[str] = set()
        for a in lit.args:
            term_vars(a, acc)
        vs = lit._vars = frozenset(acc)
    return vs


def clause_vars(c: Clause) -> frozenset[str]:
    """The names of the variables of ``c``, the union of its literals'
    (:func:`lit_vars`), worked out once per clause."""
    vs = c._vars
    if vs is None:
        lits = c.literals
        vs = c._vars = lit_vars(lits[0]) if len(lits) == 1 else \
            frozenset().union(*map(lit_vars, lits))
    return vs


def term_depth(t: Term) -> int:
    if isinstance(t, App):
        return 1 + max((term_depth(a) for a in t.args), default=0)
    return 0


def is_ground_term(t: Term) -> bool:
    if isinstance(t, Var):
        return False
    if isinstance(t, App):
        return all(is_ground_term(a) for a in t.args)
    return True


def is_ground_lit(lit: Literal) -> bool:
    return not lit_vars(lit)


def is_ground(c: Clause) -> bool:
    return not clause_vars(c)


def _compound_subterms(t: Term, out: list[App]) -> None:
    if isinstance(t, App):
        out.append(t)
        for a in t.args:
            _compound_subterms(a, out)


def compound_terms(c: Clause) -> list[App]:
    out: list[App] = []
    for lit in c:
        for a in lit.args:
            _compound_subterms(a, out)
    return out


# ---------------------------------------------------------------------------
# substitutions


def apply_term(t: Term, sub: Subst) -> Term:
    if isinstance(t, Var):
        return sub.get(t.name, t)
    if isinstance(t, App):
        return App(t.fn, tuple(apply_term(a, sub) for a in t.args))
    return t


def apply_lit(lit: Literal, sub: Subst) -> Literal:
    if not lit.args:
        return lit
    return Literal(lit.pos, lit.pred, tuple(apply_term(a, sub) for a in lit.args))


def apply_clause(c: Clause, sub: Subst) -> Clause:
    return Clause(apply_lit(lit, sub) for lit in c)


def _walk(t: Term, sub: Subst) -> Term:
    while isinstance(t, Var) and t.name in sub:
        t = sub[t.name]
    return t


def _occurs(name: str, t: Term, sub: Subst) -> bool:
    t = _walk(t, sub)
    if isinstance(t, Var):
        return t.name == name
    if isinstance(t, App):
        return any(_occurs(name, a, sub) for a in t.args)
    return False


def unify_into(pairs: Iterable[tuple[Term, Term]], sub: Subst) -> bool:
    """Extend the triangular substitution ``sub`` in place so that it
    unifies every pair; ``False`` if they do not unify (``sub`` is then
    partly extended and should be dropped).

    When a variable meets a variable, the left one is bound; callers that
    care about binding orientation (the top-variable machinery does) should
    put the side-premise term on the left.
    """
    stack = list(pairs)
    while stack:
        s, t = stack.pop()
        s, t = _walk(s, sub), _walk(t, sub)
        if s == t:
            continue
        if isinstance(s, Var):
            if _occurs(s.name, t, sub):
                return False
            sub[s.name] = t
        elif isinstance(t, Var):
            if _occurs(t.name, s, sub):
                return False
            sub[t.name] = s
        elif isinstance(s, Const) or isinstance(t, Const) or \
                s.fn != t.fn or len(s.args) != len(t.args):
            return False
        else:
            stack.extend(zip(s.args, t.args))
    return True


def mgu(pairs: Sequence[tuple[Term, Term]]) -> Optional[Subst]:
    """Simultaneous mgu of term pairs, idempotent (see :func:`unify_into`
    for the binding orientation), or None."""
    sub: Subst = {}
    return normalize(sub) if unify_into(pairs, sub) else None


def mgu_lits(pairs: Sequence[tuple[Literal, Literal]]) -> Optional[Subst]:
    """Simultaneous mgu of atom pairs (polarity is the caller's business)."""
    term_pairs: list[tuple[Term, Term]] = []
    for a, b in pairs:
        if a.pred != b.pred or len(a.args) != len(b.args):
            return None
        term_pairs.extend(zip(a.args, b.args))
    return mgu(term_pairs)


def _resolve(t: Term, sub: Subst, memo: dict[str, Term]) -> Term:
    """``t`` with each variable bound in the triangular ``sub`` replaced
    by its resolved image, each variable's image worked out once into
    ``memo``."""
    if isinstance(t, Var):
        image = memo.get(t.name)
        if image is None:
            bound = sub.get(t.name)
            image = memo[t.name] = t if bound is None or bound == t \
                else _resolve(bound, sub, memo)
        return image
    if isinstance(t, App):
        return App(t.fn, tuple(_resolve(a, sub, memo) for a in t.args))
    return t


def normalize(sub: Subst) -> Subst:
    """Resolve the triangular form into an idempotent substitution, in
    one walk that resolves each bound variable once."""
    out: Subst = {}
    memo: dict[str, Term] = {}
    for x in sub:
        t = _resolve(Var(x), sub, memo)
        if not (isinstance(t, Var) and t.name == x):
            out[x] = t
    return out


def match_term(pat: Term, t: Term, sub: Subst) -> Optional[Subst]:
    """One-way matching: extend ``sub`` so that ``pat sub == t``."""
    if isinstance(pat, Var):
        bound = sub.get(pat.name)
        if bound is None:
            sub = dict(sub)
            sub[pat.name] = t
            return sub
        return sub if bound == t else None
    if isinstance(pat, Const):
        return sub if pat == t else None
    if isinstance(t, App) and pat.fn == t.fn and len(pat.args) == len(t.args):
        for pa, ta in zip(pat.args, t.args):
            nxt = match_term(pa, ta, sub)
            if nxt is None:
                return None
            sub = nxt
        return sub
    return None


def match_lit(pat: Literal, lit: Literal, sub: Subst) -> Optional[Subst]:
    if pat.pos != lit.pos or pat.pred != lit.pred or len(pat.args) != len(lit.args):
        return None
    for pa, ta in zip(pat.args, lit.args):
        nxt = match_term(pa, ta, sub)
        if nxt is None:
            return None
        sub = nxt
    return sub


def renaming(c: Clause, avoid: set[str], fresh: Iterator[int]) -> Subst:
    """A substitution taking the variables of ``c`` to fresh ones named
    ``_v<n>``, drawing ``n`` from ``fresh`` and skipping names in
    ``avoid``.

    The engine's rules apply it literal by literal, in ``c``'s own
    order, so each image stands at its literal's position in ``c``.  A
    clause built from the images would be re-sorted, and the sort breaks
    ties between structurally equal literals by variable name, so
    positions in it need not match those in ``c``.
    """
    sub: Subst = {}
    for v in sorted(clause_vars(c)):
        while True:
            name = f"_v{next(fresh)}"
            if name not in avoid:
                break
        sub[v] = Var(name)
    return sub


def rename_apart(c: Clause, avoid: set[str]) -> Clause:
    """Rename the variables of ``c`` to ``_v<n>`` names not in ``avoid``."""
    sub = renaming(c, avoid, itertools.count())
    return apply_clause(c, sub) if sub else c


# ---------------------------------------------------------------------------
# variants, subsumption, condensation


def _search_order(lits: Sequence[Literal]) -> Sequence[int]:
    """The positions of the pattern literals in connected order: the
    first literal, then each time the one sharing the most variables with
    those already placed (ties by clause order).  On a cycle every
    literal after the first meets a bound variable, so the search follows
    the cycle instead of guessing each literal afresh.

    Each unplaced literal keeps a count of its variables already placed,
    raised when a literal placed brings one of them in; a heap of
    (minus the count, position), with entries left behind by a raise
    skipped when they surface, yields the next literal."""
    if len(lits) <= 2:
        return range(len(lits))
    holders: dict[str, list[int]] = {}
    for i, lit in enumerate(lits):
        for v in lit_vars(lit):
            holders.setdefault(v, []).append(i)
    shared = [0] * len(lits)
    placed = [False] * len(lits)
    heap = [(0, i) for i in range(1, len(lits))]  # sorted, so a heap
    order = []
    i = 0
    while True:
        placed[i] = True
        order.append(i)
        if len(order) == len(lits):
            return order
        for v in lit_vars(lits[i]):
            js = holders.pop(v, None)
            if js is None:  # placed before
                continue
            for j in js:
                if not placed[j]:
                    shared[j] += 1
                    heappush(heap, (-shared[j], j))
        while True:
            n, i = heappop(heap)
            if not placed[i] and -n == shared[i]:
                break


def _find_map(pat: Clause, target: Clause, sub: Subst, img: list[int],
              hits: Optional[list[int]] = None,
              unhit: int = 0) -> Optional[list[int]]:
    """The positions in ``target`` onto which the first map found sends
    the literals of ``pat``, in ``pat``'s search order, or ``None``.

    ``sub`` maps the first ``len(img)`` pattern literals onto the
    positions ``img``; the search extends it over the rest, trying each
    literal's candidates (:meth:`Clause.candidates`) in clause order.
    With ``hits``, a count for each position of ``target`` of the
    pattern literals sent there so far, the search accepts only one to
    one maps when ``unhit`` is 0, else only maps that leave unhit one of
    the ``unhit`` positions whose count is 0.  A search that finds none
    leaves ``img`` and ``hits`` as they were.

    The search keeps its own stack, one candidate iterator and one
    substitution per pattern literal, so a long clause costs no
    recursion."""
    order = pat.search_order()
    plits, lits = pat.literals, target.literals
    if len(img) == len(order):
        return img
    stack = [(iter(target.candidates(plits[order[len(img)]], sub)), sub)]
    while stack:
        it, sub = stack[-1]
        lit = plits[order[len(img)]]
        for j in it:
            if hits is not None:
                # one to one: never hit a position twice; else never hit
                # the last unhit one
                h = hits[j]
                if h and not unhit or not h and unhit == 1:
                    continue
            nxt = match_lit(lit, lits[j], sub)
            if nxt is None:
                continue
            if hits is not None:
                hits[j] = h + 1
                if unhit and not h:
                    unhit -= 1
            img.append(j)
            if len(img) == len(order):
                return img
            stack.append((iter(target.candidates(plits[order[len(img)]],
                                                 nxt)), nxt))
            break
        else:
            stack.pop()
            if stack:  # undo the choice of the level below
                j = img.pop()
                if hits is not None:
                    hits[j] -= 1
                    if unhit and not hits[j]:
                        unhit += 1
    return None


def subsumes(c: Clause, d: Clause) -> bool:
    """Classic theta-subsumption: some ``c sigma`` is a subset of ``d``."""
    # cheap filter: every sign/predicate/arity of c appears in d
    buckets = d.buckets()
    if any((l.pos, l.pred, len(l.args)) not in buckets for l in c):
        return False
    # one-way matching never applies its substitution to d, so c and d
    # may share variable names
    return _find_map(c, d, {}, []) is not None


def _is_condensed(c: Clause) -> bool:
    """True if every ``theta`` mapping the clause into itself is onto.

    One search (:func:`_find_map`) runs over the maps of ``c`` into
    itself and counts, for each position, the literals mapped onto it.  A
    literal that matches no other literal is its own only image, so its
    position counts as hit from the start; only the other positions can
    be left out.  A branch that would hit the last of those still unhit is
    cut, so a map the search completes leaves one out, and ``c`` is not
    condensed.

    The images of the first literal ``lits[0]`` are visited one orbit of
    the clause's automorphisms at a time.  An onto map of a finite clause
    into itself takes variables to variables, one to one, so it is an
    automorphism ``tau`` with an inverse.  Call an image *cleared* when no
    map leaving a position out sends ``lits[0]`` there; ``lits[0]`` itself
    is cleared once its branch fails.  If ``theta`` left a position out
    and sent ``lits[0]`` to ``lits[0] tau``, then ``theta tau^-1`` would
    leave one out too and send ``lits[0]`` back to ``lits[0]``.  So the
    image of a cleared position under an automorphism is cleared.  Before
    searching another image ``lits[j]``, a one-to-one search for a map
    taking ``lits[0]`` there runs first; if one is found, every position
    in the orbit of the cleared ones under the automorphisms found so far
    is skipped.  On a k-cycle this leaves about log2(k) walks of the
    cycle instead of k.
    """
    lits = c.literals
    hits = [1] * len(lits)
    unhit = 0
    for k, lk in enumerate(lits):
        for j in c.candidates(lk, {}):
            if j != k and match_lit(lk, lits[j], {}) is not None:
                hits[k] = 0
                unhit += 1
                break
    if not unhit:
        return True
    first = lits[0]  # the first in search order
    gens: list[list[int]] = []  # automorphisms, as maps of positions
    cleared: set[int] = set()
    for j in c.candidates(first, {}):
        if j in cleared:
            continue
        h = hits[j]
        if not h and unhit == 1:
            continue
        sub = match_lit(first, lits[j], {})
        if sub is None:
            continue
        if cleared:
            used = [0] * len(lits)
            used[j] = 1
            img = _find_map(c, c, sub, [j], used)
            if img is not None:
                tau = sorted(zip(c.search_order(), img))  # by position
                gens.append([q for _, q in tau])
                _close_orbit(cleared, list(cleared), gens)
                continue
        hits[j] = h + 1
        found = _find_map(c, c, sub, [j], hits, unhit - (not h))
        hits[j] = h
        if found is not None:
            return False
        cleared.add(j)
        _close_orbit(cleared, [j], gens)
    return True


def _close_orbit(positions: set[int], todo: list[int],
                 gens: list[list[int]]) -> None:
    """Close ``positions`` under the maps ``gens``, given that only the
    images of the positions in ``todo`` may still lead out of it."""
    while todo:
        p = todo.pop()
        for g in gens:
            q = g[p]
            if q not in positions:
                positions.add(q)
                todo.append(q)


def _condense_step(lits: list[Literal],
                   c: Clause) -> Optional[list[Literal]]:
    """The first instance ``lits sigma`` (``sigma`` matching one literal
    onto another) that is smaller and still subsumes ``c``, the clause of
    ``lits``."""
    for i, li in enumerate(lits):
        for j, lj in enumerate(lits):
            if i == j:
                continue
            sub = match_lit(li, lj, {})
            if sub is None:
                continue
            cand = list(dict.fromkeys(apply_lit(l, sub) for l in lits))
            if len(cand) < len(lits) and subsumes(Clause(cand), c):
                return cand
    return None


def condense(c: Clause) -> Clause:
    """Smallest factor of ``c`` that subsumes ``c`` (unique up to renaming).

    The pair scan runs only while the clause can still shrink: a step
    that succeeds maps the clause into itself minus some literal, which
    :func:`_is_condensed` rules out first.  The result is flagged:
    condensing is deterministic and cannot shrink its own result, so a
    flagged clause is returned at once.
    """
    if c._condensed:
        return c
    lits = list(dict.fromkeys(c.literals))  # drop exact duplicates
    cur = c if len(lits) == len(c) else Clause(lits)
    # a ground literal matches only itself, so a ground clause without
    # duplicates is condensed
    while not is_ground(c) and not _is_condensed(cur):
        step = _condense_step(lits, cur)
        if step is None:
            break
        lits = step
        cur = Clause(lits)
    cur._condensed = True
    return cur


def canonical(c: Clause) -> Clause:
    """Condensed clause with variables renumbered by first occurrence.

    Used as the identity of a clause: two clauses get the same canonical
    form iff they are variants modulo condensation (for the clause shapes
    the pipeline produces, first-occurrence numbering after literal sorting
    is stable enough; the tests take a bijective renaming as the ground
    truth).
    """
    c = condense(c)
    order: dict[str, int] = {}
    for lit in c:
        for a in lit.args:
            _number_vars(a, order)
    sub = {v: Var(f"X{i}") for v, i in order.items()}
    return apply_clause(c, sub)


def _number_vars(t: Term, order: dict[str, int]) -> None:
    """Number the variables of ``t`` not in ``order`` from ``len(order)``
    on, by first occurrence."""
    if isinstance(t, Var):
        if t.name not in order:
            order[t.name] = len(order)
    elif isinstance(t, App):
        for a in t.args:
            _number_vars(a, order)


# ---------------------------------------------------------------------------
# clause classification


@dataclass(frozen=True, slots=True)
class ClauseFlags:
    flat: bool
    simple: bool
    covering: bool
    strongly_compatible: bool


def _is_flat_term(t: Term) -> bool:
    return isinstance(t, (Var, Const))


def _is_simple_arg(t: Term) -> bool:
    if _is_flat_term(t):
        return True
    return all(_is_flat_term(a) for a in t.args)


def classify(c: Clause) -> ClauseFlags:
    comps = compound_terms(c)
    cvars = clause_vars(c)
    return ClauseFlags(
        flat=not comps,
        simple=all(_is_simple_arg(a) for lit in c for a in lit.args),
        covering=all(term_vars(t) == cvars for t in comps),
        strongly_compatible=len({t.args for t in comps}) <= 1,
    )


def connected_groups(keys: Sequence[Iterable[Hashable]]) -> list[list[int]]:
    """The indices ``0 .. len(keys)-1`` grouped by shared keys: ``i`` and
    ``j`` meet when ``keys[i]`` and ``keys[j]`` share an element, and the
    groups are the classes of the transitive closure.  The groups come in
    the order of their first members, each in index order."""
    parent = list(range(len(keys)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    home: dict[Hashable, int] = {}
    for i, ks in enumerate(keys):
        for k in ks:
            if k in home:
                parent[find(i)] = find(home[k])
            else:
                home[k] = i
    groups: dict[int, list[int]] = {}
    for i in range(len(keys)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def variable_components(c: Clause) -> list[list[Literal]]:
    """Partition literals into maximal variable-connected components (a
    ground literal is a component of its own)."""
    lits = c.literals
    return [[lits[i] for i in g]
            for g in connected_groups([lit_vars(l) for l in lits])]


def is_decomposable(c: Clause) -> bool:
    """True if the clause splits into two variable-disjoint subclauses."""
    return len(variable_components(c)) > 1


def _guards(c: Clause) -> tuple[bool, bool]:
    """Whether the clause has a loose guard, and a guard of at most one
    literal.

    A loose guard is a set of negative flat non-equality literals in which
    every variable of the clause occurs and every pair of distinct
    variables co-occurs in one literal.  Covering only grows with the set,
    so a loose guard exists iff all such literals together are one.  A
    ground clause needs no guard.
    """
    cvars = clause_vars(c)
    if not cvars:
        return True, True
    covered: set[str] = set()
    pairs: set[tuple[str, str]] = set()
    single = False
    for lit in c:
        if lit.pos or lit.is_eq or \
                not all(_is_flat_term(a) for a in lit.args):
            continue
        vs = lit_vars(lit)
        single = single or vs == cvars
        covered |= vs
        pairs.update(itertools.combinations(sorted(vs), 2))
    n = len(cvars)
    return covered == cvars and len(pairs) == n * (n - 1) // 2, single


def membership(c: Clause) -> set[str]:
    """Which clausal classes the clause belongs to.

    Returns a subset of ``{"query", "LG", "guarded", "horn_guarded"}``;
    the empty set means neither.
    """
    out: set[str] = set()
    flags = classify(c)
    if flags.flat and all(not lit.pos and not lit.is_eq for lit in c):
        out.add("query")
    if any(lit.is_eq for lit in c):
        return out
    if flags.simple and flags.covering and flags.strongly_compatible:
        loose, single = _guards(c)
        if loose:
            out.add("LG")
            if single:
                out.add("guarded")
                if sum(1 for lit in c if lit.pos) <= 1:
                    out.add("horn_guarded")
    return out
