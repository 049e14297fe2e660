"""Seeded problem generators for the benchmark, with known answers.

Every generator takes a ``random.Random`` and returns problem *text*, so
the prover's parser is on the measured path and the prover sees nothing
but the text.  Each instance carries an answer computed without the
prover:

* ``data``: Yes iff facts ``r0(x,y)``, ``r0(y,x)`` and ``b0(y)`` exist
  (x = y allowed).  Half the instances avoid every such pair, the other
  half get exactly one planted.  The fact sets are a fixed corpus; the
  seed gives each its naming (constant names and fact order).
* ``cycle``: the k-cycle query over ``r(a,b)``, ``r(b,a)`` is Yes iff k is
  even (the facts form a 2-cycle, so a closed walk of length k exists iff
  k is even).
* ``rewrite``: fact-free guarded rule sets.  Every rule has a body atom,
  so the interpretation with no true atom is a model and the answer is No.
  The rule sets are a fixed corpus; the seed gives each of them several
  namings (predicate names and rule order), and a problem's time is taken
  over all its namings.

Which layers each workload stresses or bypasses is recorded in
``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace
from pathlib import Path

# An odd number of sizes puts the median inside a size group, not on the
# step between two groups.  Instances are listed round-robin over sizes, so
# a slow spell of the machine does not land on one size only.
DATA_SIZES = (40, 48, 56, 64, 72)
DATA_PER_SIZE = 10  # half Yes, half No
DATA_CORPUS_SEED = "data-corpus"
CONST_NAMES = tuple(f"{c}{d}" for c in "cdkmnuvw" for d in range(10))
CYCLE_KS = tuple(range(5, 12))
CYCLE_VARIANTS = 6
REWRITE_COUNT = 300
REWRITE_NAMINGS = 4
REWRITE_CORPUS_SEED = "rewrite-corpus"
PRED_NAMES = tuple(f"{c}{d}" for c in "abdegpqrst" for d in range(10))

SMOKE_DATA_SIZES = (40, 48)
SMOKE_DATA_PER_SIZE = 2
SMOKE_CYCLE_KS = (4, 5)
SMOKE_CYCLE_VARIANTS = 1
SMOKE_REWRITE_COUNT = 10
SMOKE_REWRITE_NAMINGS = 2

DATA_RULES = (
    "rule: ! [X,Y] : ((r0(X,Y) & b0(Y)) => "
    "? [Z] : (r0(X,Z) & r0(Z,Y) & a0(Z))).\n"
    "rule: ! [X,Y] : ((r0(X,Y) & a0(X)) => b0(Y)).\n"
    "query: ? [X,Y,Z] : (r0(X,Y) & r0(Y,Z) & r0(Z,X) & a0(X)).\n"
)


@dataclass(frozen=True)
class Instance:
    name: str
    text: str
    size: int          # N for data, k for cycle, text length for rewrite
    expected: str      # "yes" | "no", decided without the prover
    rewrite: bool      # fact-free: the rewriting Σ_q is part of the answer
    problem: str = ""  # instances that are namings of one problem share it

    @property
    def key(self) -> str:
        return self.problem or self.name


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple[Instance, ...]
    # fact-free problems rewritten at the end of every pass, for the printed
    # size of Σ_q on workloads whose instances carry facts
    fact_free: tuple[Instance, ...]


# ---------------------------------------------------------------------------
# data


def data_answer(edges: set[tuple[str, str]], b: set[str]) -> str:
    """Closed form: the triangle with ``a0`` at a fresh null exists iff some
    ``r0(x,y)``, ``r0(y,x)`` with ``b0(y)`` is given."""
    hit = any((y, x) in edges and y in b for x, y in edges)
    return "yes" if hit else "no"


def _violates(edges: set[tuple[str, str]], b: set[str], x: str,
              y: str) -> bool:
    """Would adding ``r0(x,y)`` create a pair that makes the answer Yes?"""
    if x == y:
        return x in b
    return (y, x) in edges and (x in b or y in b)


def data_instance(rng: random.Random, n: int, yes: bool,
                  name: str) -> Instance:
    """``n`` distinct ``r0`` facts over ``n/4`` constants plus ``n/4``
    random ``b0`` draws (duplicates merged)."""
    consts = [f"c{i}" for i in range(n // 4)]
    while True:
        b = {rng.choice(consts) for _ in range(n // 4)}
        edges: set[tuple[str, str]] = set()
        if yes:
            y = rng.choice(sorted(b))
            x = rng.choice(consts)
            edges |= {(x, y), (y, x)}
        pairs = [(x, y) for x in consts for y in consts]
        rng.shuffle(pairs)
        for x, y in pairs:
            if len(edges) == n:
                break
            if (x, y) not in edges and not _violates(edges, b, x, y):
                edges.add((x, y))
        if len(edges) == n:
            break
    expected = data_answer(edges, b)
    assert expected == ("yes" if yes else "no")
    facts = [f"fact: r0({x},{y})." for x, y in sorted(edges)]
    facts += [f"fact: b0({c})." for c in sorted(b)]
    rng.shuffle(facts)
    text = DATA_RULES + "\n".join(facts) + "\n"
    return Instance(name, text, n, expected, False)


def rename_constants(text: str, rng: random.Random) -> str:
    """A naming of a data instance: its constants renamed by a random
    injective map and its facts in random order.  The answer is the
    same."""
    lines = text.splitlines()
    facts = [ln for ln in lines if ln.startswith("fact:")]
    rest = [ln for ln in lines if not ln.startswith("fact:")]
    consts = sorted(set(re.findall(r"\bc\d+\b", "\n".join(facts))))
    new = dict(zip(consts, rng.sample(CONST_NAMES, len(consts))))
    rng.shuffle(facts)
    facts = [re.sub(r"\bc\d+\b", lambda m: new[m.group(0)], ln)
             for ln in facts]
    return "\n".join(rest + facts) + "\n"


def data_workload(seed: int, smoke: bool = False) -> Workload:
    """The fact sets come from a fixed generator seed, the same for every
    run; ``seed`` picks their namings.  With seeded fact sets the slope and
    the tail measured the draw more than the code: on CPython 3.11 and a
    2-core shared host, in a quiet spell (raw p50 spread 0.08), ten seeds
    spread 0.12 in ``scaling_slope`` and 0.11 in ``solve_s.tail`` (IQR
    over median)."""
    corpus = random.Random(DATA_CORPUS_SEED)
    rng = random.Random(f"data-{seed}")
    sizes = SMOKE_DATA_SIZES if smoke else DATA_SIZES
    per = SMOKE_DATA_PER_SIZE if smoke else DATA_PER_SIZE
    out = []
    for i in range(per):
        for n in sizes:
            yes = i % 2 == 1
            inst = data_instance(
                corpus, n, yes,
                f"data-N{n}-{'yes' if yes else 'no'}-{i // 2}")
            out.append(replace(inst, text=rename_constants(inst.text, rng)))
    base = Instance("data-fact-free", DATA_RULES, 0, "no", True)
    return Workload("data", tuple(out), (base,))


# ---------------------------------------------------------------------------
# cycle


def cycle_instance(rng: random.Random, k: int, name: str) -> Instance:
    """The k-cycle query over a 2-cycle of facts, with seeded predicate and
    constant names and a seeded atom order.

    The variables are X1..Xk in cycle order for every seed: the prover's
    time on this query depends strongly on the variable names (at k = 11,
    on CPython 3.11 and a 2-core shared host, six random namings took
    1.3 s to 17 s, these names about 0.7 s), and a seed should not change
    the amount of work measured.
    """
    pred = rng.choice(["r", "e", "s"]) + str(rng.randrange(10))
    a, b = rng.sample([f"k{i}" for i in range(10)], 2)
    vs = [f"X{i + 1}" for i in range(k)]
    atoms = [f"{pred}({vs[i]},{vs[(i + 1) % k]})" for i in range(k)]
    rng.shuffle(atoms)
    query = f"query: ? [{','.join(vs)}] : ({' & '.join(atoms)}).\n"
    text = f"fact: {pred}({a},{b}).\nfact: {pred}({b},{a}).\n" + query
    return Instance(name, text, k, "yes" if k % 2 == 0 else "no", False)


def cycle_workload(seed: int, smoke: bool = False) -> Workload:
    rng = random.Random(f"cycle-{seed}")
    ks = SMOKE_CYCLE_KS if smoke else CYCLE_KS
    variants = SMOKE_CYCLE_VARIANTS if smoke else CYCLE_VARIANTS
    out = [cycle_instance(rng, k, f"cycle-k{k}-{v}")
           for v in range(variants) for k in ks]
    # the fact-free part of the middle-sized query
    mid = out[len(ks) // 2]
    query = mid.text.splitlines()[-1] + "\n"
    base = Instance(f"cycle-k{mid.size}-fact-free", query, mid.size, "no",
                    True)
    return Workload("cycle", tuple(out), (base,))


# ---------------------------------------------------------------------------
# rewrite


def _atom(pred: str, arity: int, pool: list[str], rng: random.Random,
          must: str | None = None) -> str:
    args = [rng.choice(pool) for _ in range(arity)]
    if must is not None and must not in args:
        args[rng.randrange(arity)] = must
    return f"{pred}({','.join(args)})"


def _rule(rng: random.Random, preds: list[tuple[str, int]],
          existential: bool) -> str:
    g, ga = rng.choice(preds)
    gvars = ["X", "Y"][:ga]
    body = [f"{g}({','.join(gvars)})"]
    if rng.random() < 0.3:
        p, a = rng.choice(preds)
        body.append(_atom(p, a, gvars, rng))
    binary = [(p, a) for p, a in preds if a == 2]
    if existential:
        h, _ = rng.choice(binary)
        v = rng.choice(gvars)
        head = [f"{h}({v},Z)" if rng.random() < 0.5 else f"{h}(Z,{v})"]
        if rng.random() < 0.6:
            p, a = rng.choice(preds)
            head.append(_atom(p, a, [v, "Z"], rng, must="Z"))
        rhs = f"? [Z] : ({' & '.join(head)})"
    else:
        head = [_atom(p, a, gvars, rng)
                for p, a in rng.sample(preds, rng.randint(1, 2))]
        rhs = head[0] if len(head) == 1 else f"({' & '.join(head)})"
    lhs = body[0] if len(body) == 1 else f"({' & '.join(body)})"
    return f"rule: ! [{','.join(gvars)}] : ({lhs} => {rhs})."


def _query(rng: random.Random, preds: list[tuple[str, int]]) -> str:
    pool = ["X", "Y", "Z"][:rng.randint(1, 3)]
    atoms = []
    for _ in range(rng.randint(1, 3)):
        p, a = rng.choice(preds)
        atoms.append(_atom(p, a, pool, rng))
    used = sorted({v for v in pool if any(v in at for at in atoms)})
    return f"query: ? [{','.join(used)}] : ({' & '.join(atoms)})."


def rewrite_text(rng: random.Random) -> str:
    """3-6 predicates of arity <= 2, 2-5 rules (the first existential),
    a 1-3 atom query."""
    n = rng.randint(3, 6)
    arities = [2] + [rng.randint(1, 2) for _ in range(n - 1)]
    names = iter(("a", "b", "d", "g", "r", "s"))
    preds = [(f"{next(names)}{i}", a) for i, a in enumerate(arities)]
    rules = [_rule(rng, preds, existential=(i == 0 or rng.random() < 0.4))
             for i in range(rng.randint(2, 5))]
    return "\n".join(rules + [_query(rng, preds)]) + "\n"


def rename(text: str, rng: random.Random) -> str:
    """A naming of a generated rule set: its predicates renamed by a
    random injective map and its rules in random order.  The answer is
    the same; the prover's work is not (its precedence and clause order
    follow the names)."""
    lines = text.splitlines()
    rules, query = lines[:-1], lines[-1]
    rng.shuffle(rules)
    preds = sorted(set(re.findall(r"\b([a-z]\d)\(", text)))
    new = dict(zip(preds, rng.sample(PRED_NAMES, len(preds))))
    return re.sub(r"\b([a-z]\d)\(", lambda m: new[m.group(1)] + "(",
                  "\n".join(rules + [query]) + "\n")


def rewrite_workload(seed: int, root: Path, smoke: bool = False) -> Workload:
    """The rule sets come from a fixed generator seed, the same for every
    run; ``seed`` picks their namings.  Which rule sets land among the
    slowest few moves the tail far more than timing noise does: on
    CPython 3.11 and a 2-core shared host, across ten seeds, the
    11th-slowest of 300 seeded random rule sets (four namings each)
    spread 16% (IQR over median), one fixed corpus under seeded namings
    6%."""
    corpus = random.Random(REWRITE_CORPUS_SEED)
    rng = random.Random(f"rewrite-{seed}")
    count = SMOKE_REWRITE_COUNT if smoke else REWRITE_COUNT
    namings = SMOKE_REWRITE_NAMINGS if smoke else REWRITE_NAMINGS
    texts = [rewrite_text(corpus) for _ in range(count)]
    # naming-major order, so a slow spell of the machine does not land on
    # every naming of one rule set
    out = [Instance(f"rewrite-{i}-n{v}", text, len(text), "no", True,
                    f"rewrite-{i}")
           for v in range(namings)
           for i, text in enumerate(rename(t, rng) for t in texts)]
    for path in sorted((root / "fixtures").glob("thm13_*.p")):
        text = path.read_text()
        out.append(Instance(path.stem, text, len(text), "no", True))
    return Workload("rewrite", tuple(out), ())


def make(name: str, seed: int, root: Path, smoke: bool = False) -> Workload:
    if name == "data":
        return data_workload(seed, smoke)
    if name == "cycle":
        return cycle_workload(seed, smoke)
    if name == "rewrite":
        return rewrite_workload(seed, root, smoke)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("data", "cycle", "rewrite")
