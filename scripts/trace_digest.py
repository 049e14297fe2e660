#!/usr/bin/env python3
"""Print a digest of the saturation trace of a fixed set of problems.

For each problem one line: its name, the verdict, the step count and the
sha256 of the full trace (its lines joined by newlines).  The problems
are the dataset sweep's instances at N = 40, 80, 160, 320 and 640
(``scripts/data_sweep.py``), the derived-data chain at depth 3 and N=160
(``scripts/chain_sweep.py``), the k-cycle query at k = 8, 16 and 33
(``scripts/cycle_sweep.py``), queries over the same facts whose clauses
have many automorphisms (the union of the directed cycles C3 and C6, that
of two 4-cycles, the directed cliques K4 and K5, and the 12-cycle with the
chord ``r(X1,X4)``), the 20 rule sets of 20 rules
(``scripts/rules_sweep.py``), every problem in ``fixtures/``, a problem
whose saturation keeps a constant and a repeated variable among a Skolem
term's arguments (``abstraction``, so that its Σ_q needs disequations),
and the benchmark's smoke problems of the ``data``, ``cycle`` and
``rewrite`` workloads at naming seed 1 (``perfbench/workloads.py``),
their fact-free problems included.  A problem with no facts that is
answered No gets one more column: the sha256 of its printed Σ_q
(``qrew.q_rew`` of the saturation), or the ``RewriteError`` text.

Two versions of the prover that take the same inferences and rewrite
alike print the same lines, so comparing the output of two source trees
checks that a change keeps every trace and Σ_q byte:

    PYTHONPATH=<old>/src python scripts/trace_digest.py > old.txt
    PYTHONPATH=src python scripts/trace_digest.py > new.txt
    diff old.txt new.txt

Usage: python scripts/trace_digest.py
"""

from __future__ import annotations

import hashlib
import pathlib
import random
import sys
from typing import Iterator, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from chain_sweep import chain_problem  # noqa: E402
from cycle_sweep import cycle_problem  # noqa: E402
from guardedsat.qans import AnswerResult, run  # noqa: E402
from guardedsat.qrew import RewriteError, q_rew  # noqa: E402
from guardedsat.syntax import parse, print_formula  # noqa: E402
from rules_sweep import SETS, rule_set  # noqa: E402
from workloads import WORKLOADS, data_instance, make  # noqa: E402


ABSTRACTION = """\
rule: ! [X] : (p(X) => ? [Y] : q(X,Y)).
rule: ! [Y] : (q(c,Y) => s(Y)).
rule: ! [X,Y] : (r(X,Y) => ? [Z] : g(X,Y,Z)).
rule: ! [X,Z] : (g(X,X,Z) => t(Z)).
query: ? [X] : (s(X) & t(X)).
"""


def graph_problem(edges: list[tuple[int, int]]) -> str:
    """The query ``? [X..] : (r(Xi,Xj) & ...)`` over the edges ``(i, j)``
    and the facts ``r(a,b)``, ``r(b,a)``, as in ``cycle_problem``."""
    vs = sorted({v for e in edges for v in e})
    atoms = " & ".join(f"r(X{i},X{j})" for i, j in edges)
    return ("fact: r(a,b).\nfact: r(b,a).\n"
            f"query: ? [{','.join(f'X{v}' for v in vs)}] : ({atoms}).\n")


def cycle(vs: list[int]) -> list[tuple[int, int]]:
    """The edges of the directed cycle through ``vs`` in turn."""
    return list(zip(vs, vs[1:] + vs[:1]))


def clique(n: int) -> list[tuple[int, int]]:
    """The edges of the directed clique on ``1..n``, without loops."""
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
            if i != j]


def problems() -> Iterator[tuple[str, str]]:
    """(name, problem text) of each problem, in a fixed order."""
    rng = random.Random(1)
    for n in (40, 80, 160, 320, 640):
        for yes in (False, True):
            yield f"data N={n} {'yes' if yes else 'no'}", \
                data_instance(rng, n, yes, f"N{n}").text
    yield "chain d=3 N=160", chain_problem(3, 160)
    for k in (8, 16, 33):
        yield f"cycle k={k}", cycle_problem(k)
    yield "C3+C6", graph_problem(cycle([1, 2, 3]) + cycle(list(range(4, 10))))
    yield "C4+C4", graph_problem(cycle([1, 2, 3, 4]) + cycle([5, 6, 7, 8]))
    yield "K4", graph_problem(clique(4))
    yield "K5", graph_problem(clique(5))
    yield "C12+chord", graph_problem(cycle(list(range(1, 13))) + [(1, 4)])
    for k in range(SETS):
        yield f"rules n=20 set {k}", rule_set(20, k)
    for path in sorted((ROOT / "fixtures").glob("*.p")):
        yield path.name, path.read_text()
    yield "abstraction", ABSTRACTION
    for name in WORKLOADS:
        wl = make(name, 1, ROOT, smoke=True)
        for inst in wl.instances + wl.fact_free:
            yield f"{name} {inst.name}", inst.text


def solve(text: str) -> tuple[AnswerResult,
                              Optional[str | RewriteError]]:
    """Answer the problem ``text``; for a problem with no facts answered
    No, also print its Σ_q (``qrew.q_rew`` of the saturation), or give
    the ``RewriteError``."""
    problem = parse(text)
    result, state = run(problem)
    if problem.facts or result.verdict != "no":
        return result, None
    try:
        rewrite = q_rew([c for _, c in state.worked_off.clauses()],
                        problem.symbols)
    except RewriteError as e:
        return result, e
    return result, print_formula(rewrite.sigma_q)


def main() -> int:
    for name, text in problems():
        result, sigma_q = solve(text)
        digest = hashlib.sha256("\n".join(result.trace).encode()).hexdigest()
        line = f"{name:20s} verdict={result.verdict:7s} " \
            f"steps={result.steps:5d} trace={digest}"
        if isinstance(sigma_q, RewriteError):
            line += f" sigma_q=RewriteError: {sigma_q}"
        elif sigma_q is not None:
            line += f" sigma_q={hashlib.sha256(sigma_q.encode()).hexdigest()}"
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
