#!/usr/bin/env python3
"""Time query answering on the derived-data chain, one size at a time.

For depth d and size N the rules are ``r_i(X,Y) => r_{i+1}(X,Y)`` for
i < d and ``(r_d(X,Y) & b0(Y)) => a0(X)``; the data is N draws of
``r0(x,y)`` over N/4 constants from a generator seeded with 1,
duplicates merged, with no ``b0`` fact; the query is ``? [X] : a0(X)``.
Every ``r_i`` fact is derived, but no ``a0`` fact can be, so the answer
is No.  Each problem is parsed and answered, and its verdict is checked
against that.  Prints the seconds per size and exits 1 if any verdict is
wrong.  Timing is reported, not gated.

Usage: python scripts/chain_sweep.py [--depth 3] [--sizes 160,320,640]
"""

from __future__ import annotations

import argparse
import random
import time

from guardedsat.qans import answer
from guardedsat.syntax import parse


def chain_problem(depth: int, n: int) -> str:
    """The chain of ``depth`` copying rules over ``n`` random ``r0``
    facts."""
    rules = [f"rule: ! [X,Y] : (r{i}(X,Y) => r{i + 1}(X,Y)).\n"
             for i in range(depth)]
    rules.append(f"rule: ! [X,Y] : ((r{depth}(X,Y) & b0(Y)) => a0(X)).\n")
    rng = random.Random(1)
    consts = [f"c{i}" for i in range(max(1, n // 4))]
    draws = [(rng.choice(consts), rng.choice(consts)) for _ in range(n)]
    facts = [f"fact: r0({x},{y}).\n" for x, y in dict.fromkeys(draws)]
    return "".join(rules) + "".join(facts) + "query: ? [X] : a0(X).\n"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--depth", type=int, default=3,
                    help="number of copying rules d (default 3)")
    ap.add_argument("--sizes", default="160,320,640",
                    help="comma-separated draw counts N "
                         "(default 160,320,640)")
    args = ap.parse_args()

    wrong = 0
    for n in (int(s) for s in args.sizes.split(",")):
        t0 = time.perf_counter()
        verdict = answer(parse(chain_problem(args.depth, n))).verdict
        dt = time.perf_counter() - t0
        ok = verdict == "no"
        wrong += not ok
        print(f"d={args.depth} N={n:5d} expected=no  verdict={verdict:7s} "
              f"{dt:8.3f}s{'' if ok else '  WRONG'}", flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
