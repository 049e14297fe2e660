#!/usr/bin/env python3
"""Time the parser on growing fact sets, one size at a time.

Each size N is the ``data`` workload's rules and query
(``perfbench/workloads.DATA_RULES``) followed by N ``r0`` facts over N/4
constants, drawn from a generator seeded with 1 (repeats allowed).  The
text is parsed three times; the script checks that every statement came
through, and prints the fastest time and the time per fact.  It exits 1
if a count is wrong.  Timing is reported, not gated.

Usage: python scripts/parse_sweep.py [--sizes 10000,20000,40000]
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                        / "perfbench"))

from guardedsat.syntax import parse  # noqa: E402
from workloads import DATA_RULES  # noqa: E402


def facts_text(rng: random.Random, n: int) -> str:
    consts = [f"c{i}" for i in range(max(1, n // 4))]
    return DATA_RULES + "".join(
        f"fact: r0({rng.choice(consts)},{rng.choice(consts)}).\n"
        for _ in range(n))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="10000,20000,40000",
                    help="comma-separated fact counts N "
                         "(default 10000,20000,40000)")
    args = ap.parse_args()

    rng = random.Random(1)
    wrong = 0
    for n in (int(s) for s in args.sizes.split(",")):
        text = facts_text(rng, n)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            prob = parse(text)
            best = min(best, time.perf_counter() - t0)
        ok = (len(prob.facts), len(prob.rules), len(prob.queries)) == (n, 2, 1)
        wrong += not ok
        print(f"N={n:6d} facts={len(prob.facts):6d} {best:8.3f}s "
              f"{best / n * 1e6:6.2f}us/fact{'' if ok else '  WRONG'}",
              flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
