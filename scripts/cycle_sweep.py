#!/usr/bin/env python3
"""Time query answering on the k-cycle query, one length at a time.

For each k the problem is the facts ``r(a,b)``, ``r(b,a)`` and the query
``? [X1,...,Xk] : (r(X1,X2) & ... & r(Xk,X1))``.  The facts form a
2-cycle, so a closed walk of length k exists, and the answer is Yes,
iff k is even.  Each problem is parsed and answered, and its verdict is
checked against that.  Prints the seconds per problem and exits 1 if
any verdict is wrong.  Timing is reported, not gated.

Usage: python scripts/cycle_sweep.py [--sizes 16,24,32,40]
"""

from __future__ import annotations

import argparse
import time

from guardedsat.qans import answer
from guardedsat.syntax import parse


def cycle_problem(k: int) -> str:
    """The k-cycle query over the 2-cycle ``r(a,b)``, ``r(b,a)``."""
    vs = [f"X{i + 1}" for i in range(k)]
    atoms = " & ".join(f"r({vs[i]},{vs[(i + 1) % k]})" for i in range(k))
    return ("fact: r(a,b).\nfact: r(b,a).\n"
            f"query: ? [{','.join(vs)}] : ({atoms}).\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="16,24,32,40",
                    help="comma-separated cycle lengths k "
                         "(default 16,24,32,40)")
    args = ap.parse_args()

    wrong = 0
    for k in (int(s) for s in args.sizes.split(",")):
        expected = "yes" if k % 2 == 0 else "no"
        t0 = time.perf_counter()
        verdict = answer(parse(cycle_problem(k))).verdict
        dt = time.perf_counter() - t0
        ok = verdict == expected
        wrong += not ok
        print(f"k={k:3d} expected={expected:3s} verdict={verdict:7s} "
              f"{dt:8.3f}s{'' if ok else '  WRONG'}", flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
