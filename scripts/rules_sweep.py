#!/usr/bin/env python3
"""Time query answering on random rule sets, one rule count at a time.

For n rules, set k (k < 20) is drawn from ``random.Random(1000*n + k)``:
18 predicates named ``{a,b,d,g,r,s}<i>``, the first of arity 2 and the
others of arity 1 or 2; n rules from the benchmark's rule generator
(``perfbench/workloads._rule``), the first existential and each other
one with probability 0.4; one query from ``workloads._query``; and no
facts.  With no facts the empty structure is a model of every rule and
makes every query false, so the answer is No.

Each set is parsed and answered in a child process of its own, one at a
time, and the child is stopped after ``--cap`` seconds.  Prints, per n,
the median seconds over the 20 sets (a set past the cap counts as slower
than every finished one) and how many ran past the cap, and exits 1 if
any finished verdict is not No or a child fails.  Timing is reported,
not gated.

Usage: python scripts/rules_sweep.py [--sizes 10,20,40] [--cap 20]
"""

from __future__ import annotations

import argparse
import pathlib
import random
import statistics
import subprocess
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                        / "perfbench"))

from guardedsat.qans import answer  # noqa: E402
from guardedsat.syntax import parse  # noqa: E402
from workloads import _query, _rule  # noqa: E402

SETS = 20
N_PREDS = 18


def rule_set(n: int, k: int) -> str:
    """Set ``k`` of ``n`` rules, as problem text."""
    rng = random.Random(1000 * n + k)
    arities = [2] + [rng.randint(1, 2) for _ in range(N_PREDS - 1)]
    preds = [(f"{'abdgrs'[i % 6]}{i}", a) for i, a in enumerate(arities)]
    rules = [_rule(rng, preds, existential=(i == 0 or rng.random() < 0.4))
             for i in range(n)]
    return "\n".join(rules + [_query(rng, preds)]) + "\n"


def child(n: int, k: int) -> None:
    """Answer one set and print its verdict and seconds."""
    text = rule_set(n, k)
    t0 = time.perf_counter()
    verdict = answer(parse(text)).verdict
    print(verdict, time.perf_counter() - t0)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="10,20,40",
                    help="comma-separated rule counts n (default 10,20,40)")
    ap.add_argument("--cap", type=float, default=20.0,
                    help="seconds after which a set is stopped (default 20)")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        child(*map(int, args.child.split(",")))
        return 0

    bad = 0
    for n in (int(s) for s in args.sizes.split(",")):
        times: list[float] = []
        past = 0
        for k in range(SETS):
            try:
                out = subprocess.run(
                    [sys.executable, __file__, "--child", f"{n},{k}"],
                    capture_output=True, text=True, timeout=args.cap)
            except subprocess.TimeoutExpired:
                past += 1
                times.append(float("inf"))
                continue
            if out.returncode:
                bad += 1
                print(f"n={n} set {k}: child failed\n{out.stderr}",
                      flush=True)
                continue
            verdict, secs = out.stdout.split()
            times.append(float(secs))
            if verdict != "no":
                bad += 1
                print(f"n={n} set {k}: verdict {verdict}  WRONG", flush=True)
        med = statistics.median(times) if times else float("inf")
        shown = f"{med:8.3f}s" if med != float("inf") \
            else f">{args.cap:g}s".rjust(9)
        print(f"n={n:4d} median={shown} past {args.cap:g}s: {past}/{SETS}",
              flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
