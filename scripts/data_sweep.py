#!/usr/bin/env python3
"""Time query answering on the dataset sweep, one size at a time.

Each size N gets one No and one Yes instance of the benchmark's ``data``
family, made by ``perfbench/workloads.data_instance`` from a generator
seeded with 1: the two ``until``
rules, the triangle query, N ``r0`` facts over N/4 constants and N/4
``b0`` draws.  Each instance is parsed and answered, and its verdict is
checked against the answer the generator works out in closed form
(``data_answer``).  Prints the seconds per instance and exits 1 if any
verdict is wrong.  Timing is reported, not gated.

Usage: python scripts/data_sweep.py [--sizes 80,160,320,640]
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                        / "perfbench"))

from guardedsat.qans import answer  # noqa: E402
from guardedsat.syntax import parse  # noqa: E402
from workloads import data_instance  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="80,160,320,640",
                    help="comma-separated fact counts N "
                         "(default 80,160,320,640)")
    args = ap.parse_args()

    rng = random.Random(1)
    wrong = 0
    for n in (int(s) for s in args.sizes.split(",")):
        for yes in (False, True):
            inst = data_instance(rng, n, yes, f"N{n}")
            t0 = time.perf_counter()
            verdict = answer(parse(inst.text)).verdict
            dt = time.perf_counter() - t0
            ok = verdict == inst.expected
            wrong += not ok
            print(f"N={n:5d} expected={inst.expected:3s} "
                  f"verdict={verdict:7s} {dt:8.3f}s"
                  f"{'' if ok else '  WRONG'}", flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
