#!/usr/bin/env python3
"""Print how often the prover's hot kernels run on a fixed set of problems.

For each problem of ``scripts/trace_digest.py``, in its order, and then
each of ``EXTRA``, one line: the problem's name and, for each kernel in
``KERNELS``, the number of its primitive calls (cProfile's count of the
calls that do not come from the kernel itself, so a recursive kernel
counts its outermost calls) while ``trace_digest.solve`` answers the
problem and, when it has no facts and is answered No, rewrites it.  A
kernel that a source tree does not define counts 0.

Counts do not drift with the host's load or the string hash seed, so
diffing the output of two source trees shows a change in work that
timing noise hides:

    PYTHONPATH=<old>/src python scripts/work_digest.py > old.txt
    PYTHONPATH=src python scripts/work_digest.py > new.txt
    diff old.txt new.txt

A count also falls when code is inlined while the work stays the same,
so read a difference next to the timings, not in place of them.

Usage: python scripts/work_digest.py
"""

from __future__ import annotations

import cProfile
import pathlib
import pstats
import random

from rules_sweep import rule_set
from trace_digest import problems, solve
from workloads import data_instance  # trace_digest puts perfbench on the path

# (module of guardedsat, function name)
KERNELS = (
    ("qans", "insert"),
    ("terms", "subsumes"),
    ("terms", "_find_map"),
    ("terms", "match_lit"),
    ("terms", "candidates"),
    ("terms", "condense"),
    ("engine", "_extend"),
    ("engine", "_probe"),
    ("terms", "unify_into"),
    ("terms", "mgu_lits"),
    ("terms", "renaming"),
    ("qans", "_insert_ground_unit"),
    ("engine", "clause_record"),
)

# (name, problem text): problems too slow for the trace digest whose counts
# show the cost of admitting clauses against many kept ones, and of each
# fact of a large data set (the No instance ``scripts/data_sweep.py
# --sizes 2560`` answers)
EXTRA = (
    ("rules n=160 set 1", rule_set(160, 1)),
    ("data No N=2560", data_instance(random.Random(1), 2560, False,
                                     "N2560").text),
)


def counts(text: str) -> dict[tuple[str, str], int]:
    """The primitive calls of each kernel of ``KERNELS`` while solving
    the problem ``text``."""
    profile = cProfile.Profile()
    profile.runcall(solve, text)
    out = dict.fromkeys(KERNELS, 0)
    for (filename, _, fn), (primitive, *_) in \
            pstats.Stats(profile).stats.items():
        path = pathlib.Path(filename)
        key = (path.stem, fn)
        if path.parent.name == "guardedsat" and key in out:
            out[key] += primitive
    return out


def main() -> int:
    for name, text in (*problems(), *EXTRA):
        got = counts(text)
        print(f"{name:20s} " + " ".join(
            f"{fn}={got[module, fn]}" for module, fn in KERNELS), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
