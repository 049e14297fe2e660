#!/usr/bin/env python3
"""Time two source trees of the prover against each other in one process.

The package is imported from ``OLD_SRC`` and from ``NEW_SRC`` under two
package names, so both are loaded side by side.  Each pass solves every
instance of one of the benchmark's workloads (``perfbench/workloads.py``,
seeded namings) with both trees, one right after the other, the order
alternating from instance to instance and from pass to pass, so a slow
spell of the host lands on both alike.  A solve is what the benchmark
times: parse, saturate, and for a fact-free instance answered No, the
rewriting Σ_q.  Every verdict is checked against the instance's known
answer.  On the first pass the two trees' steps, clause counts, Σ_q and
full traces are compared, the trace rendered after the timed solve; the
number of problems where they differ is printed.

A problem's time is the median over its passes and namings.  Printed per
tree: the sum of those medians, their median (p50) and the tail, the
problem with ten slower than it (as ``perfbench/run.py`` has it), and
the ratio new/old of each; then per problem size, or per fifth of the
problems by size when there are more than ten sizes, the ratio of the
median times.  Timings are printed, not gated: the exit status is 1 if a
verdict is wrong, else 0.

Usage: python scripts/ab_inprocess.py OLD_SRC NEW_SRC --workload data
           [--smoke] [--passes 5] [--seed 1]
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import pathlib
import statistics
import sys
import time
from types import SimpleNamespace

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def load(src: pathlib.Path, name: str) -> SimpleNamespace:
    """The package under ``src`` imported as ``name``; the package imports
    its own modules relatively, so two copies do not meet."""
    pkg = src / "guardedsat"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    if spec is None or spec.loader is None:
        raise SystemExit(f"no guardedsat package under {src}")
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}")
                              for m in ("syntax", "qans", "qrew")})


def solve(gs: SimpleNamespace, inst: workloads.Instance) -> tuple:
    """Solve ``inst`` as the benchmark does; (verdict, steps, clauses,
    printed Σ_q or None, the answer with its trace events)."""
    problem = gs.syntax.parse(inst.text)
    result, state = gs.qans.run(problem)
    sigma = None
    if inst.rewrite and result.verdict == "no":
        sigma = gs.syntax.print_formula(gs.qrew.q_rew(
            [c for _, c in state.worked_off.clauses()],
            problem.symbols).sigma_q)
    return result.verdict, result.steps, result.n_clauses, sigma, result


def summary(per: dict[str, float]) -> tuple[float, float, float]:
    """Sum, median and tail of the per-problem times."""
    ordered = sorted(per.values())
    return (sum(ordered), statistics.median(ordered),
            ordered[max(len(ordered) - 11, 0)])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=pathlib.Path, help="the old tree's src")
    ap.add_argument("new", type=pathlib.Path, help="the new tree's src")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--smoke", action="store_true",
                    help="the benchmark's small instance lists")
    ap.add_argument("--passes", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1, help="naming seed")
    args = ap.parse_args()

    trees = [load(args.old, "ab_old"), load(args.new, "ab_new")]
    wl = workloads.make(args.workload, args.seed, ROOT, args.smoke)
    samples: list[list[list[float]]] = [[[] for _ in wl.instances]
                                        for _ in trees]
    wrong = 0
    differ: set[str] = set()  # problems, over all their namings
    for p in range(args.passes):
        gc.collect()
        for i, inst in enumerate(wl.instances):
            out = [None, None]
            for k in ((0, 1) if (i + p) % 2 == 0 else (1, 0)):
                t0 = time.perf_counter()
                out[k] = solve(trees[k], inst)
                samples[k][i].append(time.perf_counter() - t0)
            for k, o in enumerate(out):
                if o[0] != inst.expected:
                    wrong += 1
                    print(f"{inst.name}: {('old', 'new')[k]} says {o[0]}, "
                          f"known answer {inst.expected}", file=sys.stderr)
            if p == 0 and (out[0][:4] != out[1][:4] or
                           out[0][4].trace != out[1][4].trace):
                differ.add(inst.key)

    size = {inst.key: inst.size for inst in wl.instances}
    pers = []
    for tree in samples:
        grouped: dict[str, list[float]] = {}
        for inst, s in zip(wl.instances, tree):
            grouped.setdefault(inst.key, []).extend(s)
        pers.append({k: statistics.median(s) for k, s in grouped.items()})
    print(f"{args.workload}: {len(pers[0])} problems, {args.passes} passes, "
          f"{len(differ)} with other steps, clauses, Σ_q or trace")
    old, new = (summary(per) for per in pers)
    for label, o, n in zip(("sum of medians", "p50", "tail"), old, new):
        print(f"{label:15s} old {o:.6f} s  new {n:.6f} s  "
              f"ratio {n / o:.3f}")
    # one group per size, or five groups of about equal count when the
    # sizes are many (the text lengths of ``rewrite``)
    keys = sorted(pers[0], key=lambda k: size[k])
    sizes = sorted(set(size.values()))
    if len(sizes) <= 10:
        groups = [[k for k in keys if size[k] == s] for s in sizes]
    else:
        groups = [keys[len(keys) * g // 5:len(keys) * (g + 1) // 5]
                  for g in range(5)]
    for group in groups:
        o, n = (statistics.median(per[k] for k in group) for per in pers)
        span = f"{size[group[0]]}" if size[group[0]] == size[group[-1]] \
            else f"{size[group[0]]}-{size[group[-1]]}"
        print(f"size {span:>9s} ({len(group):3d})  ratio {n / o:.3f}")
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
