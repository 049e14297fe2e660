#!/usr/bin/env python3
"""Answer and rewrite every problem in fixtures/, printing a summary line
per file: verdict, steps, clause count, and (for rule-only problems) the
size of the Skolem-free rewriting.  Exits 1 if any rewriting fails.

Usage: python scripts/run_fixtures.py [dir]
"""

from __future__ import annotations

import pathlib
import sys

from guardedsat.qans import run
from guardedsat.qrew import RewriteError, q_rew
from guardedsat.syntax import parse, print_formula


def main() -> int:
    root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else \
        pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    failed = 0
    for path in sorted(root.glob("*.p")):
        text = path.read_text()
        prob = parse(text)
        result, state = run(prob)
        line = (f"{path.name:18s} verdict={result.verdict:3s} "
                f"steps={result.steps:4d} clauses={result.n_clauses:4d}")
        if not prob.facts and result.verdict == "no":
            try:
                res = q_rew([c for _, c in state.worked_off.clauses()],
                            prob.symbols)
                line += f" rewriting={len(print_formula(res.sigma_q))}ch"
            except RewriteError as e:
                line += f" rewriting-error: {e}"
                failed += 1
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
