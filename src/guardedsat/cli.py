"""Command-line interface.

Subcommands:

* ``answer <file>``: decide whether rules+facts entail the query
  (exit 10 = Yes, 0 = No, 1 = budget exhausted, 2 = input error);
* ``rewrite <file>``: saturate rules + negated query (no facts) and print
  the Skolem-free rewriting as a ``formula:`` statement;
* ``clausify <file>``: print the clausal form, one clause per line;
* ``classify <file>``: print the query analysis (surface, chained,
  isolated variables, acyclicity);
* ``saturate <file>``: run the saturation, then print its trace, one
  event per line, and the verdict.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .clausify import ClausifyError, trans
from .qans import answer, run
from .qrew import RewriteError, q_rew
from .qsep import DefinitionRegistry, analyze, q_sep
from .syntax import ParseError, Problem, parse, print_formula
from .terms import is_decomposable

EXIT_NO = 0
EXIT_UNKNOWN = 1
EXIT_ERROR = 2
EXIT_YES = 10


def _load(path: str) -> Problem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _cmd_answer(args: argparse.Namespace) -> int:
    problem = _load(args.file)
    result = answer(problem, step_budget=args.max_steps, seed=args.seed)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            for line in result.trace:
                fh.write(line + "\n")
    verdict = {"yes": "Yes", "no": "No", "unknown": "Unknown"}[result.verdict]
    print(verdict)
    return {"yes": EXIT_YES, "no": EXIT_NO,
            "unknown": EXIT_UNKNOWN}[result.verdict]


def _cmd_rewrite(args: argparse.Namespace) -> int:
    problem = _load(args.file)
    problem.facts = []
    result, state = run(problem, step_budget=args.max_steps, seed=args.seed)
    if result.verdict == "yes":
        print("error: the query is unconditionally entailed; "
              "there is nothing to rewrite", file=sys.stderr)
        return EXIT_YES
    if result.verdict == "unknown":
        print("error: saturation did not finish within the step budget",
              file=sys.stderr)
        return EXIT_UNKNOWN
    saturation = [c for _, c in state.worked_off.clauses()]
    rewrite = q_rew(saturation, problem.symbols)
    text = f"formula: {print_formula(rewrite.sigma_q)}.\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_NO


def _cmd_clausify(args: argparse.Namespace) -> int:
    problem = _load(args.file)
    out = trans(problem)
    first_fact = len(out.lg_clauses) - len(problem.facts)
    for i, c in enumerate(out.lg_clauses):
        origin = "rule" if i < out.n_rule_clauses else \
            "formula" if i < first_fact else "fact"
        print(f"{c}  % origin: {origin}")
    for c in out.query_clauses:
        print(f"{c}  % origin: query")
    return EXIT_NO


def _cmd_classify(args: argparse.Namespace) -> int:
    problem = _load(args.file)
    out = trans(problem)
    registry = DefinitionRegistry(problem.symbols)
    for i, q in enumerate(out.query_clauses, 1):
        a = analyze(q)
        sep = q_sep(q, registry)
        print(f"query {i}: {q}")
        print("  surface:", " | ".join(str(l) for l in a.surface))
        print("  chained:", " ".join(sorted(a.chained)) or "-")
        print("  isolated:", " ".join(sorted(a.isolated)) or "-")
        print("  decomposable:", "yes" if is_decomposable(q) else "no")
        print("  acyclic:", "yes" if sep.acyclic else "no")
    return EXIT_NO


def _cmd_saturate(args: argparse.Namespace) -> int:
    problem = _load(args.file)
    result = answer(problem, step_budget=args.max_steps, seed=args.seed)
    for line in result.trace:
        print(line)
    print(f"% verdict: {result.verdict} after {result.steps} steps")
    return EXIT_NO


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="guarded-saturate",
        description="Saturation-based query answering and rewriting for "
                    "the guarded, loosely guarded and clique guarded "
                    "fragments.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="problem file")
        p.add_argument("--max-steps", type=int, default=10 ** 6)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("answer", help="decide query entailment")
    common(p)
    p.add_argument("--trace", help="write the proof trace to this file")
    p.set_defaults(fn=_cmd_answer)

    p = sub.add_parser("rewrite", help="produce the Skolem-free rewriting")
    common(p)
    p.add_argument("-o", "--output", help="write the formula to this file")
    p.set_defaults(fn=_cmd_rewrite)

    p = sub.add_parser("clausify", help="print the clausal normal form")
    p.add_argument("file", help="problem file")
    p.set_defaults(fn=_cmd_clausify)

    p = sub.add_parser("classify", help="print the query analysis")
    p.add_argument("file", help="problem file")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("saturate",
                       help="print the saturation trace after the run")
    common(p)
    p.set_defaults(fn=_cmd_saturate)
    return top


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_ERROR if e.code not in (0,) else 0
    try:
        return args.fn(args)
    except (ParseError, ClausifyError, RewriteError, OSError,
            ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
