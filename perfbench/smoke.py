#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at the smallest sizes.

    python3 perfbench/smoke.py

For every workload it runs ``perfbench/run.py --smoke`` untraced and
traced (twice), and checks that each run exits 0 with a correct result,
that the known answers came out (Yes and No on ``data`` and ``cycle``,
No with a rewriting on ``rewrite``), that every metric named in
``BENCHMARK.json`` is printed with its unit, that per-layer counts repeat
exactly between the two traced runs, and that ``compare.py`` finds no
behaviour difference between them.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results" / "smoke"
EXPECTED = {"data": {"yes", "no"}, "cycle": {"yes", "no"},
            "rewrite": {"no"}}


def run(workload: str, trace: int, tag: str) -> tuple[dict, dict]:
    """One smoke run; returns the printed result and the written record."""
    results = RESULTS / tag
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--smoke", "--results", str(results)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise AssertionError(f"{workload} trace={trace}: exit "
                             f"{proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    record = json.loads(
        (results / f"{workload}-seed1-trace{trace}.json").read_text())
    # every metric is also printed by name with its unit
    for name, m in result["metrics"].items():
        if not any(f"{name}=" in ln and m["unit"] in ln for ln in lines):
            raise AssertionError(f"{workload}: {name} [{m['unit']}] "
                                 f"not printed")
    return result, record


def check_metrics(workload: str, result: dict, declared: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        raise AssertionError(f"{workload}: metrics {got} != {want}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{workload}: {name} is not a number")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        plain, record = run(workload, 0, "plain")
        check_metrics(workload, plain, spec["end_to_end"])
        traced = [run(workload, 1, tag) for tag in ("traced-a", "traced-b")]
        for result, _ in traced:
            check_metrics(workload, result, spec["per_layer"])
        for result, _ in [(plain, record)] + traced:
            if not result["correct"] or result["failed"]:
                raise AssertionError(f"{workload}: incorrect result")
        verdicts = {r["verdict"] for r in record["records"]
                    if "fact-free" not in r["name"]}
        if verdicts != EXPECTED[workload]:
            raise AssertionError(f"{workload}: verdicts {verdicts}")
        if workload == "rewrite" and not all(
                r["sigma_q_sha256"] for r in record["records"]):
            raise AssertionError("rewrite: an instance has no rewriting")
        (a, rec_a), (b, rec_b) = traced
        counts = [n for n, m in a["metrics"].items() if m["unit"] == "count"]
        differ = [n for n in counts
                  if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
        if differ:
            raise AssertionError(f"{workload}: counts differ: {differ}")
        cmp = subprocess.run(
            [sys.executable, str(HERE / "compare.py"),
             str(RESULTS / "traced-a" / f"{workload}-seed1-trace1.json"),
             str(RESULTS / "traced-b" / f"{workload}-seed1-trace1.json")],
            cwd=ROOT, capture_output=True, text=True, timeout=60)
        if cmp.returncode != 0:
            raise AssertionError(f"{workload}: compare found differences\n"
                                 + cmp.stdout)
        print(f"ok {workload}: {len(record['records'])} instances, "
              f"verdicts {sorted(verdicts)}, "
              f"{len(plain['metrics'])} + {len(a['metrics'])} metrics")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"smoke test failed: {exc}", file=sys.stderr)
        sys.exit(1)
