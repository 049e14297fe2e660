#!/usr/bin/env python3
"""Compare two benchmark result files (the behaviour gate).

    python3 perfbench/compare.py OLD.json NEW.json

The files are the ``perfbench/results/<workload>-seed<n>-trace<t>.json``
records that ``perfbench/run.py`` writes.  Prints every metric's old and
new value with the change, and every instance whose behaviour differs:
verdict, saturation steps, clauses, definer registry size or the hash of
the printed Σ_q.  Exits 1 when any behaviour differs or the files cover
different instances, 0 otherwise.  Times are reported, not gated.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import BEHAVIOUR


def load(path: Path) -> dict:
    return json.loads(path.read_text())


def compare(old: dict, new: dict) -> list[str]:
    """Behaviour differences between two result files."""
    diffs = []
    a = {r["name"]: r for r in old["records"]}
    b = {r["name"]: r for r in new["records"]}
    for name in sorted(a.keys() ^ b.keys()):
        diffs.append(f"{name}: only in {'old' if name in a else 'new'}")
    for name in sorted(a.keys() & b.keys()):
        for key in BEHAVIOUR:
            if a[name][key] != b[name][key]:
                diffs.append(f"{name}: {key} {a[name][key]} -> "
                             f"{b[name][key]}")
    return diffs


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    old, new = load(args.old), load(args.new)
    for name, m in new["metrics"].items():
        if name not in old["metrics"]:
            continue
        x, y = old["metrics"][name]["value"], m["value"]
        change = f"{(y - x) / x:+.1%}" if x else "n/a"
        print(f"{name:40s} {x:14.6g} -> {y:14.6g} {m['unit']:6s} {change}")
    diffs = compare(old, new)
    for d in diffs:
        print(f"BEHAVIOUR {d}")
    print(f"{len(diffs)} behaviour difference(s) over "
          f"{len(new['records'])} instances")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
