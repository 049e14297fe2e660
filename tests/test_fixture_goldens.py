"""Every fixture's saturation trace, verdict and (for fact-free No
instances) printed rewriting Σ_q, compared byte for byte against
``tests/golden/<stem>.txt``.

The goldens pin the observable behaviour of the prover on the fixtures,
so a change meant to be a pure speed-up shows here if it moves a single
clause, step or fresh-variable number.
"""

from __future__ import annotations

import gc
import os
import pathlib
import subprocess
import sys

import pytest

from guardedsat.qans import run
from guardedsat.qrew import RewriteError, q_rew
from guardedsat.syntax import parse, print_formula

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = sorted((ROOT / "fixtures").glob("*.p"))
TESTS = pathlib.Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"


def render(path: pathlib.Path) -> str:
    """The trace, the verdict line and, for a fact-free No, Σ_q."""
    prob = parse(path.read_text())
    result, state = run(prob)
    lines = list(result.trace)
    lines.append(f"% verdict: {result.verdict} after {result.steps} steps")
    if not prob.facts and result.verdict == "no":
        try:
            res = q_rew([c for _, c in state.worked_off.clauses()],
                        prob.symbols)
            lines.append(f"formula: {print_formula(res.sigma_q)}.")
        except RewriteError as e:
            lines.append(f"rewriting-error: {e}")
    return "\n".join(lines) + "\n"


def test_every_fixture_has_a_golden():
    assert len(FIXTURES) == 18
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == \
        [p.stem for p in FIXTURES]


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.name)
def test_fixture_output_matches_golden(path):
    assert render(path) == (GOLDEN / f"{path.stem}.txt").read_text()


def test_fixtures_leave_no_reference_cycles():
    """Answering every fixture and rewriting the fact-free ones frees all
    it made by reference counting: with the cyclic collector off, nothing
    is left for it to find."""
    gc.collect()
    gc.disable()
    try:
        for path in FIXTURES:
            render(path)
        assert gc.collect() == 0
    finally:
        gc.enable()


# prints one line per fixture: its name and the SHA-256 of its rendering
_DIGESTS = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
from test_fixture_goldens import FIXTURES, render
for path in FIXTURES:
    print(path.name, hashlib.sha256(render(path).encode()).hexdigest())
"""


def test_output_does_not_depend_on_the_hash_seed():
    """Each fixture's trace, verdict and Σ_q come out the same under two
    string hash seeds, each in its own process, so no output depends on
    the iteration order of a set or dict keyed by terms or names."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=src if not path else src + os.pathsep + path)
        outs.append(subprocess.run(
            [sys.executable, "-c", _DIGESTS, str(TESTS)], env=env,
            capture_output=True, text=True, check=True).stdout.splitlines())
    assert len(outs[0]) == len(FIXTURES)
    assert outs[0] == outs[1]
