#!/usr/bin/env python3
"""The repository benchmark: one workload, one process, one problem at a
time (a closed loop with a single caller).

    python3 perfbench/run.py --workload {data,cycle,rewrite} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Each problem goes text -> ``syntax.parse`` -> ``qans.run`` (clausify,
separate, saturate) -> verdict, plus ``qrew.q_rew`` and the printed Σ_q
for fact-free problems.  The fixed instance list is solved in passes
until ``--seconds`` have elapsed (the first pass always completes); a
problem's time is the median over its passes (and, on ``rewrite``, over
its namings).  End-to-end times are scaled to a reference host speed by a
probe timed next to each of them (``speed.py``); the raw medians are
printed and kept in the results file too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  Every
verdict is checked against an answer computed without the prover.  The
last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
Per-instance behaviour records go to ``perfbench/results/`` (compare two
with ``perfbench/compare.py``); traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, installed  # noqa: E402

MODULES = ("terms", "orders", "syntax", "clausify", "engine", "qsep", "qic",
           "qans", "qrew", "oracle")
LAYERS = ("syntax", "clausify", "qsep", "qans", "engine", "qic", "terms",
          "orders", "qrew")
# set-ups timed between two passes; spread over the run, their median is
# less sensitive to a slow spell of the host than back-to-back repeats
SETUP_BETWEEN_PASSES = 3
SIGMA_CHECKS = 5      # random rewrite instances whose Σ_q is checked
SIGMA_DATASETS = 3    # random datasets per checked rewriting


class SetupError(Exception):
    pass


# ---------------------------------------------------------------------------
# set-up


def import_package() -> SimpleNamespace:
    """Import ``guardedsat`` afresh from this checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "guardedsat" / "__init__.py").is_file():
        raise SetupError(f"no guardedsat package under {src}")
    for name in [m for m in sys.modules
                 if m == "guardedsat" or m.startswith("guardedsat.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    gs = SimpleNamespace(**{m: importlib.import_module(f"guardedsat.{m}")
                            for m in MODULES})
    if Path(gs.terms.__file__).resolve().parents[1] != src.resolve():
        raise SetupError(f"guardedsat imported from {gs.terms.__file__}")
    return gs


def setup(name: str, seed: int, smoke: bool):
    """Import the package and generate the inputs; returns both and the
    time taken."""
    t0 = time.perf_counter()
    gs = import_package()
    wl = workloads.make(name, seed, ROOT, smoke)
    if not wl.instances:
        raise SetupError(f"workload {name} has no instances")
    return gs, wl, time.perf_counter() - t0


def scaled_setup(name: str, seed: int, smoke: bool):
    """``setup`` with its time scaled to the reference speed."""
    before = speed.probe()
    gs, wl, elapsed = setup(name, seed, smoke)
    return gs, wl, speed.scaled(elapsed, before, speed.probe())


# ---------------------------------------------------------------------------
# solving


def solve(gs: SimpleNamespace, inst: workloads.Instance):
    """Text in, verdict (and Σ_q for fact-free problems) out."""
    problem = gs.syntax.parse(inst.text)
    result, state = gs.qans.run(problem)
    sigma = None
    if inst.rewrite and result.verdict == "no":
        rw = gs.qrew.q_rew([c for _, c in state.worked_off.clauses()],
                           problem.symbols)
        sigma = gs.syntax.print_formula(rw.sigma_q)
    return result, sigma


def record_of(inst: workloads.Instance, result, sigma) -> dict:
    return {
        "name": inst.name,
        "verdict": result.verdict,
        "steps": result.steps,
        "n_clauses": result.n_clauses,
        "registry_size": result.registry_size,
        "sigma_q_sha256": (hashlib.sha256(sigma.encode()).hexdigest()[:16]
                           if sigma is not None else None),
        "sigma_q_chars": len(sigma) if sigma is not None else 0,
    }


BEHAVIOUR = ("verdict", "steps", "n_clauses", "registry_size",
             "sigma_q_sha256")


class Runner:
    """Solves the instance list in passes and keeps the first pass's
    behaviour records, every sample (raw and, in timed passes, scaled to
    the reference speed) and every failure."""

    def __init__(self, gs: SimpleNamespace, wl: workloads.Workload) -> None:
        self.gs = gs
        self.wl = wl
        self.samples: list[list[float]] = [[] for _ in wl.instances]
        self.scaled: list[list[float]] = [[] for _ in wl.instances]
        self.probes: list[float] = []
        self.records: dict[str, dict] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.peak_rss_mb = 0.0

    def _check(self, inst: workloads.Instance, rec: dict) -> None:
        first = self.records.setdefault(inst.name, rec)
        if rec["verdict"] != inst.expected:
            self.failures.append(f"{inst.name}: verdict {rec['verdict']}, "
                                 f"known answer {inst.expected}")
        elif inst.rewrite and rec["sigma_q_sha256"] is None:
            self.failures.append(f"{inst.name}: no rewriting")
        elif any(first[k] != rec[k] for k in BEHAVIOUR):
            self.failures.append(f"{inst.name}: differs between passes")

    def attempt(self, inst: workloads.Instance, problem_id: int,
                tracer: Tracer | None = None) -> float | None:
        """Solve and check one instance; its time, or None if it crashed."""
        self.attempted += 1
        if tracer is not None:
            tracer.problem = problem_id
        t0 = time.perf_counter()
        try:
            result, sigma = solve(self.gs, inst)
        except Exception as exc:  # a crash is a failed problem, not a stop
            self.failures.append(f"{inst.name}: crashed: {exc!r}")
            traceback.print_exc(file=sys.stderr)
            return None
        elapsed = time.perf_counter() - t0
        self._check(inst, record_of(inst, result, sigma))
        return elapsed

    def solve_pass(self, tracer: Tracer | None = None,
                   deadline: float | None = None,
                   probed: bool = False) -> float:
        """Solve every instance, stopping early at ``deadline``; a complete
        pass ends by rewriting the workload's fact-free part (as
        ``guarded-saturate rewrite`` would), which is not a timed sample.
        With ``probed`` the speed probe runs between every two solves.
        Returns the pass's wall time."""
        gc.collect()
        t0 = time.perf_counter()
        before = speed.probe() if probed else 0.0
        for i, inst in enumerate(self.wl.instances):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            elapsed = self.attempt(inst, i, tracer)
            if probed:
                after = speed.probe()
                self.probes.append(after)
                if elapsed is not None:
                    self.scaled[i].append(speed.scaled(elapsed, before,
                                                       after))
                before = after
            if elapsed is not None:
                self.samples[i].append(elapsed)
        else:
            for inst in self.wl.fact_free:
                self.attempt(inst, -1, tracer)
        return time.perf_counter() - t0

    def timed(self, seconds: float, between=None) -> int:
        """A full first pass, then more until ``seconds`` have elapsed; the
        last pass may stop part way.  ``between()`` runs before every pass
        but the first."""
        deadline = time.perf_counter() + seconds
        self.solve_pass(probed=True)
        # every problem solved once; later passes and set-ups would make
        # the peak depend on how many passes fit in the time
        self.peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024)
        passes = 1
        while time.perf_counter() < deadline:
            if between is not None:
                between()
            self.solve_pass(deadline=deadline, probed=True)
            passes += 1
        return passes

    def independent_checks(self, seed: int) -> None:
        """Confirm known answers with the package's oracles."""
        gs, wl = self.gs, self.wl
        if wl.name == "data":
            smallest = min(inst.size for inst in wl.instances)
            for inst in wl.instances:
                if inst.size == smallest:
                    self.attempted += 1
                    if not checks.chase_agrees(gs, inst):
                        self.failures.append(
                            f"{inst.name}: ground chase contradicts the "
                            f"closed form ({inst.expected})")
        if wl.name != "rewrite":
            return
        rng = random.Random(f"sigma-check-{seed}")
        random_checked = 0
        for inst in wl.instances:
            self.attempted += 1
            if not checks.model_exists(gs, inst):
                self.failures.append(f"{inst.name}: no model found, the "
                                     f"answer No is not confirmed")
            fixture = not inst.name.startswith("rewrite-")
            if not fixture and random_checked >= SIGMA_CHECKS:
                continue
            problem = gs.syntax.parse(inst.text)
            result, state = gs.qans.run(problem)
            sigma_q = gs.qrew.q_rew(
                [c for _, c in state.worked_off.clauses()],
                problem.symbols).sigma_q
            neg = checks.negated_sigma(gs, inst, sigma_q)
            if neg is None:
                continue
            random_checked += not fixture
            self.attempted += 1
            bad = checks.sigma_agrees(gs, inst, *neg, rng, SIGMA_DATASETS)
            self.failures.extend(bad)


# ---------------------------------------------------------------------------
# metrics


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    sxx = sum((x - mx) ** 2 for x in lx)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sxx


def end_to_end(runner: Runner, setup_s: float,
               peak_rss_mb: float) -> tuple[dict, dict]:
    insts = runner.wl.instances
    size = {inst.key: inst.size for inst in insts}

    def per_problem(samples: list[list[float]]) -> dict[str, float]:
        """A problem's time: the median over its passes and namings."""
        grouped: dict[str, list[float]] = {}
        for inst, s in zip(insts, samples):
            if s:
                grouped.setdefault(inst.key, []).extend(s)
        return {key: statistics.median(s) for key, s in grouped.items()}

    per = per_problem(runner.scaled)
    ordered = sorted(per.values())
    n = len(ordered)
    # the highest percentile with at least ten samples beyond it
    tail_rank = max(n - 11, 0)
    tail_pct = 100.0 * (tail_rank + 1) / n
    total = [t for s in runner.scaled for t in s]
    raw = [t for s in runner.samples for t in s]
    sigma_src = insts if runner.wl.name == "rewrite" else runner.wl.fact_free
    sigma_chars = sum(runner.records[i.name]["sigma_q_chars"]
                      for i in sigma_src if i.name in runner.records)
    attempted = max(runner.attempted, 1)
    metrics = {
        "solve_s.p50": _metric(statistics.median(ordered), "s"),
        "solve_s.tail": _metric(ordered[tail_rank], "s"),
        "problems_per_s": _metric(len(total) / sum(total), "1/s"),
        "scaling_slope": _metric(slope([size[k] for k in per],
                                       list(per.values())), "1"),
        "ok_frac": _metric(1 - len(runner.failures) / attempted, "frac"),
        "sigma_q_chars": _metric(sigma_chars, "chars"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "setup_s": _metric(setup_s, "s"),
    }
    info = {"tail_percentile": round(tail_pct, 2), "problems": n,
            "solves": len(total),
            "raw_solve_s.p50": round(statistics.median(
                per_problem(runner.samples).values()), 6),
            "raw_problems_per_s": round(len(raw) / sum(raw), 4),
            "probe_s.p50": round(statistics.median(runner.probes), 7)}
    return metrics, info


def layer_values(t: Tracer) -> dict[str, float]:
    """Per-layer values of one traced pass."""
    c = t.counts

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    insert_calls = t.total_calls("qans.insert")
    subsumes_calls = t.total_calls("terms.subsumes")
    v = {
        "syntax.parse_s": t.total_self("syntax.parse"),
        "clausify.trans_s": t.total_self("clausify.trans"),
        "clausify.clauses_out": c["clausify.clauses_out"],
        "qsep.q_sep_s": t.total_self("qsep.q_sep"),
        "qsep.icq_out": c["qsep.icq_out"],
        "qsep.is_icq_calls": t.total_calls("qsep.is_icq"),
        "qsep.is_icq_s": t.total_self("qsep.is_icq"),
        "qans.saturate_s": t.total_self("qans.saturate"),
        "qans.steps": c["qans.steps"],
        "qans.insert_calls": insert_calls,
        "qans.insert_s": t.total_self("qans.insert"),
        "qans.insert_kept_frac": frac(c["qans.insert_kept"], insert_calls),
        "qans.pick_s": t.total_self("qans.pick"),
        "qans.peak_usable": t.peaks["qans.peak_usable"],
        "qans.peak_worked_off": t.peaks["qans.peak_worked_off"],
        "qans.registry_size": c["qans.registry_size"],
        "engine.com_t_all_calls": t.total_calls("engine.com_t_all"),
        "engine.com_t_all_s": t.total_self("engine.com_t_all"),
        "engine.topvar_results": c["engine.topvar_results"],
        "engine.factor_s": t.total_self("engine.factor"),
        "engine.side_candidates_calls":
            t.total_calls("engine.side_candidates"),
        "qic.q_ic_all_calls": t.total_calls("qic.q_ic_all"),
        "qic.q_ic_all_s": t.total_self("qic.q_ic_all"),
        "terms.condense_calls": t.total_calls("terms.condense"),
        "terms.condense_s": t.total_self("terms.condense"),
        "terms.subsumes_calls": subsumes_calls,
        "terms.subsumes_s": t.total_self("terms.subsumes"),
        "terms.subsumes_calls.under_insert":
            t.total_calls("terms.subsumes", "qans.insert"),
        "terms.subsumes_calls.under_condense":
            t.total_calls("terms.subsumes", "terms.condense"),
        "terms.subsumes_s.under_insert":
            t.total_self("terms.subsumes", "qans.insert"),
        "terms.subsumes_s.under_condense":
            t.total_self("terms.subsumes", "terms.condense"),
        "terms.subsumes_true_frac":
            frac(c["terms.subsumes_true"], subsumes_calls),
        "terms.membership_calls": t.total_calls("terms.membership"),
        "terms.membership_s": t.total_self("terms.membership"),
        "terms.mgu_lits_calls": c["terms.mgu_lits_calls"],
        "terms.mgu_lits_ok_frac": frac(c["terms.mgu_lits_ok"],
                                       c["terms.mgu_lits_calls"]),
        "terms.rename_apart_calls": c["terms.rename_apart_calls"],
        "orders.compare_lits_calls": t.total_calls("orders.compare_lits"),
        "orders.compare_lits_s": t.total_self("orders.compare_lits"),
        "orders.maximal_calls": t.total_calls("orders.maximal"),
        "orders.maximal_s": t.total_self("orders.maximal"),
        "qrew.q_rew_s": t.total_self("qrew.q_rew"),
    }
    for layer in LAYERS:
        v[f"{layer}.self_s"] = t.layer_self(layer)
    return v


def unit_of(name: str) -> str:
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


def traced(runner: Runner, seconds: float, spans_path: Path):
    """Alternate untraced and traced full passes, so that the overhead
    compares neighbouring passes; per-layer counts must repeat exactly
    between traced passes.  After the first pair, a pair starts only if
    one more like the last fits in ``seconds``."""
    start = time.perf_counter()
    plain, walls, passes = [], [], []
    while (not passes or time.perf_counter() - start
           + plain[-1] + walls[-1] <= seconds):
        plain.append(runner.solve_pass())
        tracer = Tracer(keep_spans=not passes)
        with installed(tracer, runner.gs):
            walls.append(runner.solve_pass(tracer))
        if not passes:
            tracer.write_spans(spans_path)
        passes.append(layer_values(tracer))
    metrics = {}
    for name in passes[0]:
        unit = unit_of(name)
        values = [p[name] for p in passes]
        if unit == "s":
            value = statistics.fmean(values)
        else:
            value = values[0]
            if any(x != value for x in values):
                runner.failures.append(
                    f"per-layer {name} differs between traced passes: "
                    f"{values}")
        metrics[name] = _metric(value, unit)
    metrics["trace.overhead_frac"] = _metric(
        statistics.median(walls) / statistics.median(plain) - 1, "frac")
    info = {"untraced_passes": len(plain), "traced_passes": len(passes),
            "spans": str(spans_path)}
    return metrics, info


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest sizes, for checking the benchmark itself")
    ap.add_argument("--results", type=Path, default=HERE / "results",
                    help="directory for behaviour records and spans")
    args = ap.parse_args(argv)

    try:
        gs, wl, setup_s = scaled_setup(args.workload, args.seed, args.smoke)
    except (SetupError, ImportError, OSError) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2
    setup_times = [setup_s]

    def resetup() -> None:
        for _ in range(SETUP_BETWEEN_PASSES):
            setup_times.append(
                scaled_setup(args.workload, args.seed, args.smoke)[2])
    args.results.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}"
    runner = Runner(gs, wl)
    if args.trace:
        metrics, info = traced(runner, args.seconds,
                               args.results / f"{wl.name}-spans.jsonl")
        runner.independent_checks(args.seed)
    else:
        passes = runner.timed(args.seconds, between=resetup)
        runner.independent_checks(args.seed)
        metrics, info = end_to_end(runner, statistics.median(setup_times),
                                   runner.peak_rss_mb)
        info["setups"] = len(setup_times)
        info["passes"] = passes

    for msg in runner.failures:
        print(f"MISMATCH {msg}")
    print(f"{wl.name} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"{wl.name}: " + "  ".join(
        f"{k}={m['value']:.6g} {m['unit']}" for k, m in metrics.items()))
    out = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
           "smoke": args.smoke, "info": info, "metrics": metrics,
           "failures": runner.failures,
           "records": [runner.records[i.name]
                       for i in wl.instances + wl.fact_free
                       if i.name in runner.records],
           "samples_s": {i.name: s for i, s in zip(wl.instances,
                                                   runner.samples)},
           "scaled_samples_s": {i.name: s for i, s in zip(wl.instances,
                                                          runner.scaled)}}
    path = args.results / f"{stem}-trace{args.trace}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps({"correct": not runner.failures,
                      "attempted": runner.attempted,
                      "failed": len(runner.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
