"""Spans and counters around the package's public functions.

The package itself is not edited: :func:`installed` rebinds each traced
name where its callers look it up (``qans.subsumes``, ``qsep.membership``,
``engine.mgu_lits`` ...) and on the classes whose methods are traced, and
restores the originals on exit.

A span records (name, start, end, parent span, problem id).  Self time is
the span's duration minus the time its child spans cover; it is summed per
(name, parent name), so a function's time can be split by caller.  The
hot leaf calls ``mgu_lits`` and ``rename_apart`` are counted, not spanned.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from types import ModuleType, SimpleNamespace
from typing import Callable, Iterator

TOP = "-"  # parent name of a top-level span


class Tracer:
    def __init__(self, keep_spans: bool) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.keep_spans = keep_spans
        # one frame per open span: [name id, span index, child time]
        self.stack: list[list] = []
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        self.problem = -1
        self.n_spans = 0
        self.s_index = array("i")
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_problem = array("i")
        self.s_start = array("d")
        self.s_end = array("d")

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn: Callable,
             after: Callable | None = None) -> Callable:
        """Wrap ``fn`` in a span; ``after(result, args)`` updates counters."""
        nid = self._id(name)
        enter, leave = self._enter, self._leave

        def wrapper(*args, **kwargs):
            frame = enter(nid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame, t0, time.perf_counter())
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def generator_span(self, name: str, fn: Callable,
                       per_item: str) -> Callable:
        """Wrap a generator function: every resumption is a span, because
        the caller's own work runs between two items."""
        nid = self._id(name)
        enter, leave, counts = self._enter, self._leave, self.counts

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            self.calls[(name, self._parent_name())] += 1
            while True:
                frame = enter(nid)
                t0 = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    leave(frame, t0, time.perf_counter(), count=False)
                counts[per_item] += 1
                yield item

        return wrapper

    def counter(self, name: str, fn: Callable,
                ok: str | None = None) -> Callable:
        """Count calls (and non-None results under ``ok``) without a span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if ok is not None and result is not None:
                counts[ok] += 1
            return result

        return wrapper

    def _parent_name(self) -> str:
        return self.names[self.stack[-1][0]] if self.stack else TOP

    def _enter(self, nid: int) -> list:
        idx = self.n_spans
        self.n_spans += 1
        frame = [nid, idx, 0.0]
        self.stack.append(frame)
        return frame

    def _leave(self, frame: list, t0: float, t1: float,
               count: bool = True) -> None:
        self.stack.pop()
        nid, idx, child = frame
        dur = t1 - t0
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        key = (self.names[nid], self.names[parent[0]] if parent else TOP)
        self.self_s[key] += dur - child
        if count:
            self.calls[key] += 1
        if self.keep_spans:
            self.s_index.append(idx)
            self.s_name.append(nid)
            self.s_parent.append(parent[1] if parent else -1)
            self.s_problem.append(self.problem)
            self.s_start.append(t0)
            self.s_end.append(t1)

    # -- results -----------------------------------------------------------

    def total_calls(self, name: str, parent: str | None = None) -> int:
        return sum(n for (s, p), n in self.calls.items()
                   if s == name and (parent is None or p == parent))

    def total_self(self, name: str, parent: str | None = None) -> float:
        return sum(t for (s, p), t in self.self_s.items()
                   if s == name and (parent is None or p == parent))

    def layer_self(self, layer: str) -> float:
        return sum(t for (s, _), t in self.self_s.items()
                   if s.split(".")[0] == layer)

    def write_spans(self, path: Path) -> None:
        """Write the kept spans as JSON lines after a header line; times are
        seconds from the earliest start, parents are span indices."""
        base = min(self.s_start, default=0.0)
        with path.open("w") as f:
            f.write(json.dumps({"fields": ["index", "name", "start_s",
                                           "end_s", "parent", "problem"],
                                "names": self.names}) + "\n")
            for i in range(len(self.s_index)):
                f.write(json.dumps([
                    self.s_index[i], self.names[self.s_name[i]],
                    round(self.s_start[i] - base, 9),
                    round(self.s_end[i] - base, 9),
                    self.s_parent[i], self.s_problem[i]]) + "\n")


def _rebind(gs: SimpleNamespace, original: Callable, wrapper: Callable,
            undo: list) -> None:
    """Point every module-level name bound to ``original`` at ``wrapper``."""
    for mod in vars(gs).values():
        if not isinstance(mod, ModuleType):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, attr, value))
                setattr(mod, attr, wrapper)


def _method(cls: type, attr: str, wrap: Callable, undo: list) -> None:
    original = cls.__dict__[attr]
    undo.append((cls, attr, original))
    setattr(cls, attr, wrap(original))


@contextmanager
def installed(tracer: Tracer, gs: SimpleNamespace) -> Iterator[Tracer]:
    """Trace the package's public entry points for the duration."""
    t = tracer
    counts, peaks = t.counts, t.peaks

    def add(key: str, n: int) -> None:
        counts[key] += n

    def observe(state) -> None:
        """Set sizes only grow by insert (usable) and by the loop moving
        a picked clause (worked-off), so looking after every insert, pick
        and saturate sees both peaks."""
        peaks["qans.peak_usable"] = max(peaks["qans.peak_usable"],
                                        len(state.usable))
        peaks["qans.peak_worked_off"] = max(peaks["qans.peak_worked_off"],
                                            len(state.worked_off.by_id))

    def after_insert(result, args) -> None:
        counts["qans.insert_kept"] += result is not None
        observe(args[0])

    def after_saturate(result, args) -> None:
        state = args[0]
        add("qans.steps", state.steps)
        add("qans.registry_size", len(state.registry))
        observe(state)

    functions = [
        (gs.syntax.parse, t.span("syntax.parse", gs.syntax.parse)),
        (gs.clausify.trans, t.span(
            "clausify.trans", gs.clausify.trans,
            lambda r, a: add("clausify.clauses_out",
                             len(r.lg_clauses) + len(r.query_clauses)))),
        (gs.qsep.q_sep, t.span(
            "qsep.q_sep", gs.qsep.q_sep,
            lambda r, a: add("qsep.icq_out", len(r.icq)))),
        (gs.qsep.is_icq, t.span("qsep.is_icq", gs.qsep.is_icq)),
        (gs.qans.saturate, t.span("qans.saturate", gs.qans.saturate,
                                  after_saturate)),
        (gs.engine.com_t_all, t.generator_span(
            "engine.com_t_all", gs.engine.com_t_all,
            "engine.topvar_results")),
        (gs.engine.factor, t.span("engine.factor", gs.engine.factor)),
        (gs.qic.q_ic_all, t.span("qic.q_ic_all", gs.qic.q_ic_all)),
        (gs.terms.condense, t.span("terms.condense", gs.terms.condense)),
        (gs.terms.subsumes, t.span(
            "terms.subsumes", gs.terms.subsumes,
            lambda r, a: add("terms.subsumes_true", bool(r)))),
        (gs.terms.membership, t.span("terms.membership",
                                     gs.terms.membership)),
        (gs.terms.mgu_lits, t.counter("terms.mgu_lits_calls",
                                      gs.terms.mgu_lits,
                                      ok="terms.mgu_lits_ok")),
        (gs.terms.rename_apart, t.counter("terms.rename_apart_calls",
                                          gs.terms.rename_apart)),
        (gs.orders.maximal, t.span("orders.maximal", gs.orders.maximal)),
        (gs.qrew.q_rew, t.span("qrew.q_rew", gs.qrew.q_rew)),
    ]
    undo: list = []
    try:
        for original, wrapper in functions:
            _rebind(gs, original, wrapper, undo)
        _method(gs.qans.SaturationState, "insert",
                lambda f: t.span("qans.insert", f, after_insert), undo)
        _method(gs.qans.SaturationState, "pick",
                lambda f: t.span("qans.pick", f,
                                 lambda r, a: observe(a[0])), undo)
        _method(gs.engine.ClauseIndex, "side_candidates",
                lambda f: t.span("engine.side_candidates", f), undo)
        _method(gs.orders.LPO, "compare_lits",
                lambda f: t.span("orders.compare_lits", f), undo)
        yield t
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
