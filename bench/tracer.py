"""Span tracer that wraps the package's public functions from outside.

Nothing under ``src/`` changes: ``install`` replaces each traced function
with a timing wrapper in every ``thzplanner`` submodule that binds it.
The package binds most of these names with from-imports (``rate_threshold``
lives in ``reliability`` and is bound again in ``optimizer`` and ``cli``),
so patching only the defining module would miss most calls.

``TRACED`` lists, per function, every module expected to bind it.  A
binding that has gone, moved or appeared elsewhere makes ``install`` raise
instead of silently reporting zero calls.

Each call inside an op records a span (name, start, end, parent span, op
id) and adds to per-name counters: calls, calls that raised, calls that
returned a finite float, and self time, the span's duration minus the time
its child spans cover.

Self time is corrected for the wrapper's own cost.  Part of it falls
inside the child's span (the inner call, the result check, part of a clock
read) and part outside it, in the parent's span (the bookkeeping before and
after the timed call).  ``install`` measures both once per run on a wrapped
no-op that returns and on one that raises (``calibrate``).  Each call's
self time then drops the inside part, and the parent is charged the
child's duration plus the outside part.  What is left is each function's
work beyond an empty function's; the plain cost of calling it stays with
the caller, as without the tracer.  The self times of an op's spans still
add up to somewhat more than its untraced time: the wrapper's allocations
bring garbage collection forward and its code takes cache, which a no-op
cannot show.  Compare self times between traced runs, not with untraced
latencies.

Counters cover every call; spans are kept in memory
up to ``span_cap`` and written out by ``write_spans`` when the run ends.
Calls made outside an op (the benchmark's own generators and checks) pass
straight through and are neither counted nor recorded.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from typing import Dict, List, Optional, Tuple

PACKAGE = "thzplanner"

# (defining module, function, modules expected to bind it)
TRACED: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("cli", "main", ("cli",)),
    ("scenario_io", "load_scenario", ("scenario_io", "cli")),
    ("scenario_io", "file_sha256", ("scenario_io", "cli")),
    ("optimizer", "plan", ("optimizer", "cli")),
    ("optimizer", "minimize_rate_threshold", ("optimizer",)),
    ("optimizer", "assign_frequencies", ("optimizer",)),
    ("optimizer", "brute_force_assignment", ("optimizer", "cli")),
    ("reliability", "rate_threshold", ("reliability", "optimizer", "cli")),
    ("reliability", "rate_threshold_oracle", ("reliability", "cli")),
    ("reliability", "system_reliability", ("reliability", "simulator")),
    ("numerics", "minimize_scalar", ("numerics", "optimizer")),
    ("numerics", "lambert_w", ("numerics", "reliability", "channel")),
    ("numerics", "lambert_w_log_lower", ("numerics", "reliability")),
    ("channel", "achievable_distance", ("channel", "optimizer", "cli")),
    ("channel", "data_rate", ("channel", "cli")),
    ("channel", "supermodularity_gap", ("channel", "cli")),
    ("simulator", "simulate_system", ("simulator", "cli")),
    ("simulator", "simulate_user", ("simulator", "cli")),
)

# lambert_w is counted per branch under these names
W0, WM1 = "numerics.lambert_w.w0", "numerics.lambert_w.wm1"

# counter slots of one span name
CALLS, RAISED, FINITE, SELF_S = range(4)

_MARK = "__bench_traced__"


class TraceBindingError(RuntimeError):
    """A traced function is not bound where the tracer expects it."""


class _Probe(Exception):
    pass


def _returns(*args):
    return 1.0


def _raises(*args):
    raise _Probe


def _loop_s(fn, calls: int) -> float:
    """Seconds for ``calls`` calls of ``fn`` with five positional arguments."""
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        try:
            fn(1, 2, 3, 4, 5)
        except _Probe:
            pass
    return clock() - t0


def _submodules() -> Dict[str, object]:
    prefix = PACKAGE + "."
    return {
        name[len(prefix):]: mod
        for name, mod in sys.modules.items()
        if name.startswith(prefix) and mod is not None
    }


def _binders(fn, modules: Dict[str, object]) -> List[str]:
    return sorted(
        short for short, mod in modules.items()
        if any(value is fn for value in vars(mod).values())
    )


def assert_untraced() -> None:
    """Raise when any traced name is currently bound to a wrapper."""
    for home, name, binders in TRACED:
        for short in binders:
            mod = sys.modules.get(f"{PACKAGE}.{short}")
            if mod is not None and hasattr(getattr(mod, name, None), _MARK):
                raise TraceBindingError(f"{short}.{name} is wrapped in an untraced run")


class Tracer:
    def __init__(self, span_cap: int = 100_000) -> None:
        self.op: Optional[int] = None
        self.span_cap = span_cap
        self.spans: List[list] = []
        self.dropped = 0
        self.names: List[str] = []
        self.stats: Dict[str, list] = {}
        # open spans, innermost last: span id and the time its children took,
        # kept as plain numbers so the stack allocates nothing the garbage
        # collector tracks
        self._ids: List[int] = []
        self._child_s: List[float] = []
        self._patched: List[Tuple[object, str, object]] = []
        # per-call wrapper cost (inside, outside) a child's span, in seconds,
        # for a child that returns and one that raises; set by install
        self.cost_ok = (0.0, 0.0)
        self.cost_raised = (0.0, 0.0)

    def _stat(self, name: str) -> Tuple[int, list]:
        if name not in self.stats:
            self.names.append(name)
            self.stats[name] = [0, 0, 0, 0.0]
        return self.names.index(name), self.stats[name]

    def _wrap(self, fn, span_name: str):
        tracer = self
        clock = time.perf_counter
        ids = self._ids
        child_s = self._child_s
        spans = self.spans
        if span_name == "numerics.lambert_w":
            w0 = self._stat(W0)
            wm1 = self._stat(WM1)

            def pick(args, kwargs):
                branch = args[1] if len(args) > 1 else kwargs.get("branch", 0)
                return w0 if branch == 0 else wm1
        else:
            fixed = self._stat(span_name)

            def pick(args, kwargs):
                return fixed

        def wrapper(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            name_id, stat = pick(args, kwargs)
            parent = ids[-1] if ids else -1
            if len(spans) < tracer.span_cap:
                span_id = len(spans)
                spans.append(None)
            else:
                span_id = -1
                tracer.dropped += 1
            ids.append(span_id)
            child_s.append(0.0)
            cost_in, cost_out = tracer.cost_ok
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                cost_in, cost_out = tracer.cost_raised
                stat[RAISED] += 1
                raise
            else:
                if type(result) is float and result - result == 0.0:
                    stat[FINITE] += 1
                return result
            finally:
                t1 = clock()
                ids.pop()
                children = child_s.pop()
                dur = t1 - t0
                stat[CALLS] += 1
                stat[SELF_S] += dur - cost_in - children
                if child_s:
                    child_s[-1] += dur + cost_out
                if span_id >= 0:
                    spans[span_id] = [name_id, t0, t1, parent, op]

        setattr(wrapper, _MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def calibrate(calls: int = 500, rounds: int = 41):
        """Wrapper cost per call, ((inside, outside) returning, (...) raising).

        A parent frame times ``calls`` calls of a bare and a wrapped no-op
        with five arguments.  Inside is the time the wrapped no-op's spans
        cover; outside is the wrapped loop less that, less the bare loop.
        Each takes its lowest of ``rounds`` rounds, per call.  The probe
        keeps no spans, as a real run does once its span cap is reached.
        """
        probe = Tracer(span_cap=0)
        costs = []
        for fn in (_returns, _raises):
            wrapped = probe._wrap(fn, fn.__name__)
            stat = probe.stats[fn.__name__]
            bare = inside = outside = math.inf
            probe.op = 0
            probe._ids.append(-1)
            probe._child_s.append(0.0)
            for _ in range(rounds):
                bare = min(bare, _loop_s(fn, calls))
                before = stat[SELF_S]
                total = _loop_s(wrapped, calls)
                spans_s = stat[SELF_S] - before
                inside = min(inside, spans_s)
                outside = min(outside, total - spans_s)
            probe._ids.pop()
            probe._child_s.pop()
            probe.op = None
            costs.append((inside / calls, max(0.0, outside - bare) / calls))
        return costs[0], costs[1]

    def install(self) -> None:
        """Wrap every function in TRACED wherever it is bound; raise on drift.

        Calibrates the wrapper cost first (see ``calibrate``).
        """
        for short in {home for home, _, _ in TRACED} | {
            b for _, _, binders in TRACED for b in binders
        }:
            importlib.import_module(f"{PACKAGE}.{short}")
        modules = _submodules()
        for home, name, binders in TRACED:
            fn = getattr(modules[home], name, None)
            if fn is None or not callable(fn):
                raise TraceBindingError(f"{home}.{name} no longer exists")
            if hasattr(fn, _MARK):
                raise TraceBindingError(f"{home}.{name} is already wrapped")
            found = _binders(fn, modules)
            if found != sorted(binders):
                raise TraceBindingError(
                    f"{home}.{name} is bound in {found}, the tracer expects {sorted(binders)}"
                )
        self.cost_ok, self.cost_raised = self.calibrate()
        for home, name, binders in TRACED:
            fn = getattr(modules[home], name)
            wrapper = self._wrap(fn, f"{home}.{name}")
            for short in binders:
                self._patched.append((modules[short], name, fn))
                setattr(modules[short], name, wrapper)

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._patched):
            setattr(mod, name, fn)
        self._patched.clear()

    def write_spans(self, path: str) -> None:
        """One JSON object per kept span; span and parent ids index this list."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, span in enumerate(self.spans):
                if span is None:
                    continue
                name_id, t0, t1, parent, op = span
                fh.write(json.dumps({
                    "id": span_id, "name": self.names[name_id], "start_s": t0,
                    "end_s": t1, "parent": parent, "op": op,
                }) + "\n")

    def totals(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"calls": s[CALLS], "raised": s[RAISED], "finite": s[FINITE],
                   "self_s": s[SELF_S]}
            for name, s in self.stats.items()
        }
