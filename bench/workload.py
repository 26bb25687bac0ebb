"""One benchmark workload in a fresh process.

Set-up is timed first: ``import thzplanner.cli`` plus one warm-up op on the
scenario the parent generated.  Then a closed loop with one client runs ops
through ``thzplanner.cli.main`` until the measuring time is spent, each on
a scenario of its own.  Only the ``cli.main`` call is timed; generating the
next scenario, reading and deleting the output and checking it happen
between ops.  With ``--trace 1`` the first half of the time runs untraced
and the second half with the tracer's wrappers installed.

Each op's record (latency, traced or not, K, simulated jobs, properties and
failures) is appended to the ``--ops`` file as one JSON line when the op
ends, so the process keeps no per-op state and its peak RSS does not grow
with the number of ops.  The last line of standard output is one JSON
object with the set-up figures.  ``run.py`` aggregates both.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import sys
import time

SIM_JOBS = 1_000_000
# simulate's default warm-up discard at SIM_JOBS: min(10000, jobs / 10)
SIM_WARMUP = 10_000
# the tail latency needs ten ops beyond it, and should not fall below the median
MIN_OPS = 21
SHIPPED = ("reference_k10.yaml", "single_user.yaml", "strict_infeasible_k10.yaml")
# every VERIFY_SHIPPED_EVERY-th verify op runs a shipped scenario
VERIFY_SHIPPED_EVERY = 4


def _maxrss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class _CountHandler(logging.Handler):
    """Counts warnings of the closed form's branch and bisection fallbacks."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


def feasible(data) -> bool:
    """True when the plan of a generated scenario has no infeasible user."""
    from thzplanner.optimizer import INFEASIBLE, plan
    from thzplanner.scenario_io import scenario_from_dict

    return all(row.status != INFEASIBLE for row in plan(scenario_from_dict(data)).users)


class Workload:
    def __init__(self, name: str, seed: int, root: str, tmp: str) -> None:
        self.name = name
        self.seed = seed
        self.root = root
        self.tmp = tmp
        self.fresh = 0
        self.shipped_k = {}

    def path(self, suffix: str) -> str:
        self.fresh += 1
        return os.path.join(self.tmp, f"{self.fresh}{suffix}")

    def scenario(self, index: int):
        """(mapping or None, scenario path, K, redraws) for op ``index``."""
        import gen

        if self.name == "verify":
            rounds, slot = divmod(index, VERIFY_SHIPPED_EVERY)
            if slot == VERIFY_SHIPPED_EVERY - 1:
                import yaml

                fname = SHIPPED[rounds % len(SHIPPED)]
                path = os.path.join(self.root, "scenarios", fname)
                if fname not in self.shipped_k:
                    with open(path, encoding="utf-8") as fh:
                        self.shipped_k[fname] = len(yaml.safe_load(fh)["users"])
                return None, path, self.shipped_k[fname], 0
            # generated scenarios take consecutive sequence points, so the
            # rotation through shipped files does not skew their K mix
            index = rounds * (VERIFY_SHIPPED_EVERY - 1) + slot
        data, text, redraws = gen.make(self.name, self.seed, index, feasible)
        path = self.path(".yaml")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return data, path, len(data["users"]), redraws

    def argv(self, scenario_path: str, out_path: str):
        if self.name == "plan":
            return ["plan", scenario_path, "-o", out_path]
        if self.name == "verify":
            return ["verify", scenario_path]
        mode = "isolated" if self.name == "sim_isolated" else "shared-edge"
        return ["simulate", scenario_path, "--mode", mode, "--jobs", str(SIM_JOBS),
                "-o", out_path]

    def check(self, data, rc: int, stdout: str, out_text: str, index: int):
        import checks

        if self.name == "plan":
            return checks.check_plan(data, rc, out_text, index)
        if self.name == "verify":
            return checks.check_verify(rc, stdout)
        mode = "isolated" if self.name == "sim_isolated" else "shared_edge"
        return checks.check_simulate(data, rc, out_text, mode, SIM_JOBS, SIM_WARMUP)

    def jobs(self, k: int) -> int:
        return k * SIM_JOBS if self.name.startswith("sim_") else 0


def _run_op(cli, argv, tr=None, index=None):
    """Run one CLI op with its output captured; returns (rc, seconds, stdout).

    With a tracer, the op's spans carry ``index`` as their op id.
    """
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tr is not None:
            tr.op = index
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 - an op that crashes is a failed op
            rc = f"crashed: {exc!r}"
        dt = time.perf_counter() - t0
        if tr is not None:
            tr.op = None
    return rc, dt, out.getvalue()


def _outcome(wl, data, rc, stdout: str, out_path: str, index):
    """Read and delete the op's output file, then check it: (failures, properties)."""
    out_text = ""
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            out_text = fh.read()
        os.unlink(out_path)
    if isinstance(rc, str):
        return [rc], {}
    try:
        return wl.check(data, rc, stdout, out_text, index)
    except (ValueError, IndexError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"], {}


def _op_record(wl, cli, index, counter, tr):
    data, scen, k, redraws = wl.scenario(index)
    out_path = wl.path(".csv")
    warnings_before = counter.count
    rc, dt, stdout = _run_op(cli, wl.argv(scen, out_path), tr, index)
    fallbacks = counter.count - warnings_before
    if data is not None:
        os.unlink(scen)
    fails, props = _outcome(wl, data, rc, stdout, out_path, index)
    return {
        "lat_s": dt, "traced": tr is not None, "k": k, "jobs": wl.jobs(k), "redraws": redraws,
        "fallbacks": fallbacks, "props": props, "fails": fails[:3],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--warmup-scenario", required=True)
    ap.add_argument("--ops", default=None)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import thzplanner.cli as cli
    import_s = time.perf_counter() - t0
    if "THZ_PLANNER_THREADS" in os.environ:
        raise RuntimeError("THZ_PLANNER_THREADS must be unset in a workload process")

    counter = _CountHandler()
    logging.getLogger("thzplanner.reliability").addHandler(counter)
    wl = Workload(args.workload, args.seed, args.root, args.tmp)
    rss_before_warmup = _maxrss_bytes()
    warm_out = wl.path(".csv")
    warm = _run_op(cli, wl.argv(args.warmup_scenario, warm_out))
    rss_after_warmup = _maxrss_bytes()
    setup_s = import_s + warm[1]

    import gen
    import tracer as tracer_mod

    # the parent wrote the warm-up file; regenerating it here checks that the
    # generator is byte-identical across processes for the same seed
    data, text, redraws = gen.make(args.workload, args.seed, "warmup", feasible)
    with open(args.warmup_scenario, encoding="utf-8") as fh:
        if fh.read() != text:
            raise RuntimeError("generator is not byte-identical for the same seed")
    k = len(data["users"])

    # the warm-up op's output is checked like any other (op index -1)
    warm_fails = _outcome(wl, data, warm[0], warm[2], warm_out, -1)[0]
    result = {
        "setup_s": setup_s, "import_s": import_s,
        "warmup_rss_growth_bytes": rss_after_warmup - rss_before_warmup,
        "warmup_jobs": wl.jobs(k), "warmup_fails": warm_fails[:3],
    }

    if not args.setup_only:
        tracer_mod.assert_untraced()
        phases = [(False, args.seconds / 2), (True, args.seconds / 2)] if args.trace \
            else [(False, args.seconds)]
        tr = None
        index = 0
        with open(args.ops, "w", encoding="utf-8") as ops:
            for traced, seconds in phases:
                if traced:
                    tr = tracer_mod.Tracer()
                    tr.install()
                    result["trace_costs_s"] = [tr.cost_ok, tr.cost_raised]
                start = time.perf_counter()
                n = 0
                while n < MIN_OPS or time.perf_counter() - start < seconds:
                    ops.write(json.dumps(_op_record(wl, cli, index, counter, tr)) + "\n")
                    index += 1
                    n += 1
        if tr is not None:
            tr.uninstall()
            result["trace"] = tr.totals()
            result["spans_kept"] = sum(1 for s in tr.spans if s is not None)
            result["spans_dropped"] = tr.dropped
            if args.spans:
                tr.write_spans(args.spans)
    result["peak_rss_bytes"] = _maxrss_bytes()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
