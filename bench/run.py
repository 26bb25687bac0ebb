"""thzplanner benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload plan --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a source checkout; the package is imported from
the checkout's ``src/``.  Workloads (``WORKLOADS`` below says why each is
there): ``plan``, ``verify``, ``sim_isolated``, ``sim_shared``.

Each run starts fresh single-threaded Python processes with a scrubbed
environment (``THZ_PLANNER_THREADS`` removed, BLAS/OpenMP pinned to one
thread).  ``SETUP_SAMPLES - 1`` of them only time set-up; the last one also
runs the closed loop of ops (see ``workload.py``).  Every op drives the
package through its entry point, ``thzplanner.cli.main``, on a scenario
generated from the seed, and its output is checked between ops, outside
the timed call.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of ``BENCHMARK.json``: the first half of a traced run is untraced,
the second half runs with the wrappers of ``tracer.py`` installed.  Human-
readable lines (every metric with its unit, workload properties, machine
info) come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = {
    "plan": "share search: optimizer, reliability and numerics do nearly all the work",
    "verify": "the only workload running the oracles: bisection, brute force, round trip",
    "sim_isolated": "Philox draws and the Lindley recursion, one private edge queue per user",
    "sim_shared": "same simulator layer, plus the merge and argsort of the shared edge queue",
}
# op_tail_ms percentile per workload: the highest of the usual percentiles
# with at least ten ops beyond it at the measuring time of BENCHMARK.json.
# It is fixed, not chosen per run, so that a faster program (more ops in a
# run) is compared at the same percentile.
TAIL_PCT = {"plan": 99.0, "verify": 95.0, "sim_isolated": 75.0, "sim_shared": 75.0}
SETUP_SAMPLES = 5
# a run must end within 180 s; leave room for aggregation and clean-up
RUN_BUDGET_S = 170.0
MAX_FAIL_MESSAGES = 20


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _env() -> dict:
    env = dict(os.environ)
    env.pop("THZ_PLANNER_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def _child(argv, deadline: float, ops_path=None) -> dict:
    """Run one workload process to completion; its last stdout line is JSON.

    With ``ops_path``, the process writes its op records there, one JSON
    line each; they are returned under ``"ops"``.
    """
    if ops_path is not None:
        argv = list(argv) + ["--ops", str(ops_path)]
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "workload.py"), *argv],
        capture_output=True, text=True, env=_env(), cwd=str(ROOT),
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"workload process exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    if ops_path is not None:
        with open(ops_path, encoding="utf-8") as fh:
            result["ops"] = [json.loads(line) for line in fh]
    return result


def _percentile(lat_sorted, pct: float):
    """Nearest-rank percentile and the number of ops beyond it."""
    n = len(lat_sorted)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return lat_sorted[rank - 1], n - rank


def _mount_fs(path: Path) -> str:
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) > 2 and str(path).startswith(parts[1]) and len(parts[1]) > len(best):
                    best, fstype = parts[1], parts[2]
    except OSError:
        pass
    return fstype


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _machine(tmp: Path) -> dict:
    import numpy
    import yaml

    return {
        "output_dir": str(tmp.relative_to(ROOT)),
        "output_fs": _mount_fs(tmp),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
    }


def _end_to_end(workload: str, main: dict, setups: list) -> dict:
    ops = [o for o in main["ops"] if not o["traced"]]
    lat = sorted(o["lat_s"] for o in ops)
    busy = sum(lat)
    tail, beyond = _percentile(lat, TAIL_PCT[workload])
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / busy,
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail,
        "peak_rss_mb": main["peak_rss_bytes"] / 1e6,
        "jobs_per_s": sum(o["jobs"] for o in ops) / busy,
        "_tail_beyond": beyond,
        "_n": len(lat),
    }


def _share(ops, key):
    total = sum(sum(o["props"].get(s, 0) for s in ("feasible", "unconstrained", "infeasible"))
                for o in ops)
    return sum(o["props"].get(key, 0) for o in ops) / total if total else 0.0


def _per_layer(main: dict) -> dict:
    traced = [o for o in main["ops"] if o["traced"]]
    untraced = [o for o in main["ops"] if not o["traced"]]
    n = len(traced)
    t = main["trace"]

    def calls(name):
        return t.get(name, {}).get("calls", 0) / n

    def self_ms(*names):
        return 1e3 * sum(t.get(name, {}).get("self_s", 0.0) for name in names) / n

    rt = t.get("reliability.rate_threshold", {})
    sim_names = ("simulator.simulate_system", "simulator.simulate_user")
    jobs_traced = sum(o["jobs"] for o in traced)
    m = {
        "reliability.rate_threshold.calls_per_op": calls("reliability.rate_threshold"),
        "reliability.rate_threshold.raised_per_op": rt.get("raised", 0) / n,
        "reliability.rate_threshold.useful_ratio":
            rt["finite"] / rt["calls"] if rt.get("calls") else 0.0,
        "reliability.rate_threshold.self_ms_per_op": self_ms("reliability.rate_threshold"),
        "reliability.rate_threshold_oracle.calls_per_op":
            calls("reliability.rate_threshold_oracle"),
        "reliability.rate_threshold_oracle.self_ms_per_op":
            self_ms("reliability.rate_threshold_oracle"),
        "reliability.system_reliability.calls_per_op": calls("reliability.system_reliability"),
        "reliability.fallback_warnings_per_op": sum(o["fallbacks"] for o in traced) / n,
        "numerics.minimize_scalar.calls_per_op": calls("numerics.minimize_scalar"),
        "numerics.minimize_scalar.self_ms_per_op": self_ms("numerics.minimize_scalar"),
        "numerics.lambert_w.w0.calls_per_op": calls("numerics.lambert_w.w0"),
        "numerics.lambert_w.wm1.calls_per_op": calls("numerics.lambert_w.wm1"),
        "numerics.lambert_w.self_ms_per_op":
            self_ms("numerics.lambert_w.w0", "numerics.lambert_w.wm1"),
        "numerics.lambert_w_log_lower.calls_per_op": calls("numerics.lambert_w_log_lower"),
        "optimizer.plan.calls_per_op": calls("optimizer.plan"),
        "optimizer.plan.self_ms_per_op": self_ms("optimizer.plan"),
        "optimizer.minimize_rate_threshold.calls_per_op":
            calls("optimizer.minimize_rate_threshold"),
        "optimizer.minimize_rate_threshold.self_ms_per_op":
            self_ms("optimizer.minimize_rate_threshold"),
        "optimizer.assign_frequencies.self_ms_per_op": self_ms("optimizer.assign_frequencies"),
        "optimizer.brute_force_assignment.calls_per_op":
            calls("optimizer.brute_force_assignment"),
        "optimizer.brute_force_assignment.self_ms_per_op":
            self_ms("optimizer.brute_force_assignment"),
        "channel.achievable_distance.calls_per_op": calls("channel.achievable_distance"),
        "channel.achievable_distance.self_ms_per_op": self_ms("channel.achievable_distance"),
        "channel.data_rate.calls_per_op": calls("channel.data_rate"),
        "channel.supermodularity_gap.calls_per_op": calls("channel.supermodularity_gap"),
        "scenario_io.load_scenario.self_ms_per_op": self_ms("scenario_io.load_scenario"),
        "scenario_io.file_sha256.self_ms_per_op": self_ms("scenario_io.file_sha256"),
        "cli.main.self_ms_per_op": self_ms("cli.main"),
        "cli.verify.checks_ok_per_op": sum(o["props"].get("checks_ok", 0) for o in traced) / n,
        "cli.verify.checks_skipped_per_op":
            sum(o["props"].get("checks_skipped", 0) for o in traced) / n,
        "simulator.self_ms_per_op": self_ms(*sim_names),
        "simulator.ns_per_job": (
            1e9 * sum(t.get(s, {}).get("self_s", 0.0) for s in sim_names) / jobs_traced
            if jobs_traced else 0.0
        ),
        "simulator.rss_bytes_per_job": (
            main["warmup_rss_growth_bytes"] / main["warmup_jobs"] if main["warmup_jobs"] else 0.0
        ),
        "simulator.own_band_miss_rows_per_op":
            sum(o["props"].get("own_band_misses", 0) for o in traced) / n,
        "simulator.jobs_per_s": (
            sum(o["jobs"] for o in untraced) / sum(o["lat_s"] for o in untraced)
        ),
        "workload.sim_redraws_per_op": sum(o["redraws"] for o in traced) / n,
        "trace.overhead": (
            statistics.median(o["lat_s"] for o in traced)
            / statistics.median(o["lat_s"] for o in untraced)
        ),
    }
    for status in ("feasible", "interior", "unconstrained", "infeasible"):
        m[f"optimizer.status_share.{status}"] = _share(traced, status)
    for k in range(1, 11):
        m[f"workload.k_share.{k}"] = sum(1 for o in traced if o["k"] == k) / n
    return m


def _properties(ops) -> dict:
    hist = {}
    for o in ops:
        hist[o["k"]] = hist.get(o["k"], 0) + 1
    statuses = {s: _share(ops, s) for s in ("feasible", "interior", "unconstrained", "infeasible")}
    return {
        "k_histogram": dict(sorted(hist.items())),
        "plan_status_share": statuses if any(statuses.values()) else "n/a",
        "sim_redraws": sum(o["redraws"] for o in ops),
        "verify_checks_ok": sum(o["props"].get("checks_ok", 0) for o in ops),
        "verify_checks_skipped": sum(o["props"].get("checks_skipped", 0) for o in ops),
        "sim_own_band_miss_rows": sum(o["props"].get("own_band_misses", 0) for o in ops),
        "fallback_warnings": sum(o["fallbacks"] for o in ops),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (SRC / "thzplanner" / "cli.py").is_file():
        return _fail(f"no thzplanner sources under {SRC}; run from a source checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import thzplanner

    if Path(thzplanner.__file__).resolve().parent != (SRC / "thzplanner").resolve():
        return _fail(f"thzplanner resolved to {thzplanner.__file__}, not the checkout")
    import gen
    from workload import feasible

    tmp = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        warm = tmp / "warmup.yaml"
        warm.write_text(gen.make(args.workload, args.seed, "warmup", feasible)[1],
                        encoding="utf-8")
        common = ["--workload", args.workload, "--seed", str(args.seed), "--root", str(ROOT),
                  "--warmup-scenario", str(warm)]
        results = []
        for i in range(SETUP_SAMPLES - 1):
            (tmp / f"setup{i}").mkdir()
            results.append(_child(common + ["--seconds", "0", "--setup-only",
                                            "--tmp", str(tmp / f"setup{i}")], deadline))
        (tmp / "main").mkdir()
        main_argv = common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                              "--tmp", str(tmp / "main")]
        if args.trace:
            main_argv += ["--spans", str(WORK / f"spans-{args.workload}.jsonl")]
        main_run = _child(main_argv, deadline, tmp / "ops.jsonl")
        results.append(main_run)
        machine = _machine(tmp / "main")
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    fail_msgs = [f"warm-up: {m}" for r in results for m in r["warmup_fails"]]
    fail_msgs += [f"op {i}: {m}" for i, o in enumerate(main_run["ops"]) for m in o["fails"]]
    attempted = len(results) + len(main_run["ops"])
    failed = sum(1 for r in results if r["warmup_fails"]) + sum(
        1 for o in main_run["ops"] if o["fails"])

    e2e = _end_to_end(args.workload, main_run, [r["setup_s"] for r in results])
    values = dict(e2e)
    if args.trace:
        values.update(_per_layer(main_run))
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]

    print(f"workload {args.workload} ({WORKLOADS[args.workload]}), seed {args.seed}, "
          f"trace {args.trace}: closed loop, 1 client, {e2e['_n']} untraced ops")
    print(f"  {'setup_s':<14}{e2e['setup_s']:.6g} s  (median of {len(results)} fresh processes; "
          f"import alone {statistics.median(r['import_s'] for r in results):.4g} s)")
    print(f"  {'ops_per_s':<14}{e2e['ops_per_s']:.6g} 1/s")
    print(f"  {'op_p50_ms':<14}{e2e['op_p50_ms']:.6g} ms")
    few = "" if e2e["_tail_beyond"] >= 10 else "; fewer than ten, the tail is coarse"
    print(f"  {'op_tail_ms':<14}{e2e['op_tail_ms']:.6g} ms  (p{TAIL_PCT[args.workload]:g}, "
          f"{e2e['_tail_beyond']} of {e2e['_n']} ops beyond{few})")
    if e2e["jobs_per_s"]:
        print(f"  {'jobs_per_s':<14}{e2e['jobs_per_s']:.6g} 1/s")
    else:
        print(f"  {'jobs_per_s':<14}n/a (no simulated jobs)")
    print(f"  {'peak_rss_mb':<14}{e2e['peak_rss_mb']:.6g} MB")
    print(f"  {'fail_ratio':<14}{failed / attempted:.6g}  ({failed} failed / {attempted} "
          "attempted, warm-ups included)")
    props = _properties([o for o in main_run["ops"] if o["traced"] == bool(args.trace)])
    print(f"  properties: {json.dumps(props)}")
    print(f"  machine: {json.dumps(machine)}")
    if args.trace:
        print(f"  trace: {main_run['spans_kept']} spans kept, {main_run['spans_dropped']} "
              f"past the cap, written to {WORK.name}/spans-{args.workload}.jsonl")
        (ok_in, ok_out), (raised_in, raised_out) = main_run["trace_costs_s"]
        print(f"  trace: wrapper cost per call, inside + outside the span, removed from self "
              f"time: {1e9 * ok_in:.0f} + {1e9 * ok_out:.0f} ns returning, "
              f"{1e9 * raised_in:.0f} + {1e9 * raised_out:.0f} ns raising")
        for m in spec["per_layer"]:
            print(f"  {m['name']:<52}{values[m['name']]:.6g} {m['unit']}")
    for msg in fail_msgs[:MAX_FAIL_MESSAGES]:
        print(f"  FAIL {msg}")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
