"""Self-checks of the benchmark's generator and tracer.

    python3 bench/selfcheck.py

1. The generator gives byte-identical YAML for the same (workload, seed,
   index), different YAML for different indices, and YAML that parses back
   to exactly the drawn numbers.
2. The tracer fails loudly when a traced function is bound in fewer or
   more modules than it expects, and leaves no wrapper behind.
3. Calibration: one traced ``plan`` op on ``scenarios/reference_k10.yaml``
   must count exactly CALIBRATION_CALLS ``rate_threshold`` calls, of which
   CALIBRATION_RAISED raise.  These are the counts of the planner's dense
   1,024-point share search (plus golden-section refinement) over ten
   users; a planner change that alters how often the closed form is
   evaluated moves them, and the expected values then change with it in a
   benchmark change of its own.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ.pop("THZ_PLANNER_THREADS", None)  # the tracer's span stack is single-threaded

import yaml  # noqa: E402

import gen  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import thzplanner.cli as cli  # noqa: E402
from workload import feasible  # noqa: E402

CALIBRATION_SCENARIO = ROOT / "scenarios" / "reference_k10.yaml"
CALIBRATION_CALLS = 10_506
CALIBRATION_RAISED = 8_370


def check_generator() -> list:
    problems = []
    for kind in ("plan", "verify", "sim"):
        for seed in (0, 1, 7):
            texts = []
            for index in ("warmup", 0, 1, 2):
                data, text, _ = gen.make(kind, seed, index, feasible)
                if gen.make(kind, seed, index, feasible)[1] != text:
                    problems.append(f"{kind} seed {seed} index {index}: not byte-identical")
                if yaml.safe_load(text) != data:
                    problems.append(f"{kind} seed {seed} index {index}: YAML does not round-trip")
                texts.append(text)
            if len(set(texts)) != len(texts):
                problems.append(f"{kind} seed {seed}: repeated scenario among indices")
    return problems


def check_tracer_drift() -> list:
    import thzplanner.cli
    import thzplanner.presets
    import thzplanner.reliability

    problems = []
    extra = thzplanner.reliability.rate_threshold
    thzplanner.presets.rate_threshold = extra  # a binding the tracer does not know
    try:
        tracer_mod.Tracer().install()
        problems.append("install accepted an unexpected binding")
    except tracer_mod.TraceBindingError:
        pass
    finally:
        del thzplanner.presets.rate_threshold
    saved = thzplanner.cli.data_rate
    del thzplanner.cli.data_rate  # a binding the tracer expects has gone
    try:
        tracer_mod.Tracer().install()
        problems.append("install accepted a missing binding")
    except tracer_mod.TraceBindingError:
        pass
    finally:
        thzplanner.cli.data_rate = saved
    try:
        tracer_mod.assert_untraced()
    except tracer_mod.TraceBindingError as exc:
        problems.append(f"a failed install left a wrapper behind: {exc}")
    return problems


def check_calibration() -> list:
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        work = ROOT / ".bench_work"
        work.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            tr.op = 0
            rc = cli.main(["plan", str(CALIBRATION_SCENARIO), "-o", os.path.join(tmp, "p.csv")])
            tr.op = None
    finally:
        tr.uninstall()
    tracer_mod.assert_untraced()
    stat = tr.totals()["reliability.rate_threshold"]
    print(f"calibration: plan {CALIBRATION_SCENARIO.name} exit {rc}: rate_threshold "
          f"{stat['calls']} calls, {stat['raised']} raised")
    if (rc, stat["calls"], stat["raised"]) != (0, CALIBRATION_CALLS, CALIBRATION_RAISED):
        return [f"calibration expected exit 0, {CALIBRATION_CALLS} calls and "
                f"{CALIBRATION_RAISED} raised"]
    return []


def main() -> int:
    problems = check_generator() + check_tracer_drift() + check_calibration()
    for p in problems:
        print(f"FAIL {p}")
    print("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
