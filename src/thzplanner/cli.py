"""Command-line front end: plan, sweep, simulate, verify.

Exit codes are part of the contract:
    0  success
    1  invalid input (scenario errors, bad axis or flag values)
    2  infeasible or unstable plan
    3  simulation finished but some user fell outside the 3-sigma band
    4  verification found a property violation

Every CSV starts with a comment line recording the tool version, the
scenario file hash, and the seed (or "none" for deterministic outputs);
numbers carry 12 significant digits, line endings are plain newlines.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from typing import List, Optional, Sequence, Tuple

from . import __version__
from .channel import achievable_distance, data_rate, distance_matrix
from .channel import supermodularity_gap  # unused; bench/tracer.py TRACED expects cli to bind it
from .optimizer import (
    INFEASIBLE,
    FEASIBLE,
    Plan,
    Scenario,
    apply_axis,
    brute_force_assignment,  # unused; bench/tracer.py TRACED expects cli to bind it
    plan,
)
from .reliability import (
    InfeasibleError,
    StabilityError,
    ceiling_margin,
    min_stable_share,
    rate_threshold,
    rate_threshold_oracle,
)
from .scenario_io import file_sha256, load_scenario
from .simulator import (
    ISOLATED,
    SHARED_EDGE,
    SimConfig,
    SimUserReport,
    simulate_system,
    simulate_user,  # unused; bench/tracer.py TRACED expects cli to bind it
)

_EXIT_OK = 0
_EXIT_INPUT = 1
_EXIT_INFEASIBLE = 2
_EXIT_DISCREPANCY = 3
_EXIT_VERIFY = 4


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_csv(path: str, scenario_path: str, seed, header: Sequence[str],
               rows: Sequence[Sequence]) -> None:
    meta = "# thzplanner {} scenario_sha256={} seed={}".format(
        __version__, file_sha256(scenario_path), "none" if seed is None else seed
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(meta + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit 1, matching the contract."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(_EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="thzplanner",
        description="THz coverage planning with edge offloading",
    )
    parser.add_argument("--version", action="version", version=f"thzplanner {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="plan offloading shares, carriers, and coverage")
    p.add_argument("scenario", help="scenario YAML file")
    p.add_argument("-o", "--output", required=True, help="output CSV path")
    p.add_argument(
        "--beta-one",
        action="store_true",
        help="force full offloading (no local compute baseline)",
    )
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("sweep", help="re-plan while sweeping one scenario quantity")
    p.add_argument("scenario", help="scenario YAML file")
    p.add_argument("--axis", required=True,
                   help="swept quantity: f_m, epsilon, theta_th, or f_l "
                        "(long forms f_m_cycles_per_s etc. also accepted)")
    p.add_argument("--values", required=True,
                   help="comma-separated numeric values for the axis")
    p.add_argument("-o", "--output", required=True, help="output CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="Monte-Carlo check of the planned reliabilities")
    p.add_argument("scenario", help="scenario YAML file")
    p.add_argument("--mode", choices=("isolated", "shared-edge"), default="isolated",
                   help="edge queue discipline (default isolated)")
    p.add_argument("--jobs", type=int, default=1_000_000,
                   help="jobs per user (default 1000000)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--warmup", type=int, default=None,
                   help="jobs discarded per user (default min(10000, jobs/10))")
    p.add_argument(
        "--beta-one",
        action="store_true",
        help="replay the planned rates with offloading forced to 1",
    )
    p.add_argument("-o", "--output", required=True, help="output CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="self-check closed forms against oracles")
    p.add_argument("scenario", help="scenario YAML file")
    p.set_defaults(func=cmd_verify)
    return parser


def _plan_rows(p: Plan) -> List[Sequence]:
    rows: List[Sequence] = [
        (row.user_id, row.beta, row.rate_bps, row.freq_ghz, row.distance_m, row.status)
        for row in p.users
    ]
    rows.append(
        (
            "total",
            "",
            "",
            "",
            p.total_distance_m,
            "edge_stable" if p.edge_stable else "edge_unstable",
        )
    )
    return rows


def cmd_plan(args) -> int:
    scenario = load_scenario(args.scenario)
    result = plan(scenario, force_offload_all=args.beta_one)
    _write_csv(
        args.output,
        args.scenario,
        None,
        ("user_id", "beta", "rate_bps", "freq_ghz", "distance_m", "status"),
        _plan_rows(result),
    )
    for note in result.warnings:
        print(f"warning: {note}", file=sys.stderr)
    print(
        "planned {} users: total coverage {} m, edge {}".format(
            len(result.users),
            _fmt(result.total_distance_m),
            "stable" if result.edge_stable else "UNSTABLE",
        )
    )
    if any(row.status == INFEASIBLE for row in result.users):
        return _EXIT_INFEASIBLE
    return _EXIT_OK


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError:
        print(f"error: --values must be comma-separated numbers: {args.values!r}",
              file=sys.stderr)
        return _EXIT_INPUT
    if not values:
        print("error: --values is empty", file=sys.stderr)
        return _EXIT_INPUT
    if not all(math.isfinite(v) for v in values):
        print(f"error: --values must be finite numbers: {args.values!r}", file=sys.stderr)
        return _EXIT_INPUT
    try:
        cases = [apply_axis(scenario, args.axis, v) for v in values]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT

    plans = [plan(c) for c in cases]
    rows = []
    for value, result in zip(values, plans):
        n_bad = sum(1 for row in result.users if row.status == INFEASIBLE)
        rows.append((value, result.total_distance_m, n_bad))
    _write_csv(
        args.output,
        args.scenario,
        None,
        ("axis_value", "d_star_m", "n_infeasible"),
        rows,
    )
    print(f"swept {args.axis} over {len(values)} values")
    return _EXIT_OK


def _sim_row_csv(row: SimUserReport, mode: str) -> Sequence:
    return (
        row.user_id,
        row.analytic,
        row.empirical,
        row.ci_radius,
        row.delta,
        mode,
    )


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    mode = ISOLATED if args.mode == "isolated" else SHARED_EDGE
    warmup = args.warmup
    if warmup is None:
        warmup = min(10_000, max(1, args.jobs // 10))
    try:
        cfg = SimConfig(n_jobs=args.jobs, warmup=warmup, seed=args.seed, mode=mode)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT

    result = plan(scenario)
    pairs = [
        (1.0, row.rate_bps) if args.beta_one else (row.beta, row.rate_bps)
        for row in result.users
    ]
    report = simulate_system(result, scenario, cfg, overrides=pairs)
    for note in report.warnings:
        print(f"warning: {note}", file=sys.stderr)
    rows = [_sim_row_csv(rep, mode) for rep in report.users]
    all_ok = report.all_within_ci

    _write_csv(
        args.output,
        args.scenario,
        args.seed,
        ("user_id", "analytic_phi", "empirical_phi", "ci_radius", "delta", "mode"),
        rows,
    )
    n = len(rows)
    print(f"simulated {n} users, mode {mode}: "
          + ("all within 3-sigma" if all_ok else "DISCREPANCY (see CSV)"))
    return _EXIT_OK if all_ok else _EXIT_DISCREPANCY


def _verify_thresholds(scenario: Scenario, lines: List[str]) -> int:
    """Closed-form thresholds vs bisection on a beta grid; returns #failures.

    Shares where ceiling_margin is not positive are skipped and counted: no
    rate meets the target there, and rate_threshold would only raise.
    """
    failures = 0
    checked = 0
    skipped = 0
    task, edge, qos = scenario.task, scenario.edge, scenario.qos
    for k, user in enumerate(scenario.users):
        beta_lo = min_stable_share(user, task)
        worst = 0.0
        for j in range(1, 22):
            beta = beta_lo + (1.0 - beta_lo) * j / 21.0
            if ceiling_margin(user, task, edge, qos, beta) <= 0.0:
                skipped += 1
                continue
            closed = rate_threshold(user, task, edge, qos, beta)
            try:
                oracle = rate_threshold_oracle(user, task, edge, qos, beta)
            except InfeasibleError:
                continue  # the oracle gives up above 1e15 bit/s
            if not (math.isfinite(closed) and math.isfinite(oracle)):
                continue
            checked += 1
            worst = max(worst, abs(closed - oracle) / oracle)
        if worst > 1e-6:
            failures += 1
            lines.append(
                f"FAIL rate thresholds: user {k} disagrees with bisection by {worst:.3e}"
            )
    if failures == 0:
        lines.append(
            f"ok   rate thresholds match bisection oracle (1e-6 rel, {checked} points;"
            f" {skipped} shares skipped, no rate meets the target there)"
        )
    return failures


def _verify_round_trip(scenario: Scenario, lines: List[str]) -> int:
    worst = 0.0
    checked = 0
    rates = [10.0 ** decade for decade in range(6, 13)]
    matrix = distance_matrix(scenario.fit, scenario.radio, scenario.grid.freqs_ghz, rates)
    for rate, row in zip(rates, matrix):
        for f, d in zip(scenario.grid.freqs_ghz, row):
            if not math.isfinite(d) or d <= 0.0:
                continue
            back = data_rate(scenario.fit, scenario.radio, f, d)
            worst = max(worst, abs(back - rate) / rate)
            checked += 1
    if worst > 1e-9:
        lines.append(f"FAIL distance round-trip: worst relative error {worst:.3e}")
        return 1
    lines.append(
        f"ok   distance/rate round-trip within 1e-9 rel ({checked} points, worst {worst:.1e})"
    )
    return 0


def _verify_assignment(scenario: Scenario, result: Plan, lines: List[str]) -> int:
    """The plan's own solve meets min_cost_assignment's duality certificate to
    1e-12 of the largest cost, and the reported carriers, recomputed with
    achievable_distance, give its total within 1e-9 rel; returns #failures."""
    rows = [row for row in result.users if row.status == FEASIBLE]
    if not rows:
        lines.append("note assignment check skipped: no rate-constrained users")
        return 0
    cost, cols, u, v = result.assignment
    tol = 1e-12 * max(abs(c) for row in cost for c in row)
    miss = max(
        max(u[i] + v[j] - c for i, row in enumerate(cost) for j, c in enumerate(row)),
        max(abs(u[i] + v[j] - cost[i][j]) for i, j in enumerate(cols)),
        max(x if j in cols else abs(x) for j, x in enumerate(v)),
    )
    optimum = -sum(cost[i][j] for i, j in enumerate(cols))
    planned_total = sum(
        achievable_distance(scenario.fit, scenario.radio, row.freq_ghz, row.rate_bps)
        for row in rows
    )
    gap = abs(planned_total - optimum) / max(optimum, 1e-300)
    fails = []
    if miss > tol:
        fails.append(f"FAIL assignment potentials miss the optimality certificate by {miss:.3e} m")
    if gap > 1e-9:
        fails.append(f"FAIL planned assignment differs from the exact optimum by {gap:.3e} rel")
    ok = f"ok   planned assignment matches the exact optimum ({len(rows)} users)"
    lines.extend(fails or [ok])
    return len(fails)


def _verify_supermodularity(scenario: Scenario, result: Plan, lines: List[str]) -> Optional[float]:
    """Report and return the smallest supermodularity_gap over adjacent
    carriers: the same sums, on the plan's rows of its lowest and highest rate.

    Informational only: positive differences make sorted matching optimal on
    this grid, but the plan solves the assignment exactly either way.
    """
    freqs = scenario.grid.freqs_ghz
    if len(freqs) < 2:
        lines.append("note supermodularity check skipped: single-carrier grid")
        return
    rates = sorted(row.rate_bps for row in result.users if row.status == FEASIBLE)
    if len(rates) >= 2 and rates[0] != rates[-1]:
        # the solve's cost rows are negated distances by ascending rate
        lo, hi = [[-c for c in result.assignment[0][i]] for i in (0, -1)]
    else:
        # equal rates make every mixed difference exactly zero: a representative pair
        lo, hi = distance_matrix(scenario.fit, scenario.radio, freqs, [1.0e8, 1.0e9])
    worst, f_lo, f_hi = min(
        (hi[j + 1] + lo[j] - hi[j] - lo[j + 1], freqs[j], freqs[j + 1])
        for j in range(len(freqs) - 1)
    )
    if worst <= 0.0:
        lines.append(
            f"note mixed difference {worst:.3e} m on carriers {f_lo:g}-{f_hi:g} GHz: "
            "sorted matching is not guaranteed optimal here; the plan uses the "
            "exact assignment"
        )
    else:
        lines.append(
            f"ok   mixed differences positive on {len(freqs) - 1} adjacent carrier pairs"
        )
    return worst


def cmd_verify(args) -> int:
    scenario = load_scenario(args.scenario)
    lines: List[str] = []
    failures = 0

    failures += _verify_thresholds(scenario, lines)
    failures += _verify_round_trip(scenario, lines)

    result = plan(scenario)
    repeat = plan(scenario)
    if result == repeat:
        lines.append("ok   planning is deterministic (identical repeat run)")
    else:
        lines.append("FAIL planning is not deterministic across repeat runs")
        failures += 1

    failures += _verify_assignment(scenario, result, lines)
    _verify_supermodularity(scenario, result, lines)

    for line in lines:
        print(line)
    if failures:
        print(f"verification FAILED: {failures} check(s)")
        return _EXIT_VERIFY
    print("verification passed")
    return _EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InfeasibleError, StabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:  # ScenarioFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
