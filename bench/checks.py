"""Correctness checks on each op's output, run outside the timed region.

Each check returns a list of failure messages (empty when the op's output
is right) and the op's workload properties.  Known defects of the program
are counted, not failed: rows outside the simulator's own confidence band
(the band is zero-width when the empirical fraction is 1) and the
closed form's fallback warnings.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Dict, List, Tuple

from thzplanner.channel import data_rate
from thzplanner.reliability import (
    InfeasibleError,
    StabilityError,
    local_reliability,
    rate_threshold_oracle,
)
from thzplanner.scenario_io import scenario_from_dict

RATE_RTOL = 1e-6
ROUND_TRIP_RTOL = 1e-9
TOTAL_RTOL = 1e-9
# the beta-grid scan runs on every GRID_STRIDE-th user (rotating with the op)
GRID_STRIDE = 5
GRID_POINTS = 16
# simulate band: SIM_SIGMAS binomial sigmas around the analytic p.  Honest
# runs reach about 4.7 sigmas at 1e6 jobs because consecutive sojourns are
# correlated; the band is there to catch a broken queue recursion.
SIM_SIGMAS = 10.0

EXIT_OK, EXIT_INFEASIBLE, EXIT_DISCREPANCY = 0, 2, 3


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _csv_rows(text: str) -> Tuple[List[str], List[List[str]]]:
    lines = text.split("\n")
    if not lines[0].startswith("# thzplanner "):
        raise ValueError("missing provenance comment line")
    table = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    return table[0], table[1:]


def _oracle(user, task, edge, qos, beta: float) -> float:
    try:
        return rate_threshold_oracle(user, task, edge, qos, beta)
    except (InfeasibleError, StabilityError):
        return math.inf


def _grid_best(user, task, edge, qos) -> float:
    """Lowest oracle rate over a coarse grid of stable shares (inf if none)."""
    lam, mu_l = user.arrival_rate, user.local_service_rate(task)
    beta_lo = max(0.0, 1.0 - mu_l / lam)
    betas = [beta_lo + (1.0 - beta_lo) * j / GRID_POINTS for j in range(1, GRID_POINTS + 1)]
    return min(_oracle(user, task, edge, qos, b) for b in betas)


def check_plan(data: Dict, rc: int, text: str, op_index: int) -> Tuple[List[str], Dict]:
    fails: List[str] = []
    s = scenario_from_dict(data)
    task, edge, qos, users = s.task, s.edge, s.qos, s.users
    k = len(users)
    header, rows = _csv_rows(text)
    if header != ["user_id", "beta", "rate_bps", "freq_ghz", "distance_m", "status"]:
        return [f"unexpected header {header}"], {}
    if len(rows) != k + 1 or rows[-1][0] != "total":
        return [f"expected {k} user rows and a total row, got {len(rows)} rows"], {}
    user_rows = rows[:-1]
    if [r[0] for r in user_rows] != [str(i) for i in range(k)]:
        fails.append("user ids are not 0..K-1 in order")

    statuses = [r[5] for r in user_rows]
    has_infeasible = "infeasible" in statuses
    if not ((rc == EXIT_OK and not has_infeasible) or (rc == EXIT_INFEASIBLE and has_infeasible)):
        fails.append(f"exit code {rc} with infeasible rows: {has_infeasible}")

    grid = set(data["grid"]["freqs_ghz"])
    used = []
    total = 0.0
    props = {"feasible": 0, "interior": 0, "unconstrained": 0, "infeasible": 0}
    for uid, row in enumerate(user_rows):
        beta, rate, freq, dist = (float(x) for x in row[1:5])
        status = row[5]
        if status not in props:
            fails.append(f"user {uid}: unknown status {status!r}")
            continue
        props[status] += 1
        total += dist
        user = users[uid]
        if status == "infeasible":
            if not (math.isnan(freq) and dist == 0.0):
                fails.append(f"user {uid}: infeasible row has carrier {freq} or distance {dist}")
        else:
            used.append(freq)
            if freq not in grid:
                fails.append(f"user {uid}: carrier {freq} GHz is not on the grid")
        if status == "unconstrained":
            try:
                local_ok = local_reliability(user, task, 0.0, qos.delay_s) >= qos.min_reliability
            except StabilityError:
                local_ok = False
            if not local_ok:
                fails.append(f"user {uid}: unconstrained but local reliability misses the target")
            if dist != s.max_distance_m:
                fails.append(f"user {uid}: unconstrained distance {dist} is not the cap")
        if status == "feasible":
            if 0.0 < beta < 1.0:
                props["interior"] += 1
            oracle = _oracle(user, task, edge, qos, beta)
            if _rel(rate, oracle) > RATE_RTOL:
                fails.append(f"user {uid}: rate {rate:.12g} vs bisection oracle {oracle:.12g}")
            back = data_rate(s.fit, s.radio, freq, dist)
            if _rel(back, rate) > ROUND_TRIP_RTOL:
                fails.append(f"user {uid}: data_rate at the planned distance is {back:.12g}")
        if (op_index + uid) % GRID_STRIDE == 0 and status != "unconstrained":
            best = _grid_best(user, task, edge, qos)
            if status == "infeasible" and math.isfinite(best):
                fails.append(f"user {uid}: planned infeasible, beta grid finds rate {best:.6g}")
            if status == "feasible" and rate > best * (1.0 + RATE_RTOL):
                fails.append(f"user {uid}: rate {rate:.12g} worse than beta grid {best:.12g}")
    if len(set(used)) != len(used):
        fails.append(f"carriers are not distinct: {used}")
    planned_total = float(rows[-1][4])
    if abs(planned_total - total) > TOTAL_RTOL * max(abs(total), 1.0):
        fails.append(f"total {planned_total} is not the sum of distances {total}")
    return fails, props


def check_verify(rc: int, stdout: str) -> Tuple[List[str], Dict]:
    lines = stdout.strip().split("\n")
    props = {
        "checks_ok": sum(1 for ln in lines if ln.startswith("ok ")),
        "checks_skipped": sum(1 for ln in lines if ln.startswith("note ") and "skipped" in ln),
    }
    fails = []
    if rc != EXIT_OK or lines[-1] != "verification passed":
        fails.append(f"verify exited {rc}: {lines[-1]!r}")
    return fails, props


def check_simulate(
    data: Dict, rc: int, text: str, mode: str, n_jobs: int, warmup: int
) -> Tuple[List[str], Dict]:
    fails: List[str] = []
    k = len(data["users"])
    theta = data["qos"]["theta_th"]
    n_eff = n_jobs - warmup
    header, rows = _csv_rows(text)
    if header != ["user_id", "analytic_phi", "empirical_phi", "ci_radius", "delta", "mode"]:
        return [f"unexpected header {header}"], {}
    if [r[0] for r in rows] != [str(i) for i in range(k)]:
        return [f"expected user rows 0..{k - 1}, got {[r[0] for r in rows]}"], {}
    if rc not in (EXIT_OK, EXIT_DISCREPANCY):
        fails.append(f"exit code {rc}")
    own_misses = 0
    for uid, row in enumerate(rows):
        p, p_hat, ci, delta = (float(x) for x in row[1:5])
        if row[5] != mode:
            fails.append(f"user {uid}: mode {row[5]!r}")
        if not all(math.isfinite(x) for x in (p, p_hat, ci, delta)):
            fails.append(f"user {uid}: non-finite row {row}")
            continue
        if p < theta - 1e-9:
            fails.append(f"user {uid}: analytic {p:.12g} below target {theta:.12g}")
        # one-job allowance keeps the band nonzero where p rounds to 1
        band = SIM_SIGMAS * math.sqrt(p * (1.0 - p) / n_eff) + 1.0 / n_eff
        if abs(p_hat - p) > band:
            fails.append(f"user {uid}: empirical {p_hat:.9g} vs analytic {p:.9g} beyond {band:.3g}")
        if abs(delta) > ci:
            own_misses += 1
    if (rc == EXIT_DISCREPANCY) != (own_misses > 0):
        fails.append(f"exit code {rc} with {own_misses} rows outside the program's band")
    return fails, {"own_band_misses": own_misses}
