"""Seeded scenario generators for the benchmark workloads.

Scenario ``index`` of workload ``w`` under seed ``s`` draws from its own
``random.Random`` keyed by the string ``"w:s:index"`` (string seeds hash
through SHA-512, so the draw does not depend on ``PYTHONHASHSEED``).  The
same (workload, seed, index) therefore always yields byte-identical YAML,
and every op of a run gets a scenario of its own.

The scenario-level quantities (K, target, delay budget, edge CPU) of op
``index`` follow a low-discrepancy sequence that is the same for every
seed; the seed draws the carrier grids and the users, whose load and
local CPU are stratified across each scenario's users.  Every run
therefore covers the ranges evenly, and the mix of cheap and costly ops,
which sets the latency percentiles, varies little from seed to seed.

Every number is a float, which ``yaml.safe_dump`` writes in the form YAML
1.1 reads back as a float (decimal point, signed exponent).
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Optional, Tuple

import yaml

# Task and radio of the shipped reference scenario; the generators vary
# the quantities the planner's work depends on (K, grid, target, budget,
# edge CPU, per-user load) and keep the link budget fixed.
TASK = {"L_a_bits": 8.0e6, "mu_a_cycles": 1.0e7}
RADIO = {"B_hz": 1.0e10, "p_w": 0.1, "gt_dbi": 20.0, "gr_dbi": 20.0, "noise_dbm": -40.0}
# unconstrained users report this distance instead of infinity
MAX_DISTANCE_M = 1000.0

FREQ_LO_GHZ, FREQ_HI_GHZ = 100, 210
MAX_SIM_DRAWS = 1000


def _sig(x: float, digits: int = 4) -> float:
    return float(f"{x:.{digits}g}")


# K visits CYCLE evenly spaced points in an order that strides across the
# range (CYCLE is a multiple of every K-range size used below, STRIDE is
# coprime to it); the other quantities step by irrational rotations
# (fractional parts of the golden ratio, sqrt 2 and sqrt 3)
CYCLE, STRIDE = 40, 11
_STEPS = (0.6180339887498949, 0.41421356237309515, 0.7320508075688772)


def _sequence(workload: str, index: int) -> Tuple[float, ...]:
    """Four uniforms for op ``index``: a point of a low-discrepancy sequence."""
    shift = random.Random(f"{workload}:shift")
    u_k = ((index * STRIDE + shift.randrange(CYCLE)) % CYCLE + 0.5) / CYCLE
    return (u_k,) + tuple((shift.random() + (index + 1) * step) % 1.0 for step in _STEPS)


def _strata(rng: random.Random, k: int, lo: float, hi: float) -> List[float]:
    """One uniform draw from each of k equal strata of [lo, hi], shuffled."""
    order = rng.sample(range(k), k)
    return [_sig(lo + (j + rng.random()) / k * (hi - lo)) for j in order]


def _draw(rng: random.Random, u: Tuple[float, ...], r: Dict) -> Dict:
    """One scenario of range set ``r``.

    ``u`` places K, the target, the delay budget and the edge CPU in their
    ranges; per-user load and local CPU are stratified across the users,
    so every scenario spans both ranges.
    """
    u_k, u_miss, u_eps, u_edge = u
    k_lo, k_hi = r["k"]
    k = k_lo + min(int(u_k * (k_hi - k_lo + 1)), k_hi - k_lo)
    n_carriers = rng.randint(max(r["carriers"][0], k), r["carriers"][1])
    freqs = sorted(
        float(f) for f in rng.sample(range(FREQ_LO_GHZ, FREQ_HI_GHZ + 1), n_carriers)
    )
    miss_lo, miss_hi = (math.log(x) for x in r["miss"])
    miss = _sig(math.exp(miss_lo + u_miss * (miss_hi - miss_lo)))  # 1 - theta
    lams = _strata(rng, k, 2.0, 25.0)
    cpus = _strata(rng, k, *r["f_l"])
    edge_lo, edge_hi = r["edge"]
    return {
        "task": dict(TASK),
        "radio": dict(RADIO),
        "edge": {"f_m_cycles_per_s": _sig(edge_lo + u_edge * (edge_hi - edge_lo))},
        "qos": {"epsilon_s": _sig(0.020 + u_eps * 0.080), "theta_th": 1.0 - miss},
        "grid": {"freqs_ghz": freqs},
        "users": [
            {"lambda_jobs_per_s": lam, "f_l_cycles_per_s": cpu} for lam, cpu in zip(lams, cpus)
        ],
        "caps": {"max_distance_m": MAX_DISTANCE_M},
    }


# Ranges per workload: K, carriers on the grid, 1 - theta (log-uniform),
# local CPU and edge CPU in cycles/s.
RANGES = {
    # every path of the share search: full offload, interior, unconstrained
    # and infeasible users
    "plan": {"k": (1, 10), "carriers": (10, 12), "miss": (1e-7, 3e-2),
             "f_l": (2.0e8, 2.0e9), "edge": (2.0e9, 3.0e10)},
    # slow local CPUs, strict targets and a fast edge make every user need
    # the link (no local CPU here meets 1 - 1e-4 within 100 ms, and the edge
    # ceiling stays above 1 - 1e-7), so the brute-force size is set by K
    # alone: 12 carriers restrict it to the K lowest, K! permutations, and
    # K=10 skips it.  Without this, whether a user is constrained decides
    # between thousands and two million permutations, and a handful of ops
    # would take half the run.
    "verify": {"k": (7, 10), "carriers": (12, 12), "miss": (1e-7, 1e-4),
               "f_l": (2.0e8, 8.0e8), "edge": (1.0e10, 3.0e10)},
    # the edge queue keeps ample headroom at 10 GHz and above
    "sim": {"k": (10, 10), "carriers": (10, 12), "miss": (1e-5, 3e-2),
            "f_l": (2.0e8, 2.0e9), "edge": (1.0e10, 3.0e10)},
}


def sim_scenario(
    rng: random.Random, u: Tuple[float, ...], feasible: Callable[[Dict], bool]
) -> Tuple[Dict, int]:
    """Simulate scenario at sequence point ``u``, redrawn while infeasible.

    ``simulate`` refuses infeasible plans by contract, so a candidate whose
    plan has an infeasible user is drawn again, independently.  Returns the
    scenario and the number of redraws it took.
    """
    for redraws in range(MAX_SIM_DRAWS):
        data = _draw(rng, u, RANGES["sim"])
        if feasible(data):
            return data, redraws
        u = tuple(rng.random() for _ in range(4))
    raise RuntimeError(f"no feasible simulate scenario in {MAX_SIM_DRAWS} draws")


def make(
    workload: str,
    seed: int,
    index,
    feasible: Optional[Callable[[Dict], bool]] = None,
) -> Tuple[Dict, str, int]:
    """(mapping, YAML text, redraws) of scenario ``index`` ("warmup" or an int).

    ``workload`` is "plan", "verify" or a simulate workload ("sim_..."), which
    all share the "sim" scenarios.  The warm-up scenario does not depend on
    the seed, so set-up times compare across seeds.
    """
    if workload.startswith("sim"):
        workload = "sim"
    if index == "warmup":
        rng = random.Random(f"{workload}:warmup")
        u = tuple(rng.random() for _ in range(4))
    else:
        rng = random.Random(f"{workload}:{seed}:{index}")
        u = _sequence(workload, index)
    redraws = 0
    if workload == "sim":
        if feasible is None:
            raise ValueError("simulate scenarios need a feasibility test")
        data, redraws = sim_scenario(rng, u, feasible)
    else:
        data = _draw(rng, u, RANGES[workload])
    return data, yaml.safe_dump(data, sort_keys=False), redraws
