"""Monte-Carlo validation of the analytic reliability model.

Replays queues event by event and compares the empirical within-budget
fraction against the closed forms, first for a bare M/M/1 queue, then for
planned users against private and shared edge queues.
Run with: python3 demos/simulation_check.py
"""

import math

import thzplanner as tp


def main() -> None:
    print("=== M/M/1 sanity: sojourn tail has rate mu - lambda ===")
    lam, mu, eps = 50.0, 100.0, 0.08
    cfg = tp.SimConfig(n_jobs=400_000, warmup=4_000, seed=0)
    # a user that offloads nothing is a bare M/M/1 queue: one-cycle jobs
    # on a CPU of mu cycles/s
    emp = tp.simulate_user(
        tp.UserProfile(arrival_rate=lam, local_cpu_hz=mu),
        tp.TaskProfile(mean_job_bits=1.0, mean_job_cycles=1.0),
        tp.EdgeProfile(cpu_hz=1.0), 0.0, 0.0,
        tp.QosTarget(delay_s=eps, min_reliability=0.5), cfg,
    ).empirical
    exact = -math.expm1(-(mu - lam) * eps)
    ci = 3.0 * math.sqrt(exact * (1.0 - exact) / (cfg.n_jobs - cfg.warmup))
    print(f"empirical {emp:.6f} vs exact {exact:.6f} "
          f"(|diff| {abs(emp - exact):.2e}, 3-sigma {ci:.2e})\n")

    print("=== one planned user vs its private tandem ===")
    sc = tp.single_user_scenario()
    p = tp.plan(sc)
    row = p.users[0]
    rep = tp.simulate_user(
        sc.users[0], sc.task, sc.edge, row.beta, row.rate_bps, sc.qos,
        tp.SimConfig(n_jobs=400_000, warmup=4_000, seed=11),
    )
    print(f"beta {row.beta:.4f}, rate {row.rate_bps:.5g} bit/s")
    print(f"analytic  {rep.analytic:.6f}")
    print(f"empirical {rep.empirical:.6f}  (+/- {rep.ci_radius:.2e}, "
          f"within band: {rep.within_ci})\n")

    print("=== full reference plan, each user on a private edge ===")
    ref = tp.reference_scenario()
    ref_plan = tp.plan(ref)
    iso = tp.simulate_system(
        ref_plan, ref, tp.SimConfig(n_jobs=60_000, warmup=600, seed=9)
    )
    print(f"{'user':>4}  {'analytic':>9}  {'empirical':>9}  {'late jobs':>9}  {'expected':>8}")
    for r in iso.users:
        late = round((1.0 - r.empirical) * r.n_effective)
        expect = (1.0 - r.analytic) * r.n_effective
        print(f"{r.user_id:4d}  {r.analytic:9.6f}  {r.empirical:9.6f}  "
              f"{late:9d}  {expect:8.2f}")
    print("At five nines a 59k-job run expects ~0.6 late jobs per user, so the")
    print("empirical column counts single Poisson events; actually resolving")
    print("the fifth nine would take on the order of 1e8 jobs.\n")

    print("=== shared edge queue: contention the analytic model ignores ===")
    # shrink the edge so ten users actually collide (load 0.56 vs 0.07)
    tight = tp.apply_axis(ref, "f_m", 2.5e9)
    tight_plan = tp.plan(tight)
    cfg = tp.SimConfig(n_jobs=60_000, warmup=600, seed=4, mode=tp.SHARED_EDGE)
    shared = tp.simulate_system(tight_plan, tight, cfg)
    mean_delta = sum(r.delta for r in shared.users) / len(shared.users)
    worst = min(shared.users, key=lambda r: r.delta)
    print(f"mean empirical - analytic over users: {mean_delta:+.2e}")
    print(f"worst user {worst.user_id}: {worst.delta:+.2e}")
    print("Sharing one queue can only hurt, so the per-user analytics are an")
    print("upper bound; the gap is the price of the independence assumption.")


if __name__ == "__main__":
    main()
