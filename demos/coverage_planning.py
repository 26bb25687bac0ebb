"""End-to-end coverage planning and parameter sweeps.

Plans the ten-user reference case, checks the sorted carrier matching
against exhaustive enumeration on a slice, and sweeps edge capacity and
the reliability target.  Run with: python3 demos/coverage_planning.py
"""

from dataclasses import replace

import thzplanner as tp


def show(p: tp.Plan) -> None:
    print(f"{'user':>4}  {'beta':>8}  {'rate (bit/s)':>12}  {'carrier':>8}  {'reach (m)':>10}  status")
    for row in p.users:
        print(f"{row.user_id:4d}  {row.beta:8.4f}  {row.rate_bps:12.5g}  "
              f"{row.freq_ghz:8.1f}  {row.distance_m:10.3f}  {row.status}")
    print(f"total coverage {p.total_distance_m:.3f} m, "
          f"edge {'stable' if p.edge_stable else 'UNSTABLE'}")
    for w in p.warnings:
        print(f"  warning: {w}")


def main() -> None:
    sc = tp.reference_scenario()
    print("=== optimized plan, ten users on 100-190 GHz ===")
    best = tp.plan(sc)
    show(best)
    print()

    print("=== same users forced to offload everything ===")
    forced = tp.plan(sc, force_offload_all=True)
    show(forced)
    gain = best.total_distance_m - forced.total_distance_m
    print(f"\noptimizing the share buys {gain:.3f} m "
          f"({100.0 * gain / forced.total_distance_m:.2f}% more coverage)\n")

    print("=== sorted matching vs brute force (6-user slice) ===")
    thresholds = [row.rate_bps for row in best.users[:6]]
    small_grid = tp.FrequencyGrid(freqs_ghz=sc.grid.freqs_ghz[:6])
    sorted_assign = tp.assign_frequencies(thresholds, small_grid)
    bf = tp.brute_force_assignment(thresholds, small_grid, sc.radio)
    print(f"sorted matching:  {sorted_assign}")
    print(f"exact optimum:    {bf.assignment}")
    print(f"identical: {sorted_assign == bf.assignment}; "
          f"worst ordering loses {bf.best_total_m - bf.worst_total_m:.3f} m\n")

    print("=== sweep: edge CPU speed ===")
    print(f"{'f_m (Hz)':>10}  {'total (m)':>10}  {'infeasible':>10}")
    for f_m in (1.0e9, 2.0e9, 5.0e9, 2.0e10, 1.0e11, 1.0e12):
        p = tp.plan(tp.apply_axis(sc, "f_m", f_m))
        bad = sum(1 for row in p.users if row.status == tp.INFEASIBLE)
        print(f"{f_m:10.3g}  {p.total_distance_m:10.3f}  {bad:10d}")
    print("A 1 GHz edge fails everyone outright (its 80 ms reliability ceiling")
    print("sits below five nines); past that, coverage saturates as 1/f_m.\n")

    print("=== sweep: reliability target (1 km site cap) ===")
    # relaxed targets free the fast-CPU users from the link entirely; the cap
    # keeps their reported coverage finite
    capped = replace(sc, max_distance_m=1000.0)
    print(f"{'theta':>10}  {'total (m)':>10}  {'unconstrained':>13}  {'infeasible':>10}")
    for theta in (0.9, 0.99, 0.999, 0.99999, 0.9999999):
        p = tp.plan(tp.apply_axis(capped, "theta_th", theta))
        free = sum(1 for row in p.users if row.status == tp.UNCONSTRAINED)
        bad = sum(1 for row in p.users if row.status == tp.INFEASIBLE)
        print(f"{theta:10.7f}  {p.total_distance_m:10.3f}  {free:13d}  {bad:10d}")
    print("Seven nines exceed what this edge CPU can ever deliver in 80 ms.")


if __name__ == "__main__":
    main()
