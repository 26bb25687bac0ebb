"""Tour of the THz channel model.

Walks the absorption fit across the band, shows how loss splits into
molecular and spreading parts, and closes the rate <-> distance loop.
Run with: python3 demos/channel_tour.py
"""

import numpy as np

import thzplanner as tp

FIT = tp.DEFAULT_ATTENUATION_FIT
RADIO = tp.reference_radio()


def main() -> None:
    print("=== gaseous attenuation across the band ===")
    print(f"{'f (GHz)':>8}  {'gamma (dB/km)':>14}")
    for f in (100, 150, 200, 215, 300, 380, 447, 557, 752, 1000):
        print(f"{f:8d}  {tp.gaseous_attenuation(FIT, float(f)):14.3f}")
    print("The 557 and 752 GHz water lines dominate; planning stays low.\n")

    print("=== loss decomposition at 150 GHz ===")
    print(f"{'d (m)':>7}  {'total (dB)':>11}  {'absorption':>11}  {'spreading':>10}")
    gamma = tp.gaseous_attenuation(FIT, 150.0)
    for d in (1.0, 10.0, 100.0, 500.0, 1000.0):
        total = tp.path_loss(FIT, 150.0, d)
        absorb = gamma * d / 1000.0
        print(f"{d:7.0f}  {total:11.2f}  {absorb:11.3f}  {total - absorb:10.2f}")
    print("Spreading rules at short range; absorption takes over near 1 km.\n")

    print("=== achievable rate vs distance (reference radio) ===")
    print(f"{'d (m)':>7}  " + "  ".join(f"{f:>9.0f}" for f in (100.0, 150.0, 200.0)))
    for d in (10.0, 50.0, 200.0, 500.0):
        rates = [tp.data_rate(FIT, RADIO, f, d) / 1e9 for f in (100.0, 150.0, 200.0)]
        print(f"{d:7.0f}  " + "  ".join(f"{r:8.2f}G" for r in rates))
    print()

    print("=== closed-form distance inversion ===")
    for rate in (1e8, 1e9, 1e10):
        d = tp.achievable_distance(FIT, RADIO, 150.0, rate)
        back = tp.data_rate(FIT, RADIO, 150.0, d)
        print(f"need {rate:9.3g} bit/s -> reach {d:10.3f} m "
              f"(round trip error {abs(back - rate) / rate:.1e})")
    print()

    print("=== where sorted carrier assignment stops being provable ===")
    x = tp.attenuation_crossover(FIT)
    print(f"f gamma'(f) = gamma(f) at {x:.4f} GHz; below it sorted matching is")
    print("optimal, and the planner solves the assignment exactly everywhere.")
    gaps = [
        tp.supermodularity_gap(FIT, RADIO, 5e8, 2e9, f, f + 10.0)
        for f in np.arange(100.0, 210.0, 10.0)
    ]
    print(f"mixed differences on adjacent 10 GHz pairs: min {min(gaps):.4f} m "
          f"(all positive: {all(g > 0 for g in gaps)})")


if __name__ == "__main__":
    main()
