"""Fault detection on a real almanac geometry.

Builds the measurement model for a mid-latitude user from the shipped
nominal GPS and Galileo almanacs and draws nominal errors. It then injects
a growing bias on one satellite, and watches the jackknife statistics
cross their continuity-allocated thresholds; and a growing vertical shift
seen by every Galileo satellite (a whole-constellation fault), which the
detector's solution-separation test of the constellation mode catches.
Both kinds of test are rows of one detector table (thresholds), run on
each observation vector as one product (run_detector).

Run:  python demos/fault_detection.py
"""

import numpy as np

from jkaraim import (AXIS_UP, IntegrityBudget, default_almanac,
                     default_table, draw_errors, epoch_setup,
                     geodetic_to_ecef, record_keys, run_detector, thresholds)
from jkaraim.sim import satellite_positions

budget = IntegrityBudget()
almanac = default_almanac(("GPS", "GAL"))
setup = epoch_setup(geodetic_to_ecef(47.0, 8.5), [a.svn for a in almanac],
                    [a.constellation for a in almanac],
                    satellite_positions(almanac, 7200.0), default_table(),
                    budget)
# A record is a stack of one: each field holds this one record's.
ops, tm, acc = setup.ops, setup.tm, setup.acc_bounds
[visible] = setup.visible
print(f"{ops.n} satellites above the mask at the chosen epoch")
print(f"k_max={tm.k_max}, {tm.n_fault_modes} fault modes")

# The nominal errors a scenario of seed 3 draws for this user (location 0)
# at its first epoch.
nominal = draw_errors(setup.truth, record_keys(3, [0], 0))[0]
tests = thresholds(ops, tm, acc, budget, AXIS_UP)
[held] = tests.thresholds
const_ids = [m.id for m in tm.constellation_modes()]
print(f"{len(tests.ids)} vertical tests, {len(tests.skipped)} modes "
      "untestable")


def show(fault_of, biases):
    """The worst satellite-mode and constellation-mode statistic over its
    threshold, and the alert, as the bias grows."""
    print(f"{'bias (m)':>9} {'satellite modes':>16} "
          f"{'constellation modes':>20} {'alert':>6}")
    for bias in biases:
        [stats], [alerts] = run_detector(tests,
                                         (nominal + bias * fault_of)[None])
        ratios = dict(zip(tests.ids, np.abs(stats) / held))
        sat = max(r for i, r in ratios.items() if i not in const_ids)
        const = max(ratios[i] for i in const_ids)
        print(f"{bias:9.1f} {sat:16.2f} {const:20.2f} "
              f"{str(alerts.any()):>6}")


target = 0
print(f"\nbias on {almanac[visible[target]].svn} "
      f"(elevation {setup.elevations[0, target]:.0f} deg), statistic over "
      "threshold:")
show(np.eye(ops.n)[target], (0.0, 4.0, 8.0, 16.0))

gal = np.array([almanac[i].constellation == "GAL" for i in visible])
print("\nvertical shift seen by every Galileo satellite, statistic over "
      "threshold:")
show(np.where(gal, ops.G[0, :, AXIS_UP], 0.0), (0.0, 25.0, 50.0, 100.0))
