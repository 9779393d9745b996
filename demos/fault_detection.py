"""Jackknife fault detection on a real almanac geometry.

Builds the measurement model for a mid-latitude user from the shipped
nominal GPS almanac, draws nominal errors, then injects a growing bias
on one satellite and watches the per-mode test statistics cross their
continuity-allocated thresholds.

Run:  python demos/fault_detection.py
"""

import numpy as np

from jkaraim import (IntegrityBudget, default_almanac, default_table,
                     epoch_setup, geodetic_to_ecef, run_detector)
from jkaraim.sim import satellite_positions

budget = IntegrityBudget(p_const=0.0)
almanac = default_almanac(("GPS",))
setup = epoch_setup(geodetic_to_ecef(47.0, 8.5), [a.svn for a in almanac],
                    [a.constellation for a in almanac],
                    satellite_positions(almanac, 7200.0), default_table(),
                    budget)
geom, ops, tm, models = setup.geom, setup.ops, setup.tm, setup.models
print(f"{geom.n} satellites above the mask at the chosen epoch")
print(f"k_max={tm.k_max}, {tm.n_fault_modes} fault modes")

rng = np.random.default_rng(3)
nominal = np.array([m.draw(rng) for m in models])
acc = [m.acc_bound for m in models]

target = 0
print(f"\ninjecting a bias on {geom.sat_ids[target]} "
      f"(elevation {setup.elevations[target]:.0f} deg):")
print(f"{'bias (m)':>9} {'worst stat/threshold':>21} {'alert':>6}")
for bias in (0.0, 2.0, 4.0, 8.0, 16.0):
    y = nominal.copy()
    y[target] += bias
    det = run_detector(geom, tm, acc, y=y, ops=ops,
                       c_req_fa=budget.c_req_fa_total)
    ratio = max(abs(det.stats[i]) / det.thresholds[i] for i in det.stats)
    print(f"{bias:9.1f} {ratio:21.2f} {str(det.alert):>6}")
