"""Jackknife fault detection on a real almanac geometry.

Builds the measurement model for a mid-latitude user from the shipped
nominal GPS almanac, draws nominal errors, then injects a growing bias
on one satellite and watches the per-mode test statistics cross their
continuity-allocated thresholds.

Run:  python demos/fault_detection.py
"""

import numpy as np

from jkaraim import (IntegrityBudget, SolutionOps, assemble_geometry,
                     default_almanac, default_table, determine_kmax,
                     enumerate_modes, error_model, geodetic_to_ecef,
                     run_detector)
from jkaraim.model_core import elevation_azimuth
from jkaraim.sim import propagate

budget = IntegrityBudget(p_const=0.0)
table = default_table()
user = geodetic_to_ecef(47.0, 8.5)

vis = []
for alm in default_almanac(("GPS",)):
    pos = propagate(alm, 7200.0)
    el, _ = elevation_azimuth(user, pos)
    if el > 5.0:
        vis.append((alm, pos, el))
print(f"{len(vis)} satellites above the mask at the chosen epoch")

models = [error_model(a.svn, el, table, "gaussian", b_nom=budget.b_nom)
          for a, _, el in vis]
sigmas = np.array([m.acc_sigma for m in models])
geom = assemble_geometry(user, [(p, a.constellation) for a, p, _ in vis],
                         weights=1.0 / sigmas ** 2,
                         sat_ids=[a.svn for a, _, _ in vis])
ops = SolutionOps(geom)

k_max, _ = determine_kmax([geom.n], budget.p_sat, budget.p_const,
                          budget.p_thres)
tm = enumerate_modes(geom.n, k_max, {"GPS": range(geom.n)}, budget.p_sat,
                     budget.p_const)
print(f"k_max={k_max}, {tm.n_fault_modes} fault modes")

rng = np.random.default_rng(3)
nominal = np.array([m.draw(rng) for m in models])
acc = [m.acc_bound for m in models]

target = 0
print(f"\ninjecting a bias on {geom.sat_ids[target]} "
      f"(elevation {vis[target][2]:.0f} deg):")
print(f"{'bias (m)':>9} {'worst stat/threshold':>21} {'alert':>6}")
for bias in (0.0, 2.0, 4.0, 8.0, 16.0):
    y = nominal.copy()
    y[target] += bias
    det = run_detector(geom, tm, acc, y=y, ops=ops,
                       c_req_fa=budget.c_req_fa_total)
    ratio = max(abs(det.stats[i]) / det.thresholds[i] for i in det.stats)
    print(f"{bias:9.1f} {ratio:21.2f} {str(det.alert):>6}")
