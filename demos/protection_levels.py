"""Vertical protection levels, three ways, on one almanac geometry.

Computes the solution-separation benchmark VPL, the jackknife VPL with
Gaussian bounds (the two agree closely), and the jackknife VPL with
principal-Gaussian bounds, which is substantially tighter when the
per-satellite error models are heavy tailed.

Run:  python demos/protection_levels.py
"""

from jkaraim import (IntegrityBudget, baseline_araim_pl, default_almanac,
                     default_table, epoch_setup, geodetic_to_ecef,
                     protection_levels, separation_table, thresholds)
from jkaraim.model_core import AXIS_UP
from jkaraim.sim import satellite_positions

BUDGET = IntegrityBudget(p_const=0.0)


def epoch_case(lat, lon, t, flavor):
    almanac = default_almanac(("GPS",))
    return epoch_setup(geodetic_to_ecef(lat, lon), [a.svn for a in almanac],
                       [a.constellation for a in almanac],
                       satellite_positions(almanac, t), default_table(),
                       BUDGET, flavor=flavor)


def jk_vpl(s):
    """The jk VPL of the set-up's one record, each fault term offset by the
    threshold of its mode's vertical test."""
    tests = thresholds(s.ops, s.tm, s.acc_bounds, BUDGET, AXIS_UP)
    [vpl], _ = protection_levels(s.ops, s.tm, s.acc_bounds, tests, BUDGET)
    return vpl


lat, lon, t = 34.0, -118.0, 36000.0
print(f"user at ({lat}, {lon}), epoch t={t:.0f} s\n")

gauss = epoch_case(lat, lon, t, "gaussian")
print(f"{gauss.ops.n} satellites, {gauss.tm.n_fault_modes} fault modes")

sep = separation_table(gauss.ops, gauss.tm, gauss.acc_bounds, BUDGET,
                       AXIS_UP)
[base] = baseline_araim_pl(gauss.ops, gauss.tm, gauss.acc_bounds, sep,
                           BUDGET)
print(f"\nsolution-separation benchmark VPL: {base:7.2f} m")

vpl_g = jk_vpl(gauss)
print(f"jackknife VPL, Gaussian bounds:    {vpl_g:7.2f} m "
      f"({100 * (vpl_g - base) / base:+.1f}% vs benchmark)")

vpl_p = jk_vpl(epoch_case(lat, lon, t, "pgo"))
print(f"jackknife VPL, PGO bounds:         {vpl_p:7.2f} m "
      f"({100 * (vpl_p - vpl_g) / vpl_g:+.1f}% vs Gaussian bounds)")
