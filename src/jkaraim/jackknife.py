"""Jackknife thresholds and the detector, at the false-alarm split
integrity.allocate makes of an IntegrityBudget."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import distkit
from .errors import SubsetRankDeficient
from .integrity import IntegrityBudget, allocate, separation_tests
from .model_core import AXIS_UP, SolutionOps
from .threat import ThreatModel


@dataclass
class JkStatistics:
    stats: dict            # mode id -> test statistic (m)
    thresholds: dict       # mode id -> threshold (m)
    alerts: dict           # mode id -> bool
    skipped: list          # mode ids left untested

    @property
    def alert(self) -> bool:
        return any(self.alerts.values())


def thresholds(ops: SolutionOps, threat: ThreatModel, acc_bounds,
               budget: IntegrityBudget, axis: int = AXIS_UP) -> dict:
    """Continuity-allocated thresholds of the satellite-subset modes: mode
    id -> T_k, the magnitude of the mode's nominal statistic's quantile at
    allocate's c_alloc, the equal continuity split C_REQ,FA /
    (2 N_fault_modes P_H0) of the budget's whole false-alarm budget.

    The statistics of every mode that is not rank deficient are convolved
    from acc_bounds as one batch; a rank-deficient mode is untestable and
    gets no threshold. Constellation modes are never jackknife-testable and
    are not included.
    """
    modes = threat.sat_modes()
    ok, _, C = ops.mode_rows([m.excluded for m in modes], axis)
    if not ok.any():
        return {}
    batch = distkit.convolve_batch(C[ok], acc_bounds)
    p = allocate(budget, threat, axis)[2]
    return dict(zip([m.id for m, good in zip(modes, ok) if good],
                    np.abs(batch.quantile(p)).tolist()))


def run_detector(ops: SolutionOps, threat: ThreatModel, acc_bounds, thresh,
                 budget: IntegrityBudget, y,
                 axis: int = AXIS_UP) -> JkStatistics:
    """Multi-hypothesis detection of the observations y (one per
    measurement of the geometry ops) over every mode of the threat: the
    jackknife statistic against thresh (thresholds) for the
    satellite-subset modes, and the solution-separation test
    (integrity.separation_tests) at allocate's c_alloc for the
    constellation modes.

    The satellite modes without a threshold, then the untestable
    constellation modes, are reported as skipped. The returned thresholds
    are thresh plus the constellation modes' separation thresholds.
    """
    y = np.asarray(y, dtype=float)
    modes = [m for m in threat.sat_modes() if m.id in thresh]
    skipped = [m.id for m in threat.sat_modes() if m.id not in thresh]
    ok, _, C = ops.mode_rows([m.excluded for m in modes], axis)
    if not ok.all():
        raise SubsetRankDeficient("a thresholded mode is rank deficient")
    stats = dict(zip([m.id for m in modes], (C @ y).tolist()))
    thresh = dict(thresh)
    const = threat.constellation_modes()
    if const:
        tests = separation_tests(ops, const, acc_bounds,
                                 allocate(budget, threat, axis)[2], y, axis)
        skipped += [m.id for m in const if m.id not in tests]
        for mid, (stat, d) in tests.items():
            stats[mid], thresh[mid] = stat, d
    alerts = {mid: abs(stat) >= thresh[mid] for mid, stat in stats.items()}
    return JkStatistics(stats, thresh, alerts, skipped)
