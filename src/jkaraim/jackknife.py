"""Jackknife thresholds and the detector, at the false-alarm split
integrity.allocate makes of an IntegrityBudget. One axis's tests form one
DetectorTable, run as one product with the observations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import distkit
from .integrity import (DetectorTable, IntegrityBudget, _require_gaussian,
                        allocate, separation_tests)
from .model_core import AXIS_UP, SolutionOps
from .threat import ThreatModel


@dataclass
class JkStatistics:
    stats: dict            # mode id -> test statistic (m)
    thresholds: dict       # mode id -> threshold (m)
    alerts: dict           # mode id -> bool
    skipped: list          # mode ids left untested
    alert: bool            # whether any test alerts


def thresholds(ops: SolutionOps, threat: ThreatModel, acc_bounds,
               budget: IntegrityBudget,
               axis: int = AXIS_UP) -> DetectorTable:
    """The detector table of one axis, every test at allocate's c_alloc,
    the equal continuity split C_REQ,FA / (2 N_fault_modes P_H0) of the
    whole false-alarm budget: first the satellite-subset modes' jackknife
    rows C_k (ops.mode_rows), each against T_k, the magnitude of its row's
    quantile at c_alloc in one batch convolved from acc_bounds; then the
    constellation modes' separation tests (integrity.separation_tests).
    A rank-deficient mode is untestable and is listed as skipped.
    """
    c_alloc = allocate(budget, threat, axis)[2]
    modes = threat.sat_modes()
    ok, _, C = ops.mode_rows([m.excluded for m in modes], axis)
    ids = [m.id for m, good in zip(modes, ok) if good]
    skipped = [m.id for m, good in zip(modes, ok) if not good]
    rows = C[ok]
    held = (np.abs(distkit.convolve_batch(rows, acc_bounds).quantile(c_alloc))
            if ids else np.zeros(0))
    const = threat.constellation_modes()
    if const:
        sep = separation_tests(ops, const, acc_bounds, c_alloc, axis)
        ids += sep.ids
        skipped += sep.skipped
        rows = np.vstack((rows, sep.rows))
        held = np.concatenate((held, sep.thresholds))
    return DetectorTable(axis, tuple(ids), rows, held, tuple(skipped))


def run_detector(tests: DetectorTable, y) -> JkStatistics:
    """Multi-hypothesis detection of the observations y (one per
    measurement): every statistic of the table tests at once, rows . y,
    each against its threshold."""
    stats = tests.rows @ np.asarray(y, dtype=float)
    alerts = np.abs(stats) >= tests.thresholds
    return JkStatistics(dict(zip(tests.ids, stats.tolist())),
                        dict(zip(tests.ids, tests.thresholds.tolist())),
                        dict(zip(tests.ids, alerts.tolist())),
                        list(tests.skipped), bool(alerts.any()))


def baseline_alert(ops: SolutionOps, threat: ThreatModel, acc_bounds,
                   budget: IntegrityBudget, y, axis: int = AXIS_UP) -> bool:
    """The solution-separation detector: run_detector on the separation
    tests of every mode of the threat at allocate's c_alloc, on Gaussian
    accuracy bounds only (NonGaussianBound otherwise)."""
    _require_gaussian(acc_bounds)
    tests = separation_tests(ops, threat.modes, acc_bounds,
                             allocate(budget, threat, axis)[2], axis)
    return run_detector(tests, y).alert
