"""Jackknife thresholds, the baseline's separation table and the
detector, at the false-alarm split integrity.allocate makes of an
IntegrityBudget. One axis's tests form one DetectorTable, run as one
product with the observations and read by the PL of that axis."""

from __future__ import annotations

import numpy as np

from . import distkit
from .integrity import (DetectorTable, IntegrityBudget, _require_gaussian,
                        allocate, separation_tests)
from .model_core import AXIS_UP, SolutionStack, _shared
from .threat import ThreatModel


def thresholds(ops: SolutionStack, threat: ThreatModel, acc_bounds,
               budget: IntegrityBudget,
               axis: int = AXIS_UP) -> DetectorTable:
    """The jk mode table of one axis, every test at allocate's c_alloc,
    the equal continuity split C_REQ,FA / (2 N_fault_modes P_H0) of the
    whole false-alarm budget: first the satellite-subset modes, with their
    S_k rows Q_k and jackknife rows C_k (ops.mode_rows), each C_k against
    T_k, the magnitude of its row's quantile at c_alloc in one batch
    convolved from acc_bounds (distkit.row_batches); then the
    constellation modes' separation tests (integrity.separation_tests). A
    rank-deficient mode is untestable and is listed as skipped.

    ops is a stack of geometries with their stacked bounds; the table
    holds every record's rows and thresholds (MixedStack when the
    geometries disagree on which modes are rank deficient).
    """
    c_alloc = allocate(budget, threat, axis)[2]
    modes = threat.sat_modes()
    ok, Q, C = ops.mode_rows([m.excluded for m in modes], axis)
    ok = _shared(ok)
    tested = [m for m, good in zip(modes, ok.tolist()) if good]
    skipped = [m.id for m, good in zip(modes, ok.tolist()) if not good]
    Q, rows = Q[..., ok, :], C[..., ok, :]
    held = (np.abs(distkit.row_batches(rows, acc_bounds).quantile(c_alloc))
            if tested else np.zeros(rows.shape[:-1]))
    const = threat.constellation_modes()
    if const:
        sep = separation_tests(ops, const, acc_bounds, c_alloc, axis)
        tested += sep.modes
        skipped += sep.skipped
        Q = np.concatenate((Q, sep.Q), axis=-2)
        rows = np.concatenate((rows, sep.rows), axis=-2)
        held = np.concatenate((held, sep.thresholds), axis=-1)
    return DetectorTable(axis, tuple(tested), Q, rows, held, tuple(skipped))


def separation_table(ops: SolutionStack, threat: ThreatModel, acc_bounds,
                     budget: IntegrityBudget,
                     axis: int = AXIS_UP) -> DetectorTable:
    """The solution-separation baseline's mode table of one axis: the
    separation tests of every mode of the threat at allocate's c_alloc
    (integrity.separation_tests), on Gaussian accuracy bounds only
    (NonGaussianBound otherwise). ops is a stack, as in thresholds."""
    _require_gaussian(acc_bounds)
    return separation_tests(ops, threat.modes, acc_bounds,
                            allocate(budget, threat, axis)[2], axis)


def run_detector(tests: DetectorTable, y):
    """Multi-hypothesis detection of the observations y (one per
    measurement): every statistic of the table tests at once, rows . y,
    each against its threshold. Returns (stats, alerts), one per tested
    mode in the table's order (tests.ids); for a stacked table, y holds
    one row of observations per record and the results one row each."""
    stats = distkit.matvec(tests.rows, np.asarray(y, dtype=float))
    return stats, np.abs(stats) >= tests.thresholds
