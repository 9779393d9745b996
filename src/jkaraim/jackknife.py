"""Jackknife residuals, combined statistics, thresholds and the detector."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import distkit
from .errors import SubsetRankDeficient
from .model_core import AXIS_UP, LinearModel, SolutionOps
from .threat import ThreatModel


@dataclass
class JkStatistics:
    stats: dict            # mode id -> test statistic (m)
    thresholds: dict       # mode id -> threshold (m)
    alerts: dict           # mode id -> bool
    skipped: list          # mode ids with rank-deficient subsets
    tau: float

    @property
    def alert(self) -> bool:
        return any(self.alerts.values())


class ModeDistributions(Mapping):
    """Mode id -> nominal distribution of the mode's statistic: a keyed
    view of one convolve_batch result whose rows follow ids."""

    def __init__(self, ids, batch):
        self.ids = list(ids)
        self.batch = batch
        self._row = {mid: k for k, mid in enumerate(self.ids)}

    def __getitem__(self, mid):
        return self.batch[self._row[mid]]

    def __iter__(self):
        return iter(self.ids)

    def __len__(self):
        return len(self.ids)


def residual(model: LinearModel, ops: SolutionOps, mode, i: int) -> float:
    """Jackknife residual t_i = y_i - g_i x_hat_subset for i in the mode's
    excluded set, in the leave-out form t_I = R[I, I]^-1 r_I."""
    if i not in mode.excluded:
        raise ValueError(f"index {i} not excluded by mode {mode.id}")
    t = ops.leave_out(mode.excluded) @ model.y
    return float(t[sorted(mode.excluded).index(i)])


def stat_coeffs(model: LinearModel, ops: SolutionOps, mode,
                axis: int = AXIS_UP) -> np.ndarray:
    """Coefficients c with t* = c . eps under nominal errors.

    Single-exclusion modes use the raw residual row of (I - G S_k);
    larger modes use the S_{v,i}-weighted combination.
    """
    return ops.mode_row(mode.excluded, axis)[1]


def combined_stat(model: LinearModel, ops: SolutionOps, mode,
                  axis: int = AXIS_UP):
    """Test statistic for one fault mode plus its error coefficients."""
    coeffs = stat_coeffs(model, ops, mode, axis)
    return float(coeffs @ model.y), coeffs


def stat_distributions(model: LinearModel, ops: SolutionOps,
                       threat: ThreatModel, acc_bounds,
                       axis: int = AXIS_UP, n_points=4096, mode_ids=None):
    """Nominal distributions of every computable mode statistic.

    Returns (dists, skipped) where dists is a ModeDistributions (mode id
    -> Gaussian or GridDistribution, all rows of one batch) and skipped
    lists rank-deficient (untestable) satellite-subset modes.
    Constellation modes are never jackknife-testable and are not included.
    mode_ids restricts the work to a subset of satellite modes.
    """
    modes = threat.sat_modes()
    if mode_ids is not None:
        wanted = set(mode_ids)
        modes = [m for m in modes if m.id in wanted]
    if not modes:
        return {}, []
    ok, _, C = ops.mode_rows([m.excluded for m in modes], axis)
    ids = [m.id for m, good in zip(modes, ok) if good]
    skipped = [m.id for m, good in zip(modes, ok) if not good]
    if not ids:
        return {}, skipped
    batch = distkit.convolve_batch(C[ok], acc_bounds, n_points=n_points)
    return ModeDistributions(ids, batch), skipped


def thresholds(threat: ThreatModel, stat_dists, c_req_fa: float):
    """Continuity-allocated per-mode thresholds T_k.

    T_k is the magnitude of the statistic's quantile at
    C_REQ,FA / (2 N_fault_modes P_H0), the equal continuity split. A
    ModeDistributions is evaluated as one batch, any other mapping of mode
    ids to distributions one distribution at a time.
    """
    p = c_req_fa / (2.0 * threat.n_fault_modes * threat.p_h0)
    if isinstance(stat_dists, ModeDistributions):
        return dict(zip(stat_dists.ids,
                        np.abs(stat_dists.batch.quantile(p)).tolist()))
    return {mid: abs(float(d.quantile(p))) for mid, d in stat_dists.items()}


def run_detector(model: LinearModel, threat: ThreatModel, acc_bounds,
                 y=None, axis: int = AXIS_UP, c_req_fa: float = 3.99e-6,
                 ops: SolutionOps = None, stat_dists=None,
                 thresh=None, n_points=4096) -> JkStatistics:
    """Multi-hypothesis jackknife detection for one epoch.

    Rank-deficient modes are skipped and reported; constellation modes are
    handled by the solution-separation path, not here.
    """
    if y is not None:
        model.y = np.asarray(y, dtype=float)
    if ops is None:
        ops = SolutionOps(model)
    skipped = []
    if stat_dists is None:
        stat_dists, skipped = stat_distributions(
            model, ops, threat, acc_bounds, axis, n_points)
    if thresh is None:
        thresh = thresholds(threat, stat_dists, c_req_fa)

    modes = [m for m in threat.sat_modes() if m.id in thresh]
    for mode in threat.sat_modes():
        if mode.id not in thresh and mode.id not in skipped:
            skipped.append(mode.id)
    stats, alerts = {}, {}
    if modes:
        ok, _, C = ops.mode_rows([m.excluded for m in modes], axis)
        if not ok.all():
            raise SubsetRankDeficient("a thresholded mode is rank deficient")
        for mode, t in zip(modes, (C @ model.y).tolist()):
            stats[mode.id] = t
            alerts[mode.id] = abs(t) >= thresh[mode.id]
    return JkStatistics(stats, thresh, alerts, skipped, tau=c_req_fa)
