"""Jackknife statistic distributions, thresholds and the detector."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import distkit
from .errors import SubsetRankDeficient
from .integrity import IntegrityBudget, allocate, separation_tests
from .model_core import AXIS_UP, LinearModel, SolutionOps
from .threat import ThreatModel


@dataclass
class JkStatistics:
    stats: dict            # mode id -> test statistic (m)
    thresholds: dict       # mode id -> threshold (m)
    alerts: dict           # mode id -> bool
    skipped: list          # mode ids with rank-deficient subsets

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


def stat_distributions(model: LinearModel, ops: SolutionOps,
                       threat: ThreatModel, acc_bounds,
                       axis: int = AXIS_UP, mode_ids=None):
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
    batch = distkit.convolve_batch(C[ok], acc_bounds)
    return ModeDistributions(ids, batch), skipped


def _c_alloc(threat: ThreatModel, c_req_fa: float) -> float:
    """allocate's per-mode, per-tail c_alloc for a whole false-alarm
    budget of c_req_fa."""
    return allocate(IntegrityBudget(c_req_fa_vert=c_req_fa,
                                    c_req_fa_horiz=0.0), threat, AXIS_UP)[2]


def thresholds(threat: ThreatModel, stat_dists, c_req_fa: float):
    """Continuity-allocated per-mode thresholds T_k.

    T_k is the magnitude of the statistic's quantile at allocate's c_alloc
    for a whole false-alarm budget of c_req_fa, the equal continuity split
    C_REQ,FA / (2 N_fault_modes P_H0). A ModeDistributions is evaluated as
    one batch, any other mapping of mode ids to distributions one
    distribution at a time.
    """
    p = _c_alloc(threat, c_req_fa)
    if isinstance(stat_dists, ModeDistributions):
        return dict(zip(stat_dists.ids,
                        np.abs(stat_dists.batch.quantile(p)).tolist()))
    return {mid: abs(float(d.quantile(p))) for mid, d in stat_dists.items()}


def run_detector(model: LinearModel, threat: ThreatModel, acc_bounds,
                 y=None, axis: int = AXIS_UP, c_req_fa: float = 3.99e-6,
                 ops: SolutionOps = None, stat_dists=None,
                 thresh=None) -> JkStatistics:
    """Multi-hypothesis detection for one epoch over every mode of the
    threat: the jackknife statistic against thresh for the satellite-subset
    modes, and the solution-separation test (integrity.separation_tests)
    for the constellation modes, both at the c_alloc of a false-alarm
    budget of c_req_fa.

    y defaults to model.y, which is left as it is. Rank-deficient modes
    are skipped and reported. thresh is left as it is; the returned
    thresholds add the constellation modes' separation thresholds.
    """
    y = model.y if y is None else np.asarray(y, dtype=float)
    if ops is None:
        ops = SolutionOps(model)
    skipped = []
    if stat_dists is None:
        stat_dists, skipped = stat_distributions(
            model, ops, threat, acc_bounds, axis)
    if thresh is None:
        thresh = thresholds(threat, stat_dists, c_req_fa)

    modes = [m for m in threat.sat_modes() if m.id in thresh]
    for mode in threat.sat_modes():
        if mode.id not in thresh and mode.id not in skipped:
            skipped.append(mode.id)
    stats, thresh = {}, dict(thresh)
    if modes:
        ok, _, C = ops.mode_rows([m.excluded for m in modes], axis)
        if not ok.all():
            raise SubsetRankDeficient("a thresholded mode is rank deficient")
        stats.update(zip([m.id for m in modes], (C @ y).tolist()))
    const = threat.constellation_modes()
    if const:
        tests = separation_tests(ops, const, acc_bounds,
                                 _c_alloc(threat, c_req_fa), y, axis)
        skipped += [m.id for m in const if m.id not in tests]
        for mid, (stat, d) in tests.items():
            stats[mid], thresh[mid] = stat, d
    alerts = {mid: abs(stat) >= thresh[mid] for mid, stat in stats.items()}
    return JkStatistics(stats, thresh, alerts, skipped)
