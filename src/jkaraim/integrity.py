"""Protection levels from the integrity-risk bounds, plus the
solution-separation benchmark."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from . import distkit
from .errors import SubsetRankDeficient
from .model_core import AXIS_UP, LinearModel, SolutionOps, bias_projection
from .threat import ThreatModel


@dataclass
class IntegrityBudget:
    """Requirement parameters (defaults follow the LPV-200 style budget)."""

    i_req_vert: float = 9.8e-8
    i_req_horiz: float = 2e-9          # total over both horizontal axes
    c_req_fa_vert: float = 3.9e-6
    c_req_fa_horiz: float = 9e-8
    p_sat: float = 1e-5
    p_const: float = 1e-4
    p_thres: float = 9e-8
    b_nom: float = 0.75

    @property
    def i_req_total(self) -> float:
        return self.i_req_vert + self.i_req_horiz

    @property
    def c_req_fa_total(self) -> float:
        return self.c_req_fa_vert + self.c_req_fa_horiz

    def i_req_axis(self, axis: int) -> float:
        return self.i_req_vert if axis == AXIS_UP else 0.5 * self.i_req_horiz


def allocate(budget: IntegrityBudget, threat: ThreatModel, axis: int):
    """Integrity and continuity allocations of one axis, the only place
    they are made. Returns (target, i_alloc, c_alloc, c_alloc_axis):

    - target = I_req,axis (1 - P_nm / I_req), the axis's integrity budget
      deflated by the unmonitored mass; not positive when P_nm takes the
      whole budget, and then no finite PL exists;
    - i_alloc = target / N, the equal per-mode integrity allocation;
    - c_alloc = C_req,FA / (2 N P_H0), the per-mode, per-tail split of the
      whole false-alarm budget. The jackknife thresholds, both
      solution-separation detectors and the jk PL's constellation terms
      use it;
    - c_alloc_axis, the same split of the axis's own false-alarm budget
      (C_req,FA,vert, or half of C_req,FA,horiz). The baseline PL uses it:
      it is the smaller probability, so the separation thresholds the
      baseline PL assumes are never below the ones its detector tests
      with.
    """
    n_modes = threat.n_fault_modes
    target = budget.i_req_axis(axis) * (
        1.0 - threat.p_not_monitored / budget.i_req_total)
    c_axis = (budget.c_req_fa_vert if axis == AXIS_UP
              else 0.5 * budget.c_req_fa_horiz)

    def split(c_req):
        return c_req / (2.0 * n_modes * threat.p_h0)

    return (target, target / n_modes, split(budget.c_req_fa_total),
            split(c_axis))


@dataclass
class PlResult:
    pl: np.ndarray                     # per-axis PL (east, north, up)

    @property
    def vpl(self) -> float:
        return float(self.pl[2])


# The PL bisections stop once their bracket is at most this wide (m).
PL_TOLERANCE_M = 1e-3

# Bisection steps whose midpoints, on every branch, one risk call takes.
_BISECT_DEPTH = 4
_BISECT_POINTS = 2 ** _BISECT_DEPTH
# A risk call's levels: the dyadic points 0 < j < _BISECT_POINTS of [lo,
# hi] as (j, j - s, j + s), j the midpoint of its neighbours one level up,
# breadth first (the order a step-by-step bisection meets them).
_BISECT_TREE = tuple((j, j - s, j + s)
                     for s in (_BISECT_POINTS >> d
                               for d in range(1, _BISECT_DEPTH + 1))
                     for j in range(s, _BISECT_POINTS, 2 * s))


def _bisect_level(risk, hi: float, target: float):
    """Bisection on [0, hi] for the lowest level whose risk stays within
    target, to PL_TOLERANCE_M. Returns (level, steps), or (None, 0) when
    risk(hi) already exceeds target. risk must not increase with the level.

    risk maps an array of levels to their risks. Each call takes the
    midpoints of the next _BISECT_DEPTH steps on every branch (the first
    call hi as well), computed by the same 0.5 * (a + b) steps; walking
    them takes the decisions of a step-by-step bisection at the same
    midpoints, so the level is the same.
    """
    lo, steps = 0.0, 0
    start = [hi]
    while True:
        pts = [lo] * _BISECT_POINTS + [hi]
        for j, a, b in _BISECT_TREE:
            pts[j] = 0.5 * (pts[a] + pts[b])
        r = risk(np.array(start + pts[1:-1])).tolist()
        if start:
            if r.pop(0) > target:
                return None, 0
            start = []
        j, s = _BISECT_POINTS // 2, _BISECT_POINTS // 4
        for _ in range(_BISECT_DEPTH):
            if not hi - lo > PL_TOLERANCE_M:
                return hi, steps
            if r[j - 1] > target:
                lo, j = pts[j], j + s
            else:
                hi, j = pts[j], j - s
            s //= 2
            steps += 1


def constellation_ss(ops: SolutionOps, const_mode, sigmas, c_alloc: float,
                     axis: int = AXIS_UP):
    """Subset-solution sigma and solution-separation threshold for a
    whole-constellation fault mode, from the accuracy bounds' sigmas
    (distkit.bound_sigmas).

    The mode's subset solution is ops.reduced(const_mode.excluded), kept
    on ops: the excluded constellation's clock state is dropped from the
    subset solve. c_alloc is the per-mode, per-tail continuity
    probability.
    """
    Sk = ops.reduced(const_mode.excluded)
    var = np.asarray(sigmas, dtype=float) ** 2
    sigma_vk = float(np.sqrt(np.sum(Sk[axis] ** 2 * var)))
    diff = Sk[axis] - ops.S[axis]
    sigma_ss = float(np.sqrt(np.sum(diff ** 2 * var)))
    d_kv = sigma_ss * abs(float(ndtri(c_alloc)))
    return sigma_vk, d_kv, Sk


@dataclass
class ModeTerms:
    """The fault modes mode_terms keeps on one axis, with their terms."""

    sat: list               # kept satellite-subset modes
    Q: np.ndarray           # their S_k rows (q vectors), one per mode
    bias: np.ndarray        # their worst-case bias projections |Q| . b_nom
    const: list = field(default_factory=list)   # kept constellation modes
    const_sigma: list = field(default_factory=list)     # their sigma_vk,
    const_offset: list = field(default_factory=list)    # d_kv + bias
    const_row: list = field(default_factory=list)       # and S_k rows
    skipped_mass: float = 0.0
    unmonitorable: object = None    # first mode that voids the PL


def mode_terms(ops: SolutionOps, modes, axis: int, b_nom, sigmas,
               c_alloc: float, i_alloc: float, p_thres: float) -> ModeTerms:
    """The modes one integrity sum keeps, by one rule, in mode order:

    - a mode whose prior is at most i_alloc is skipped and budgeted at its
      prior;
    - a rank-deficient mode with prior above p_thres is unmonitorable: no
      finite PL exists, and the first such mode is reported;
    - any other rank-deficient mode is skipped and budgeted at
      min(prior, i_alloc).

    Every other mode is kept. A satellite-subset mode comes with its S_k
    row and its bias |S_k row| . b_nom; a constellation mode with the
    sigma_vk and separation threshold d_kv of constellation_ss (at
    c_alloc, from the accuracy sigmas), d_kv plus its bias projection, and
    its S_k row.
    """
    sat = [m for m in modes if m.kind == "sat_subset" and m.prior > i_alloc]
    ok, Q, _ = ops.mode_rows([m.excluded for m in sat], axis)
    bias = np.abs(Q) @ b_nom
    terms = ModeTerms([m for m, good in zip(sat, ok) if good], Q[ok],
                      bias[ok])
    sat_ok = iter(ok.tolist())
    for mode in modes:
        if mode.prior <= i_alloc:
            terms.skipped_mass += mode.prior
            continue
        if mode.kind == "sat_subset":
            good = next(sat_ok)
        else:
            try:
                sigma_vk, d_kv, Sk = constellation_ss(ops, mode, sigmas,
                                                      c_alloc, axis)
            except SubsetRankDeficient:
                good = False
            else:
                good = True
                terms.const.append(mode)
                terms.const_sigma.append(sigma_vk)
                terms.const_offset.append(
                    d_kv + bias_projection(Sk, b_nom, axis))
                terms.const_row.append(Sk[axis])
        if good:
            continue
        if mode.prior > p_thres:
            if terms.unmonitorable is None:
                terms.unmonitorable = mode
        else:
            terms.skipped_mass += min(mode.prior, i_alloc)
    return terms


def _jk_terms(model, threat, acc_bounds, thresholds, budget, axis, ops):
    """The terms of the jk integrity sum on one axis: the fault-free term,
    the kept satellite modes, then the kept constellation modes.

    Returns (labels, bounds, risk, target, skipped_mass), or the label of
    the reason no finite PL exists. bounds() gives each term's level at
    its equal share i_alloc of the budget; risk maps an array of levels to
    the summed monitored risk at each, term by term in order; target is
    allocate's deflated axis budget.
    """
    if ops is None:
        ops = SolutionOps(model)
    b_nom = np.full(model.n, budget.b_nom)
    target, i_alloc, c_alloc, _ = allocate(budget, threat, axis)
    if target <= 0.0:
        return "unmonitored"
    terms = mode_terms(ops, threat.modes, axis, b_nom,
                       distkit.bound_sigmas(acc_bounds), c_alloc, i_alloc,
                       budget.p_thres)
    if terms.unmonitorable is not None:
        return f"unmonitorable:{terms.unmonitorable.id}"

    offsets = [bias_projection(ops.S, b_nom, axis)]
    for mode, bias in zip(terms.sat, terms.bias.tolist()):
        t_k = thresholds[mode.id]
        if len(mode.excluded) == 1:
            k = next(iter(mode.excluded))
            extra = abs(ops.S[axis, k]) * t_k
        else:
            extra = t_k
        offsets.append(extra + bias)
    offsets = np.array(offsets + terms.const_offset)
    priors = np.array([threat.p_h0]
                      + [m.prior for m in terms.sat + terms.const])
    # Rows of dists are the first n terms, rows of const (if any) the rest.
    dists = distkit.convolve_batch(np.vstack((ops.S[axis], terms.Q)),
                                   acc_bounds)
    n = len(dists)
    const = distkit.GaussianBatch(terms.const_sigma) if terms.const else None

    def bounds():
        p = i_alloc / (2.0 * priors)
        q = dists.quantile(p[:n])
        if const is not None:
            q = np.concatenate((q, const.quantile(p[n:])))
        return np.abs(q) + offsets

    def risk(levels):
        x = levels[:, None] - offsets
        tails = dists.tail_prob(x[:, :n])
        if const is not None:
            tails = np.concatenate((tails, const.tail_prob(x[:, n:])), axis=1)
        return np.cumsum(priors * tails, axis=1)[:, -1]

    labels = (["H0"] + [f"mode:{m.id}" for m in terms.sat]
              + [f"const:{m.id}" for m in terms.const])
    return labels, bounds, risk, target, terms.skipped_mass


def pl_solve(model: LinearModel, threat: ThreatModel, acc_bounds,
             thresholds, budget: IntegrityBudget, axis: int = AXIS_UP,
             ops: SolutionOps = None, *, refine=True, return_binding=False):
    """Protection level for one axis.

    The equal-allocation per-mode max bound is computed first. When the
    skipped low-prior modes leave room inside the deflated budget, the
    level is then tightened by bisecting the summed monitored risk onto
    the budget, which makes the risk bound tight rather than allocated.
    Allocations come from allocate and the kept modes from mode_terms.

    acc_bounds holds each satellite's accuracy bound: the bounds feed the
    convolutions and their sigmas (distkit.bound_sigmas) the constellation
    modes' solution-separation terms. Each satellite's nominal bias is the
    budget's b_nom, a paired overbound, in the worst-case bias
    projections. thresholds maps satellite-mode ids to detector
    thresholds.
    """
    terms = _jk_terms(model, threat, acc_bounds, thresholds, budget, axis,
                      ops)
    if isinstance(terms, str):
        return (math.inf, terms) if return_binding else math.inf
    labels, bounds, risk, target, skipped_mass = terms
    values = bounds()
    k = int(np.argmax(values))
    best, best_label = max(float(values[k]), 0.0), labels[k]
    target -= skipped_mass
    if refine and target > 0.0 and best > 0.0:
        level, _ = _bisect_level(risk, best, target)
        if level is not None:
            best = level
    return (best, best_label) if return_binding else best


def hmi_risk_eval(model: LinearModel, threat: ThreatModel, acc_bounds,
                  thresholds, level: float, budget: IntegrityBudget,
                  axis: int = AXIS_UP, ops: SolutionOps = None) -> float:
    """Integrity risk at a candidate level: the monitored-mode sum that
    pl_solve bisects (fault-free, satellite-fault and constellation-fault
    terms) plus the mass budgeted for the modes it skips. P_not_monitored
    is excluded; the PL is the lowest level whose risk stays within
    allocate's deflated axis budget. Returns 1.0 where pl_solve returns
    infinity.
    """
    if level <= 0:
        raise ValueError("level must be positive")
    terms = _jk_terms(model, threat, acc_bounds, thresholds, budget, axis,
                      ops)
    if isinstance(terms, str):
        return 1.0
    _, _, risk, _, skipped_mass = terms
    return float(risk(np.array([level]))[0]) + skipped_mass


def baseline_araim_pl(model: LinearModel, threat: ThreatModel, acc_bounds,
                      budget: IntegrityBudget, ops: SolutionOps = None,
                      axes=(0, 1, 2)) -> PlResult:
    """Solution-separation protection levels via bisection on total risk.

    The comparison benchmark: each accuracy bound taken as the Gaussian of
    its sigma (distkit.bound_sigmas), two-sided fault-free term, one-sided
    faulted terms offset by the separation thresholds at allocate's
    c_alloc_axis. Every mode that can be monitored is kept
    (mode_terms with i_alloc 0, which skips only rank-deficient modes of
    prior at most p_thres, at no cost to the budget).
    """
    if ops is None:
        ops = SolutionOps(model)
    sig = distkit.bound_sigmas(acc_bounds)
    var = sig ** 2
    b_nom = np.full(model.n, budget.b_nom)

    pl = np.full(3, np.nan)
    for axis in axes:
        target, _, _, c_alloc = allocate(budget, threat, axis)
        if target <= 0.0:
            pl[axis] = math.inf
            continue
        terms = mode_terms(ops, threat.modes, axis, b_nom, sig, c_alloc,
                           0.0, budget.p_thres)
        if terms.unmonitorable is not None:
            pl[axis] = math.inf
            continue
        k_fa = abs(float(ndtri(c_alloc)))
        sig_vk = np.sqrt((terms.Q ** 2) @ var)
        d_kv = k_fa * np.sqrt(((terms.Q - ops.S[axis]) ** 2) @ var)

        weights = np.array([2.0 * threat.p_h0]
                           + [m.prior for m in terms.sat + terms.const])
        sigmas = np.concatenate(
            ([np.sqrt(np.sum(ops.S[axis] ** 2 * var))], sig_vk,
             terms.const_sigma))
        offsets = np.concatenate(([bias_projection(ops.S, b_nom, axis)],
                                  d_kv + terms.bias, terms.const_offset))

        def risk(levels):
            # Fault-free term, then the faulted terms in mode order.
            return np.cumsum(weights * ndtr((offsets - levels[:, None])
                                            / sigmas), axis=1)[:, -1]

        level, _ = _bisect_level(risk, 1.0e4, target)
        pl[axis] = math.inf if level is None else level
    return PlResult(pl)


def separation_tests(ops: SolutionOps, modes, acc_bounds, c_alloc: float,
                     y, axis: int = AXIS_UP) -> dict:
    """Solution-separation statistics S_k y - S y and thresholds D_k of the
    given modes, D_k at c_alloc from the accuracy bounds' sigmas: mode id
    -> (statistic, threshold), satellite-subset modes first.

    Rank-deficient modes cannot be tested and are left out (mode_terms
    with p_thres infinite); any other failure propagates."""
    sigmas = distkit.bound_sigmas(acc_bounds)
    terms = mode_terms(ops, modes, axis, np.zeros(len(sigmas)), sigmas,
                       c_alloc, 0.0, math.inf)
    full = ops.S[axis] @ y
    diff = terms.Q - ops.S[axis]
    d_sat = abs(float(ndtri(c_alloc))) * np.sqrt((diff ** 2) @ sigmas ** 2)
    stats = ((diff @ y).tolist()
             + [float(row @ y - full) for row in terms.const_row])
    return dict(zip([m.id for m in terms.sat + terms.const],
                    zip(stats, d_sat.tolist() + terms.const_offset)))


def baseline_alert(model: LinearModel, ops: SolutionOps, threat: ThreatModel,
                   acc_bounds, budget: IntegrityBudget,
                   axis: int = AXIS_UP) -> bool:
    """Solution-separation tests |S_k y - S y| >= D_k over every mode of
    the threat (separation_tests), D_k at allocate's c_alloc."""
    tests = separation_tests(ops, threat.modes, acc_bounds,
                             allocate(budget, threat, axis)[2], model.y, axis)
    return any(abs(stat) >= d for stat, d in tests.values())
