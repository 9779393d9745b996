"""Protection levels from the integrity-risk bounds, plus the
solution-separation benchmark. Both PLs, the risk sum and both detectors
take their budget splits from allocate and their fault-mode rows from
mode_terms (Gaussian separation terms: ModeTerms.gaussian_terms)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from . import distkit
from .errors import NonGaussianBound, SubsetRankDeficient
from .model_core import AXIS_UP, SolutionOps
from .threat import ThreatModel


@dataclass(frozen=True)
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

    def __post_init__(self):
        # b_nom lies in [0, inf), every other field in [0, 1); the vertical
        # requirements, p_sat and p_thres are positive. NaN fails each check.
        for name, value in vars(self).items():
            positive = name in ("i_req_vert", "c_req_fa_vert", "p_sat",
                                "p_thres")
            top = math.inf if name == "b_nom" else 1.0
            if not ((0.0 < value if positive else 0.0 <= value)
                    and value < top):
                raise ValueError(f"budget {name} = {value!r} is out of range")

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


@dataclass
class ModeTerms:
    """The fault modes mode_terms keeps on one axis, with their rows."""

    modes: list             # kept satellite-subset modes, then constellation
    n_sat: int              # how many of modes are satellite-subset modes
    Q: np.ndarray           # their S_k rows on the axis, one per mode
    bias: np.ndarray        # their worst-case biases b_nom * sum |Q row|
    skipped_mass: float
    unmonitorable: object   # first mode that voids the PL, or None

    def gaussian_terms(self, s_row, sigmas, start: int = 0):
        """sqrt((Q - s_row)^2 . sigma^2) of the kept modes from index start
        on: sigma_vk for s_row 0, sigma_ss for s_row the full solution's
        row S."""
        var = np.asarray(sigmas, dtype=float) ** 2
        return np.sqrt(((self.Q[start:] - s_row) ** 2) @ var)


def mode_terms(ops: SolutionOps, modes, axis: int, b_nom: float,
               i_alloc: float, p_thres: float) -> ModeTerms:
    """The modes one integrity sum keeps, by one rule, in mode order:

    - a mode whose prior is at most i_alloc is skipped and budgeted at its
      prior;
    - a rank-deficient mode with prior above p_thres is unmonitorable: no
      finite PL exists, and the first such mode is reported;
    - any other rank-deficient mode is skipped and budgeted at
      min(prior, i_alloc).

    Every other mode is kept, with its S_k row on the axis and its bias
    b_nom sum_i |S_k row_i| (b_nom each measurement's nominal bias): a
    satellite-subset mode's row from ops.mode_rows, a constellation mode's
    from ops.reduced (the solve without the excluded constellation's
    measurements and clock).
    """
    sat = [m for m in modes if m.kind == "sat_subset" and m.prior > i_alloc]
    ok, Q, _ = ops.mode_rows([m.excluded for m in sat], axis)
    kept = [m for m, good in zip(sat, ok) if good]
    n_sat = len(kept)
    rows = [Q[ok]]
    skipped_mass, unmonitorable = 0.0, None
    sat_ok = iter(ok.tolist())
    for mode in modes:
        if mode.prior <= i_alloc:
            skipped_mass += mode.prior
            continue
        if mode.kind == "sat_subset":
            good = next(sat_ok)
        else:
            try:
                rows.append(ops.reduced(mode.excluded)[axis])
            except SubsetRankDeficient:
                good = False
            else:
                good = True
                kept.append(mode)
        if good:
            continue
        if mode.prior > p_thres:
            if unmonitorable is None:
                unmonitorable = mode
        else:
            skipped_mass += min(mode.prior, i_alloc)
    Q = np.vstack(rows)
    return ModeTerms(kept, n_sat, Q, b_nom * np.abs(Q).sum(axis=1),
                     skipped_mass, unmonitorable)


def _jk_terms(ops, threat, acc_bounds, thresholds, budget, axis):
    """The terms of the jk integrity sum on one axis: the fault-free term,
    the kept satellite modes, then the kept constellation modes.

    Returns (labels, bounds, risk, target, skipped_mass), or the label of
    the reason no finite PL exists. bounds() gives each term's level at
    its equal share i_alloc of the budget; risk maps an array of levels to
    the summed monitored risk at each, term by term in order; target is
    allocate's deflated axis budget.
    """
    target, i_alloc, c_alloc, _ = allocate(budget, threat, axis)
    if target <= 0.0:
        return "unmonitored"
    terms = mode_terms(ops, threat.modes, axis, budget.b_nom, i_alloc,
                       budget.p_thres)
    if terms.unmonitorable is not None:
        return f"unmonitorable:{terms.unmonitorable.id}"

    n_sat = terms.n_sat
    offsets = [budget.b_nom * np.abs(ops.S[axis]).sum()]
    for mode, bias in zip(terms.modes[:n_sat], terms.bias.tolist()):
        t_k = thresholds[mode.id]
        if len(mode.excluded) == 1:
            k = next(iter(mode.excluded))
            extra = abs(ops.S[axis, k]) * t_k
        else:
            extra = t_k
        offsets.append(extra + bias)
    # The constellation terms are Gaussians of the bounds' sigmas, offset
    # by their separation thresholds at c_alloc.
    const = None
    if len(terms.modes) > n_sat:
        sigmas = distkit.bound_sigmas(acc_bounds)
        offsets += (abs(float(ndtri(c_alloc)))
                    * terms.gaussian_terms(ops.S[axis], sigmas, n_sat)
                    + terms.bias[n_sat:]).tolist()
        const = distkit.GaussianBatch(terms.gaussian_terms(0.0, sigmas,
                                                           n_sat))
    offsets = np.array(offsets)
    priors = np.array([threat.p_h0] + [m.prior for m in terms.modes])
    # Rows of dists are the first n terms, rows of const (if any) the rest.
    dists = distkit.convolve_batch(
        np.vstack((ops.S[axis], terms.Q[:n_sat])), acc_bounds)
    n = len(dists)

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

    labels = ["H0"] + [f"mode:{m.id}" if m.kind == "sat_subset"
                       else f"const:{m.id}" for m in terms.modes]
    return labels, bounds, risk, target, terms.skipped_mass


def pl_solve(ops: SolutionOps, threat: ThreatModel, acc_bounds,
             thresholds, budget: IntegrityBudget, axis: int = AXIS_UP, *,
             refine=True, return_binding=False):
    """Protection level for one axis of the geometry ops.

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
    terms = _jk_terms(ops, threat, acc_bounds, thresholds, budget, axis)
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


def hmi_risk_eval(ops: SolutionOps, threat: ThreatModel, acc_bounds,
                  thresholds, level: float, budget: IntegrityBudget,
                  axis: int = AXIS_UP) -> float:
    """Integrity risk of the geometry ops at a candidate level: the
    monitored-mode sum that pl_solve bisects (fault-free, satellite-fault
    and constellation-fault terms) plus the mass budgeted for the modes it
    skips. P_not_monitored is excluded; the PL is the lowest level whose
    risk stays within allocate's deflated axis budget. Returns 1.0 where
    pl_solve returns infinity.
    """
    if level <= 0:
        raise ValueError("level must be positive")
    terms = _jk_terms(ops, threat, acc_bounds, thresholds, budget, axis)
    if isinstance(terms, str):
        return 1.0
    _, _, risk, _, skipped_mass = terms
    return float(risk(np.array([level]))[0]) + skipped_mass


def _require_gaussian(acc_bounds):
    """The baseline's terms are Gaussians of the bounds' sigmas, which
    understate a heavier-tailed bound's tails: refuse any other bound."""
    if not all(isinstance(b, distkit.Gaussian) for b in acc_bounds):
        raise NonGaussianBound(
            "the solution-separation baseline takes Gaussian accuracy "
            "bounds only")


def baseline_araim_pl(ops: SolutionOps, threat: ThreatModel, acc_bounds,
                      budget: IntegrityBudget, axis: int = AXIS_UP) -> float:
    """Solution-separation protection level for one axis of the geometry
    ops, by bisection on the total risk.

    The comparison benchmark, on Gaussian accuracy bounds only
    (NonGaussianBound otherwise): two-sided fault-free term, one-sided
    faulted terms (ModeTerms.gaussian_terms) offset by the separation
    thresholds at allocate's c_alloc_axis. Every mode that can be
    monitored is kept (mode_terms with i_alloc 0, which skips only
    rank-deficient modes of prior at most p_thres, at no cost to the
    budget).
    """
    _require_gaussian(acc_bounds)
    target, _, _, c_alloc = allocate(budget, threat, axis)
    if target <= 0.0:
        return math.inf
    terms = mode_terms(ops, threat.modes, axis, budget.b_nom, 0.0,
                       budget.p_thres)
    if terms.unmonitorable is not None:
        return math.inf
    sig = distkit.bound_sigmas(acc_bounds)
    weights = np.array([2.0 * threat.p_h0] + [m.prior for m in terms.modes])
    sigmas = np.concatenate(([np.sqrt(np.sum(ops.S[axis] ** 2 * sig ** 2))],
                             terms.gaussian_terms(0.0, sig)))
    offsets = np.concatenate((
        [budget.b_nom * np.abs(ops.S[axis]).sum()],
        abs(float(ndtri(c_alloc))) * terms.gaussian_terms(ops.S[axis], sig)
        + terms.bias))

    def risk(levels):
        # Fault-free term, then the faulted terms in mode order.
        return np.cumsum(weights * ndtr((offsets - levels[:, None])
                                        / sigmas), axis=1)[:, -1]

    level, _ = _bisect_level(risk, 1.0e4, target)
    return math.inf if level is None else level


def separation_tests(ops: SolutionOps, modes, acc_bounds, c_alloc: float,
                     y, axis: int = AXIS_UP) -> dict:
    """Solution-separation statistics (S_k - S) y and thresholds D_k of
    the given modes, D_k at c_alloc from the accuracy bounds' sigmas
    (ModeTerms.gaussian_terms): mode id -> (statistic, threshold),
    satellite-subset modes first.

    Rank-deficient modes cannot be tested and are left out (mode_terms
    with p_thres infinite); any other failure propagates."""
    terms = mode_terms(ops, modes, axis, 0.0, 0.0, math.inf)
    stats = (terms.Q - ops.S[axis]) @ y
    d = abs(float(ndtri(c_alloc))) * terms.gaussian_terms(
        ops.S[axis], distkit.bound_sigmas(acc_bounds))
    return dict(zip([m.id for m in terms.modes],
                    zip(stats.tolist(), d.tolist())))


def baseline_alert(ops: SolutionOps, threat: ThreatModel, acc_bounds,
                   budget: IntegrityBudget, y, axis: int = AXIS_UP) -> bool:
    """Solution-separation tests |S_k y - S y| >= D_k of the observations
    y over every mode of the threat (separation_tests), D_k at allocate's
    c_alloc, on Gaussian accuracy bounds only (NonGaussianBound
    otherwise)."""
    _require_gaussian(acc_bounds)
    tests = separation_tests(ops, threat.modes, acc_bounds,
                             allocate(budget, threat, axis)[2], y, axis)
    return any(abs(stat) >= d for stat, d in tests.values())
