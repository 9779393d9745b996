"""Protection levels from the integrity-risk bounds, plus the
solution-separation benchmark. Both PLs and both detectors take their
budget splits from allocate and their fault-mode rows from mode_terms; the
jk PL reads each mode's threshold from the DetectorTable its detector
runs."""

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


@dataclass(frozen=True, eq=False)
class DetectorTable:
    """The tests of one axis's detector: mode ids[i] alerts on the
    observations y when |rows[i] . y| >= thresholds[i] (run_detector).
    The jk PL of the axis offsets each fault term by its mode's
    threshold."""

    axis: int
    ids: tuple
    rows: np.ndarray        # one statistic row per id
    thresholds: np.ndarray  # one threshold (m) per id
    skipped: tuple          # modes left untested, being rank deficient


@dataclass
class ModeTerms:
    """The fault modes mode_terms keeps on one axis, with their rows."""

    modes: list             # kept satellite-subset modes, then constellation
    n_sat: int              # how many of modes are satellite-subset modes
    Q: np.ndarray           # their S_k rows on the axis, one per mode
    bias: np.ndarray        # their worst-case biases b_nom * sum |Q row|
    skipped_mass: float
    unmonitorable: object   # first mode that voids the PL, or None


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


def _jk_terms(ops, threat, acc_bounds, tests, budget):
    """The terms of the jk integrity sum on the axis of the detector table
    tests: the fault-free term, the kept satellite modes, then the kept
    constellation modes, each fault term offset by its mode's threshold in
    tests (T_k |S_vk| for one satellite, T_k for more, D_k).

    Returns (labels, offsets, bounds, risk, target, skipped_mass), or the
    label of the reason no finite PL exists. offsets are the thresholds
    plus the biases; bounds() gives each term's level at its share i_alloc
    of the budget; risk maps an array of levels to the summed monitored
    risk at each; target is allocate's deflated axis budget.
    """
    axis = tests.axis
    target, i_alloc, _, _ = allocate(budget, threat, axis)
    if target <= 0.0:
        return "unmonitored"
    terms = mode_terms(ops, threat.modes, axis, budget.b_nom, i_alloc,
                       budget.p_thres)
    if terms.unmonitorable is not None:
        return f"unmonitorable:{terms.unmonitorable.id}"

    n_sat = terms.n_sat
    s_row = ops.S[axis]
    held = dict(zip(tests.ids, tests.thresholds.tolist()))
    offsets = [budget.b_nom * np.abs(s_row).sum()]
    for mode, bias in zip(terms.modes, terms.bias.tolist()):
        t_k = held[mode.id]
        if mode.kind == "sat_subset" and len(mode.excluded) == 1:
            t_k *= abs(s_row[next(iter(mode.excluded))])
        offsets.append(t_k + bias)
    offsets = np.array(offsets)
    priors = np.array([threat.p_h0] + [m.prior for m in terms.modes])
    # Rows of dists are the first n terms; the constellation terms (if
    # any) are Gaussians of the bounds' sigmas.
    dists = distkit.convolve_batch(np.vstack((s_row, terms.Q[:n_sat])),
                                   acc_bounds)
    n = len(dists)
    const = None
    if len(terms.modes) > n_sat:
        var = distkit.bound_sigmas(acc_bounds) ** 2
        const = distkit.GaussianBatch(np.sqrt((terms.Q[n_sat:] ** 2) @ var))

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
    return labels, offsets, bounds, risk, target, terms.skipped_mass


def pl_solve(ops: SolutionOps, threat: ThreatModel, acc_bounds,
             tests: DetectorTable, budget: IntegrityBudget, *,
             return_binding=False):
    """Protection level of the geometry ops on the axis of the detector
    table tests (jackknife.thresholds), whose thresholds offset the
    fault-mode terms (_jk_terms).

    The equal-allocation per-mode max bound is computed first. When the
    skipped low-prior modes leave room inside the deflated budget, the
    level is then tightened by bisecting the summed monitored risk onto
    the budget, which makes the risk bound tight rather than allocated.

    acc_bounds holds each satellite's accuracy bound: the bounds feed the
    convolutions and their sigmas (distkit.bound_sigmas) the constellation
    modes' terms. Each satellite's nominal bias is the budget's b_nom.
    """
    terms = _jk_terms(ops, threat, acc_bounds, tests, budget)
    if isinstance(terms, str):
        return (math.inf, terms) if return_binding else math.inf
    labels, _, bounds, risk, target, skipped_mass = terms
    values = bounds()
    k = int(np.argmax(values))
    best, best_label = max(float(values[k]), 0.0), labels[k]
    target -= skipped_mass
    if target > 0.0 and best > 0.0:
        level, _ = _bisect_level(risk, best, target)
        if level is not None:
            best = level
    return (best, best_label) if return_binding else best


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
    faulted terms, Gaussians of the bounds' sigmas, offset by the
    separation thresholds at allocate's c_alloc_axis. Every mode that can
    be monitored is kept (mode_terms with i_alloc 0, which skips only
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
    var = distkit.bound_sigmas(acc_bounds) ** 2
    weights = np.array([2.0 * threat.p_h0] + [m.prior for m in terms.modes])
    sigmas = np.sqrt(np.concatenate(([np.sum(ops.S[axis] ** 2 * var)],
                                     (terms.Q ** 2) @ var)))
    offsets = np.concatenate((
        [budget.b_nom * np.abs(ops.S[axis]).sum()],
        abs(float(ndtri(c_alloc)))
        * np.sqrt(((terms.Q - ops.S[axis]) ** 2) @ var) + terms.bias))

    def risk(levels):
        # Fault-free term, then the faulted terms in mode order.
        return np.cumsum(weights * ndtr((offsets - levels[:, None])
                                        / sigmas), axis=1)[:, -1]

    level, _ = _bisect_level(risk, 1.0e4, target)
    return math.inf if level is None else level


def separation_tests(ops: SolutionOps, modes, acc_bounds, c_alloc: float,
                     axis: int = AXIS_UP) -> DetectorTable:
    """The solution-separation tests of the given modes on one axis, in
    mode order: rows S_k - S against D_k = |Phi^-1(c_alloc)| sigma_ss,k,
    sigma_ss,k the separation's sigma under Gaussians of the accuracy
    bounds' sigmas (distkit.bound_sigmas). Rank-deficient modes are skipped
    (mode_terms with p_thres infinite); any other failure propagates."""
    terms = mode_terms(ops, modes, axis, 0.0, 0.0, math.inf)
    rows = terms.Q - ops.S[axis]
    var = distkit.bound_sigmas(acc_bounds) ** 2
    kept = tuple(m.id for m in terms.modes)
    return DetectorTable(
        axis, kept, rows,
        abs(float(ndtri(c_alloc))) * np.sqrt((rows ** 2) @ var),
        tuple(m.id for m in modes if m.id not in kept))
