"""Protection levels from the integrity-risk bounds, plus the
solution-separation benchmark."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from . import distkit
from .errors import SubsetRankDeficient
from .model_core import (AXIS_UP, LinearModel, SolutionOps, _solution_matrix,
                         bias_projection, q_vector)
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
    val: float = 35.0
    hal: float = 40.0

    @property
    def i_req_total(self) -> float:
        return self.i_req_vert + self.i_req_horiz

    @property
    def c_req_fa_total(self) -> float:
        return self.c_req_fa_vert + self.c_req_fa_horiz

    def i_req_axis(self, axis: int) -> float:
        return self.i_req_vert if axis == AXIS_UP else 0.5 * self.i_req_horiz


@dataclass
class PlResult:
    pl: np.ndarray                     # per-axis PL (east, north, up)
    binding: dict = field(default_factory=dict)  # axis -> binding term label
    iterations: int = 0

    @property
    def vpl(self) -> float:
        return float(self.pl[2])

    @property
    def hpl(self) -> float:
        if np.any(np.isnan(self.pl[:2])):
            return float("nan")
        return float(np.hypot(self.pl[0], self.pl[1]))


# The PL bisections stop once their bracket is at most this wide (m).
PL_TOLERANCE_M = 1e-3

# Bisection steps whose midpoints, on every branch, one risk call takes.
_BISECT_DEPTH = 4


def _bisect_level(risk, hi: float, target: float):
    """Bisection on [0, hi] for the lowest level whose risk stays within
    target, to PL_TOLERANCE_M. Returns (level, steps), or (None, 0) when
    risk(hi) already exceeds target. risk must not increase with the level.

    risk maps an array of levels to their risks. Each call takes the
    midpoints of the next _BISECT_DEPTH steps on every branch (the first
    call hi as well); walking that tree takes the decisions of a
    step-by-step bisection at the same midpoints, so the level is the same.
    """
    lo, steps = 0.0, 0
    start = [hi]
    while True:
        brackets, mids = [(lo, hi)], []
        for node in range(2 ** _BISECT_DEPTH - 1):
            a, b = brackets[node]
            mid = 0.5 * (a + b)
            mids.append(mid)
            brackets += [(a, mid), (mid, b)]
        r = risk(np.array(start + mids)).tolist()
        if start:
            if r.pop(0) > target:
                return None, 0
            start = []
        node = 0
        for _ in range(_BISECT_DEPTH):
            if not hi - lo > PL_TOLERANCE_M:
                return hi, steps
            if r[node] > target:
                lo, node = mids[node], 2 * node + 2
            else:
                hi, node = mids[node], 2 * node + 1
            steps += 1


def constellation_ss(model: LinearModel, ops: SolutionOps, const_mode,
                     gaussian_sigmas, c_alloc: float, axis: int = AXIS_UP):
    """Subset-solution sigma and solution-separation threshold for a
    whole-constellation fault mode.

    The excluded constellation's clock state is dropped from the subset
    solve; position axes are unaffected by the missing clock. c_alloc is
    the per-mode, per-tail continuity probability.
    """
    excluded = sorted(const_mode.excluded)
    keep = np.ones(model.n, dtype=bool)
    keep[excluded] = False
    if keep.sum() == 0:
        raise SubsetRankDeficient("no measurements remain")
    # Identify clock columns that lose all support.
    live_cols = [c for c in range(model.m)
                 if c < 3 or np.any(model.G[keep, c] != 0.0)]
    G_red = model.G[np.ix_(keep, live_cols)]
    S_red = _solution_matrix(G_red, model.W[keep], err=SubsetRankDeficient)
    Sk = np.zeros((model.m, model.n))
    Sk[np.ix_(live_cols, np.flatnonzero(keep))] = S_red

    var = np.asarray(gaussian_sigmas, dtype=float) ** 2
    sigma_vk = float(np.sqrt(np.sum(Sk[axis] ** 2 * var)))
    diff = Sk[axis] - ops.S[axis]
    sigma_ss = float(np.sqrt(np.sum(diff ** 2 * var)))
    d_kv = sigma_ss * abs(float(ndtri(c_alloc)))
    return sigma_vk, d_kv, Sk


def pl_solve(model: LinearModel, threat: ThreatModel, bounds_int,
             thresholds, budget: IntegrityBudget, axis: int = AXIS_UP,
             ops: SolutionOps = None, gaussian_sigmas=None,
             n_points=4096, refine=True, return_binding=False):
    """Protection level for one axis.

    The equal-allocation per-mode max bound is computed first. When the
    skipped low-prior modes leave room inside the deflated budget, the
    level is then tightened by bisecting the summed monitored risk onto
    the budget, which makes the risk bound tight rather than allocated.

    bounds_int is a per-satellite list of PairedBound (accuracy bound plus
    b_nom shift); their bases feed the convolutions and their b_nom feeds
    the worst-case bias projections. thresholds maps satellite-mode ids to
    detector thresholds. Constellation modes additionally need Gaussian
    accuracy sigmas for the solution-separation path.
    """
    if ops is None:
        ops = SolutionOps(model)
    bases = [b.base for b in bounds_int]
    b_nom = np.array([b.b_nom for b in bounds_int])

    deflate = 1.0 - threat.p_not_monitored / budget.i_req_total
    if deflate <= 0.0:
        return (math.inf, "unmonitored") if return_binding else math.inf
    n_modes = threat.n_fault_modes
    budget_ax = budget.i_req_axis(axis) * deflate
    i_alloc = budget_ax / n_modes

    # Convolution rows: H0 position error, then the q vectors of the
    # jackknife-capable modes that can actually bind (a mode whose prior
    # fits inside its allocation is bounded by the prior alone).
    candidates = [m for m in threat.sat_modes() if i_alloc < m.prior]
    ok, Q, _ = ops.mode_rows([m.excluded for m in candidates], axis)
    biases = np.abs(Q) @ b_nom
    rows = [ops.S[axis]]
    labels = ["H0"]
    extras = [bias_projection(ops.S, b_nom, axis)]
    priors = [threat.p_h0]
    skipped_mass = 0.0
    candidate = iter(zip(ok, Q, biases.tolist()))
    for mode in threat.sat_modes():
        if i_alloc >= mode.prior:
            skipped_mass += min(mode.prior, i_alloc)
            continue
        good, q, bias = next(candidate)
        if not good:
            if mode.prior > budget.p_thres:
                return (math.inf, f"unmonitorable:{mode.id}") \
                    if return_binding else math.inf
            skipped_mass += min(mode.prior, i_alloc)
            continue
        t_k = thresholds[mode.id]
        if len(mode.excluded) == 1:
            k = next(iter(mode.excluded))
            extra = abs(ops.S[axis, k]) * t_k
        else:
            extra = t_k
        rows.append(q)
        labels.append(f"mode:{mode.id}")
        extras.append(extra + bias)
        priors.append(mode.prior)

    dists = distkit.convolve_batch(np.array(rows), bases, n_points=n_points)
    extras = np.array(extras)
    priors = np.array(priors)
    terms = np.abs(dists.quantile(i_alloc / (2.0 * priors))) + extras
    k = int(np.argmax(terms))
    best, best_label = float(terms[k]), labels[k]

    const_terms = []
    for mode in threat.constellation_modes():
        if i_alloc >= mode.prior:
            skipped_mass += min(mode.prior, i_alloc)
            continue
        c_alloc = budget.c_req_fa_total / (2.0 * n_modes * threat.p_h0)
        try:
            sigma_vk, d_kv, Sk = constellation_ss(
                model, ops, mode, gaussian_sigmas, c_alloc, axis)
        except SubsetRankDeficient:
            if mode.prior > budget.p_thres:
                return (math.inf, f"unmonitorable:{mode.id}") \
                    if return_binding else math.inf
            skipped_mass += min(mode.prior, i_alloc)
            continue
        offset = d_kv + bias_projection(Sk, b_nom, axis)
        term = (sigma_vk * abs(float(ndtri(i_alloc / (2.0 * mode.prior))))
                + offset)
        const_terms.append((mode.prior, sigma_vk, offset))
        if term > best:
            best, best_label = term, f"const:{mode.id}"

    best = max(best, 0.0)
    target = budget_ax - skipped_mass
    if refine and target > 0.0 and best > 0.0:
        # Summed monitored risk at each level (a column), term by term in
        # the order H0, satellite modes, constellation modes.
        if const_terms:
            c_priors, c_sigmas, c_offsets = np.array(const_terms).T
            const = distkit.GaussianBatch(c_sigmas)
            priors = np.concatenate((priors, c_priors))

            def tails(level):
                return np.concatenate((dists.tail_prob(level - extras),
                                       const.tail_prob(level - c_offsets)),
                                      axis=1)
        else:
            def tails(level):
                return dists.tail_prob(level - extras)

        def risk(levels):
            return np.cumsum(priors * tails(levels[:, None]), axis=1)[:, -1]

        level, _ = _bisect_level(risk, best, target)
        if level is not None:
            best = level
    return (best, best_label) if return_binding else best


def hmi_risk_eval(model: LinearModel, threat: ThreatModel, bounds_int,
                  thresholds, level: float, budget: IntegrityBudget,
                  axis: int = AXIS_UP, ops: SolutionOps = None,
                  gaussian_sigmas=None, n_points=4096) -> float:
    """Sum-form integrity-risk bound evaluated at a candidate level.

    Adds the fault-free, satellite-fault and constellation-fault terms of
    the monitored-mode bound (P_not_monitored excluded).
    """
    if level <= 0:
        raise ValueError("level must be positive")
    if ops is None:
        ops = SolutionOps(model)
    bases = [b.base for b in bounds_int]
    b_nom = np.array([b.b_nom for b in bounds_int])

    def tail_prob(dist, x):
        if x <= 0:
            return 1.0
        return float(2.0 * dist.cdf(-x))

    risk = 0.0
    dist0 = distkit.scaled_convolve(ops.S[axis], bases, n_points=n_points)
    risk += threat.p_h0 * tail_prob(
        dist0, level - bias_projection(ops.S, b_nom, axis))

    for mode in threat.sat_modes():
        try:
            Sk, _ = ops.subset(mode.excluded)
            q = q_vector(model, ops, mode.excluded, axis)
        except SubsetRankDeficient:
            continue
        t_k = thresholds[mode.id]
        if len(mode.excluded) == 1:
            k = next(iter(mode.excluded))
            extra = abs(ops.S[axis, k]) * t_k
        else:
            extra = t_k
        dist = distkit.scaled_convolve(q, bases, n_points=n_points)
        risk += mode.prior * tail_prob(
            dist, level - extra - bias_projection(Sk, b_nom, axis))

    for mode in threat.constellation_modes():
        c_alloc = budget.c_req_fa_total / (2.0 * threat.n_fault_modes
                                           * threat.p_h0)
        try:
            sigma_vk, d_kv, Sk = constellation_ss(
                model, ops, mode, gaussian_sigmas, c_alloc, axis)
        except SubsetRankDeficient:
            continue
        x = level - d_kv - bias_projection(Sk, b_nom, axis)
        p = 1.0 if x <= 0 else float(2.0 * ndtr(-x / sigma_vk))
        risk += mode.prior * p
    return risk


def baseline_araim_pl(model: LinearModel, threat: ThreatModel,
                      gaussian_sigmas, budget: IntegrityBudget,
                      ops: SolutionOps = None, b_nom=None,
                      axes=(0, 1, 2)) -> PlResult:
    """Solution-separation protection levels via bisection on total risk.

    The comparison benchmark: Gaussian bounds only, two-sided fault-free
    term, one-sided faulted terms offset by the separation thresholds.
    """
    if ops is None:
        ops = SolutionOps(model)
    sig = np.asarray(gaussian_sigmas, dtype=float)
    var = sig ** 2
    if b_nom is None:
        b_nom = np.full(model.n, budget.b_nom)
    deflate = 1.0 - threat.p_not_monitored / budget.i_req_total
    n_modes = threat.n_fault_modes

    pl = np.full(3, np.nan)
    binding = {}
    iters = 0
    for axis in axes:
        if deflate <= 0.0:
            pl[axis] = math.inf
            continue
        target = budget.i_req_axis(axis) * deflate
        c_ax = (budget.c_req_fa_vert if axis == AXIS_UP
                else 0.5 * budget.c_req_fa_horiz)
        c_alloc = c_ax / (2.0 * n_modes * threat.p_h0)
        k_fa = abs(float(ndtri(c_alloc)))

        sigma0 = float(np.sqrt(np.sum(ops.S[axis] ** 2 * var)))
        b0 = bias_projection(ops.S, b_nom, axis)
        sat_modes = [m for m in threat.modes if m.kind != "constellation"]
        ok, Q, _ = ops.mode_rows([m.excluded for m in sat_modes], axis)
        sig_vk = np.sqrt((Q ** 2) @ var)
        d_kv = k_fa * np.sqrt(((Q - ops.S[axis]) ** 2) @ var)
        offsets = d_kv + np.abs(Q) @ b_nom
        sat_terms = iter(zip(ok, sig_vk.tolist(), offsets.tolist()))
        terms = []
        unavailable = False
        for mode in threat.modes:
            if mode.kind == "constellation":
                try:
                    s_vk, d, Sk = constellation_ss(model, ops, mode, sig,
                                                   c_alloc, axis)
                    term = (s_vk, d + bias_projection(Sk, b_nom, axis))
                except SubsetRankDeficient:
                    term = None
            else:
                good, s_vk, offset = next(sat_terms)
                term = (s_vk, offset) if good else None
            if term is None:
                if mode.prior > budget.p_thres:
                    unavailable = True
                    break
                continue
            terms.append((mode.prior,) + term)
        if unavailable:
            pl[axis] = math.inf
            continue

        weights = np.array([2.0 * threat.p_h0] + [t[0] for t in terms])
        sigmas = np.array([sigma0] + [t[1] for t in terms])
        offsets = np.array([b0] + [t[2] for t in terms])

        def risk(levels):
            # Fault-free term, then the faulted terms in mode order.
            return np.cumsum(weights * ndtr((offsets - levels[:, None])
                                            / sigmas), axis=1)[:, -1]

        level, steps = _bisect_level(risk, 1.0e4, target)
        iters += steps
        if level is None:
            pl[axis] = math.inf
            continue
        pl[axis] = level
        binding[axis] = "total-risk"
    return PlResult(pl, binding, iters)
