"""Protection levels from the integrity-risk bounds, plus the
solution-separation benchmark. Both PLs and both detectors take their
budget splits from allocate. Each axis has one mode table (DetectorTable):
its detector runs the table, and its PL reads the table's S_k rows, with
the modes kept_modes keeps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from . import distkit
from .errors import NonGaussianBound, SubsetRankDeficient
from .model_core import AXIS_UP, SolutionStack, _shared
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


def _bisect_level(risk, hi, target: float):
    """Bisection on [0, hi] for the lowest level whose risk stays within
    target, to PL_TOLERANCE_M: hi (an array) holds one upper end per
    record, each record bisecting its own bracket. Returns (level, steps)
    of hi's shape, level NaN (and steps 0) where risk(hi) already exceeds
    target. risk maps one level per record (an array of hi's shape) to
    their risks, and must not increase with the level.

    A record steps while its bracket is wider than the tolerance and its
    midpoint lies strictly inside it: above about 4.4e12 m one ulp is
    wider than the tolerance, and such a bracket stops shrinking.
    """
    hi = np.asarray(hi, dtype=float)
    found = ~(risk(hi) > target)
    lo = np.zeros(hi.shape)
    steps = np.zeros(hi.shape, dtype=int)
    active = found.copy()
    while True:
        mid = 0.5 * (lo + hi)
        active &= (hi - lo > PL_TOLERANCE_M) & (lo < mid) & (mid < hi)
        if not active.any():
            break
        up = risk(mid) > target
        lo = np.where(active & up, mid, lo)
        hi = np.where(active & ~up, mid, hi)
        steps += active
    return np.where(found, hi, np.nan), steps


@dataclass(frozen=True, eq=False)
class DetectorTable:
    """One axis's mode table: the tests of its detector and the rows both
    PLs of the axis read. Each tested fault mode, in mode order, has its
    S_k row Q on the axis, a statistic row and a threshold; modes[i]
    alerts on the observations y when |rows[i] . y| >= thresholds[i]
    (run_detector). The jk PL offsets each fault term by its mode's
    threshold. A table of a stack of geometries (model_core.SolutionStack)
    holds every record's rows and thresholds along leading axes, and the
    modes they share."""

    axis: int
    modes: tuple            # the tested FaultModes, in mode order
    Q: np.ndarray           # their S_k rows on the axis, (..., modes, n)
    rows: np.ndarray        # one statistic row per mode, (..., modes, n)
    thresholds: np.ndarray  # one threshold (m) per mode, (..., modes)
    skipped: tuple          # ids of untested (rank-deficient) modes

    @property
    def ids(self) -> tuple:
        # From a list, not a generator: tuple() reallocates a tuple grown
        # from a generator, and at a few calls per record that churn
        # raised the benchmark's peak RSS by about 1 MB.
        return tuple([m.id for m in self.modes])


def kept_modes(threat: ThreatModel, tests: DetectorTable, i_alloc: float,
               p_thres: float):
    """Which modes of the threat one integrity sum keeps, by one rule, in
    mode order:

    - a mode whose prior is at most i_alloc is skipped and budgeted at its
      prior;
    - a mode the table tests is kept;
    - an untested (rank-deficient) mode with prior above p_thres is
      unmonitorable: no finite PL exists, and the first such mode is
      reported;
    - any other untested mode is skipped and budgeted at
      min(prior, i_alloc).

    Returns (keep, skipped_mass, unmonitorable): keep flags the kept modes
    among tests.modes.
    """
    tested = set(tests.ids)
    skipped_mass, unmonitorable = 0.0, None
    for mode in threat.modes:
        if mode.prior <= i_alloc:
            skipped_mass += mode.prior
        elif mode.id in tested:
            continue
        elif mode.prior > p_thres:
            if unmonitorable is None:
                unmonitorable = mode
        else:
            skipped_mass += min(mode.prior, i_alloc)
    keep = np.array([m.prior > i_alloc for m in tests.modes], dtype=bool)
    return keep, skipped_mass, unmonitorable


def _jk_terms(ops, threat, acc_bounds, tests, budget):
    """The terms of the jk integrity sum on the axis of the mode table
    tests: the fault-free term, then the modes kept_modes keeps (satellite
    modes, then constellation modes), each fault term offset by its mode's
    threshold in tests (T_k |S_vk| for one satellite, T_k for more, D_k)
    plus its bias b_nom sum_i |S_k row_i|. One record's terms, or a
    stack's along leading axes.

    Returns (labels, offsets, bounds, risk, target, skipped_mass), or the
    label of the reason no finite PL exists. offsets are the thresholds
    plus the biases; bounds() gives each term's level at its share i_alloc
    of the budget; risk maps one level per record (an array of the
    stack's shape) to the summed monitored risk at each; target is
    allocate's deflated axis budget.
    """
    axis = tests.axis
    target, i_alloc, _, _ = allocate(budget, threat, axis)
    if target <= 0.0:
        return "unmonitored"
    keep, skipped_mass, unmonitorable = kept_modes(threat, tests, i_alloc,
                                                   budget.p_thres)
    if unmonitorable is not None:
        return f"unmonitorable:{unmonitorable.id}"

    modes = [m for m, k in zip(tests.modes, keep.tolist()) if k]
    n_sat = sum(m.kind == "sat_subset" for m in modes)
    Q = tests.Q[..., keep, :]
    s_row = ops.S[..., axis, :]
    single = np.array([m.kind == "sat_subset" and len(m.excluded) == 1
                       for m in modes], dtype=bool)
    first = np.array([min(m.excluded) for m in modes], dtype=int)
    scale = np.where(single, np.abs(s_row[..., first]), 1.0)
    offsets = np.concatenate((
        budget.b_nom * np.abs(s_row).sum(axis=-1)[..., None],
        tests.thresholds[..., keep] * scale
        + budget.b_nom * np.abs(Q).sum(axis=-1)), axis=-1)
    priors = np.array([threat.p_h0] + [m.prior for m in modes])
    # Rows of dists are the first n terms; the constellation terms (if
    # any) are Gaussians of the bounds' sigmas.
    dists = distkit.row_batches(
        np.concatenate((s_row[..., None, :], Q[..., :n_sat, :]), axis=-2),
        acc_bounds)
    n = 1 + n_sat
    const = None
    if len(modes) > n_sat:
        var = distkit.bound_sigmas(acc_bounds) ** 2
        const = distkit.GaussianBatch(
            np.sqrt(distkit.matvec(Q[..., n_sat:, :] ** 2, var)))

    def bounds():
        p = i_alloc / (2.0 * priors)
        q = dists.quantile(p[:n])
        if const is not None:
            q = np.concatenate((q, const.quantile(p[n:])), axis=-1)
        return np.abs(q) + offsets

    def risk(levels):
        x = levels[..., None] - offsets
        tails = dists.tail_prob(x[..., :n])
        if const is not None:
            tails = np.concatenate((tails, const.tail_prob(x[..., n:])),
                                   axis=-1)
        return np.cumsum(priors * tails, axis=-1)[..., -1]

    labels = ["H0"] + [f"mode:{m.id}" if m.kind == "sat_subset"
                       else f"const:{m.id}" for m in modes]
    return labels, offsets, bounds, risk, target, skipped_mass


def protection_levels(ops: SolutionStack, threat: ThreatModel, acc_bounds,
                      tests: DetectorTable, budget: IntegrityBudget):
    """The jk protection levels of a stack of geometries ops on the axis of
    its detector table tests (jackknife.thresholds), whose thresholds
    offset the fault-mode terms (_jk_terms). acc_bounds holds each
    satellite's accuracy bound: the bounds feed the convolutions and their
    sigmas (distkit.bound_sigmas) the constellation modes' terms. Each
    satellite's nominal bias is the budget's b_nom. Returns (levels,
    binding), one entry per record: the PLs and the label of the term that
    set each before the bisection.

    The equal-allocation per-mode max bound is computed first. When the
    skipped low-prior modes leave room inside the deflated budget, each
    level is then tightened by bisecting its summed monitored risk onto
    the budget (one bracket per record, all in one _bisect_level), which
    makes the risk bound tight rather than allocated.
    """
    terms = _jk_terms(ops, threat, acc_bounds, tests, budget)
    if isinstance(terms, str):
        shape = ops.S.shape[:-2]
        return np.full(shape, math.inf), np.full(shape, terms, dtype=object)
    labels, _, bounds, risk, target, skipped_mass = terms
    values = bounds()
    k = np.argmax(values, axis=-1)
    best = np.maximum(np.take_along_axis(values, k[..., None], -1)[..., 0],
                      0.0)
    target -= skipped_mass
    if target > 0.0:
        level = _bisect_level(risk, best, target)[0]
        best = np.where((best > 0.0) & ~np.isnan(level), level, best)
    return best, np.array(labels, dtype=object)[k]


def _require_gaussian(acc_bounds):
    """The baseline's terms are Gaussians of the bounds' sigmas, which
    understate a heavier-tailed bound's tails: refuse any other bound than
    a GaussianBatch."""
    if not isinstance(acc_bounds, distkit.GaussianBatch):
        raise NonGaussianBound(
            "the solution-separation baseline takes Gaussian accuracy "
            "bounds only")


def baseline_araim_pl(ops: SolutionStack, threat: ThreatModel, acc_bounds,
                      tests: DetectorTable, budget: IntegrityBudget):
    """Solution-separation protection levels of a stack of geometries ops
    on the axis of its separation table tests (jackknife.separation_table),
    by bisection on the total risk: one level per record, each bisecting
    its own bracket.

    The comparison benchmark, on Gaussian accuracy bounds only
    (NonGaussianBound otherwise): two-sided fault-free term, one-sided
    faulted terms, Gaussians of the bounds' sigmas. Each fault term reads
    its mode's S_k row (tests.Q) and is offset by the separation threshold
    of its row S_k - S (tests.rows) at allocate's c_alloc_axis, not by the
    table's thresholds. Every tested mode is kept (kept_modes with i_alloc
    0); an untested mode of prior above p_thres makes the PL infinite.
    Raises ValueError for a table whose rows are not S_k - S, such as the
    jackknife table of jackknife.thresholds.
    """
    _require_gaussian(acc_bounds)
    axis = tests.axis
    s_row = ops.S[..., axis, :]
    if not np.array_equal(tests.rows, tests.Q - s_row[..., None, :]):
        raise ValueError("baseline_araim_pl reads a separation table "
                         "(jackknife.separation_table): rows S_k - S")
    shape = s_row.shape[:-1]
    level = np.full(shape, math.inf)
    target, _, _, c_alloc = allocate(budget, threat, axis)
    if (target > 0.0
            and kept_modes(threat, tests, 0.0, budget.p_thres)[2] is None):
        var = distkit.bound_sigmas(acc_bounds) ** 2
        weights = np.array([2.0 * threat.p_h0]
                           + [m.prior for m in tests.modes])
        sigmas = np.sqrt(np.concatenate((
            np.sum(s_row ** 2 * var, axis=-1)[..., None],
            distkit.matvec(tests.Q ** 2, var)), axis=-1))
        offsets = np.concatenate((
            budget.b_nom * np.abs(s_row).sum(axis=-1)[..., None],
            abs(float(ndtri(c_alloc)))
            * np.sqrt(distkit.matvec(tests.rows ** 2, var))
            + budget.b_nom * np.abs(tests.Q).sum(axis=-1)), axis=-1)

        def risk(levels):
            # Fault-free term, then the faulted terms in mode order.
            return np.cumsum(weights * ndtr((offsets - levels[..., None])
                                            / sigmas), axis=-1)[..., -1]

        found = _bisect_level(risk, np.full(shape, 1.0e4), target)[0]
        level = np.where(np.isnan(found), math.inf, found)
    return level


def separation_tests(ops: SolutionStack, modes, acc_bounds, c_alloc: float,
                     axis: int = AXIS_UP) -> DetectorTable:
    """The solution-separation tests of the given modes on one axis, the
    satellite-subset modes first, then the constellation modes, each in
    mode order: rows S_k - S against D_k = |Phi^-1(c_alloc)| sigma_ss,k,
    sigma_ss,k the separation's sigma under Gaussians of the accuracy
    bounds' sigmas (distkit.bound_sigmas). A satellite-subset mode's S_k
    row comes from ops.mode_rows, a constellation mode's from ops.reduced
    (the solve without the excluded constellation's measurements and
    clock). Rank-deficient modes are left untested; any other failure
    propagates. The geometries of the stack ops must agree on which
    modes are rank deficient (MixedStack otherwise)."""
    sat = [m for m in modes if m.kind == "sat_subset"]
    ok, Q, _ = ops.mode_rows([m.excluded for m in sat], axis)
    ok = _shared(ok)
    tested = [m for m, good in zip(sat, ok.tolist()) if good]
    parts = [Q[..., ok, :]]
    for mode in modes:
        if mode.kind == "constellation":
            try:
                parts.append(ops.reduced(mode.excluded)[..., axis, None, :])
            except SubsetRankDeficient:
                continue
            tested.append(mode)
    Q = np.concatenate(parts, axis=-2)
    rows = Q - ops.S[..., axis, None, :]
    var = distkit.bound_sigmas(acc_bounds) ** 2
    ids = {m.id for m in tested}
    return DetectorTable(
        axis, tuple(tested), Q, rows,
        abs(float(ndtri(c_alloc))) * np.sqrt(distkit.matvec(rows ** 2, var)),
        tuple(m.id for m in modes if m.id not in ids))
