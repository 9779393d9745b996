"""Protection levels from the integrity-risk bounds, plus the
solution-separation benchmark. Both PLs and both detectors take their
budget splits from allocate. Each axis has one mode table (DetectorTable):
its detector runs the table, and its PL reads the table's S_k rows, with
the modes kept_modes keeps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

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


def _bisect_level(risk, hi, target):
    """Bisection on [0, hi] for the lowest level whose risk stays within
    target, to PL_TOLERANCE_M: hi (an array) holds one upper end per
    record and target one risk bound per record (or one for all), each
    record bisecting its own bracket. Returns (level, steps) of hi's
    shape, level NaN (and steps 0) where risk(hi) already exceeds the
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


class PlTable(NamedTuple):
    """A stack's PL terms on one axis: record b's risk at a level l sums,
    in term order, each term's weight times its tail beyond l - offset,
    two-sided for jk and one-sided for the baseline. hi holds each
    record's upper bracket; a record walk finds no level for (or does not
    walk, target not positive) reads hi for jk and inf for the baseline."""

    dists: object
    offsets: np.ndarray
    weights: np.ndarray
    target: float
    hi: np.ndarray
    jk: bool

    def risk(self, levels):
        x = levels[..., None] - self.offsets
        tails = self.dists.tail_prob(x) if self.jk else self.dists.cdf(-x)
        return np.cumsum(self.weights * tails, axis=-1)[..., -1]


def walk(tables):
    """Each PlTable's levels, all from one _bisect_level, each record to
    its own table's target. Several tables (all jk or all baseline) must
    hold Gaussian terms: they walk as one table, each of whose arrays is
    filled in place and padded to the widest with terms of weight 0,
    offset 0 and sigma 1. Each pad adds an exact 0.0 to a risk, so every
    level is its table's alone, bit for bit."""
    live = [t for t in tables if t.target > 0.0]
    joint = live[0] if live else None
    ends = np.cumsum([len(t.hi) for t in live])
    if len(live) > 1:
        width = max(t.offsets.shape[-1] for t in live)

        def cat(arrays, fill):
            out = np.full((ends[-1], width), fill)
            for a, t, end in zip(arrays, live, ends.tolist()):
                out[end - len(t.hi):end, :t.offsets.shape[-1]] = a
            return out

        joint = PlTable(
            distkit.GaussianBatch(cat([t.dists.sigma for t in live], 1.0)),
            cat([t.offsets for t in live], 0.0),
            cat([t.weights for t in live], 0.0),
            np.repeat([t.target for t in live], [len(t.hi) for t in live]),
            np.concatenate([t.hi for t in live]), joint.jk)
    if live:
        level = _bisect_level(joint.risk, joint.hi, joint.target)[0]
        parts = iter(np.split(level, ends))
    out = []
    for t in tables:
        none = t.hi if t.jk else np.full(t.hi.shape, math.inf)
        out.append(np.where(np.isnan(p := next(parts)), none, p)
                   if t.target > 0.0 else none)
    return out


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


class _Joined(distkit.DistBatch):
    """A record's n grid terms, then its Gaussian terms, as one DistBatch
    along the last axis."""

    def __init__(self, grids, gaussians, n):
        self.parts, self.n = (grids, gaussians), n

    def _each(self, method, x):
        return np.concatenate([getattr(d, method)(v) for d, v in zip(
            self.parts, (x[..., :self.n], x[..., self.n:]))], axis=-1)

    def cdf(self, x):
        return self._each("cdf", x)

    def quantile(self, p):
        return self._each("quantile", p)


def jk_terms(ops, threat, acc_bounds, tests, budget):
    """The terms of the jk integrity sum on the axis of the mode table
    tests: the fault-free term, then the modes kept_modes keeps (satellite
    modes, then constellation modes), each fault term offset by its mode's
    threshold in tests (T_k |S_vk| for one satellite, T_k for more, D_k)
    plus its bias b_nom sum_i |S_k row_i|. One record's terms, or a
    stack's along leading axes.

    Returns (labels, bounds, table, skipped_mass): each term's level at
    its share i_alloc of the budget, and the PlTable bisecting from the
    largest (at least 0) onto allocate's deflated axis budget less the
    mass of the modes kept_modes skips. Where no finite PL exists, the
    one label is the reason and every bound and level is infinite.
    """
    axis = tests.axis
    target, i_alloc, _, _ = allocate(budget, threat, axis)
    keep, skipped_mass, unmonitorable = kept_modes(threat, tests, i_alloc,
                                                   budget.p_thres)
    if target <= 0.0 or unmonitorable is not None:
        inf = np.full(ops.S.shape[:-2], math.inf)
        return (["unmonitored" if target <= 0.0
                 else f"unmonitorable:{unmonitorable.id}"], inf[..., None],
                PlTable(None, None, None, 0.0, inf, True), skipped_mass)

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
    # The first 1 + n_sat terms are rows over the bounds; the
    # constellation terms (if any) are Gaussians of the bounds' sigmas.
    dists = distkit.row_batches(
        np.concatenate((s_row[..., None, :], Q[..., :n_sat, :]), axis=-2),
        acc_bounds)
    if len(modes) > n_sat:
        var = distkit.bound_sigmas(acc_bounds) ** 2
        const = np.sqrt(distkit.matvec(Q[..., n_sat:, :] ** 2, var))
        dists = (distkit.GaussianBatch(np.concatenate((dists.sigma, const),
                                                      axis=-1))
                 if isinstance(dists, distkit.GaussianBatch)
                 else _Joined(dists, distkit.GaussianBatch(const), 1 + n_sat))
    bounds = np.abs(dists.quantile(i_alloc / (2.0 * priors))) + offsets
    labels = ["H0"] + [f"mode:{m.id}" if m.kind == "sat_subset"
                       else f"const:{m.id}" for m in modes]
    return labels, bounds, PlTable(
        dists, offsets, priors, target - skipped_mass,
        np.maximum(bounds.max(axis=-1), 0.0), True), skipped_mass


def protection_levels(ops: SolutionStack, threat: ThreatModel, acc_bounds,
                      tests: DetectorTable, budget: IntegrityBudget):
    """The jk protection levels of a stack of geometries ops on the axis of
    its detector table tests (jackknife.thresholds), whose thresholds
    offset the fault-mode terms (jk_terms). acc_bounds holds each
    satellite's accuracy bound: the bounds feed the convolutions and their
    sigmas (distkit.bound_sigmas) the constellation modes' terms. Each
    satellite's nominal bias is the budget's b_nom. Returns (levels,
    binding), one entry per record: the PLs and the label of the term that
    set each before the bisection.

    The equal-allocation per-mode max bound is computed first. When the
    skipped low-prior modes leave room inside the deflated budget, each
    level is then tightened by bisecting its summed monitored risk onto
    the budget (jk_terms' table, walked alone), which makes the risk bound
    tight rather than allocated.
    """
    labels, bounds, table, _ = jk_terms(ops, threat, acc_bounds, tests,
                                        budget)
    return (walk([table])[0],
            np.array(labels, dtype=object)[np.argmax(bounds, axis=-1)])


def _require_gaussian(acc_bounds):
    """The baseline's terms are Gaussians of the bounds' sigmas, which
    understate a heavier-tailed bound's tails: refuse any other bound than
    a GaussianBatch."""
    if not isinstance(acc_bounds, distkit.GaussianBatch):
        raise NonGaussianBound(
            "the solution-separation baseline takes Gaussian accuracy "
            "bounds only")


def baseline_table(ops: SolutionStack, threat: ThreatModel, acc_bounds,
                   tests: DetectorTable, budget: IntegrityBudget):
    """baseline_araim_pl's PlTable: each record bisects [0, 1e4 m], and
    none where allocate's axis target is not positive or an untested
    mode's prior exceeds p_thres."""
    _require_gaussian(acc_bounds)
    axis = tests.axis
    s_row = ops.S[..., axis, :]
    if not np.array_equal(tests.rows, tests.Q - s_row[..., None, :]):
        raise ValueError("baseline_araim_pl reads a separation table "
                         "(jackknife.separation_table): rows S_k - S")
    hi = np.full(s_row.shape[:-1], 1.0e4)
    target, _, _, c_alloc = allocate(budget, threat, axis)
    if not (target > 0.0
            and kept_modes(threat, tests, 0.0, budget.p_thres)[2] is None):
        return PlTable(None, None, None, 0.0, hi, False)
    var = distkit.bound_sigmas(acc_bounds) ** 2
    # Fault-free term (two-sided, so of weight 2 P_H0), then the faulted
    # terms in mode order.
    weights = np.array([2.0 * threat.p_h0] + [m.prior for m in tests.modes])
    sigmas = np.sqrt(np.concatenate((
        np.sum(s_row ** 2 * var, axis=-1)[..., None],
        distkit.matvec(tests.Q ** 2, var)), axis=-1))
    offsets = np.concatenate((
        budget.b_nom * np.abs(s_row).sum(axis=-1)[..., None],
        abs(float(ndtri(c_alloc)))
        * np.sqrt(distkit.matvec(tests.rows ** 2, var))
        + budget.b_nom * np.abs(tests.Q).sum(axis=-1)), axis=-1)
    return PlTable(distkit.GaussianBatch(sigmas), offsets, weights, target,
                   hi, False)


def baseline_araim_pl(ops: SolutionStack, threat: ThreatModel, acc_bounds,
                      tests: DetectorTable, budget: IntegrityBudget):
    """Solution-separation protection levels of a stack of geometries ops
    on the axis of its separation table tests (jackknife.separation_table),
    by bisection on the total risk (baseline_table, walked alone): one
    level per record, each bisecting its own bracket.

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
    return walk([baseline_table(ops, threat, acc_bounds, tests, budget)])[0]


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
