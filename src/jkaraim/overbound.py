"""Gaussian and Principal-Gaussian overbound fitting and verification."""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from functools import cached_property
from importlib import resources

import numpy as np
from scipy.special import ndtr, ndtri

from .distkit import Gaussian, Pgo, _norm_pdf
from .errors import (EmConvergenceFailure, EmptySample, NoValidPartition)

# Empirical CDF levels within this distance of 1/2 are excluded from
# dominance constraints. Near the median the order statistics carry no
# tail information and their level noise scales like the level offset
# itself, which would let a handful of near-zero samples dictate the
# fitted sigma. The paired b_nom shift covers the median region.
MEDIAN_EXCLUSION = 0.1

# Empirical levels are relaxed toward the median by one binomial standard
# error before they constrain the bound. Without it the fit is a max over
# noisy order-statistic ratios and lands a few percent above the true
# bound, dominated by the deepest tail points.
NOISE_ALLOWANCE_Z = 1.0


@dataclass
class OverboundReport:
    fitted: object
    max_core_violation: float   # signed; <= 0 means the bound holds left of 0
    max_tail_violation: float   # signed; right-of-0 counterpart
    sample_count: int

    @property
    def noise_band(self) -> float:
        """95% DKW band of the empirical CDF; violations inside it are
        indistinguishable from sampling noise."""
        return float(np.sqrt(np.log(2.0 / 0.05) / (2.0 * self.sample_count)))

    @property
    def passes(self) -> bool:
        band = self.noise_band
        return (self.max_core_violation <= band
                and self.max_tail_violation <= band)


@dataclass(frozen=True)
class SatelliteBound:
    svn: str
    category: str               # T / O / G
    mean_cm: float
    std_cm: float
    gauss_sigma_m: float
    sigma1_m: float
    sigma2_m: float
    p1: float
    xrp_m: float

    @property
    def constellation(self) -> str:
        return "GAL" if self.svn.startswith("GSAT") else "GPS"

    def gaussian(self) -> Gaussian:
        return Gaussian(self.gauss_sigma_m)

    def pgo(self) -> Pgo:
        """The entry's PGO, built on first use and kept: both the entry
        and the Pgo are immutable."""
        return self._pgo

    @cached_property
    def _pgo(self) -> Pgo:
        return build_pgo((self.p1, self.sigma1_m, self.sigma2_m), self.xrp_m)


def default_table() -> dict:
    """Bound table shipped with the package: its 30 GPS and 24 Galileo
    SatelliteBounds, keyed by svn."""
    ref = resources.files("jkaraim.data").joinpath("satellite_bounds.csv")
    names = [f.name for f in fields(SatelliteBound)]
    with ref.open(newline="") as fh:
        return {r["svn"]: SatelliteBound(r["svn"], r["category"],
                                         *(float(r[k]) for k in names[2:]))
                for r in csv.DictReader(fh)}


def _prep_samples(samples, min_count, symmetrize=False):
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < min_count:
        raise EmptySample(f"need at least {min_count} samples, got {x.size}")
    x = x - x.mean()
    if symmetrize:
        x = np.concatenate([np.abs(x), -np.abs(x)])
    return np.sort(x)


def fit_gaussian_overbound(samples, symmetrize=False) -> float:
    """Smallest sigma whose zero-mean Gaussian CDF dominates the empirical
    CDF left of zero and is dominated right of zero.

    The binding constraints sit at the sample points, which gives a closed
    form: sigma = max over constraints x_i / ndtri(q_i).
    """
    x = _prep_samples(samples, 1000, symmetrize)
    n = x.size
    i = np.arange(1, n + 1)
    sigma = 0.0
    # Dominance is enforced against the empirical CDF between its jumps:
    # left of zero the bound must clear the pre-jump level (i-1)/n, right
    # of zero it must stay under the post-jump level i/n. Levels inside
    # the median exclusion band carry no tail information and are order-
    # statistic noise; the paired b_nom shift covers that region.
    q = (i - 1) / n
    qe = q - NOISE_ALLOWANCE_Z * np.sqrt(q * (1.0 - q) / n)
    mask = (x < 0) & (qe > 0) & (q < 0.5 - MEDIAN_EXCLUSION)
    if np.any(mask):
        sigma = max(sigma, float(np.max(x[mask] / ndtri(qe[mask]))))
    q = i / n
    qe = q + NOISE_ALLOWANCE_Z * np.sqrt(q * (1.0 - q) / n)
    mask = (x > 0) & (q > 0.5 + MEDIAN_EXCLUSION) & (qe < 1)
    if np.any(mask):
        sigma = max(sigma, float(np.max(x[mask] / ndtri(qe[mask]))))
    if sigma <= 0:
        raise EmptySample("samples carry no usable tail information")
    return sigma


def fit_bgmm(samples, max_iter=3000, tol=1e-8):
    """Zero-mean two-component Gaussian mixture via EM.

    Returns (p1, sigma1, sigma2) with sigma1 <= sigma2. Both component
    means are pinned at zero; only weights and variances are updated.
    """
    x = _prep_samples(samples, 10 ** 4)
    s = x.std()
    p1, s1, s2 = 0.9, 0.5 * s, 2.0 * s
    prev_ll = -np.inf
    for _ in range(max_iter):
        f1 = p1 * _norm_pdf(x, s1)
        f2 = (1.0 - p1) * _norm_pdf(x, s2)
        tot = f1 + f2
        ll = float(np.sum(np.log(tot)))
        r = f1 / tot
        w = r.sum()
        p1 = float(np.clip(w / x.size, 1e-9, 1.0 - 1e-9))
        s1 = float(np.sqrt(np.maximum((r * x ** 2).sum() / np.maximum(w, 1e-300),
                                      1e-12)))
        s2 = float(np.sqrt(np.maximum(((1 - r) * x ** 2).sum()
                                      / np.maximum(x.size - w, 1e-300),
                                      1e-12)))
        if abs(ll - prev_ll) < tol * max(1.0, abs(ll)):
            if s1 > s2:
                p1, s1, s2 = 1.0 - p1, s2, s1
            return p1, s1, s2
        prev_ll = ll
    raise EmConvergenceFailure(f"EM did not converge in {max_iter} iterations")


def default_partition_point(p1, s1, s2):
    """Positive abscissa where the two components' posterior membership
    weights are equal."""
    num = 2.0 * np.log((p1 * s2) / ((1.0 - p1) * s1))
    den = 1.0 / s1 ** 2 - 1.0 / s2 ** 2
    if num <= 0 or den <= 0:
        raise NoValidPartition("no crossover point for these parameters")
    return float(np.sqrt(num / den))


def build_pgo(bgmm, x_rp=None) -> Pgo:
    """Solve the tail gain and core offset from density continuity at x_rp
    and unit total mass, yielding a valid Pgo."""
    p1, s1, s2 = bgmm
    if x_rp is None:
        x_rp = default_partition_point(p1, s1, s2)
    if x_rp <= 0:
        raise NoValidPartition("x_rp must be positive")
    f1 = _norm_pdf(x_rp, s1)
    f2 = _norm_pdf(x_rp, s2)
    q2 = 1.0 - ndtr(x_rp / s2)         # per-side tail mass of N(0,s2)
    core1 = 2.0 * ndtr(x_rp / s1) - 1.0
    # Unknowns (k, c):
    #   continuity: c - k*(1-p1)*f2 = (1-p1)*f2 - p1*f1
    #   unit mass:  2*x_rp*c + k*(1-p1)*2*q2 = 1 - p1*core1 - (1-p1)*2*q2
    A = np.array([[-(1.0 - p1) * f2, 1.0],
                  [2.0 * (1.0 - p1) * q2, 2.0 * x_rp]])
    b = np.array([(1.0 - p1) * f2 - p1 * f1,
                  1.0 - p1 * core1 - (1.0 - p1) * 2.0 * q2])
    k, c = np.linalg.solve(A, b)
    if (1.0 + k) * (1.0 - p1) <= 0:
        raise NoValidPartition("negative tail coefficient")
    if p1 * f1 + c < 0:
        raise NoValidPartition("core density dips below zero at x_rp")
    return Pgo(p1=p1, sigma1=s1, sigma2=s2, k_gain=float(k),
               c_offset=float(c), x_rp=float(x_rp))


def verify_overbound(candidate, samples) -> OverboundReport:
    """Signed worst-case violations of two-sided CDF dominance against the
    empirical CDF of the samples.

    Positive core violation: the candidate's CDF falls below the empirical
    CDF somewhere left of zero. Positive tail violation: it sits above the
    empirical CDF somewhere right of zero.
    """
    x = _prep_samples(samples, 10 ** 3)
    n = x.size
    i = np.arange(1, n + 1)
    cand = candidate.cdf(x)
    # Same between-jump convention, median exclusion band and binomial
    # noise allowance as the fit: compare against (i-1)/n on the left of
    # zero and i/n on the right, each relaxed by one standard error,
    # skipping levels too close to 1/2 to carry tail information.
    ql = (i - 1) / n
    ql = ql - NOISE_ALLOWANCE_Z * np.sqrt(ql * (1.0 - ql) / n)
    qr = i / n
    qr = qr + NOISE_ALLOWANCE_Z * np.sqrt(qr * (1.0 - qr) / n)
    left = (x < 0) & ((i - 1) / n < 0.5 - MEDIAN_EXCLUSION)
    right = (x >= 0) & (i / n > 0.5 + MEDIAN_EXCLUSION)
    core = float(np.max(ql[left] - cand[left])) \
        if np.any(left) else -np.inf
    tail = float(np.max(cand[right] - qr[right])) \
        if np.any(right) else -np.inf
    return OverboundReport(candidate, core, tail, n)
