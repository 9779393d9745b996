"""Zero-mean 1-D error distributions and exact-shape linear combinations.

Provides analytic distributions (Gaussian, bimodal Gaussian mixture, and the
piecewise Principal-Gaussian form), a numeric grid carrier for the
distribution of weighted sums of independent errors, and CDF inversion down
to tail probabilities of 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import GridOverflow, TailUnresolved

# Maximum half-width (m) a convolution grid may request.
MAX_GRID_HALFWIDTH = 1.0e5

DEFAULT_GRID_POINTS = 2 ** 16

_SQRT_2PI = np.sqrt(2.0 * np.pi)

# exp(-z^2 / 2) underflows to exactly 0.0 in float64 for z above 38.6.
_UNDERFLOW_Z = 39.0


def _norm_pdf(x, sigma):
    return np.exp(-0.5 * (x / sigma) ** 2) / (sigma * _SQRT_2PI)


class ErrorDistribution:
    """Common interface of the analytic zero-mean symmetric distributions."""

    def pdf(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def variance(self) -> float:
        raise NotImplementedError

    def dominant_sigma(self) -> float:
        """Sigma of the widest Gaussian component; used for conservative
        analytic tail continuation of convolution grids."""
        raise NotImplementedError

    @property
    def support_extra(self) -> float:
        """Non-Gaussian support allowance added to sigma-based grid sizing."""
        return 0.0

    def quantile(self, p):
        """Inverse CDF, valid for 0 < p < 1 (p down to 1e-9)."""
        return _bisect_quantile(self.cdf, np.asarray(p, dtype=float),
                                self.dominant_sigma())

    def sample(self, rng: np.random.Generator, size=None):
        """Inverse-CDF sampling; reproducible for a seeded generator."""
        u = rng.random(size)
        return self.quantile(u)


@dataclass(frozen=True)
class Gaussian(ErrorDistribution):
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def pdf(self, x):
        return _norm_pdf(np.asarray(x, dtype=float), self.sigma)

    def cdf(self, x):
        return ndtr(np.asarray(x, dtype=float) / self.sigma)

    def variance(self):
        return self.sigma ** 2

    def dominant_sigma(self):
        return self.sigma

    def quantile(self, p):
        return self.sigma * ndtri(np.asarray(p, dtype=float))


@dataclass(frozen=True)
class Bgmm(ErrorDistribution):
    """Zero-mean two-component Gaussian mixture, sigma1 <= sigma2."""

    p1: float
    sigma1: float
    sigma2: float

    def __post_init__(self):
        if not (0.0 < self.p1 < 1.0):
            raise ValueError("p1 must lie in (0, 1)")
        if self.sigma1 <= 0 or self.sigma2 <= 0:
            raise ValueError("sigmas must be positive")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return (self.p1 * _norm_pdf(x, self.sigma1)
                + (1.0 - self.p1) * _norm_pdf(x, self.sigma2))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return (self.p1 * ndtr(x / self.sigma1)
                + (1.0 - self.p1) * ndtr(x / self.sigma2))

    def variance(self):
        return self.p1 * self.sigma1 ** 2 + (1.0 - self.p1) * self.sigma2 ** 2

    def dominant_sigma(self):
        return max(self.sigma1, self.sigma2)

    def sample(self, rng: np.random.Generator, size=None):
        # Component-wise sampling is exact and fast for a plain mixture.
        n = int(np.prod(size)) if size is not None else 1
        pick1 = rng.random(n) < self.p1
        z = rng.standard_normal(n)
        out = np.where(pick1, z * self.sigma1, z * self.sigma2)
        if size is None:
            return float(out[0])
        return out.reshape(size)


@dataclass(frozen=True)
class Pgo(ErrorDistribution):
    """Principal Gaussian form: core p1*N(0,s1) + c for |x| <= x_rp and an
    inflated tail (1+k)(1-p1)*N(0,s2) for |x| > x_rp."""

    p1: float
    sigma1: float
    sigma2: float
    k_gain: float
    c_offset: float
    x_rp: float

    def __post_init__(self):
        if not (0.0 < self.p1 < 1.0):
            raise ValueError("p1 must lie in (0, 1)")
        if self.sigma1 <= 0 or self.sigma2 <= 0:
            raise ValueError("sigmas must be positive")
        if self.x_rp <= 0:
            raise ValueError("x_rp must be positive")
        if self.tail_coeff <= 0:
            raise ValueError("tail coefficient must be positive")

    @property
    def tail_coeff(self) -> float:
        return (1.0 + self.k_gain) * (1.0 - self.p1)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        core = self.p1 * _norm_pdf(x, self.sigma1) + self.c_offset
        tail = self.tail_coeff * _norm_pdf(x, self.sigma2)
        return np.where(np.abs(x) <= self.x_rp, core, tail)

    def _cdf_left(self, x):
        # CDF for x <= 0 only.
        x = np.asarray(x, dtype=float)
        f_rp = self.tail_coeff * ndtr(-self.x_rp / self.sigma2)
        in_core = x > -self.x_rp
        core = (f_rp
                + self.p1 * (ndtr(x / self.sigma1)
                             - ndtr(-self.x_rp / self.sigma1))
                + self.c_offset * (x + self.x_rp))
        tail = self.tail_coeff * ndtr(x / self.sigma2)
        return np.where(in_core, core, tail)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        left = self._cdf_left(-np.abs(x))
        return np.where(x <= 0, left, 1.0 - left)

    def variance(self):
        a1 = self.x_rp / self.sigma1
        a2 = self.x_rp / self.sigma2
        # E[x^2; |x|<=a] of N(0,s) = s^2*(1 - 2a*phi(a) - 2Q(a)) ... expanded:
        core_norm = self.sigma1 ** 2 * (
            (2.0 * ndtr(a1) - 1.0) - 2.0 * a1 * _norm_pdf(a1, 1.0))
        tail_norm = self.sigma2 ** 2 * 2.0 * (
            a2 * _norm_pdf(a2, 1.0) + (1.0 - ndtr(a2)))
        return (self.p1 * core_norm
                + self.c_offset * (2.0 / 3.0) * self.x_rp ** 3
                + self.tail_coeff * tail_norm)

    def dominant_sigma(self):
        return max(self.sigma1, self.sigma2)

    @property
    def support_extra(self):
        return self.x_rp

    @cached_property
    def _draw(self):
        """Sampler constants, computed on first use: (phi_lo, span) of the
        truncated core's CDF, the core's Gaussian weight and total weight,
        the two-sided tail mass and the one-sided tail mass of N(0, s2)."""
        a = self.x_rp / self.sigma1
        phi_lo, phi_hi = ndtr(-a), ndtr(a)
        w_gauss = self.p1 * (phi_hi - phi_lo)
        f_rp = ndtr(-self.x_rp / self.sigma2)
        return (phi_lo, phi_hi - phi_lo, w_gauss,
                w_gauss + 2.0 * self.c_offset * self.x_rp,
                2.0 * (self.tail_coeff * f_rp), f_rp)

    def _sample_core(self, rng, n):
        """Exact draws from the core piece p1*N(0,s1)+c on [-x_rp, x_rp]."""
        phi_lo, span, w_gauss, w_total, _, _ = self._draw
        if self.c_offset >= 0:
            # Mixture of a truncated Gaussian and a uniform slab.
            pick = rng.random(n) * w_total < w_gauss
            u = rng.random(n)
            gauss = self.sigma1 * ndtri(phi_lo + u * span)
            unif = (2.0 * u - 1.0) * self.x_rp
            return np.where(pick, gauss, unif)
        # Negative offset: rejection from the truncated Gaussian; the
        # acceptance ratio stays in [0, 1] because the density is
        # non-negative at x_rp.
        out = np.empty(n)
        todo = np.arange(n)
        while todo.size:
            u = rng.random(todo.size)
            x = self.sigma1 * ndtri(phi_lo + u * span)
            dens = self.p1 * _norm_pdf(x, self.sigma1)
            keep = rng.random(todo.size) * dens < dens + self.c_offset
            out[todo[keep]] = x[keep]
            todo = todo[~keep]
        return out

    def _sample_one(self, rng):
        """One draw of sample(rng, size=1) through scalar generator calls:
        the same calls in the same order, the same arithmetic."""
        phi_lo, span, w_gauss, w_total, p_tail, f_rp = self._draw
        in_tail = rng.random() < p_tail
        if self.c_offset >= 0:
            pick = rng.random() * w_total < w_gauss
            u = rng.random()
            x = (self.sigma1 * ndtri(phi_lo + u * span) if pick
                 else (2.0 * u - 1.0) * self.x_rp)
        else:
            while True:
                x = self.sigma1 * ndtri(phi_lo + rng.random() * span)
                z = x / self.sigma1
                # _norm_pdf, with the square its array form takes.
                dens = self.p1 * (np.exp(-0.5 * (z * z))
                                  / (self.sigma1 * _SQRT_2PI))
                if rng.random() * dens < dens + self.c_offset:
                    break
        if in_tail:
            mag = -self.sigma2 * ndtri(rng.random() * f_rp)
            x = -mag if rng.random() < 0.5 else mag
        return float(x)

    def sample(self, rng: np.random.Generator, size=None):
        if size is None:
            return self._sample_one(rng)
        *_, p_tail, f_rp = self._draw
        n = int(np.prod(size))
        in_tail = rng.random(n) < p_tail
        out = self._sample_core(rng, n)
        n_tail = int(in_tail.sum())
        if n_tail:
            u = rng.random(n_tail)
            mag = -self.sigma2 * ndtri(u * f_rp)
            sign = np.where(rng.random(n_tail) < 0.5, -1.0, 1.0)
            out[in_tail] = sign * mag
        return out.reshape(size)


@dataclass(frozen=True)
class PairedBound:
    """Symmetric +-b_nom shift of a base bound's CDF branches, producing a
    median plateau of width 2*b_nom."""

    base: ErrorDistribution
    b_nom: float

    def __post_init__(self):
        if self.b_nom < 0:
            raise ValueError("b_nom must be non-negative")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        lo = self.base.cdf(x + self.b_nom)
        hi = self.base.cdf(x - self.b_nom)
        out = np.where(lo < 0.5, lo, np.where(hi > 0.5, hi, 0.5))
        return out

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        q = self.base.quantile(p)
        return np.where(p < 0.5, q - self.b_nom,
                        np.where(p > 0.5, q + self.b_nom, 0.0))

    def sample(self, rng: np.random.Generator, size=None):
        return self.quantile(rng.random(size))


class GridDistribution:
    """Numeric distribution on a uniform symmetric grid with a conservative
    analytic Gaussian continuation beyond +-L."""

    def __init__(self, x: np.ndarray, pdf: np.ndarray, tail_sigma: float,
                 support_extra: float = 0.0):
        self.x = np.asarray(x, dtype=float)
        self.h = float(self.x[1] - self.x[0])
        pdf_grid, cdf_grid = _normalise(np.asarray(pdf, dtype=float)[None, :],
                                        self.h)
        self.pdf_grid, self.cdf_grid = pdf_grid[0], cdf_grid[0]
        self.tail_sigma = float(tail_sigma)
        self._support_extra = float(support_extra)
        self._tail_scale = _continuation_scale(self.pdf_grid[0], self.x[0],
                                               self.tail_sigma)

    @classmethod
    def _row(cls, batch, i):
        """Row i of a GridBatch, sharing its arrays."""
        self = cls.__new__(cls)
        self.x, self.h = batch.x, batch.h
        self.pdf_grid, self.cdf_grid = batch.pdf_grid[i], batch.cdf_grid[i]
        self.tail_sigma = float(batch.tail_sigma[i])
        self._support_extra = float(batch.support_extra[i])
        self._tail_scale = float(batch.tail_scale[i])
        return self

    @property
    def support_extra(self) -> float:
        return self._support_extra

    def pdf(self, x):
        """Interpolated density; analytic Gaussian continuation outside.

        The continuation is evaluated only short of _UNDERFLOW_Z tail
        sigmas; beyond, it is exactly 0.0 in float64 anyway."""
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        inside = ax <= self.x[-1]
        tail = ~inside & (ax < _UNDERFLOW_Z * self.tail_sigma)
        out = np.zeros(x.shape)
        out[inside] = np.interp(x[inside], self.x, self.pdf_grid)
        out[tail] = self._tail_scale * _norm_pdf(x[tail], self.tail_sigma)
        return out

    @property
    def half_width(self) -> float:
        return float(-self.x[0])

    def variance(self) -> float:
        if not hasattr(self, "_var"):
            self._var = float(np.trapezoid(self.x ** 2 * self.pdf_grid,
                                           dx=self.h))
        return self._var

    def dominant_sigma(self) -> float:
        return self.tail_sigma

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = np.interp(x, self.x, self.cdf_grid)
        lo = self._tail_scale * ndtr(np.minimum(x, self.x[0]) / self.tail_sigma)
        hi = 1.0 - self._tail_scale * ndtr(-np.maximum(x, self.x[-1])
                                           / self.tail_sigma)
        out = np.where(x < self.x[0], lo, np.where(x > self.x[-1], hi, inside))
        return out

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        scalar = p.ndim == 0
        p = np.atleast_1d(p)
        if np.any(p <= 0.0) or np.any(p >= 1.0):
            raise ValueError("p must lie strictly inside (0, 1)")
        out = np.empty_like(p)
        p_lo = float(self.cdf_grid[1])
        p_hi = float(self.cdf_grid[-2])
        mid = (p >= p_lo) & (p <= p_hi)
        out[mid] = np.interp(p[mid], self.cdf_grid, self.x)
        for mask, sign in ((p < p_lo, -1.0), (p > p_hi, 1.0)):
            if not np.any(mask):
                continue
            q = np.where(sign < 0, p[mask], 1.0 - p[mask])
            if self._tail_scale <= 0.0 or np.any(q <= 0.0):
                raise TailUnresolved(
                    "tail probability below resolvable mass of the grid")
            arg = q / self._tail_scale
            if np.any(arg <= 0.0) or np.any(arg >= 1.0):
                raise TailUnresolved(
                    "tail probability below resolvable mass of the grid")
            out[mask] = sign * (-self.tail_sigma * ndtri(arg))
        return float(out[0]) if scalar else out

    def sample(self, rng: np.random.Generator, size=None):
        return self.quantile(rng.random(size))


def _normalise(pdf, h):
    """Density rows (rows x points) clipped at zero and scaled to unit
    trapezoid mass, and their trapezoid CDF rows, ending at exactly 1."""
    pdf = np.clip(pdf, 0.0, None)
    mass = np.trapezoid(pdf, dx=h, axis=1)
    if np.any(mass <= 0):
        raise ValueError("grid carries no probability mass")
    pdf = pdf / mass[:, None]
    cdf = np.zeros(pdf.shape)
    np.cumsum(0.5 * (pdf[:, 1:] + pdf[:, :-1]) * h, axis=1, out=cdf[:, 1:])
    return pdf, cdf / cdf[:, -1:]


def _continuation_scale(pdf0, x0, tail_sigma):
    """Scale of the Gaussian continuation that matches the density pdf0 at
    the grid edge x0; zero when the Gaussian underflows there."""
    phi0 = _norm_pdf(x0, tail_sigma)
    return float(pdf0) / phi0 if phi0 > 0 else 0.0


def _interp_rows(v, xp, fp):
    """np.interp(v[..., i], xp[i], fp[i]) for every row i, bit for bit, for
    v inside [xp[i, 0], xp[i, -1]]. A 1-D xp or fp is one grid shared by
    all rows, and then v may hold several points per row (the rows along
    its last axis); xp rows must be non-decreasing."""
    n = xp.shape[-1]
    if xp.ndim == 1:
        j = np.searchsorted(xp, v, side="right") - 1
    else:
        j = np.count_nonzero(xp <= v[:, None], axis=1) - 1
    last = j >= n - 1
    j = np.clip(j, 0, n - 2)
    rows = np.arange(v.shape[-1])

    def at(a, k):
        return a[k] if a.ndim == 1 else a[rows, k]

    x0, x1, f0, f1 = at(xp, j), at(xp, j + 1), at(fp, j), at(fp, j + 1)
    # Same formula and special cases as np.interp. Its fallback for a NaN
    # slope is left out: x0 <= v < x1 on every point kept, so no kept slope
    # is NaN; a repeated last node only makes a discarded lane divide by 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (f1 - f0) / (x1 - x0) * (v - x0) + f0
    return np.where(last, f1, np.where(v == x0, f0, out))


class DistBatch:
    """Distributions of many weighted sums of one set of independent
    errors: row i is the distribution of sum_j C[i, j] eps_j.

    What convolve_batch returns. Indexing and iteration give the row
    distributions (Gaussian or GridDistribution); cdf, tail_prob and
    quantile evaluate every row at once, equal bit for bit to the same
    call on each row.
    """

    def __len__(self):
        raise NotImplementedError

    def __getitem__(self, i):
        raise NotImplementedError

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def cdf(self, x):
        """CDF of row i at x[..., i]: one point per row, or several (along
        the leading axes)."""
        raise NotImplementedError

    def quantile(self, p):
        """Quantile of row i at p, a scalar or one probability per row."""
        raise NotImplementedError

    def tail_prob(self, x):
        """Two-sided tail P(|X_i| >= x[..., i]) of the symmetric rows: 1
        where x <= 0, else 2 F_i(-x)."""
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0, 1.0, 2.0 * self.cdf(-x))


class GaussianBatch(DistBatch):
    """Zero-mean Gaussian rows, one sigma each."""

    def __init__(self, sigma):
        self.sigma = np.asarray(sigma, dtype=float)
        if np.any(self.sigma <= 0):
            raise ValueError("sigma must be positive")

    def __len__(self):
        return len(self.sigma)

    def __getitem__(self, i):
        return Gaussian(float(self.sigma[i]))

    def cdf(self, x):
        return ndtr(np.asarray(x, dtype=float) / self.sigma)

    def quantile(self, p):
        return self.sigma * ndtri(np.asarray(p, dtype=float))


class GridBatch(DistBatch):
    """Grid rows on one shared symmetric grid x: a rows x points matrix of
    densities and one of CDFs, each row with its own Gaussian tail
    continuation (tail_sigma, tail_scale) as in GridDistribution."""

    def __init__(self, x, pdf, tail_sigma, support_extra):
        self.x = np.asarray(x, dtype=float)
        self.h = float(self.x[1] - self.x[0])
        self.pdf_grid, self.cdf_grid = _normalise(
            np.asarray(pdf, dtype=float), self.h)
        self.tail_sigma = np.array(tail_sigma, dtype=float)
        self.support_extra = np.array(support_extra, dtype=float)
        self.tail_scale = np.array(
            [_continuation_scale(p0, self.x[0], s) for p0, s in
             zip(self.pdf_grid[:, 0], self.tail_sigma.tolist())])

    def __len__(self):
        return len(self.pdf_grid)

    def __getitem__(self, i):
        return GridDistribution._row(self, i)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        lo_x, hi_x = self.x[0], self.x[-1]
        inside = _interp_rows(np.clip(x, lo_x, hi_x), self.x, self.cdf_grid)
        lo = self.tail_scale * ndtr(np.minimum(x, lo_x) / self.tail_sigma)
        hi = 1.0 - self.tail_scale * ndtr(-np.maximum(x, hi_x)
                                          / self.tail_sigma)
        return np.where(x < lo_x, lo, np.where(x > hi_x, hi, inside))

    def quantile(self, p):
        p = np.broadcast_to(np.asarray(p, dtype=float), (len(self),))
        if np.any(p <= 0.0) or np.any(p >= 1.0):
            raise ValueError("p must lie strictly inside (0, 1)")
        out = np.empty(len(self))
        p_lo, p_hi = self.cdf_grid[:, 1], self.cdf_grid[:, -2]
        mid = (p >= p_lo) & (p <= p_hi)
        if mid.any():
            out[mid] = _interp_rows(p[mid], self.cdf_grid[mid], self.x)
        for mask, sign in ((p < p_lo, -1.0), (p > p_hi, 1.0)):
            if not np.any(mask):
                continue
            q = p[mask] if sign < 0 else 1.0 - p[mask]
            scale = self.tail_scale[mask]
            if np.any(scale <= 0.0) or np.any(q <= 0.0):
                raise TailUnresolved(
                    "tail probability below resolvable mass of the grid")
            arg = q / scale
            if np.any(arg <= 0.0) or np.any(arg >= 1.0):
                raise TailUnresolved(
                    "tail probability below resolvable mass of the grid")
            out[mask] = sign * (-self.tail_sigma[mask] * ndtri(arg))
        return out


def _bisect_quantile(cdf, p, scale, iters=80):
    """Vectorized bisection inverse of a monotone CDF."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    lo = np.full(p.shape, -40.0 * scale)
    hi = np.full(p.shape, 40.0 * scale)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        c = cdf(mid)
        take_hi = c < p
        lo = np.where(take_hi, mid, lo)
        hi = np.where(take_hi, hi, mid)
    out = 0.5 * (lo + hi)
    return out if out.size > 1 else float(out[0])


def _support_halfwidth(coeffs, dists, n_sigmas=12.0):
    var = 0.0
    extra = 0.0
    for c, d in zip(coeffs, dists):
        if c == 0.0:
            continue
        var += c * c * d.variance()
        extra += abs(c) * d.support_extra
    return n_sigmas * np.sqrt(var) + extra


def _tail_sigma(coeffs, dists):
    var = 0.0
    for c, d in zip(coeffs, dists):
        if c != 0.0:
            var += c * c * d.dominant_sigma() ** 2
    return np.sqrt(var)


def _wrapped_grid(n_points):
    """Index grid in FFT (wrap-around) order; index 0 maps to x=0."""
    n_half = n_points // 2
    padded = 2 * n_points
    m = np.arange(padded)
    idx = ((m + padded // 2) % padded) - padded // 2
    return idx, n_half, padded


def scaled_convolve(coeffs, dists, n_points=DEFAULT_GRID_POINTS,
                    force_grid=False, n_sigmas=12.0):
    """Distribution of sum_j coeffs[j] * eps_j for independent eps_j.

    Gaussian-only inputs short-circuit to the closed-form variance sum
    unless force_grid is set. Returns a GridDistribution on a symmetric
    grid of n_points+1 samples.
    """
    coeffs = [float(c) for c in coeffs]
    if len(coeffs) != len(dists):
        raise ValueError("coeffs and dists must have equal length")
    active = [(c, d) for c, d in zip(coeffs, dists) if c != 0.0]
    if not active:
        raise ValueError("at least one coefficient must be nonzero")
    coeffs = [c for c, _ in active]
    dists = [d for _, d in active]

    if not force_grid and all(isinstance(d, Gaussian) for d in dists):
        return Gaussian(float(np.sqrt(sum((c * d.sigma) ** 2
                                          for c, d in zip(coeffs, dists)))))

    L = _support_halfwidth(coeffs, dists, n_sigmas)
    if L > MAX_GRID_HALFWIDTH:
        raise GridOverflow(f"requested half-width {L:.3g} m exceeds maximum")
    h = 2.0 * L / n_points
    idx, n_half, padded = _wrapped_grid(n_points)
    xw = idx * h

    spec = None
    for c, d in zip(coeffs, dists):
        vals = d.pdf(xw / abs(c)) / abs(c)
        f = np.fft.rfft(vals)
        spec = f if spec is None else spec * f
    pdf_w = np.fft.irfft(spec * (h ** (len(coeffs) - 1)), n=padded)
    # Back to linear order, keep the central symmetric n_points+1 samples.
    lin = np.fft.fftshift(pdf_w)
    center = padded // 2
    sl = slice(center - n_half, center + n_half + 1)
    x = (np.arange(-n_half, n_half + 1)) * h
    extra = sum(abs(c) * d.support_extra for c, d in zip(coeffs, dists))
    return GridDistribution(x, lin[sl], _tail_sigma(coeffs, dists), extra)


def _scaled_pdf(d, xw, a):
    """d.pdf(xw / a) / a for each coefficient magnitude a[i] (a column)
    over the wrapped grid xw = idx * h of _wrapped_grid, bit for bit.

    A grid component is evaluated only for |idx| <= k_max, past which it
    is zero on every row: beyond its grid edge and beyond _UNDERFLOW_Z tail
    sigmas of its continuation (at the edge already when the continuation's
    scale is zero). Both signs of idx share |x| = (|idx| h) / a, and the
    continuation, even in x, is computed once for both.
    """
    if not isinstance(d, GridDistribution):
        return d.pdf(xw[None, :] / a) / a
    padded = len(xw)
    n = padded // 2
    h = xw[1]            # xw = idx * h and idx[1] = 1
    edge = float(d.x[-1])
    reach = edge
    if d._tail_scale > 0.0:
        reach = max(edge, _UNDERFLOW_Z * d.tail_sigma)
    k_max = min(n, int(reach * float(a.max()) / h) + 2)
    u = np.arange(k_max + 1) * h / a
    inside = u <= edge
    pos = np.zeros(u.shape)
    neg = np.zeros(u.shape)
    ui = u[inside]
    pos[inside] = np.interp(ui, d.x, d.pdf_grid)
    neg[inside] = np.interp(-ui, d.x, d.pdf_grid)
    if d._tail_scale > 0.0:
        tail = ~inside & (u < _UNDERFLOW_Z * d.tail_sigma)
        cont = d._tail_scale * _norm_pdf(u[tail], d.tail_sigma)
        pos[tail] = cont
        neg[tail] = cont
    vals = np.zeros((len(a), padded))
    top = min(k_max, n - 1)
    vals[:, :top + 1] = pos[:, :top + 1] / a
    vals[:, padded - k_max:] = neg[:, k_max:0:-1] / a
    return vals


def convolve_batch(coeff_matrix, dists, n_points=4096, n_sigmas=12.0,
                   force_grid=False):
    """scaled_convolve for many coefficient rows over one set of component
    distributions, on a shared grid.

    Returns one DistBatch: a GaussianBatch when every component is
    Gaussian (closed-form variance sums) unless force_grid is set, else a
    GridBatch.
    """
    C = np.asarray(coeff_matrix, dtype=float)
    if C.ndim != 2 or C.shape[1] != len(dists):
        raise ValueError("coefficient matrix shape mismatch")
    if not force_grid and all(isinstance(d, Gaussian) for d in dists):
        var = np.array([d.sigma ** 2 for d in dists])
        return GaussianBatch(np.sqrt((C ** 2) @ var))
    var = np.array([d.variance() for d in dists])
    extra = np.array([d.support_extra for d in dists])
    L = float(np.max(n_sigmas * np.sqrt((C ** 2) @ var)
                     + np.abs(C) @ extra))
    if L > MAX_GRID_HALFWIDTH:
        raise GridOverflow(f"requested half-width {L:.3g} m exceeds maximum")
    h = 2.0 * L / n_points
    idx, n_half, padded = _wrapped_grid(n_points)
    xw = idx * h
    tail = [_tail_sigma(row, dists) for row in C]

    spec = np.ones((C.shape[0], padded // 2 + 1), dtype=complex)
    hpow = np.full(C.shape[0], 1.0)
    for j, d in enumerate(dists):
        cj = C[:, j]
        nz = cj != 0.0
        if not np.any(nz):
            continue
        vals = _scaled_pdf(d, xw, np.abs(cj[nz])[:, None])
        if nz.all():
            spec *= np.fft.rfft(vals, axis=1)
        else:
            spec[nz] *= np.fft.rfft(vals, axis=1)
        hpow[nz] *= h
    hpow /= h  # h^(n_active - 1)
    pdf_w = np.fft.irfft(spec * hpow[:, None], n=padded, axis=1)
    lin = np.fft.fftshift(pdf_w, axes=1)
    center = padded // 2
    sl = slice(center - n_half, center + n_half + 1)
    x = np.arange(-n_half, n_half + 1) * h
    return GridBatch(x, lin[:, sl], tail, np.abs(C) @ extra)
