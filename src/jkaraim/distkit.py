"""Zero-mean 1-D error distributions and exact-shape linear combinations.

Provides analytic distributions (Gaussian, bimodal Gaussian mixture, and the
piecewise Principal-Gaussian form), a numeric grid carrier for the
distribution of weighted sums of independent errors, and CDF inversion down
to tail probabilities of 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def _sample_core(self, rng, n):
        """Exact draws from the core piece p1*N(0,s1)+c on [-x_rp, x_rp]."""
        a = self.x_rp / self.sigma1
        phi_lo, phi_hi = ndtr(-a), ndtr(a)
        if self.c_offset >= 0:
            # Mixture of a truncated Gaussian and a uniform slab.
            w_gauss = self.p1 * (phi_hi - phi_lo)
            w_unif = 2.0 * self.c_offset * self.x_rp
            pick = rng.random(n) * (w_gauss + w_unif) < w_gauss
            u = rng.random(n)
            gauss = self.sigma1 * ndtri(phi_lo + u * (phi_hi - phi_lo))
            unif = (2.0 * u - 1.0) * self.x_rp
            return np.where(pick, gauss, unif)
        # Negative offset: rejection from the truncated Gaussian; the
        # acceptance ratio stays in [0, 1] because the density is
        # non-negative at x_rp.
        out = np.empty(n)
        todo = np.arange(n)
        while todo.size:
            u = rng.random(todo.size)
            x = self.sigma1 * ndtri(phi_lo + u * (phi_hi - phi_lo))
            dens = self.p1 * _norm_pdf(x, self.sigma1)
            keep = rng.random(todo.size) * dens < dens + self.c_offset
            out[todo[keep]] = x[keep]
            todo = todo[~keep]
        return out

    def sample(self, rng: np.random.Generator, size=None):
        n = 1 if size is None else int(np.prod(size))
        tail_side = self.tail_coeff * ndtr(-self.x_rp / self.sigma2)
        in_tail = rng.random(n) < 2.0 * tail_side
        out = self._sample_core(rng, n)
        n_tail = int(in_tail.sum())
        if n_tail:
            u = rng.random(n_tail)
            mag = -self.sigma2 * ndtri(u * ndtr(-self.x_rp / self.sigma2))
            sign = np.where(rng.random(n_tail) < 0.5, -1.0, 1.0)
            out[in_tail] = sign * mag
        if size is None:
            return float(out[0])
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
        pdf = np.clip(np.asarray(pdf, dtype=float), 0.0, None)
        self.x = np.asarray(x, dtype=float)
        self.h = float(self.x[1] - self.x[0])
        mass = np.trapezoid(pdf, dx=self.h)
        if mass <= 0:
            raise ValueError("grid carries no probability mass")
        self.pdf_grid = pdf / mass
        cdf = np.concatenate(
            ([0.0],
             np.cumsum(0.5 * (self.pdf_grid[1:] + self.pdf_grid[:-1])
                       * self.h)))
        self.cdf_grid = cdf / cdf[-1]
        self.tail_sigma = float(tail_sigma)
        self._support_extra = float(support_extra)
        # The continuation is scaled so its density matches pdf[0] at -L.
        phi0 = _norm_pdf(self.x[0], self.tail_sigma)
        self._tail_scale = float(self.pdf_grid[0]) / phi0 if phi0 > 0 else 0.0

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


def convolve_batch(coeff_matrix, dists, n_points=4096, n_sigmas=12.0,
                   force_grid=False):
    """scaled_convolve for many coefficient rows over one set of component
    distributions, on a shared grid.

    All-Gaussian component sets short-circuit to closed-form Gaussians
    unless force_grid is set. Returns one distribution per row.
    """
    C = np.asarray(coeff_matrix, dtype=float)
    if C.ndim != 2 or C.shape[1] != len(dists):
        raise ValueError("coefficient matrix shape mismatch")
    if not force_grid and all(isinstance(d, Gaussian) for d in dists):
        var = np.array([d.sigma ** 2 for d in dists])
        return [Gaussian(float(np.sqrt(s))) for s in (C ** 2) @ var]
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
        a = np.abs(cj[nz])[:, None]
        vals = d.pdf(xw[None, :] / a) / a
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
    extras = np.abs(C) @ np.array([d.support_extra for d in dists])
    return [GridDistribution(x, lin[i, sl], tail[i], extras[i])
            for i in range(C.shape[0])]
