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
from scipy.fft import dct
from scipy.special import ndtr, ndtri

from .errors import GridOverflow, TailUnresolved

# Maximum half-width (m) a convolution grid may request.
MAX_GRID_HALFWIDTH = 1.0e5

DEFAULT_GRID_POINTS = 2 ** 16

# Standard deviations a convolution grid's half-width covers, besides the
# components' support_extra.
_GRID_SIGMAS = 12.0

_SQRT_2PI = np.sqrt(2.0 * np.pi)

# exp(-z^2 / 2) underflows to exactly 0.0 in float64 for z above 38.604;
# the extra 0.006 covers the rounding of z.
_UNDERFLOW_Z = 38.61


def _norm_pdf(x, sigma):
    z = np.asarray(x / sigma)
    z *= z
    z *= -0.5
    np.exp(z, out=z)
    z /= sigma * _SQRT_2PI
    return z[()]


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

    @property
    def _reach(self) -> float:
        """|x| past which the density is exactly 0.0 in float64: every
        Gaussian piece has underflowed there, and every non-Gaussian piece
        ended."""
        return _UNDERFLOW_Z * self.dominant_sigma() + self.support_extra

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
        """Density, each Gaussian piece evaluated only on its own side of
        x_rp."""
        x = np.asarray(x, dtype=float)
        core = np.abs(x) <= self.x_rp
        out = np.empty(x.shape)
        out[core] = self.p1 * _norm_pdf(x[core], self.sigma1) + self.c_offset
        out[~core] = self.tail_coeff * _norm_pdf(x[~core], self.sigma2)
        return out

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
    """One row of a GridBatch: a numeric distribution on a uniform
    symmetric grid with a conservative analytic Gaussian continuation
    beyond +-L. Its cdf and quantile are those of the one-row batch."""

    def __init__(self, x: np.ndarray, pdf: np.ndarray, tail_sigma: float,
                 support_extra: float = 0.0):
        self._view(GridBatch(x, np.asarray(pdf, dtype=float)[None, :],
                             [tail_sigma], [support_extra]), 0)

    @classmethod
    def _row(cls, batch, i):
        """Row i of a GridBatch, sharing its arrays."""
        self = cls.__new__(cls)
        self._view(batch, i)
        return self

    def _view(self, batch, i):
        self._rows, self._i = batch, i
        self._one = batch._take(i)
        self.x, self.h = self._one.x, self._one.h
        self.pdf_grid, self.cdf_grid = batch.pdf_grid[i], batch.cdf_grid[i]
        self.tail_sigma = float(batch.tail_sigma[i])
        self._support_extra = float(batch.support_extra[i])
        self._tail_scale = float(batch.tail_scale[i])

    @property
    def support_extra(self) -> float:
        return self._support_extra

    @property
    def _reach(self) -> float:
        """|x| past which the density is exactly 0.0 in float64: the grid
        edge, or the continuation's _UNDERFLOW_Z tail sigmas when it has
        a scale."""
        edge = float(self.x[-1])
        if self._tail_scale > 0.0:
            return max(edge, _UNDERFLOW_Z * self.tail_sigma)
        return edge

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
        return float(self._rows._variances[self._i])

    def dominant_sigma(self) -> float:
        return self.tail_sigma

    def cdf(self, x):
        return self._one.cdf(np.asarray(x, dtype=float)[..., None])[..., 0]

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        out = self._one.quantile(p[..., None])[..., 0]
        return float(out) if p.ndim == 0 else out


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


def _interp_rows(v, xp, fp):
    """np.interp(v[..., i], xp[i], fp[i]) for every row i, bit for bit, for
    v inside [xp[i, 0], xp[i, -1]]. v may hold several points per row (the
    rows along its last axis); a 1-D xp or fp is one grid shared by all
    rows; xp rows must be non-decreasing."""
    n = xp.shape[-1]
    if xp.ndim == 1:
        j = np.searchsorted(xp, v, side="right") - 1
    else:
        j = np.count_nonzero(xp <= v[..., None], axis=-1) - 1
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
        """Quantile of row i at p[..., i]: a scalar, one probability per
        row, or several (along the leading axes)."""
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
    """Grid rows on symmetric grids x, one shared grid (1-D x) or one grid
    per row (x rows x points): a rows x points matrix of densities and one
    of CDFs, each row with its own Gaussian tail continuation tail_scale *
    N(0, tail_sigma) beyond +-L, matched to the row's edge density. The
    continuation carries edge_mass = tail_scale * Phi(-L / tail_sigma)
    beyond each edge, so the CDF is edge_mass + (1 - 2 edge_mass) *
    cdf_grid inside the grid, without a jump at +-L."""

    def __init__(self, x, pdf, tail_sigma, support_extra):
        self.x = np.asarray(x, dtype=float)
        h = self.x[..., 1] - self.x[..., 0]
        self.h = float(h) if self.x.ndim == 1 else h
        self.pdf_grid, self.cdf_grid = _normalise(
            np.asarray(pdf, dtype=float), np.reshape(h, (-1, 1)))
        self.tail_sigma = np.array(tail_sigma, dtype=float)
        self.support_extra = np.array(support_extra, dtype=float)
        # The continuation matches each row's density at the grid edge x0;
        # its scale is zero where the Gaussian underflows there.
        x0 = self.x[..., 0]
        phi0 = _norm_pdf(x0, self.tail_sigma)
        with np.errstate(divide="ignore", invalid="ignore"):
            self.tail_scale = np.where(phi0 > 0,
                                       self.pdf_grid[:, 0] / phi0, 0.0)
        self.edge_mass = self.tail_scale * ndtr(x0 / self.tail_sigma)

    @cached_property
    def _variances(self):
        """Row variances: trapezoid integrals of x^2 times the density."""
        return np.trapezoid(self.x ** 2 * self.pdf_grid,
                            dx=np.reshape(self.h, (-1, 1)), axis=1)

    def __len__(self):
        return len(self.pdf_grid)

    def __getitem__(self, i):
        return GridDistribution._row(self, i)

    def _take(self, i):
        """Row i as a one-row GridBatch on its grid, sharing the arrays."""
        one = GridBatch.__new__(GridBatch)
        one.x, one.h = ((self.x, self.h) if self.x.ndim == 1
                        else (self.x[i], float(self.h[i])))
        for name in ("pdf_grid", "cdf_grid", "tail_sigma", "support_extra",
                     "tail_scale", "edge_mass"):
            setattr(one, name, getattr(self, name)[i:i + 1])
        return one

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        lo_x, hi_x = self.x[..., 0], self.x[..., -1]
        m = self.edge_mass
        inside = m + (1.0 - 2.0 * m) * _interp_rows(np.clip(x, lo_x, hi_x),
                                                    self.x, self.cdf_grid)
        lo = self.tail_scale * ndtr(np.minimum(x, lo_x) / self.tail_sigma)
        hi = 1.0 - self.tail_scale * ndtr(-np.maximum(x, hi_x)
                                          / self.tail_sigma)
        return np.where(x < lo_x, lo, np.where(x > hi_x, hi, inside))

    def quantile(self, p):
        p, row = np.broadcast_arrays(np.asarray(p, dtype=float),
                                     np.arange(len(self)))
        if np.any(p <= 0.0) or np.any(p >= 1.0):
            raise ValueError("p must lie strictly inside (0, 1)")
        out = np.empty(p.shape)
        m, scale = self.edge_mass[row], self.tail_scale[row]
        # Without a continuation the grid resolves no tail below the mass
        # of its first cell.
        cont = scale > 0.0
        p_lo = np.where(cont, m, self.cdf_grid[row, 1])
        p_hi = np.where(cont, 1.0 - m, self.cdf_grid[row, -2])
        mid = (p >= p_lo) & (p <= p_hi)
        if mid.any():
            x = self.x if self.x.ndim == 1 else self.x[row[mid]]
            out[mid] = _interp_rows((p[mid] - m[mid]) / (1.0 - 2.0 * m[mid]),
                                    self.cdf_grid[row[mid]], x)
        for mask, sign in ((p < p_lo, -1.0), (p > p_hi, 1.0)):
            if not np.any(mask):
                continue
            q = p[mask] if sign < 0 else 1.0 - p[mask]
            if np.any(scale[mask] <= 0.0) or np.any(q <= 0.0):
                raise TailUnresolved(
                    "tail probability below resolvable mass of the grid")
            arg = q / scale[mask]
            if np.any(arg <= 0.0) or np.any(arg >= 1.0):
                raise TailUnresolved(
                    "tail probability below resolvable mass of the grid")
            out[mask] = sign * (-self.tail_sigma[row[mask]] * ndtri(arg))
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


def _row_sums(t):
    """Sum along each row of t, added left to right."""
    return np.cumsum(t, axis=1)[:, -1]


def scaled_convolve(coeffs, dists, n_points=DEFAULT_GRID_POINTS,
                    force_grid=False, n_sigmas=_GRID_SIGMAS):
    """Distribution of sum_j coeffs[j] * eps_j for independent eps_j: the
    one-row case of convolve_batch, over the components whose coefficient
    is nonzero. Returns a Gaussian (Gaussian-only inputs, unless
    force_grid is set) or a GridDistribution on a symmetric grid of
    n_points+1 samples.
    """
    if len(coeffs) != len(dists):
        raise ValueError("coeffs and dists must have equal length")
    active = [(float(c), d) for c, d in zip(coeffs, dists) if c != 0.0]
    if not active:
        raise ValueError("at least one coefficient must be nonzero")
    coeffs, dists = zip(*active)
    return convolve_batch([coeffs], dists, n_points=n_points,
                          n_sigmas=n_sigmas, force_grid=force_grid)[0]


def _scaled_pdf(d, n, h, a):
    """d.pdf(k * h / a) / a for k = 0..n and each coefficient magnitude
    a[i] (a column), bit for bit: the half of the even sequence on the
    grid x = k * h that a convolution transforms.

    d is evaluated only short of its _reach, past which it is zero: an
    analytic d row by row, each row up to its own k_max; a grid d on every
    row up to the largest k_max, its continuation only short of _reach
    and beyond the grid edge. Evaluating exp(-z^2 / 2) where it underflows
    to 0.0 takes numpy's slow path, tens of times slower per element.
    """
    vals = np.zeros((len(a), n + 1))
    if not isinstance(d, GridDistribution):
        for out, ai in zip(vals, a[:, 0]):
            _sample_row(d, out, h, ai)
        return vals
    k_max = min(n, int(d._reach * float(a.max()) / h) + 2)
    u = np.arange(k_max + 1) * h / a
    out = vals[:, :k_max + 1]
    inside = u <= d.x[-1]
    out[inside] = np.interp(u[inside], d.x, d.pdf_grid)
    tail = ~inside & (u < d._reach)
    out[tail] = d._tail_scale * _norm_pdf(u[tail], d.tail_sigma)
    out /= a
    return vals


def _sample_row(d, out, h, a):
    """out[k] = d.pdf(k * h / a) / a for an analytic d, bit for bit, for k
    up to d's _reach; past it out keeps its zeros."""
    k_max = min(len(out) - 1, int(d._reach * a / h) + 2)
    out[:k_max + 1] = d.pdf(np.arange(k_max + 1) * h / a) / a


def _convolve_half(parts, h, n_rows, n_points):
    """Symmetric convolution of even components sampled on half grids.

    parts gives, for each component, the rows it enters (a boolean mask,
    or None for every row) and its samples there on x = k * h, k =
    0..n_points (_scaled_pdf); h is one spacing for every row or one per
    row. Returns the grid x = k * h, |k| <= n_points / 2 (1-D, or one row
    per row) and the density rows on it, not yet normalised.

    Every sequence transformed is even, so its DFT is real (symmetric
    convolution, Martucci 1994): a sample row's type-I DCT is the DFT of
    its even sequence of period 2 * n_points, the spectra multiply as real
    arrays, and one inverse DCT-I (the forward one divided by 2 *
    n_points) gives the half of the convolution that is mirrored into an
    exactly symmetric output row.
    """
    spec = np.ones((n_rows, n_points + 1))
    hpow = np.ones(n_rows)
    step = np.broadcast_to(h, n_rows)
    for rows, samples in parts:
        f = dct(samples, type=1, axis=1, overwrite_x=True)
        if rows is None:
            spec *= f
            hpow *= step
        else:
            spec[rows] *= f
            hpow[rows] *= step[rows]
    hpow /= step * (2 * n_points)  # h^(n_active - 1), and the inverse's scale
    spec *= hpow[:, None]
    n_half = n_points // 2
    half = dct(spec, type=1, axis=1, overwrite_x=True)[:, :n_half + 1]
    x = np.multiply.outer(h, np.arange(-n_half, n_half + 1))
    return x, np.concatenate((half[:, :0:-1], half), axis=1)


def convolve_batch(coeff_matrix, dists, n_points=4096, n_sigmas=_GRID_SIGMAS,
                   force_grid=False):
    """Distributions of sum_j C[i, j] eps_j for every coefficient row i
    over one set of independent zero-mean symmetric components, on a
    shared grid.

    Returns one DistBatch: a GaussianBatch when every component is
    Gaussian (closed-form variance sums) unless force_grid is set, else a
    GridBatch on the grid x = k * h, |k| <= n_points / 2, whose half-width
    covers n_sigmas standard deviations plus the support_extra of every
    row.
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

    def parts():
        for j, d in enumerate(dists):
            nz = C[:, j] != 0.0
            if nz.any():
                yield (None if nz.all() else nz,
                       _scaled_pdf(d, n_points, h, np.abs(C[nz, j])[:, None]))

    x, pdf = _convolve_half(parts(), h, C.shape[0], n_points)
    # The tail sigma of a row sums its nonzero terms left to right.
    dom = np.array([d.dominant_sigma() ** 2 for d in dists])
    return GridBatch(x, pdf, np.sqrt(_row_sums(C * C * dom)),
                     np.abs(C) @ extra)


def convolve_rows(rows, n_points=4096):
    """Distributions of the sums eps_i1 + eps_i2 + ... of independent
    zero-mean symmetric analytic components, one per row i, each row on
    its own grid.

    Row i is what scaled_convolve([1, 1, ...], rows[i], n_points,
    force_grid=True) gives, bit for bit: half-width L_i of 12 standard
    deviations of the sum (convolve_batch's n_sigmas) plus its components'
    support_extra, and spacing h_i = 2 L_i / n_points. Each component is
    sampled on its row's spacing, short of its _reach, and one multi-row
    DCT-I per component column and one inverse serve all rows.

    Returns a GridBatch whose rows each have their own grid.
    """
    rows = [tuple(r) for r in rows]
    if not rows or len({len(r) for r in rows}) != 1:
        raise ValueError("rows must be non-empty and of equal length")
    # Left to right, as convolve_batch's one-row matrix products add them.
    var = _row_sums([[d.variance() for d in r] for r in rows])
    extra = _row_sums([[d.support_extra for d in r] for r in rows])
    L = _GRID_SIGMAS * np.sqrt(var) + extra
    if np.any(L > MAX_GRID_HALFWIDTH):
        raise GridOverflow(
            f"requested half-width {L.max():.3g} m exceeds maximum")
    h = 2.0 * L / n_points

    def parts():
        for j in range(len(rows[0])):
            samples = np.zeros((len(rows), n_points + 1))
            for r, step, out in zip(rows, h, samples):
                _sample_row(r[j], out, step, 1.0)
            yield None, samples

    x, pdf = _convolve_half(parts(), h, len(rows), n_points)
    dom = _row_sums([[d.dominant_sigma() ** 2 for d in r] for r in rows])
    return GridBatch(x, pdf, np.sqrt(dom), extra)
