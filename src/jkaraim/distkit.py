"""Zero-mean 1-D error distributions and exact-shape linear combinations.

Provides analytic distributions (Gaussian and the piecewise
Principal-Gaussian form), a numeric grid carrier for the
distribution of weighted sums of independent errors, and CDF inversion down
to tail probabilities of 1e-9.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.fft import dct
from scipy.special import ndtr, ndtri

from .errors import GridOverflow, TailUnresolved

# Maximum half-width (m) a convolution grid may request.
MAX_GRID_HALFWIDTH = 1.0e5

# Grid intervals of every convolution the library runs: the resolution of
# the accuracy bounds, the statistic distributions and the PL terms.
GRID_POINTS = 2048

# Standard deviations a convolution grid's half-width covers, besides the
# components' support_extra.
_GRID_SIGMAS = 12.0

# Period of a convolution's transforms, in grid half-widths L. Each
# component is sampled on x = k * h, k = 0..M with M = _PERIOD * n_points /
# 4 (out to 1.5 L), and its DCT-I of M + 1 points is the DFT of its even
# sequence of period 2 M h = 3 L. The output keeps |x| <= L, so what wraps
# around into it is the row's density beyond 2 L, 24 of its sigmas out,
# and only adds mass; samples beyond 1.5 L reach |x| <= L only through the
# other components' mass beyond 0.5 L.
_PERIOD = 3

_SQRT_2PI = np.sqrt(2.0 * np.pi)

# exp(-z^2 / 2) underflows to exactly 0.0 in float64 for z above 38.604;
# the extra 0.006 covers the rounding of z.
_UNDERFLOW_Z = 38.61

# A convolution samples each density only where it is at least _TAU times
# its peak (a Gaussian out to _TAU_Z = 21.46 sigmas): a transform rounds at
# about 1e-16 of the peak, 80 orders of magnitude above what is left out.
_TAU = 1e-100
_TAU_Z = float(np.sqrt(-2.0 * np.log(_TAU)))


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
        """|x| past which the density is below _TAU times its peak: every
        Gaussian piece is over _TAU_Z of its sigmas out, and every
        non-Gaussian piece has ended."""
        return _TAU_Z * self.dominant_sigma() + self.support_extra

    def quantile(self, p):
        """Inverse CDF, valid for 0 < p < 1 (p down to 1e-9)."""
        return _bisect_quantile(self.cdf, np.asarray(p, dtype=float),
                                self.dominant_sigma())


@dataclass(frozen=True)
class Gaussian(ErrorDistribution):
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    _density = staticmethod(_norm_pdf)

    def _params(self):
        return (self.sigma,)

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

    def sample(self, rng: np.random.Generator, size=None):
        return self.sigma * rng.standard_normal(size)


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

    def _params(self):
        return (self.p1, self.sigma1, self.c_offset, self.tail_coeff,
                self.sigma2, self.x_rp)

    @staticmethod
    def _density(x, p1, sigma1, c_offset, tail_coeff, sigma2, x_rp):
        """Density at x of the Pgo of these _params, scalars or arrays
        that broadcast against x: each point evaluates the Gaussian piece
        of its own side of x_rp only."""
        core = np.abs(x) <= x_rp
        f = _norm_pdf(x, np.where(core, sigma1, sigma2))
        return np.where(core, p1 * f + c_offset, tail_coeff * f)

    def pdf(self, x):
        return self._density(np.asarray(x, dtype=float), *self._params())

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
    def draw_params(self):
        """Sampler constants (sample_pgo), computed on first use: p1,
        sigma1, sigma2, c_offset, x_rp, then (phi_lo, span) of the
        truncated core's CDF, the core's Gaussian weight and total
        weight, the two-sided tail mass and the one-sided tail mass of
        N(0, s2)."""
        a = self.x_rp / self.sigma1
        phi_lo, phi_hi = ndtr(-a), ndtr(a)
        w_gauss = self.p1 * (phi_hi - phi_lo)
        f_rp = ndtr(-self.x_rp / self.sigma2)
        return np.array([self.p1, self.sigma1, self.sigma2, self.c_offset,
                         self.x_rp, phi_lo, phi_hi - phi_lo, w_gauss,
                         w_gauss + 2.0 * self.c_offset * self.x_rp,
                         2.0 * (self.tail_coeff * f_rp), f_rp])

    def sample(self, rng: np.random.Generator, size=None):
        """Draws of the given size (a float when size is None), each
        uniform from rng.random in sample_pgo's order."""
        n = 1 if size is None else int(np.prod(size))
        out = sample_pgo(np.broadcast_to(self.draw_params[:, None],
                                         (len(self.draw_params), n)),
                         lambda slot, idx, rnd=0: rng.random(idx.size))
        return float(out[0]) if size is None else out.reshape(size)


# Draw slots of sample_pgo's uniforms: the tail choice, the core's
# mixture choice, the core draw, the rejection test, the tail magnitude
# and its sign. A counter-keyed source tells the draws apart by them.
TAIL, PICK, CORE, ACCEPT, MAGNITUDE, SIGN = range(6)
PGO_SLOTS = SIGN + 1


def sample_pgo(params, uniform):
    """One draw from each of the Pgos whose draw_params are the columns
    of params (11 x m); uniform(slot, idx, rnd) returns a U(0, 1) draw
    for each of the columns idx, in the given slot and rejection round.

    Each draw picks the tail with probability p_tail. The core is p1 N(0,
    s1) + c on [-x_rp, x_rp]: with c >= 0, a mixture of the truncated
    Gaussian and a uniform slab; with c < 0, rejection from the truncated
    Gaussian, whose acceptance ratio stays in [0, 1] because the density
    is non-negative at x_rp. A tail draw is a magnitude of N(0, s2) beyond
    x_rp with a random sign. The uniforms come in this order, slot by
    slot and round by round, so a generator's stream is used as
    Pgo.sample has always used it.
    """
    (p1, s1, s2, c, x_rp, phi_lo, span, w_gauss, w_total, p_tail,
     f_rp) = params
    out = np.empty(params.shape[1])
    in_tail = uniform(TAIL, np.arange(out.size)) < p_tail
    mix = np.flatnonzero(c >= 0.0)
    if mix.size:
        pick = uniform(PICK, mix) * w_total[mix] < w_gauss[mix]
        u = uniform(CORE, mix)
        out[mix] = np.where(pick, s1[mix] * ndtri(phi_lo[mix] + u * span[mix]),
                            (2.0 * u - 1.0) * x_rp[mix])
    todo, rnd = np.flatnonzero(c < 0.0), 0
    while todo.size:
        x = s1[todo] * ndtri(phi_lo[todo] + uniform(CORE, todo, rnd)
                             * span[todo])
        dens = p1[todo] * _norm_pdf(x, s1[todo])
        keep = uniform(ACCEPT, todo, rnd) * dens < dens + c[todo]
        out[todo[keep]] = x[keep]
        todo, rnd = todo[~keep], rnd + 1
    tail = np.flatnonzero(in_tail)
    if tail.size:
        mag = -s2[tail] * ndtri(uniform(MAGNITUDE, tail) * f_rp[tail])
        out[tail] = np.where(uniform(SIGN, tail) < 0.5, -1.0, 1.0) * mag
    return out


_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def splitmix64(z):
    """The SplitMix64 output function (Steele, Lea and Flood, OOPSLA
    2014) of each element of the uint64 array z, modulo 2^64."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def counter_uniforms(keys, counters):
    """U(0, 1) draws that are pure functions of (key, counter), uint64
    arrays that broadcast: the counter-th SplitMix64 output of the stream
    seeded with key, z = splitmix64(key + counter * 0x9E3779B97F4A7C15),
    as ((z >> 11) + 0.5) * 2^-53, which is never 0 or 1."""
    z = splitmix64(keys + counters * _GOLDEN_GAMMA)
    return ((z >> np.uint64(11)).astype(float) + 0.5) * 2.0 ** -53


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

    @cached_property
    def _reach(self) -> float:
        """|x| past which the density is below _TAU times its peak: the grid
        edge, or where the continuation falls to that level, if further."""
        level = _TAU * self.pdf_grid.max() * self.tail_sigma * _SQRT_2PI
        return max(float(self.x[-1]), self.tail_sigma * float(
            np.sqrt(2.0 * np.log(max(self._tail_scale / level, 1.0)))))

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
    trapezoid mass in place, and their trapezoid CDF rows, which end at 1.

    The cell terms are worked out inside the CDF array, with np.trapezoid's
    and the cumulative sum's arithmetic, so that no temporary of the
    grid's size is allocated: once the heap's top has been returned to
    the system, each such temporary touches fresh pages (page faults)."""
    np.clip(pdf, 0.0, None, out=pdf)
    cdf = np.empty(pdf.shape)
    cells = cdf[:, 1:]
    np.add(pdf[:, 1:], pdf[:, :-1], out=cells)
    np.multiply(h, cells, out=cells)
    cells /= 2.0
    mass = cells.sum(axis=1)
    if np.any(mass <= 0):
        raise ValueError("grid carries no probability mass")
    pdf /= mass[:, None]
    np.add(pdf[:, 1:], pdf[:, :-1], out=cells)
    cells *= 0.5
    cells *= h
    np.cumsum(cells, axis=1, out=cells)
    cdf[:, 0] = 0.0
    cdf /= cdf[:, -1:]
    return pdf, cdf


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
    """Zero-mean Gaussian rows, one sigma each (last axis), for one record
    or a stack of records along leading axes. A scenario's stacked
    Gaussian accuracy bounds are one too: sigma (records, satellites)."""

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


class OneRecord(DistBatch):
    """One record's DistBatch as a stack of one record, the record axis
    second to last: cdf reads x[..., 0, :], and cdf and quantile return
    the record's values, bit for bit, with that axis of length 1 added."""

    def __init__(self, batch):
        self.batch = batch

    def cdf(self, x):
        return self.batch.cdf(np.asarray(x, dtype=float)[..., 0, :])[
            ..., None, :]

    def quantile(self, p):
        return self.batch.quantile(p)[..., None, :]


class GridBatch(DistBatch):
    """Grid rows on symmetric grids x, one shared grid (1-D x) or one grid
    per row (x rows x points): a rows x points matrix of densities and one
    of CDFs, each row with its own Gaussian tail continuation tail_scale *
    N(0, tail_sigma) beyond +-L, matched to the row's edge density. The
    continuation carries edge_mass = tail_scale * Phi(-L / tail_sigma)
    beyond each edge, so the CDF is edge_mass + (1 - 2 edge_mass) *
    cdf_grid inside the grid's lower half, without a jump at -L, and
    1 - F(-x) above zero."""

    def __init__(self, x, pdf, tail_sigma, support_extra):
        self.x = np.asarray(x, dtype=float)
        h = self.x[..., 1] - self.x[..., 0]
        self.h = float(h) if self.x.ndim == 1 else h
        self.pdf_grid, self.cdf_grid = _normalise(
            np.array(pdf, dtype=float), np.reshape(h, (-1, 1)))
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
        """F(x) for x <= 0, and 1 - F(-x) above: the rows are symmetric, and
        the one form for both edges keeps the CDF monotone across +L too."""
        x = np.asarray(x, dtype=float)
        y = -np.abs(x)
        lo_x = self.x[..., 0]
        m = self.edge_mass
        inside = m + (1.0 - 2.0 * m) * _interp_rows(np.maximum(y, lo_x),
                                                    self.x, self.cdf_grid)
        lo = self.tail_scale * ndtr(np.minimum(y, lo_x) / self.tail_sigma)
        left = np.where(y < lo_x, lo, inside)
        return np.where(x > 0, 1.0 - left, left)

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


def _scaled_pdf(d, out, h, a):
    """Fills out (rows x M + 1) with d.pdf(k * h / a) / a for k = 0..M and
    each coefficient magnitude a[i] (a column), bit for bit where d is at
    least _TAU times its peak, and returns it: the half of the even
    sequence on the grid x = k * h that a convolution transforms.

    Each row is evaluated up to two samples past d's _reach and is 0
    beyond: an analytic d on every row as a column (_sample_column), each
    row up to its own k_max; a grid d on every row up to the largest
    k_max, its continuation only beyond the grid edge and short of _reach.
    Where exp(-z^2 / 2) is subnormal, numpy takes a slow path, about a
    hundred times slower per element.
    """
    if not isinstance(d, GridDistribution):
        _sample_column([d] * len(a), out, h, a)
        return out
    reach = d._reach
    k_max = min(out.shape[1] - 1, int(reach * float(a.max()) / h) + 2)
    u = np.arange(k_max + 1) * h / a
    out.fill(0.0)
    win = out[:, :k_max + 1]
    inside = u <= d.x[-1]
    win[inside] = np.interp(u[inside], d.x, d.pdf_grid)
    tail = ~inside & (u < reach)
    win[tail] = d._tail_scale * _norm_pdf(u[tail], d.tail_sigma)
    win /= a
    return out


def _sample_column(column, out, h, a=None):
    """out[i, k] = column[i].pdf(k * h_i / a_i) / a_i, bit for bit, for k
    up to two samples past column[i]'s _reach, and 0 beyond (a_i = 1 when
    a is None). The column is one analytic distribution on every row,
    evaluated by its pdf, or analytic ones of one kind with a _density
    over parameter arrays (Gaussian, Pgo); mixed kinds or grids raise
    ValueError. One call covers a rectangle as wide as the longest window:
    past its own window a row is evaluated at x = 0, where exp is cheap
    (not subnormal), and cleared."""
    d0 = column[0]
    same = all(d is d0 for d in column)
    if (isinstance(d0, GridDistribution)
            or not (same or hasattr(type(d0), "_density"))
            or any(type(d) is not type(d0) for d in column)):
        raise ValueError("a column holds one analytic distribution, or "
                         "analytic ones of one kind with a _density")
    h = np.broadcast_to(h, len(column))[:, None]
    reach = np.array([d._reach for d in column])[:, None]
    k_max = np.minimum(out.shape[1] - 1, (
        (reach if a is None else reach * a) / h).astype(np.intp) + 2)
    k = np.arange(k_max.max() + 1)
    win = k <= k_max
    x = np.where(win, k * h if a is None else k * h / a, 0.0)
    if same:
        pdf = d0.pdf(x)
    else:
        pdf = type(d0)._density(
            x, *np.array([d._params() for d in column]).T[:, :, None])
    out.fill(0.0)
    np.copyto(out[:, :len(k)], pdf if a is None else pdf / a, where=win)


# Each thread's grid-engine buffers, reused by every convolution it runs.
_workspace = threading.local()


def _buffers(rows, n):
    """This thread's buffers for a convolution of rows rows on a grid of n
    intervals: the samples and the spectrum product, two C-contiguous rows
    x (M + 1) arrays (M = _PERIOD * n / 4), and the rows x (n + 1) result,
    which reuses the samples' memory. All are leading views of two flat
    buffers grown to the largest result asked for. The next convolution in
    the thread overwrites them, so nothing returned may alias them:
    GridBatch copies its density rows.

    The spectrum buffer is sized for the result too, a quarter more than
    it uses: sized for its M + 1 columns, it changed which of the
    normalisation's temporaries glibc maps afresh, and a GPS+GAL PGO
    record took about 280 minor page faults instead of 25."""
    if n % 4:
        raise ValueError("n_points must be a multiple of 4")
    cols = _PERIOD * n // 4 + 1
    size = rows * (n + 1)
    if getattr(_workspace, "size", 0) < size:
        _workspace.size = size
        _workspace.flat = (np.empty(size), np.empty(size))
    work, spec = _workspace.flat
    return (work[:rows * cols].reshape(rows, cols),
            spec[:rows * cols].reshape(rows, cols),
            work[:rows * (n + 1)].reshape(rows, n + 1))


def _convolve_half(parts, h, work, spec, out):
    """Symmetric convolution of even components sampled on half grids.

    parts gives, for each component, the rows it enters (a boolean mask,
    or None for every row) and its samples there on x = k * h, k = 0..M
    (_scaled_pdf), in the leading rows of work (rows x M + 1), transformed
    in place; spec (the same shape) takes the product of the spectra; h
    is one spacing for every row or one per row. Returns the grid x = k *
    h, |k| <= n_points / 2 (1-D, or one row per row) and the density rows
    on it, not yet normalised, in out (rows x n_points + 1, _buffers).

    Every sequence transformed is even, so its DFT is real (symmetric
    convolution, Martucci 1994): a sample row's type-I DCT is the DFT of
    its even sequence of period 2 M (_PERIOD half-widths), the spectra
    multiply as real arrays, and one inverse DCT-I (the forward one
    divided by 2 M) gives the half of the circular convolution that is
    mirrored into an exactly symmetric output row.
    """
    n_rows, m = work.shape[0], work.shape[1] - 1
    spec.fill(1.0)
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
    hpow /= step * (2 * m)  # h^(n_active - 1), and the inverse's scale
    spec *= hpow[:, None]
    n_half = out.shape[1] // 2
    half = dct(spec, type=1, axis=1, overwrite_x=True)[:, :n_half + 1]
    x = np.multiply.outer(h, np.arange(-n_half, n_half + 1))
    return x, np.concatenate((half[:, :0:-1], half), axis=1, out=out)


def convolve_batch(coeff_matrix, dists, n_points=GRID_POINTS):
    """Distributions of sum_j C[i, j] eps_j for every coefficient row i
    over one set of independent zero-mean symmetric components, on a
    shared grid.

    Returns one DistBatch: a GaussianBatch when every component is
    Gaussian (closed-form variance sums), else a GridBatch on the grid
    x = k * h, |k| <= n_points / 2, whose half-width covers _GRID_SIGMAS
    standard deviations plus the support_extra of every row.
    """
    C = np.asarray(coeff_matrix, dtype=float)
    if C.ndim != 2 or C.shape[1] != len(dists):
        raise ValueError("coefficient matrix shape mismatch")
    if all(isinstance(d, Gaussian) for d in dists):
        return gaussian_rows(C, np.array([d.sigma for d in dists]))
    var = np.array([d.variance() for d in dists])
    extra = np.array([d.support_extra for d in dists])
    L = float(np.max(_GRID_SIGMAS * np.sqrt((C ** 2) @ var)
                     + np.abs(C) @ extra))
    if L > MAX_GRID_HALFWIDTH:
        raise GridOverflow(f"requested half-width {L:.3g} m exceeds maximum")
    h = 2.0 * L / n_points
    work, spec, out = _buffers(C.shape[0], n_points)

    def parts():
        for j, d in enumerate(dists):
            nz = C[:, j] != 0.0
            if nz.any():
                a = np.abs(C[nz, j])[:, None]
                yield (None if nz.all() else nz,
                       _scaled_pdf(d, work[:len(a)], h, a))

    x, pdf = _convolve_half(parts(), h, work, spec, out)
    # The tail sigma of a row sums its nonzero terms left to right.
    dom = np.array([d.dominant_sigma() ** 2 for d in dists])
    return GridBatch(x, pdf, np.sqrt(_row_sums(C * C * dom)),
                     np.abs(C) @ extra)


def convolve_rows(rows, n_points=GRID_POINTS):
    """Distributions of the sums eps_i1 + eps_i2 + ... of independent
    zero-mean symmetric analytic components, one per row i, each row on
    its own grid.

    Row i is, bit for bit, the grid row convolve_batch([[1, 1, ...]],
    rows[i], n_points)[0] builds, as it does unless every component is
    Gaussian: half-width L_i of _GRID_SIGMAS standard deviations of the sum
    plus its components' support_extra, and spacing h_i = 2 L_i / n_points.
    Each component column is sampled on the rows' spacings, short of each
    row's _reach (_sample_column), and one multi-row DCT-I per column and
    one inverse serve all rows.

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
    work, spec, out = _buffers(len(rows), n_points)

    def parts():
        for column in zip(*rows):
            _sample_column(column, work, h)
            yield None, work

    x, pdf = _convolve_half(parts(), h, work, spec, out)
    dom = _row_sums([[d.dominant_sigma() ** 2 for d in r] for r in rows])
    return GridBatch(x, pdf, np.sqrt(dom), extra)


def matvec(A, v):
    """A (..., k, n) times v (..., n) over the leading axes, (..., k): one
    matrix-vector product per stacked matrix, each rounded as A[i] @ v[i]
    is."""
    return (A @ v[..., None])[..., 0]


def gaussian_rows(C, sigma):
    """The closed form of convolve_batch's all-Gaussian case, for one
    record or a stack: the GaussianBatch of the rows C (..., K, n) over
    independent zero-mean Gaussians of sigmas sigma (..., n), sigma_i =
    sqrt(sum_j C_ij^2 sigma_j^2). Each sigma_j^2 is rounded as
    Gaussian.variance rounds it (pow, not a product)."""
    return GaussianBatch(np.sqrt(matvec(np.square(C),
                                        np.float_power(sigma, 2))))


def row_batches(C, bounds):
    """Distributions of the rows C (..., K, n) over the accuracy bounds
    of a stack of records: the closed form gaussian_rows for bounds given
    as a GaussianBatch of sigmas (..., n), and for a stack of one record's
    list of grid bounds ([bounds], C (1, K, n)) that record's
    convolve_batch as a OneRecord. A scenario stacks grid bounds one
    record at a time (sim._stacks), as each record's rows need their own
    grid."""
    if isinstance(bounds, GaussianBatch):
        return gaussian_rows(C, bounds.sigma)
    [c], [b] = C, bounds
    return OneRecord(convolve_batch(c, b))


def bound_sigmas(bounds) -> np.ndarray:
    """The Gaussian sigma of each bound, the square root of its variance:
    the WLS weights and the Gaussian solution-separation terms. bounds is
    a list of records' lists, or a GaussianBatch of stacked sigmas (whose
    variances round as Gaussian.variance's)."""
    if isinstance(bounds, GaussianBatch):
        return np.sqrt(np.float_power(bounds.sigma, 2))
    return np.sqrt([[b.variance() for b in r] for r in bounds])
