import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.special import ndtr, ndtri, wofz

from jkaraim.distkit import (_TAU, _TAU_Z, _UNDERFLOW_Z, GRID_POINTS,
                             Gaussian, GridBatch, GridDistribution, Pgo,
                             _norm_pdf, _scaled_pdf, convolve_batch,
                             convolve_rows)
from jkaraim import distkit
from jkaraim.errors import TailUnresolved
from jkaraim.overbound import default_table
from jkaraim import sim
from jkaraim.sim import cnmp_sigma, draw_errors, record_keys, tropo_sigma

from conftest import GridGaussian


SVN63 = None


def svn63_pgo():
    global SVN63
    if SVN63 is None:
        SVN63 = default_table()["SVN63"].pgo()
    return SVN63


# The grid size the one-row convolutions below were written for.
ONE_ROW_POINTS = 2 ** 16


class TestScaledConvolve:
    """Distributions of sum_j c_j eps_j: one convolve_batch row."""

    def test_gaussian_difference(self):
        d = convolve_batch([[1.0, -1.0]], [Gaussian(1.0), Gaussian(1.0)])[0]
        assert d.variance() == pytest.approx(2.0, rel=1e-12)
        assert d.quantile(0.025) == pytest.approx(-2.7718, abs=1e-3)

    def test_zero_coefficient_passthrough(self):
        # A component with a zero coefficient leaves the row as it is.
        d = convolve_batch([[1.0, 0.0]], [Gaussian(2.0), svn63_pgo()],
                           n_points=ONE_ROW_POINTS)[0]
        alone = convolve_batch([[1.0]], [GridGaussian(2.0)],
                               n_points=ONE_ROW_POINTS)[0]
        assert d.variance() == pytest.approx(4.0, rel=1e-9)
        np.testing.assert_array_equal(d.pdf_grid, alone.pdf_grid)
        assert d.tail_sigma == alone.tail_sigma

    def test_pgo_convolution_vs_monte_carlo(self):
        pgo = svn63_pgo()
        d = convolve_batch([[0.5, 0.5]], [pgo, pgo],
                           n_points=ONE_ROW_POINTS)[0]
        rng = np.random.default_rng(11)
        n = 10 ** 6
        samples = 0.5 * pgo.sample(rng, n) + 0.5 * pgo.sample(rng, n)
        samples.sort()
        emp = (np.arange(1, n + 1) - 0.5) / n
        ks = float(np.max(np.abs(d.cdf(samples) - emp)))
        assert ks < 2e-3

    def test_grid_path_matches_closed_form_variance(self):
        coeffs = [0.7, -1.3, 0.4]
        sig = [1.0, 0.5, 2.0]
        closed = Gaussian(np.sqrt(sum((c * s) ** 2
                                      for c, s in zip(coeffs, sig))))
        grid = convolve_batch([coeffs], [GridGaussian(s) for s in sig],
                              n_points=ONE_ROW_POINTS)[0]
        assert isinstance(grid, GridDistribution)
        assert grid.variance() == pytest.approx(closed.variance(), rel=1e-6)
        for p in (1e-2, 1e-4, 1e-7):
            assert grid.quantile(p) == pytest.approx(closed.quantile(p),
                                                     rel=1e-3)


class TestQuantile:
    def test_normal_deep_tail(self):
        assert Gaussian(1.0).quantile(1e-7) == pytest.approx(-5.1993,
                                                             abs=1e-3)

    def test_median_zero(self):
        for d in (Gaussian(2.0), svn63_pgo(),
                  convolve_batch([[1, 1]], [Gaussian(1), svn63_pgo()],
                                 n_points=ONE_ROW_POINTS)[0]):
            assert abs(d.quantile(0.5)) < 1e-6

    def test_pgo_quantile_bracketed_by_components(self):
        pgo = svn63_pgo()
        q = abs(pgo.quantile(1e-7))
        lo = abs(pgo.sigma1 * ndtri(1e-7))
        # Tail branch: inflated sigma2 Gaussian scaled by its coefficient.
        t = pgo.tail_coeff
        hi = abs(pgo.sigma2 * ndtri(min(0.5, 1e-7 / t)))
        # Deep in the tail the PGO quantile coincides with the scaled
        # tail-Gaussian quantile, so the upper bracket is attained.
        assert lo < q <= hi + 1e-9

    def test_round_trip(self):
        d = convolve_batch([[1.0, 0.5]], [svn63_pgo(), Gaussian(0.3)],
                           n_points=ONE_ROW_POINTS)[0]
        for p in (1e-9, 1e-7, 1e-4, 1e-2, 0.3, 0.5):
            x = d.quantile(p)
            assert abs(float(d.cdf(x)) - p) <= max(1e-9, 1e-3 * p)

    def test_antisymmetry(self):
        d = convolve_batch([[1.0, 1.0]], [svn63_pgo(), Gaussian(0.3)],
                           n_points=ONE_ROW_POINTS)[0]
        for p in (1e-6, 1e-3, 0.2):
            assert d.quantile(p) == pytest.approx(-d.quantile(1.0 - p),
                                                  rel=1e-6, abs=1e-9)


class TestSample:
    def test_gaussian_std(self):
        rng = np.random.default_rng(5)
        s = Gaussian(1.0).sample(rng, 10 ** 6)
        assert np.std(s) == pytest.approx(1.0, abs=3e-3)

    def test_determinism(self):
        a = svn63_pgo().sample(np.random.default_rng(9), 1000)
        b = svn63_pgo().sample(np.random.default_rng(9), 1000)
        np.testing.assert_array_equal(a, b)

    def test_pgo_sampler_matches_cdf(self):
        pgo = svn63_pgo()
        rng = np.random.default_rng(7)
        n = 10 ** 6
        s = np.sort(pgo.sample(rng, n))
        emp = (np.arange(1, n + 1) - 0.5) / n
        ks = float(np.max(np.abs(pgo.cdf(s) - emp)))
        assert ks < 2e-3


class TestMassAndSymmetry:
    def test_convolution_mass(self):
        d = convolve_batch([[1.0, 1.0, 1.0]],
                           [svn63_pgo(), Gaussian(0.2), Gaussian(1.0)],
                           n_points=ONE_ROW_POINTS)[0]
        edge = float(d.x[-1])
        mass = float(d.cdf(edge) - d.cdf(-edge))
        tail = 1.0 - float(d.cdf(edge))
        assert mass + 2 * tail == pytest.approx(1.0, abs=1e-9)

    def test_pdf_matches_unpruned_evaluation(self):
        # pdf skips interpolation outside the grid and the continuation
        # where it underflows; the values must equal evaluating both
        # everywhere.
        from jkaraim.distkit import _norm_pdf
        d = convolve_batch([[1.0, 1.0]], [svn63_pgo(), Gaussian(0.3)],
                           n_points=ONE_ROW_POINTS)[0]
        x = np.linspace(-60.0, 60.0, 24001) * d.tail_sigma
        expect = np.interp(x, d.x, d.pdf_grid)
        far = np.abs(x) > d.x[-1]
        expect[far] = d._tail_scale * _norm_pdf(x[far], d.tail_sigma)
        np.testing.assert_array_equal(d.pdf(x), expect)

    def test_grid_symmetry(self):
        d = convolve_batch([[1.0, -1.0]], [svn63_pgo(), svn63_pgo()],
                           n_points=ONE_ROW_POINTS)[0]
        x = np.linspace(0.1, 5.0, 50)
        np.testing.assert_allclose(d.pdf(x), d.pdf(-x), atol=1e-9)

    def test_pgo_invariants_construction(self):
        pgo = svn63_pgo()
        # Density continuity at the partition point.
        eps = 1e-9
        lo = float(pgo.pdf(pgo.x_rp - eps))
        hi = float(pgo.pdf(pgo.x_rp + eps))
        assert abs(lo - hi) < 1e-6
        assert pgo.tail_coeff > 0


def pgo_grid(pgo, s_tropo, s_user, n_points=512):
    """A satellite's PGO accuracy bound on a grid, as the scenario builds
    one row of a record's PGO bounds."""
    return convolve_batch([[1.0, 1.0, 1.0]],
                          [pgo, Gaussian(s_tropo), Gaussian(s_user)],
                          n_points=n_points)[0]


_GRID_COMPONENTS = []


def grid_components():
    if not _GRID_COMPONENTS:
        table = default_table()
        for k, svn in enumerate(sorted(table)[::13][:4]):
            _GRID_COMPONENTS.append(
                pgo_grid(table[svn].pgo(), 0.1 + 0.1 * k, 0.3 + 0.05 * k))
    return _GRID_COMPONENTS


@st.composite
def batches(draw, kind=st.sampled_from(["gaussian", "grid", "rows"])):
    """A convolve_batch result over random coefficient rows, with Gaussian
    components only or with PGO-grid components among them; or a
    convolve_rows result, every row on its own grid."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    n_rows = draw(st.integers(1, 6))
    n_comp = draw(st.integers(2, 6))
    kind = draw(kind)
    if kind == "rows":
        pgos = [default_table()[svn].pgo()
                for svn in sorted(default_table())[::7]]
        rows = [(pgos[rng.integers(0, len(pgos))],
                 *(Gaussian(s) for s in rng.uniform(0.05, 2.0, n_comp - 1)))
                for _ in range(n_rows)]
        return convolve_rows(rows, n_points=256), rng
    if kind == "grid":
        pool = grid_components()
        dists = [pool[i] if rng.random() < 0.6
                 else Gaussian(rng.uniform(0.2, 2.0))
                 for i in rng.integers(0, len(pool), n_comp)]
        dists[0] = pool[0]
    else:
        dists = [Gaussian(s) for s in rng.uniform(0.2, 2.0, n_comp)]
    C = rng.normal(size=(n_rows, n_comp))
    C[rng.random(C.shape) < 0.3] = 0.0
    C[:, 0] = rng.uniform(0.1, 1.0, n_rows)     # no empty row
    return convolve_batch(C, dists, n_points=256), rng


def row_points(batch, rng):
    """One point per row: inside the row's grid, on its nodes, at and beyond
    its edges, and at zero."""
    n = len(batch)
    if isinstance(batch, GridBatch):
        nodes = np.broadcast_to(batch.x, (n, batch.x.shape[-1]))
        width = nodes[:, -1]
    else:
        width, nodes = 8.0 * batch.sigma, None
    x = rng.uniform(-1.5, 1.5, n) * width
    kind = rng.integers(0, 4, n)
    if nodes is not None:
        on_node = nodes[np.arange(n), rng.integers(0, nodes.shape[1], n)]
        x = np.where(kind == 0, on_node, x)
        x = np.where(kind == 1, rng.choice([-1.0, 1.0], n) * width, x)
    return np.where(kind == 2, 0.0, x)


def reference_cdf(d, x):
    """A grid row's CDF through np.interp, the form GridBatch reproduces
    bit for bit: F(x) below zero, 1 - F(-x) above."""
    m = d._tail_scale * ndtr(d.x[0] / d.tail_sigma)

    def left(y):
        if y < d.x[0]:
            return d._tail_scale * ndtr(y / d.tail_sigma)
        return m + (1.0 - 2.0 * m) * np.interp(y, d.x, d.cdf_grid)

    return 1.0 - left(-x) if x > 0 else left(x)


def reference_quantile(d, p):
    """A grid row's quantile at a scalar p through np.interp."""
    m = d._tail_scale * ndtr(d.x[0] / d.tail_sigma)
    if d._tail_scale > 0.0:
        p_lo, p_hi = m, 1.0 - m
    else:
        p_lo, p_hi = d.cdf_grid[1], d.cdf_grid[-2]
    if p_lo <= p <= p_hi:
        return float(np.interp((p - m) / (1.0 - 2.0 * m), d.cdf_grid, d.x))
    if d._tail_scale <= 0.0:
        raise TailUnresolved("reference")
    arg = (p if p < p_lo else 1.0 - p) / d._tail_scale
    if not 0.0 < arg < 1.0:
        raise TailUnresolved("reference")
    x = -d.tail_sigma * ndtri(arg)
    return float(-x if p < p_lo else x)


class TestBatch:
    """Batch evaluation against the same call on each row, and grid rows
    against their np.interp reference."""

    @settings(max_examples=60, deadline=None)
    @given(case=batches())
    def test_cdf_and_tail_match_rows(self, case):
        batch, rng = case
        x = row_points(batch, rng)
        np.testing.assert_array_equal(
            batch.cdf(x), [float(d.cdf(v)) for d, v in zip(batch, x)])
        levels = np.stack([x, -x, 0.5 * x])
        expect = [[float(d.cdf(v)) for d, v in zip(batch, row)]
                  for row in levels]
        np.testing.assert_array_equal(batch.cdf(levels), expect)
        tails = [[1.0 if v <= 0 else 2.0 * float(d.cdf(-v))
                  for d, v in zip(batch, row)] for row in levels]
        np.testing.assert_array_equal(batch.tail_prob(levels), tails)
        if isinstance(batch, GridBatch):
            np.testing.assert_array_equal(
                batch.cdf(levels),
                [[float(reference_cdf(d, v)) for d, v in zip(batch, row)]
                 for row in levels])

    @settings(max_examples=60, deadline=None)
    @given(case=batches(), p=st.sampled_from(
        [1e-9, 6.6e-8, 1e-6, 1e-3, 0.3, 0.5, 0.9, 1.0 - 1e-7]))
    def test_quantile_matches_rows(self, case, p):
        batch, rng = case
        try:
            expect = [float(d.quantile(p)) for d in batch]
        except TailUnresolved:
            with pytest.raises(TailUnresolved):
                batch.quantile(p)
        else:
            np.testing.assert_array_equal(batch.quantile(p), expect)
        if isinstance(batch, GridBatch):
            try:
                ref = [reference_quantile(d, p) for d in batch]
            except TailUnresolved:
                with pytest.raises(TailUnresolved):
                    batch.quantile(p)
            else:
                np.testing.assert_array_equal(batch.quantile(p), ref)
        per_row = 10.0 ** rng.uniform(-9.5, -0.5, len(batch))
        np.testing.assert_array_equal(
            batch.quantile(per_row),
            [float(d.quantile(q)) for d, q in zip(batch, per_row)])
        several = np.stack([per_row, 1.0 - per_row])
        np.testing.assert_array_equal(
            batch.quantile(several),
            [[float(d.quantile(q)) for d, q in zip(batch, row)]
             for row in several])

    def test_grid_rows_match_grid_distribution(self, rng):
        # The batch normalises each row as GridDistribution does.
        x = np.linspace(-5.0, 5.0, 257)
        pdf = np.exp(-0.5 * (x / rng.uniform(0.5, 1.5, (4, 1))) ** 2)
        pdf[1, :3] = 0.0                    # no tail continuation
        tails, extras = rng.uniform(0.5, 2.0, 4), rng.uniform(0.0, 1.0, 4)
        batch = GridBatch(x, pdf, tails, extras)
        for i, row in enumerate(batch):
            ref = GridDistribution(x, pdf[i], tails[i], extras[i])
            for name in ("pdf_grid", "cdf_grid"):
                np.testing.assert_array_equal(getattr(row, name),
                                              getattr(ref, name))
            assert row._tail_scale == ref._tail_scale
            assert row.tail_sigma == ref.tail_sigma
            assert row.support_extra == ref.support_extra
        assert batch[1]._tail_scale == 0.0


def assert_reach_rule(samples, full, u, step, reach):
    """samples against the full evaluation full of the same density on the
    points u, one row per coefficient and step the rows' spacing: bit-equal
    wherever the density is at least _TAU times its peak, 0 from two
    samples past the density's reach on, and every value dropped below
    _TAU times the peak (up to the rounding of the reach's formula)."""
    level = _TAU * full.max(axis=1, keepdims=True)
    big = full >= level
    np.testing.assert_array_equal(samples[big], full[big])
    assert np.all(samples[u > reach + 2.0 * step] == 0.0)
    dropped = samples != full
    assert np.all(full[dropped] <= level.repeat(full.shape[1], 1)[dropped]
                  * (1.0 + 1e-12))
    assert not np.any(big & (u > reach))


class TestWindowedKernel:
    """_scaled_pdf samples a density only where it is at least _TAU times
    its peak (its _reach); past that it leaves zeros."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), zero_tail=st.booleans(),
           n_points=st.sampled_from([64, 256, 1024]))
    def test_matches_full_evaluation(self, seed, zero_tail, n_points):
        rng = np.random.default_rng(seed)
        pool = [d for d in grid_components() if d._tail_scale > 0.0]
        d = pool[int(rng.integers(0, len(pool)))]
        if zero_tail:
            d = GridDistribution(d.x, np.where(np.abs(d.x) > 0.9 * d.x[-1],
                                               0.0, d.pdf_grid),
                                 d.tail_sigma, d.support_extra)
            assert d._tail_scale == 0.0
            assert d._reach == d.x[-1]
        h = rng.uniform(0.5, 4.0) * d.tail_sigma / n_points
        a = 10.0 ** rng.uniform(-3.0, 1.0, (int(rng.integers(1, 6)), 1))
        u = np.arange(n_points + 1) * h / a
        samples = _scaled_pdf(d, np.full((len(a), n_points + 1), np.nan),
                              h, a)
        assert_reach_rule(samples, d.pdf(u) / a, u, h / a, d._reach)

    def test_gaussian_component_unchanged(self):
        # The first row runs out to 26.7 sigmas: the samples stop at _TAU_Z
        # sigmas, and are exactly the closed form short of it.
        a = np.array([[0.3], [1.7]])
        u = np.arange(129) * 0.05 / a
        samples = _scaled_pdf(Gaussian(0.8), np.full((2, 129), np.nan),
                              0.05, a)
        full = _norm_pdf(u, 0.8) / a
        assert_reach_rule(samples, full, u, 0.05 / a, _TAU_Z * 0.8)
        near = u < _TAU_Z * 0.8
        np.testing.assert_array_equal(samples[near], full[near])
        assert np.count_nonzero(samples[0] == 0.0) > 0

    def test_underflow_cut_is_where_the_density_is_zero(self):
        # Past _UNDERFLOW_Z sigmas nothing is evaluated: the density must
        # be exactly 0.0 there, and subnormal, not zero, a little before.
        sigma = 0.7
        z = np.linspace(_UNDERFLOW_Z, 60.0, 20001)
        assert np.all(_norm_pdf(z * sigma, sigma) == 0.0)
        assert 0.0 < _norm_pdf(38.6 * sigma, sigma) < np.finfo(float).tiny

    def test_analytic_rows_stop_at_their_own_reach(self):
        # Rows of small coefficient reach _TAU of the peak early and stop
        # there; every row keeps the values of evaluating every sample
        # where the density is at least _TAU times its peak.
        a = np.array([[0.01], [0.3], [1.0], [2.5]])
        u = np.arange(2049) * 0.05 / a
        for d in (Gaussian(0.8), svn63_pgo()):
            samples = _scaled_pdf(d, np.full((4, 2049), np.nan), 0.05, a)
            assert_reach_rule(samples, d.pdf(u) / a, u, 0.05 / a, d._reach)
            assert d._reach == _TAU_Z * d.dominant_sigma() + d.support_extra
            assert np.all(samples[u <= d._reach] != 0.0)


def pgo_noise_density(pgo, s):
    """Closed-form density of PGO (+) N(0, s^2) at |x|, and its widest
    Gaussian sigma. The truncated-Gaussian and slab terms are differences
    of ndtr, written at |x| so that no term cancels in the far tail."""
    s1, s2, xr = pgo.sigma1, pgo.sigma2, pgo.x_rp
    big1, big2 = math.hypot(s1, s), math.hypot(s2, s)
    t1, t2 = s1 * s / big1, s2 * s / big2

    def phi(a, sigma):
        return math.exp(-0.5 * (a / sigma) ** 2) / (sigma
                                                    * math.sqrt(2 * math.pi))

    def f(x):
        a = abs(x)
        m1, m2 = a * (s1 / big1) ** 2, a * (s2 / big2) ** 2
        core = pgo.p1 * phi(a, big1) * (ndtr((xr - m1) / t1)
                                        - ndtr((-xr - m1) / t1))
        slab = pgo.c_offset * (ndtr((xr - a) / s) - ndtr((-xr - a) / s))
        tail = pgo.tail_coeff * phi(a, big2) * (ndtr((m2 - xr) / t2)
                                                + ndtr((-xr - m2) / t2))
        return core + slab + tail

    return f, max(big1, big2)


DEEP_TAIL_ELEVATIONS = (5.5, 15.0, 45.0, 90.0)


def satellite_rows(table, pairs):
    """The PGO (+) N(s_tropo) (+) N(s_user) components of each (svn,
    elevation) pair's accuracy bound, as the scenario synthesises them."""
    rows = []
    for svn, el in pairs:
        entry = table[svn]
        rows.append((entry.pgo(), Gaussian(float(tropo_sigma(el))),
                     Gaussian(float(cnmp_sigma(entry.constellation, el)))))
    return rows


def deep_tail_pairs(table):
    return [(svn, el) for el in DEEP_TAIL_ELEVATIONS
            for svn in sorted(table)]


class TestDeepTail:
    """The grid engine against an independent reference at the tail
    probabilities integrity uses."""

    def test_pgo_accuracy_bound_quantiles_against_exact(self):
        # Each satellite's PGO accuracy bound (PGO (+) tropo (+) user noise
        # on a grid) at its p-quantile must leave an exact tail of p:
        # below 0.99 p is needlessly loose, above 1.001 p unsafe. The
        # library's grid (the scenario's bounds) and one twice as fine.
        table = default_table()
        pairs = deep_tail_pairs(table)
        rows = satellite_rows(table, pairs)
        for n_points in (GRID_POINTS, 2 * GRID_POINTS):
            worst = []
            accs = convolve_rows(rows, n_points=n_points)
            for (svn, el), row, acc in zip(pairs, rows, accs):
                s = math.hypot(row[1].sigma, row[2].sigma)
                f, wide = pgo_noise_density(row[0], s)
                for p in (1e-7, 1e-9, 1e-10):
                    a = abs(float(acc.quantile(p)))
                    exact, _ = integrate.quad(f, a, a + 40.0 * wide,
                                              epsabs=0.0, epsrel=1e-10,
                                              limit=200)
                    worst.append((exact / p, svn, el, p, n_points))
            assert len(worst) == 3 * len(DEEP_TAIL_ELEVATIONS) * 54
            assert min(worst)[0] >= 0.99, min(worst)
            assert max(worst)[0] <= 1.001, max(worst)

    def test_batch_cdf_continuous_across_grid_edges(self):
        table = default_table()
        checked = 0
        for svn in sorted(table):
            entry = table[svn]
            for el in DEEP_TAIL_ELEVATIONS:
                batch = convolve_batch(
                    [[1.0, 1.0, 1.0]],
                    [entry.pgo(), Gaussian(float(tropo_sigma(el))),
                     Gaussian(float(cnmp_sigma(entry.constellation, el)))])
                edge, h = batch.x[-1], batch.h
                x = np.array([-edge - h, -edge * (1 + 1e-9), -edge,
                              -edge + h, edge - h, edge, edge * (1 + 1e-9),
                              edge + h])
                cdf = batch.cdf(x[:, None])[:, 0]
                assert np.all(np.diff(cdf) >= 0.0), (svn, el, cdf)
                checked += batch.edge_mass[0] > 1e-12
        # The check means something only where the continuation carries
        # mass beyond the edges.
        assert checked > 50


def outside_cf(t, s, a):
    """Integral of cos(t x) N(x; s) over |x| > a, for t >= 0, through the
    Faddeeva function w in the upper half plane only:
    exp(-a^2 / 2 s^2) Re[exp(i a t) w((s^2 t + i a) / (s sqrt 2))]."""
    z = (s * s * t + 1j * a) / (s * math.sqrt(2.0))
    return math.exp(-0.5 * (a / s) ** 2) * np.real(np.exp(1j * a * t)
                                                   * wofz(z))


def pgo_cf(pgo, t):
    """The PGO's characteristic function at t > 0, real as the PGO is
    symmetric: the core Gaussian inside x_rp, the slab c_offset on it and
    the tail Gaussian outside."""
    a = pgo.x_rp
    core = np.exp(-0.5 * (pgo.sigma1 * t) ** 2) - outside_cf(t, pgo.sigma1, a)
    return (pgo.p1 * core + 2.0 * pgo.c_offset * np.sin(a * t) / t
            + pgo.tail_coeff * outside_cf(t, pgo.sigma2, a))


def exact_cdf(truth, coeffs, x):
    """CDF at the points x of sum_j coeffs[j] eps_j, each eps_j the sum of
    the independent components truth[j] = (Pgo, Gaussian, Gaussian) that
    sim.draw_errors draws: the closed-form characteristic function
    inverted by Gil-Pelaez (1951) with the midpoint rule of Davies' AS 155
    (1980), F(x) = 1/2 + sum_k sin(t_k x) phi(t_k) / (pi (k + 1/2)) at
    t_k = (k + 1/2) 2 pi / P. The period P = 8 max|x| + 400 m keeps the
    aliased mass (Abate and Whitt 1992) far below the tails asked for,
    and the sum stops where the Gaussian factor exp(-v t^2 / 2), v =
    sum_j coeffs[j]^2 (s_tropo^2 + s_user^2), falls below 1e-50. Doubling
    P, cutting at 1e-70 and summing with math.fsum moved no tail by more
    than 3.2e-6 relative on the rows of the jk table of the first epoch of
    TestExactTails."""
    x = np.asarray(x, dtype=float)
    nz = np.flatnonzero(coeffs)
    c = np.abs(coeffs[nz])
    v = float(np.sum(c ** 2 * np.array(
        [truth[j][1].sigma ** 2 + truth[j][2].sigma ** 2 for j in nz])))
    step = 2.0 * math.pi / (8.0 * float(np.max(np.abs(x))) + 400.0)
    k = np.arange(int(math.sqrt(100.0 * math.log(10.0) / v) / step) + 1) + 0.5
    t = k * step
    phi = np.exp(-0.5 * v * t * t)
    for j, cj in zip(nz, c):
        phi *= pgo_cf(truth[j][0], cj * t)
    return 0.5 + np.sin(np.multiply.outer(x, t)) @ (phi / k) / math.pi


class TestExactTails:
    """Convolved rows of real GPS+GAL PGO epochs against the exact tail of
    the sums they stand for (exact_cdf): every row of both convolve_batch
    calls of an epoch's vertical jk chain (the statistic rows C_k in
    jackknife.thresholds, the PL rows S and S_k in protection_levels), and
    the
    constellation modes' rows S_k and S_k - S convolved as one more batch,
    each at its quantiles at c_alloc, 1e-9 and 1e-10.

    The engine's quantile q at p must leave an exact tail F(q) of at most
    BOUND p. Measured: 152 rows, worst F(q) / p 1.0021 at c_alloc, 1.0049
    at 1e-9 and 1.0029 at 1e-10 (12 of the 456 quantiles above 1.001, on
    statistic and constellation rows); BOUND = 1.01 leaves about twice
    the worst excess, and a 1024-point grid (1.027) fails. Ratios far
    below 1 are the conservative side: a quantile in the Gaussian
    continuation past the grid edge."""

    EPOCHS = ((30.0, -90.0, 7200.0), (-45.0, 30.0, 7200.0),
              (75.0, -150.0, 39600.0), (0.0, 60.0, 21600.0))
    BOUND = 1.01

    def test_reference_cf_matches_quadrature(self):
        table = default_table()
        for svn in ("SVN63", "GSAT0213"):
            pgo = table[svn].pgo()
            for t in (0.01, 0.3, 1.0, 3.0, 10.0):
                def f(x):
                    return math.cos(t * x) * float(pgo.pdf(x))
                exact = 2.0 * (
                    integrate.quad(f, 0.0, pgo.x_rp, epsabs=1e-16,
                                   limit=200)[0]
                    + integrate.quad(f, pgo.x_rp, np.inf, epsabs=1e-16,
                                     limit=400)[0])
                assert abs(pgo_cf(pgo, np.array([t]))[0] - exact) < 1e-12

    def test_convolved_rows_against_exact(self, monkeypatch):
        from jkaraim import jackknife
        from jkaraim.integrity import (IntegrityBudget, allocate,
                                       protection_levels)
        from jkaraim.model_core import AXIS_UP, geodetic_to_ecef
        consts = ("GPS", "GAL")
        sats = sim.healthy_satellites(sim.default_almanac(consts), consts)
        table, budget = default_table(), IntegrityBudget()
        ratios = []
        for lat, lon, t in self.EPOCHS:
            calls = []

            def record(*args, **kwargs):
                calls.append((np.asarray(args[0]),
                              convolve_batch(*args, **kwargs)))
                return calls[-1][1]

            s = sim.epoch_setup(
                geodetic_to_ecef(lat, lon), [a.svn for a in sats],
                [a.constellation for a in sats],
                sim.satellite_positions(sats, t), table, budget,
                flavor="pgo")
            with monkeypatch.context() as patch:
                patch.setattr(distkit, "convolve_batch", record)
                tests = jackknife.thresholds(s.ops, s.tm, s.acc_bounds,
                                             budget)
                protection_levels(s.ops, s.tm, s.acc_bounds, tests, budget)
            assert len(calls) == 2
            const = [i for i, m in enumerate(tests.modes)
                     if m.kind == "constellation"]
            C = np.vstack((tests.Q[0, const], tests.rows[0, const]))
            [acc] = s.acc_bounds
            calls.append((C, convolve_batch(C, acc)))
            truth = [(table[sats[i].svn].pgo(), Gaussian(t), Gaussian(u))
                     for i, t, u in zip(s.visible[0].tolist(),
                                        s.truth.tropo[0].tolist(),
                                        s.truth.user[0].tolist())]
            p = np.array([allocate(budget, s.tm, AXIS_UP)[2], 1e-9, 1e-10])
            for C, batch in calls:
                q = batch.quantile(p[:, None])
                for coeffs, q_row in zip(C, q.T):
                    ratios += (exact_cdf(truth, coeffs, q_row) / p).tolist()
        assert len(ratios) == 3 * 152
        assert max(ratios) <= self.BOUND, max(ratios)


pgo_params = st.builds(
    lambda p1, s1, ratio, k_gain, x_rp, c_share: (p1, s1, s1 * ratio, k_gain,
                                                  x_rp, c_share),
    st.floats(0.3, 0.99), st.floats(0.2, 2.0), st.floats(1.0, 4.0),
    st.floats(0.0, 3.0), st.floats(0.05, 3.0), st.floats(-1.0, 1.0))


def make_pgo(p1, s1, s2, k_gain, x_rp, c_share):
    """A valid PGO; c_share in [-1, 0) takes the offset down to the lowest
    one that keeps the core density non-negative at x_rp."""
    floor = p1 * float(_norm_pdf(x_rp, s1))
    c = c_share * floor if c_share < 0 else c_share * 0.05
    return Pgo(p1, s1, s2, k_gain, c, x_rp)


class TestScalarSample:
    @settings(max_examples=80, deadline=None)
    @given(params=pgo_params, seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_array_draw_and_stream(self, params, seed):
        pgo = make_pgo(*params)
        a = np.random.default_rng(seed)
        b = np.random.default_rng(seed)
        scalar = [pgo.sample(a) for _ in range(200)]
        array = [float(pgo.sample(b, size=1)[0]) for _ in range(200)]
        assert all(type(v) is float for v in scalar)
        np.testing.assert_array_equal(scalar, array)
        assert a.bit_generator.state == b.bit_generator.state

    def test_both_offset_signs_and_tail_covered(self):
        pgo = svn63_pgo()
        neg = Pgo(0.6, 0.5, 1.5, 1.0, -0.9 * 0.6 * float(_norm_pdf(0.8, 0.5)),
                  0.8)
        for dist in (pgo, neg):
            a, b = np.random.default_rng(3), np.random.default_rng(3)
            scalar = [dist.sample(a) for _ in range(2000)]
            array = dist.sample(b, size=2000)
            # One array draw of 2000 consumes the stream differently; the
            # scalar draws must match 2000 draws of size 1.
            b = np.random.default_rng(3)
            single = [float(dist.sample(b, size=1)[0]) for _ in range(2000)]
            np.testing.assert_array_equal(scalar, single)
            assert np.sum(np.abs(scalar) > dist.x_rp) > 0
            assert array.shape == (2000,)


_M64 = 2 ** 64 - 1


def splitmix64_int(z):
    """SplitMix64's output function on one Python integer."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


class TestCounterUniforms:
    def test_splitmix64_matches_integer_reference(self):
        rng = np.random.default_rng(11)
        z = np.concatenate([
            np.array([0, 1, 2 ** 63, _M64, 0x9E3779B97F4A7C15],
                     dtype=np.uint64),
            rng.integers(0, _M64, size=2000, dtype=np.uint64,
                         endpoint=True)])
        assert distkit.splitmix64(z).tolist() == [splitmix64_int(v)
                                                  for v in z.tolist()]
        # The first output of the SplitMix64 generator seeded with 0.
        assert splitmix64_int(0x9E3779B97F4A7C15) == 0xE220A8397B1DCDAF

    def test_uniforms_are_the_counter_th_output(self):
        rng = np.random.default_rng(12)
        keys = rng.integers(0, _M64, size=500, dtype=np.uint64,
                            endpoint=True)
        counters = np.concatenate([
            np.array([0, 1, _M64], dtype=np.uint64),
            rng.integers(0, 2 ** 45, size=497, dtype=np.uint64)])
        want = [((splitmix64_int((k + c * 0x9E3779B97F4A7C15) & _M64) >> 11)
                 + 0.5) * 2.0 ** -53
                for k, c in zip(keys.tolist(), counters.tolist())]
        got = distkit.counter_uniforms(keys, counters)
        assert got.tolist() == want
        assert np.all((0.0 < got) & (got < 1.0))
        # splitmix64(0) = 0, the lowest output, still gives a positive u.
        zero = np.zeros(1, dtype=np.uint64)
        assert distkit.counter_uniforms(zero, zero).tolist() == [2.0 ** -54]


class TestPgoPdf:
    @settings(max_examples=80, deadline=None)
    @given(params=pgo_params, seed=st.integers(0, 2 ** 32 - 1))
    def test_pieces_match_both_branch_form(self, params, seed):
        # pdf evaluates each Gaussian piece only on its own side of x_rp;
        # it must equal evaluating both pieces everywhere and picking one.
        pgo = make_pgo(*params)
        rng = np.random.default_rng(seed)
        knots = np.array([0.0, pgo.x_rp])
        knots = np.concatenate([knots, np.nextafter(knots, np.inf),
                                np.nextafter(knots, -np.inf)])
        x = np.concatenate([rng.uniform(-45.0, 45.0, 300) * pgo.sigma2,
                            knots, -knots])

        def both(x):
            return np.where(np.abs(x) <= pgo.x_rp,
                            pgo.p1 * _norm_pdf(x, pgo.sigma1) + pgo.c_offset,
                            pgo.tail_coeff * _norm_pdf(x, pgo.sigma2))

        np.testing.assert_array_equal(pgo.pdf(x.reshape(-1, 2)),
                                      both(x.reshape(-1, 2)))
        assert pgo.pdf(0.3).shape == ()


class TestBatchedSynthesis:
    """The scenario builds every satellite's PGO accuracy grid of a record
    in one convolve_rows batch, each row on its own grid; every row must
    be the one-row convolve_batch grid, the independent reference, bit for
    bit."""

    def test_record_bounds_are_convolve_rows(self):
        # One component row per satellite of a record that sees every
        # (svn, elevation) pair: the truth that draw_errors samples, and
        # the rows both flavours' bounds are built on.
        table = default_table()
        pairs = deep_tail_pairs(table)
        svns, elevations = [s for s, _ in pairs], [e for _, e in pairs]
        consts = [table[svn].constellation for svn in svns]
        rows = satellite_rows(table, pairs)
        entries = sim._entries(svns, consts, table)
        vis = np.arange(len(pairs))[None]
        truth = sim._epoch_truth(entries, consts, np.array([elevations]))
        pgo_acc = sim._error_stack(entries, truth, "pgo")
        assert len(pgo_acc) == 1
        [pgo_acc] = pgo_acc
        assert len(pgo_acc) == 54 * len(DEEP_TAIL_ELEVATIONS)
        np.testing.assert_array_equal(truth.sat, vis)
        np.testing.assert_array_equal(
            truth.pgo[0], [pgo.draw_params for pgo, _, _ in rows])
        assert truth.tropo[0].tolist() == [t.sigma for _, t, _ in rows]
        assert truth.user[0].tolist() == [u.sigma for _, _, u in rows]
        assert_same_batch(pgo_acc[0]._rows, convolve_rows(rows))
        assert all(a._rows is pgo_acc[0]._rows for a in pgo_acc)

        gauss_acc = sim._error_stack(entries, truth, "gaussian")
        assert gauss_acc.sigma[0].tolist() == [
            math.sqrt(table[svn].gauss_sigma_m ** 2 + tropo.sigma ** 2
                      + user.sigma ** 2)
            for svn, (_, tropo, user) in zip(svns, rows)]

        # The draw scenario records make: satellite j's PGO sampled from
        # its own counter-keyed uniforms, counter (j * 7 + slot) << 32 plus
        # the rejection round, plus sqrt(s_tropo^2 + s_user^2) times the
        # standard normal of slot 6, value for value.
        for seed in (0, 1, 2):
            key = record_keys(seed, [0], 0)
            got = draw_errors(truth, key)
            want = []
            for j, (pgo, tropo, user) in enumerate(rows):
                def uniform(slot, idx, rnd=0, j=j):
                    counter = np.array([((j * 7 + slot) << 32) + rnd],
                                       dtype=np.uint64)
                    return distkit.counter_uniforms(key, counter)

                want.append(float(
                    distkit.sample_pgo(pgo.draw_params[:, None], uniform)[0]
                    + np.hypot(tropo.sigma, user.sigma)
                    * ndtri(uniform(6, 0))[0]))
            np.testing.assert_array_equal(got, [want])

    @pytest.mark.parametrize("n_points", [2048, 4096])
    def test_rows_equal_scaled_convolve(self, n_points):
        table = default_table()
        rows = satellite_rows(table, deep_tail_pairs(table))
        for row, got in zip(rows, convolve_rows(rows, n_points=n_points)):
            ref = convolve_batch([[1.0, 1.0, 1.0]], row, n_points=n_points)[0]
            for name in ("x", "pdf_grid", "cdf_grid"):
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(ref, name))
            assert got.h == ref.h
            assert got.tail_sigma == ref.tail_sigma
            assert got._tail_scale == ref._tail_scale
            assert got._one.edge_mass[0] == ref._one.edge_mass[0]
            assert got.support_extra == ref.support_extra
            assert got.variance() == ref.variance()


def full_sampler(d, out, h, a):
    """Every sample d.pdf(k * h / a) / a, however small: the engine's
    samples without the reach rule."""
    out[...] = d.pdf(np.arange(out.shape[-1]) * h / a) / a
    return out


def assert_same_batch(got, ref):
    for name in ("x", "pdf_grid", "cdf_grid", "tail_scale", "edge_mass",
                 "_variances"):
        np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))


class TestReachLeavesTransformsUnchanged:
    """What the reach rule leaves out lies below _TAU times a density's
    peak, far under the rounding of any transform: every grid must be bit
    for bit the grid of samples evaluated everywhere."""

    @pytest.mark.parametrize("n_points", [2048, 4096])
    def test_satellite_grids(self, n_points, monkeypatch):
        table = default_table()
        rows = satellite_rows(table, deep_tail_pairs(table))
        got = convolve_rows(rows, n_points=n_points)
        calls = []

        def full(column, out, h, a=None):
            calls.append(len(column))
            full_column(column, out, h, a)

        monkeypatch.setattr(distkit, "_sample_column", full)
        ref = convolve_rows(rows, n_points=n_points)
        # The full evaluation ran: once per component column, every row.
        assert calls == [54 * len(DEEP_TAIL_ELEVATIONS)] * 3
        assert len(got) == 54 * len(DEEP_TAIL_ELEVATIONS)
        assert_same_batch(got, ref)

    def test_pgo_epoch_batches(self, monkeypatch):
        from jkaraim import sim
        consts = ("GPS", "GAL")
        sats = sim.healthy_satellites(sim.default_almanac(consts), consts)
        calls = []

        def record(*args, **kwargs):
            calls.append((args, kwargs, convolve_batch(*args, **kwargs)))
            return calls[-1][2]

        monkeypatch.setattr(distkit, "convolve_batch", record)
        rec = sim.evaluate_epoch(
            sim.ScenarioConfig(constellations=consts, flavor="pgo"), sats,
            sim.satellite_positions(sats, 7200.0), default_table(), 30.0,
            -90.0, 7200.0)
        assert not rec.error and len(calls) == 2
        monkeypatch.setattr(distkit, "_scaled_pdf", full_sampler)
        for args, kwargs, got in calls:
            assert isinstance(got, GridBatch)
            assert_same_batch(got, convolve_batch(*args, **kwargs))


def full_column(column, out, h, a=None):
    """Every sample of every row of a column, however small: _sample_column
    without the reach rule."""
    a = np.ones((len(column), 1)) if a is None else a
    for d, row, step, ai in zip(column, out, np.broadcast_to(h, len(column)),
                                a[:, 0]):
        full_sampler(d, row, step, ai)


# Samples per row of a GRID_POINTS convolution: k = 0..3 GRID_POINTS / 4.
SAMPLE_COLS = 3 * GRID_POINTS // 4 + 1


class TestColumnSampler:
    """convolve_rows samples each component column in one evaluation over
    all rows: bit for bit each row's own density on its own spacing,
    evaluated only short of each row's reach."""

    def columns(self):
        table = default_table()
        rows = satellite_rows(table, deep_tail_pairs(table))
        h = 2.0 * np.array([distkit._GRID_SIGMAS * math.sqrt(
            sum(d.variance() for d in r)) + r[0].support_extra
            for r in rows]) / GRID_POINTS
        return list(zip(*rows)), h

    def test_equals_row_samples(self):
        # Each row is its density's pdf(k * h) up to two samples past its
        # reach and 0 beyond; what that drops is below _TAU of the peak.
        columns, h = self.columns()
        for column in columns:
            got = np.full((len(column), SAMPLE_COLS), np.nan)
            distkit._sample_column(column, got, h)
            for d, row, step in zip(column, got, h):
                u = np.arange(SAMPLE_COLS) * step
                full = d.pdf(u)
                k_max = min(SAMPLE_COLS - 1, int(d._reach / step) + 2)
                np.testing.assert_array_equal(row[:k_max + 1],
                                              full[:k_max + 1])
                assert not row[k_max + 1:].any()
                assert_reach_rule(row[None], full[None], u[None], step,
                                  d._reach)

    def test_refuses_mixed_and_grid_columns(self):
        # And distinct objects of one kind that has no _density over
        # parameter arrays.
        columns, h = self.columns()
        mixed = tuple(c if i % 2 else Gaussian(0.5)
                      for i, c in enumerate(columns[0]))
        grids = tuple(grid_components())
        no_density = (GridGaussian(0.5), GridGaussian(0.7))
        for column in (mixed, grids, no_density):
            with pytest.raises(ValueError, match="one kind"):
                distkit._sample_column(
                    column, np.empty((len(column), SAMPLE_COLS)),
                    h[:len(column)])

    def test_evaluates_only_short_of_reach(self, monkeypatch):
        # The density sees each row's points up to its window and x = 0
        # past it, never a point past the row's reach.
        columns, h = self.columns()
        seen = []
        for kind in (Gaussian, Pgo):
            def density(x, *params, _f=kind._density):
                seen.append(x.copy())
                return _f(x, *params)
            monkeypatch.setattr(kind, "_density", staticmethod(density))
        windowed = 0
        for column in columns:
            seen.clear()
            distkit._sample_column(
                column, np.empty((len(column), SAMPLE_COLS)), h)
            (x,) = seen
            for d, row, step in zip(column, x, h):
                k_max = min(SAMPLE_COLS - 1, int(d._reach / step) + 2)
                np.testing.assert_array_equal(row[:k_max + 1],
                                              np.arange(k_max + 1) * step)
                assert not row[k_max + 1:].any()
                windowed += k_max < SAMPLE_COLS - 1
        assert windowed > 0

    def test_full_columns_leave_grids_unchanged(self, monkeypatch):
        table = default_table()
        rows = satellite_rows(table, deep_tail_pairs(table))
        got = convolve_rows(rows)
        monkeypatch.setattr(distkit, "_sample_column", full_column)
        assert_same_batch(got, convolve_rows(rows))


class TestTransformPeriod:
    """The engine transforms a period of 3 half-widths L (distkit._PERIOD),
    its samples out to 1.5 L. Against the same convolutions at a period of
    4 L, the output grid is the same and every row's |quantile| at c_alloc,
    1e-9 and 1e-10 moves by at most 1e-6 relative. Measured maxima: 3.2e-10
    at c_alloc, 2.3e-8 at 1e-9 and 2.0e-7 at 1e-10, all in the 18-row
    jackknife batch of the epoch; 1.2e-7 at 1e-10 over the 54 satellites'
    accuracy bounds at four elevations."""

    def assert_close(self, got, ref, c_alloc):
        np.testing.assert_array_equal(got.x, ref.x)
        np.testing.assert_array_equal(got.h, ref.h)
        p = np.array([[c_alloc], [1e-9], [1e-10]])
        q_got, q_ref = np.abs(got.quantile(p)), np.abs(ref.quantile(p))
        np.testing.assert_allclose(q_got, q_ref, rtol=1e-6, atol=0.0)

    def test_pgo_epoch_batches(self, monkeypatch):
        from jkaraim import jackknife, sim
        consts = ("GPS", "GAL")
        sats = sim.healthy_satellites(sim.default_almanac(consts), consts)
        calls, allocs = [], []

        def record(*args, **kwargs):
            calls.append((args, kwargs, convolve_batch(*args, **kwargs)))
            return calls[-1][2]

        def allocate(*args, _f=jackknife.allocate):
            allocs.append(_f(*args))
            return allocs[-1]

        monkeypatch.setattr(distkit, "convolve_batch", record)
        monkeypatch.setattr(jackknife, "allocate", allocate)
        rec = sim.evaluate_epoch(
            sim.ScenarioConfig(constellations=consts, flavor="pgo"), sats,
            sim.satellite_positions(sats, 7200.0), default_table(), 30.0,
            -90.0, 7200.0)
        assert not rec.error and len(calls) == 2 and len(allocs) == 1
        monkeypatch.setattr(distkit, "_PERIOD", 4)
        for args, kwargs, got in calls:
            assert isinstance(got, GridBatch)
            self.assert_close(got, convolve_batch(*args, **kwargs),
                              allocs[0][2])

    def test_satellite_grids(self, monkeypatch):
        table = default_table()
        rows = satellite_rows(table, deep_tail_pairs(table))
        got = convolve_rows(rows)
        monkeypatch.setattr(distkit, "_PERIOD", 4)
        # 1e-7: about the c_alloc of the epoch above (1.05e-7).
        self.assert_close(got, convolve_rows(rows), 1e-7)

    def test_sample_window(self):
        work, spec, out = distkit._buffers(3, GRID_POINTS)
        assert work.shape == spec.shape == (3, SAMPLE_COLS)
        assert out.shape == (3, GRID_POINTS + 1)
        with pytest.raises(ValueError, match="multiple of 4"):
            convolve_rows([(Gaussian(1.0), svn63_pgo())], n_points=2050)


def workspace_calls():
    """Grid convolutions of several shapes (rows, components, points),
    through both entry points."""
    table = default_table()
    pgos = [table[svn].pgo() for svn in sorted(table)[::9]]
    rng = np.random.default_rng(5)
    calls = []
    for n_rows, n_points in ((3, 256), (9, 512), (1, 128), (6, 1024)):
        C = rng.uniform(-1.0, 1.0, (n_rows, 3))
        calls.append(partial(convolve_batch, C,
                             [pgos[0], Gaussian(0.4), pgos[1]],
                             n_points=n_points))
        rows = [(pgos[i % len(pgos)], Gaussian(0.2 + 0.1 * i))
                for i in range(n_rows)]
        calls.append(partial(convolve_rows, rows, n_points=n_points))
    return calls


def batch_arrays(batch):
    return {name: np.copy(getattr(batch, name))
            for name in ("x", "pdf_grid", "cdf_grid", "tail_scale",
                         "edge_mass")}


class TestWorkspace:
    """Each thread's convolutions share one set of buffers: no result may
    alias them, and no two threads may share them."""

    def test_results_survive_later_calls(self):
        calls = workspace_calls()
        for i, call in enumerate(calls):
            batch = call()
            before = batch_arrays(batch)
            for later in calls[i + 1:] + calls[:i]:
                later()
            for name, value in before.items():
                np.testing.assert_array_equal(getattr(batch, name), value)

    def test_threads_give_the_serial_results(self):
        # More threads than this suite's 2-core hosts have, switching often.
        calls = workspace_calls()
        serial = [batch_arrays(call()) for call in calls]
        n_threads = 4
        start = threading.Barrier(n_threads, timeout=60)

        def run(shift):
            start.wait()
            order = [(i + shift) % len(calls) for i in range(len(calls))]
            return [(i, batch_arrays(calls[i]())) for _ in range(2)
                    for i in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=n_threads) as pool:
                futures = [pool.submit(run, 3 * k) for k in range(n_threads)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for result in results:
            assert len(result) == 2 * len(calls)
            for i, arrays in result:
                for name, value in arrays.items():
                    np.testing.assert_array_equal(value, serial[i][name])
