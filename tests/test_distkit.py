import numpy as np
import pytest
from scipy.special import ndtri

from jkaraim.distkit import (Gaussian, GridDistribution, PairedBound, Pgo,
                             scaled_convolve)
from jkaraim.overbound import default_table


SVN63 = None


def svn63_pgo():
    global SVN63
    if SVN63 is None:
        SVN63 = default_table()["SVN63"].pgo()
    return SVN63


class TestScaledConvolve:
    def test_gaussian_difference(self):
        d = scaled_convolve([1.0, -1.0], [Gaussian(1.0), Gaussian(1.0)])
        assert d.variance() == pytest.approx(2.0, rel=1e-12)
        assert d.quantile(0.025) == pytest.approx(-2.7718, abs=1e-3)

    def test_zero_coefficient_passthrough(self):
        d = scaled_convolve([1.0, 0.0], [Gaussian(2.0), svn63_pgo()])
        assert d.variance() == pytest.approx(4.0, rel=1e-9)

    def test_pgo_convolution_vs_monte_carlo(self):
        pgo = svn63_pgo()
        d = scaled_convolve([0.5, 0.5], [pgo, pgo], force_grid=True)
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
        grid = scaled_convolve(coeffs, [Gaussian(s) for s in sig],
                               force_grid=True)
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
                  scaled_convolve([1, 1], [Gaussian(1), svn63_pgo()],
                                  force_grid=True)):
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
        d = scaled_convolve([1.0, 0.5], [svn63_pgo(), Gaussian(0.3)],
                            force_grid=True)
        for p in (1e-9, 1e-7, 1e-4, 1e-2, 0.3, 0.5):
            x = d.quantile(p)
            assert abs(float(d.cdf(x)) - p) <= max(1e-9, 1e-3 * p)

    def test_antisymmetry(self):
        d = scaled_convolve([1.0, 1.0], [svn63_pgo(), Gaussian(0.3)],
                            force_grid=True)
        for p in (1e-6, 1e-3, 0.2):
            assert d.quantile(p) == pytest.approx(-d.quantile(1.0 - p),
                                                  rel=1e-6, abs=1e-9)


class TestSample:
    def test_gaussian_std(self):
        rng = np.random.default_rng(5)
        s = Gaussian(1.0).sample(rng, 10 ** 6)
        assert np.std(s) == pytest.approx(1.0, abs=3e-3)

    def test_paired_bound_envelope(self):
        rng = np.random.default_rng(6)
        pb = PairedBound(Gaussian(1.0), 0.75)
        s = pb.sample(rng, 10 ** 5)
        mc_sigma = np.std(s) / np.sqrt(s.size)
        assert abs(np.mean(s)) <= 0.75 + 3 * mc_sigma

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
        d = scaled_convolve([1.0, 1.0, 1.0],
                            [svn63_pgo(), Gaussian(0.2), Gaussian(1.0)],
                            force_grid=True)
        mass = float(d.cdf(d.half_width) - d.cdf(-d.half_width))
        tail = 1.0 - float(d.cdf(d.half_width))
        assert mass + 2 * tail == pytest.approx(1.0, abs=1e-9)

    def test_pdf_matches_unpruned_evaluation(self):
        # pdf skips interpolation outside the grid and the continuation
        # where it underflows; the values must equal evaluating both
        # everywhere.
        from jkaraim.distkit import _norm_pdf
        d = scaled_convolve([1.0, 1.0], [svn63_pgo(), Gaussian(0.3)],
                            force_grid=True)
        x = np.linspace(-60.0, 60.0, 24001) * d.tail_sigma
        expect = np.interp(x, d.x, d.pdf_grid)
        far = np.abs(x) > d.x[-1]
        expect[far] = d._tail_scale * _norm_pdf(x[far], d.tail_sigma)
        np.testing.assert_array_equal(d.pdf(x), expect)

    def test_grid_symmetry(self):
        d = scaled_convolve([1.0, -1.0], [svn63_pgo(), svn63_pgo()],
                            force_grid=True)
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
