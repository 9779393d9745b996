import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from jkaraim.distkit import Gaussian, _norm_pdf
from jkaraim.overbound import (build_pgo, default_table, fit_bgmm,
                               fit_gaussian_overbound, verify_overbound)


def bgmm_samples(rng, p1, s1, s2, n):
    comp = rng.random(n) < p1
    return np.where(comp, s1 * rng.standard_normal(n),
                    s2 * rng.standard_normal(n))


def stratified_bgmm_samples(p1, s1, s2, n):
    """Deterministic quantile-grid draw from a two-component mixture."""
    n1 = int(round(p1 * n))
    n2 = n - n1
    x1 = s1 * ndtri((np.arange(1, n1 + 1) - 0.5) / n1)
    x2 = s2 * ndtri((np.arange(1, n2 + 1) - 0.5) / n2)
    return np.concatenate([x1, x2])


class TestFitGaussianOverbound:
    def test_standard_normal_quantile_grid(self):
        n = 100000
        x = ndtri((np.arange(1, n + 1) - 0.5) / n)
        assert fit_gaussian_overbound(x) == pytest.approx(1.0, abs=0.01)

    def test_laplace_matches_grid_search_oracle(self):
        rng = np.random.default_rng(2)
        x = np.sort(rng.laplace(scale=1.0, size=100000))
        x = x - x.mean()
        fitted = fit_gaussian_overbound(x)

        n = x.size
        i = np.arange(1, n + 1)
        ql = (i - 1) / n
        ql = ql - np.sqrt(ql * (1 - ql) / n)
        qr = i / n
        qr = qr + np.sqrt(qr * (1 - qr) / n)
        left = (x < 0) & (ql > 0) & ((i - 1) / n < 0.4)
        right = (x > 0) & (i / n > 0.6) & (qr < 1)

        def feasible(sigma):
            c = ndtr(x / sigma)
            return (np.all(c[left] >= ql[left])
                    and np.all(c[right] <= qr[right]))

        grid = np.linspace(0.5 * fitted, 2.0 * fitted, 4000)
        oracle = min(s for s in grid if feasible(s))
        assert fitted == pytest.approx(oracle, rel=0.01)

    def test_heavy_tail_exceeds_mixture_std(self):
        rng = np.random.default_rng(3)
        x = bgmm_samples(rng, 0.9, 1.0, 3.0, 100000)
        assert fit_gaussian_overbound(x) >= np.sqrt(0.9 + 0.1 * 9.0)


class TestFitBgmm:
    def test_recovers_mixture_parameters(self):
        rng = np.random.default_rng(3)
        x = bgmm_samples(rng, 0.9, 1.0, 3.0, 100000)
        p1, s1, s2 = fit_bgmm(x)
        assert p1 == pytest.approx(0.9, rel=0.05)
        assert s1 == pytest.approx(1.0, rel=0.05)
        assert s2 == pytest.approx(3.0, rel=0.05)

    def test_pure_gaussian_degenerates_to_equal_sigmas(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(50000)
        p1, s1, s2 = fit_bgmm(x)
        assert s2 / s1 < 1.15
        mix_std = np.sqrt(p1 * s1 ** 2 + (1 - p1) * s2 ** 2)
        assert mix_std == pytest.approx(np.std(x), rel=0.02)

    def test_likelihood_improves_over_initialization(self):
        rng = np.random.default_rng(3)
        x = bgmm_samples(rng, 0.9, 1.0, 3.0, 20000)
        x = x - x.mean()
        p1, s1, s2 = fit_bgmm(x)

        def ll(p, a, b):
            return float(np.sum(np.log(p * _norm_pdf(x, a)
                                       + (1 - p) * _norm_pdf(x, b))))

        s = x.std()
        assert ll(p1, s1, s2) >= ll(0.9, 0.5 * s, 2.0 * s)


class TestBuildPgo:
    def test_all_table_entries_continuous_and_unit_mass(self):
        table = default_table()
        assert len(table) == 54
        for svn in table:
            pgo = table[svn].pgo()
            core = pgo.p1 * _norm_pdf(pgo.x_rp, pgo.sigma1) + pgo.c_offset
            tail = pgo.tail_coeff * _norm_pdf(pgo.x_rp, pgo.sigma2)
            assert abs(core - tail) < 1e-9
            # Total mass: core integral plus two analytic tails.
            xs = np.linspace(-pgo.x_rp, pgo.x_rp, 200001)
            core = np.trapezoid(pgo.pdf(xs), xs)
            tail = 2.0 * pgo.tail_coeff * ndtr(-pgo.x_rp / pgo.sigma2)
            assert core + tail == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_core_limit(self):
        pgo = build_pgo((1.0 - 1e-9, 1.0, 3.0), x_rp=12.0)
        xs = np.linspace(-3.0, 3.0, 101)
        np.testing.assert_allclose(pgo.pdf(xs), _norm_pdf(xs, 1.0),
                                   atol=1e-6)

    def test_auto_partition_dominates_generating_bgmm(self):
        pgo = build_pgo((0.9, 1.0, 3.0))
        x = np.linspace(1e-9, 30.0, 20000)

        def bgmm_cdf(x):
            return 0.9 * ndtr(x) + 0.1 * ndtr(x / 3.0)

        assert np.all(pgo.cdf(x) <= bgmm_cdf(x) + 1e-12)
        assert np.all(pgo.cdf(-x) >= bgmm_cdf(-x) - 1e-12)


class TestVerifyOverbound:
    def test_fit_passes_by_construction(self):
        rng = np.random.default_rng(2)
        x = rng.laplace(scale=1.0, size=100000)
        sigma = fit_gaussian_overbound(x)
        report = verify_overbound(Gaussian(sigma), x)
        assert report.max_core_violation <= 1e-6
        assert report.max_tail_violation <= 1e-6

    def test_underbound_flags_positive_violation(self):
        rng = np.random.default_rng(2)
        x = rng.laplace(scale=1.0, size=100000)
        sigma = fit_gaussian_overbound(x)
        report = verify_overbound(Gaussian(0.5 * sigma), x)
        assert not report.passes
        assert max(report.max_core_violation,
                   report.max_tail_violation) > 0

    def test_table_pgo_dominates_generating_bgmm(self):
        e = default_table()["GSAT0206"]
        x = stratified_bgmm_samples(e.p1, e.sigma1_m, e.sigma2_m, 100000)
        report = verify_overbound(e.pgo(), x)
        assert report.max_core_violation <= 0
        assert report.max_tail_violation <= 0


class TestSharpness:
    def test_pgo_sharper_than_gaussian_for_heavy_tails(self):
        # The advantage shows in the bulk of the distribution; deep in the
        # tail the inflated PGO tail can cross back over the Gaussian
        # bound, so the comparison is made at the 2% point.
        table = default_table()
        p = 0.02
        for svn in table:
            e = table[svn]
            if e.category != "T":
                continue
            pq = abs(e.pgo().quantile(p))
            gq = abs(Gaussian(e.gauss_sigma_m).quantile(p))
            assert pq < gq, svn


class TestHeldOutDominance:
    def test_fitted_bounds_on_held_out_samples(self):
        rng = np.random.default_rng(8)
        train = bgmm_samples(rng, 0.9, 1.0, 3.0, 100000)
        held = bgmm_samples(rng, 0.9, 1.0, 3.0, 100000)
        sigma = fit_gaussian_overbound(train)
        pgo = build_pgo(fit_bgmm(train))
        for cand in (Gaussian(sigma), pgo):
            report = verify_overbound(cand, held)
            assert max(report.max_core_violation,
                       report.max_tail_violation) <= 1e-3
