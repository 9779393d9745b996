import numpy as np
import pytest
from scipy.special import ndtri

from jkaraim.distkit import Gaussian
from jkaraim.integrity import IntegrityBudget
from jkaraim.jackknife import run_detector, stat_distributions, thresholds
from jkaraim.model_core import LinearModel, SolutionOps
from jkaraim.threat import enumerate_modes

from conftest import random_geometry


def toy_model(y=(0.0, 0.0)):
    return LinearModel(np.array([[1.0], [1.0]]), np.ones(2),
                       np.array(y, dtype=float), ["a", "b"],
                       ["GPS", "GPS"])


def toy_threat(n, k_max=1):
    return enumerate_modes(n, k_max, {"GPS": range(n)}, 1e-5, 1e-4, m=1)


def residual(ops, mode, i):
    """Jackknife residual t_i = y_i - g_i x_hat_subset for i in the mode's
    excluded set, in the leave-out form t_I = R[I, I]^-1 r_I."""
    t = ops.leave_out(mode.excluded) @ ops.model.y
    return float(t[sorted(mode.excluded).index(i)])


def stat_coeffs(ops, mode, axis=2):
    """Coefficients c with t* = c . eps: the mode's row C of mode_rows."""
    ok, _, C = ops.mode_rows([mode.excluded], axis)
    assert ok[0]
    return C[0]


def detect(model, tm, acc, y=None, axis=2, ops=None):
    """run_detector at the default budget, with the thresholds of every
    satellite mode, as a scenario record runs it."""
    budget = IntegrityBudget()
    ops = SolutionOps(model) if ops is None else ops
    dists, _ = stat_distributions(ops, tm, acc, axis)
    return run_detector(model, tm, acc, thresholds(tm, dists, budget),
                        budget, y=y, axis=axis, ops=ops)


def detector_stat(model, ops, tm, mode, axis):
    """The statistic run_detector reports for one mode."""
    det = detect(model, tm, [Gaussian(1.0)] * model.n, axis=axis, ops=ops)
    return det.stats[mode.id]


class TestResidual:
    def test_toy_hand_value(self):
        model = toy_model(y=(1.0, 3.0))
        ops = SolutionOps(model)
        mode = toy_threat(2).modes[1]
        assert mode.excluded == frozenset({1})
        assert residual(ops, mode, 1) == pytest.approx(2.0)

    def test_zero_errors_zero_residual(self, rng):
        model = random_geometry(rng)
        ops = SolutionOps(model)
        x0 = rng.standard_normal(model.m)
        model.y = model.G @ x0
        tm = enumerate_modes(model.n, 1,
                             {c: [i for i, t in enumerate(model.const_of)
                                  if t == c]
                              for c in model.constellations}, 1e-5, 1e-4,
                             m=model.m)
        mode = tm.modes[0]
        assert abs(residual(ops, mode, 0)) < 1e-9

    def test_injected_bias_passes_through(self, rng):
        model = random_geometry(rng, n=10, m=4)
        ops = SolutionOps(model)
        y = np.zeros(model.n)
        y[4] = 100.0
        model.y = y
        tm = enumerate_modes(model.n, 1, {"C0": range(model.n)},
                             1e-5, 1e-4, m=model.m)
        mode = tm.modes[4]
        assert residual(ops, mode, 4) == pytest.approx(100.0,
                                                              abs=1e-9)


class TestCombinedStat:
    def test_single_mode_equals_residual(self, rng):
        model = random_geometry(rng)
        ops = SolutionOps(model)
        model.y = rng.standard_normal(model.n)
        tm = enumerate_modes(model.n, 1, {"C": range(model.n)}, 1e-5,
                             1e-4, m=model.m)
        mode = tm.modes[2]
        t = detector_stat(model, ops, tm, mode, axis=2)
        assert t == pytest.approx(residual(ops, mode, 2))

    def test_coefficient_variance_matches_closed_form(self, rng):
        model = random_geometry(rng, n=9, m=4)
        ops = SolutionOps(model)
        tm = enumerate_modes(model.n, 2, {"C": range(model.n)}, 1e-5,
                             1e-4, m=model.m)
        sigmas = rng.uniform(0.5, 2.0, model.n)
        for mode in tm.modes[:12]:
            coeffs = stat_coeffs(ops, mode)
            var_coeff = float(np.sum(coeffs ** 2 * sigmas ** 2))
            # Oracle: covariance propagation through the raw definition.
            Sk, Pt = ops.subset(mode.excluded)
            idx = sorted(mode.excluded)
            rows = (np.eye(model.n) - Pt)[idx]
            if len(idx) == 1:
                c2 = rows[0]
            else:
                c2 = ops.S[2, idx] @ rows
            var_raw = float(np.sum(c2 ** 2 * sigmas ** 2))
            assert var_coeff == pytest.approx(var_raw, abs=1e-10)

    def test_two_fault_mode_matches_raw_definition(self, rng):
        G = np.ones((4, 1))
        model = LinearModel(G, np.ones(4), np.zeros(4),
                            list("abcd"), ["GPS"] * 4)
        ops = SolutionOps(model)
        tm = toy_threat(4, k_max=2)
        mode = next(m for m in tm.modes
                    if m.excluded == frozenset({1, 3}))
        for _ in range(20):
            eps = rng.standard_normal(4)
            model.y = eps
            t = detector_stat(model, ops, tm, mode, axis=0)
            coeffs = stat_coeffs(ops, mode, axis=0)
            raw = sum(ops.S[0, i] * residual(ops, mode, i)
                      for i in (1, 3))
            assert t == pytest.approx(raw, abs=1e-9)
            assert t == pytest.approx(float(coeffs @ eps), abs=1e-9)


class TestThresholds:
    def test_unit_gaussian_closed_form(self):
        tm = enumerate_modes(8, 1, {"GPS": range(8)}, 1e-7, 1e-4, m=4)
        dists = {m.id: Gaussian(1.0) for m in tm.modes}
        T = thresholds(tm, dists, IntegrityBudget())
        expect = abs(ndtri(3.99e-6 / (2 * 8 * tm.p_h0)))
        assert expect == pytest.approx(5.02, abs=0.01)
        for v in T.values():
            assert v == pytest.approx(expect, abs=1e-9)

    def test_more_modes_raise_thresholds(self):
        tm8 = enumerate_modes(8, 1, {"GPS": range(8)}, 1e-7, 1e-4, m=4)
        tm16 = enumerate_modes(16, 1, {"GPS": range(16)}, 1e-7, 1e-4, m=4)
        t8 = thresholds(tm8, {m.id: Gaussian(1.0) for m in tm8.modes},
                        IntegrityBudget())
        t16 = thresholds(tm16, {m.id: Gaussian(1.0) for m in tm16.modes},
                         IntegrityBudget())
        assert min(t16.values()) > max(t8.values())

    def test_pgo_threshold_not_larger_when_sharper(self):
        from jkaraim.overbound import default_table
        tm = enumerate_modes(8, 1, {"GPS": range(8)}, 1e-7, 1e-4, m=4)
        entry = default_table()["SVN63"]
        p = 3.99e-6 / (2 * 8 * tm.p_h0)
        pgo_q = abs(entry.pgo().quantile(p))
        gauss_q = abs(Gaussian(entry.gauss_sigma_m).quantile(p))
        t_pgo = thresholds(tm, {m.id: entry.pgo() for m in tm.modes},
                           IntegrityBudget())
        t_g = thresholds(tm, {m.id: Gaussian(entry.gauss_sigma_m)
                              for m in tm.modes}, IntegrityBudget())
        for mid in t_pgo:
            if pgo_q <= gauss_q:
                assert t_pgo[mid] <= t_g[mid] + 1e-9
            else:
                assert t_pgo[mid] >= t_g[mid] - 1e-9


class TestRunDetector:
    def make_case(self, rng, n=10, m=4):
        model = random_geometry(rng, n=n, m=m)
        tm = enumerate_modes(model.n, 1, {"C0": range(model.n)},
                             1e-5, 1e-4, m=model.m)
        acc = [Gaussian(1.0)] * model.n
        return model, tm, acc

    def test_fault_free_no_alert(self, rng):
        model, tm, acc = self.make_case(rng)
        res = detect(model, tm, acc, y=1e-3 * rng.standard_normal(model.n))
        assert not res.alert

    def test_large_bias_detected_on_matching_mode(self, rng):
        model, tm, acc = self.make_case(rng)
        y = np.zeros(model.n)
        y[3] = 100.0
        res = detect(model, tm, acc, y=y)
        assert res.alert
        mode = next(m for m in tm.modes if m.excluded == frozenset({3}))
        assert res.alerts[mode.id]

    def test_observations_argument_leaves_model_alone(self, rng):
        model, tm, acc = self.make_case(rng)
        y = rng.standard_normal(model.n)
        y[3] += 100.0
        given = detect(model, tm, acc, y=y)
        np.testing.assert_array_equal(model.y, np.zeros(model.n))
        model.y = y
        assert detect(model, tm, acc).stats == given.stats

    def test_family_wise_false_alarm_rate(self, rng):
        model, tm, acc = self.make_case(rng)
        ops = SolutionOps(model)
        tau = 0.01
        dists, _ = stat_distributions(ops, tm, acc, axis=2)
        # Bonferroni split: per-mode two-sided level tau/N.
        thresh = {mid: abs(ndtri(tau / (2 * tm.n_fault_modes)))
                  * np.sqrt(d.variance()) for mid, d in dists.items()}
        rows = np.array([stat_coeffs(ops, m) for m in tm.modes])
        trials = 20000
        eps = rng.standard_normal((model.n, trials))
        stats = rows @ eps
        lims = np.array([thresh[m.id] for m in tm.modes])
        fam = np.any(np.abs(stats) >= lims[:, None], axis=0)
        rate = fam.mean()
        mc = np.sqrt(tau * (1 - tau) / trials)
        assert rate <= tau + 3 * mc

    def test_statistic_distribution_matches_convolution(self, rng):
        from jkaraim.overbound import default_table
        model, tm, _ = self.make_case(rng, n=8)
        ops = SolutionOps(model)
        pgo = default_table()["SVN63"].pgo()
        acc = [pgo] * model.n
        dists, _ = stat_distributions(ops, tm, acc, axis=2)
        mode = tm.modes[0]
        coeffs = stat_coeffs(ops, mode)
        n_trials = 10 ** 6
        draws = np.zeros(n_trials)
        for c in coeffs:
            if c != 0.0:
                draws += c * pgo.sample(rng, n_trials)
        draws.sort()
        emp = (np.arange(1, n_trials + 1) - 0.5) / n_trials
        ks = float(np.max(np.abs(dists[mode.id].cdf(draws) - emp)))
        assert ks < 2e-3
