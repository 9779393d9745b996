import numpy as np
import pytest
from scipy.special import ndtri

from jkaraim.distkit import GaussianBatch, bound_sigmas, convolve_batch
from jkaraim.integrity import IntegrityBudget, allocate
from jkaraim.jackknife import run_detector, thresholds
from jkaraim.model_core import AXIS_UP, LinearModel, SolutionStack, subset_ops
from jkaraim.threat import enumerate_modes

from conftest import (gps_epoch_case, random_geometry, record_bounds,
                      stack_of_one)


def toy_model():
    return LinearModel(np.array([[1.0], [1.0]]), np.ones(2), ["a", "b"],
                       ["GPS", "GPS"])


def toy_threat(n, k_max=1):
    return enumerate_modes(n, k_max, {"GPS": range(n)}, 1e-5, 1e-4, m=1)


def residual(model, mode, i, y):
    """Jackknife residual t_i = y_i - g_i x_hat_subset of the observations
    y for i in the mode's excluded set, x_hat_subset the direct solve of
    the kept measurements (subset_ops)."""
    _, GSk = subset_ops(model, mode.excluded)
    y = np.asarray(y, dtype=float)
    return float(y[i] - GSk[i] @ y)


def stat_coeffs(ops, mode, axis=2):
    """Coefficients c with t* = c . eps: the mode's row C of mode_rows,
    ops a stack of one record."""
    ok, _, C = ops.mode_rows([mode.excluded], axis)
    assert ok[0, 0]
    return C[0, 0]


def unit_bounds(n):
    """Unit Gaussian bounds of one record's n satellites, stacked."""
    return GaussianBatch(np.ones((1, n)))


def detect(ops, tm, acc, y, axis=2):
    """run_detector at the default budget, on the table of every testable
    mode of the axis, as a scenario record runs it: the table's mode ids,
    then the record's statistics and alerts."""
    tests = thresholds(ops, tm, acc, IntegrityBudget(), axis)
    stats, alerts = run_detector(tests, np.asarray(y, dtype=float)[None])
    return tests.ids, stats[0], alerts[0]


def detector_stat(ops, tm, mode, y, axis):
    """The statistic run_detector reports for one mode."""
    ids, stats, _ = detect(ops, tm, unit_bounds(ops.n), y, axis=axis)
    return stats[ids.index(mode.id)]


class TestResidual:
    def test_toy_hand_value(self):
        mode = toy_threat(2).modes[1]
        assert mode.excluded == frozenset({1})
        assert residual(toy_model(), mode, 1, [1.0, 3.0]) \
            == pytest.approx(2.0)

    def test_zero_errors_zero_residual(self, rng):
        model = random_geometry(rng)
        x0 = rng.standard_normal(model.m)
        tm = enumerate_modes(model.n, 1,
                             {c: [i for i, t in enumerate(model.const_of)
                                  if t == c]
                              for c in dict.fromkeys(model.const_of)},
                             1e-5, 1e-4, m=model.m)
        mode = tm.modes[0]
        assert abs(residual(model, mode, 0, model.G @ x0)) < 1e-9

    def test_injected_bias_passes_through(self, rng):
        model = random_geometry(rng, n=10, m=4)
        y = np.zeros(model.n)
        y[4] = 100.0
        tm = enumerate_modes(model.n, 1, {"C0": range(model.n)},
                             1e-5, 1e-4, m=model.m)
        mode = tm.modes[4]
        assert residual(model, mode, 4, y) == pytest.approx(100.0, abs=1e-9)


class TestCombinedStat:
    def test_single_mode_equals_residual(self, rng):
        model = random_geometry(rng)
        ops = stack_of_one(model)
        y = rng.standard_normal(model.n)
        tm = enumerate_modes(model.n, 1, {"C": range(model.n)}, 1e-5,
                             1e-4, m=model.m)
        mode = tm.modes[2]
        t = detector_stat(ops, tm, mode, y, axis=2)
        assert t == pytest.approx(residual(model, mode, 2, y))

    def test_coefficient_variance_matches_closed_form(self, rng):
        model = random_geometry(rng, n=9, m=4)
        ops = stack_of_one(model)
        tm = enumerate_modes(model.n, 2, {"C": range(model.n)}, 1e-5,
                             1e-4, m=model.m)
        sigmas = rng.uniform(0.5, 2.0, model.n)
        for mode in tm.modes[:12]:
            coeffs = stat_coeffs(ops, mode)
            var_coeff = float(np.sum(coeffs ** 2 * sigmas ** 2))
            # Oracle: covariance propagation through the raw definition.
            _, Pt = subset_ops(model, mode.excluded)
            idx = sorted(mode.excluded)
            rows = (np.eye(model.n) - Pt)[idx]
            if len(idx) == 1:
                c2 = rows[0]
            else:
                c2 = ops.S[0, 2, idx] @ rows
            var_raw = float(np.sum(c2 ** 2 * sigmas ** 2))
            assert var_coeff == pytest.approx(var_raw, abs=1e-10)

    def test_two_fault_mode_matches_raw_definition(self, rng):
        model = LinearModel(np.ones((4, 1)), np.ones(4), list("abcd"),
                            ["GPS"] * 4)
        ops = stack_of_one(model)
        tm = toy_threat(4, k_max=2)
        mode = next(m for m in tm.modes
                    if m.excluded == frozenset({1, 3}))
        for _ in range(20):
            eps = rng.standard_normal(4)
            t = detector_stat(ops, tm, mode, eps, axis=0)
            coeffs = stat_coeffs(ops, mode, axis=0)
            raw = sum(ops.S[0, 0, i] * residual(model, mode, i, eps)
                      for i in (1, 3))
            assert t == pytest.approx(raw, abs=1e-9)
            assert t == pytest.approx(float(coeffs @ eps), abs=1e-9)


def epoch_case(flavor="gaussian", constellations=("GPS",)):
    """The GPS or GPS+GAL epoch at 30 N, 90 W, t = 7200 s, default
    budget (p_const 0 for GPS alone)."""
    case = gps_epoch_case(30.0, -90.0, 7200.0, flavor=flavor,
                          constellations=constellations)
    assert case is not None
    ops, _, acc, tm, budget = case
    return ops, tm, acc, budget


def held(tests):
    """Mode id -> threshold of the detector table of one record."""
    return dict(zip(tests.ids, tests.thresholds[0].tolist()))


def stat_sigmas(ops, tm, sigmas, axis=AXIS_UP):
    """Mode id -> sqrt(C_k^2 . sigma^2), the sigma of each testable
    satellite mode's statistic under Gaussian bounds of the given sigmas,
    for the one record of ops and of sigmas (1, n)."""
    modes = tm.sat_modes()
    ok, _, C = ops.mode_rows([m.excluded for m in modes], axis)
    return {m.id: float(np.sqrt(np.sum(c ** 2 * sigmas[0] ** 2)))
            for m, good, c in zip(modes, ok[0], C[0]) if good}


class TestThresholds:
    def test_unit_gaussian_closed_form(self):
        # T_k = |ndtri(c_alloc)| sqrt(C_k^2 . sigma^2), for unit bounds and
        # for the table's Gaussian bounds of a real GPS epoch.
        ops, tm, acc, budget = epoch_case()
        c_alloc = budget.c_req_fa_total / (2 * tm.n_fault_modes * tm.p_h0)
        assert c_alloc == allocate(budget, tm, AXIS_UP)[2]
        for bounds in (unit_bounds(ops.n), acc):
            T = held(thresholds(ops, tm, bounds, budget))
            sigma = stat_sigmas(ops, tm, bound_sigmas(bounds))
            assert T.keys() == sigma.keys() and len(T) == tm.n_fault_modes
            for mid, t_k in T.items():
                assert t_k == pytest.approx(abs(ndtri(c_alloc)) * sigma[mid],
                                            rel=1e-12)

    def test_more_modes_raise_thresholds(self):
        # Pairs of satellites as well: more modes split the false-alarm
        # budget finer, so every T_k / sigma_k rises.
        ops, tm, acc, budget = epoch_case()
        tm2 = enumerate_modes(ops.n, tm.k_max + 1, {"GPS": range(ops.n)},
                              budget.p_sat, budget.p_const,
                              m=ops.G.shape[-1])
        assert tm2.n_fault_modes > tm.n_fault_modes
        ratios = []
        for threat in (tm, tm2):
            T = held(thresholds(ops, threat, acc, budget))
            sigma = stat_sigmas(ops, threat, bound_sigmas(acc))
            ratios.append([T[mid] / sigma[mid] for mid in T])
        assert min(ratios[1]) > max(ratios[0])

    @pytest.mark.parametrize("flavor, constellations", [
        ("gaussian", ("GPS",)), ("pgo", ("GPS", "GAL"))],
        ids=["gps-gaussian", "dual-pgo"])
    def test_thresholds_are_batch_quantiles(self, flavor, constellations):
        # Bit for bit the magnitudes of one batch's quantiles at c_alloc,
        # row by row, from rows built by an independent SolutionStack of
        # the record's geometry; the constellation modes' separation tests
        # follow them.
        ops, tm, acc, budget = epoch_case(flavor, constellations)
        tests = thresholds(ops, tm, acc, budget)
        modes = tm.sat_modes()
        ok, _, C = SolutionStack(ops.G[0], ops.W[0]).mode_rows(
            [m.excluded for m in modes], AXIS_UP)
        q = convolve_batch(C[ok], record_bounds(acc)).quantile(
            allocate(budget, tm, AXIS_UP)[2])
        ids = [m.id for m, good in zip(modes, ok) if good]
        n = len(ids)
        assert list(tests.ids[:n]) == ids
        assert tests.thresholds[0, :n].tolist() == np.abs(q).tolist()
        np.testing.assert_array_equal(tests.rows[0, :n], C[ok])
        assert tests.ids[n:] == tuple(m.id for m in
                                      tm.constellation_modes())

    def test_no_testable_mode_gives_no_thresholds(self):
        # Two states, two satellites: every one-satellite subset is rank
        # deficient, so no mode gets a threshold.
        model = LinearModel(np.eye(2), np.ones(2), ["a", "b"],
                            ["GPS", "GPS"])
        tm = toy_threat(2)
        tests = thresholds(stack_of_one(model), tm, unit_bounds(2),
                           IntegrityBudget(), axis=0)
        assert tests.ids == () and tests.rows.shape == (1, 0, 2)
        assert tests.skipped == tuple(m.id for m in tm.modes)
        stats, alerts = run_detector(tests, [[50.0, -50.0]])
        assert stats.shape == alerts.shape == (1, 0)


class TestRunDetector:
    def make_case(self, rng, n=10, m=4):
        model = random_geometry(rng, n=n, m=m)
        tm = enumerate_modes(model.n, 1, {"C0": range(model.n)},
                             1e-5, 1e-4, m=model.m)
        return stack_of_one(model), tm, unit_bounds(model.n)

    def test_fault_free_no_alert(self, rng):
        ops, tm, acc = self.make_case(rng)
        _, _, alerts = detect(ops, tm, acc, 1e-3 * rng.standard_normal(ops.n))
        assert not alerts.any()

    def test_large_bias_detected_on_matching_mode(self, rng):
        ops, tm, acc = self.make_case(rng)
        y = np.zeros(ops.n)
        y[3] = 100.0
        ids, _, alerts = detect(ops, tm, acc, y)
        assert alerts.any()
        mode = next(m for m in tm.modes if m.excluded == frozenset({3}))
        assert alerts[ids.index(mode.id)]

    def test_observations_argument_leaves_model_alone(self, rng):
        # The observations are an argument of each run, never state of the
        # geometry: runs on one SolutionStack do not see each other's y,
        # and the y passed in is not written to.
        ops, tm, acc = self.make_case(rng)
        G, W = ops.G.copy(), ops.W.copy()
        y = rng.standard_normal(ops.n)
        y[3] += 100.0
        y_in = y.copy()
        _, given, alerts = detect(ops, tm, acc, y)
        assert alerts.any()
        assert not detect(ops, tm, acc, np.zeros(ops.n))[2].any()
        np.testing.assert_array_equal(detect(ops, tm, acc, y)[1], given)
        np.testing.assert_array_equal(y, y_in)
        np.testing.assert_array_equal(ops.G, G)
        np.testing.assert_array_equal(ops.W, W)
        assert not hasattr(ops, "y")

    def test_family_wise_false_alarm_rate(self, rng):
        ops, tm, acc = self.make_case(rng)
        tau = 0.01
        rows = np.array([stat_coeffs(ops, m) for m in tm.modes])
        # Bonferroni split: per-mode two-sided level tau/N.
        thresh = {m.id: abs(ndtri(tau / (2 * tm.n_fault_modes)))
                  * np.sqrt(d.variance())
                  for m, d in zip(tm.modes,
                                  convolve_batch(rows, record_bounds(acc)))}
        trials = 20000
        eps = rng.standard_normal((ops.n, trials))
        stats = rows @ eps
        lims = np.array([thresh[m.id] for m in tm.modes])
        fam = np.any(np.abs(stats) >= lims[:, None], axis=0)
        rate = fam.mean()
        mc = np.sqrt(tau * (1 - tau) / trials)
        assert rate <= tau + 3 * mc

    def test_statistic_distribution_matches_convolution(self, rng):
        from jkaraim.overbound import default_table
        ops, tm, _ = self.make_case(rng, n=8)
        pgo = default_table()["SVN63"].pgo()
        acc = [pgo] * ops.n
        mode = tm.modes[0]
        coeffs = stat_coeffs(ops, mode)
        dist = convolve_batch(coeffs[None, :], acc)[0]
        n_trials = 10 ** 6
        draws = np.zeros(n_trials)
        for c in coeffs:
            if c != 0.0:
                draws += c * pgo.sample(rng, n_trials)
        draws.sort()
        emp = (np.arange(1, n_trials + 1) - 0.5) / n_trials
        ks = float(np.max(np.abs(dist.cdf(draws) - emp)))
        assert ks < 2e-3
