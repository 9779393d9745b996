import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr, ndtri

from jkaraim import jackknife
from jkaraim.distkit import Gaussian, PairedBound
from jkaraim.integrity import (PL_TOLERANCE_M, IntegrityBudget,
                               _bisect_level, baseline_araim_pl,
                               constellation_ss, hmi_risk_eval, pl_solve)
from jkaraim.model_core import LinearModel, SolutionOps
from jkaraim.threat import enumerate_modes

from conftest import gps_epoch_case


def toy_budget(p_sat=1e-5, b_nom=0.0):
    # Per-axis allocations of 1e-7 on the tested (first) axis.
    return IntegrityBudget(i_req_vert=1e-7, i_req_horiz=2e-7,
                           c_req_fa_vert=5e-8, c_req_fa_horiz=5e-8,
                           p_sat=p_sat, p_const=0.0, b_nom=b_nom)


def toy_case(p_sat=1e-5, b_nom=0.0, sigma=1.0):
    model = LinearModel(np.array([[1.0], [1.0]]), np.ones(2) / sigma ** 2,
                        np.zeros(2), ["a", "b"], ["GPS", "GPS"])
    ops = SolutionOps(model)
    budget = toy_budget(p_sat=p_sat, b_nom=b_nom)
    tm = enumerate_modes(2, 1, {"GPS": range(2)}, p_sat, 0.0, m=1)
    acc = [Gaussian(sigma)] * 2
    dists, _ = jackknife.stat_distributions(model, ops, tm, acc, axis=0)
    thresh = jackknife.thresholds(tm, dists, budget.c_req_fa_total)
    bounds = [PairedBound(a, b_nom) for a in acc]
    return model, ops, budget, tm, acc, bounds, thresh


class TestPlSolveToy:
    def test_matches_hand_computed_max(self):
        model, ops, budget, tm, acc, bounds, thresh = toy_case()
        pl = pl_solve(model, tm, bounds, thresh, budget, axis=0, ops=ops,
                      gaussian_sigmas=np.ones(2), refine=False)

        # Hand expansion of the equal-allocation max form.
        deflate = 1.0 - tm.p_not_monitored / budget.i_req_total
        i_alloc = 1e-7 * deflate / 2
        sigma0 = math.sqrt(0.5)
        h0 = sigma0 * abs(ndtri(i_alloc / (2 * tm.p_h0)))
        terms = [h0]
        for mode in tm.modes:
            # q sigma is 1 for both single-exclusion modes of the toy.
            k = next(iter(mode.excluded))
            terms.append(abs(ndtri(i_alloc / (2 * mode.prior)))
                         + 0.5 * thresh[mode.id])
        assert pl == pytest.approx(max(terms), abs=1e-3)

    def test_refinement_never_exceeds_max_form(self):
        model, ops, budget, tm, acc, bounds, thresh = toy_case()
        loose = pl_solve(model, tm, bounds, thresh, budget, axis=0,
                         ops=ops, gaussian_sigmas=np.ones(2), refine=False)
        tight = pl_solve(model, tm, bounds, thresh, budget, axis=0,
                         ops=ops, gaussian_sigmas=np.ones(2))
        assert tight <= loose + 1e-9

    def test_bias_additivity_when_h0_binds(self):
        pls = []
        for b in (0.0, 0.75):
            model, ops, budget, tm, acc, bounds, thresh = \
                toy_case(p_sat=1e-12, b_nom=b)
            pls.append(pl_solve(model, tm, bounds, thresh, budget, axis=0,
                                ops=ops, gaussian_sigmas=np.ones(2),
                                refine=False))
        assert pls[1] - pls[0] == pytest.approx(0.75, abs=2e-3)

    def test_h0_homogeneity_in_sigma(self):
        pls = {}
        for sigma in (1.0, 0.1):
            model, ops, budget, tm, acc, bounds, thresh = \
                toy_case(p_sat=1e-12, sigma=sigma)
            pls[sigma] = pl_solve(model, tm, bounds, thresh, budget,
                                  axis=0, ops=ops,
                                  gaussian_sigmas=np.full(2, sigma),
                                  refine=False)
        assert pls[0.1] == pytest.approx(pls[1.0] / 10.0, abs=2e-3)


class TestConstellationSS:
    def duplicate_geometry(self):
        rng = np.random.default_rng(17)
        el = np.radians(rng.uniform(15.0, 85.0, 6))
        az = rng.uniform(0, 2 * np.pi, 6)
        los = np.column_stack([np.cos(el) * np.sin(az),
                               np.cos(el) * np.cos(az), np.sin(el)])
        G = np.zeros((12, 5))
        G[:6, :3] = los
        G[6:, :3] = los
        G[:6, 3] = 1.0
        G[6:, 4] = 1.0
        consts = ["A"] * 6 + ["B"] * 6
        model = LinearModel(G, np.ones(12), np.zeros(12),
                            [f"s{i}" for i in range(12)], consts)
        tm = enumerate_modes(12, 1, {"A": range(6), "B": range(6, 12)},
                             1e-5, 1e-4)
        return model, tm

    def test_duplicate_constellation_variance_doubles(self):
        model, tm = self.duplicate_geometry()
        ops = SolutionOps(model)
        sigma0 = float(np.sqrt(np.sum(ops.S[2] ** 2)))
        mode = tm.constellation_modes()[0]
        sigma_vk, _, _ = constellation_ss(model, ops, mode, np.ones(12),
                                          1e-7, axis=2)
        assert sigma_vk == pytest.approx(math.sqrt(2) * sigma0, rel=1e-9)

    def test_threshold_monotone_in_continuity_allocation(self):
        model, tm = self.duplicate_geometry()
        ops = SolutionOps(model)
        mode = tm.constellation_modes()[0]
        _, d_small, _ = constellation_ss(model, ops, mode, np.ones(12),
                                         1e-9, axis=2)
        _, d_large, _ = constellation_ss(model, ops, mode, np.ones(12),
                                         1e-5, axis=2)
        assert d_large < d_small

    def test_subset_sigma_matches_monte_carlo(self):
        model, tm = self.duplicate_geometry()
        ops = SolutionOps(model)
        rng = np.random.default_rng(3)
        sigmas = rng.uniform(0.5, 2.0, 12)
        mode = tm.constellation_modes()[0]
        sigma_vk, _, Sk = constellation_ss(model, ops, mode, sigmas, 1e-7,
                                           axis=2)
        eps = sigmas[:, None] * rng.standard_normal((12, 10 ** 6))
        emp = np.std(Sk[2] @ eps)
        assert emp == pytest.approx(sigma_vk, rel=5e-3)


class TestBaselineAraim:
    def test_toy_matches_jackknife_within_5_percent(self):
        model, ops, budget, tm, acc, bounds, thresh = toy_case()
        jk = pl_solve(model, tm, bounds, thresh, budget, axis=0, ops=ops,
                      gaussian_sigmas=np.ones(2))
        base = baseline_araim_pl(model, tm, np.ones(2), budget, ops=ops,
                                 axes=(0,)).pl[0]
        assert jk == pytest.approx(base, rel=0.05)

    def test_vanishing_fault_priors_leave_h0_term(self):
        model, ops, budget, tm, acc, bounds, thresh = toy_case(p_sat=1e-15)
        res = baseline_araim_pl(model, tm, np.ones(2), budget, ops=ops,
                                b_nom=np.zeros(2), axes=(0,))
        deflate = 1.0 - tm.p_not_monitored / budget.i_req_total
        target = 1e-7 * deflate
        expect = math.sqrt(0.5) * abs(ndtri(target / (2 * tm.p_h0)))
        assert res.pl[0] == pytest.approx(expect, abs=2e-3)

    def test_nested_geometry_monotonicity(self):
        case = gps_epoch_case(45.0, 10.0, 3600.0)
        assert case is not None
        geom, models, sigmas, tm, budget = case
        full = baseline_araim_pl(geom, tm, sigmas, budget,
                                 axes=(2,)).pl[2]
        # Drop the last satellite: nested subset of the same geometry.
        sub = LinearModel(geom.G[:-1], geom.W[:-1], geom.y[:-1],
                          geom.sat_ids[:-1], geom.const_of[:-1])
        tm_sub = enumerate_modes(sub.n, tm.k_max,
                                 {"GPS": range(sub.n)}, budget.p_sat,
                                 budget.p_const)
        reduced = baseline_araim_pl(sub, tm_sub, sigmas[:-1], budget,
                                    axes=(2,)).pl[2]
        assert full <= reduced + 1e-6


class TestHmiRiskEval:
    def gps_case(self):
        case = gps_epoch_case(30.0, -90.0, 7200.0)
        assert case is not None
        geom, models, sigmas, tm, budget = case
        ops = SolutionOps(geom)
        acc = [m.acc_bound for m in models]
        bounds = [m.int_bound for m in models]
        dists, _ = jackknife.stat_distributions(geom, ops, tm, acc,
                                                axis=2)
        thresh = jackknife.thresholds(tm, dists, budget.c_req_fa_total)
        return geom, ops, budget, tm, bounds, thresh, sigmas

    def test_fixed_point_at_protection_level(self):
        geom, ops, budget, tm, bounds, thresh, sigmas = self.gps_case()
        pl = pl_solve(geom, tm, bounds, thresh, budget, axis=2, ops=ops,
                      gaussian_sigmas=sigmas)
        risk = hmi_risk_eval(geom, tm, bounds, thresh, pl, budget,
                             axis=2, ops=ops, gaussian_sigmas=sigmas)
        deflate = 1.0 - tm.p_not_monitored / budget.i_req_total
        assert risk == pytest.approx(budget.i_req_vert * deflate,
                                     rel=1e-3)

    def test_vanishes_at_infinity(self):
        geom, ops, budget, tm, bounds, thresh, sigmas = self.gps_case()
        risk = hmi_risk_eval(geom, tm, bounds, thresh, 1e6, budget,
                             axis=2, ops=ops, gaussian_sigmas=sigmas)
        assert risk < 1e-300 or risk == 0.0

    def test_toy_matches_closed_form_tail_sum(self):
        model, ops, budget, tm, acc, bounds, thresh = toy_case()
        level = 5.0
        risk = hmi_risk_eval(model, tm, bounds, thresh, level, budget,
                             axis=0, ops=ops, gaussian_sigmas=np.ones(2))
        sigma0 = math.sqrt(0.5)
        expect = tm.p_h0 * 2 * ndtr(-level / sigma0)
        for mode in tm.modes:
            x = level - 0.5 * thresh[mode.id]
            expect += mode.prior * 2 * ndtr(-x / 1.0)
        assert risk == pytest.approx(expect, rel=1e-6)


class TestBisectLevel:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), hi=st.floats(1e-4, 1e4),
           log_target=st.floats(-12.0, 0.0))
    def test_matches_step_by_step_bisection(self, seed, hi, log_target):
        # The batched tree walk takes the decisions of the plain loop.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        priors = 10.0 ** rng.uniform(-9.0, 0.0, n)
        sigmas = rng.uniform(0.1, 5.0, n)
        offsets = rng.uniform(0.0, 10.0, n)
        target = 10.0 ** log_target

        def risk(level):
            r = 0.0
            for p, s, o in zip(priors, sigmas, offsets):
                r += p * float(ndtr((o - level) / s))
            return r

        def risks(levels):
            return np.array([risk(v) for v in levels])

        level, steps = _bisect_level(risks, hi, target)
        if risk(hi) > target:
            assert (level, steps) == (None, 0)
            return
        lo, top, n_steps = 0.0, hi, 0
        while top - lo > PL_TOLERANCE_M:
            mid = 0.5 * (lo + top)
            if risk(mid) > target:
                lo = mid
            else:
                top = mid
            n_steps += 1
        assert (level, steps) == (top, n_steps)
