import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import ndtr, ndtri

from jkaraim import jackknife, sim
from jkaraim.distkit import Gaussian, GaussianBatch, convolve_batch
from jkaraim.errors import NonGaussianBound, SubsetRankDeficient
from jkaraim.integrity import (PL_TOLERANCE_M, IntegrityBudget, PlTable,
                               _bisect_level, allocate, baseline_araim_pl,
                               baseline_table, jk_terms, kept_modes,
                               protection_levels, separation_tests, walk)
from jkaraim.jackknife import run_detector, separation_table
from jkaraim.model_core import AXIS_UP, LinearModel, SolutionStack, subset_ops
from jkaraim.overbound import default_table
from jkaraim.threat import FaultMode, ThreatModel, enumerate_modes

from conftest import (gps_epoch_case, record_bounds, record_model,
                      stack_of_one)


def toy_budget(p_sat=1e-5, b_nom=0.0):
    # Per-axis allocations of 1e-7 on the tested (first) axis.
    return IntegrityBudget(i_req_vert=1e-7, i_req_horiz=2e-7,
                           c_req_fa_vert=5e-8, c_req_fa_horiz=5e-8,
                           p_sat=p_sat, p_const=0.0, b_nom=b_nom)


def unit_bounds(n, sigma=1.0):
    """Gaussian bounds of sigma for one record's n satellites, stacked."""
    return GaussianBatch(np.full((1, n), sigma))


def toy_case(p_sat=1e-5, b_nom=0.0, sigma=1.0):
    ops = stack_of_one(LinearModel(np.array([[1.0], [1.0]]),
                                   np.ones(2) / sigma ** 2, ["a", "b"],
                                   ["GPS", "GPS"]))
    budget = toy_budget(p_sat=p_sat, b_nom=b_nom)
    tm = enumerate_modes(2, 1, {"GPS": range(2)}, p_sat, 0.0, m=1)
    acc = unit_bounds(2, sigma)
    tests = jackknife.thresholds(ops, tm, acc, budget, axis=0)
    return ops, budget, tm, acc, tests


def jk_pl(ops, tm, acc, tests, budget):
    """The jk PL of the one record of ops."""
    return float(protection_levels(ops, tm, acc, tests, budget)[0][0])


def baseline_pl(ops, tm, acc, budget, axis=AXIS_UP):
    """The baseline PL of one axis of the one record of ops, read from that
    axis's separation table."""
    tests = separation_table(ops, tm, acc, budget, axis)
    return float(baseline_araim_pl(ops, tm, acc, tests, budget)[0])


def held(tests):
    """Mode id -> threshold of the detector table of one record."""
    return dict(zip(tests.ids, tests.thresholds[0].tolist()))


def max_form(ops, tm, acc, tests, budget):
    """The equal-allocation max bound protection_levels starts its
    bisection from: the largest of jk_terms' per-term bounds, at least
    0."""
    _, bounds, _, _ = jk_terms(ops, tm, acc, tests, budget)
    return max(float(np.max(bounds)), 0.0)


def risk_at(ops, tm, acc, tests, level, budget):
    """Integrity risk of the one record of ops at a level: the monitored
    sum protection_levels bisects (jk_terms' table) plus the mass budgeted
    for the modes it skips; P_not_monitored is excluded. 1.0 where the PL
    is infinite."""
    _, _, table, skipped_mass = jk_terms(ops, tm, acc, tests, budget)
    if table.dists is None:
        return 1.0
    return float(table.risk(np.array([[level]]))[0, 0]) + skipped_mass


class TestIntegrityBudget:
    @pytest.mark.parametrize("field, value", [
        (f, v) for f in ("i_req_vert", "c_req_fa_vert", "p_sat", "p_thres")
        for v in (0.0, -1e-6, 1.0, 2.0, math.nan)] + [
        (f, v) for f in ("i_req_horiz", "c_req_fa_horiz", "p_const")
        for v in (-1e-6, 1.0, math.nan)] + [
        ("b_nom", v) for v in (-0.1, math.inf, math.nan)])
    def test_out_of_range_value_raises(self, field, value):
        with pytest.raises(ValueError, match=field):
            IntegrityBudget(**{field: value})

    def test_edges_of_the_ranges_are_accepted(self):
        IntegrityBudget(i_req_horiz=0.0, c_req_fa_horiz=0.0, p_const=0.0,
                        b_nom=0.0)

    @pytest.mark.parametrize("field", [
        f.name for f in dataclasses.fields(IntegrityBudget)])
    def test_fields_cannot_be_reassigned(self, field):
        # The range checks run at construction only; a later assignment
        # (a zero false-alarm budget, say) would bypass them.
        budget = IntegrityBudget()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(budget, field, 0.0)
        assert budget == IntegrityBudget()


class TestPlSolveToy:
    def test_matches_hand_computed_max(self):
        ops, budget, tm, acc, tests = toy_case()
        pl = max_form(ops, tm, acc, tests, budget)
        thresh = held(tests)

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
        ops, budget, tm, acc, tests = toy_case()
        loose = max_form(ops, tm, acc, tests, budget)
        tight = jk_pl(ops, tm, acc, tests, budget)
        assert tight <= loose + 1e-9

    def test_bias_additivity_when_h0_binds(self):
        pls = []
        for b in (0.0, 0.75):
            ops, budget, tm, acc, tests = \
                toy_case(p_sat=1e-12, b_nom=b)
            pls.append(max_form(ops, tm, acc, tests, budget))
        assert pls[1] - pls[0] == pytest.approx(0.75, abs=2e-3)

    def test_h0_homogeneity_in_sigma(self):
        pls = {}
        for sigma in (1.0, 0.1):
            ops, budget, tm, acc, tests = \
                toy_case(p_sat=1e-12, sigma=sigma)
            pls[sigma] = max_form(ops, tm, acc, tests, budget)
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
        model = LinearModel(G, np.ones(12), [f"s{i}" for i in range(12)],
                            consts)
        tm = enumerate_modes(12, 1, {"A": range(6), "B": range(6, 12)},
                             1e-5, 1e-4)
        return stack_of_one(model), tm

    @staticmethod
    def terms(ops, mode, axis=2):
        """The separation table of one constellation mode: its S_k row
        tested, nothing skipped."""
        tests = separation_tests(ops, [mode], unit_bounds(ops.n), 1e-7, axis)
        assert tests.modes == (mode,) and tests.skipped == ()
        return tests

    def test_duplicate_constellation_variance_doubles(self):
        ops, tm = self.duplicate_geometry()
        sigma0 = float(np.sqrt(np.sum(ops.S[0, 2] ** 2)))
        mode = tm.constellation_modes()[0]
        Q = self.terms(ops, mode).Q[0]
        sigma_vk = np.sqrt(Q ** 2 @ np.ones(12))
        assert sigma_vk[0] == pytest.approx(math.sqrt(2) * sigma0, rel=1e-9)
        # The row is the axis row of the reduced solve, which is a left
        # inverse on the position columns and zero in the excluded ones.
        Sk = ops.reduced(mode.excluded)[0]
        np.testing.assert_array_equal(Q[0], Sk[2])
        np.testing.assert_allclose(Sk @ ops.G[0, :, :3],
                                   np.eye(ops.G.shape[-1])[:, :3],
                                   atol=1e-12)
        assert not Sk[:, sorted(mode.excluded)].any()

    def test_threshold_monotone_in_continuity_allocation(self):
        ops, tm = self.duplicate_geometry()
        mode = tm.constellation_modes()[0]
        diff = self.terms(ops, mode).Q[0] - ops.S[0, 2]
        sigma_ss = np.sqrt((diff ** 2) @ np.ones(12))
        acc = unit_bounds(12)
        d_small, d_large = (
            separation_tests(ops, [mode], acc, c, axis=2).thresholds[0, 0]
            for c in (1e-9, 1e-5))
        assert d_large < d_small
        assert d_large == abs(ndtri(1e-5)) * sigma_ss[0]

    def test_subset_sigma_matches_monte_carlo(self):
        ops, tm = self.duplicate_geometry()
        rng = np.random.default_rng(3)
        sigmas = rng.uniform(0.5, 2.0, 12)
        mode = tm.constellation_modes()[0]
        Q = self.terms(ops, mode).Q[0]
        sigma_vk = np.sqrt(Q ** 2 @ sigmas ** 2)
        eps = sigmas[:, None] * rng.standard_normal((12, 10 ** 6))
        emp = np.std(Q[0] @ eps)
        assert emp == pytest.approx(sigma_vk[0], rel=5e-3)

    def test_rank_deficient_reduced_solve_raises_each_call(self):
        ops, _ = self.duplicate_geometry()
        for _ in range(2):
            with pytest.raises(SubsetRankDeficient):
                ops.reduced(range(12))
        # The table leaves such a mode untested, and kept_modes keeps
        # none: with a prior above p_thres it voids the PL, below it is
        # skipped at min(prior, i_alloc).
        mode = FaultMode(0, "constellation", frozenset(range(12)), 1e-4)
        tests = separation_tests(ops, [mode], unit_bounds(12), 1e-7, 2)
        assert tests.modes == () and tests.skipped == (0,)
        assert tests.Q.shape == tests.rows.shape == (1, 0, 12)
        threat = ThreatModel([mode], 1.0 - 1e-4, 0.0, 1)
        for p_thres, voided, mass in ((1e-5, mode, 0.0), (1e-3, None, 1e-5)):
            keep, skipped_mass, unmonitorable = kept_modes(threat, tests,
                                                           1e-5, p_thres)
            assert keep.shape == (0,) and unmonitorable is voided
            assert skipped_mass == mass


class TestOneRowForm:
    """Every mode that separation_tests keeps, satellite and constellation
    alike: its S_k row, statistic and threshold against its direct solve
    ops.reduced (no downdate)."""

    @staticmethod
    def two_constellations(rng, n_a, n_b):
        n = n_a + n_b
        el = np.radians(rng.uniform(5.0, 90.0, n))
        az = rng.uniform(0.0, 2.0 * np.pi, n)
        G = np.zeros((n, 5))
        G[:, :3] = np.column_stack([np.cos(el) * np.sin(az),
                                    np.cos(el) * np.cos(az), np.sin(el)])
        G[:n_a, 3] = G[n_a:, 4] = 1.0
        w, y = rng.uniform(0.5, 4.0, n), rng.normal(0.0, 3.0, n)
        model = LinearModel(G, w, [f"s{i}" for i in range(n)],
                            ["A"] * n_a + ["B"] * n_b)
        tm = enumerate_modes(n, 2, {"A": range(n_a), "B": range(n_a, n)},
                             1e-5, 1e-4)
        return stack_of_one(model), tm, y

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_a=st.integers(5, 8),
           n_b=st.integers(5, 8), axis=st.sampled_from([0, 1, 2]),
           log_c=st.floats(-9.0, -5.0), b_nom=st.floats(0.0, 2.0))
    def test_rows_match_direct_solves(self, seed, n_a, n_b, axis, log_c,
                                      b_nom):
        rng = np.random.default_rng(seed)
        ops, tm, y = self.two_constellations(rng, n_a, n_b)
        sigmas = rng.uniform(0.3, 3.0, ops.n)
        c_alloc = 10.0 ** log_c
        tests = separation_tests(ops, tm.modes, GaussianBatch(sigmas[None]),
                                 c_alloc, axis)
        stats, _ = run_detector(tests, y[None])
        assert sorted(tests.ids + tests.skipped) == [m.id for m in tm.modes]
        assert {m.kind for m in tests.modes} == {"sat_subset",
                                                 "constellation"}
        for mode, q, stat, d in zip(tests.modes, tests.Q[0], stats[0],
                                    tests.thresholds[0]):
            row = ops.reduced(mode.excluded)[0, axis]
            diff = row - ops.S[0, axis]
            assert abs(stat - diff @ y) <= 1e-9 * (np.abs(diff) @ np.abs(y))
            assert d == pytest.approx(
                abs(ndtri(c_alloc)) * math.sqrt(diff ** 2 @ sigmas ** 2),
                rel=1e-9)
            # The bias both PLs add to the mode's term.
            assert b_nom * np.abs(q).sum() == pytest.approx(
                b_nom * np.abs(row).sum(), rel=1e-9)


class TestBaselineAraim:
    def test_toy_matches_jackknife_within_5_percent(self):
        ops, budget, tm, acc, tests = toy_case()
        jk = jk_pl(ops, tm, acc, tests, budget)
        base = baseline_pl(ops, tm, acc, budget, axis=0)
        assert jk == pytest.approx(base, rel=0.05)

    def test_vanishing_fault_priors_leave_h0_term(self):
        ops, budget, tm, acc, _ = toy_case(p_sat=1e-15)
        pl = baseline_pl(ops, tm, acc, budget, axis=0)
        deflate = 1.0 - tm.p_not_monitored / budget.i_req_total
        target = 1e-7 * deflate
        expect = math.sqrt(0.5) * abs(ndtri(target / (2 * tm.p_h0)))
        assert pl == pytest.approx(expect, abs=2e-3)

    def test_jackknife_table_refused(self):
        # The jk table's rows are the jackknife C_k, not S_k - S: read as a
        # separation table it gave a VPL of 22.117 m at this epoch, where
        # the separation table gives 15.674 m.
        ops, budget, tm, acc, jk = epoch_case()
        sep = separation_table(ops, tm, acc, budget)
        assert baseline_araim_pl(ops, tm, acc, sep, budget)[0] \
            == pytest.approx(15.674, abs=1e-3)
        with pytest.raises(ValueError, match="separation_table"):
            baseline_araim_pl(ops, tm, acc, jk, budget)

    @pytest.mark.parametrize("flavor", ["pgo", "grid"])
    def test_non_gaussian_bounds_refused(self, flavor):
        # The Gaussian of a heavier-tailed bound's variance understates its
        # tails, so the baseline's risk would be understated.
        consts = ("GPS", "GAL")
        ops, truth, acc, tm, budget = gps_epoch_case(
            30.0, -90.0, 7200.0, flavor="pgo", constellations=consts)
        if flavor == "pgo":
            sats = sim.healthy_satellites(sim.default_almanac(consts), consts)
            acc = [[default_table()[sats[i].svn].pgo()
                    for i in truth.sat[0].tolist()]]
        with pytest.raises(NonGaussianBound):
            separation_table(ops, tm, acc, budget)
        # The detector's separation tests still take grid bounds, but the
        # baseline PL refuses them whatever table it reads.
        assert separation_tests(ops, tm.constellation_modes(), acc,
                                1e-7).ids == (18, 19)
        tests = separation_tests(ops, tm.modes, acc, 1e-7)
        with pytest.raises(NonGaussianBound):
            baseline_araim_pl(ops, tm, acc, tests, budget)

    def test_nested_geometry_monotonicity(self):
        case = gps_epoch_case(45.0, 10.0, 3600.0)
        assert case is not None
        ops, _, acc, tm, budget = case
        full = baseline_pl(ops, tm, acc, budget)
        # Drop the last satellite: nested subset of the same geometry.
        sub = SolutionStack(ops.G[:, :-1], ops.W[:, :-1])
        tm_sub = enumerate_modes(sub.n, tm.k_max,
                                 {"GPS": range(sub.n)}, budget.p_sat,
                                 budget.p_const)
        reduced = baseline_pl(sub, tm_sub, GaussianBatch(acc.sigma[:, :-1]),
                              budget)
        assert full <= reduced + 1e-6


def reference_risk(ops, tm, acc, tests, level, budget):
    """The integrity-risk sum at a level, mode by mode: one subset solve
    and a one-row convolution of its q vector per satellite mode, the
    constellation separation sigmas written out from the bounds'
    variances, and the skip rule's budgeted mass for modes whose prior
    fits inside the per-mode allocation. The geometries it is used on have
    no rank-deficient mode. ops is a stack of one record."""
    axis, thresh = tests.axis, held(tests)
    acc, model, S = record_bounds(acc), record_model(ops), ops.S[0]
    deflate = 1.0 - tm.p_not_monitored / budget.i_req_total
    i_alloc = budget.i_req_axis(axis) * deflate / tm.n_fault_modes
    c_alloc = budget.c_req_fa_total / (2.0 * tm.n_fault_modes * tm.p_h0)
    var = np.array([b.variance() for b in acc])

    def tail_prob(dist, x):
        return 1.0 if x <= 0 else float(2.0 * dist.cdf(-x))

    dist0 = convolve_batch([S[axis]], acc)[0]
    risk = tm.p_h0 * tail_prob(
        dist0, level - budget.b_nom * np.abs(S[axis]).sum())
    for mode in tm.modes:
        if mode.prior <= i_alloc:
            risk += mode.prior
            continue
        if mode.kind == "constellation":
            Sk = ops.reduced(mode.excluded)[0]
            dist = Gaussian(math.sqrt(np.sum(Sk[axis] ** 2 * var)))
            extra = (math.sqrt(np.sum((Sk[axis] - S[axis]) ** 2 * var))
                     * abs(ndtri(c_alloc)))
        else:
            Sk, _ = subset_ops(model, mode.excluded)
            dist = convolve_batch([Sk[axis]], acc)[0]
            extra = thresh[mode.id]
            if len(mode.excluded) == 1:
                extra *= abs(S[axis, next(iter(mode.excluded))])
        risk += mode.prior * tail_prob(
            dist, level - extra - budget.b_nom * np.abs(Sk[axis]).sum())
    return risk


def epoch_case(flavor="gaussian", constellations=("GPS",)):
    case = gps_epoch_case(30.0, -90.0, 7200.0, flavor=flavor,
                          constellations=constellations)
    assert case is not None
    ops, _, acc, tm, budget = case
    tests = jackknife.thresholds(ops, tm, acc, budget)
    return ops, budget, tm, acc, tests


class TestHmiRiskEval:
    """The integrity risk that protection_levels bisects (risk_at, from
    jk_terms)."""

    def test_fixed_point_at_protection_level(self):
        # The PL is the lowest level, to PL_TOLERANCE_M, whose risk stays
        # within the deflated budget.
        ops, budget, tm, acc, tests = epoch_case()
        pl = jk_pl(ops, tm, acc, tests, budget)

        def risk(level):
            return risk_at(ops, tm, acc, tests, level, budget)

        deflate = 1.0 - tm.p_not_monitored / budget.i_req_total
        assert risk(pl) <= budget.i_req_vert * deflate \
            < risk(pl - PL_TOLERANCE_M)

    @pytest.mark.parametrize("flavor, constellations, rel", [
        ("gaussian", ("GPS",), 1e-6), ("pgo", ("GPS",), 1e-3),
        ("gaussian", ("GPS", "GAL"), 1e-6), ("pgo", ("GPS", "GAL"), 1e-3)])
    def test_matches_reference_at_protection_level(self, flavor,
                                                   constellations, rel):
        ops, budget, tm, acc, tests = epoch_case(
            flavor, constellations)
        pl = jk_pl(ops, tm, acc, tests, budget)
        deflate = 1.0 - tm.p_not_monitored / budget.i_req_total
        for level in (pl, pl - PL_TOLERANCE_M):
            risk = risk_at(ops, tm, acc, tests, level, budget)
            expect = reference_risk(ops, tm, acc, tests, level, budget)
            assert risk == pytest.approx(expect, rel=rel)
            assert (risk <= budget.i_req_vert * deflate) == (level == pl)

    def test_skipped_modes_count_at_their_prior(self):
        # Both fault priors fit inside the per-mode allocation.
        ops, budget, tm, acc, tests = toy_case(p_sat=1e-12)
        level = 5.0
        risk = risk_at(ops, tm, acc, tests, level, budget)
        expect = tm.p_h0 * 2 * ndtr(-level / math.sqrt(0.5))
        expect += sum(mode.prior for mode in tm.modes)
        assert risk == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("unmonitorable", [False, True])
    def test_certain_risk_where_no_protection_level(self, unmonitorable):
        ops, budget, tm, acc, tests = toy_case()
        if unmonitorable:
            # Without satellite a, b alone (G row 0) observes nothing, so
            # the table of this geometry leaves that mode untested.
            ops = stack_of_one(LinearModel(np.array([[1.0], [0.0]]),
                                           np.ones(2), ["a", "b"],
                                           ["GPS", "GPS"]))
            tests = jackknife.thresholds(ops, tm, acc, budget, axis=0)
            assert tests.skipped == (1,)
        else:
            budget = dataclasses.replace(
                budget, i_req_vert=0.1 * tm.p_not_monitored,
                i_req_horiz=0.1 * tm.p_not_monitored)
        args = (ops, tm, acc, tests)
        assert jk_pl(*args, budget) == math.inf
        assert risk_at(*args, 1.0, budget) == 1.0

    def test_vanishes_at_infinity(self):
        ops, budget, tm, acc, tests = epoch_case()
        risk = risk_at(ops, tm, acc, tests, 1e6, budget)
        assert risk < 1e-300 or risk == 0.0

    def test_toy_matches_closed_form_tail_sum(self):
        ops, budget, tm, acc, tests = toy_case()
        level = 5.0
        risk = risk_at(ops, tm, acc, tests, level, budget)
        sigma0 = math.sqrt(0.5)
        expect = tm.p_h0 * 2 * ndtr(-level / sigma0)
        for mode in tm.modes:
            x = level - 0.5 * held(tests)[mode.id]
            expect += mode.prior * 2 * ndtr(-x / 1.0)
        assert risk == pytest.approx(expect, rel=1e-6)


class TestPlReadsTheDetectorTable:
    """Each fault term of the jk PL is offset by exactly the threshold the
    detector of its axis holds the mode under, and the detector's
    statistics are the jackknife and separation statistics of direct
    solves. Two epochs at 30 N, 90 W, t = 7200 s: GPS+GAL with PGO
    bounds, and GPS with p_sat 1e-4, whose k_max is 2 (a pair mode's row
    depends on the axis)."""

    @staticmethod
    def case(kind):
        if kind == "dual-pgo":
            case = gps_epoch_case(30.0, -90.0, 7200.0, flavor="pgo",
                                  constellations=("GPS", "GAL"))
        else:
            case = gps_epoch_case(30.0, -90.0, 7200.0,
                                  budget=IntegrityBudget(p_sat=1e-4,
                                                         p_const=0.0))
        ops, _, acc, tm, budget = case
        assert tm.k_max == (1 if kind == "dual-pgo" else 2)
        assert bool(tm.constellation_modes()) == (kind == "dual-pgo")
        return ops, acc, tm, budget

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["dual-pgo", "gps-kmax2"])
    def test_offsets_are_the_table_thresholds(self, kind, axis):
        ops, acc, tm, budget = self.case(kind)
        tests = jackknife.thresholds(ops, tm, acc, budget, axis)
        assert tests.axis == axis
        labels, _, table, _ = jk_terms(ops, tm, acc, tests, budget)
        offsets = table.offsets
        keep, _, _ = kept_modes(tm, tests, allocate(budget, tm, axis)[1],
                                budget.p_thres)
        modes = [m for m, k in zip(tests.modes, keep) if k]
        assert len(labels) == offsets.shape[-1] == len(modes) + 1
        assert labels[1:] == [
            f"{'mode' if m.kind == 'sat_subset' else 'const'}:{m.id}"
            for m in modes]
        assert max(len(m.excluded) for m in modes
                   if m.kind == "sat_subset") == tm.k_max
        T = held(tests)
        for mode, offset, q in zip(modes, offsets[0, 1:], tests.Q[0, keep]):
            t_k = T[mode.id]
            if mode.kind == "sat_subset" and len(mode.excluded) == 1:
                t_k *= abs(ops.S[0, axis, next(iter(mode.excluded))])
            bias = budget.b_nom * np.abs(q).sum()
            assert offset - bias == pytest.approx(t_k, rel=1e-12)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["dual-pgo", "gps-kmax2"])
    def test_statistics_match_direct_solves(self, kind, axis):
        ops, acc, tm, budget = self.case(kind)
        tests = jackknife.thresholds(ops, tm, acc, budget, axis)
        y = np.random.default_rng(5).normal(0.0, 3.0, ops.n)
        stats = dict(zip(tests.ids, run_detector(tests, y[None])[0][0]))
        modes = {m.id: m for m in tm.modes}
        assert sorted(stats) + sorted(tests.skipped) == sorted(modes)
        for mid, stat in stats.items():
            idx = sorted(modes[mid].excluded)
            if modes[mid].kind == "sat_subset":
                # The jackknife residuals of the excluded measurements,
                # weighted by S_vj when there are several.
                _, GSk = subset_ops(record_model(ops), idx)
                t = (y - GSk @ y)[idx]
                expect = t[0] if len(idx) == 1 else ops.S[0, axis, idx] @ t
            else:
                expect = (ops.reduced(idx)[0, axis] - ops.S[0, axis]) @ y
            assert stat == pytest.approx(expect, rel=1e-9, abs=1e-9)


class TestBisectLevel:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           his=st.lists(st.floats(1e-4, 1e4), min_size=1, max_size=5),
           log_target=st.floats(-12.0, 0.0), own_targets=st.booleans())
    def test_matches_step_by_step_bisection(self, seed, his, log_target,
                                            own_targets):
        # Several records' brackets in one walk: each takes the decisions
        # of the plain loop on its own risk and to its own target (one
        # for all, or one per record), and a record whose risk at hi
        # already exceeds its target reads NaN with no steps.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        shape = (len(his), n)
        priors = 10.0 ** rng.uniform(-9.0, 0.0, shape)
        sigmas = rng.uniform(0.1, 5.0, shape)
        offsets = rng.uniform(0.0, 10.0, shape)
        targets = 10.0 ** (log_target - (rng.uniform(0.0, 3.0, len(his))
                                         if own_targets else 0.0))

        def risk(b, level):
            r = 0.0
            for p, s, o in zip(priors[b], sigmas[b], offsets[b]):
                r += p * float(ndtr((o - level) / s))
            return r

        def risks(levels):
            return np.array([risk(b, v) for b, v in enumerate(levels)])

        level, steps = _bisect_level(risks, np.array(his), targets)
        assert level.shape == steps.shape == (len(his),)
        for b, hi in enumerate(his):
            target = float(np.broadcast_to(targets, len(his))[b])
            if risk(b, hi) > target:
                assert math.isnan(level[b]) and steps[b] == 0
                continue
            lo, top, n_steps = 0.0, hi, 0
            while top - lo > PL_TOLERANCE_M:
                mid = 0.5 * (lo + top)
                if risk(b, mid) > target:
                    lo = mid
                else:
                    top = mid
                n_steps += 1
            assert (level[b], steps[b]) == (top, n_steps)

    def test_bracket_that_cannot_shrink_ends(self):
        # Above about 4.4e12 m one ulp is wider than PL_TOLERANCE_M, so a
        # bracket near 1e13 m stops shrinking once its midpoint rounds to
        # one of its ends; the walk must end there, not step forever.
        calls = []

        def risks(levels):
            calls.append(len(calls))
            if len(calls) > 10_000:
                raise RuntimeError("the bisection did not end")
            return np.where(levels >= 1e13, 0.0, 1.0)

        level, _ = _bisect_level(risks, np.array([2e13]), 0.5)
        assert 1e13 <= level[0] <= 1e13 + np.spacing(1e13)
        assert risks(level)[0] <= 0.5


class TestWalk:
    """walk bisects the records of many PlTables in one _bisect_level, the
    tables padded to the widest with zero-weight terms: every record's
    level must be the one its own table's walk gives, bit for bit, and so
    protection_levels' and baseline_araim_pl's."""

    CELLS = [(30.0, -90.0, ("GPS",)), (-45.0, 60.0, ("GPS",)),
             (10.0, 0.0, ("GPS", "GAL")), (60.0, 120.0, ("GPS", "GAL"))]

    @staticmethod
    def pl_tables(algorithm, ops, tm, acc, budget, axis=AXIS_UP):
        """The PlTable and the public PL of one algorithm on one axis."""
        if algorithm == "jk":
            tests = jackknife.thresholds(ops, tm, acc, budget, axis)
            return (jk_terms(ops, tm, acc, tests, budget)[2],
                    protection_levels(ops, tm, acc, tests, budget)[0])
        tests = separation_table(ops, tm, acc, budget, axis)
        return (baseline_table(ops, tm, acc, tests, budget),
                baseline_araim_pl(ops, tm, acc, tests, budget))

    @pytest.mark.parametrize("algorithm", ["jk", "baseline"])
    def test_one_walk_is_each_tables_own(self, algorithm):
        cases = []
        for lat, lon, consts in self.CELLS:
            ops, _, acc, tm, budget = gps_epoch_case(lat, lon, 7200.0,
                                                     constellations=consts)
            for axis in (0, 2):
                cases.append(self.pl_tables(algorithm, ops, tm, acc, budget,
                                            axis))
        # A geometry whose one-satellite mode b is untested, so no finite
        # PL exists: its table is not walked.
        ops, budget, tm, acc, _ = toy_case()
        ops = stack_of_one(LinearModel(np.array([[1.0], [0.0]]), np.ones(2),
                                       ["a", "b"], ["GPS", "GPS"]))
        cases.append(self.pl_tables(algorithm, ops, tm, acc, budget, 0))
        tables = [t for t, _ in cases]
        assert len({t.offsets.shape[-1] for t in tables[:-1]}) > 2
        assert tables[-1].target <= 0.0
        rng = np.random.default_rng(3)
        jk = algorithm == "jk"
        # Stacks of several records of their own widths; in the 13-term
        # one, record 0's risk at its bracket already exceeds the target.
        for width in (2, 5, 13):
            shape = (int(rng.integers(2, 5)), width)
            hi = rng.uniform(30.0, 60.0, shape[0])
            if width == 13:
                hi[0] = 0.01
            tables.append(PlTable(
                GaussianBatch(rng.uniform(0.5, 3.0, shape)),
                rng.uniform(0.0, 8.0, shape),
                10.0 ** rng.uniform(-9.0, -3.0, width), 1e-8, hi, jk))
        wide = tables[-1]
        assert wide.risk(wide.hi)[0] > wide.target
        # And one whose target is not positive, so it is not walked. A
        # record with no level reads its bracket for jk, inf for the
        # baseline.
        tables.append(tables[-2]._replace(target=-1e-9))

        levels = walk(tables)
        assert len(levels) == len(tables)
        for table, level in zip(tables, levels):
            assert level.tobytes() == walk([table])[0].tobytes()
        for (_, public), level in zip(cases, levels):
            assert level.tobytes() == public.tobytes()
        assert levels[len(cases) - 1].tolist() == [math.inf]
        def none(table):
            return table.hi if jk else np.full(table.hi.shape, math.inf)

        assert levels[-2][0] == none(wide)[0]
        assert np.all(levels[-2][1:] < wide.hi[1:])
        assert levels[-1].tobytes() == none(tables[-1]).tobytes()


class TestLooserIntegrityBudget:
    """A looser vertical integrity requirement does not raise a PL, on
    random geometries (one or two constellations, 6 to 12 satellites,
    unequal Gaussian bounds), to the bisection tolerance PL_TOLERANCE_M.

    The jk PL is checked where the looser budget skips the same modes as
    the tighter one. A mode newly skipped (prior at most the larger
    i_alloc) is budgeted at its whole prior, which can cost more than the
    looser budget gives, and the jk PL can then rise."""

    @staticmethod
    def case(seed, i_req_vert):
        from conftest import random_geometry
        from jkaraim.errors import InsufficientRedundancy
        from jkaraim.sim import threat_model
        rng = np.random.default_rng(seed)
        model = random_geometry(rng, n=int(rng.integers(6, 13)))
        acc = GaussianBatch(np.sqrt(1.0 / model.W)[None])
        p_const = 1e-4 if len(set(model.const_of)) > 1 else 0.0
        budget = IntegrityBudget(i_req_vert=i_req_vert, p_const=p_const,
                                 p_sat=float(10.0 ** rng.uniform(-6, -4)))
        try:
            tm = threat_model(model.const_of, model.m, budget)
        except InsufficientRedundancy:
            return None
        return stack_of_one(model), tm, acc, budget

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           log_i_req=st.floats(-8.0, -4.0), log_factor=st.floats(0.0, 2.0))
    def test_pl_does_not_increase(self, seed, log_i_req, log_factor):
        case = self.case(seed, 10.0 ** log_i_req)
        assume(case is not None)
        ops, tm, acc, budget = case
        looser = dataclasses.replace(
            budget, i_req_vert=budget.i_req_vert * 10.0 ** log_factor)
        sep = separation_table(ops, tm, acc, budget)
        base = [baseline_araim_pl(ops, tm, acc, sep, b)[0]
                for b in (budget, looser)]
        assert base[1] <= base[0] + PL_TOLERANCE_M

        skipped = [{m.id for m in tm.modes
                    if m.prior <= allocate(b, tm, AXIS_UP)[1]}
                   for b in (budget, looser)]
        if skipped[0] == skipped[1]:
            tests = jackknife.thresholds(ops, tm, acc, budget)
            jk = [jk_pl(ops, tm, acc, tests, b) for b in (budget, looser)]
            assert jk[1] <= jk[0] + PL_TOLERANCE_M
