from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jkaraim import sim
from jkaraim.errors import InsufficientGeometry, SubsetRankDeficient
from jkaraim.jackknife import residual
from jkaraim.model_core import (LinearModel, SolutionOps, _solution_matrix,
                                assemble_geometry, bias_projection,
                                elevation_azimuth, geodetic_to_ecef,
                                line_of_sight, q_vector, subset_ops,
                                wls_solve)
from jkaraim.threat import enumerate_modes

from conftest import random_geometry


def toy_model(w=(1.0, 1.0), y=(0.0, 0.0)):
    return LinearModel(np.array([[1.0], [1.0]]), np.array(w),
                       np.array(y), ["a", "b"], ["GPS", "GPS"])


class TestAssembleGeometry:
    def test_zenith_satellite_row(self):
        user = geodetic_to_ecef(0.0, 0.0)
        up = user / np.linalg.norm(user)
        zenith = user + 20.2e6 * up
        sats = [(zenith, "GPS")]
        # Pad with off-zenith satellites so the model is solvable.
        east = np.array([0.0, 1.0, 0.0])
        north = np.array([0.0, 0.0, 1.0])
        for d in (east, -east, north, -north):
            sats.append((user + 20.2e6 * (0.6 * d + 0.8 * up), "GPS"))
        model = assemble_geometry(user, sats)
        np.testing.assert_allclose(model.G[0], [0, 0, 1, 1], atol=1e-9)

    def test_gps_almanac_visibility(self):
        almanac = sim.default_almanac(("GPS",))
        user = geodetic_to_ecef(0.0, 0.0)
        sats = [(sim.propagate(a, 0.0), a.constellation) for a in almanac]
        model = assemble_geometry(user, sats, mask_angle=5.0)
        assert 8 <= model.n <= 12

    def test_coplanar_rank_deficient(self):
        user = geodetic_to_ecef(0.0, 0.0)
        up = user / np.linalg.norm(user)
        east = np.array([0.0, 1.0, 0.0])
        sats = [(user + 2e7 * (c * east + 0.8 * up), "GPS")
                for c in (0.3, 0.45, 0.6)]
        with pytest.raises(InsufficientGeometry):
            assemble_geometry(user, sats)


class TestWlsSolve:
    def test_equal_weight_average(self):
        state, S = wls_solve(toy_model(y=(1.0, 3.0)))
        np.testing.assert_allclose(state, [2.0])
        np.testing.assert_allclose(S, [[0.5, 0.5]])

    def test_weighted_average(self):
        state, S = wls_solve(toy_model(w=(3.0, 1.0), y=(1.0, 3.0)))
        np.testing.assert_allclose(state, [1.5])
        np.testing.assert_allclose(S, [[0.75, 0.25]])

    def test_exact_consistency(self, rng):
        model = random_geometry(rng)
        x0 = rng.standard_normal(model.m)
        model.y = model.G @ x0
        state, _ = wls_solve(model)
        np.testing.assert_allclose(state, x0, atol=1e-12)


class TestSubsetOps:
    def test_toy_exclusion(self):
        Sk, Pt = subset_ops(toy_model(), {1})
        np.testing.assert_allclose(Sk, [[1.0, 0.0]])
        np.testing.assert_allclose(Pt, [[1.0, 0.0], [1.0, 0.0]])

    def test_empty_exclusion_is_full_solution(self, rng):
        model = random_geometry(rng)
        _, S = wls_solve(model)
        Sk, _ = subset_ops(model, set())
        np.testing.assert_allclose(Sk, S, atol=1e-12)

    def test_whole_constellation_rank_deficient(self, rng):
        model = random_geometry(rng, m=5)
        idx_b = {i for i, c in enumerate(model.const_of) if c == "C1"}
        with pytest.raises(SubsetRankDeficient):
            subset_ops(model, idx_b)


class TestQVector:
    def test_toy_q(self):
        model = toy_model()
        ops = SolutionOps(model)
        q = q_vector(model, ops, {1}, axis=0)
        np.testing.assert_allclose(q, [1.0, 0.0], atol=1e-12)

    def test_empty_mode_is_solution_row(self, rng):
        model = random_geometry(rng)
        ops = SolutionOps(model)
        q = q_vector(model, ops, set(), axis=2)
        np.testing.assert_allclose(q, ops.S[2], atol=1e-12)

    def test_error_decomposition_identity(self, rng):
        # q.eps plus the S-weighted jackknife residuals reproduces the
        # position error exactly, including under injected biases.
        for _ in range(10):
            model = random_geometry(rng, n=8, m=4)
            ops = SolutionOps(model)
            eps = rng.standard_normal(model.n)
            eps[2] += 50.0
            model.y = eps
            for excluded in ({2}, {2, 5}):
                q = q_vector(model, ops, excluded, axis=2)
                Sk, Pt = ops.subset(excluded)
                total = q @ eps
                for j in excluded:
                    t_j = model.y[j] - model.G[j] @ (Sk @ model.y)
                    total += ops.S[2, j] * t_j
                err = (ops.S @ eps)[2]
                assert abs(total - err) < 1e-9


class TestBiasProjection:
    def test_subset_row(self):
        assert bias_projection(np.array([[1.0, 0.0]]),
                               np.array([0.75, 0.75]), 0) == 0.75

    def test_zero_bias(self, rng):
        model = random_geometry(rng)
        ops = SolutionOps(model)
        assert bias_projection(ops.S, np.zeros(model.n), 2) == 0.0

    def test_full_row(self):
        assert bias_projection(np.array([[0.5, 0.5]]),
                               np.array([0.75, 0.75]), 0) == \
            pytest.approx(0.75)


class TestInvariants:
    def test_solution_matrices_are_left_inverses(self, rng):
        for _ in range(100):
            model = random_geometry(rng)
            ops = SolutionOps(model)
            np.testing.assert_allclose(ops.S @ model.G, np.eye(model.m),
                                       atol=1e-10)
            excl = {int(rng.integers(model.n))}
            try:
                Sk, _ = ops.subset(excl)
            except SubsetRankDeficient:
                continue
            np.testing.assert_allclose(Sk @ model.G, np.eye(model.m),
                                       atol=1e-10)

    def test_jackknife_residual_expansion(self, rng):
        for _ in range(20):
            model = random_geometry(rng)
            ops = SolutionOps(model)
            eps = rng.standard_normal(model.n)
            x0 = rng.standard_normal(model.m)
            model.y = model.G @ x0 + eps
            k = int(rng.integers(model.n))
            Sk, Pt = ops.subset({k})
            t = model.y[k] - model.G[k] @ (Sk @ model.y)
            expansion = (np.eye(model.n) - Pt)[k] @ eps
            assert abs(t - expansion) < 1e-9

    def test_excluded_measurement_insensitivity(self, rng):
        model = random_geometry(rng)
        ops = SolutionOps(model)
        model.y = rng.standard_normal(model.n)
        k = int(rng.integers(model.n))
        Sk, _ = ops.subset({k})
        before = Sk @ model.y
        model.y[k] += 1e6
        np.testing.assert_allclose(Sk @ model.y, before, atol=1e-6)


def _svd_subset(model, excluded):
    """Reference S_k: an SVD solve of the kept rows, zero-padded."""
    keep = np.ones(model.n, dtype=bool)
    keep[list(excluded)] = False
    if keep.sum() < model.m:
        raise SubsetRankDeficient("too few measurements remain")
    Sk = np.zeros((model.m, model.n))
    Sk[:, keep] = _solution_matrix(model.G[keep], model.W[keep],
                                   err=SubsetRankDeficient)
    return Sk


def _assert_close(actual, reference):
    """Equal to 1e-12 relative to the reference's largest entry."""
    scale = max(1.0, float(np.max(np.abs(reference))))
    np.testing.assert_allclose(actual, reference, rtol=0, atol=1e-12 * scale)


def _reference_condition(model, excluded):
    keep = np.ones(model.n, dtype=bool)
    keep[list(excluded)] = False
    return np.linalg.cond(np.sqrt(model.W[keep])[:, None] * model.G[keep])


geometries = st.builds(
    lambda seed, n, m: random_geometry(np.random.default_rng(seed), n=n,
                                       m=m),
    st.integers(0, 2 ** 32 - 1), st.integers(8, 14), st.integers(4, 5))


class TestDowndate:
    """SolutionOps' leave-out downdate against per-mode SVD solves."""

    @settings(max_examples=60, deadline=None)
    @given(model=geometries, axis=st.integers(0, 2))
    def test_operators_match_svd_reference(self, model, axis):
        ops = SolutionOps(model)
        modes = [frozenset(c) for size in (1, 2)
                 for c in combinations(range(model.n), size)]
        modes += [frozenset(i for i, c in enumerate(model.const_of)
                            if c == tag) for tag in model.constellations]
        ok, Q, C = ops.mode_rows(modes, axis)
        for k, excluded in enumerate(modes):
            try:
                ref = _svd_subset(model, excluded)
            except SubsetRankDeficient:
                assert not ok[k], sorted(excluded)
                with pytest.raises(SubsetRankDeficient):
                    ops.subset(excluded)
                continue
            assert ok[k], sorted(excluded)
            # The downdate's rounding grows with the square of the subset's
            # condition number; compare where it is GNSS-like (97 % of
            # these modes).
            if _reference_condition(model, excluded) > 30.0:
                continue
            idx = sorted(excluded)
            resid = (np.eye(model.n) - model.G @ ref)[idx]
            ref_c = resid[0] if len(idx) == 1 else ops.S[axis, idx] @ resid
            Sk, Pt = ops.subset(excluded)
            _assert_close(Sk, ref)
            _assert_close(Pt, model.G @ ref)
            _assert_close(Q[k], ref[axis])
            _assert_close(q_vector(model, ops, excluded, axis), ref[axis])
            _assert_close(C[k], ref_c)

    @settings(max_examples=60, deadline=None)
    @given(model=geometries, seed=st.integers(0, 2 ** 32 - 1))
    def test_press_residual_identity(self, model, seed):
        # t_i = r_i / R_ii: the leave-one-out residual from the full-set
        # residual, equal to y_i - g_i S_k y of the SVD reference.
        rng = np.random.default_rng(seed)
        model.y = model.G @ rng.standard_normal(model.m) \
            + rng.standard_normal(model.n)
        ops = SolutionOps(model)
        r = model.y - model.G @ (ops.S @ model.y)
        tm = enumerate_modes(model.n, 1, {"all": range(model.n)}, 1e-5,
                             1e-4, m=model.m)
        for mode in tm.modes:
            (i,) = mode.excluded
            try:
                ref = _svd_subset(model, mode.excluded)
            except SubsetRankDeficient:
                continue
            if _reference_condition(model, mode.excluded) > 30.0:
                continue
            t = residual(model, ops, mode, i)
            assert t == pytest.approx(r[i] / ops.R[i, i], abs=1e-9)
            loo = model.y[i] - model.G[i] @ (ref @ model.y)
            assert t == pytest.approx(loo, abs=1e-9)

    def test_sole_clock_satellite_and_whole_constellation_raise(self, rng):
        model = random_geometry(rng, n=10, m=5)
        G = model.G.copy()
        G[:, 3:] = [1.0, 0.0]
        G[4, 3:] = [0.0, 1.0]          # the only satellite of C1
        const_of = ["C0"] * model.n
        const_of[4] = "C1"
        model = LinearModel(G, model.W, model.y, model.sat_ids, const_of)
        ops = SolutionOps(model)
        for excluded in ({4}, {4, 7}):
            with pytest.raises(SubsetRankDeficient):
                _svd_subset(model, excluded)
            with pytest.raises(SubsetRankDeficient):
                ops.subset(excluded)
            ok, _, _ = ops.mode_rows([frozenset(excluded)], 2)
            assert not ok[0]
        with pytest.raises(SubsetRankDeficient):
            ops.subset(set(range(model.n)) - {4})
        ok, _, _ = ops.mode_rows([frozenset({3}), frozenset({3, 7})], 2)
        assert ok.all()


class TestModeRowMemo:
    @settings(max_examples=60, deadline=None)
    @given(model=geometries, axis=st.integers(0, 2),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_slices_equal_fresh_rows(self, model, axis, seed):
        # Rows kept from earlier calls are the rows a fresh SolutionOps
        # builds for the modes asked for now, whatever the grouping.
        rng = np.random.default_rng(seed)
        modes = [frozenset(c) for size in (1, 2, 3)
                 for c in combinations(range(model.n), size)]
        modes += [frozenset(i for i, c in enumerate(model.const_of)
                            if c == tag) for tag in model.constellations]
        ops = SolutionOps(model)
        first = [modes[k] for k in rng.permutation(len(modes))[:40]]
        ops.mode_rows(first, axis)
        for _ in range(3):
            ask = [modes[k] for k in
                   rng.choice(len(modes), int(rng.integers(1, 30)))]
            got = ops.mode_rows(ask, axis)
            fresh = SolutionOps(model).mode_rows(ask, axis)
            for a, b in zip(got, fresh):
                np.testing.assert_array_equal(a, b)

    def test_empty_request(self, rng):
        model = random_geometry(rng, n=8, m=4)
        ok, Q, C = SolutionOps(model).mode_rows([], 2)
        assert ok.shape == (0,) and Q.shape == C.shape == (0, model.n)


class TestSharedFrame:
    @settings(max_examples=40, deadline=None)
    @given(lat=st.floats(-89.9, 89.9), lon=st.floats(-180.0, 180.0),
           t=st.floats(0.0, 86400.0))
    def test_elevations_match_elevation_azimuth(self, lat, lon, t):
        almanac = sim.default_almanac(("GPS", "GAL"))
        user = geodetic_to_ecef(lat, lon)
        positions = [sim.propagate(a, t) for a in almanac]
        u, el = line_of_sight(user, positions)
        expect = [elevation_azimuth(user, p)[0] for p in positions]
        np.testing.assert_allclose(el, expect, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(u, axis=1), 1.0,
                                   atol=1e-15)
