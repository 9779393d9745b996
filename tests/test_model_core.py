from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jkaraim import sim
from jkaraim.errors import InsufficientGeometry, SubsetRankDeficient
from jkaraim.integrity import IntegrityBudget
from jkaraim.model_core import (LinearModel, SolutionStack, ecef_to_geodetic,
                                enu_rotation, geodetic_to_ecef,
                                line_of_sight, solve, subset_ops)
from jkaraim.overbound import default_table
from jkaraim.threat import enumerate_modes

from conftest import random_geometry


def toy_model(w=(1.0, 1.0)):
    return LinearModel(np.array([[1.0], [1.0]]), np.array(w), ["a", "b"],
                       ["GPS", "GPS"])


def one(model):
    """The SolutionStack of one geometry, without leading axes: the
    algebra of every SolutionStack method, one record at a time."""
    return SolutionStack(model.G, model.W)


def gps_setup(user, positions):
    """sim.epoch_setup of GPS satellites (ids from the shipped almanac) at
    the given ECEF positions."""
    ids = [a.svn for a in sim.default_almanac(("GPS",))][:len(positions)]
    return sim.epoch_setup(user, ids, ["GPS"] * len(ids), positions,
                           default_table(), IntegrityBudget(p_const=0.0))


class TestAssembleGeometry:
    """The linear model that sim.epoch_setup assembles."""

    def test_zenith_satellite_row(self):
        user = geodetic_to_ecef(0.0, 0.0)
        up = user / np.linalg.norm(user)
        positions = [user + 20.2e6 * up]
        # Pad with off-zenith satellites so the model is solvable.
        east = np.array([0.0, 1.0, 0.0])
        north = np.array([0.0, 0.0, 1.0])
        for d in (east, -east, north, -north):
            positions.append(user + 20.2e6 * (0.6 * d + 0.8 * up))
        setup = gps_setup(user, positions)
        np.testing.assert_allclose(setup.ops.G[0, 0], [0, 0, 1, 1],
                                   atol=1e-9)
        assert setup.elevations[0, 0] == pytest.approx(90.0)

    def test_gps_almanac_visibility(self):
        almanac = sim.default_almanac(("GPS",))
        user = geodetic_to_ecef(0.0, 0.0)
        setup = gps_setup(user, [sim.propagate(a, 0.0) for a in almanac])
        assert 8 <= setup.ops.n <= 12
        assert (setup.ops.n,) == setup.visible.shape[1:] \
            == setup.truth.sat.shape[1:]
        assert np.all(setup.elevations > 5.0)

    def test_coplanar_rank_deficient(self):
        # Every line of sight in the east-up plane: the north coordinate
        # is unobservable, however many satellites are visible.
        user = geodetic_to_ecef(0.0, 0.0)
        up = user / np.linalg.norm(user)
        east = np.array([0.0, 1.0, 0.0])
        positions = [user + 2e7 * (c * east + 0.8 * up)
                     for c in (-0.6, -0.3, 0.0, 0.3, 0.45, 0.6)]
        with pytest.raises(InsufficientGeometry, match="rank deficient"):
            gps_setup(user, positions)


class TestWlsSolve:
    """The full-set weighted least-squares solution S y of a
    SolutionStack."""

    def test_equal_weight_average(self):
        S = one(toy_model()).S
        np.testing.assert_allclose(S @ [1.0, 3.0], [2.0])
        np.testing.assert_allclose(S, [[0.5, 0.5]])

    def test_weighted_average(self):
        S = one(toy_model(w=(3.0, 1.0))).S
        np.testing.assert_allclose(S @ [1.0, 3.0], [1.5])
        np.testing.assert_allclose(S, [[0.75, 0.25]])

    def test_exact_consistency(self, rng):
        model = random_geometry(rng)
        x0 = rng.standard_normal(model.m)
        np.testing.assert_allclose(one(model).S @ (model.G @ x0), x0,
                                   atol=1e-12)

    def test_rank_deficient_geometry_of_a_stack_raises(self):
        # Solved in the constructor (S not given): one geometry of the
        # stack observes nothing of its second state.
        G = np.array([[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                      [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]])
        with pytest.raises(InsufficientGeometry, match="rank deficient"):
            SolutionStack(G, np.ones((2, 3)))
        assert SolutionStack(G[:1], np.ones((1, 3))).S.shape == (1, 2, 3)


class TestSubsetOps:
    def test_toy_exclusion(self):
        Sk, Pt = subset_ops(toy_model(), {1})
        np.testing.assert_allclose(Sk, [[1.0, 0.0]])
        np.testing.assert_allclose(Pt, [[1.0, 0.0], [1.0, 0.0]])

    def test_empty_exclusion_is_full_solution(self, rng):
        model = random_geometry(rng)
        S = solve(model.G, model.W)[1]
        Sk, _ = subset_ops(model, set())
        np.testing.assert_allclose(Sk, S, atol=1e-12)

    def test_whole_constellation_rank_deficient(self, rng):
        model = random_geometry(rng, m=5)
        idx_b = {i for i, c in enumerate(model.const_of) if c == "C1"}
        with pytest.raises(SubsetRankDeficient):
            subset_ops(model, idx_b)


def q_vector(ops, excluded, axis):
    """The q vector of one mode: its row Q of SolutionStack.mode_rows."""
    ok, Q, _ = ops.mode_rows([excluded], axis)
    assert ok[0]
    return Q[0]


class TestQVector:
    def test_toy_q(self):
        ops = one(toy_model())
        np.testing.assert_allclose(q_vector(ops, {1}, axis=0), [1.0, 0.0],
                                   atol=1e-12)

    def test_empty_mode_is_solution_row(self, rng):
        # The fault-free term's q vector is the axis row of S itself.
        model = random_geometry(rng)
        ops = one(model)
        Sk, _ = subset_ops(model, set())
        np.testing.assert_allclose(Sk[2], ops.S[2], atol=1e-12)

    def test_error_decomposition_identity(self, rng):
        # q.eps plus the S-weighted jackknife residuals reproduces the
        # position error exactly, including under injected biases.
        for _ in range(10):
            model = random_geometry(rng, n=8, m=4)
            ops = one(model)
            eps = rng.standard_normal(model.n)
            eps[2] += 50.0
            for excluded in ({2}, {2, 5}):
                q = q_vector(ops, excluded, axis=2)
                Sk, _ = subset_ops(model, excluded)
                total = q @ eps
                for j in excluded:
                    t_j = eps[j] - model.G[j] @ (Sk @ eps)
                    total += ops.S[2, j] * t_j
                err = (ops.S @ eps)[2]
                assert abs(total - err) < 1e-9


class TestInvariants:
    def test_solution_matrices_are_left_inverses(self, rng):
        # S and every testable mode's S_k rows (Q of mode_rows) solve the
        # states exactly from noiseless measurements.
        for _ in range(100):
            model = random_geometry(rng)
            ops = one(model)
            np.testing.assert_allclose(ops.S @ model.G, np.eye(model.m),
                                       atol=1e-10)
            excl = frozenset({int(rng.integers(model.n))})
            for axis in range(3):
                ok, Q, _ = ops.mode_rows([excl], axis)
                if ok[0]:
                    np.testing.assert_allclose(Q[0] @ model.G,
                                               np.eye(model.m)[axis],
                                               atol=1e-10)

    def test_jackknife_residual_expansion(self, rng):
        for _ in range(20):
            model = random_geometry(rng)
            ops = one(model)
            eps = rng.standard_normal(model.n)
            x0 = rng.standard_normal(model.m)
            y = model.G @ x0 + eps
            k = int(rng.integers(model.n))
            # The library's statistic row C against the residual operator
            # row of the direct solve, applied to the nominal errors alone.
            ok, _, C = ops.mode_rows([{k}], 2)
            assert ok[0]
            _, Pt = subset_ops(model, {k})
            expansion = (np.eye(model.n) - Pt)[k] @ eps
            assert abs(C[0] @ y - expansion) < 1e-9

    def test_excluded_measurement_insensitivity(self, rng):
        model = random_geometry(rng)
        ops = one(model)
        y = rng.standard_normal(model.n)
        k = int(rng.integers(model.n))
        Q = np.vstack([ops.mode_rows([{k}], axis)[1] for axis in range(3)])
        before = Q @ y
        y[k] += 1e6
        np.testing.assert_allclose(Q @ y, before, atol=1e-6)


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
    """SolutionStack's leave-out downdate against per-mode SVD solves
    (subset_ops)."""

    @settings(max_examples=60, deadline=None)
    @given(model=geometries, axis=st.integers(0, 2))
    def test_operators_match_svd_reference(self, model, axis):
        ops = one(model)
        modes = [frozenset(c) for size in (1, 2)
                 for c in combinations(range(model.n), size)]
        modes += [frozenset(i for i, c in enumerate(model.const_of)
                            if c == tag)
                  for tag in dict.fromkeys(model.const_of)]
        ok, Q, C = ops.mode_rows(modes, axis)
        for k, excluded in enumerate(modes):
            try:
                ref, _ = subset_ops(model, excluded)
            except SubsetRankDeficient:
                assert not ok[k], sorted(excluded)
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
            _assert_close(Q[k], ref[axis])
            _assert_close(C[k], ref_c)

    @settings(max_examples=60, deadline=None)
    @given(model=geometries, seed=st.integers(0, 2 ** 32 - 1))
    def test_press_residual_identity(self, model, seed):
        # t_i = r_i / R_ii: the leave-one-out residual from the full-set
        # residual, equal to y_i - g_i S_k y of the SVD reference.
        rng = np.random.default_rng(seed)
        y = model.G @ rng.standard_normal(model.m) \
            + rng.standard_normal(model.n)
        ops = one(model)
        r = y - model.G @ (ops.S @ y)
        tm = enumerate_modes(model.n, 1, {"all": range(model.n)}, 1e-5,
                             1e-4, m=model.m)
        for mode in tm.modes:
            (i,) = mode.excluded
            try:
                ref, _ = subset_ops(model, mode.excluded)
            except SubsetRankDeficient:
                continue
            if _reference_condition(model, mode.excluded) > 30.0:
                continue
            ok, _, C = ops.mode_rows([mode.excluded], 2)
            assert ok[0]
            t = C[0] @ y
            assert t == pytest.approx(r[i] / ops.R[i, i], abs=1e-9)
            loo = y[i] - model.G[i] @ (ref @ y)
            assert t == pytest.approx(loo, abs=1e-9)

    def test_sole_clock_satellite_and_whole_constellation_raise(self, rng):
        model = random_geometry(rng, n=10, m=5)
        G = model.G.copy()
        G[:, 3:] = [1.0, 0.0]
        G[4, 3:] = [0.0, 1.0]          # the only satellite of C1
        const_of = ["C0"] * model.n
        const_of[4] = "C1"
        model = LinearModel(G, model.W, model.sat_ids, const_of)
        ops = one(model)
        for excluded in ({4}, {4, 7}, set(range(model.n)) - {4}):
            with pytest.raises(SubsetRankDeficient):
                subset_ops(model, excluded)
            ok, _, _ = ops.mode_rows([frozenset(excluded)], 2)
            assert not ok[0]
        ok, _, _ = ops.mode_rows([frozenset({3}), frozenset({3, 7})], 2)
        assert ok.all()


class TestModeRows:
    @settings(max_examples=60, deadline=None)
    @given(model=geometries, axis=st.integers(0, 2),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_slices_equal_fresh_rows(self, model, axis, seed):
        # A mode's rows do not depend on which modes are asked for
        # together: the rows of any request, in any order and with
        # repeats, are the slices of the rows of all modes asked for at
        # once, bit for bit. The mode tables rely on it (the PL reads the
        # rows its table's detector was built from).
        rng = np.random.default_rng(seed)
        modes = [frozenset(c) for size in (1, 2, 3)
                 for c in combinations(range(model.n), size)]
        modes += [frozenset(i for i, c in enumerate(model.const_of)
                            if c == tag)
                  for tag in dict.fromkeys(model.const_of)]
        ops = one(model)
        every = ops.mode_rows(modes, axis)
        for _ in range(3):
            sel = rng.choice(len(modes), int(rng.integers(1, 30)))
            got = ops.mode_rows([modes[k] for k in sel], axis)
            for a, b in zip(got, every):
                np.testing.assert_array_equal(a, b[sel])

    def test_empty_request(self, rng):
        model = random_geometry(rng, n=8, m=4)
        ok, Q, C = one(model).mode_rows([], 2)
        assert ok.shape == (0,) and Q.shape == C.shape == (0, model.n)


def elevation_azimuth(user_ecef, sat_ecef):
    """Reference elevation and azimuth (degrees) of one satellite seen from
    one user, each computed on its own."""
    lat, lon, _ = ecef_to_geodetic(user_ecef)
    los = enu_rotation(lat, lon) @ (np.asarray(sat_ecef, dtype=float)
                                    - np.asarray(user_ecef, dtype=float))
    el = np.degrees(np.arcsin(los[2] / np.linalg.norm(los)))
    return el, np.degrees(np.arctan2(los[0], los[1])) % 360.0


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
