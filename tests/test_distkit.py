import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.special import ndtr, ndtri

from jkaraim.distkit import (_UNDERFLOW_Z, Gaussian, GridBatch,
                             GridDistribution, PairedBound, Pgo, _norm_pdf,
                             _scaled_pdf, convolve_batch, convolve_rows,
                             scaled_convolve)
from jkaraim.errors import TailUnresolved
from jkaraim.overbound import default_table
from jkaraim.sim import cnmp_sigma, error_models, tropo_sigma


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


def pgo_grid(pgo, s_tropo, s_user, n_points=512):
    """A satellite's PGO accuracy bound on a grid, as sim.error_model
    builds it."""
    return scaled_convolve([1.0, 1.0, 1.0],
                           [pgo, Gaussian(s_tropo), Gaussian(s_user)],
                           n_points=n_points, force_grid=True)


_GRID_COMPONENTS = []


def grid_components():
    if not _GRID_COMPONENTS:
        table = default_table()
        for k, svn in enumerate(sorted(table.svns())[::13][:4]):
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
                for svn in sorted(default_table().svns())[::7]]
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
    bit for bit."""
    m = d._tail_scale * ndtr(d.x[0] / d.tail_sigma)
    inside = m + (1.0 - 2.0 * m) * np.interp(x, d.x, d.cdf_grid)
    lo = d._tail_scale * ndtr(np.minimum(x, d.x[0]) / d.tail_sigma)
    hi = 1.0 - d._tail_scale * ndtr(-np.maximum(x, d.x[-1]) / d.tail_sigma)
    return np.where(x < d.x[0], lo, np.where(x > d.x[-1], hi, inside))


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


class TestWindowedKernel:
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
        h = rng.uniform(0.5, 4.0) * d.tail_sigma / n_points
        a = 10.0 ** rng.uniform(-3.0, 1.0, (int(rng.integers(1, 6)), 1))
        u = np.arange(n_points + 1) * h
        np.testing.assert_array_equal(_scaled_pdf(d, n_points, h, a),
                                      d.pdf(u[None, :] / a) / a)

    def test_gaussian_component_unchanged(self):
        u = np.arange(129) * 0.05
        a = np.array([[0.3], [1.7]])
        np.testing.assert_array_equal(
            _scaled_pdf(Gaussian(0.8), 128, 0.05, a),
            _norm_pdf(u[None, :] / a, 0.8) / a)

    def test_underflow_cut_is_where_the_density_is_zero(self):
        # Past _UNDERFLOW_Z sigmas nothing is evaluated: the density must
        # be exactly 0.0 there, and subnormal, not zero, a little before.
        sigma = 0.7
        z = np.linspace(_UNDERFLOW_Z, 60.0, 20001)
        assert np.all(_norm_pdf(z * sigma, sigma) == 0.0)
        assert 0.0 < _norm_pdf(38.6 * sigma, sigma) < np.finfo(float).tiny

    def test_analytic_rows_stop_at_their_own_reach(self):
        # Rows of small coefficient reach the underflow early and stop
        # there; the values stay those of evaluating every sample.
        u = np.arange(2049) * 0.05
        a = np.array([[0.01], [0.3], [1.0], [2.5]])
        for d in (Gaussian(0.8), svn63_pgo()):
            np.testing.assert_array_equal(_scaled_pdf(d, 2048, 0.05, a),
                                          d.pdf(u[None, :] / a) / a)


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


class TestDeepTail:
    """The grid engine against an independent reference at the tail
    probabilities integrity uses."""

    def test_pgo_accuracy_bound_quantiles_against_exact(self):
        # Each satellite's PGO accuracy bound (PGO (+) tropo (+) user noise
        # on a grid) at its p-quantile must leave an exact tail of p:
        # below 0.99 p is needlessly loose, above 1.001 p unsafe. 2048
        # points is the scenario grid size.
        table = default_table()
        svns = sorted(table.svns())
        for n_points in (2048, 4096):
            worst = []
            for el in DEEP_TAIL_ELEVATIONS:
                models = error_models(svns, [el] * len(svns), table, "pgo",
                                      n_points=n_points)
                for svn, model in zip(svns, models):
                    entry, acc = table[svn], model.acc_bound
                    s = math.hypot(float(tropo_sigma(el)),
                                   float(cnmp_sigma(entry.constellation, el)))
                    f, wide = pgo_noise_density(entry.pgo(), s)
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
        for svn in sorted(table.svns()):
            entry = table[svn]
            for el in DEEP_TAIL_ELEVATIONS:
                batch = convolve_batch(
                    [[1.0, 1.0, 1.0]],
                    [entry.pgo(), Gaussian(float(tropo_sigma(el))),
                     Gaussian(float(cnmp_sigma(entry.constellation, el)))],
                    force_grid=True)
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
    """sim.error_models builds every satellite's PGO accuracy grid in one
    convolve_rows batch, each row on its own grid; every row must be the
    one-row scaled_convolve grid, the independent reference, bit for
    bit."""

    @pytest.mark.parametrize("n_points", [2048, 4096])
    def test_rows_equal_scaled_convolve(self, n_points):
        table = default_table()
        pairs = [(svn, el) for el in DEEP_TAIL_ELEVATIONS
                 for svn in sorted(table.svns())]
        models = error_models([s for s, _ in pairs], [e for _, e in pairs],
                              table, "pgo", n_points=n_points)
        assert len(models) == 54 * len(DEEP_TAIL_ELEVATIONS)
        for (svn, el), model in zip(pairs, models):
            entry = table[svn]
            ref = scaled_convolve(
                [1.0, 1.0, 1.0],
                [entry.pgo(), Gaussian(float(tropo_sigma(el))),
                 Gaussian(float(cnmp_sigma(entry.constellation, el)))],
                n_points=n_points, force_grid=True)
            got = model.acc_bound
            for name in ("x", "pdf_grid", "cdf_grid"):
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(ref, name))
            assert got.h == ref.h
            assert got.tail_sigma == ref.tail_sigma
            assert got._tail_scale == ref._tail_scale
            assert got._one.edge_mass[0] == ref._one.edge_mass[0]
            assert got.support_extra == ref.support_extra
            assert got.variance() == ref.variance()
