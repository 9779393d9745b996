import math

import pytest
from scipy.stats import binom

from jkaraim.errors import InsufficientRedundancy
from jkaraim.threat import _binom_tail, determine_kmax, enumerate_modes


class TestDetermineKmax:
    def test_single_constellation_24(self):
        k_max = determine_kmax(24, 1e-5, 9e-8)
        assert k_max == 1
        # Residual two-or-more-fault mass is about C(24,2) * 1e-10.
        tm = enumerate_modes(24, k_max, {"GPS": range(24)}, 1e-5, 1e-4)
        assert tm.p_not_monitored == pytest.approx(
            1e-4 + math.comb(24, 2) * 1e-10, rel=1e-2)

    def test_dual_constellation_48(self):
        assert determine_kmax(48, 1e-5, 9e-8) == 2

    def test_no_satellite_faults(self):
        k_max = determine_kmax(24, 0.0, 9e-8)
        assert k_max == 1
        # A fault mode needs a positive prior, so the unmonitored mass is
        # taken in the limit: only the constellation fault is left.
        tm = enumerate_modes(24, k_max, {"GPS": range(24)}, 1e-30, 1e-4)
        assert tm.p_not_monitored == pytest.approx(1e-4)


class TestEnumerateModes:
    def test_single_const_k1(self):
        tm = enumerate_modes(8, 1, {"GPS": range(8)}, 1e-5, 1e-4)
        assert tm.n_fault_modes == 8

    def test_single_const_k2(self):
        tm = enumerate_modes(8, 2, {"GPS": range(8)}, 1e-5, 1e-4)
        assert tm.n_fault_modes == 36

    def test_dual_const_k2(self):
        parts = {"GPS": range(24), "GAL": range(24, 48)}
        tm = enumerate_modes(48, 2, parts, 1e-5, 1e-4)
        assert tm.n_fault_modes == 48 + 1128 + 2

    def test_redundancy_guard(self):
        with pytest.raises(InsufficientRedundancy):
            enumerate_modes(5, 2, {"GPS": range(5)}, 1e-5, 1e-4)


class TestThreatModelInvariants:
    def test_no_duplicate_modes_and_ordering(self):
        tm = enumerate_modes(8, 2, {"GPS": range(8)}, 1e-5, 1e-4)
        seen = {m.excluded for m in tm.modes}
        assert len(seen) == len(tm.modes)
        # Single-fault modes come first, ids 1..n matching measurement order.
        for i, mode in enumerate(tm.modes[:8]):
            assert mode.excluded == frozenset({i})
            assert mode.id == i + 1

    def test_prior_mass_consistency(self):
        parts = {"GPS": range(12), "GAL": range(12, 24)}
        tm = enumerate_modes(24, 2, parts, 1e-5, 1e-4)
        total = tm.p_h0 + sum(m.prior for m in tm.modes) + tm.p_not_monitored
        assert 1.0 - 1e-6 <= total <= 1.0 + 1e-9

    def test_priors_in_range(self):
        tm = enumerate_modes(8, 2, {"GPS": range(8)}, 1e-5, 1e-4)
        for m in tm.modes:
            assert 0 < m.prior < 1
            assert len(m.excluded) >= 1


class TestBinomialTail:
    @pytest.mark.parametrize("p", [0.0, 1e-8, 1e-5, 1e-4, 1e-3, 1e-2])
    def test_equals_scipy_stats_binom_sf(self, p):
        # The library computes the tail without scipy.stats; it must be
        # the same double, including 0 for k >= n.
        for n in range(1, 65):
            for k in range(n + 3):
                assert _binom_tail(n, p, k) == float(binom.sf(k, n, p)), \
                    (n, k, p)
