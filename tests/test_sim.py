import io
import math

import numpy as np
import pytest

from jkaraim import integrity, sim
from jkaraim.errors import (AlmanacOutOfRange, JkAraimError,
                            SubsetRankDeficient, TailUnresolved)
from jkaraim.overbound import default_table
from jkaraim.sim import (ScenarioConfig, aggregate, cnmp_sigma,
                         default_almanac, parse_yuma, propagate,
                         stanford_class, tropo_sigma, write_records_csv,
                         write_yuma)


class TestPropagate:
    def test_circular_orbit_constant_radius(self):
        alm = default_almanac(("GPS",))[0]
        assert alm.e == 0.0
        radii = [np.linalg.norm(propagate(alm, t)) for t in
                 np.linspace(0.0, 86400.0, 25)]
        assert max(radii) - min(radii) < 1.0

    def test_gps_orbit_radius(self):
        for alm in default_almanac(("GPS",)):
            r = np.linalg.norm(propagate(alm, 0.0))
            assert abs(r - 26560e3) < 200e3

    def test_period_repeat_nonrotating(self):
        alm = default_almanac(("GPS",))[3]
        a = alm.sqrt_a ** 2
        period = 2 * math.pi * math.sqrt(a ** 3 / sim.GM_EARTH)
        p0 = propagate(alm, 1000.0, rotating=False)
        p1 = propagate(alm, 1000.0 + period, rotating=False)
        assert np.linalg.norm(p1 - p0) < 10.0


class TestErrorModels:
    def test_tropo_spot_values(self):
        assert tropo_sigma(90.0) == pytest.approx(0.1200, abs=5e-5)
        assert tropo_sigma(5.0) == pytest.approx(1.226, abs=5e-4)

    def test_gps_cnmp_components(self):
        # sigma_noise at the e-folding elevation, and the L1/L2
        # ionosphere-free inflation factor.
        noise = 0.15 + 0.43 * math.exp(-6.9 / 6.9)
        assert noise == pytest.approx(0.3082, abs=1e-4)
        gamma = (1575.42 / 1227.60) ** 2
        factor = math.sqrt((gamma ** 2 + 1.0) / (gamma - 1.0) ** 2)
        assert factor == pytest.approx(2.978, abs=1e-3)
        assert sim.IF_FACTOR_GPS == pytest.approx(factor, rel=1e-9)

    def test_galileo_cnmp_table_anchor(self):
        # Table value at the 5 degree node, before IF inflation.
        assert cnmp_sigma("GAL", 5.0) == \
            pytest.approx(0.4529 * sim.IF_FACTOR_GAL, rel=1e-6)

    def test_no_satellites_no_models(self):
        # A user with no satellite above the mask gets no models, in
        # either flavour, before any grid is built.
        table = default_table()
        for flavor in ("gaussian", "pgo"):
            assert sim.error_models([], [], table, flavor) == []


class TestYuma:
    def test_round_trip(self):
        almanac = default_almanac(("GPS", "GAL"))
        buf = io.StringIO()
        write_yuma(almanac, buf)
        back = parse_yuma(buf.getvalue())
        assert len(back) == len(almanac) == 48
        for a, b in zip(almanac, back):
            assert a.svn == b.svn
            assert a.constellation == b.constellation
            assert a.sqrt_a == pytest.approx(b.sqrt_a, rel=1e-9)
            assert a.omega0 == pytest.approx(b.omega0, rel=1e-9)

    def test_standard_yuma_defaults_to_gps(self):
        almanac = default_almanac(("GAL",))
        buf = io.StringIO()
        write_yuma(almanac[:1], buf)
        text = "\n".join(ln for ln in buf.getvalue().splitlines()
                         if not ln.startswith(("Constellation", "SVN")))
        back = parse_yuma(text)
        assert back[0].constellation == "GPS"

    def test_eccentricity_validated(self):
        alm = default_almanac(("GPS",))[0]
        import dataclasses
        with pytest.raises(ValueError):
            dataclasses.replace(alm, e=0.2)


class TestStanfordClass:
    def test_partition_examples(self):
        assert stanford_class(1.0, 2.0, 35.0) == "NO"
        assert stanford_class(3.0, 2.0, 35.0) == "MI"
        assert stanford_class(1.0, 40.0, 35.0) == "SU"
        assert stanford_class(50.0, 40.0, 35.0) == "SU&MI"
        assert stanford_class(40.0, 2.0, 35.0) == "HMI"

    def test_partition_total_and_exclusive(self):
        rng = np.random.default_rng(1)
        vals = list(rng.uniform(0, 80, 200)) + [math.inf, math.nan]
        for vpl in vals:
            for vpe in rng.uniform(-80, 80, 20):
                c = stanford_class(vpe, vpl, 35.0)
                assert c in ("NO", "MI", "SU", "SU&MI", "HMI")

    def test_unavailable_is_system_unavailable(self):
        assert stanford_class(1.0, math.inf, 35.0) == "SU"
        assert stanford_class(1.0, math.nan, 35.0) == "SU"


class TestScenario:
    def coarse_config(self, **kw):
        args = dict(grid_step_deg=90.0, epoch_step_s=43200.0,
                    duration_s=86400.0, seed=5)
        args.update(kw)
        return ScenarioConfig(**args)

    def test_full_scale_protocol_counts(self):
        config = ScenarioConfig()
        assert len(config.grid()) == 288
        assert len(config.epochs()) == 144

    def test_record_count_matches_grid(self):
        config = self.coarse_config()
        records = sim.run_scenario(config)
        assert len(records) == len(config.grid()) * len(config.epochs())

    def test_unknown_flavor_or_algorithm_rejected(self):
        with pytest.raises(ValueError, match="flavor"):
            self.coarse_config(flavor="laplace")
        with pytest.raises(ValueError, match="algorithm"):
            self.coarse_config(algorithm="raim")

    def test_package_error_recorded_in_its_row(self, monkeypatch):
        def unresolved(*args, **kwargs):
            raise TailUnresolved("tail probability below resolvable mass")

        monkeypatch.setattr(sim, "pl_solve", unresolved)
        config = self.coarse_config(epoch_step_s=86400.0)
        records = sim.run_scenario(config)
        assert len(records) == len(config.grid())
        solved = [r for r in records if r.n_visible >= 5]
        assert solved
        for r in solved:
            assert r.error == "tail probability below resolvable mass"
            assert math.isnan(r.vpl) and r.stanford == "SU"

    def test_other_errors_propagate(self, monkeypatch):
        # A bug recorded as a failed row would pass for an unavailable PL.
        def broken(*args, **kwargs):
            raise RuntimeError("bug")

        monkeypatch.setattr(sim, "pl_solve", broken)
        with pytest.raises(RuntimeError, match="bug"):
            sim.run_scenario(self.coarse_config(epoch_step_s=86400.0))

    def test_propagation_range_is_a_package_error(self):
        alm = default_almanac(("GPS",))[0]
        with pytest.raises(AlmanacOutOfRange):
            propagate(alm, alm.toa + 7 * 86400.0)
        assert issubclass(AlmanacOutOfRange, JkAraimError)

    def test_zero_noise_zero_vpe(self, monkeypatch):
        monkeypatch.setattr(sim.SatErrorModel, "draw",
                            lambda self, rng: 0.0)
        records = sim.run_scenario(self.coarse_config())
        for r in records:
            if not r.error:
                assert r.vpe == 0.0

    def test_determinism_bitwise(self):
        config = self.coarse_config()
        out = []
        for _ in range(2):
            buf = io.StringIO()
            write_records_csv(sim.run_scenario(config), buf)
            out.append(buf.getvalue())
        assert out[0] == out[1]

    def test_csv_round_trip(self):
        records = sim.run_scenario(self.coarse_config())
        buf = io.StringIO()
        write_records_csv(records, buf)
        buf.seek(0)
        back = sim.read_records_csv(buf)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert a.stanford == b.stanford
            if np.isfinite(a.vpl):
                assert b.vpl == pytest.approx(a.vpl, abs=1e-5)
            else:
                assert not np.isfinite(b.vpl)


class TestAggregate:
    def make_record(self, lat, lon, vpe, vpl):
        r = sim.EpochRecord(lat=lat, lon=lon, t=0.0, n_visible=8)
        r.vpe = vpe
        r.vpl = vpl
        r.stanford = stanford_class(vpe, vpl, 35.0)
        return r

    def test_all_available_full_coverage(self):
        records = [self.make_record(0.0, lon, 1.0, 10.0)
                   for lon in (0.0, 15.0, 30.0)]
        stats = aggregate(records, val=35.0)
        for level, cov in stats["coverage"].items():
            assert cov["weighted"] == 1.0
            assert cov["unweighted"] == 1.0

    def test_coverage_counts_by_hand(self):
        records = []
        # Location A: 3/4 available; location B: 4/4 available.
        for i in range(4):
            records.append(self.make_record(0.0, 0.0, 1.0,
                                            10.0 if i else 50.0))
            records.append(self.make_record(0.0, 15.0, 1.0, 10.0))
        stats = aggregate(records, val=35.0,
                          availability_levels=(0.5, 0.9))
        assert stats["coverage"][0.5]["unweighted"] == 1.0
        assert stats["coverage"][0.9]["unweighted"] == 0.5
        avail = stats["availability_by_location"]
        assert avail[(0.0, 0.0)] == 0.75
        assert avail[(0.0, 15.0)] == 1.0

    def test_unavailable_location_gets_infinite_p995(self):
        records = [self.make_record(0.0, 0.0, 1.0, math.inf)
                   for _ in range(10)]
        stats = aggregate(records, val=35.0)
        assert math.isinf(stats["vpl_p995_by_location"][(0.0, 0.0)])


class TestBaselineAlert:
    def dual_case(self):
        from conftest import gps_epoch_case
        from jkaraim.model_core import SolutionOps
        geom, models, sigmas, tm, budget = gps_epoch_case(
            45.0, 10.0, 3600.0, constellations=("GPS", "GAL"))
        geom.y = np.zeros(geom.n)
        return geom, SolutionOps(geom), tm, sigmas, budget

    def test_rank_deficient_mode_is_passed_over(self, monkeypatch):
        geom, ops, tm, sigmas, budget = self.dual_case()
        assert tm.constellation_modes()

        def rank_deficient(*args, **kwargs):
            raise SubsetRankDeficient("no clock support")

        monkeypatch.setattr(integrity, "constellation_ss", rank_deficient)
        assert not integrity.baseline_alert(geom, ops, tm, sigmas, budget)

    def test_other_errors_propagate(self, monkeypatch):
        # A mode skipped on an unexpected error would be a missed alert.
        geom, ops, tm, sigmas, budget = self.dual_case()

        def broken(*args, **kwargs):
            raise RuntimeError("bug")

        monkeypatch.setattr(integrity, "constellation_ss", broken)
        with pytest.raises(RuntimeError):
            integrity.baseline_alert(geom, ops, tm, sigmas, budget)
        monkeypatch.setattr(ops, "mode_rows", broken)
        with pytest.raises(RuntimeError):
            integrity.baseline_alert(geom, ops, tm, sigmas, budget,
                                     modes=tm.sat_modes())
