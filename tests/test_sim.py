import dataclasses
import hashlib
import io
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jkaraim import integrity, jackknife, sim
from jkaraim.distkit import Gaussian, convolve_rows
from jkaraim.errors import (AlmanacOutOfRange, InsufficientGeometry,
                            InsufficientRedundancy, JkAraimError,
                            NoValidPartition, SubsetRankDeficient,
                            TailUnresolved, UnknownSatellite)
from jkaraim.integrity import IntegrityBudget
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
        # The ECEF node is the inertial one less OMEGA_EARTH t, so turning
        # the ECEF position by OMEGA_EARTH t about z gives the inertial
        # position, which repeats after one orbital period.
        alm = default_almanac(("GPS",))[3]
        a = alm.sqrt_a ** 2
        period = 2 * math.pi * math.sqrt(a ** 3 / sim.GM_EARTH)

        def inertial(t):
            x, y, z = propagate(alm, t)
            turn = sim.OMEGA_EARTH * t
            c, s = math.cos(turn), math.sin(turn)
            return np.array([c * x - s * y, s * x + c * y, z])

        p0 = inertial(1000.0)
        p1 = inertial(1000.0 + period)
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

    def test_no_satellites_no_models(self, monkeypatch):
        # A user with no satellite above the mask gets no truth and no
        # bounds, in either flavour: the set-up refuses the epoch before
        # any error model or grid is built.
        def built(*args):
            raise AssertionError("error models built")

        monkeypatch.setattr(sim, "_error_stack", built)
        user = sim.model_core.geodetic_to_ecef(0.0, 0.0)
        for flavor in ("gaussian", "pgo"):
            with pytest.raises(InsufficientGeometry) as exc:
                sim.epoch_setup(user, [], [], np.zeros((0, 3)),
                                default_table(), IntegrityBudget(),
                                flavor=flavor)
            assert exc.value.n_visible == 0


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

    @pytest.mark.parametrize("field, value", [
        ("grid_step_deg", 0.0), ("grid_step_deg", -15.0),
        ("grid_step_deg", 720.0), ("grid_step_deg", math.nan),
        ("duration_s", 0.0), ("duration_s", -600.0),
        ("duration_s", math.inf), ("duration_s", math.nan),
        ("epoch_step_s", 0.0), ("epoch_step_s", -600.0),
        ("epoch_step_s", math.nan), ("mask_deg", -10.0),
        ("mask_deg", 90.0), ("mask_deg", math.nan), ("val", 0.0),
        ("val", -1.0), ("val", math.inf), ("val", math.nan),
        ("constellations", ()), ("constellations", ("GPS", "GPS")),
        ("constellations", ("GPS", "GLO")), ("constellations", ("",)),
        ("seed", -1), ("seed", 1.5), ("seed", "3")])
    def test_non_positive_grid_step_or_duration_rejected(self, field, value):
        # And an epoch step that is not positive, a mask outside [0, 90),
        # a val that is not positive and finite, constellations that are
        # not distinct names of shipped almanacs (a repeated one would put
        # every satellite in twice) and a seed that is not a non-negative
        # integer.
        with pytest.raises(ValueError, match=field):
            self.coarse_config(**{field: value})

    def test_baseline_takes_gaussian_bounds_only(self):
        with pytest.raises(ValueError, match="Gaussian bounds only"):
            self.coarse_config(algorithm="baseline", flavor="pgo")

    def test_package_error_recorded_in_its_row(self, monkeypatch):
        def unresolved(*args, **kwargs):
            raise TailUnresolved("tail probability below resolvable mass")

        monkeypatch.setattr(sim, "protection_levels", unresolved)
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

        monkeypatch.setattr(sim, "protection_levels", broken)
        with pytest.raises(RuntimeError, match="bug"):
            sim.run_scenario(self.coarse_config(epoch_step_s=86400.0))

    def test_horizontal_pls_leave_vpls_unchanged(self):
        kw = dict(grid_step_deg=60.0, epoch_step_s=21600.0)
        vert = sim.run_scenario(self.coarse_config(**kw))
        both = sim.run_scenario(self.coarse_config(compute_horizontal=True,
                                                   **kw))
        assert len(both) == 72
        assert [r.vpl for r in both] == [r.vpl for r in vert]
        assert all(math.isnan(r.hpl) for r in vert)
        assert all(np.isfinite(r.hpl) and r.hpl > 0.0 for r in both)

    def test_propagation_range_is_a_package_error(self):
        alm = default_almanac(("GPS",))[0]
        with pytest.raises(AlmanacOutOfRange):
            propagate(alm, alm.toa + 7 * 86400.0)
        assert issubclass(AlmanacOutOfRange, JkAraimError)

    def test_zero_noise_zero_vpe(self, monkeypatch):
        monkeypatch.setattr(sim, "draw_errors",
                            lambda truth, keys: np.zeros(truth.sat.shape))
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
        # An 80 degree mask refuses most cells: their reasons must come
        # back as written.
        records = (sim.run_scenario(self.coarse_config())
                   + sim.run_scenario(self.coarse_config(mask_deg=80.0)))
        assert any(r.error for r in records)
        buf = io.StringIO()
        write_records_csv(records, buf)
        buf.seek(0)
        back = sim.read_records_csv(buf)
        assert len(back) == len(records)
        assert [b.error for b in back] == [a.error for a in records]
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


class TestWriters:
    """write_records_csv and summary_json of a hand-built record list with
    NaN and infinite VPLs and 3, 1, 5 and 2 records per location."""

    ROWS = [
        (10.0, -20.0, 0.0, 9, 0.4123456789, 0.2, 12.3456789, math.nan,
         False, ""),
        (0.0, 0.0, 0.0, 7, -1.5, 1.0, math.inf, math.nan, True, ""),
        (-45.0, 22.5, 0.0, 3, math.nan, math.nan, math.nan, math.nan, False,
         "insufficient geometry"),
        (10.0, -20.0, 600.0, 9, 40.0, 3.0, 36.5, 20.25, True, ""),
        (0.0, 0.0, 600.0, 8, 0.1, 0.1, 34.999999, 18.0, False, ""),
        (75.0, 150.0, 0.0, 8, -2.25, 0.5, 1e-7, 1e-7, False, ""),
        (0.0, 0.0, 1200.0, 8, 0.3, 0.2, 35.0, math.inf, False, ""),
        (10.0, -20.0, 1200.0, 0, math.nan, math.nan, math.nan, math.nan,
         False, 'no bound parameters for "SVN99", refused'),
        (0.0, 0.0, 1800.0, 6, -0.05, 0.01, 22.75, 15.5, False, ""),
        (75.0, 150.0, 600.0, 8, 0.0, 0.0, 33.125, math.nan, False, ""),
        (0.0, 0.0, 2400.0, 6, 1.0, 2.0, math.nan, math.nan, False,
         "tail probability unresolved"),
    ]

    # Six decimals for each number, an empty cell for an unavailable one,
    # CSV quoting for an error that needs it.
    CSV = """\
lat_deg,lon_deg,t_s,n_vis,vpe_m,hpe_m,vpl_m,hpl_m,alert,class,error
10,-20,0,9,0.412346,0.200000,12.345679,,0,NO,
0,0,0,7,-1.500000,1.000000,,,1,SU,
-45,22.5,0,3,,,,,0,SU,insufficient geometry
10,-20,600,9,40.000000,3.000000,36.500000,20.250000,1,SU&MI,
0,0,600,8,0.100000,0.100000,34.999999,18.000000,0,NO,
75,150,0,8,-2.250000,0.500000,0.000000,0.000000,0,MI,
0,0,1200,8,0.300000,0.200000,35.000000,,0,NO,
10,-20,1200,0,,,,,0,SU,"no bound parameters for ""SVN99"", refused"
0,0,1800,6,-0.050000,0.010000,22.750000,15.500000,0,NO,
75,150,600,8,0.000000,0.000000,33.125000,,0,NO,
0,0,2400,6,1.000000,2.000000,,,0,SU,tail probability unresolved
"""

    # SHA-256 of this list's summary, pinned so that a faster aggregate or
    # writer keeps every byte.
    SUMMARY_SHA256 = ("1dac824cf8eb3a24eda85c3777bb90af"
                      "c67e112ae228d9ed4f36c35d3c6deb4b")

    def records(self):
        return [sim.EpochRecord(lat, lon, t, n, vpe=vpe, hpe=hpe, vpl=vpl,
                                hpl=hpl, alert=alert,
                                stanford=stanford_class(vpe, vpl, 35.0),
                                error=error)
                for lat, lon, t, n, vpe, hpe, vpl, hpl, alert, error
                in self.ROWS]

    def test_same_bytes(self):
        buf = io.StringIO()
        write_records_csv(self.records(), buf)
        assert buf.getvalue() == self.CSV
        summary = sim.summary_json(self.records(), ScenarioConfig(),
                                   availability_levels=(0.5, 0.75, 0.995))
        assert hashlib.sha256(summary.encode()).hexdigest() \
            == self.SUMMARY_SHA256
        avail = {(d["lat"], d["lon"]): d["availability"]
                 for d in json.loads(summary)["availability_by_location"]}
        assert avail == {(-45.0, 22.5): 0.0, (0.0, 0.0): 0.4,
                         (10.0, -20.0): 1 / 3, (75.0, 150.0): 1.0}

    def test_errors_read_back(self):
        back = sim.read_records_csv(io.StringIO(self.CSV))
        assert [r.error for r in back] == [row[-1] for row in self.ROWS]
        # A file from before the error column reads as no error.
        old = "\n".join(line.rsplit(",", 1)[0]
                        for line in self.CSV.splitlines()[:3])
        assert [r.error for r in sim.read_records_csv(io.StringIO(old))] \
            == ["", ""]


class TestTruthDraws:
    """draw_errors draws a stack's truth in one array pass, each record
    from its own key and each draw from a counter naming the satellite,
    the draw slot and the rejection round."""

    @staticmethod
    def one_satellite(pgo, n, tropo, user):
        """n records that each see satellite 4, whose PGO is pgo."""
        return sim.Truth(np.broadcast_to(pgo.draw_params, (n, 1, 11)),
                         np.full((n, 1), 4), np.full((n, 1), tropo),
                         np.full((n, 1), user))

    @pytest.mark.parametrize("svn", ["SVN53", "SVN44"])
    def test_law(self, svn):
        from scipy.stats import kstest
        pgo = default_table()[svn].pgo()
        # SVN53's core is a mixture (c >= 0), SVN44's a rejection (c < 0).
        assert (pgo.c_offset >= 0.0) == (svn == "SVN53")
        n = 10 ** 5
        keys = sim.record_keys(7, np.arange(n), 3)
        part = sim.draw_errors(self.one_satellite(pgo, n, 0.0, 0.0),
                               keys)[:, 0]
        assert np.mean(np.abs(part) > pgo.x_rp) > 0.1
        assert kstest(part, pgo.cdf).pvalue > 1e-3
        row = (pgo, Gaussian(0.6), Gaussian(0.8))
        [grid] = convolve_rows([row])
        total = sim.draw_errors(self.one_satellite(pgo, n, 0.6, 0.8),
                                keys)[:, 0]
        assert kstest(total, grid.cdf).pvalue > 1e-3

    def test_alone_in_a_stack_and_reversed(self):
        table = default_table()
        svns = [s for s in table if table[s].constellation == "GPS"]
        params = np.array([table[s].pgo().draw_params for s in svns])
        rng = np.random.default_rng(4)
        n_rec, n = 64, 7
        sat = np.array([np.sort(rng.choice(len(svns), n, replace=False))
                        for _ in range(n_rec)])
        truth = sim.Truth(params[sat], sat, rng.uniform(0.1, 1.0, sat.shape),
                          rng.uniform(0.1, 1.0, sat.shape))
        keys = sim.record_keys(9, 3 * np.arange(n_rec) + 1, 17)
        stack = sim.draw_errors(truth, keys)

        def take(rows, cols=slice(None)):
            # The Truth of the records rows, with their satellites cols.
            return sim.Truth(*(a[rows][:, cols] for a in (
                truth.pgo, truth.sat, truth.tropo, truth.user)))

        back = np.arange(n_rec)[::-1]
        np.testing.assert_array_equal(
            sim.draw_errors(take(back), keys[back])[back], stack)
        some = [0, 2, 3, 6]
        for b in range(n_rec):
            np.testing.assert_array_equal(
                sim.draw_errors(take([b]), keys[b:b + 1])[0], stack[b])
            # Nor do the other satellites a record sees change a draw.
            fewer = take([b], some)
            np.testing.assert_array_equal(
                sim.draw_errors(fewer, keys[b:b + 1])[0], stack[b, some])

    def test_every_bit_of_the_seed_counts(self):
        seeds = [0, 1, 5, 2 ** 64 - 1, 2 ** 64, 5 + 2 ** 64, 5 + 2 ** 128]
        assert len({int(sim.record_keys(s, [0], 0)[0]) for s in seeds}) \
            == len(seeds)
        kw = dict(grid_step_deg=90.0, epoch_step_s=43200.0,
                  duration_s=86400.0)
        a = sim.run_scenario(ScenarioConfig(seed=5, **kw))
        b = sim.run_scenario(ScenarioConfig(seed=5 + 2 ** 64, **kw))
        assert [r.vpl for r in a] == [r.vpl for r in b]
        solved = [i for i, r in enumerate(a) if not r.error]
        assert solved and all(a[i].vpe != b[i].vpe for i in solved)


class TestBaselineAlert:
    """The baseline's detector: run_detector on the separation table of
    every mode of the threat (jackknife.separation_table)."""

    def dual_case(self):
        from conftest import gps_epoch_case
        ops, _, acc, tm, budget = gps_epoch_case(
            45.0, 10.0, 3600.0, constellations=("GPS", "GAL"))
        return ops, tm, acc, budget

    def test_rank_deficient_mode_is_passed_over(self, monkeypatch):
        ops, tm, acc, budget = self.dual_case()
        assert tm.constellation_modes()

        def rank_deficient(*args, **kwargs):
            raise SubsetRankDeficient("no clock support")

        monkeypatch.setattr(ops, "reduced", rank_deficient)
        tests = jackknife.separation_table(ops, tm, acc, budget)
        assert tests.skipped == tuple(m.id for m in tm.constellation_modes())
        assert not jackknife.run_detector(tests,
                                          np.zeros((1, ops.n)))[1].any()

    def test_other_errors_propagate(self, monkeypatch):
        # A mode skipped on an unexpected error would be a missed alert.
        ops, tm, acc, budget = self.dual_case()
        y = np.zeros((1, ops.n))

        def broken(*args, **kwargs):
            raise RuntimeError("bug")

        monkeypatch.setattr(ops, "reduced", broken)
        with pytest.raises(RuntimeError):
            jackknife.run_detector(
                jackknife.separation_table(ops, tm, acc, budget), y)
        monkeypatch.setattr(ops, "mode_rows", broken)
        with pytest.raises(RuntimeError):
            integrity.separation_tests(ops, tm.sat_modes(), acc, 1e-7)


class TestHorizontalDetection:
    """With compute_horizontal each axis's PL offsets its fault terms by
    the thresholds of that axis's tests, so the record alerts when the
    tests of any axis with a PL do."""

    LAT, LON, T = 30.0, -90.0, 7200.0
    CONSTS = ("GPS", "GAL")

    def test_east_separation_alerts_under_quiet_vertical_tests(
            self, monkeypatch):
        from scipy.optimize import linprog
        from jkaraim.model_core import AXIS_EAST, geodetic_to_ecef
        sats = sim.healthy_satellites(default_almanac(self.CONSTS),
                                      self.CONSTS)
        positions = sim.satellite_positions(sats, self.T)
        configs = [ScenarioConfig(constellations=self.CONSTS,
                                  compute_horizontal=horizontal)
                   for horizontal in (False, True)]
        budget = configs[0].budget
        s = sim.epoch_setup(geodetic_to_ecef(self.LAT, self.LON),
                            [a.svn for a in sats],
                            [a.constellation for a in sats], positions,
                            default_table(), budget)
        acc = s.acc_bounds
        up = jackknife.thresholds(s.ops, s.tm, acc, budget)
        east = jackknife.thresholds(s.ops, s.tm, acc, budget, AXIS_EAST)
        k = east.ids.index(18)
        # Observations that keep every vertical statistic within 0.99 of
        # its threshold and push constellation mode 18's east separation
        # as far as they can.
        rows = up.rows[0]
        lp = linprog(-east.rows[0, k], A_ub=np.vstack((rows, -rows)),
                     b_ub=np.tile(0.99 * up.thresholds[0], 2),
                     bounds=(None, None), method="highs")
        assert lp.status == 0
        y = lp.x
        assert not jackknife.run_detector(up, y[None])[1].any()
        assert east.rows[0, k] @ y >= 1.5 * east.thresholds[0, k]

        monkeypatch.setattr(sim, "draw_errors", lambda truth, keys: y[None])
        vert, both = (sim.evaluate_epoch(c, sats, positions,
                                         default_table(), self.LAT,
                                         self.LON, self.T)
                      for c in configs)
        assert not vert.error and not both.error
        assert both.vpl == vert.vpl and np.isfinite(both.hpl)
        assert not vert.alert
        assert both.alert


class TestGridResolution:
    """Every convolution runs on distkit.GRID_POINTS, so the library's
    calls with their defaults give the scenario record."""

    def test_library_chain_equals_scenario_vpl(self):
        # The epoch of demos/protection_levels.py.
        lat, lon, t = 34.0, -118.0, 36000.0
        sats = sim.healthy_satellites(default_almanac(("GPS",)), ("GPS",))
        positions = sim.satellite_positions(sats, t)
        config = ScenarioConfig(flavor="pgo")
        rec = sim.evaluate_epoch(config, sats, positions, default_table(),
                                 lat, lon, t)
        budget = config.budget
        s = sim.epoch_setup(sim.model_core.geodetic_to_ecef(lat, lon),
                            [a.svn for a in sats],
                            [a.constellation for a in sats], positions,
                            default_table(), budget, flavor="pgo")
        tests = jackknife.thresholds(s.ops, s.tm, s.acc_bounds, budget)
        [vpl], _ = integrity.protection_levels(s.ops, s.tm, s.acc_bounds,
                                               tests, budget)
        assert not rec.error
        assert vpl == rec.vpl


class TestEpochSetup:
    """sim.epoch_setup, the set-up of every scenario record, and how
    evaluate_epoch records the epochs it refuses."""

    LAT, LON, T = 30.0, -90.0, 7200.0

    def healthy(self):
        """The healthy GPS satellites and their positions at T."""
        sats = sim.healthy_satellites(default_almanac(("GPS",)), ("GPS",))
        return sats, sim.satellite_positions(sats, self.T)

    def setup(self, sats, positions, **budget):
        user = sim.model_core.geodetic_to_ecef(self.LAT, self.LON)
        return sim.epoch_setup(user, [a.svn for a in sats],
                               [a.constellation for a in sats], positions,
                               default_table(),
                               IntegrityBudget(p_const=0.0, **budget))

    def visible(self):
        """The healthy GPS satellites above the mask, and their
        positions."""
        sats, positions = self.healthy()
        [vis] = self.setup(sats, positions).visible
        return [sats[i] for i in vis], positions[vis]

    def record(self, sats, positions, **budget):
        config = ScenarioConfig(
            budget=IntegrityBudget(p_const=0.0, **budget) if budget
            else None)
        return sim.evaluate_epoch(config, sats, positions, default_table(),
                                  self.LAT, self.LON, self.T)

    def test_mislabelled_satellite_refused(self):
        # A GPS satellite labelled GAL would get a GAL clock state but the
        # GPS receiver noise of its bound table entry.
        consts = ("GPS", "GAL")
        sats = sim.healthy_satellites(default_almanac(consts), consts)
        labels = [a.constellation for a in sats]
        labels[[a.svn for a in sats].index("SVN45")] = "GAL"
        with pytest.raises(UnknownSatellite, match="'SVN45' is labelled "
                           "'GAL', but its bounds are 'GPS'"):
            sim.epoch_setup(sim.model_core.geodetic_to_ecef(self.LAT,
                                                            self.LON),
                            [a.svn for a in sats], labels,
                            sim.satellite_positions(sats, self.T),
                            default_table(), IntegrityBudget())

    def test_refusals_carry_the_visible_count(self):
        sats, positions = self.visible()
        with pytest.raises(InsufficientGeometry) as exc:
            self.setup(sats[:4], positions[:4])
        assert exc.value.n_visible == 4
        # p_sat = 1e-4 asks for k_max = 2 of five satellites, n - m = 1.
        with pytest.raises(InsufficientRedundancy) as exc:
            self.setup(sats[:5], positions[:5], p_sat=1e-4)
        assert exc.value.n_visible == 5

    def test_refused_epochs_recorded_in_their_row(self):
        sats, positions = self.visible()
        rec = self.record(sats[:4], positions[:4])
        assert (rec.n_visible, rec.error) == (4, "insufficient geometry")
        rec = self.record(sats[:5], positions[:5], p_sat=1e-4)
        assert rec.n_visible == 5
        assert rec.error == "k_max=2 exceeds redundancy n-m=1"
        assert math.isnan(rec.vpl) and rec.stanford == "SU"
        assert not self.record(sats, positions).error

    def test_rank_deficient_geometry_propagates(self):
        # Every line of sight in one vertical plane leaves a horizontal
        # coordinate unobservable. The weighted solve's error propagates
        # out of epoch_setup with the visible count, and evaluate_epoch
        # records it in its row.
        sats, _ = self.visible()
        user = sim.model_core.geodetic_to_ecef(0.0, 0.0)
        up = user / np.linalg.norm(user)
        east = np.array([0.0, 1.0, 0.0])
        positions = np.array([user + 2e7 * (c * east + 0.8 * up)
                              for c in (-0.6, -0.3, 0.0, 0.3, 0.6)])
        with pytest.raises(InsufficientGeometry,
                           match="rank deficient") as exc:
            sim.epoch_setup(user, [a.svn for a in sats[:5]],
                            ["GPS"] * 5, positions, default_table(),
                            IntegrityBudget(p_const=0.0))
        assert exc.value.n_visible == 5
        rec = sim.evaluate_epoch(ScenarioConfig(), sats[:5], positions,
                                 default_table(), 0.0, 0.0, 0.0)
        assert (rec.n_visible, rec.error) == (
            5, "weighted geometry is rank deficient")

    @pytest.mark.parametrize("refusal, flavor", [
        pytest.param("missing_bounds", "pgo", id="missing_bounds"),
        pytest.param("invalid_pgo", "pgo", id="invalid_pgo"),
        pytest.param("grid_overflow", "pgo", id="grid_overflow"),
        pytest.param("missing_bounds", "gaussian",
                     id="missing_bounds-gaussian"),
        pytest.param("invalid_pgo", "gaussian", id="invalid_pgo-gaussian")])
    def test_refused_records_keep_the_visible_count(self, refusal, flavor,
                                                    monkeypatch):
        # Whatever package error epoch_setup raises after the mask, the
        # record keeps the visible count of the full run's record at its
        # cell, and the scenario goes on: a satellite missing from the
        # bound table, an entry whose PGO cannot be built (a negative
        # partition point), or PGO bounds wider than the grid may be. PGO
        # records stack alone; Gaussian ones share stacks with the records
        # that see the same constellations, refused or not.
        config = ScenarioConfig(grid_step_deg=90.0, duration_s=600.0,
                                epoch_step_s=600.0, flavor=flavor)
        full = sim.run_scenario(config)
        assert not any(r.error for r in full)
        table = default_table()
        message = {"missing_bounds": "no bound parameters for 'SVN41'",
                   "invalid_pgo": "x_rp must be positive"}.get(refusal)
        if refusal == "missing_bounds":
            del table["SVN41"]
        elif refusal == "invalid_pgo":
            table["SVN41"] = dataclasses.replace(table["SVN41"], xrp_m=-1.0)
            sats = sim.healthy_satellites(default_almanac(("GPS",)),
                                          ("GPS",))
            for flavor in ("gaussian", "pgo"):
                with pytest.raises(NoValidPartition, match=message):
                    sim.epoch_setup(
                        sim.model_core.geodetic_to_ecef(45.0, 0.0),
                        [a.svn for a in sats], [a.constellation for a in sats],
                        sim.satellite_positions(sats, 0.0), table,
                        config.budget, flavor=flavor)
        else:
            monkeypatch.setattr(sim.distkit, "MAX_GRID_HALFWIDTH", 1.0)
        records = TestStackOfOne.assert_stack_equals_singles(
            config, default_almanac(("GPS",)), table)
        refused = [(r, f) for r, f in zip(records, full) if r.error]
        if message:
            assert [(r.lat, r.lon, r.error) for r, _ in refused] == [
                (lat, 0.0, message) for lat in (-45.0, 45.0)]
            assert [r for r in records if not r.error] == [
                f for r, f in zip(records, full) if not r.error]
        else:
            assert len(refused) == len(full)
            assert all("exceeds maximum" in r.error for r, _ in refused)
        for r, f in refused:
            assert (r.lat, r.lon, r.n_visible) == (f.lat, f.lon, f.n_visible)
            assert r.n_visible >= 7

    def test_readme_quick_start(self, capsys):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        section = readme.split("## Quick start", 1)[1]
        snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
        scope = {}
        exec(snippet, scope)
        expect = self.record(*self.healthy())
        assert scope["vpl"] == expect.vpl
        assert capsys.readouterr().out == (
            f"{expect.n_visible} satellites, "
            f"{scope['setup'].tm.n_fault_modes} fault modes, "
            f"VPL {expect.vpl:.2f} m\n")


class TestStackOfOne:
    """run_scenario evaluates each epoch's locations as stacks, and
    evaluate_epoch is the same evaluation of one location: every record of
    a scenario equals evaluate_epoch's for its cell, field by field and
    bit for bit."""

    CONSTS = ("GPS", "GAL")

    @staticmethod
    def assert_stack_equals_singles(config, almanac, table=None):
        table = default_table() if table is None else table
        records = sim.run_scenario(config, almanac=almanac, table=table)
        sats = sim.healthy_satellites(almanac, config.constellations)
        epochs = [float(t) for t in config.epochs()]
        positions = [sim.satellite_positions(sats, t) for t in epochs]
        singles = [sim.evaluate_epoch(config, sats, positions[e], table,
                                      lat, lon, t, loc, e)
                   for loc, (lat, lon) in enumerate(config.grid())
                   for e, t in enumerate(epochs)]

        bits = TestStackOfOne.bits
        assert [bits(r) for r in records] == [bits(r) for r in singles]
        return records

    @staticmethod
    def bits(record):
        """A record's fields, each float as its bytes (NaN included)."""
        return [np.float64(v).tobytes() if isinstance(v, float) else v
                for v in dataclasses.astuple(record)]

    def lone_galileo(self):
        """GPS plus one Galileo satellite: wherever that satellite is
        visible, its one-satellite mode is rank deficient (it alone
        observes the Galileo clock)."""
        almanac = default_almanac(self.CONSTS)
        return [a for a in almanac if a.constellation == "GPS"] + [
            next(a for a in almanac if a.constellation == "GAL")]

    def test_rank_deficient_mode_and_refusals(self):
        # A 20 degree mask leaves some cells with too few satellites, and
        # the lone Galileo satellite's mode is untestable where it is
        # visible: such records stack apart and still match.
        almanac = self.lone_galileo()
        config = ScenarioConfig(grid_step_deg=60.0, epoch_step_s=21600.0,
                                duration_s=86400.0, mask_deg=20.0,
                                constellations=self.CONSTS, seed=3)
        records = self.assert_stack_equals_singles(config, almanac)
        assert any(r.error == "insufficient geometry" for r in records)
        sats = sim.healthy_satellites(almanac, self.CONSTS)
        skipped = 0
        for r in records:
            if r.error:
                continue
            s = sim.epoch_setup(
                sim.model_core.geodetic_to_ecef(r.lat, r.lon),
                [a.svn for a in sats], [a.constellation for a in sats],
                sim.satellite_positions(sats, r.t), default_table(),
                config.budget, mask_deg=config.mask_deg)
            skipped += bool(jackknife.thresholds(s.ops, s.tm, s.acc_bounds,
                                                 config.budget).skipped)
        assert skipped

    def test_cells_without_satellites(self):
        # An 80 degree mask leaves most cells with no satellite at all:
        # each such record reads insufficient geometry with no satellite
        # visible, and epoch_setup refuses such a cell the same way.
        config = ScenarioConfig(grid_step_deg=90.0, epoch_step_s=21600.0,
                                duration_s=86400.0, mask_deg=80.0)
        almanac = default_almanac(("GPS",))
        records = self.assert_stack_equals_singles(config, almanac)
        empty = [r for r in records if r.n_visible == 0]
        assert empty and all(r.error == "insufficient geometry"
                             for r in empty)
        sats = sim.healthy_satellites(almanac, ("GPS",))
        r = empty[0]
        with pytest.raises(InsufficientGeometry) as exc:
            sim.epoch_setup(
                sim.model_core.geodetic_to_ecef(r.lat, r.lon),
                [a.svn for a in sats], [a.constellation for a in sats],
                sim.satellite_positions(sats, r.t), default_table(),
                config.budget, mask_deg=config.mask_deg)
        assert exc.value.n_visible == 0

    def test_only_the_raising_record_gets_the_error(self, monkeypatch):
        # protection_levels raises for any stack that holds one record's
        # geometry: its stack is evaluated again one record at a time, and
        # only that record reads the error. It keeps its visible count,
        # VPE, HPE and alert; every other record is the unpatched run's.
        config = ScenarioConfig(
            grid_step_deg=60.0, epoch_step_s=21600.0, duration_s=86400.0,
            seed=2, budget=IntegrityBudget(c_req_fa_vert=0.05, p_const=0.0))
        full = sim.run_scenario(config)
        # An alerting record that shares its stack (the same visible count
        # at the same epoch) with another solved record.
        i = next(i for i, r in enumerate(full) if r.alert and not r.error
                 and any(o is not r and not o.error and (o.t, o.n_visible)
                         == (r.t, r.n_visible) for o in full))
        chosen = full[i]
        sats = sim.healthy_satellites(default_almanac(("GPS",)), ("GPS",))
        G = sim.epoch_setup(
            sim.model_core.geodetic_to_ecef(chosen.lat, chosen.lon),
            [a.svn for a in sats], [a.constellation for a in sats],
            sim.satellite_positions(sats, chosen.t), default_table(),
            config.budget).ops.G[0]
        real = sim.protection_levels

        def flaky(ops, *args):
            if any(np.array_equal(g, G) for g in ops.G):
                raise TailUnresolved("tail probability below resolvable "
                                     "mass")
            return real(ops, *args)

        monkeypatch.setattr(sim, "protection_levels", flaky)
        records = sim.run_scenario(config)
        rec = records[i]
        assert rec.error == "tail probability below resolvable mass"
        assert (rec.n_visible, rec.vpe, rec.hpe, rec.alert) == (
            chosen.n_visible, chosen.vpe, chosen.hpe, True)
        assert math.isnan(rec.vpl) and rec.stanford == "SU"
        del records[i], full[i]
        assert [self.bits(r) for r in records] == [self.bits(r) for r in full]

    def test_users_who_see_a_refused_satellite_stack_alone(self,
                                                           monkeypatch):
        # With SVN41 missing from the table, the users who see it stack
        # alone, so no stack of records that are not refused raises and
        # passes through the set-up again, record by record.
        table = default_table()
        del table["SVN41"]
        config = ScenarioConfig(grid_step_deg=30.0, epoch_step_s=3600.0,
                                duration_s=86400.0)
        epoch, passes = [], Counter()
        real_epoch, real_setup = sim._epoch_records, sim._setup_stack

        def epoch_records(*args):
            epoch[:] = [args[-1]]       # epoch_id
            return real_epoch(*args)

        def setup_stack(key, rows, *args):
            passes.update((epoch[0], r) for r in rows.tolist())
            return real_setup(key, rows, *args)

        monkeypatch.setattr(sim, "_epoch_records", epoch_records)
        monkeypatch.setattr(sim, "_setup_stack", setup_stack)
        records = sim.run_scenario(config, table=table)
        n_epochs = len(config.epochs())
        assert len(passes) == len(records)
        refused = [r.error == "no bound parameters for 'SVN41'"
                   for r in records]
        assert any(refused) and not all(refused)
        assert [records[r * n_epochs + e] for (e, r), c in passes.items()
                if c > 1 and not records[r * n_epochs + e].error] == []

    @settings(max_examples=12, deadline=None)
    @given(dual=st.booleans(), flavor=st.sampled_from(["gaussian", "pgo"]),
           baseline=st.booleans(), horizontal=st.booleans(),
           mask_deg=st.sampled_from([5.0, 25.0, 40.0, 80.0]),
           p_sat=st.sampled_from([1e-5, 1e-4]),
           c_req_fa=st.sampled_from([3.9e-6, 0.05]),
           start=st.floats(0.0, 80000.0), seed=st.integers(0, 1000))
    @example(dual=False, flavor="gaussian", baseline=False, horizontal=True,
             mask_deg=5.0, p_sat=1e-4, c_req_fa=0.05, start=0.0, seed=0)
    @example(dual=True, flavor="pgo", baseline=False, horizontal=False,
             mask_deg=5.0, p_sat=1e-5, c_req_fa=3.9e-6, start=3600.0, seed=1)
    @example(dual=True, flavor="gaussian", baseline=True, horizontal=True,
             mask_deg=40.0, p_sat=1e-5, c_req_fa=0.05, start=7200.0, seed=2)
    def test_scenario_records_are_stacks_of_one(
            self, dual, flavor, baseline, horizontal, mask_deg, p_sat,
            c_req_fa, start, seed):
        # Small grids and a few epochs; the PGO flavour, whose records
        # each run their own grid convolutions, on the coarsest grid. A
        # false-alarm budget of 0.05 makes alerts common.
        consts = self.CONSTS if dual else ("GPS",)
        if baseline:
            flavor = "gaussian"
        pgo = flavor == "pgo"
        config = ScenarioConfig(
            grid_step_deg=90.0 if pgo else 60.0, epoch_step_s=5400.0,
            duration_s=5400.0 if pgo else 16200.0, mask_deg=mask_deg,
            constellations=consts, flavor=flavor,
            algorithm="baseline" if baseline else "jk", seed=seed,
            compute_horizontal=horizontal,
            budget=IntegrityBudget(p_sat=p_sat, c_req_fa_vert=c_req_fa,
                                   p_const=1e-4 if dual else 0.0))
        shifted = [dataclasses.replace(a, toa=a.toa - start)
                   for a in default_almanac(consts)]
        self.assert_stack_equals_singles(config, shifted)
