import json
import math

import numpy as np
import pytest

from jkaraim.cli import main


TOY_GEOMETRY = {
    "G": [[1.0], [1.0]],
    "sigmas": [1.0, 1.0],
    "axis": 0,
    "constellations": ["GPS", "GPS"],
    "sat_ids": ["a", "b"],
}

TOY_BUDGET = """
# toy budget, single axis at 1e-7
i_req_vert = 1e-7
i_req_horiz = 2e-7
c_req_fa_vert = 5e-8
c_req_fa_horiz = 5e-8
p_sat = 1e-5
p_const = 0
b_nom = 0
"""


# The eight-satellite GPS sky of the CI smoke: east, north, up and clock
# columns.
SKY = [(90, 0), (45, 0), (45, 90), (45, 180), (45, 270),
       (15, 45), (15, 135), (15, 225)]
SKY_G = [[math.cos(math.radians(el)) * math.sin(math.radians(az)),
          math.cos(math.radians(el)) * math.cos(math.radians(az)),
          math.sin(math.radians(el)), 1.0] for el, az in SKY]


@pytest.fixture
def toy_files(tmp_path):
    geom = tmp_path / "geom.json"
    geom.write_text(json.dumps(TOY_GEOMETRY))
    cfg = tmp_path / "budget.cfg"
    cfg.write_text(TOY_BUDGET)
    return str(geom), str(cfg)


class TestCmdPl:
    def test_toy_matches_library_pl(self, toy_files, capsys):
        geom, cfg = toy_files
        assert main(["--config", cfg, "pl", geom]) == 0
        doc = json.loads(capsys.readouterr().out)

        from jkaraim import jackknife
        from jkaraim.distkit import GaussianBatch
        from jkaraim.integrity import IntegrityBudget, protection_levels
        from jkaraim.model_core import SolutionStack
        from jkaraim.threat import enumerate_modes

        ops = SolutionStack(np.ones((1, 2, 1)), np.ones((1, 2)))
        budget = IntegrityBudget(i_req_vert=1e-7, i_req_horiz=2e-7,
                                 c_req_fa_vert=5e-8, c_req_fa_horiz=5e-8,
                                 p_const=0.0, b_nom=0.0)
        tm = enumerate_modes(2, 1, {"GPS": range(2)}, 1e-5, 0.0, m=1)
        acc = GaussianBatch(np.ones((1, 2)))
        tests = jackknife.thresholds(ops, tm, acc, budget, axis=0)
        [expect], _ = protection_levels(ops, tm, acc, tests, budget)
        assert doc["pl_m"] == pytest.approx(expect, abs=1e-6)

    def test_jk_and_baseline_agree(self, toy_files, capsys):
        # Each algorithm prints the thresholds of the mode table its PL
        # read: the jackknife table, or the baseline's separation table.
        from jkaraim import jackknife
        from jkaraim.distkit import GaussianBatch
        from jkaraim.integrity import IntegrityBudget
        from jkaraim.model_core import SolutionStack
        from jkaraim.threat import enumerate_modes

        geom, cfg = toy_files
        assert main(["--config", cfg, "pl", geom]) == 0
        jk = json.loads(capsys.readouterr().out)
        assert main(["--config", cfg, "pl", geom,
                     "--algorithm", "baseline"]) == 0
        base = json.loads(capsys.readouterr().out)
        assert jk["pl_m"] == pytest.approx(base["pl_m"], rel=0.05)

        ops = SolutionStack(np.ones((1, 2, 1)), np.ones((1, 2)))
        budget = IntegrityBudget(i_req_vert=1e-7, i_req_horiz=2e-7,
                                 c_req_fa_vert=5e-8, c_req_fa_horiz=5e-8,
                                 p_const=0.0, b_nom=0.0)
        tm = enumerate_modes(2, 1, {"GPS": range(2)}, 1e-5, 0.0, m=1)
        acc = GaussianBatch(np.ones((1, 2)))
        for doc, table in ((jk, jackknife.thresholds),
                           (base, jackknife.separation_table)):
            tests = table(ops, tm, acc, budget, axis=0)
            assert doc["thresholds"] == {
                str(i): t for i, t in zip(tests.ids,
                                          tests.thresholds[0].tolist())}
            assert list(doc["thresholds"]) == ["1", "2"]
        # The two tables test the same modes at different thresholds: the
        # baseline's separations S_k - S are half the jackknife residuals.
        assert base["thresholds"] != jk["thresholds"]

    def test_missing_file_exit_2(self, toy_files, capsys):
        _, cfg = toy_files
        assert main(["--config", cfg, "pl", "/nonexistent/geom.json"]) == 2
        assert "geom.json" in capsys.readouterr().err

    def test_raw_g_with_pgo_bound_exit_2(self, toy_files, capsys):
        # A raw G file carries only Gaussian sigmas; a PGO PL is refused,
        # not computed from Gaussian bounds under a "pgo" label.
        geom, cfg = toy_files
        assert main(["--config", cfg, "pl", geom, "--bound", "pgo"]) == 2
        err = capsys.readouterr()
        assert err.out == "" and "user/sats" in err.err

    @pytest.mark.parametrize("algorithm", ["jk", "baseline"])
    def test_out_of_range_budget_exit_2(self, tmp_path, toy_files, capsys,
                                        algorithm):
        # A false-alarm budget outside [0, 1) is refused before any PL is
        # computed (a negative one would give NaN thresholds).
        geom, _ = toy_files
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("c_req_fa_vert = -1e-6\n")
        assert main(["--config", str(cfg), "pl", geom,
                     "--algorithm", algorithm]) == 2
        err = capsys.readouterr()
        assert err.out == "" and "c_req_fa_vert" in err.err

    @pytest.mark.parametrize("axis", [3, -1, 7, 1.5])
    def test_axis_outside_the_position_states_exit_2(self, tmp_path,
                                                      toy_files, capsys,
                                                      axis):
        # A raw G's axis indexes its east, north and up columns only:
        # axis 3 of this geometry is the receiver clock, -1 the last
        # column, 7 no column at all.
        _, cfg = toy_files
        geom = tmp_path / "sky.json"
        geom.write_text(json.dumps({"G": SKY_G, "sigmas": [1.0] * len(SKY_G),
                                    "axis": axis}))
        assert main(["--config", cfg, "pl", str(geom)]) == 2
        err = capsys.readouterr()
        assert err.out == "" and "axis" in err.err

    @pytest.mark.parametrize("algorithm", ["jk", "baseline"])
    def test_weights_alone_bound_at_the_sigmas_they_imply(self, tmp_path,
                                                          capsys, algorithm):
        # "weights": 4 gives the WLS weights of "sigmas": 0.5, so it must
        # give the same bounds too, not unit-sigma ones.
        cfg = tmp_path / "budget.cfg"
        cfg.write_text("p_const = 0\n")
        pls = {}
        for field, value in (("sigmas", 0.5), ("weights", 4.0),
                             ("sigmas", 1.0)):
            geom = tmp_path / "sky.json"
            geom.write_text(json.dumps({"G": SKY_G,
                                        field: [value] * len(SKY_G),
                                        "axis": 2}))
            assert main(["--config", str(cfg), "pl", str(geom),
                         "--algorithm", algorithm]) == 0
            pls[field, value] = json.loads(capsys.readouterr().out)["pl_m"]
        assert pls["weights", 4.0] == pls["sigmas", 0.5]
        assert pls["sigmas", 0.5] < pls["sigmas", 1.0] < math.inf

    @pytest.mark.parametrize("field, value", [
        ("sigmas", [1.0] * 5), ("weights", [1.0] * 9),
        ("constellations", ["GPS"] * 3), ("sat_ids", ["a"]),
        ("sigmas", 1.0)])
    def test_per_row_list_of_another_length_exit_2(self, tmp_path, capsys,
                                                   field, value):
        # Each per-row list holds one entry per row of G; a shorter or
        # longer one (or no list) is refused, naming the field.
        cfg = tmp_path / "budget.cfg"
        cfg.write_text("p_const = 0\n")
        geom = tmp_path / "sky.json"
        geom.write_text(json.dumps({"G": SKY_G, field: value, "axis": 2}))
        for command in (["pl", str(geom)], ["detect", str(geom), "y.json"]):
            assert main(["--config", str(cfg)] + command) == 2
            err = capsys.readouterr()
            assert err.out == ""
            assert err.err.startswith(f"error: {field} must be a list")

    def test_huge_sigmas_end_the_bisection(self, tmp_path, capsys):
        # At sigmas of 1e12 m the jk PL lies above 1e13 m, where one ulp
        # is wider than the bisection's tolerance: the bisection must end
        # with a finite PL. The baseline's bracket [0, 1e4] m holds no PL
        # and it prints Infinity.
        geom = tmp_path / "sky.json"
        geom.write_text(json.dumps({"G": SKY_G, "sigmas": [1e12] * len(SKY_G),
                                    "axis": 2}))
        cfg = tmp_path / "budget.cfg"
        cfg.write_text("p_const = 0\n")
        pls = {}
        for algorithm in ("jk", "baseline"):
            assert main(["--config", str(cfg), "pl", str(geom),
                         "--algorithm", algorithm]) == 0
            pls[algorithm] = json.loads(capsys.readouterr().out)["pl_m"]
        assert 1e13 < pls["jk"] < math.inf
        assert pls["baseline"] == math.inf

    def test_no_redundancy_exit_3(self, tmp_path, toy_files, capsys):
        _, cfg = toy_files
        geom = tmp_path / "square.json"
        geom.write_text(json.dumps({"G": [[1.0]], "sigmas": [1.0],
                                    "axis": 0,
                                    "constellations": ["GPS"]}))
        assert main(["--config", cfg, "pl", str(geom)]) == 3


def user_sats_geometry(path, sats, positions):
    """A user/satellite geometry file: the user on the ellipsoid at 30 N,
    90 W and the given almanac satellites at their ECEF positions."""
    path.write_text(json.dumps({
        "user_llh": [30.0, -90.0, 0.0],
        "sats": [{"svn": a.svn, "constellation": a.constellation,
                  "ecef": p.tolist()} for a, p in zip(sats, positions)]}))
    return str(path)


class TestUserSatsGeometry:
    """`pl` on a user/satellite geometry sets the epoch up as the scenario
    does (sim.epoch_setup)."""

    T = 7200.0

    def gps(self):
        from jkaraim import sim
        sats = sim.healthy_satellites(sim.default_almanac(("GPS",)),
                                      ("GPS",))
        return sats, sim.satellite_positions(sats, self.T)

    def test_gaussian_pl_equals_scenario_vpl(self, tmp_path, capsys):
        from jkaraim import sim
        from jkaraim.overbound import default_table
        sats, positions = self.gps()
        geom = user_sats_geometry(tmp_path / "geom.json", sats, positions)
        cfg = tmp_path / "budget.cfg"
        cfg.write_text("p_const = 0\n")
        assert main(["--config", str(cfg), "pl", geom,
                     "--bound", "gaussian"]) == 0
        doc = json.loads(capsys.readouterr().out)
        rec = sim.evaluate_epoch(sim.ScenarioConfig(), sats, positions,
                                 default_table(), 30.0, -90.0, self.T)
        assert doc["axis"] == 2
        assert doc["pl_m"] == rec.vpl

    def test_pgo_pl_equals_scenario_vpl(self, tmp_path, capsys):
        # The PGO bounds are built on the scenario's grid size, so the PL
        # is the scenario record's VPL exactly.
        from jkaraim import sim
        from jkaraim.overbound import default_table
        sats, positions = self.gps()
        geom = user_sats_geometry(tmp_path / "geom.json", sats, positions)
        cfg = tmp_path / "budget.cfg"
        cfg.write_text("p_const = 0\n")
        assert main(["--config", str(cfg), "pl", geom, "--bound", "pgo"]) == 0
        doc = json.loads(capsys.readouterr().out)
        rec = sim.evaluate_epoch(sim.ScenarioConfig(flavor="pgo"), sats,
                                 positions, default_table(), 30.0, -90.0,
                                 self.T)
        assert doc["bound"] == "pgo"
        assert doc["pl_m"] == rec.vpl

    @pytest.mark.parametrize("svn, label", [("SVN99", "GPS"),
                                            ("SVN45", "GAL")],
                             ids=["unknown", "mislabelled"])
    def test_satellite_outside_the_bound_table_exit_3(self, tmp_path,
                                                      capsys, svn, label):
        # A satellite the bound table does not hold, or holds under
        # another constellation, is refused, naming it.
        sats, positions = self.gps()
        path = tmp_path / "geom.json"
        user_sats_geometry(path, sats, positions)
        doc = json.loads(path.read_text())
        entry = next(s for s in doc["sats"] if s["svn"] == "SVN45")
        entry["svn"], entry["constellation"] = svn, label
        path.write_text(json.dumps(doc))
        cfg = tmp_path / "budget.cfg"
        cfg.write_text("p_const = 0\n")
        assert main(["--config", str(cfg), "pl", str(path)]) == 3
        err = capsys.readouterr()
        assert err.out == "" and repr(svn) in err.err

    def test_kmax_beyond_redundancy_exit_3(self, tmp_path, capsys):
        # Five visible satellites with p_sat = 1e-4 ask for k_max = 2, one
        # more than n - m; the PL is refused, not computed at a lower k_max.
        from jkaraim import sim
        from jkaraim.model_core import geodetic_to_ecef
        from jkaraim.overbound import default_table
        from jkaraim.integrity import IntegrityBudget
        sats, positions = self.gps()
        vis = sim.epoch_setup(
            geodetic_to_ecef(30.0, -90.0), [a.svn for a in sats],
            ["GPS"] * len(sats), positions, default_table(),
            IntegrityBudget(p_const=0.0)).visible[0, :5]
        geom = user_sats_geometry(tmp_path / "five.json",
                                  [sats[i] for i in vis], positions[vis])
        cfg = tmp_path / "budget.cfg"
        cfg.write_text("p_const = 0\np_sat = 1e-4\n")
        assert main(["--config", str(cfg), "pl", geom]) == 3
        assert "exceeds redundancy" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pl", "detect"])
    def test_no_satellite_above_mask_exit_3(self, tmp_path, capsys,
                                            command):
        # A legal mask that leaves no satellite visible is a refused
        # geometry (InsufficientGeometry), not a malformed file.
        sats, positions = self.gps()
        path = tmp_path / "geom.json"
        user_sats_geometry(path, sats, positions)
        doc = json.loads(path.read_text())
        doc["mask_deg"] = 89.9
        path.write_text(json.dumps(doc))
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps([]))
        cfg = tmp_path / "budget.cfg"
        cfg.write_text("p_const = 0\n")
        argv = ["--config", str(cfg), command, str(path)]
        assert main(argv + ([str(obs)] if command == "detect" else [])) == 3
        assert "insufficient geometry" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pl", "detect"])
    @pytest.mark.parametrize("llh", [
        [30.0, -90.0, 0.0, 0.0], "30,-90", [30.0], [30.0, math.nan],
        [30.0, -90.0, math.inf], [30.0, True], [30.0, "-90"], 30.0,
        [120.0, -90.0], [-90.5, 0.0]],
        ids=["four", "string", "one", "nan", "inf", "bool", "text",
             "number", "latitude-120", "latitude-below-south-pole"])
    def test_malformed_user_llh_exit_2(self, tmp_path, capsys, command,
                                       llh):
        # The user position is 2 or 3 finite numbers (latitude in [-90,
        # 90], longitude and the optional height); anything else is a
        # malformed file.
        sats, positions = self.gps()
        path = tmp_path / "geom.json"
        user_sats_geometry(path, sats, positions)
        doc = json.loads(path.read_text())
        doc["user_llh"] = llh
        path.write_text(json.dumps(doc))
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps([0.0] * len(sats)))
        argv = [command, str(path)]
        assert main(argv + ([str(obs)] if command == "detect" else [])) == 2
        err = capsys.readouterr()
        assert err.out == "" and "user_llh" in err.err

    @pytest.mark.parametrize("command", ["pl", "detect"])
    @pytest.mark.parametrize("mask", [-10.0, math.nan, 95.0],
                             ids=["negative", "nan", "above-zenith"])
    def test_out_of_range_mask_exit_2(self, tmp_path, capsys, command,
                                      mask):
        # The geometry file's mask takes ScenarioConfig's [0, 90) rule
        # (sim.check_mask_deg) and names itself when refused.
        sats, positions = self.gps()
        path = tmp_path / "geom.json"
        user_sats_geometry(path, sats, positions)
        doc = json.loads(path.read_text())
        doc["mask_deg"] = mask
        path.write_text(json.dumps(doc))
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps([0.0] * len(sats)))
        cfg = tmp_path / "budget.cfg"
        cfg.write_text("p_const = 0\n")
        argv = ["--config", str(cfg), command, str(path)]
        assert main(argv + ([str(obs)] if command == "detect" else [])) == 2
        err = capsys.readouterr()
        assert err.out == "" and "mask_deg" in err.err


class TestCmdSim:
    def coarse_cfg(self, tmp_path, **extra):
        lines = ["grid_step_deg = 90", "epoch_step_s = 43200",
                 "duration_s = 86400", "seed = 3"]
        lines += [f"{k} = {v}" for k, v in extra.items()]
        path = tmp_path / "scenario.cfg"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_outputs_and_manifest(self, tmp_path, capsys):
        cfg = self.coarse_cfg(tmp_path)
        out = str(tmp_path / "run")
        assert main(["--quiet", "sim", cfg, "-o", out]) == 0
        summary = json.loads((tmp_path / "run.json").read_text())
        for level in ("0.75", "0.95", "0.995"):
            assert level in summary["coverage"]
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert cfg in manifest["input_digests"]
        assert len(manifest["input_digests"][cfg]) == 64

    def test_rerun_byte_identical(self, tmp_path):
        cfg = self.coarse_cfg(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main(["--quiet", "sim", cfg, "-o", out]) == 0
            outs.append((tmp_path / f"{name}.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_dual_constellation_mode_count(self, tmp_path):
        cfg = self.coarse_cfg(tmp_path, constellations="GPS,GAL",
                              epoch_step_s=86400)
        out = str(tmp_path / "dual")
        assert main(["--quiet", "sim", cfg, "-o", out]) == 0
        summary = json.loads((tmp_path / "dual.json").read_text())
        assert summary["mode_count_max"] == 1178

    def test_out_of_range_budget_exit_2(self, tmp_path, capsys):
        cfg = self.coarse_cfg(tmp_path, c_req_fa_vert=-1e-6)
        out = tmp_path / "r"
        assert main(["--quiet", "sim", cfg, "-o", str(out)]) == 2
        assert "c_req_fa_vert" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("key, value", [
        ("grid_step_deg", 0), ("grid_step_deg", -15), ("duration_s", 0),
        ("epoch_step_s", "nan"), ("mask_deg", -10), ("val", -1),
        ("constellations", "GPS,GPS"), ("constellations", "GPS,GLO"),
        ("constellations", ""), ("seed", -1)])
    def test_non_positive_grid_step_or_duration_exit_2(self, tmp_path,
                                                       capsys, key, value):
        cfg = self.coarse_cfg(tmp_path, **{key: value})
        assert main(["--quiet", "sim", cfg, "-o", str(tmp_path / "r")]) == 2
        assert key in capsys.readouterr().err
        assert not list(tmp_path.glob("r.*"))

    def test_grid_size_key_exit_2(self, tmp_path, capsys):
        # The grid resolution is the library's (distkit.GRID_POINTS), not a
        # scenario setting.
        cfg = self.coarse_cfg(tmp_path, n_points=4096)
        assert main(["--quiet", "sim", cfg, "-o", str(tmp_path / "r")]) == 2
        assert "unknown config key 'n_points'" in capsys.readouterr().err


    def test_val_key_sets_the_stanford_classes(self, tmp_path):
        # The scenario's one val classifies every record, also when the
        # file sets a budget key.
        from jkaraim import sim
        cfg = self.coarse_cfg(tmp_path, val=50, p_const=0)
        out = str(tmp_path / "val")
        assert main(["--quiet", "sim", cfg, "-o", out]) == 0
        with open(out + ".csv") as fh:
            records = sim.read_records_csv(fh)
        assert any(35.0 < r.vpl <= 50.0 for r in records)
        for r in records:
            assert r.stanford == sim.stanford_class(r.vpe, r.vpl, 50.0)

    def test_hal_key_exit_2(self, tmp_path, capsys):
        # No horizontal alert limit is read anywhere.
        cfg = self.coarse_cfg(tmp_path, hal=40)
        assert main(["--quiet", "sim", cfg, "-o", str(tmp_path / "r")]) == 2
        assert "unknown config key 'hal'" in capsys.readouterr().err

    def test_detect_key_exit_2(self, tmp_path, capsys):
        # Every record runs the detector of each axis with a PL.
        cfg = self.coarse_cfg(tmp_path, detect="true")
        assert main(["--quiet", "sim", cfg, "-o", str(tmp_path / "r")]) == 2
        assert "unknown config key 'detect'" in capsys.readouterr().err
        assert not list(tmp_path.glob("r.*"))

    def test_keys_parsed_by_the_type_of_their_default(self, tmp_path):
        # One key of each kind: float, int, str, a comma-separated tuple,
        # a bool, and a budget key; the summary echoes the scenario keys.
        from dataclasses import fields
        from jkaraim import sim
        cfg = self.coarse_cfg(tmp_path, flavor="pgo",
                              constellations="GPS, GAL",
                              compute_horizontal="yes", p_const=2e-4,
                              epoch_step_s=86400)
        out = str(tmp_path / "kinds")
        assert main(["--quiet", "sim", cfg, "-o", out]) == 0
        echo = json.loads((tmp_path / "kinds.json").read_text())[
            "config_echo"]
        assert list(echo) == [f.name for f in fields(sim.ScenarioConfig)
                              if f.name != "budget"]
        expect = {"grid_step_deg": 90.0, "epoch_step_s": 86400.0,
                  "seed": 3, "flavor": "pgo",
                  "constellations": ["GPS", "GAL"],
                  "compute_horizontal": True}
        assert {k: echo[k] for k in expect} == expect
        assert type(echo["grid_step_deg"]) is float
        assert type(echo["seed"]) is int
        with open(out + ".csv") as fh:
            records = sim.read_records_csv(fh)
        assert len(records) == 8
        assert all(np.isfinite(r.hpl) for r in records if not r.error)


class TestCmdFit:
    def test_standard_normal_sigma(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        path = tmp_path / "normal.csv"
        np.savetxt(path, rng.standard_normal(100000))
        assert main(["fit", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gaussian_sigma"] == pytest.approx(1.0, abs=0.02)

    def test_bgmm_file_yields_passing_pgo(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        n = 100000
        comp = rng.random(n) < 0.9
        x = np.where(comp, rng.standard_normal(n),
                     3.0 * rng.standard_normal(n))
        path = tmp_path / "bgmm.csv"
        np.savetxt(path, x)
        assert main(["fit", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bgmm"]["p1"] == pytest.approx(0.9, rel=0.05)
        assert doc["dominance"]["passes"]

    def test_empty_file_exit_2(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert main(["fit", str(path)]) == 2


class TestCmdDetect:
    def test_toy_hand_statistics(self, toy_files, tmp_path, capsys):
        geom, cfg = toy_files
        obs = tmp_path / "obs.json"
        obs.write_text("[1.0, 3.0]")
        assert main(["--config", cfg, "detect", geom, str(obs)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert not doc["alert"]
        assert sorted(abs(v) for v in doc["stats"].values()) == [2.0, 2.0]

    def test_large_bias_alerts(self, toy_files, tmp_path, capsys):
        geom, cfg = toy_files
        obs = tmp_path / "obs.json"
        obs.write_text("[0.0, 100.0]")
        assert main(["--config", cfg, "detect", geom, str(obs)]) == 0
        assert json.loads(capsys.readouterr().out)["alert"]

    def test_raw_g_with_pgo_bound_exit_2(self, toy_files, tmp_path,
                                         capsys):
        geom, cfg = toy_files
        obs = tmp_path / "obs.json"
        obs.write_text("[1.0, 3.0]")
        assert main(["--config", cfg, "detect", geom, str(obs),
                     "--bound", "pgo"]) == 2
        err = capsys.readouterr()
        assert err.out == "" and "user/sats" in err.err

    @pytest.mark.parametrize("text, shape", [("[1.0, 2.0, 3.0]", (3,)),
                                             ("[[1.0, 3.0]]", (1, 2))],
                             ids=["three", "one-by-two"])
    def test_wrong_observation_count_exit_2(self, toy_files, tmp_path,
                                            capsys, text, shape):
        # The toy takes 2 observations; the refusal names the shape it
        # got, which for a 1 x 2 array holds the right count.
        geom, cfg = toy_files
        obs = tmp_path / "obs.json"
        obs.write_text(text)
        assert main(["--config", cfg, "detect", geom, str(obs)]) == 2
        err = capsys.readouterr()
        assert err.out == "" and str(shape) in err.err

    @pytest.mark.parametrize("text, index", [("[NaN, 100.0]", 0),
                                             ("[1.0, Infinity]", 1)],
                             ids=["nan", "infinity"])
    def test_non_finite_observation_exit_2(self, toy_files, tmp_path,
                                           capsys, text, index):
        # A NaN statistic compares false with every threshold, so [NaN,
        # 100.0] would not alert where [0.0, 100.0] does; the refusal
        # names the observation.
        geom, cfg = toy_files
        obs = tmp_path / "obs.json"
        obs.write_text(text)
        assert main(["--config", cfg, "detect", geom, str(obs)]) == 2
        err = capsys.readouterr()
        assert err.out == "" and f"observation {index} is" in err.err

    def test_baseline_runs_the_separation_table(self, toy_files, tmp_path,
                                                capsys):
        # The baseline's detector is run_detector on separation_table,
        # the table pl --algorithm baseline reads: the toy's separations
        # S_k y - S y of [1, 3] are +-1 m.
        geom, cfg = toy_files
        obs = tmp_path / "obs.json"
        obs.write_text("[1.0, 3.0]")
        argv = ["--config", cfg, "detect", geom, str(obs)]
        assert main(argv + ["--algorithm", "baseline"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc["stats"].values()) == [-1.0, 1.0]
        assert main(["--config", cfg, "pl", geom, "--algorithm",
                     "baseline"]) == 0
        assert doc["thresholds"] == json.loads(
            capsys.readouterr().out)["thresholds"]
        assert main(argv + ["--algorithm", "jk"]) == 0
        jk = json.loads(capsys.readouterr().out)
        assert sorted(abs(v) for v in jk["stats"].values()) == [2.0, 2.0]
        assert jk["thresholds"] != doc["thresholds"]

    def test_baseline_with_pgo_bound_exit_2(self, tmp_path, capsys):
        # Refused with pl's message, on a user/sats geometry, which the
        # PGO flavour would accept for jk.
        from jkaraim import sim
        consts = ("GPS", "GAL")
        sats = sim.healthy_satellites(sim.default_almanac(consts), consts)
        geom = user_sats_geometry(tmp_path / "dual.json", sats,
                                  sim.satellite_positions(sats, 7200.0))
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps([0.0] * len(sats)))
        assert main(["detect", geom, str(obs), "--algorithm", "baseline",
                     "--bound", "pgo"]) == 2
        err = capsys.readouterr()
        assert err.out == ""
        assert "--algorithm baseline takes --bound gaussian only" in err.err


class TestDualConstellation:
    """`pl` and `detect` on the GPS+GAL user/satellite geometry at 30 N,
    90 W, t = 7200 s, with the default budget (p_const = 1e-4)."""

    T = 7200.0
    CONSTS = ("GPS", "GAL")

    def geometry(self, tmp_path):
        from jkaraim import sim
        sats = sim.healthy_satellites(sim.default_almanac(self.CONSTS),
                                      self.CONSTS)
        positions = sim.satellite_positions(sats, self.T)
        return (sats, positions,
                user_sats_geometry(tmp_path / "dual.json", sats, positions))

    @pytest.mark.parametrize("bound, algorithm, vpl", [
        ("gaussian", "jk", 95.79741255229096),
        ("pgo", "jk", 34.444877228087826),
        ("gaussian", "baseline", 93.71399879455566),
        ("pgo", "baseline", None)],
        ids=["gaussian-jk", "pgo-jk", "gaussian-baseline", "pgo-baseline"])
    def test_pl_equals_scenario_record(self, tmp_path, capsys, bound,
                                       algorithm, vpl):
        # The constellation terms bind the jk PL here: they are built from
        # the accuracy bounds the CLI passes, as in the scenario. The
        # baseline takes Gaussian bounds only: with PGO bounds both refuse.
        from jkaraim import sim
        from jkaraim.overbound import default_table
        sats, positions, geom = self.geometry(tmp_path)
        argv = ["pl", geom, "--bound", bound, "--algorithm", algorithm]
        if vpl is None:
            assert main(argv) == 2
            assert "gaussian only" in capsys.readouterr().err
            with pytest.raises(ValueError, match="Gaussian bounds only"):
                sim.ScenarioConfig(constellations=self.CONSTS, flavor=bound,
                                   algorithm=algorithm)
            return
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        config = sim.ScenarioConfig(constellations=self.CONSTS, flavor=bound,
                                    algorithm=algorithm)
        rec = sim.evaluate_epoch(config, sats, positions, default_table(),
                                 30.0, -90.0, self.T)
        assert doc["pl_m"] == rec.vpl == vpl
        if algorithm == "jk":
            assert doc["binding"] == "const:18"
            # The thresholds the PL read: satellite modes, then both
            # constellation modes.
            assert list(doc["thresholds"])[-2:] == ["18", "19"]

    def test_detect_runs_the_constellation_tests(self, tmp_path, capsys):
        # A vertical shift seen by every Galileo satellite only: no
        # satellite-mode statistic reaches its threshold, and a
        # constellation mode's separation test alerts, as the scenario's
        # alert does.
        from jkaraim import jackknife, sim
        from jkaraim.integrity import IntegrityBudget, separation_tests
        from jkaraim.model_core import geodetic_to_ecef
        from jkaraim.overbound import default_table
        sats, positions, geom = self.geometry(tmp_path)
        budget = IntegrityBudget()
        s = sim.epoch_setup(geodetic_to_ecef(30.0, -90.0),
                            [a.svn for a in sats],
                            [a.constellation for a in sats], positions,
                            default_table(), budget)
        [vis] = s.visible
        gal = np.array([sats[i].constellation for i in vis]) == "GAL"
        y = np.where(gal, 40.0 * s.ops.G[0, :, 2], 0.0)
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps(y.tolist()))
        assert main(["detect", geom, str(obs)]) == 0
        doc = json.loads(capsys.readouterr().out)

        c_alloc = budget.c_req_fa_total / (
            2.0 * s.tm.n_fault_modes * s.tm.p_h0)
        const = separation_tests(s.ops, s.tm.constellation_modes(),
                                 s.acc_bounds, c_alloc)
        [stats], [alerts] = jackknife.run_detector(const, y[None])
        assert sorted(const.ids) == [18, 19]
        for mid, stat, held in zip(const.ids, stats.tolist(),
                                   const.thresholds[0].tolist()):
            assert (doc["stats"][str(mid)], doc["thresholds"][str(mid)]) \
                == (stat, held)
        sat_ids = [str(m.id) for m in s.tm.sat_modes()]
        assert all(abs(doc["stats"][k]) < doc["thresholds"][k]
                   for k in sat_ids)
        assert alerts.any()
        assert doc["alert"]
