"""Command-line front end: protection levels, scenario runs, overbound
fitting and single-epoch detection."""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass
from importlib import metadata

import numpy as np

from . import distkit, jackknife, model_core, overbound, sim, threat
from .errors import JkAraimError
from .integrity import IntegrityBudget, baseline_araim_pl, pl_solve
from .model_core import SolutionOps

EXIT_PARSE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _version() -> str:
    try:
        return metadata.version("jkaraim")
    except metadata.PackageNotFoundError:
        return "unknown"


@dataclass
class RunManifest:
    command: str
    config_path: str
    input_digests: dict
    output_paths: list
    seed: int
    version: str

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2)
            fh.write("\n")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _read_kv_config(path) -> dict:
    """key=value lines; blank lines and # comments ignored."""
    out = {}
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key=value")
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


def _parse_bool(s):
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


_SCENARIO_KEYS = {
    "grid_step_deg": float, "epoch_step_s": float, "duration_s": float,
    "mask_deg": float, "flavor": str, "algorithm": str, "seed": int,
    "val": float, "hal": float, "compute_horizontal": _parse_bool,
    "detect": _parse_bool, "n_points": int,
    "constellations": lambda s: tuple(t.strip() for t in s.split(",")),
}

_BUDGET_KEYS = {
    "i_req_vert": float, "i_req_horiz": float, "c_req_fa_vert": float,
    "c_req_fa_horiz": float, "p_sat": float, "p_const": float,
    "p_thres": float, "b_nom": float, "val": float, "hal": float,
}


def _scenario_from_kv(kv, seed_override=None) -> sim.ScenarioConfig:
    cfg_args, budget_args = {}, {}
    for key, val in kv.items():
        if key in _SCENARIO_KEYS:
            cfg_args[key] = _SCENARIO_KEYS[key](val)
        elif key in _BUDGET_KEYS:
            budget_args[key] = _BUDGET_KEYS[key](val)
        else:
            raise ValueError(f"unknown config key {key!r}")
    if seed_override is not None:
        cfg_args["seed"] = seed_override
    if budget_args:
        cfg_args["budget"] = IntegrityBudget(**budget_args)
    return sim.ScenarioConfig(**cfg_args)


def _budget_from_kv(kv) -> IntegrityBudget:
    args = {k: _BUDGET_KEYS[k](v) for k, v in kv.items()
            if k in _BUDGET_KEYS}
    unknown = set(kv) - set(_BUDGET_KEYS)
    if unknown:
        raise ValueError(f"unknown budget keys {sorted(unknown)}")
    return IntegrityBudget(**args)


def _load_geometry(path, table, flavor, b_nom):
    """Geometry JSON: either a raw linear model (G, weights, sigmas) or a
    user/satellite description resolved through the bound table."""
    with open(path) as fh:
        doc = json.load(fh)
    if "G" in doc:
        G = np.asarray(doc["G"], dtype=float)
        sigmas = np.asarray(doc.get(
            "sigmas", np.ones(G.shape[0])), dtype=float)
        weights = np.asarray(doc.get("weights", 1.0 / sigmas ** 2),
                             dtype=float)
        const_of = doc.get("constellations", ["GPS"] * G.shape[0])
        ids = doc.get("sat_ids", [f"s{i}" for i in range(G.shape[0])])
        model = model_core.LinearModel(G, weights, np.zeros(G.shape[0]),
                                       ids, const_of)
        acc = [distkit.Gaussian(s) for s in sigmas]
        axis = int(doc.get("axis", min(2, G.shape[1] - 1)))
        return model, acc, sigmas, axis
    user = model_core.geodetic_to_ecef(*doc["user_llh"])
    mask = float(doc.get("mask_deg", 5.0))
    sats, svns = [], []
    for s in doc["sats"]:
        sats.append((np.asarray(s["ecef"], dtype=float),
                     s["constellation"]))
        svns.append(s["svn"])
    rows, els = [], []
    for i, (pos, const) in enumerate(sats):
        el, _ = model_core.elevation_azimuth(user, pos)
        if el <= mask:
            continue
        rows.append((pos, const, svns[i]))
        els.append(el)
    models = sim.error_models([v for _, _, v in rows], els, table, flavor,
                              b_nom=b_nom)
    sigmas = np.array([m.acc_sigma for m in models])
    model = model_core.assemble_geometry(
        user, [(p, c) for p, c, _ in rows], mask_angle=mask,
        weights=1.0 / sigmas ** 2, sat_ids=[v for _, _, v in rows])
    return model, [m.acc_bound for m in models], sigmas, 2


def _threat_for(model, budget):
    parts = {}
    for i, c in enumerate(model.const_of):
        parts.setdefault(c, []).append(i)
    counts = [len(v) for _, v in sorted(parts.items())]
    k_max, _ = threat.determine_kmax(counts, budget.p_sat, budget.p_const,
                                     budget.p_thres)
    k_max = min(k_max, model.n - model.m)
    if k_max < 1:
        raise JkAraimError("geometry has no redundancy for fault detection")
    return threat.enumerate_modes(model.n, k_max, parts, budget.p_sat,
                                  budget.p_const, m=model.m)


def cmd_pl(args) -> int:
    table = overbound.default_table()
    kv = _read_kv_config(args.config) if args.config else {}
    budget = _budget_from_kv(kv)
    model, acc, sigmas, axis = _load_geometry(
        args.geometry, table, args.bound, budget.b_nom)
    ops = SolutionOps(model)
    tm = _threat_for(model, budget)
    if args.algorithm == "baseline":
        res = baseline_araim_pl(model, tm, sigmas, budget, ops=ops,
                                axes=(axis,))
        pl, binding, thresh = float(res.pl[axis]), "total-risk", {}
    else:
        dists, _ = jackknife.stat_distributions(model, ops, tm, acc,
                                                axis=axis)
        thresh = jackknife.thresholds(tm, dists, budget.c_req_fa_total)
        bounds = [distkit.PairedBound(a, budget.b_nom) for a in acc]
        pl, binding = pl_solve(model, tm, bounds, thresh, budget,
                               axis=axis, ops=ops, gaussian_sigmas=sigmas,
                               return_binding=True)
    doc = {"pl_m": pl, "axis": axis, "binding": binding,
           "algorithm": args.algorithm, "bound": args.bound,
           "thresholds": {str(k): v for k, v in thresh.items()},
           "n_fault_modes": tm.n_fault_modes}
    print(json.dumps(doc, indent=2))
    return 0


def cmd_sim(args) -> int:
    kv = _read_kv_config(args.scenario) if args.scenario else {}
    config = _scenario_from_kv(kv, seed_override=args.seed)
    table = overbound.default_table()
    almanac = sim.default_almanac(config.constellations)
    digests = {}
    if args.scenario:
        digests[args.scenario] = _sha256(args.scenario)
    records = sim.run_scenario(config, almanac, table)
    out_csv = args.output + ".csv"
    out_json = args.output + ".json"
    out_manifest = args.output + ".manifest.json"
    try:
        with open(out_csv, "w") as fh:
            sim.write_records_csv(records, fh)
        summary = json.loads(sim.summary_json(records, config))
        summary["mode_count_max"] = _full_mode_count(almanac, config)
        with open(out_json, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        RunManifest("sim", args.scenario or "", digests,
                    [out_csv, out_json], config.seed,
                    _version()).write(out_manifest)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    if not args.quiet:
        print(f"{len(records)} records -> {out_csv}", file=sys.stderr)
    return 0


def _full_mode_count(almanac, config):
    counts = {}
    for a in almanac:
        if a.health == 0 and a.constellation in config.constellations:
            counts[a.constellation] = counts.get(a.constellation, 0) + 1
    n = sum(counts.values())
    budget = config.budget
    k_max, _ = threat.determine_kmax(
        sorted(counts.values()), budget.p_sat, budget.p_const,
        budget.p_thres)
    total = sum(math.comb(n, s) for s in range(1, k_max + 1))
    if len(counts) >= 2:
        total += len(counts)
    return total


def cmd_fit(args) -> int:
    try:
        with open(args.samples, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        print(f"error: cannot read {args.samples}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    vals = []
    for row in rows:
        if not row:
            continue
        try:
            vals.append(float(row[0]))
        except ValueError:
            if vals:
                raise
            continue        # header line
    if not vals:
        print(f"error: no numeric samples in {args.samples}",
              file=sys.stderr)
        return EXIT_PARSE
    x = np.asarray(vals)
    sigma = overbound.fit_gaussian_overbound(x, symmetrize=True)
    p1, s1, s2 = overbound.fit_bgmm(x)
    pgo = overbound.build_pgo((p1, s1, s2))
    report = overbound.verify_overbound(pgo, x)
    doc = {
        "n_samples": int(x.size),
        "gaussian_sigma": sigma,
        "bgmm": {"p1": p1, "sigma1": s1, "sigma2": s2},
        "pgo": {"p1": pgo.p1, "sigma1": pgo.sigma1, "sigma2": pgo.sigma2,
                "k_gain": pgo.k_gain, "c_offset": pgo.c_offset,
                "x_rp": pgo.x_rp},
        "dominance": {"max_core_violation": report.max_core_violation,
                      "max_tail_violation": report.max_tail_violation,
                      "passes": report.passes},
    }
    print(json.dumps(doc, indent=2))
    return 0


def cmd_detect(args) -> int:
    table = overbound.default_table()
    kv = _read_kv_config(args.config) if args.config else {}
    budget = _budget_from_kv(kv)
    model, acc, sigmas, axis = _load_geometry(
        args.geometry, table, args.bound, budget.b_nom)
    with open(args.observations) as fh:
        y = np.asarray(json.load(fh), dtype=float)
    if y.shape != (model.n,):
        print(f"error: expected {model.n} observations, got {y.size}",
              file=sys.stderr)
        return EXIT_PARSE
    ops = SolutionOps(model)
    tm = _threat_for(model, budget)
    res = jackknife.run_detector(model, tm, acc, y=y, axis=axis, ops=ops,
                                 c_req_fa=budget.c_req_fa_total)
    doc = {"alert": res.alert,
           "stats": {str(k): v for k, v in res.stats.items()},
           "thresholds": {str(k): v for k, v in res.thresholds.items()},
           "skipped_modes": list(res.skipped)}
    print(json.dumps(doc, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="jkaraim",
        description="Jackknife-detector ARAIM toolkit")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario seed")
    p.add_argument("--quiet", action="store_true",
                   help="suppress progress chatter on stderr")
    p.add_argument("--config", default=None,
                   help="key=value budget/config file")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pl", help="single-epoch protection level")
    sp.add_argument("geometry", help="geometry JSON file")
    sp.add_argument("--algorithm", choices=("jk", "baseline"),
                    default="jk")
    sp.add_argument("--bound", choices=("gaussian", "pgo"),
                    default="gaussian")
    sp.set_defaults(func=cmd_pl)

    sp = sub.add_parser("sim", help="worldwide scenario run")
    sp.add_argument("scenario", nargs="?", default=None,
                    help="key=value scenario file (defaults reproduce the "
                         "full-scale protocol)")
    sp.add_argument("-o", "--output", default="scenario",
                    help="output path stem")
    sp.set_defaults(func=cmd_sim)

    sp = sub.add_parser("fit", help="fit overbounds to a sample column")
    sp.add_argument("samples", help="single-column CSV of error samples")
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("detect", help="single-epoch detector run")
    sp.add_argument("geometry", help="geometry JSON file")
    sp.add_argument("observations", help="JSON array of observations (m)")
    sp.add_argument("--bound", choices=("gaussian", "pgo"),
                    default="gaussian")
    sp.set_defaults(func=cmd_detect)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except JkAraimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
