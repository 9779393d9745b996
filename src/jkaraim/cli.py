"""Command-line front end: protection levels, scenario runs, overbound
fitting and single-epoch detection."""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from importlib import metadata

import numpy as np

from . import distkit, jackknife, model_core, overbound, sim
from .errors import JkAraimError
from .integrity import IntegrityBudget, baseline_araim_pl, protection_levels

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


def _take_fields(cls, kv):
    """Splits kv into the keys that name fields of the dataclass cls, each
    value parsed by the type of its field's default (a bool by _parse_bool,
    a tuple as comma-separated names, any other by the type itself), and
    the rest. A field whose default is None (ScenarioConfig.budget, which
    the budget keys set) is no key."""
    defaults = {f.name: f.default for f in fields(cls)}
    args, rest = {}, {}
    for key, text in kv.items():
        default = defaults.get(key)
        if default is None:
            rest[key] = text
        elif isinstance(default, bool):
            args[key] = _parse_bool(text)
        elif isinstance(default, tuple):
            args[key] = tuple(t.strip() for t in text.split(","))
        else:
            args[key] = type(default)(text)
    return args, rest


def _scenario_from_kv(kv, seed_override=None) -> sim.ScenarioConfig:
    cfg_args, rest = _take_fields(sim.ScenarioConfig, kv)
    budget_args, rest = _take_fields(IntegrityBudget, rest)
    if rest:
        raise ValueError(f"unknown config key {next(iter(rest))!r}")
    if seed_override is not None:
        cfg_args["seed"] = seed_override
    if budget_args:
        cfg_args["budget"] = IntegrityBudget(**budget_args)
    return sim.ScenarioConfig(**cfg_args)


def _budget_from_kv(kv) -> IntegrityBudget:
    args, unknown = _take_fields(IntegrityBudget, kv)
    if unknown:
        raise ValueError(f"unknown budget keys {sorted(unknown)}")
    return IntegrityBudget(**args)


def _load_geometry(path, table, flavor, budget):
    """Geometry JSON: either a raw linear model (G, weights, sigmas; Gaussian
    bounds only) or a user/satellite description set up as a scenario epoch
    is (sim.epoch_setup). Returns (ops, threat model, accuracy bounds,
    axis) of a stack of one record: ops a model_core.SolutionStack and the
    bounds a distkit.GaussianBatch or a list of one record's bound list.

    A raw model's per-row lists (sigmas, weights, constellations, sat_ids)
    each hold one entry per row of G. Weights default to 1 / sigma^2 and
    sigmas to 1 / sqrt(weight), both to 1 when neither is given. A
    user/sats geometry's user_llh is 2 or 3 finite numbers: latitude (deg,
    in [-90, 90]), longitude (deg) and the height (m, default 0)."""
    with open(path) as fh:
        doc = json.load(fh)
    if "G" in doc:
        if flavor == "pgo":
            raise ValueError("--bound pgo needs a user/sats geometry")
        G = np.asarray(doc["G"], dtype=float)
        n = G.shape[0]
        for field in ("sigmas", "weights", "constellations", "sat_ids"):
            if field in doc and not (type(doc[field]) is list
                                     and len(doc[field]) == n):
                raise ValueError(f"{field} must be a list of one entry per "
                                 f"row of G ({n} rows)")
        for field in ("G", "sigmas", "weights"):
            bad = ~np.isfinite(np.asarray(doc.get(field, []), dtype=float))
            if bad.any():
                row = int(np.argwhere(bad)[0][0])
                raise ValueError(f"{field} row {row} holds "
                                 f"{doc[field][row]!r}, not a finite number")
        sigmas = doc.get("sigmas")
        if sigmas is not None:
            sigmas = np.asarray(sigmas, dtype=float)
        weights = doc.get("weights", np.ones(n) if sigmas is None
                          else 1.0 / sigmas ** 2)
        const_of = doc.get("constellations", ["GPS"] * n)
        ids = doc.get("sat_ids", [f"s{i}" for i in range(n)])
        model = model_core.LinearModel(G, weights, ids, const_of)
        if sigmas is None:
            sigmas = 1.0 / np.sqrt(model.W)
        acc = distkit.GaussianBatch(sigmas[None])
        n_axes = min(3, G.shape[1])
        axis = doc.get("axis", n_axes - 1)
        if type(axis) is not int or not 0 <= axis < n_axes:
            raise ValueError(f"axis = {axis!r} must be an integer position "
                             f"index in [0, {n_axes})")
        return (model_core.SolutionStack(model.G[None], model.W[None]),
                sim.threat_model(const_of, model.m, budget), acc, axis)
    sats, llh = doc["sats"], doc["user_llh"]
    if not (type(llh) is list and len(llh) in (2, 3)
            and all(type(v) in (int, float) and math.isfinite(v)
                    for v in llh)
            and -90.0 <= llh[0] <= 90.0):
        raise ValueError(f"user_llh = {llh!r} must be a list of 2 or 3 "
                         "finite numbers (lat_deg in [-90, 90], lon_deg[, "
                         "height_m])")
    setup = sim.epoch_setup(
        model_core.geodetic_to_ecef(*llh),
        [s["svn"] for s in sats], [s["constellation"] for s in sats],
        [s["ecef"] for s in sats], table, budget, flavor=flavor,
        mask_deg=float(doc.get("mask_deg", 5.0)))
    return setup.ops, setup.tm, setup.acc_bounds, 2


def _check_algorithm(args):
    if args.algorithm == "baseline" and args.bound != "gaussian":
        raise ValueError("--algorithm baseline takes --bound gaussian only")


def _mode_table(args, ops, tm, acc, budget, axis):
    """The mode table of the chosen algorithm: the jackknife's
    (jackknife.thresholds) or the baseline's separation tests
    (jackknife.separation_table)."""
    build = (jackknife.separation_table if args.algorithm == "baseline"
             else jackknife.thresholds)
    return build(ops, tm, acc, budget, axis)


def cmd_pl(args) -> int:
    _check_algorithm(args)
    table = overbound.default_table()
    kv = _read_kv_config(args.config) if args.config else {}
    budget = _budget_from_kv(kv)
    ops, tm, acc, axis = _load_geometry(args.geometry, table, args.bound,
                                        budget)
    tests = _mode_table(args, ops, tm, acc, budget, axis)
    if args.algorithm == "baseline":
        pl = baseline_araim_pl(ops, tm, acc, tests, budget)
        binding = "total-risk"
    else:
        pl, [binding] = protection_levels(ops, tm, acc, tests, budget)
    doc = {"pl_m": float(pl[0]), "axis": axis, "binding": binding,
           "algorithm": args.algorithm, "bound": args.bound,
           "thresholds": dict(zip(map(str, tests.ids),
                                  tests.thresholds[0].tolist())),
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
        sats = sim.healthy_satellites(almanac, config.constellations)
        summary["mode_count_max"] = sim.threat_model(
            [a.constellation for a in sats], 3 + len(config.constellations),
            config.budget).n_fault_modes
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
    _check_algorithm(args)
    table = overbound.default_table()
    kv = _read_kv_config(args.config) if args.config else {}
    budget = _budget_from_kv(kv)
    ops, tm, acc, axis = _load_geometry(args.geometry, table, args.bound,
                                        budget)
    with open(args.observations) as fh:
        y = np.asarray(json.load(fh), dtype=float)
    if y.shape != (ops.n,):
        print(f"error: expected {ops.n} observations, got an array of "
              f"shape {y.shape}", file=sys.stderr)
        return EXIT_PARSE
    # A NaN statistic compares false with every threshold: it would never
    # alert.
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        print(f"error: observation {bad[0]} is {y[bad[0]]}, not a finite "
              "number", file=sys.stderr)
        return EXIT_PARSE
    tests = _mode_table(args, ops, tm, acc, budget, axis)
    stats, alerts = jackknife.run_detector(tests, y[None])
    ids = [str(i) for i in tests.ids]
    doc = {"alert": bool(alerts.any()),
           "stats": dict(zip(ids, stats[0].tolist())),
           "thresholds": dict(zip(ids, tests.thresholds[0].tolist())),
           "skipped_modes": list(tests.skipped)}
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
    sp.add_argument("--algorithm", choices=("jk", "baseline"),
                    default="jk")
    sp.add_argument("--bound", choices=("gaussian", "pgo"),
                    default="gaussian")
    sp.set_defaults(func=cmd_detect)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except JkAraimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
