"""Worldwide availability simulation: almanac constellations, gridded
users, synthetic nominal errors, detection and protection levels."""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field, asdict
from importlib import resources

import numpy as np

from . import distkit, jackknife, model_core, overbound, threat
from .errors import (AlmanacOutOfRange, InsufficientRedundancy, JkAraimError,
                     KeplerNonConvergence, UnknownSatellite)
from .integrity import (IntegrityBudget, allocate, baseline_alert,
                        baseline_araim_pl, pl_solve)
from .model_core import AXIS_UP, SolutionOps

GM_EARTH = 3.986005e14          # m^3/s^2
OMEGA_EARTH = 7.2921151467e-5   # rad/s

# Iono-free combination inflation sqrt((gamma^2+1)/(gamma-1)^2).
_GAMMA_GPS = (1575.42 / 1227.60) ** 2       # L1/L2
_GAMMA_GAL = (1575.42 / 1176.45) ** 2       # E1/E5a
IF_FACTOR_GPS = math.sqrt((_GAMMA_GPS ** 2 + 1.0) / (_GAMMA_GPS - 1.0) ** 2)
IF_FACTOR_GAL = math.sqrt((_GAMMA_GAL ** 2 + 1.0) / (_GAMMA_GAL - 1.0) ** 2)

# Galileo airborne-receiver user-range sigma vs elevation (deg), prior to
# the iono-free inflation.
_GAL_CNMP_ELEV = np.arange(5.0, 91.0, 5.0)
_GAL_CNMP_SIGMA = np.array([
    0.4529, 0.3553, 0.3063, 0.2638, 0.2593, 0.2555, 0.2504, 0.2438,
    0.2396, 0.2359, 0.2339, 0.2302, 0.2295, 0.2278, 0.2297, 0.2310,
    0.2274, 0.2277])

STANFORD_CLASSES = ("NO", "MI", "SU", "SU&MI", "HMI")


def tropo_sigma(elevation_deg):
    """Residual tropospheric delay sigma (m) for a given elevation."""
    s = np.sin(np.radians(elevation_deg))
    return 0.12 * 1.001 / np.sqrt(0.002001 + s * s)


def cnmp_sigma(constellation, elevation_deg):
    """Iono-free code noise plus multipath sigma (m) for the airborne
    receiver models (analytic for GPS, tabulated for Galileo)."""
    el = np.asarray(elevation_deg, dtype=float)
    if constellation == "GPS":
        noise = 0.15 + 0.43 * np.exp(-el / 6.9)
        mp = 0.13 + 0.53 * np.exp(-el / 10.0)
        return IF_FACTOR_GPS * np.sqrt(noise ** 2 + mp ** 2)
    if constellation == "GAL":
        user = np.interp(el, _GAL_CNMP_ELEV, _GAL_CNMP_SIGMA)
        return IF_FACTOR_GAL * user
    raise UnknownSatellite(f"no receiver model for {constellation!r}")


@dataclass
class AlmanacEntry:
    svn: str
    constellation: str
    prn: int
    health: int
    e: float
    toa: float
    i0: float               # rad
    omega_dot: float        # rad/s
    sqrt_a: float           # m^0.5
    omega0: float           # rad, RAAN at week epoch
    omega: float            # rad, argument of perigee
    m0: float               # rad
    af0: float = 0.0
    af1: float = 0.0
    week: int = 0

    def __post_init__(self):
        if not (0.0 <= self.e <= 0.05):
            raise ValueError(f"eccentricity {self.e} outside almanac range")


_YUMA_FIELDS = [
    ("ID", "prn", int),
    ("Health", "health", int),
    ("Eccentricity", "e", float),
    ("Time of Applicability(s)", "toa", float),
    ("Orbital Inclination(rad)", "i0", float),
    ("Rate of Right Ascen(r/s)", "omega_dot", float),
    ("SQRT(A)  (m 1/2)", "sqrt_a", float),
    ("Right Ascen at Week(rad)", "omega0", float),
    ("Argument of Perigee(rad)", "omega", float),
    ("Mean Anom(rad)", "m0", float),
    ("Af0(s)", "af0", float),
    ("Af1(s/s)", "af1", float),
    ("week", "week", int),
]


def parse_yuma(text_or_file):
    """Parse YUMA almanac text into AlmanacEntry objects.

    Recognizes the nonstandard `Constellation:` and `SVN:` extension lines;
    plain YUMA blocks default to GPS with a PRN-derived id.
    """
    if hasattr(text_or_file, "read"):
        text = text_or_file.read()
    else:
        text = text_or_file
    entries = []
    blocks = re.split(r"\*{4,}[^\n]*\n", text)
    for block in blocks:
        kv = {}
        for line in block.splitlines():
            if ":" not in line:
                continue
            key, _, val = line.partition(":")
            kv[key.strip()] = val.strip()
        if "ID" not in kv:
            continue
        fields = {}
        for yk, attr, conv in _YUMA_FIELDS:
            key = yk if yk in kv else yk.split("(")[0].strip()
            matches = [k for k in kv if k == yk or k.startswith(key)]
            if not matches:
                raise ValueError(f"YUMA block missing field {yk!r}")
            fields[attr] = conv(float(kv[matches[0]]))
        const = kv.get("Constellation", "GPS")
        svn = kv.get("SVN", f"PRN{fields['prn']:02d}")
        entries.append(AlmanacEntry(svn=svn, constellation=const, **fields))
    return entries


def write_yuma(entries, fh):
    for a in entries:
        fh.write(f"******** Week {a.week:4d} almanac for PRN-{a.prn:02d} "
                 "********\n")
        fh.write(f"ID:                         {a.prn:02d}\n")
        fh.write(f"Health:                     {a.health:03d}\n")
        fh.write(f"Eccentricity:               {a.e:.10E}\n")
        fh.write(f"Time of Applicability(s):   {a.toa:.4f}\n")
        fh.write(f"Orbital Inclination(rad):   {a.i0:.10f}\n")
        fh.write(f"Rate of Right Ascen(r/s):   {a.omega_dot:.10E}\n")
        fh.write(f"SQRT(A)  (m 1/2):           {a.sqrt_a:.6f}\n")
        fh.write(f"Right Ascen at Week(rad):   {a.omega0:.10f}\n")
        fh.write(f"Argument of Perigee(rad):   {a.omega:.10f}\n")
        fh.write(f"Mean Anom(rad):             {a.m0:.10f}\n")
        fh.write(f"Af0(s):                     {a.af0:.10E}\n")
        fh.write(f"Af1(s/s):                   {a.af1:.10E}\n")
        fh.write(f"week:                       {a.week:4d}\n")
        fh.write(f"Constellation:              {a.constellation}\n")
        fh.write(f"SVN:                        {a.svn}\n\n")


def default_almanac(constellations=("GPS", "GAL")):
    """Nominal 24-satellite almanacs shipped with the package."""
    names = {"GPS": "gps_nominal24.yuma", "GAL": "galileo_nominal24.yuma"}
    entries = []
    for c in constellations:
        ref = resources.files("jkaraim.data").joinpath(names[c])
        entries.extend(parse_yuma(ref.read_text()))
    return entries


def propagate(alm: AlmanacEntry, t: float, rotating=True) -> np.ndarray:
    """ECEF position (m) of the almanac satellite at GPS time-of-week t."""
    if abs(t - alm.toa) >= 7 * 86400.0:
        raise AlmanacOutOfRange(
            "propagation time too far from time of applicability")
    a = alm.sqrt_a ** 2
    n = math.sqrt(GM_EARTH / a ** 3)
    dt = t - alm.toa
    m_anom = alm.m0 + n * dt
    ecc = m_anom
    for it in range(51):
        delta = (ecc - alm.e * math.sin(ecc) - m_anom) \
            / (1.0 - alm.e * math.cos(ecc))
        ecc -= delta
        if abs(delta) < 1e-13:
            break
    else:
        raise KeplerNonConvergence("Kepler iteration stalled")
    nu = math.atan2(math.sqrt(1.0 - alm.e ** 2) * math.sin(ecc),
                    math.cos(ecc) - alm.e)
    r = a * (1.0 - alm.e * math.cos(ecc))
    u = alm.omega + nu
    x_orb, y_orb = r * math.cos(u), r * math.sin(u)
    if rotating:
        node = alm.omega0 + (alm.omega_dot - OMEGA_EARTH) * dt \
            - OMEGA_EARTH * alm.toa
    else:
        node = alm.omega0 + alm.omega_dot * dt
    cn, sn = math.cos(node), math.sin(node)
    ci, si = math.cos(alm.i0), math.sin(alm.i0)
    return np.array([x_orb * cn - y_orb * ci * sn,
                     x_orb * sn + y_orb * ci * cn,
                     y_orb * si])


@dataclass
class SatErrorModel:
    svn: str
    constellation: str
    truth_components: tuple     # (sisre dist, tropo sigma, cnmp sigma)
    acc_bound: object
    int_bound: distkit.PairedBound

    @property
    def acc_sigma(self) -> float:
        return math.sqrt(self.acc_bound.variance())

    def draw(self, rng: np.random.Generator) -> float:
        sisre, s_tropo, s_user = self.truth_components
        return (float(sisre.sample(rng))
                + s_tropo * rng.standard_normal()
                + s_user * rng.standard_normal())


def error_models(svns, elevations, table, flavor, b_nom=0.75,
                 n_points=4096) -> list:
    """Per-satellite nominal error synthesis and bounds for one epoch, one
    SatErrorModel per (svn, elevation).

    The truth sampler always follows the heavy-tailed SISRE surrogate; the
    accuracy/integrity bounds switch between the Gaussian overbound and the
    exact convolved non-Gaussian form depending on flavor. The PGO-flavour
    accuracy bounds, PGO (+) N(s_tropo) (+) N(s_user) on grids, come from
    one batched synthesis (distkit.convolve_rows).
    """
    if flavor not in ("gaussian", "pgo"):
        raise ValueError(f"unknown bound flavor {flavor!r}")
    entries, noise = [], []
    for svn, elevation in zip(svns, elevations, strict=True):
        if not (0.0 < elevation <= 90.0):
            raise ValueError(f"elevation {elevation} out of range")
        if svn not in table:
            raise UnknownSatellite(f"no bound parameters for {svn!r}")
        entry = table[svn]
        entries.append(entry)
        noise.append((float(tropo_sigma(elevation)),
                      float(cnmp_sigma(entry.constellation, elevation))))
    if flavor == "gaussian":
        accs = [distkit.Gaussian(math.sqrt(e.gauss_sigma_m ** 2 + s_tropo ** 2
                                           + s_user ** 2))
                for e, (s_tropo, s_user) in zip(entries, noise)]
    elif entries:
        accs = distkit.convolve_rows(
            [(e.pgo(), distkit.Gaussian(s_tropo), distkit.Gaussian(s_user))
             for e, (s_tropo, s_user) in zip(entries, noise)],
            n_points=n_points)
    else:
        accs = []
    return [SatErrorModel(e.svn, e.constellation, (e.pgo(), s_tropo, s_user),
                          acc, distkit.PairedBound(acc, b_nom))
            for e, (s_tropo, s_user), acc in zip(entries, noise, accs)]


def error_model(svn, elevation, table, flavor, b_nom=0.75,
                n_points=4096) -> SatErrorModel:
    """error_models for one satellite."""
    return error_models([svn], [elevation], table, flavor, b_nom=b_nom,
                        n_points=n_points)[0]


def stanford_class(vpe, vpl, val) -> str:
    """Triangle-chart bin for one record; an unavailable PL counts as SU."""
    if vpl is None or not np.isfinite(vpl):
        return "SU"
    ae = abs(vpe)
    if vpl <= val:
        if ae <= vpl:
            return "NO"
        return "MI" if ae <= val else "HMI"
    return "SU" if ae <= vpl else "SU&MI"


@dataclass
class ScenarioConfig:
    grid_step_deg: float = 15.0
    epoch_step_s: float = 600.0
    duration_s: float = 86400.0
    mask_deg: float = 5.0
    constellations: tuple = ("GPS",)
    flavor: str = "gaussian"
    algorithm: str = "jk"
    seed: int = 0
    val: float = 35.0
    hal: float = 40.0
    compute_horizontal: bool = False
    detect: bool = True
    n_points: int = 2048
    budget: IntegrityBudget = None

    def __post_init__(self):
        if 360.0 % self.grid_step_deg != 0.0:
            raise ValueError("grid step must divide 360")
        if self.epoch_step_s <= 0:
            raise ValueError("epoch step must be positive")
        if self.flavor not in ("gaussian", "pgo"):
            raise ValueError(f"unknown bound flavor {self.flavor!r}")
        if self.algorithm not in ("jk", "baseline"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.budget is None:
            # A lone constellation cannot be cross-checked, so its
            # whole-constellation fault is excluded by assertion; otherwise
            # the unmonitored mass exceeds the budget and no finite PL
            # exists.
            p_const = 0.0 if len(self.constellations) == 1 else 1e-4
            self.budget = IntegrityBudget(p_const=p_const,
                                          val=self.val, hal=self.hal)

    def grid(self):
        lons = np.arange(-180.0, 180.0, self.grid_step_deg)
        lats = np.arange(-90.0 + self.grid_step_deg / 2.0, 90.0,
                         self.grid_step_deg)
        return [(float(lat), float(lon)) for lat in lats for lon in lons]

    def epochs(self):
        return np.arange(0.0, self.duration_s, self.epoch_step_s)


@dataclass
class EpochRecord:
    lat: float
    lon: float
    t: float
    n_visible: int
    vpe: float = math.nan
    hpe: float = math.nan
    vpl: float = math.nan
    hpl: float = math.nan
    alert: bool = False
    stanford: str = "SU"
    error: str = ""


def healthy_satellites(almanac, constellations):
    """Almanac entries of the given constellations that are healthy."""
    return [a for a in almanac
            if a.health == 0 and a.constellation in constellations]


def satellite_positions(sats, t):
    """ECEF positions (len(sats) x 3) of the given satellites at time t."""
    return np.array([propagate(a, t) for a in sats]).reshape(-1, 3)


def _visible_sats(sats, positions, user_ecef, mask_deg):
    """Satellites above the mask seen from one user, as (entry, position,
    elevation) triples, and their unit ENU line-of-sight rows."""
    u, el = model_core.line_of_sight(user_ecef, positions)
    keep = np.flatnonzero(el > mask_deg)
    vis = [(sats[i], positions[i], el[i]) for i in keep]
    return vis, u[keep]


def evaluate_epoch(config: ScenarioConfig, sats, positions, table, lat, lon,
                   t, loc_id=0, epoch_id=0) -> EpochRecord:
    """One (location, epoch) cell: geometry, synthetic errors, detection
    and protection levels.

    sats are the scenario's healthy satellites (healthy_satellites) and
    positions their ECEF positions at t (satellite_positions)."""
    budget = config.budget
    user = model_core.geodetic_to_ecef(lat, lon, 0.0)
    vis, los = _visible_sats(sats, positions, user, config.mask_deg)
    rec = EpochRecord(lat, lon, t, len(vis))
    consts = sorted({alm.constellation for alm, _, _ in vis})
    if len(vis) < 3 + len(consts) + 1:
        rec.error = "insufficient geometry"
        return rec

    models = error_models([alm.svn for alm, _, _ in vis],
                          [el for _, _, el in vis], table, config.flavor,
                          b_nom=budget.b_nom, n_points=config.n_points)
    sig_acc = np.array([m.acc_sigma for m in models])
    geom = model_core.model_from_los(
        los, [alm.constellation for alm, _, _ in vis],
        [alm.svn for alm, _, _ in vis], weights=1.0 / sig_acc ** 2)
    ops = SolutionOps(geom)

    parts = {}
    counts = {}
    for i, (alm, _, _) in enumerate(vis):
        parts.setdefault(alm.constellation, []).append(i)
        counts[alm.constellation] = counts.get(alm.constellation, 0) + 1
    k_max, _ = threat.determine_kmax(
        [counts[c] for c in sorted(counts)], budget.p_sat, budget.p_const,
        budget.p_thres)
    try:
        tm = threat.enumerate_modes(geom.n, k_max, parts, budget.p_sat,
                                    budget.p_const)
    except InsufficientRedundancy as exc:
        rec.error = str(exc)
        return rec

    # Synthetic truth, one counter-keyed stream per cell.
    rng = np.random.default_rng([config.seed, loc_id, epoch_id])
    eps = np.array([m.draw(rng) for m in models])
    geom.y = eps
    err = ops.S @ eps
    rec.vpe = float(err[2])
    rec.hpe = float(np.hypot(err[0], err[1]))

    axes = (0, 1, 2) if config.compute_horizontal else (2,)
    try:
        if config.algorithm == "baseline":
            res = baseline_araim_pl(geom, tm, sig_acc, budget, ops=ops,
                                    axes=axes)
            if config.detect:
                rec.alert = baseline_alert(geom, ops, tm, sig_acc, budget)
            pl = res.pl
        else:   # "jk", the other algorithm ScenarioConfig accepts
            acc = [m.acc_bound for m in models]
            if config.detect:
                needed = None
            else:
                i_alloc = allocate(budget, tm, AXIS_UP)[1]
                needed = [m.id for m in tm.sat_modes() if m.prior > i_alloc]
            dists, _ = jackknife.stat_distributions(
                geom, ops, tm, acc, n_points=config.n_points,
                mode_ids=needed)
            thresh = jackknife.thresholds(tm, dists,
                                          budget.c_req_fa_total)
            if config.detect:
                det = jackknife.run_detector(
                    geom, tm, acc, ops=ops, stat_dists=dists, thresh=thresh,
                    c_req_fa=budget.c_req_fa_total)
                rec.alert = det.alert
                if tm.constellation_modes():
                    rec.alert = rec.alert or baseline_alert(
                        geom, ops, tm, sig_acc, budget,
                        modes=tm.constellation_modes())
            bounds = [m.int_bound for m in models]
            pl = np.full(3, math.nan)
            for axis in axes:
                pl[axis] = pl_solve(geom, tm, bounds, thresh, budget,
                                    axis=axis, ops=ops,
                                    gaussian_sigmas=sig_acc,
                                    n_points=config.n_points)
    except JkAraimError as exc:
        rec.error = str(exc)
        return rec

    rec.vpl = float(pl[2])
    if config.compute_horizontal:
        rec.hpl = float(np.hypot(pl[0], pl[1]))
    rec.stanford = stanford_class(rec.vpe, rec.vpl, budget.val)
    return rec


def run_scenario(config: ScenarioConfig, almanac=None, table=None,
                 progress=None):
    """All (location, epoch) records for a scenario; deterministic in the
    seed. Per-cell failures of the package's own kinds (JkAraimError) are
    recorded in-row; any other exception is a bug and propagates.

    Satellites are propagated once per epoch, on the first location that
    needs the epoch; a propagation failure is recorded in every record of
    its epoch."""
    if almanac is None:
        almanac = default_almanac(config.constellations)
    if table is None:
        table = overbound.default_table()
    sats = healthy_satellites(almanac, config.constellations)
    records = []
    grid = config.grid()
    epochs = [float(t) for t in config.epochs()]
    positions = [None] * len(epochs)
    for loc_id, (lat, lon) in enumerate(grid):
        for epoch_id, t in enumerate(epochs):
            try:
                if positions[epoch_id] is None:
                    positions[epoch_id] = satellite_positions(sats, t)
                rec = evaluate_epoch(config, sats, positions[epoch_id],
                                     table, lat, lon, t, loc_id, epoch_id)
            except JkAraimError as exc:
                rec = EpochRecord(lat, lon, t, 0, error=str(exc))
            records.append(rec)
        if progress is not None:
            progress(loc_id + 1, len(grid))
    return records


def write_records_csv(records, fh):
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["lat_deg", "lon_deg", "t_s", "n_vis", "vpe_m", "hpe_m",
                "vpl_m", "hpl_m", "alert", "class"])
    for r in records:
        def cell(x):
            return "" if x is None or not np.isfinite(x) else f"{x:.6f}"
        w.writerow([f"{r.lat:g}", f"{r.lon:g}", f"{r.t:g}", r.n_visible,
                    cell(r.vpe), cell(r.hpe), cell(r.vpl), cell(r.hpl),
                    int(r.alert), r.stanford])


def read_records_csv(fh):
    records = []
    for row in csv.DictReader(fh):
        def num(key):
            v = row[key]
            return float(v) if v else math.nan
        records.append(EpochRecord(
            lat=float(row["lat_deg"]), lon=float(row["lon_deg"]),
            t=float(row["t_s"]), n_visible=int(row["n_vis"]),
            vpe=num("vpe_m"), hpe=num("hpe_m"), vpl=num("vpl_m"),
            hpl=num("hpl_m"), alert=bool(int(row["alert"])),
            stanford=row["class"]))
    return records


def aggregate(records, val=35.0, availability_levels=(0.75, 0.95, 0.995)):
    """Availability per location, coverage at the requested levels
    (area-weighted by cos latitude and unweighted), 99.5-percentile VPL
    per location, and Stanford class counts."""
    if not records:
        raise ValueError("no records to aggregate")
    by_loc = {}
    for r in records:
        by_loc.setdefault((r.lat, r.lon), []).append(r)

    availability = {}
    vpl_p995 = {}
    for key, rs in sorted(by_loc.items()):
        ok = [1.0 if (np.isfinite(r.vpl) and r.vpl < val) else 0.0
              for r in rs]
        availability[key] = float(np.mean(ok))
        vpls = np.array([r.vpl if np.isfinite(r.vpl) else np.inf
                         for r in rs])
        # Order statistic, not interpolation: stays well-defined when the
        # upper tail holds unavailable (infinite) records.
        vpl_p995[key] = float(np.quantile(vpls, 0.995, method="higher"))

    coverage = {}
    lats = np.array([k[0] for k in availability])
    weights = np.cos(np.radians(lats))
    avails = np.array(list(availability.values()))
    for level in availability_levels:
        hit = avails >= level
        coverage[level] = {
            "weighted": float(np.sum(weights[hit]) / np.sum(weights)),
            "unweighted": float(np.mean(hit)),
        }

    counts = {c: 0 for c in STANFORD_CLASSES}
    for r in records:
        counts[r.stanford] += 1
    return {
        "availability_by_location": availability,
        "coverage": coverage,
        "vpl_p995_by_location": vpl_p995,
        "stanford_counts": counts,
    }


def summary_json(records, config: ScenarioConfig,
                 availability_levels=(0.75, 0.95, 0.995)) -> str:
    stats = aggregate(records, val=config.val,
                      availability_levels=availability_levels)
    doc = {
        "availability_by_location": [
            {"lat": k[0], "lon": k[1], "availability": v}
            for k, v in stats["availability_by_location"].items()],
        "coverage": {str(k): v for k, v in stats["coverage"].items()},
        "vpl_p995_by_location": [
            {"lat": k[0], "lon": k[1], "vpl_p995": v}
            for k, v in stats["vpl_p995_by_location"].items()],
        "stanford_counts": stats["stanford_counts"],
        "config_echo": {
            k: v for k, v in asdict(config).items() if k != "budget"},
    }
    return json.dumps(doc, indent=2)
