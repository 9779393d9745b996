"""Worldwide availability simulation: almanac constellations, gridded
users, synthetic nominal errors, detection and protection levels."""

from __future__ import annotations

import csv
import json
import math
import numbers
import re
from dataclasses import dataclass, asdict
from importlib import resources

import numpy as np
from scipy.special import ndtri

from . import distkit, jackknife, model_core, overbound, threat
from .errors import (AlmanacOutOfRange, InsufficientGeometry, JkAraimError,
                     KeplerNonConvergence, UnknownSatellite)
from .integrity import (IntegrityBudget, baseline_araim_pl,
                        protection_levels)

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
        # float_power squares by pow, as a scalar's ** 2 does, so that an
        # array of elevations gives each the sigma it gives alone.
        return IF_FACTOR_GPS * np.sqrt(np.float_power(noise, 2)
                                       + np.float_power(mp, 2))
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


# The nominal 24-satellite almanac the package ships per constellation.
ALMANAC_FILES = {"GPS": "gps_nominal24.yuma", "GAL": "galileo_nominal24.yuma"}


def default_almanac(constellations=("GPS", "GAL")):
    """Nominal 24-satellite almanacs shipped with the package."""
    entries = []
    for c in constellations:
        ref = resources.files("jkaraim.data").joinpath(ALMANAC_FILES[c])
        entries.extend(parse_yuma(ref.read_text()))
    return entries


def propagate(alm: AlmanacEntry, t: float) -> np.ndarray:
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
    node = alm.omega0 + (alm.omega_dot - OMEGA_EARTH) * dt \
        - OMEGA_EARTH * alm.toa
    cn, sn = math.cos(node), math.sin(node)
    ci, si = math.cos(alm.i0), math.sin(alm.i0)
    return np.array([x_orb * cn - y_orb * ci * sn,
                     x_orb * sn + y_orb * ci * cn,
                     y_orb * si])


@dataclass
class Truth:
    """The nominal errors of a stack of records, as arrays (records x n):
    satellite sat[b, j] of record b errs by a draw of its heavy-tailed
    SISRE PGO, whose sampler constants (distkit.Pgo.draw_params) are
    pgo[b, j], plus a draw of N(0, tropo[b, j]) and one of N(0, user[b,
    j]). sat holds the satellites' indices in the scenario's satellite
    list, which key their draws (draw_errors)."""

    pgo: np.ndarray             # records x n x 11
    sat: np.ndarray             # records x n
    tropo: np.ndarray           # records x n, sigma (m)
    user: np.ndarray            # records x n, sigma (m)


def _error_stack(entries, vis, constellations, elevations, flavor):
    """Nominal errors and accuracy bounds of a stack of records whose
    satellites share their constellation labels: entries[i] is satellite
    i's bound-table entry, vis (records x n) the records' satellites, each
    of whose PGO builds (_entries), and elevations (records x n) their
    elevations. Returns (truth, acc): the records' Truth and their
    accuracy bounds. A convolve_rows that fails raises its JkAraimError.

    Each satellite's error is the sum of independent components (its
    heavy-tailed SISRE PGO, Gaussian(s_tropo), Gaussian(s_user)), whose
    law draw_errors samples. The Gaussian flavour's bounds are a
    GaussianBatch of every record's sigmas sqrt(sigma_G^2 + s_tropo^2 +
    s_user^2); the PGO flavour's are one list of grid bounds per record,
    the convolution of its satellites' components (one
    distkit.convolve_rows each)."""
    tropo = tropo_sigma(elevations)
    user = np.empty(elevations.shape)
    for const in set(constellations):
        cols = [j for j, c in enumerate(constellations) if c == const]
        user[:, cols] = cnmp_sigma(const, elevations[:, cols])
    # The stack's satellites, each looked up once; at[b, j] is vis[b, j]'s
    # place among them.
    sats = np.unique(vis)
    at = np.searchsorted(sats, vis)
    pgos = [entries[i].pgo() for i in sats.tolist()]
    truth = Truth(np.array([p.draw_params for p in pgos])[at], vis, tropo,
                  user)
    if flavor == "gaussian":
        g = np.array([entries[i].gauss_sigma_m for i in sats.tolist()])[at]
        # Each square as pow rounds it, as Python floats' ** 2 did.
        return truth, distkit.GaussianBatch(np.sqrt(
            np.float_power(g, 2) + np.float_power(tropo, 2)
            + np.float_power(user, 2)))
    return truth, [list(distkit.convolve_rows(
        [(pgos[i], distkit.Gaussian(t), distkit.Gaussian(u))
         for i, t, u in zip(a.tolist(), ts.tolist(), us.tolist())]))
        for a, ts, us in zip(at, tropo, user)]


# Counter layout of a record's uniforms (distkit.counter_uniforms): the
# satellite's index in the scenario's list, its draw slot (the PGO
# sampler's, then the Gaussian part's) and, in the low 32 bits, the PGO
# sampler's rejection round.
_GAUSS_SLOT = distkit.PGO_SLOTS
_SLOTS = distkit.PGO_SLOTS + 1


def _fold(h, word):
    """Mix a 64-bit word into the key h (uint64 arrays that broadcast)."""
    return distkit.splitmix64(h ^ np.asarray(word, dtype=np.uint64))


def record_keys(seed, loc_ids, epoch_id):
    """The truth keys of the records (seed, loc_id, epoch_id), one per
    loc_id, as a uint64 array: the seed's 64-bit words are folded in,
    lowest first, after their count (so every bit of any non-negative
    seed counts), then the loc_id, then the epoch_id."""
    words = [(seed >> s) & 0xFFFFFFFFFFFFFFFF
             for s in range(0, max(seed.bit_length(), 1), 64)]
    h = _fold(np.zeros(1, dtype=np.uint64), len(words))
    for w in words:
        h = _fold(h, w)
    return _fold(_fold(h, np.asarray(loc_ids, dtype=np.uint64)), epoch_id)


def draw_errors(truth: Truth, keys) -> np.ndarray:
    """One draw of each record's nominal errors (records x n), in one
    array pass: record b's uniforms come from its key keys[b]
    (record_keys) and counters that name the satellite, the draw slot and
    the rejection round. So a record's errors do not depend on the stack
    it is drawn in or on the other satellites it sees. Each error is its
    PGO's draw (distkit.sample_pgo) plus sqrt(tropo^2 + user^2) times one
    standard normal draw, the law of the two Gaussian components' sum."""
    key = np.repeat(np.asarray(keys, dtype=np.uint64), truth.sat.shape[1])
    base = truth.sat.ravel().astype(np.uint64) * np.uint64(_SLOTS)

    def uniform(slot, idx, rnd=0):
        return distkit.counter_uniforms(
            key[idx], ((base[idx] + np.uint64(slot)) << np.uint64(32))
            + np.uint64(rnd))

    pgo = distkit.sample_pgo(
        truth.pgo.reshape(-1, truth.pgo.shape[-1]).T, uniform)
    everything = np.arange(key.size)
    gauss = np.hypot(truth.tropo, truth.user).ravel() * ndtri(
        uniform(_GAUSS_SLOT, everything))
    return (pgo + gauss).reshape(truth.sat.shape)


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


def check_mask_deg(mask_deg):
    """Refuse an elevation mask outside [0, 90) degrees, NaN included."""
    if not 0.0 <= mask_deg < 90.0:
        raise ValueError(f"mask_deg = {mask_deg!r} must lie in [0, 90)")


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
    compute_horizontal: bool = False
    budget: IntegrityBudget = None

    def __post_init__(self):
        if not (0.0 < self.grid_step_deg <= 360.0
                and 360.0 % self.grid_step_deg == 0.0):
            raise ValueError(f"grid_step_deg = {self.grid_step_deg!r} must "
                             "lie in (0, 360] and divide 360")
        if not 0.0 < self.duration_s < math.inf:
            raise ValueError(f"duration_s = {self.duration_s!r} must be "
                             "positive and finite")
        if not 0.0 < self.epoch_step_s:
            raise ValueError(f"epoch_step_s = {self.epoch_step_s!r} must be "
                             "positive")
        check_mask_deg(self.mask_deg)
        consts = self.constellations
        if (not consts or len(set(consts)) < len(consts)
                or not set(consts) <= ALMANAC_FILES.keys()):
            raise ValueError(
                f"constellations = {self.constellations!r} must be one or "
                f"more distinct names out of {sorted(ALMANAC_FILES)}")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError(f"seed = {self.seed!r} must be a non-negative "
                             "integer")
        if not 0.0 < self.val < math.inf:
            raise ValueError(f"val = {self.val!r} must be positive and "
                             "finite")
        if self.flavor not in ("gaussian", "pgo"):
            raise ValueError(f"unknown bound flavor {self.flavor!r}")
        if self.algorithm not in ("jk", "baseline"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm == "baseline" and self.flavor != "gaussian":
            raise ValueError("the baseline algorithm takes Gaussian bounds "
                             f"only, not flavor {self.flavor!r}")
        if self.budget is None:
            # A lone constellation cannot be cross-checked, so its
            # whole-constellation fault is excluded by assertion; otherwise
            # the unmonitored mass exceeds the budget and no finite PL
            # exists.
            p_const = 0.0 if len(self.constellations) == 1 else 1e-4
            self.budget = IntegrityBudget(p_const=p_const)

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


def threat_model(const_of, m: int, budget: IntegrityBudget):
    """Fault modes of a geometry of m states whose satellites have the
    constellation labels const_of: k_max from its satellite count
    (threat.determine_kmax), then every mode up to it
    (threat.enumerate_modes), which raises InsufficientRedundancy when
    k_max exceeds the redundancy n - m."""
    parts = {}
    for i, c in enumerate(const_of):
        parts.setdefault(c, []).append(i)
    n = len(const_of)
    k_max = threat.determine_kmax(n, budget.p_sat, budget.p_thres)
    return threat.enumerate_modes(n, k_max, parts, budget.p_sat,
                                  budget.p_const, m=m)


@dataclass
class EpochSetup:
    """What the detector and PLs of a stack of records start from
    (_setup_stack; epoch_setup for one user), for records whose visible
    satellites share their constellation labels. Each field holds every
    record's along a leading axis. The geometry is ops, weighted by 1 /
    sigma^2 of each satellite's bound."""

    visible: np.ndarray         # indices of the satellites above the mask
    elevations: np.ndarray      # their elevations (deg)
    truth: Truth                # their nominal errors
    acc_bounds: object          # GaussianBatch, or one list per record
    ops: model_core.SolutionStack
    tm: threat.ThreatModel


def _stacks(above, constellations, alone):
    """One epoch's users, above (users x N) flagging the satellites above
    their mask, in stacks whose visible satellites share their
    constellation labels: those fix n, m, k_max and the fault modes. A
    user flagged in alone gets a stack of its own. Yields (labels, rows,
    vis): the users rows and their visible satellites vis (rows x n)."""
    groups = {}
    for r, mask in enumerate(above):
        vis = np.flatnonzero(mask)
        key = tuple([constellations[i] for i in vis])
        groups.setdefault((key, r if alone[r] else -1), []).append((r, vis))
    for (key, _), members in groups.items():
        yield (key, np.array([r for r, _ in members]),
               np.array([v for _, v in members],
                        dtype=int).reshape(len(members), len(key)))


def _setup_stack(key, rows, vis, u, el, entries, budget, flavor):
    """The stacked EpochSetup of one stack of _stacks: u (users x N x 3)
    and el (users x N) are every user's line_of_sight rows and elevations,
    and entries[i] is satellite i's bound-table entry, or the JkAraimError
    that refuses it (_entries).

    Raises the first JkAraimError of these checks, in this order: fewer
    satellites than states plus one (InsufficientGeometry); the first
    visible satellite the table does not hold or whose PGO cannot be
    built; bounds whose convolution fails (PGO flavour); a rank-deficient
    weighted geometry (InsufficientGeometry); k_max above n - m
    (InsufficientRedundancy).
    """
    if len(key) < 3 + len(set(key)) + 1:
        raise InsufficientGeometry("insufficient geometry")
    bad = np.array([isinstance(e, JkAraimError) for e in entries])[vis]
    if bad.any():
        # A copy: the table's error is shared by every record that sees
        # the satellite.
        exc = entries[vis[bad][0]]
        raise type(exc)(str(exc))
    elevations = el[rows[:, None], vis]
    if not np.all((0.0 < elevations) & (elevations <= 90.0)):
        raise ValueError(f"elevation {elevations.min()} out of range")
    truth, acc = _error_stack(entries, vis, key, elevations, flavor)
    W = 1.0 / distkit.bound_sigmas(acc) ** 2
    G = model_core.geometry_matrix(u[rows[:, None], vis], key)
    ops = model_core.SolutionStack(G, W)
    return EpochSetup(vis, elevations, truth, acc, ops,
                      threat_model(key, G.shape[-1], budget))


def _entries(sat_ids, constellations, table):
    """Each satellite's bound-table entry, or the JkAraimError that refuses
    it: an UnknownSatellite for an svn the table does not hold or holds
    under another constellation, or the error of an entry whose PGO
    cannot be built (SatelliteBound.pgo, e.g. NoValidPartition)."""
    out = []
    for svn, const in zip(sat_ids, constellations, strict=True):
        entry = table.get(svn)
        if entry is None:
            entry = UnknownSatellite(f"no bound parameters for {svn!r}")
        elif entry.constellation != const:
            entry = UnknownSatellite(f"{svn!r} is labelled {const!r}, but "
                                     f"its bounds are {entry.constellation!r}")
        else:
            try:
                entry.pgo()
            except JkAraimError as exc:
                entry = exc
        out.append(entry)
    return out


def epoch_setup(user_ecef, sat_ids, constellations, positions, table,
                budget: IntegrityBudget, flavor="gaussian",
                mask_deg=5.0) -> EpochSetup:
    """One epoch's set-up from the user's ECEF position and the
    satellites' ids, constellations and ECEF positions: the scenario's
    stacked set-up (_setup_stack) of one user, an EpochSetup of a stack
    of one record. It holds the satellites above mask_deg, their errors
    and bounds (_error_stack), the geometry weighted by their bounds'
    sigmas (distkit.bound_sigmas) and its threat model (threat_model).

    Raises ValueError for a mask_deg outside [0, 90) (check_mask_deg),
    InsufficientGeometry when fewer satellites than states plus one are
    visible, and InsufficientRedundancy when k_max exceeds n - m. Every
    JkAraimError raised once the mask has been applied carries the
    visible count as n_visible.
    """
    check_mask_deg(mask_deg)
    u, el = model_core.line_of_sight(user_ecef, positions)
    if flavor not in ("gaussian", "pgo"):
        raise ValueError(f"unknown bound flavor {flavor!r}")
    [(key, rows, vis)] = _stacks(el[None] > mask_deg, constellations, [True])
    try:
        return _setup_stack(key, rows, vis, u[None], el[None],
                            _entries(sat_ids, constellations, table),
                            budget, flavor)
    except JkAraimError as exc:
        exc.n_visible = len(key)
        raise


def evaluate_epoch(config: ScenarioConfig, sats, positions, table, lat, lon,
                   t, loc_id=0, epoch_id=0) -> EpochRecord:
    """One (location, epoch) cell: geometry, synthetic errors, detection
    and protection levels.

    sats are the scenario's healthy satellites (healthy_satellites) and
    positions their ECEF positions at t (satellite_positions). An epoch
    that epoch_setup refuses (a JkAraimError) is recorded with its visible
    count and the reason. It is run_scenario's evaluation of an epoch
    (_epoch_records) for one location, so the record is the one
    run_scenario makes for the cell, bit for bit."""
    user = model_core.geodetic_to_ecef(lat, lon, 0.0)
    [rec] = _epoch_records(
        config, sats, _entries([a.svn for a in sats],
                               [a.constellation for a in sats], table),
        positions, [(lat, lon)], [loc_id], user[None],
        model_core.enu_frame(user)[None], t, epoch_id)
    return rec


def _epoch_records(config: ScenarioConfig, sats, entries, positions, cells,
                   loc_ids, users, frames, t, epoch_id):
    """The records of the cells (lat, lon) at epoch t: users (cells x 3)
    are their ECEF positions and frames their ENU rotations
    (model_core.enu_frame), entries the satellites' _entries, and loc_ids
    key each record's truth draws.

    One line_of_sight call covers every cell; each stack of _stacks is
    then set up, drawn, tested and solved as one. Each record draws its
    truth from its own key, record_keys(seed, loc_id, epoch_id), so its
    errors are those it draws alone (draw_errors).

    A stack that raises a package error (JkAraimError) anywhere from its
    set-up to its PLs is evaluated again one record at a time, so the
    error lands on the records that raise it. A lone record that raises
    keeps its visible count, and the VPE, HPE and alerts it reached, with
    the message in its row. So a stack's records that disagree on which
    modes are rank deficient (MixedStack) each get their own mode table.
    A user who sees a satellite the table refuses stacks alone, as do PGO
    records: a PGO record's grids (its bounds' convolve_rows, its
    thresholds' and its PL terms' convolve_batch) take about 1.4 MB, and a
    stack holds all of its records' at once."""
    u, el = model_core.line_of_sight(users, positions, frames)
    above = el > config.mask_deg
    refused = np.array([isinstance(e, JkAraimError) for e in entries],
                       dtype=bool)
    alone = (above & refused).any(axis=1) | (config.flavor == "pgo")
    records = [None] * len(cells)
    keys = record_keys(config.seed, loc_ids, epoch_id)
    stacks = list(_stacks(above, [a.constellation for a in sats], alone))
    # A stack that raises appends its records as stacks of one, which
    # this loop reaches in turn. Its set-up is only an argument, so its
    # arrays and grids go when the call returns.
    for key, rows, vis in stacks:
        recs = [EpochRecord(*cells[r], t, len(key)) for r in rows.tolist()]
        try:
            _evaluate_stack(config, _setup_stack(
                key, rows, vis, u, el, entries, config.budget, config.flavor),
                keys[rows], recs)
        except JkAraimError as exc:
            if len(recs) > 1:
                stacks += [(key, rows[b:b + 1], vis[b:b + 1])
                           for b in range(len(recs))]
                continue
            recs[0].error = str(exc)
        for r, rec in zip(rows.tolist(), recs):
            records[r] = rec
    return records


def _evaluate_stack(config: ScenarioConfig, s: EpochSetup, keys, recs):
    """Truth draws, detection and protection levels of the records recs of
    one stack: s is their EpochSetup and keys their truth keys. Each axis
    has one mode table: its detector runs it and its PL reads it, so the
    detector runs on every axis with a PL. A package error propagates,
    once the records hold their VPE and HPE and the alerts of the axes
    finished before it."""
    eps = draw_errors(s.truth, keys)
    err = distkit.matvec(s.ops.S, eps)
    hpe = np.hypot(err[:, 0], err[:, 1]).tolist()
    for rec, v, h in zip(recs, err[:, 2].tolist(), hpe):
        rec.vpe, rec.hpe = v, h
    budget = config.budget
    ops, tm, acc = s.ops, s.tm, s.acc_bounds
    axes = (0, 1, 2) if config.compute_horizontal else (2,)
    alert = np.zeros(len(recs), dtype=bool)
    pl = np.full((3, len(recs)), math.nan)
    try:
        for axis in axes:
            if config.algorithm == "baseline":
                tests = jackknife.separation_table(ops, tm, acc, budget, axis)
                alert |= jackknife.run_detector(tests, eps)[1].any(axis=-1)
                pl[axis] = baseline_araim_pl(ops, tm, acc, tests, budget)
            else:   # "jk", the other algorithm ScenarioConfig accepts
                tests = jackknife.thresholds(ops, tm, acc, budget, axis)
                alert |= jackknife.run_detector(tests, eps)[1].any(axis=-1)
                pl[axis] = protection_levels(ops, tm, acc, tests, budget)[0]
    finally:
        for rec, a in zip(recs, alert.tolist()):
            rec.alert = a
    hpl = np.hypot(pl[0], pl[1]).tolist()
    for rec, vpl, h in zip(recs, pl[2].tolist(), hpl):
        rec.vpl = vpl
        if config.compute_horizontal:
            rec.hpl = h
        rec.stanford = stanford_class(rec.vpe, vpl, config.val)


def run_scenario(config: ScenarioConfig, almanac=None, table=None,
                 progress=None):
    """All (location, epoch) records for a scenario, location by location
    and within a location epoch by epoch; deterministic in the seed.
    Per-cell failures of the package's own kinds (JkAraimError) are
    recorded in-row; any other exception is a bug and propagates.

    The scenario is evaluated one epoch at a time: the satellites are
    propagated once, every location's lines of sight come from one
    stacked call, and the locations whose visible satellites share their
    constellation labels run as one stack through the set-up, the
    detector and the PLs (_epoch_records). Each record is the one
    evaluate_epoch makes for its cell, bit for bit. A propagation failure
    is recorded in every record of its epoch. progress(done, total), when
    given, is called after each epoch with the records done so far and
    the records of the scenario."""
    if almanac is None:
        almanac = default_almanac(config.constellations)
    if table is None:
        table = overbound.default_table()
    sats = healthy_satellites(almanac, config.constellations)
    entries = _entries([a.svn for a in sats],
                       [a.constellation for a in sats], table)
    grid = config.grid()
    epochs = [float(t) for t in config.epochs()]
    users = model_core.geodetic_to_ecef(*np.transpose(grid), 0.0).T
    frames = model_core.enu_frame(users)
    loc_ids = list(range(len(grid)))
    records = [None] * (len(grid) * len(epochs))
    for epoch_id, t in enumerate(epochs):
        try:
            positions = satellite_positions(sats, t)
        except JkAraimError as exc:
            column = [EpochRecord(lat, lon, t, 0, error=str(exc))
                      for lat, lon in grid]
        else:
            column = _epoch_records(config, sats, entries, positions, grid,
                                    loc_ids, users, frames, t, epoch_id)
        records[epoch_id::len(epochs)] = column
        if progress is not None:
            progress((epoch_id + 1) * len(grid), len(records))
    return records


def _csv_number(x):
    return "" if x is None or not math.isfinite(x) else f"{x:.6f}"


def write_records_csv(records, fh):
    """One CSV row per record; an unavailable number is an empty cell, and
    error says why a refused record has no solution."""
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["lat_deg", "lon_deg", "t_s", "n_vis", "vpe_m", "hpe_m",
                "vpl_m", "hpl_m", "alert", "class", "error"])
    w.writerows([f"{r.lat:g}", f"{r.lon:g}", f"{r.t:g}", r.n_visible,
                 _csv_number(r.vpe), _csv_number(r.hpe), _csv_number(r.vpl),
                 _csv_number(r.hpl), int(r.alert), r.stanford, r.error]
                for r in records)


def read_records_csv(fh):
    """The records of write_records_csv's rows (an empty number is NaN;
    a file written before the error column reads as no error)."""
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
            stanford=row["class"], error=row.get("error", "")))
    return records


def aggregate(records, val=35.0, availability_levels=(0.75, 0.95, 0.995)):
    """Availability per location, coverage at the requested levels
    (area-weighted by cos latitude and unweighted), 99.5-percentile VPL
    per location, and Stanford class counts."""
    if not records:
        raise ValueError("no records to aggregate")
    by_loc = {}
    for r in records:
        by_loc.setdefault((r.lat, r.lon), []).append(r.vpl)
    locs = sorted(by_loc)
    # Every VPL, location by location; an unavailable one is infinite.
    vpl = np.array([v for key in locs for v in by_loc[key]], dtype=float)
    vpl[~np.isfinite(vpl)] = np.inf
    count = np.array([len(by_loc[key]) for key in locs])
    # Sums of ones are exact, so each ratio is the mean of its location's
    # 0/1 availabilities.
    avails = np.bincount(np.repeat(np.arange(len(locs)), count),
                         weights=vpl < val) / count
    availability = dict(zip(locs, avails.tolist()))
    # Order statistic, not interpolation: stays well-defined when the
    # upper tail holds unavailable (infinite) records. One call per
    # record count covers every location with that many records.
    start = np.cumsum(count) - count
    p995 = np.empty(len(locs))
    for n in np.unique(count).tolist():
        same = np.flatnonzero(count == n)
        p995[same] = np.quantile(vpl[start[same, None] + np.arange(n)],
                                 0.995, axis=1, method="higher")
    vpl_p995 = dict(zip(locs, p995.tolist()))

    coverage = {}
    weights = np.cos(np.radians([lat for lat, _ in locs]))
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
