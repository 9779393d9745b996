"""Linearized measurement model and solution operators.

State ordering is (east, north, up, clock_1, ..., clock_C); position axes
are addressed with 0-based indices 0=east, 1=north, 2=up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientGeometry, MixedStack, SubsetRankDeficient

AXIS_EAST, AXIS_NORTH, AXIS_UP = 0, 1, 2

# Relative singular-value cutoff for rank decisions of the SVD solves (the
# full set, whole-constellation subsets): a 1e-16 relative test on the
# normal matrix G'WG, i.e. working precision.
RANK_RTOL = 1e-8

# Rank rule of the satellite-subset downdate (see SolutionStack), its
# counterpart of RANK_RTOL: a subset that keeps at least as many
# measurements as states is rank deficient when it keeps at most this
# share of the full set's information in some direction. Exactly singular
# subsets (a constellation's only satellite, a whole constellation) come
# out at working precision, below 1e-15; usable subsets keep more than
# 8e-10 even in random 5-to-11-satellite geometries.
SUBSET_RTOL = 1e-12

WGS84_A = 6378137.0
WGS84_E2 = 6.69437999014e-3


@dataclass
class LinearModel:
    """Geometry matrix and weights of one epoch's measurements. The
    observations are not part of it: they are an argument of each
    detector.

    G rows are ENU unit line-of-sight components toward each satellite plus
    one 0/1 clock-indicator column per constellation. A rank-deficient G
    is reported by the solve (SolutionStack raises InsufficientGeometry),
    whose SVD decides the rank.
    """

    G: np.ndarray
    W: np.ndarray
    sat_ids: list
    const_of: list

    def __post_init__(self):
        self.G = np.asarray(self.G, dtype=float)
        self.W = np.asarray(self.W, dtype=float)
        n, m = self.G.shape
        if n < m:
            raise InsufficientGeometry(f"{n} rows for {m} states")
        if np.any(self.W <= 0):
            raise ValueError("all weights must be positive")
        if m > 3:
            clock = self.G[:, 3:]
            ok = np.all((clock == 0.0) | (clock == 1.0)) and \
                np.all(clock.sum(axis=1) == 1.0)
            if not ok:
                raise ValueError("each row needs exactly one unit clock entry")

    @property
    def n(self) -> int:
        return self.G.shape[0]

    @property
    def m(self) -> int:
        return self.G.shape[1]


def solve(G, w):
    """(G'WG)^-1 G'W of each weighted geometry of a stack, G (..., n, m)
    and w (..., n), via a rank-revealing decomposition of sqrt(W)G (one
    SVD per geometry, all in one call). Returns (ok, S): ok flags the
    geometries that are not rank deficient by the RANK_RTOL rule; S of the
    others is not meaningful.

    One Newton step S <- S - (S G - I) S then makes S a left inverse of G
    to working precision (S G - I drops to its square), so that the
    residual operator I - G S annihilates G and the leave-out statistics
    of SolutionStack come out exact on exact data.
    """
    sw = np.sqrt(w)
    A = sw[..., :, None] * G
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    ok = (s[..., 0] != 0) & ~(s[..., -1] < RANK_RTOL * s[..., 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        S = (Vt.mT / s[..., None, :]) @ (U.mT * sw[..., None, :])
        return ok, S - (S @ G - np.eye(G.shape[-1])) @ S


def subset_ops(model: LinearModel, excluded):
    """(S_k, G S_k) of one fault mode by a direct weighted solve of the
    kept measurements, S_k zero in the excluded columns; the full set for
    an empty mode. Raises SubsetRankDeficient when fewer measurements than
    states remain or the kept geometry is rank deficient (the RANK_RTOL
    rule). The library reads its modes from SolutionStack.mode_rows; this
    is their independent reference."""
    keep = np.ones(model.n, dtype=bool)
    keep[list(excluded)] = False
    if keep.sum() < model.m:
        raise SubsetRankDeficient("too few measurements remain")
    ok, S = solve(model.G[keep], model.W[keep])
    if not ok:
        raise SubsetRankDeficient("weighted geometry is rank deficient")
    Sk = np.zeros((model.m, model.n))
    Sk[:, keep] = S
    return Sk, model.G @ Sk


def _shared(ok):
    """The flags (last axis) that every geometry of a stack shares. Raises
    MixedStack when they disagree: such geometries have no one mode
    table."""
    lead = tuple(range(ok.ndim - 1))
    flags = ok.all(axis=lead)
    if not np.array_equal(flags, ok.any(axis=lead)):
        raise MixedStack("the geometries of a stack disagree on which "
                         "modes can be tested")
    return flags


class SolutionStack:
    """Full-set solutions S = (G'WG)^-1 G'W of geometries of one shape,
    stacked along leading axes (one per record in the scenario, and a
    stack of one for a lone record), their residual operators R = I - G S,
    and every satellite-subset operator derived from the two. S comes from
    solve, and the stack raises InsufficientGeometry when any of its
    weighted geometries is rank deficient. Every
    method works on the whole stack at once, and a geometry's rows do not
    depend on which geometries share its stack. A table of the stack's
    modes raises MixedStack when its geometries disagree on which modes
    are rank deficient.

    Excluding the measurements I leaves the subset solution

        S_k = S - S[:, I] R[I, I]^-1 R[I, :]

    (the leave-out downdate of S; for one measurement it is the PRESS
    identity of Allen 1974). The rows L = R[I, I]^-1 R[I, :] are the rows I
    of I - G S_k, so the jackknife residuals of the excluded measurements
    are t_I = L y = R[I, I]^-1 r_I with r = R y, and the full-set error
    splits as S eps = S_k eps + S[:, I] t_I. One SVD per geometry (for S)
    serves every mode; a mode costs row operations, plus an |I| x |I|
    solve when it excludes more than one measurement.

    Rank rule: scaled by the square roots of the weights, R[I, I] becomes
    the symmetric I - H[I, I] of the weighted hat matrix H; its smallest
    eigenvalue is the least share of the full set's information (x'N_k x
    over x'N x, N = G'WG) that the subset keeps in any direction. A mode
    is rank deficient when that share is at most SUBSET_RTOL.
    """

    def __init__(self, G, W):
        ok, S = solve(G, W)
        if not np.all(ok):
            raise InsufficientGeometry("weighted geometry is rank deficient")
        self.G, self.W, self.S = G, W, S
        self.n = G.shape[-2]      # measurement count
        self.R = np.eye(self.n) - G @ S

    def _leave_out(self, idx):
        """Leave-out rows for g modes of one size s, idx a (g, s) array of
        excluded indices. Returns (ok, L): ok (..., g) flags the modes that
        are not rank deficient, and L (..., g, s, n) holds their rows
        R[I, I]^-1 R[I, :], zero for the others."""
        R = self.R
        lead = R.shape[:-2]
        g, s = idx.shape
        if self.n - s < self.G.shape[-1]:
            # Too few measurements remain to observe every state.
            return (np.zeros(lead + (g,), dtype=bool),
                    np.zeros(lead + (g, s, self.n)))
        if s == 1:
            i = idx[:, 0]
            d = R[..., i, i]
            ok = d > SUBSET_RTOL
            with np.errstate(divide="ignore", invalid="ignore"):
                L = np.where(ok[..., None], R[..., i, :] / d[..., None], 0.0)
            return ok, L[..., None, :]
        R_II = R[..., idx[:, :, None], idx[:, None, :]]
        sw = np.sqrt(self.W)[..., idx]
        sym = sw[..., :, None] * R_II / sw[..., None, :]
        sym = 0.5 * (sym + sym.swapaxes(-1, -2))
        ok = np.linalg.eigvalsh(sym)[..., 0] > SUBSET_RTOL
        L = np.zeros(lead + (g, s, self.n))
        L[ok] = np.linalg.solve(R_II[ok], R[..., idx, :][ok])
        return ok, L

    def reduced(self, excluded):
        """S_k (..., m, n, zero in the excluded columns) of the solve
        without the excluded measurements and without the clock states
        only they observe, such as an excluded constellation's clock.
        Raises SubsetRankDeficient when the kept geometry cannot support a
        solution, and MixedStack when only some geometries of a stack
        can."""
        keep = np.ones(self.n, dtype=bool)
        keep[list(excluded)] = False
        if not keep.any():
            raise SubsetRankDeficient("no measurements remain")
        G = self.G
        live = [c for c in range(G.shape[-1])
                if c < 3 or np.any(G[..., keep, c] != 0.0)]
        ok, S = solve(G[..., keep, :][..., live], self.W[..., keep])
        if not _shared(ok[..., None])[0]:
            raise SubsetRankDeficient("weighted geometry is rank deficient")
        Sk = np.zeros(self.S.shape)
        Sk[..., np.array(live)[:, None], np.flatnonzero(keep)] = S
        return Sk

    def mode_rows(self, excluded_sets, axis: int):
        """Per-mode rows for one position axis, over many non-empty
        excluded sets at once, vectorised per mode size.

        Returns (ok, Q, C), each with the stack's leading axes: ok flags
        the modes that are not rank deficient; Q[..., k, :] is the axis
        row of S_k (the q vector of the error decomposition S_v eps = q .
        eps + sum_{j in I} S_vj t_j); C[..., k, :] holds the coefficients
        of the mode's test statistic, t_i = C[k] . eps for one excluded
        measurement i and sum_{j in I} S_vj t_j for more. Rows of
        rank-deficient modes are zero. A mode's rows do not depend on
        which modes are asked for together. The mode tables built from
        these rows take ok shared by the whole stack (_shared).
        """
        lead = self.R.shape[:-2]
        K = len(excluded_sets)
        ok = np.zeros(lead + (K,), dtype=bool)
        Q = np.zeros(lead + (K, self.n))
        C = np.zeros(lead + (K, self.n))
        s_ax = self.S[..., axis, :]
        by_size = {}
        for k, excluded in enumerate(excluded_sets):
            by_size.setdefault(len(excluded), []).append(k)
        for size, ks in by_size.items():
            idx = np.array([sorted(excluded_sets[k]) for k in ks], dtype=int)
            good, L = self._leave_out(idx)
            ks = np.array(ks)
            s_idx = s_ax[..., idx]
            if size == 1:
                c = L[..., 0, :]
                q = s_ax[..., None, :] - s_idx * c
            else:
                # sum_j S_vj L_j, added in the order of the excluded set.
                c = s_idx[..., 0, None] * L[..., 0, :]
                for j in range(1, size):
                    c = c + s_idx[..., j, None] * L[..., j, :]
                q = s_ax[..., None, :] - c
            q[..., np.arange(len(ks))[:, None], idx] = 0.0
            ok[..., ks] = good
            C[..., ks, :] = c
            Q[..., ks, :] = np.where(good[..., None], q, 0.0)
        return ok, Q, C


# The conversions below take scalars or arrays of positions, and square by
# np.float_power: it rounds as a scalar's ** 2 (pow) does, so that a
# position in an array converts as it does alone.

def geodetic_to_ecef(lat_deg, lon_deg, height=0.0):
    """ECEF position (3, ...) of geodetic latitudes and longitudes (deg)."""
    lat = np.radians(lat_deg)
    lon = np.radians(lon_deg)
    sl = np.sin(lat)
    N = WGS84_A / np.sqrt(1.0 - WGS84_E2 * np.float_power(sl, 2))
    x = (N + height) * np.cos(lat) * np.cos(lon)
    y = (N + height) * np.cos(lat) * np.sin(lon)
    z = (N * (1.0 - WGS84_E2) + height) * sl
    return np.array([x, y, z])


def ecef_to_geodetic(pos):
    """Geodetic (lat_deg, lon_deg, height) of ECEF positions (3, ...)."""
    x, y, z = pos
    lon = np.arctan2(y, x)
    p = np.hypot(x, y)
    lat = np.arctan2(z, p * (1.0 - WGS84_E2))
    for _ in range(6):
        sl = np.sin(lat)
        N = WGS84_A / np.sqrt(1.0 - WGS84_E2 * np.float_power(sl, 2))
        h = p / np.cos(lat) - N
        lat = np.arctan2(z, p * (1.0 - WGS84_E2 * N / (N + h)))
    return np.degrees(lat), np.degrees(lon), h


def enu_rotation(lat_deg, lon_deg):
    """Rows transform an ECEF delta into (east, north, up): one 3 x 3
    rotation per latitude and longitude, (..., 3, 3)."""
    lat = np.radians(lat_deg)
    lon = np.radians(lon_deg)
    sl, cl = np.sin(lat), np.cos(lat)
    so, co = np.sin(lon), np.cos(lon)
    return np.stack([
        np.stack([-so, co, np.zeros_like(so)], axis=-1),
        np.stack([-sl * co, -sl * so, cl], axis=-1),
        np.stack([cl * co, cl * so, sl], axis=-1),
    ], axis=-2)


def enu_frame(user_ecef):
    """ENU rotations (..., 3, 3) at users' ECEF positions (..., 3), from
    their geodetic positions."""
    user = np.asarray(user_ecef, dtype=float)
    lat, lon, _ = ecef_to_geodetic(np.moveaxis(user, -1, 0))
    return enu_rotation(lat, lon)


def line_of_sight(user_ecef, sat_ecef, frame=None):
    """Unit ENU line-of-sight rows (..., n, 3) and elevations (degrees,
    (..., n)) of n satellites seen from each user of user_ecef (..., 3).

    frame holds the users' ENU rotations (enu_frame, (..., 3, 3)); for one
    user it is computed here when not given. The per-satellite products
    are stacked matmuls, which round exactly like a one-satellite R @ d
    and its norm, whatever the number of users.
    """
    user = np.asarray(user_ecef, dtype=float)
    R = enu_frame(user) if frame is None else frame
    d = np.asarray(sat_ecef, dtype=float).reshape(-1, 3) - user[..., None, :]
    los = np.matmul(R[..., None, :, :], d[..., None])[..., 0]
    rng = np.sqrt(np.matmul(los[..., None, :], los[..., None])[..., 0, 0])
    u = los / rng[..., None]
    return u, np.degrees(np.arcsin(u[..., 2]))


def geometry_matrix(u, consts):
    """G (..., n, m) of unit line-of-sight rows u (..., n, 3) and the n
    satellites' constellation tags, one geometry or a stack sharing the
    tags: the state dimension is 3 + number of distinct constellations,
    one clock column each, in order of first appearance. Raises
    InsufficientGeometry when n < m."""
    tags = list(dict.fromkeys(consts))
    m = 3 + len(tags)
    n = len(consts)
    if n < m:
        raise InsufficientGeometry(f"{n} visible satellites for {m} states")
    G = np.zeros(np.shape(u)[:-1] + (m,))
    G[..., :3] = u
    G[..., np.arange(n), [3 + tags.index(c) for c in consts]] = 1.0
    return G
