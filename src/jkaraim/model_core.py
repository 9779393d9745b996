"""Linearized measurement model and solution operators.

State ordering is (east, north, up, clock_1, ..., clock_C); position axes
are addressed with 0-based indices 0=east, 1=north, 2=up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientGeometry, SubsetRankDeficient

AXIS_EAST, AXIS_NORTH, AXIS_UP = 0, 1, 2

# Relative singular-value cutoff for rank decisions of the SVD solves (the
# full set, whole-constellation subsets): a 1e-16 relative test on the
# normal matrix G'WG, i.e. working precision.
RANK_RTOL = 1e-8

# Rank rule of the satellite-subset downdate (see SolutionOps), its
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
    is reported by the solve (_solution_matrix raises InsufficientGeometry),
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


def _solution_matrix(G, w, err=InsufficientGeometry):
    """(G'WG)^-1 G'W via a rank-revealing decomposition of sqrt(W)G.

    Raises err when sqrt(W)G is rank deficient by the RANK_RTOL rule.

    One Newton step S <- S - (S G - I) S then makes S a left inverse of G
    to working precision (S G - I drops to its square), so that the
    residual operator I - G S annihilates G and the leave-out statistics
    of SolutionOps come out exact on exact data.
    """
    sw = np.sqrt(w)
    A = sw[:, None] * G
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if s[0] == 0 or s[-1] < RANK_RTOL * s[0]:
        raise err("weighted geometry is rank deficient")
    S = (Vt.T / s) @ (U.T * sw[None, :])
    return S - (S @ G - np.eye(G.shape[1])) @ S


def subset_ops(model: LinearModel, excluded):
    """(S_k, G S_k) of one fault mode by a direct weighted solve of the
    kept measurements, S_k zero in the excluded columns; the full set for
    an empty mode. Raises SubsetRankDeficient when fewer measurements than
    states remain or the kept geometry is rank deficient (the RANK_RTOL
    rule). The library reads its modes from SolutionOps.mode_rows; this
    is their independent reference."""
    keep = np.ones(model.n, dtype=bool)
    keep[list(excluded)] = False
    if keep.sum() < model.m:
        raise SubsetRankDeficient("too few measurements remain")
    Sk = np.zeros((model.m, model.n))
    Sk[:, keep] = _solution_matrix(model.G[keep], model.W[keep],
                                   err=SubsetRankDeficient)
    return Sk, model.G @ Sk


class SolutionOps:
    """Full-set solution S = (G'WG)^-1 G'W, its residual operator
    R = I - G S, and every satellite-subset operator derived from the two.

    Excluding the measurements I leaves the subset solution

        S_k = S - S[:, I] R[I, I]^-1 R[I, :]

    (the leave-out downdate of S; for one measurement it is the PRESS
    identity of Allen 1974). The rows L = R[I, I]^-1 R[I, :] are the rows I
    of I - G S_k, so the jackknife residuals of the excluded measurements
    are t_I = L y = R[I, I]^-1 r_I with r = R y, and the full-set error
    splits as S eps = S_k eps + S[:, I] t_I. One SVD per epoch (for S)
    serves every mode; a mode costs row operations, plus an |I| x |I|
    solve when it excludes more than one measurement.

    Rank rule: scaled by the square roots of the weights, R[I, I] becomes
    the symmetric I - H[I, I] of the weighted hat matrix H; its smallest
    eigenvalue is the least share of the full set's information (x'N_k x
    over x'N x, N = G'WG) that the subset keeps in any direction. A mode
    is rank deficient when that share is at most SUBSET_RTOL.
    """

    def __init__(self, model: LinearModel):
        self.model = model
        self.n = model.n      # measurement count
        self.S = _solution_matrix(model.G, model.W)
        self.R = np.eye(self.n) - model.G @ self.S

    def _leave_out(self, idx):
        """Leave-out rows for g modes of one size s, idx a (g, s) array of
        excluded indices. Returns (ok, L): ok flags the modes that are not
        rank deficient and L holds their rows R[I, I]^-1 R[I, :] as a
        (ok.sum(), s, n) array."""
        R = self.R
        if self.n - idx.shape[1] < self.model.m:
            # Too few measurements remain to observe every state.
            return (np.zeros(len(idx), dtype=bool),
                    np.zeros((0, idx.shape[1], self.n)))
        if idx.shape[1] == 1:
            i = idx[:, 0]
            d = R[i, i]
            ok = d > SUBSET_RTOL
            return ok, (R[i[ok]] / d[ok, None])[:, None, :]
        R_II = R[idx[:, :, None], idx[:, None, :]]
        sw = np.sqrt(self.model.W)[idx]
        sym = sw[:, :, None] * R_II / sw[:, None, :]
        sym = 0.5 * (sym + sym.transpose(0, 2, 1))
        ok = np.linalg.eigvalsh(sym)[:, 0] > SUBSET_RTOL
        return ok, np.linalg.solve(R_II[ok], R[idx[ok]])

    def reduced(self, excluded):
        """S_k (m x n, zero in the excluded columns) of the solve without
        the excluded measurements and without the clock states only they
        observe, such as an excluded constellation's clock. Raises
        SubsetRankDeficient when the kept geometry cannot support a
        solution."""
        keep = np.ones(self.n, dtype=bool)
        keep[list(excluded)] = False
        if not keep.any():
            raise SubsetRankDeficient("no measurements remain")
        G = self.model.G
        live = [c for c in range(self.model.m)
                if c < 3 or np.any(G[keep, c] != 0.0)]
        Sk = np.zeros(G.shape[::-1])
        Sk[np.ix_(live, np.flatnonzero(keep))] = _solution_matrix(
            G[np.ix_(keep, live)], self.model.W[keep],
            err=SubsetRankDeficient)
        return Sk

    def mode_rows(self, excluded_sets, axis: int):
        """Per-mode rows for one position axis, over many non-empty
        excluded sets at once, vectorised per mode size.

        Returns (ok, Q, C): ok flags the modes that are not rank
        deficient; Q[k] is the axis row of S_k (the q vector of the error
        decomposition S_v eps = q . eps + sum_{j in I} S_vj t_j); C[k] holds
        the coefficients of the mode's test statistic, t_i = C[k] . eps for
        one excluded measurement i and sum_{j in I} S_vj t_j for more.
        Rows of rank-deficient modes are zero. A mode's rows do not depend
        on which modes are asked for together.
        """
        n = self.n
        ok = np.zeros(len(excluded_sets), dtype=bool)
        Q = np.zeros((len(excluded_sets), n))
        C = np.zeros((len(excluded_sets), n))
        s_ax = self.S[axis]
        by_size = {}
        for k, excluded in enumerate(excluded_sets):
            by_size.setdefault(len(excluded), []).append(k)
        for size, ks in by_size.items():
            idx = np.array([sorted(excluded_sets[k]) for k in ks], dtype=int)
            good, L = self._leave_out(idx)
            ks = np.array(ks)[good]
            idx = idx[good]
            if size == 1:
                C[ks] = L[:, 0]
                Q[ks] = s_ax - s_ax[idx] * L[:, 0]
            else:
                C[ks] = np.einsum("gs,gsn->gn", s_ax[idx], L)
                Q[ks] = s_ax - C[ks]
            Q[ks[:, None], idx] = 0.0
            ok[ks] = True
        return ok, Q, C


def geodetic_to_ecef(lat_deg, lon_deg, height=0.0):
    lat = np.radians(lat_deg)
    lon = np.radians(lon_deg)
    sl = np.sin(lat)
    N = WGS84_A / np.sqrt(1.0 - WGS84_E2 * sl ** 2)
    x = (N + height) * np.cos(lat) * np.cos(lon)
    y = (N + height) * np.cos(lat) * np.sin(lon)
    z = (N * (1.0 - WGS84_E2) + height) * sl
    return np.array([x, y, z])


def ecef_to_geodetic(pos):
    x, y, z = pos
    lon = np.arctan2(y, x)
    p = np.hypot(x, y)
    lat = np.arctan2(z, p * (1.0 - WGS84_E2))
    for _ in range(6):
        sl = np.sin(lat)
        N = WGS84_A / np.sqrt(1.0 - WGS84_E2 * sl ** 2)
        h = p / np.cos(lat) - N
        lat = np.arctan2(z, p * (1.0 - WGS84_E2 * N / (N + h)))
    return np.degrees(lat), np.degrees(lon), h


def enu_rotation(lat_deg, lon_deg):
    """Rows transform an ECEF delta into (east, north, up)."""
    lat = np.radians(lat_deg)
    lon = np.radians(lon_deg)
    sl, cl = np.sin(lat), np.cos(lat)
    so, co = np.sin(lon), np.cos(lon)
    return np.array([
        [-so, co, 0.0],
        [-sl * co, -sl * so, cl],
        [cl * co, cl * so, sl],
    ])


def line_of_sight(user_ecef, sat_ecef):
    """Unit ENU line-of-sight rows (n x 3) and elevations (degrees) of n
    satellites seen from one user.

    The user's geodetic position and ENU rotation are computed once for
    all satellites. The per-satellite products are stacked matmuls, which
    round exactly like a one-satellite R @ d and its norm.
    """
    user = np.asarray(user_ecef, dtype=float)
    lat, lon, _ = ecef_to_geodetic(user)
    R = enu_rotation(lat, lon)
    d = np.asarray(sat_ecef, dtype=float).reshape(-1, 3) - user
    los = np.matmul(R, d[:, :, None])[:, :, 0]
    rng = np.sqrt(np.matmul(los[:, None, :], los[:, :, None])[:, 0, 0])
    u = los / rng[:, None]
    return u, np.degrees(np.arcsin(u[:, 2]))


def model_from_los(u, consts, sat_ids, weights=None):
    """Linear model from unit line-of-sight rows and their constellation
    tags: the state dimension is 3 + number of distinct constellations, in
    order of first appearance."""
    tags = []
    for c in consts:
        if c not in tags:
            tags.append(c)
    m = 3 + len(tags)
    n = len(consts)
    if n < m:
        raise InsufficientGeometry(f"{n} visible satellites for {m} states")
    G = np.zeros((n, m))
    G[:, :3] = u
    G[np.arange(n), [3 + tags.index(c) for c in consts]] = 1.0
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    return LinearModel(G, w, list(sat_ids), list(consts))
