"""Fault-mode enumeration with priors, k_max and unmonitored-fault mass."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from scipy.special import betainc

from .errors import InsufficientRedundancy


@dataclass(frozen=True)
class FaultMode:
    id: int
    kind: str                      # "sat_subset" | "constellation"
    excluded: frozenset
    prior: float

    def __post_init__(self):
        if self.kind not in ("sat_subset", "constellation"):
            raise ValueError(f"unknown fault-mode kind {self.kind!r}")
        if not self.excluded:
            raise ValueError("excluded set must be non-empty")
        if not (0.0 < self.prior < 1.0):
            raise ValueError("prior must lie in (0, 1)")


@dataclass
class ThreatModel:
    modes: list
    p_h0: float
    p_not_monitored: float
    k_max: int

    @property
    def n_fault_modes(self) -> int:
        return len(self.modes)

    def sat_modes(self):
        return [m for m in self.modes if m.kind == "sat_subset"]

    def constellation_modes(self):
        return [m for m in self.modes if m.kind == "constellation"]


@lru_cache(maxsize=4096)
def _binom_tail(n, p, k):
    """P(more than k of n independent events); memoised, as a scenario
    asks for the same few (n, p, k) at every record.

    The binomial survival function as the regularised incomplete beta
    I_p(k + 1, n - k), the identity scipy.stats.binom.sf evaluates through
    the same Boost routine, without importing scipy.stats (over half of
    the package's import time)."""
    if p <= 0.0 or k >= n:
        return 0.0
    return float(betainc(k + 1, n - k, p))


@lru_cache(maxsize=4096)
def determine_kmax(n, p_sat, p_thres) -> int:
    """Smallest k_max (at least 1) whose probability of more than k_max
    simultaneous faults among the n satellites is at most p_thres.

    It depends on the satellite count only, not on how the satellites
    split into constellations, and is memoised on it; the unmonitored mass
    at that k_max is enumerate_modes'.
    """
    k_max = 1
    while k_max < n and _binom_tail(n, p_sat, k_max) > p_thres:
        k_max += 1
    return k_max


def enumerate_modes(n, k_max, const_partition, p_sat, p_const, m=None):
    """All satellite-subset modes of size 1..k_max plus (for two or more
    constellations) one whole-constellation mode each.

    const_partition maps constellation tag -> iterable of row indices.
    Single-fault modes come first in index order, then larger subsets in
    lexicographic order, then constellation modes. m overrides the default
    3-position-plus-clocks state count for reduced-state toy models.
    """
    const_partition = {k: sorted(v) for k, v in const_partition.items()}
    n_const = len(const_partition)
    m_min = 3 + n_const if m is None else m
    if k_max > n - m_min:
        raise InsufficientRedundancy(
            f"k_max={k_max} exceeds redundancy n-m={n - m_min}")

    modes = []
    mode_id = 1
    no_const_fault = (1.0 - p_const) ** n_const
    for size in range(1, k_max + 1):
        for idx in combinations(range(n), size):
            prior = (p_sat ** size * (1.0 - p_sat) ** (n - size)
                     * no_const_fault)
            modes.append(FaultMode(mode_id, "sat_subset", frozenset(idx),
                                   prior))
            mode_id += 1
    if n_const >= 2:
        no_sat_fault = (1.0 - p_sat) ** n
        for tag in const_partition:
            prior = (p_const * (1.0 - p_const) ** (n_const - 1)
                     * no_sat_fault)
            modes.append(FaultMode(mode_id, "constellation",
                                   frozenset(const_partition[tag]), prior))
            mode_id += 1

    p_h0 = (1.0 - p_sat) ** n * (1.0 - p_const) ** n_const
    # Unmonitored: more than k_max satellite faults, plus the constellation
    # faults no mode covers (a lone constellation's own fault; with two or
    # more, only simultaneous ones, as each single one is a mode).
    p_nm = _binom_tail(n, p_sat, k_max) + (
        p_const * n_const if n_const <= 1
        else _binom_tail(n_const, p_const, 1))
    return ThreatModel(modes, p_h0, p_nm, k_max)
