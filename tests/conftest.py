from dataclasses import dataclass

import numpy as np
import pytest

from jkaraim.distkit import ErrorDistribution, Gaussian, GaussianBatch
from jkaraim.model_core import LinearModel, SolutionStack


@dataclass(frozen=True)
class GridGaussian(ErrorDistribution):
    """A Gaussian that is not a distkit.Gaussian, so convolve_batch takes
    it through the grid engine rather than the closed form: it samples it
    through Gaussian's own density, reach and variance, the arithmetic a
    PGO bound's Gaussian pieces go through."""

    sigma: float
    pdf = Gaussian.pdf
    cdf = Gaussian.cdf
    variance = Gaussian.variance
    dominant_sigma = Gaussian.dominant_sigma
    quantile = Gaussian.quantile


def random_geometry(rng, n=None, m=None, min_elev=5.0):
    """Random full-rank ENU geometry with unit clock columns.

    m = 4 gives one constellation, m = 5 two constellations.
    """
    if n is None:
        n = int(rng.integers(6, 15))
    if m is None:
        m = int(rng.integers(4, 6))
    n_const = m - 3
    while True:
        el = np.radians(rng.uniform(min_elev, 90.0, n))
        az = rng.uniform(0.0, 2 * np.pi, n)
        los = np.column_stack([np.cos(el) * np.sin(az),
                               np.cos(el) * np.cos(az),
                               np.sin(el)])
        tags = rng.integers(0, n_const, n)
        tags[:n_const] = np.arange(n_const)   # every clock observed
        G = np.zeros((n, m))
        G[:, :3] = los
        G[np.arange(n), 3 + tags] = 1.0
        if np.linalg.matrix_rank(G) == m:
            break
    w = rng.uniform(0.5, 4.0, n)
    consts = [f"C{t}" for t in tags]
    return LinearModel(G, w, [f"s{i}" for i in range(n)], consts)


def stack_of_one(model):
    """The geometry of a LinearModel as the library takes a record's: a
    SolutionStack of one."""
    return SolutionStack(model.G[None], model.W[None])


def record_model(ops):
    """The LinearModel of the one record of the SolutionStack ops, for the
    direct subset solves of model_core.subset_ops: satellite i is "s{i}",
    labelled by its clock column."""
    G = ops.G[0]
    clock = (G[:, 3:].argmax(axis=1) if G.shape[1] > 3
             else np.zeros(len(G), dtype=int))
    return LinearModel(G, ops.W[0], [f"s{i}" for i in range(len(G))],
                       [f"C{c}" for c in clock.tolist()])


def record_bounds(acc):
    """The list of bounds of the one record of the stacked bounds acc: a
    Gaussian per sigma of a GaussianBatch, or the record's list of grid
    bounds."""
    if isinstance(acc, GaussianBatch):
        return [Gaussian(s) for s in acc.sigma[0].tolist()]
    [bounds] = acc
    return bounds


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240824)


def gps_epoch_case(lat, lon, t, flavor="gaussian", budget=None,
                   constellations=("GPS",)):
    """Geometry (a SolutionStack of one record), truth, stacked accuracy
    bounds, threat model and budget for one almanac epoch, set up as a
    scenario epoch is (sim.epoch_setup).

    Returns None when too few satellites are visible.
    """
    from jkaraim import sim
    from jkaraim.errors import InsufficientGeometry
    from jkaraim.integrity import IntegrityBudget
    from jkaraim.model_core import geodetic_to_ecef
    from jkaraim.overbound import default_table

    if budget is None:
        budget = IntegrityBudget(
            p_const=0.0 if len(constellations) == 1 else 1e-4)
    sats = sim.healthy_satellites(sim.default_almanac(constellations),
                                  constellations)
    try:
        setup = sim.epoch_setup(
            geodetic_to_ecef(lat, lon), [a.svn for a in sats],
            [a.constellation for a in sats],
            sim.satellite_positions(sats, t), default_table(), budget,
            flavor=flavor)
    except InsufficientGeometry:
        return None
    return setup.ops, setup.truth, setup.acc_bounds, setup.tm, budget
