"""Jackknife-based advanced RAIM for multi-constellation GNSS with
non-Gaussian nominal error bounds."""

from .distkit import (Bgmm, Gaussian, GridDistribution, PairedBound, Pgo,
                      convolve_batch, convolve_rows, scaled_convolve)
from .errors import (EmConvergenceFailure, EmptySample, InsufficientGeometry,
                     InsufficientRedundancy, JkAraimError,
                     KeplerNonConvergence, NoValidPartition,
                     SubsetRankDeficient, UnknownSatellite)
from .integrity import (IntegrityBudget, PlResult, baseline_araim_pl,
                        constellation_ss, hmi_risk_eval, pl_solve)
from .jackknife import (JkStatistics, combined_stat, residual, run_detector,
                        stat_coeffs, stat_distributions, thresholds)
from .model_core import (AXIS_EAST, AXIS_NORTH, AXIS_UP, LinearModel,
                         SolutionOps, assemble_geometry, bias_projection,
                         ecef_to_geodetic, elevation_azimuth,
                         geodetic_to_ecef, q_vector)
from .overbound import (OverboundReport, SatelliteBound, SatelliteBoundTable,
                        build_pgo, default_partition_point,
                        default_table, fit_bgmm, fit_gaussian_overbound,
                        verify_overbound)
from .sim import (AlmanacEntry, EpochRecord, SatErrorModel, ScenarioConfig,
                  aggregate, cnmp_sigma, default_almanac, error_model,
                  error_models, evaluate_epoch, parse_yuma, propagate,
                  read_records_csv, run_scenario, stanford_class,
                  summary_json, tropo_sigma, write_records_csv, write_yuma)
from .threat import FaultMode, ThreatModel, determine_kmax, enumerate_modes

__version__ = "0.1.0"

__all__ = [
    "AXIS_EAST", "AXIS_NORTH", "AXIS_UP",
    "AlmanacEntry", "Bgmm", "EmConvergenceFailure", "EmptySample",
    "EpochRecord", "FaultMode", "Gaussian", "GridDistribution",
    "InsufficientGeometry", "InsufficientRedundancy", "IntegrityBudget",
    "JkAraimError", "JkStatistics", "KeplerNonConvergence", "LinearModel",
    "NoValidPartition", "OverboundReport", "PairedBound", "Pgo", "PlResult",
    "SatErrorModel", "SatelliteBound", "SatelliteBoundTable",
    "ScenarioConfig", "SolutionOps", "SubsetRankDeficient", "ThreatModel",
    "UnknownSatellite",
    "aggregate", "assemble_geometry", "baseline_araim_pl",
    "bias_projection", "build_pgo", "cnmp_sigma", "combined_stat",
    "constellation_ss", "convolve_batch", "convolve_rows",
    "default_almanac",
    "default_partition_point", "default_table", "determine_kmax",
    "ecef_to_geodetic", "elevation_azimuth", "enumerate_modes",
    "error_model", "error_models", "evaluate_epoch", "fit_bgmm",
    "fit_gaussian_overbound",
    "geodetic_to_ecef", "hmi_risk_eval", "parse_yuma",
    "pl_solve", "propagate", "q_vector", "read_records_csv", "residual",
    "run_detector", "run_scenario", "scaled_convolve", "stanford_class",
    "stat_coeffs", "stat_distributions", "summary_json", "thresholds",
    "tropo_sigma", "verify_overbound", "write_records_csv", "write_yuma",
]
