"""Jackknife-based advanced RAIM for multi-constellation GNSS with
non-Gaussian nominal error bounds."""

from .distkit import (Gaussian, GridDistribution, Pgo, convolve_batch,
                      convolve_rows)
from .errors import (EmConvergenceFailure, EmptySample, InsufficientGeometry,
                     InsufficientRedundancy, JkAraimError,
                     KeplerNonConvergence, NonGaussianBound,
                     NoValidPartition, SubsetRankDeficient, UnknownSatellite)
from .integrity import (DetectorTable, IntegrityBudget, baseline_araim_pl,
                        protection_levels)
from .jackknife import run_detector, separation_table, thresholds
from .model_core import (AXIS_EAST, AXIS_NORTH, AXIS_UP, LinearModel,
                         SolutionStack, ecef_to_geodetic, geodetic_to_ecef)
from .overbound import (OverboundReport, SatelliteBound, build_pgo,
                        default_partition_point, default_table, fit_bgmm,
                        fit_gaussian_overbound, verify_overbound)
from .sim import (AlmanacEntry, EpochRecord, EpochSetup, ScenarioConfig,
                  Truth, aggregate, cnmp_sigma, default_almanac, draw_errors,
                  epoch_setup, evaluate_epoch, parse_yuma,
                  propagate, read_records_csv, record_keys, run_scenario,
                  stanford_class, summary_json, threat_model, tropo_sigma,
                  write_records_csv, write_yuma)
from .threat import FaultMode, ThreatModel, determine_kmax, enumerate_modes

__version__ = "0.1.0"

__all__ = [
    "AXIS_EAST", "AXIS_NORTH", "AXIS_UP",
    "AlmanacEntry", "DetectorTable", "EmConvergenceFailure", "EmptySample",
    "EpochRecord", "EpochSetup", "FaultMode", "Gaussian", "GridDistribution",
    "InsufficientGeometry", "InsufficientRedundancy", "IntegrityBudget",
    "JkAraimError", "KeplerNonConvergence", "LinearModel",
    "NonGaussianBound", "NoValidPartition", "OverboundReport", "Pgo",
    "SatelliteBound",
    "ScenarioConfig", "SolutionStack", "SubsetRankDeficient", "ThreatModel",
    "Truth", "UnknownSatellite",
    "aggregate", "baseline_araim_pl",
    "build_pgo", "cnmp_sigma",
    "convolve_batch", "convolve_rows",
    "default_almanac", "draw_errors",
    "default_partition_point", "default_table", "determine_kmax",
    "ecef_to_geodetic", "enumerate_modes",
    "epoch_setup", "evaluate_epoch", "fit_bgmm",
    "fit_gaussian_overbound",
    "geodetic_to_ecef", "parse_yuma",
    "propagate", "protection_levels", "read_records_csv", "record_keys",
    "run_detector", "run_scenario", "separation_table", "stanford_class",
    "summary_json", "threat_model", "thresholds",
    "tropo_sigma", "verify_overbound", "write_records_csv", "write_yuma",
]
