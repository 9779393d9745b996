"""Work counters and frozen-input kernel timings.

`Capture` supplies the tracer hooks. They count work that the spans alone
do not show (fault modes, convolution rows, grid convolutions and their
FFTs, unavailable PLs) and keep the inputs of three hot kernels, taken from
the largest geometry the workload produced. `replay` then times those
kernels in isolation on the frozen inputs, after the tracer is removed.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from time import perf_counter

import numpy as np

KERNEL_ROWS = 20          # convolve_batch replay: 20 coefficient rows
MIN_REPLAY_S = 0.2
MIN_REPEATS = 5


def fft_count(coeffs, out):
    """FFTs a convolve_batch call runs: one forward transform per nonzero
    row x component coefficient plus one inverse per row, each of length
    2 * n_points. Zero when every component was Gaussian and the call
    short-circuited. Computed from the inputs, not measured."""
    if not out or not hasattr(out[0], "pdf_grid"):
        return 0
    C = np.asarray(coeffs)
    return int(np.count_nonzero(C)) + C.shape[0]


class Capture:
    """Tracer hooks: work counters plus the kernel inputs to replay."""

    def __init__(self):
        self.counts = Counter()
        self.convolve = None      # (coeffs, dists, kwargs)
        self.geometry = None      # (model, threat model)
        self.pl = None            # (args, kwargs)
        self._model = None

    def hooks(self):
        return {
            "model_core.SolutionOps": self._solution_ops,
            "threat.enumerate_modes": self._enumerate_modes,
            "distkit.convolve_batch": self._convolve_batch,
            "integrity.pl_solve": self._pl_solve,
        }

    def _solution_ops(self, args, kwargs, out):
        self._model = out.model

    def _enumerate_modes(self, args, kwargs, tm):
        self.counts["threat.modes"] += len(tm.modes)
        model = self._model
        if model is None:
            return
        best = self.geometry
        if best is None or (model.n, len(tm.modes)) > (best[0].n,
                                                       len(best[1].modes)):
            self.geometry = (model, tm)

    def _convolve_batch(self, args, kwargs, out):
        C = np.asarray(args[0])
        ffts = fft_count(C, out)
        self.counts["distkit.convolve_batch.rows"] += C.shape[0]
        self.counts["distkit.convolve_batch.grid_calls"] += ffts > 0
        self.counts["distkit.convolve_batch.ffts"] += ffts
        best = self.convolve
        if best is None or C.shape[::-1] > np.shape(best[0])[::-1]:
            self.convolve = (C.copy(), list(args[1]), dict(kwargs))

    def _pl_solve(self, args, kwargs, out):
        self.counts["integrity.pl_solve.calls"] += 1
        pl = out[0] if isinstance(out, tuple) else out
        self.counts["integrity.pl_solve.unavailable"] += not math.isfinite(pl)
        if self.pl is None or args[0].n > self.pl[0][0].n:
            self.pl = (args, dict(kwargs))


def _time_call(fn):
    """Median seconds per call over at least MIN_REPEATS calls and
    MIN_REPLAY_S seconds."""
    times = []
    start = perf_counter()
    while len(times) < MIN_REPEATS or perf_counter() - start < MIN_REPLAY_S:
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def replay(capture, distkit, model_core, integrity, errors):
    """Time the captured kernels on their frozen inputs.

    Returns (metrics, notes): milliseconds per call, zero for a kernel the
    workload never called, and a description of each replayed input.
    """
    metrics = {"distkit.convolve_batch.kernel_ms": 0.0,
               "distkit.convolve_batch.kernel_ffts": 0,
               "model_core.subset_ops.kernel_ms": 0.0,
               "integrity.pl_solve.kernel_ms": 0.0}
    notes = {}
    if capture.convolve is not None:
        C, dists, kwargs = capture.convolve
        C = np.resize(C, (KERNEL_ROWS, C.shape[1]))
        out = distkit.convolve_batch(C, dists, **kwargs)
        metrics["distkit.convolve_batch.kernel_ms"] = 1e3 * _time_call(
            lambda: distkit.convolve_batch(C, dists, **kwargs))
        metrics["distkit.convolve_batch.kernel_ffts"] = fft_count(C, out)
        kinds = sorted({type(d).__name__ for d in dists})
        notes["convolve_batch"] = (f"{C.shape[0]} rows x {C.shape[1]} "
                                   f"components ({', '.join(kinds)}), "
                                   f"kwargs {kwargs}; FFT count computed "
                                   "from the coefficients, not measured")
    if capture.geometry is not None:
        model, tm = capture.geometry

        def all_subsets():
            for mode in tm.modes:
                try:
                    model_core.subset_ops(model, mode.excluded)
                except errors.SubsetRankDeficient:
                    pass

        metrics["model_core.subset_ops.kernel_ms"] = 1e3 * _time_call(
            all_subsets)
        notes["subset_ops"] = (f"all {len(tm.modes)} modes of a "
                               f"{model.n}-satellite geometry")
    if capture.pl is not None:
        args, kwargs = capture.pl
        metrics["integrity.pl_solve.kernel_ms"] = 1e3 * _time_call(
            lambda: integrity.pl_solve(*args, **kwargs))
        notes["pl_solve"] = (f"{args[0].n}-satellite geometry, "
                             f"{args[1].n_fault_modes} fault modes, "
                             "subset cache warm as in the workload")
    return metrics, notes
