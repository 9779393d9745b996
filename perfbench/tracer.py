"""Outside-in tracing of the jkaraim layers.

Timing wrappers are installed from here on the names where the callers look
them up, so no file of the library changes. `sim` imports `SolutionOps`,
`pl_solve`, `baseline_araim_pl` and `constellation_ss` by name, `integrity`
imports `q_vector` by name; those bindings are wrapped as well as the
defining modules. Everything else is resolved through module globals and is
wrapped in place.

Each span is (name, start, end, parent span index, record id); the record
id is -1 outside `sim.evaluate_epoch`. Spans stay in memory; `write_spans`
puts them in a file at the end of the run.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

# (module, attribute, span name). A span name appears more than once when
# one function is bound under several names.
TARGETS = [
    ("sim", "run_scenario", "sim.run_scenario"),
    ("sim", "evaluate_epoch", "sim.evaluate_epoch"),
    ("sim", "propagate", "sim.propagate"),
    ("sim", "error_model", "sim.error_model"),
    ("sim", "write_records_csv", "sim.write_records_csv"),
    ("sim", "summary_json", "sim.summary_json"),
    ("model_core", "elevation_azimuth", "model_core.elevation_azimuth"),
    ("model_core", "assemble_geometry", "model_core.assemble_geometry"),
    ("model_core", "subset_ops", "model_core.subset_ops"),
    ("sim", "SolutionOps", "model_core.SolutionOps"),
    ("integrity", "SolutionOps", "model_core.SolutionOps"),
    ("jackknife", "SolutionOps", "model_core.SolutionOps"),
    ("integrity", "q_vector", "model_core.q_vector"),
    ("threat", "determine_kmax", "threat.determine_kmax"),
    ("threat", "enumerate_modes", "threat.enumerate_modes"),
    ("overbound", "build_pgo", "overbound.build_pgo"),
    ("distkit", "convolve_batch", "distkit.convolve_batch"),
    ("distkit", "scaled_convolve", "distkit.scaled_convolve"),
    ("jackknife", "stat_distributions", "jackknife.stat_distributions"),
    ("jackknife", "thresholds", "jackknife.thresholds"),
    ("jackknife", "run_detector", "jackknife.run_detector"),
    ("sim", "pl_solve", "integrity.pl_solve"),
    ("integrity", "pl_solve", "integrity.pl_solve"),
    ("sim", "baseline_araim_pl", "integrity.baseline_araim_pl"),
    ("integrity", "baseline_araim_pl", "integrity.baseline_araim_pl"),
    ("sim", "constellation_ss", "integrity.constellation_ss"),
    ("integrity", "constellation_ss", "integrity.constellation_ss"),
]

# A new record starts whenever this span opens.
RECORD_SPAN = "sim.evaluate_epoch"


class Tracer:
    """Spans, call counts and raised exceptions of the wrapped functions.

    `hooks` maps a span name to a callable (args, kwargs, result) run after
    each successful call; the benchmark uses it to count work and to
    capture kernel inputs.
    """

    def __init__(self, hooks=None):
        self.spans = []
        self.raised = Counter()         # (span name, exception type) -> n
        self.hooks = hooks or {}
        self.records = 0
        self._record = -1               # id of the open record, if any
        self._stack = []
        self._installed = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        hook = self.hooks.get(name)
        new_record = name == RECORD_SPAN

        def traced(*args, **kwargs):
            if new_record:
                self._record = self.records
                self.records += 1
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self._record]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                if new_record:
                    self._record = -1
            if hook is not None:
                hook(args, kwargs, out)
            return out

        return traced

    def install(self, modules):
        """Wrap every target; `modules` maps short names to modules.

        Returns the targets the library no longer has; their metrics read
        zero.
        """
        missing = []
        for mod_name, attr, span_name in TARGETS:
            mod = modules[mod_name]
            original = getattr(mod, attr, None)
            if original is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            self._installed.append((mod, attr, original))
            setattr(mod, attr, self.wrap(span_name, original))
        return missing

    def uninstall(self):
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def totals(self):
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is the span's duration minus the durations of its
        children; spans nest, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, self_s = Counter(), Counter(), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += end - start - child[i]
        return calls, incl, self_s

    def top_level_seconds(self):
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent < 0)

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,record\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for name, start, end, parent, rec in self.spans:
                fh.write(f"{name},{start - t0:.9f},{end - t0:.9f},"
                         f"{parent},{rec}\n")
