"""Record-throughput benchmark for jkaraim.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gps_jk --seed 0 --seconds 20 --trace 0

One unit of work is a scenario record (one user at one epoch). A workload
is a closed loop with one caller: it runs the calls `jkaraim sim` makes
(`sim.run_scenario`, then `sim.write_records_csv` and `sim.summary_json`)
over a pass of worldwide one-epoch snapshots, and repeats passes until
`--seconds` have gone by. The seed sets each snapshot's scenario seed (the
synthetic error draws) and a time shift of the shipped almanacs, so
another seed changes geometry as well as noise.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json from untraced
runs. `--trace 1` alternates untraced and traced runs of each snapshot and
reports the per-layer metrics (see tracer.py and kernels.py). Every run
checks its records; the last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import dataclasses
import gzip
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"

# Pin the BLAS/OpenMP pools to one thread unless the caller set them: the
# loop is single-process and the matrices are a few rows wide.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

DAY_S = 86400.0
SETUP_SAMPLES = 7
# Stored reference VPLs are compared with this absolute tolerance (m):
# the PL bisections stop once their bracket is narrower than 1e-3 m.
VPL_TOLERANCE_M = 2e-3
MISLEADING = ("MI", "HMI", "SU&MI")
# Reserved for confirming a claimed gain on a seed not used while the
# change was written; do not tune against it.
HELD_OUT_SEED = 7919
# The sharpness probe replays snapshots of this seed's pass, whatever the
# run's seed, and compares their VPLs with the stored references.
PROBE_SEED = 0
# Reference seconds (see Calibration and Clock): the CPU time of the two
# parts of the calibration unit on the host the benchmark was written on
# (Intel Xeon, 2.1 GHz, 2 vCPUs), the shortest segment between
# calibrations, and the share of a segment's time spent calibrating after
# it.
CAL_REF_S = 1.0e-3
CAL_GRID_REF_S = 1.5e-3
SEGMENT_S = 0.02
CAL_SHARE = 0.1
# Calibration units timed around each set-up process: about 0.2 s, as
# fewer units (50) left the scaled set-up time as noisy as the wall time.
CAL_UNITS_SETUP = 200


@dataclasses.dataclass(frozen=True)
class Workload:
    constellations: tuple
    flavor: str
    algorithm: str
    grid_step_deg: float
    snapshots: int          # one-epoch worldwide snapshots per pass
    grid_calibration: bool  # calibrate with distkit-like grid work too
    probe_snapshots: int    # snapshots of PROBE_SEED's pass in the probe


WORKLOADS = {
    "gps_jk": Workload(("GPS",), "gaussian", "jk", 30.0, 24, False, 4),
    "gps_baseline": Workload(("GPS",), "gaussian", "baseline", 30.0, 24,
                             False, 4),
    "dual_pgo": Workload(("GPS", "GAL"), "pgo", "jk", 60.0, 8, True, 2),
}

SETUP_CODE = """
import sys, time
t0, c0 = time.perf_counter(), time.process_time()
import jkaraim
from jkaraim import overbound, sim
sim.default_almanac(tuple(sys.argv[1:]))
overbound.default_table()
print(time.perf_counter() - t0, time.process_time() - c0)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_library():
    """Import jkaraim from this checkout's src/, never from elsewhere."""
    if not (SRC / "jkaraim" / "__init__.py").is_file():
        raise SystemExit(f"error: no jkaraim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import jkaraim
    if Path(jkaraim.__file__).resolve().parent != SRC / "jkaraim":
        raise SystemExit(f"error: imported jkaraim from {jkaraim.__file__}")
    from jkaraim import (distkit, errors, integrity, jackknife, model_core,
                         overbound, sim, threat)
    return dict(distkit=distkit, errors=errors, integrity=integrity,
                jackknife=jackknife, model_core=model_core,
                overbound=overbound, sim=sim, threat=threat)


def measure_setup(constellations, calibration):
    """Set-up time of SETUP_SAMPLES fresh processes, from before `import
    jkaraim` until the almanac and bound table are loaded.

    Returns (wall seconds, reference seconds) per process. The reference
    time is the process's CPU time scaled like a `Clock` segment, by the
    host slowness measured here just before and after it. This process has
    already imported the same files, so the byte-code cache is written and
    the files are in the page cache.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    wall, scaled = [], []
    slowness = calibration.measure(CAL_UNITS_SETUP)
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, *constellations], cwd=ROOT,
            env=env, capture_output=True, text=True, timeout=120, check=True)
        wall_s, cpu_s = map(float, out.stdout.split()[-2:])
        after = calibration.measure(CAL_UNITS_SETUP)
        wall.append(wall_s)
        scaled.append(cpu_s * 2.0 / (slowness + after))
        slowness = after
    return wall, scaled


def shifted_almanac(sim, almanac, dt):
    """The almanac as seen dt seconds later: exact for the propagation in
    `sim.propagate`, which reads only mean anomaly and node angle."""
    out = []
    for a in almanac:
        n = math.sqrt(sim.GM_EARTH / a.sqrt_a ** 6)
        out.append(dataclasses.replace(
            a, m0=a.m0 + n * dt,
            omega0=a.omega0 + (a.omega_dot - sim.OMEGA_EARTH) * dt))
    return out


def snapshots(lib, workload, seed):
    """The pass for one seed: (config, almanac) per snapshot.

    The day is cut into `workload.snapshots` equal intervals and each
    snapshot takes a seeded time inside its own interval. Independent
    offsets sample the day's geometry far more evenly across seeds than one
    shared offset, which moves the whole user-by-time lattice at once. Each
    snapshot has its own scenario seed, so every snapshot draws fresh
    errors.
    """
    import numpy as np
    sim = lib["sim"]
    base = sim.default_almanac(workload.constellations)
    span = DAY_S / workload.snapshots
    offsets = np.random.default_rng(seed).uniform(0.0, span,
                                                  workload.snapshots)
    out = []
    for k in range(workload.snapshots):
        config = sim.ScenarioConfig(
            grid_step_deg=workload.grid_step_deg, epoch_step_s=span,
            duration_s=span, constellations=workload.constellations,
            flavor=workload.flavor, algorithm=workload.algorithm,
            seed=seed * workload.snapshots + k)
        dt = k * span + float(offsets[k])
        out.append((config, shifted_almanac(sim, base, dt)))
    return out


def run_snapshot(sim, config, almanac, table, clock=None):
    """The `jkaraim sim` calls for one snapshot, timed together.

    Returns records, CSV text, summary and wall seconds; with a `Clock`,
    the seconds it measured outside its calibration (its `scaled` holds the
    same time in reference seconds).
    """
    t0 = perf_counter()
    records = sim.run_scenario(config, almanac=almanac, table=table,
                               progress=clock and clock.lap)
    buf = io.StringIO()
    sim.write_records_csv(records, buf)
    summary = sim.summary_json(records, config)
    elapsed = perf_counter() - t0
    if clock is not None:
        clock.lap()
        elapsed = clock.wall
    return records, buf.getvalue(), summary, elapsed


class Calibration:
    """A fixed unit of work that measures how slow the host is right now.

    The unit runs small SVDs, `ndtr` and pure-Python dict work, like the
    per-record overheads of the geometry workloads. With `grid` it also
    runs an FFT convolution and an interpolation on 4096-point grids, the
    work of distkit's grid path: on a workload made mostly of that work the
    interpreter part alone tracks the host's speed worse. It uses only
    numpy, scipy and the standard library, never jkaraim, so a change to
    the library moves the snapshot times alone.
    """

    def __init__(self, grid=False):
        import numpy as np
        from scipy.special import ndtr
        self._np = np
        self._ndtr = ndtr
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((10, 4))
        self._grid = rng.standard_normal(4096) if grid else None
        self._x = np.sort(rng.uniform(-5.0, 5.0, 4096))
        self.ref_s = CAL_REF_S + (CAL_GRID_REF_S if grid else 0.0)

    def _unit(self):
        np = self._np
        acc = 0.0
        for _ in range(30):
            _, s, _ = np.linalg.svd(self._a, full_matrices=False)
            acc += float(s[0]) + float(self._ndtr(self._a[0]).sum())
            bins = {}
            for j in range(60):
                bins[j % 7] = bins.get(j % 7, 0.0) + math.sin(0.1 * j)
            acc += sum(bins.values())
        g = self._grid
        if g is not None:
            for _ in range(3):
                acc += float(np.abs(np.fft.rfft(g, 8192)).sum())
                acc += float(np.interp(g, self._x, g).sum())
        return acc

    def measure(self, units):
        """Host slowness: CPU seconds per unit over `units` units, as a
        share of the unit's CPU time on the reference host."""
        t0 = process_time()
        for _ in range(units):
            self._unit()
        return (process_time() - t0) / units / self.ref_s


def cpu_seconds():
    """CPU time of this process, all its threads, and every child process
    it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def live_children():
    """Process ids of this process's children that are still running
    (Linux; empty where the kernel does not list them)."""
    pids = []
    for path in Path("/proc/self/task").glob("*/children"):
        try:
            pids += path.read_text().split()
        except OSError:
            pass
    return pids


class Clock:
    """Times one snapshot run in wall and in reference seconds.

    A shared host's speed swings by up to 1.7x within seconds, far more
    than the changes the benchmark has to resolve. `lap` is passed to
    `run_scenario` as its progress hook. It closes a segment of the run
    once SEGMENT_S of wall time has gone by, measures the host slowness,
    and adds the segment's CPU time divided by the mean slowness just
    before and after it: a reference second is a CPU second on a host that
    runs the calibration unit in its reference time. CPU time leaves out
    the time the host gives to other tenants; the calibration follows its
    changes in speed. It counts every thread and every child process the
    run has waited for (`cpu_seconds`), so work moved to a pool still
    counts. Calibration time is kept out of both sums.
    """

    def __init__(self, calibration):
        self.calibration = calibration
        self.wall = 0.0
        self.scaled = 0.0
        self._slowness = calibration.measure(2)
        self._t0 = perf_counter()
        self._c0 = cpu_seconds()

    def lap(self, done=0, total=0):
        segment = perf_counter() - self._t0
        if done < total and segment < SEGMENT_S:
            return
        cpu = cpu_seconds() - self._c0
        slowness = self.calibration.measure(
            max(2, round(CAL_SHARE * segment / self.calibration.ref_s)))
        self.wall += segment
        self.scaled += cpu * 2.0 / (self._slowness + slowness)
        self._slowness = slowness
        self._t0 = perf_counter()
        self._c0 = cpu_seconds()


def load_references(name):
    """Stored references of a workload, by seed."""
    path = REFERENCE / f"{name}.json.gz"
    if not path.is_file():
        raise SystemExit(f"error: no references at {path}")
    with gzip.open(path, "rt") as fh:
        return json.load(fh)["seeds"]


def csv_vpl(v):
    """A VPL as the records CSV holds it; None when not finite."""
    return float(f"{v:.6f}") if math.isfinite(v) else None


class Checks:
    """Correctness gate over every record of a pass."""

    def __init__(self, sim, reference, label="snapshot"):
        self.sim = sim
        self.reference = reference
        self.label = label
        self.records = 0
        self.failed = 0
        self.bad = 0
        self.misleading = 0
        self.alerts = 0
        self.available = 0
        self.vpls = []
        self.problems = []
        self.vpl_max_rel_change = 0.0
        self.vpl_below_reference = 0
        self.digest_matches_reference = 0
        # Sums over the records that have a reference.
        self.vpl_ratio_sum = 0.0   # now / was, both VPLs finite
        self.vpl_pairs = 0
        self.available_was = 0     # reference VPL finite and below VAL
        self.available_now = 0     # VPL finite and below VAL

    def add(self, k, config, records, csv_text, summary):
        sim = self.sim
        where = f"{self.label} {k}"
        expected = len(config.grid()) * len(config.epochs())
        if len(records) != expected:
            self.problems.append(f"{where}: {len(records)} records, "
                                 f"expected {expected}")
        counts = {c: n for c, n in
                  json.loads(summary)["stanford_counts"].items() if n}
        if counts != dict(Counter(r.stanford for r in records)):
            self.problems.append(f"{where}: summary Stanford counts "
                                 f"{counts} differ from the records")
        ref = None
        if self.reference is not None:
            ref = self.reference["vpl"][k]
            if hashlib.sha256(csv_text.encode()).hexdigest() == \
                    self.reference["sha256"][k]:
                self.digest_matches_reference += 1
            if len(ref) != len(records):
                self.problems.append(f"{where}: reference has "
                                     f"{len(ref)} records")
                ref = None
        for i, r in enumerate(records):
            bad = bool(r.error) or r.stanford not in sim.STANFORD_CLASSES
            finite = math.isfinite(r.vpl)
            if finite:
                self.vpls.append(r.vpl)
                self.available += r.vpl < config.val
            if ref is not None:
                now, was = csv_vpl(r.vpl), ref[i]
                was = math.inf if was is None else was
                now = math.inf if now is None else now
                if now < was - VPL_TOLERANCE_M:
                    self.vpl_below_reference += 1
                    bad = True
                if math.isfinite(now) and math.isfinite(was):
                    self.vpl_max_rel_change = max(self.vpl_max_rel_change,
                                                  abs(now - was) / was)
                    self.vpl_ratio_sum += now / was
                    self.vpl_pairs += 1
                self.available_was += was < config.val
                self.available_now += now < config.val
            mi = r.stanford in MISLEADING
            self.misleading += mi
            self.alerts += bool(r.alert)
            self.bad += bad
            self.failed += bad or mi
            self.records += 1

    def report(self, what):
        if self.reference is None:
            print(f"{what}: no reference stored for this seed")
            return
        print(f"{what}: {self.digest_matches_reference} snapshot digests "
              f"identical to the reference, {self.vpl_below_reference} VPLs "
              f"below it, largest relative VPL change "
              f"{self.vpl_max_rel_change:.3e}")


def sharpness_probe(lib, workload, references, table):
    """Run `workload.probe_snapshots` snapshots of PROBE_SEED's pass,
    evenly spaced over it, through the correctness gate against their
    stored references. The same records whatever the run's seed, so the
    VPL and availability ratios it gives are exact: 1 on the library the
    references came from, and moved by any change of the PLs."""
    sim = lib["sim"]
    passes = snapshots(lib, workload, PROBE_SEED)
    probe = Checks(sim, references[str(PROBE_SEED)], "probe snapshot")
    for k in range(0, len(passes), len(passes) // workload.probe_snapshots):
        config, almanac = passes[k]
        records, csv_text, summary, _ = run_snapshot(sim, config, almanac,
                                                     table)
        probe.add(k, config, records, csv_text, summary)
    return probe


def per_layer(tracer, capture, wall_traced):
    """Every per-layer metric the trace can give, per record unless the
    name says otherwise."""
    calls, incl, self_s = tracer.totals()
    n = max(tracer.records, 1)
    out = {}
    for name in set(calls):
        out[f"{name}.calls"] = calls[name] / n
        out[f"{name}.ms"] = 1e3 * incl[name] / n
        out[f"{name}.self_ms"] = 1e3 * self_s[name] / n
        out[f"{name}.raised"] = 0.0
    for (name, _), count in tracer.raised.items():
        out[f"{name}.raised"] += count / n
    counts = capture.counts
    for key in ("threat.modes", "distkit.convolve_batch.rows",
                "distkit.convolve_batch.grid_calls",
                "distkit.convolve_batch.ffts"):
        out[key] = counts[key] / n
    pl_calls = counts["integrity.pl_solve.calls"]
    out["integrity.pl_solve.unavailable_ratio"] = (
        counts["integrity.pl_solve.unavailable"] / pl_calls
        if pl_calls else 0.0)
    out["trace.coverage"] = tracer.top_level_seconds() / wall_traced
    return out


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def select(spec_metrics, values):
    """Metrics named in BENCHMARK.json, with their units; a name missing
    from `values` reads as zero (a layer the workload never calls)."""
    return {m["name"]: {"value": values.get(m["name"], 0.0),
                        "unit": m["unit"]} for m in spec_metrics}


def time_snapshots(args, lib, passes, table, checks, tracer, calibration):
    """Run passes of snapshots until `args.seconds` have gone by, at least
    one whole pass. Returns per snapshot the untraced wall times, the same
    times in reference seconds (with a calibration) and the traced times
    (trace 1)."""
    sim = lib["sim"]
    digests = [None] * len(passes)
    untraced = [[] for _ in passes]
    scaled = [[] for _ in passes]
    traced = [[] for _ in passes]
    problems = checks.problems
    missing = set()
    start = perf_counter()
    k = 0
    while k < len(passes) or perf_counter() - start < args.seconds:
        i = k % len(passes)
        config, almanac = passes[i]
        clock = calibration and Clock(calibration)
        records, csv_text, summary, elapsed = run_snapshot(
            sim, config, almanac, table, clock)
        untraced[i].append(elapsed)
        if clock:
            scaled[i].append(clock.scaled)
        digest = hashlib.sha256(csv_text.encode()).hexdigest()
        if digests[i] is None:
            digests[i] = digest
            checks.add(i, config, records, csv_text, summary)
        elif digest != digests[i]:
            problems.append(f"snapshot {i}: rerun digest differs")
        if args.trace:
            missing.update(tracer.install(lib))
            try:
                _, csv_traced, _, elapsed = run_snapshot(
                    sim, config, almanac, table)
            finally:
                tracer.uninstall()
            traced[i].append(elapsed)
            if hashlib.sha256(csv_traced.encode()).hexdigest() != digest:
                problems.append(f"snapshot {i}: traced digest differs")
        k += 1
    for name in sorted(missing):
        print(f"trace: {name} not in the library, not wrapped")
    run_digest = hashlib.sha256("".join(digests).encode()).hexdigest()
    print(f"records {checks.records} per pass, {k} snapshot runs, "
          f"pass digest sha256 {run_digest}")
    return untraced, scaled, traced


def pass_seconds(times):
    """Per snapshot the mean of its repeats, summed over the pass. The mean
    spreads less between runs than the median or the minimum: a host that
    slows for a while slows several repeats of a snapshot."""
    return sum(statistics.fmean(t) for t in times)


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    lib = import_library()
    spec = benchmark_spec()
    sim = lib["sim"]
    threads = {v: os.environ[v] for v in THREAD_VARS}
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}"
          f" trace {args.trace} {workload}")
    print(f"threads {threads} cpus {os.cpu_count()} "
          f"python {sys.version.split()[0]}")

    calibration = (None if args.trace
                   else Calibration(grid=workload.grid_calibration))
    # Set-up is interpreter work, so its calibration is never the grid one.
    setup_wall, setup = ((), ()) if args.trace else measure_setup(
        workload.constellations, Calibration())
    table = lib["overbound"].default_table()
    passes = snapshots(lib, workload, args.seed)
    references = load_references(args.workload)
    # The probe also warms up lazy imports and first calls, untimed.
    probe = sharpness_probe(lib, workload, references, table)

    from kernels import Capture, replay
    from tracer import Tracer
    capture = Capture()
    tracer = Tracer(capture.hooks())
    checks = Checks(sim, references.get(str(args.seed)))
    untraced, scaled, traced = time_snapshots(args, lib, passes, table,
                                              checks, tracer, calibration)
    children = live_children()
    if children:
        checks.problems.append(f"child processes {' '.join(children)} still "
                               f"running; their CPU time is not counted")
    checks.report("reference")
    probe.report(f"probe (seed {PROBE_SEED}, {probe.records} records)")
    for p in checks.problems + probe.problems:
        print(f"check failed: {p}")

    attempted = checks.records
    if args.trace:
        values = per_layer(tracer, capture, sum(map(sum, traced)))
        values["trace.overhead_ratio"] = (pass_seconds(traced)
                                          / pass_seconds(untraced))
        kernel_values, notes = replay(capture, lib["distkit"],
                                      lib["model_core"], lib["integrity"],
                                      lib["errors"])
        values.update(kernel_values)
        for kernel, note in notes.items():
            print(f"kernel {kernel}: {note}")
        for (name, exc), count in sorted(tracer.raised.items()):
            print(f"raised in {name}: {count} {exc}")
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"{args.workload}.spans.csv")
        metrics = select(spec["per_layer"], values)
    else:
        values = {
            "records_per_ref_s": attempted / pass_seconds(scaled),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_record_ratio": 1.0 - checks.bad / attempted,
            "safe_record_ratio": 1.0 - checks.misleading / attempted,
            "availability": checks.available / attempted,
            "vpl_p50_m": statistics.median(checks.vpls),
            "continuity_ratio": 1.0 - checks.alerts / attempted,
            "vpl_to_reference": probe.vpl_ratio_sum / probe.vpl_pairs,
            "availability_to_reference": (probe.available_now
                                          / probe.available_was),
        }
        metrics = select(spec["end_to_end"], values)
        for label, samples in (("reference", setup), ("wall", setup_wall)):
            print(f"setup samples ({label} s): "
                  f"{', '.join(f'{s:.4f}' for s in samples)}")

    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        # The same quantities under the names of the metric definitions;
        # the ones above are their forms that are never zero.
        for name, value, unit in (
                ("records_per_s", attempted / pass_seconds(untraced),
                 "records/s"),
                ("failed_record_ratio", checks.bad / attempted, "ratio"),
                ("misleading_records", checks.misleading, "count"),
                ("alert_ratio", checks.alerts / attempted, "ratio")):
            print(f"{name:48s} {value:.6g} {unit}")
    correct = not (checks.problems or checks.failed
                   or probe.problems or probe.failed)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
