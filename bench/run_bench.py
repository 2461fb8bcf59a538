"""Sweep benchmark: what a user of ``sparsedoa.sweep`` waits for and gets.

Usage (from the root of a checkout)::

    python3 bench/run_bench.py --workload algos --seed 1 --seconds 10 --trace 0

Every run first checks correctness: the exact-covariance oracle in
``configs/exact_recovery.json`` must recover every source within one grid
step, and the workload's accuracy sweep (``accuracy_trials`` per cell) must
write a CSV whose rows hold the configured trial count, ``0 <= failures <=
trials`` and a finite ``rmse``.  Its sha256 is printed so two versions of
the library can be compared for bit identity.  Then ``sweep`` (one process,
``workers=1``) runs the workload at ``timed_trials`` per cell, pass after
pass, for ``--seconds``; every pass must reproduce the same CSV.

``--trace 0`` reports the end-to-end metrics: ``trials_per_s`` (the best
timed pass), ``setup_s`` (median over fresh-interpreter cold starts spread
among the passes, see ``setup_probe.py``), ``rmse_geomean`` and
``success_frac`` (from the accuracy sweep; deterministic for a seed) and
``peak_rss_mb``.  ``--trace 1`` alternates untraced passes with passes
that record spans around every call into the library's modules (see
``spans.py``), reports the per-layer metrics and the tracing overhead, and
writes the spans of one pass and a per-layer self-time summary to
``bench/out/<workload>.trace.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` and ``failed`` (``sweep`` calls made and calls
whose CSV failed a check) and ``metrics``.  The exit code is 1 when a
check fails.  ``bench/DESIGN.md`` says why each workload and metric exists.
"""

import os

# BLAS and OpenMP run single-threaded in the benchmark's own processes (the
# set-up probes inherit this); the values found at start are recorded.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
INHERITED_THREAD_ENV = {name: os.environ.get(name) for name in THREAD_VARS}
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import argparse  # noqa: E402
import csv  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

if not (SRC / "sparsedoa" / "__init__.py").is_file():
    sys.exit(f"run_bench: no sparsedoa sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import sparsedoa  # noqa: E402
import spans  # noqa: E402
from sparsedoa.harness import ExperimentConfig, run_trial, sweep  # noqa: E402

ORACLE_CONFIG = "configs/exact_recovery.json"
SETUP_PROBES = 7


@dataclasses.dataclass(frozen=True)
class Workload:
    config: str  # path relative to the checkout root
    timed_trials: int  # trials per cell in each timed pass (a pass takes ~0.06 s)
    accuracy_trials: int  # trials per cell in the accuracy sweep


WORKLOADS = {
    "algos": Workload("configs/naq2_algorithms.json", 2, 100),
    "geometries": Workload("configs/geometry_comparison.json", 2, 100),
    "oversubscribed": Workload("configs/oversubscribed.json", 4, 50),
    "wide-coarray": Workload("bench/wide_coarray.json", 1, 50),
}

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "setup_s": "s",
    "rmse_geomean": "theta",
    "success_frac": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "sigmodel.simulate.calls": "count",
    "sigmodel.simulate.self_s": "s",
    "sigmodel.simulate_per_draw": "ratio",
    "sigmodel.covariance.calls": "count",
    "sigmodel.covariance.self_s": "s",
    "harness.identifiability_raises": "count",
    "harness.wasted_simulations": "count",
    "harness.run_trial.calls": "count",
    "harness.run_trial.p50_ms": "ms",
    "harness.run_trial.p99_ms": "ms",
    "harness.run_trial.self_s": "s",
    "coarray.to_coarray.self_s": "s",
    "coarray.smooth.self_s": "s",
    "coarray.subspace.calls": "count",
    "coarray.subspace.self_s": "s",
    "coarray.subspace.dim_mean": "rows",
    "estimators.spectrum.self_s": "s",
    "estimators.grid_points": "count",
    "estimators.grid_flops": "flop",
    "estimators.peaks.calls": "count",
    "estimators.peaks.self_s": "s",
    "estimators.degraded_frac": "ratio",
    "geometry.build_s": "s",
    "geometry.build_calls": "count",
    "cli.import_s": "s",
}


def environment(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_vendor = "unknown"
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sparsedoa": sparsedoa.__version__,
        "blas": blas_vendor,
        "thread_env_inherited": INHERITED_THREAD_ENV,
        "thread_env_set": {name: os.environ[name] for name in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "git_rev": git_rev(),
        "seed": seed,
    }


def git_rev():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def load_config(workload, seed, trials):
    config = ExperimentConfig.from_file(ROOT / workload.config)
    return dataclasses.replace(config, seed=seed, trials=trials)


def check_oracle():
    """Exact covariances must put every estimate within one grid step of the truth."""
    config = ExperimentConfig.from_file(ROOT / ORACLE_CONFIG)
    step = 2.0 / config.grid_size
    truth = np.sort(config.source_set().theta_array)
    problems = []
    for algorithm in config.algorithms:
        estimate = run_trial(config, config.snr_db_list[0], algorithm, 0).estimate
        error = np.abs(np.sort(estimate.thetas) - truth)
        print(f"oracle {ORACLE_CONFIG} {algorithm}: max error {error.max():.3g}"
              f" (grid step {step:.3g}, degraded={estimate.degraded})")
        if estimate.degraded or error.max() > step:
            problems.append(f"oracle {algorithm} missed the truth by {error.max():.3g}")
    return problems


def check_csv(config, path):
    """Problems with a sweep CSV: cell order, trial counts, failures, finite rmse."""
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    expected = [
        (g.label, algorithm, f"{snr:g}")
        for g in config.geometries
        for algorithm in config.algorithms
        for snr in config.snr_db_list
    ]
    problems = []
    if [(r["geometry"], r["algorithm"], r["snr_db"]) for r in rows] != expected:
        problems.append(f"{path.name}: rows do not match the config's cells")
    for r in rows:
        trials, failures = int(r["trials"]), int(r["failures"])
        if trials != config.trials:
            problems.append(f"{path.name}: {r} has {trials} trials, not {config.trials}")
        if not 0 <= failures <= trials:
            problems.append(f"{path.name}: {r} has failures outside [0, trials]")
        if not math.isfinite(float(r["rmse"])):
            problems.append(f"{path.name}: {r} has a non-finite rmse")
    return problems


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def trials_per_pass(config):
    cells = len(config.geometries) * len(config.algorithms) * len(config.snr_db_list)
    return config.trials * cells


def probe_setup(config_path, seed, trace):
    """One cold start in a fresh interpreter; its stamps plus the spawn time."""
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(config_path), str(seed),
         "1" if trace else "0"],
        capture_output=True, text=True, timeout=150, check=True,
    )
    stamps = json.loads(done.stdout.strip().splitlines()[-1])
    stamps["spawn"] = spawned
    return stamps


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def throughput(rates):
    """The best pass rate, as ``timeit`` reports its best repeat.

    Every pass does the same work on the same draws, and contention from
    outside the process only ever slows a pass.  On a shared machine it
    comes in spells of seconds that the process's own CPU time does not
    show, so the best pass tracks the code's own speed far more steadily
    than the median does.
    """
    return max(rates)


def describe(values):
    low, high = quartiles(values)
    return (f"{len(values)} values, median {statistics.median(values):.6g},"
            f" quartiles {low:.6g}..{high:.6g}")


class TimedRun:
    """The checked sweep calls of one run, with cold starts spread among them."""

    def __init__(self, csv_path):
        self.csv_path = csv_path
        self.attempted = 0
        self.failed = 0
        self.digests = set()
        self.problems = []
        self.rates = []
        self.traced_rates = []
        self.tracers = []
        self.probes = []

    def sweep(self, config):
        """One timed ``sweep`` call whose CSV is checked; returns its seconds."""
        start = time.perf_counter()
        sweep(config, out_path=self.csv_path)
        elapsed = time.perf_counter() - start
        self.attempted += 1
        problems = check_csv(config, self.csv_path)
        self.digests.add(sha256(self.csv_path))
        if len(self.digests) > 1:
            problems.append(f"{self.csv_path.name}: a pass wrote a different CSV")
        self.failed += bool(problems)
        self.problems.extend(problems)
        return elapsed

    def measure(self, config, seconds, probe, probes, traced=False):
        """Run passes until they have taken ``seconds``.

        ``probe()`` runs ``probes`` times, spread evenly over the passes, so
        a spell of contention cannot slow every cold start.  With
        ``traced``, untraced and traced passes alternate, so both see the
        same machine.
        """
        trials = trials_per_pass(config)
        busy = 0.0
        while (busy < seconds or len(self.probes) < probes or not self.rates
               or (traced and not self.tracers)):
            if len(self.probes) < probes and busy >= seconds * len(self.probes) / probes:
                self.probes.append(probe())
            elif traced and len(self.tracers) < len(self.rates):
                tracer = spans.Tracer()
                with spans.instrument(tracer):
                    elapsed = self.sweep(config)
                self.tracers.append(tracer)
                self.traced_rates.append(trials / elapsed)
                busy += elapsed
            else:
                elapsed = self.sweep(config)
                self.rates.append(trials / elapsed)
                busy += elapsed


def end_to_end(run, config, curves):
    setup = [p["ready"] - p["spawn"] for p in run.probes]
    failures = sum(c.failures for c in curves)
    attempted = sum(c.trials for c in curves)
    metrics = {
        "trials_per_s": throughput(run.rates),
        "setup_s": statistics.median(setup),
        "rmse_geomean": statistics.geometric_mean(c.rmse for c in curves),
        "success_frac": 1.0 - failures / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "trials_per_s": f"best pass rate; pass rates: {describe(run.rates)};"
                        f" {config.trials} trials per cell per pass",
        "setup_s": f"median of cold starts: {describe(setup)}",
        "rmse_geomean": f"geometric mean of {len(curves)} CSV rmse values;"
                        f" arithmetic mean {statistics.fmean(c.rmse for c in curves):.6g}",
        "success_frac": f"{failures} failed of {attempted} trials"
                        f" (fail_frac {failures / attempted:.6g})",
        "peak_rss_mb": "ru_maxrss of the benchmark process",
    }
    return metrics, notes, {"pass_rates": run.rates, "setup_s": setup}


def per_layer(name, seed, run, config):
    per_pass = [spans.pass_metrics(t.spans) for t in run.tracers]
    metrics = {}
    for key, first in per_pass[0].items():
        values = [p[key] for p in per_pass]
        if key.endswith("_s"):
            metrics[key] = statistics.median(values)
        elif any(v != first for v in values):
            run.problems.append(f"traced passes disagree on {key}: {values}")
        else:
            metrics[key] = first
    durations = [d for t in run.tracers for d in spans.trial_durations_ms(t.spans)]
    metrics["harness.run_trial.p50_ms"], metrics["harness.run_trial.p99_ms"] = (
        float(v) for v in np.percentile(durations, [50, 99])
    )
    build_calls = {p["build_calls"] for p in run.probes}
    if len(build_calls) != 1:
        run.problems.append(f"cold starts disagree on geometry builds: {build_calls}")
    metrics["geometry.build_calls"] = build_calls.pop()
    metrics["geometry.build_s"] = statistics.median(p["build_s"] for p in run.probes)
    metrics["cli.import_s"] = statistics.median(p["parse"] - p["import"] for p in run.probes)

    overhead = {
        "untraced_trials_per_s": throughput(run.rates),
        "traced_trials_per_s": throughput(run.traced_rates),
        "untraced_passes": len(run.rates),
        "traced_passes": len(run.traced_rates),
    }
    overhead["slowdown"] = overhead["untraced_trials_per_s"] / overhead["traced_trials_per_s"]
    summaries = [spans.layer_summary(t.spans) for t in run.tracers]
    trial_time = statistics.median(s["harness.run_trial"]["total_s"] for s in summaries)
    layers = {}
    for layer in summaries[0]:
        self_s = statistics.median(s[layer]["self_s"] for s in summaries)
        layers[layer] = {
            "calls": summaries[0][layer]["calls"],
            "errors": summaries[0][layer]["errors"],
            "self_s": self_s,
            "share_of_trial_time": self_s / trial_time,
        }
    first = run.tracers[0].spans
    trace_path = OUT / f"{name}.trace.json"
    trace_path.write_text(json.dumps({
        "workload": name,
        "seed": seed,
        "trials_per_cell": config.trials,
        "overhead": overhead,
        "run_trial_samples": len(durations),
        "layers": layers,
        "fields": spans.FIELDS,
        "spans": spans.span_records(first, first[0][spans.START]),
    }))
    notes = {
        "harness.run_trial.p99_ms": f"{len(durations)} traced trials",
        "geometry.build_s": f"median of {len(run.probes)} traced cold starts",
        "cli.import_s": f"median of {len(run.probes)} cold starts",
    }
    print(f"trace overhead: traced {overhead['traced_trials_per_s']:.6g} trials/s"
          f" against untraced {overhead['untraced_trials_per_s']:.6g}"
          f" (x{overhead['slowdown']:.3f} slower)")
    for layer, row in sorted(layers.items(), key=lambda item: -item[1]["self_s"]):
        print(f"self time {layer}: {row['self_s']:.6g} s in {row['calls']} calls"
              f" ({100 * row['share_of_trial_time']:.1f}% of trial time)")
    print(f"spans written to {trace_path.relative_to(ROOT)}")
    return metrics, notes, {"overhead": overhead}


def measure(name, workload, seed, seconds, trace, probes=SETUP_PROBES):
    """One benchmark run; prints a human-readable log and returns the result object."""
    env = environment(seed)
    print("env", json.dumps(env))
    OUT.mkdir(exist_ok=True)
    run = TimedRun(OUT / f"{name}.pass.csv")
    run.problems.extend(check_oracle())

    accuracy = load_config(workload, seed, workload.accuracy_trials)
    accuracy_csv = OUT / f"{name}.csv"
    curves = sweep(accuracy, out_path=accuracy_csv)
    run.attempted += 1
    accuracy_problems = check_csv(accuracy, accuracy_csv)
    run.failed += bool(accuracy_problems)
    run.problems.extend(accuracy_problems)
    print(f"csv_sha256 {name} seed={seed} trials={accuracy.trials} {sha256(accuracy_csv)}")

    timed = load_config(workload, seed, workload.timed_trials)
    probe = functools.partial(probe_setup, ROOT / workload.config, seed, trace)
    run.measure(timed, seconds, probe, probes, traced=trace)
    if trace:
        metrics, notes, extra = per_layer(name, seed, run, timed)
        units = PER_LAYER_UNITS
    else:
        metrics, notes, extra = end_to_end(run, timed, curves)
        units = END_TO_END_UNITS
    print(f"csv_sha256 {name} seed={seed} trials={timed.trials}"
          f" {' '.join(sorted(run.digests))} (timed passes)")
    for key in units:
        print(f"metric {key} = {metrics[key]:.6g} {units[key]}"
              + (f"  ({notes[key]})" if key in notes else ""))
    for problem in run.problems:
        print("FAILED CHECK:", problem)

    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    report = dict(result, workload=name, seed=seed, trace=trace, problems=run.problems,
                  env=env, **extra)
    (OUT / f"{name}.{'trace' if trace else 'e2e'}-report.json").write_text(
        json.dumps(report, indent=1)
    )
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
