"""In-memory spans around the calls into sparsedoa's modules.

A span records name, start, end, the index of the span that caused it, and
a trial id ``(geometry, snr_db, trial, algorithm)`` that every span inside
one ``run_trial`` call shares.  Tracing works from outside the library:
``instrument`` replaces each public function at the module attribute its
caller looks up (``harness`` and ``estimators`` import ``signal_subspace``,
``simulate_snapshots`` and the rest by name, so wrapping the defining
module would miss every call), and puts the originals back on exit.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np

from sparsedoa import estimators, harness
from sparsedoa.errors import DegenerateCoarrayError, TooManySourcesError

# Field positions in a span record (a list, to keep the hot path cheap).
NAME, START, END, PARENT, TRIAL, ERROR, NOTE = range(7)
FIELDS = ("name", "start", "end", "parent", "trial", "error", "note")

IDENTIFIABILITY_ERRORS = {TooManySourcesError.__name__, DegenerateCoarrayError.__name__}


class Tracer:
    """Collects spans in memory; one tracer per measured pass."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, trial_of=None, note=None):
        """Return ``fn`` recording a span per call.

        ``trial_of(*args, **kwargs)`` names the trial a call starts; other
        spans inherit the trial of their parent.  ``note(result, *args,
        **kwargs)`` attaches a value computed from a successful call; it runs
        after the span closes, so its cost is not charged to ``name``.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if trial_of is not None:
                trial = trial_of(*args, **kwargs)
            else:
                trial = spans[parent][TRIAL] if parent is not None else None
            span = [name, 0.0, 0.0, parent, trial, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(result, *args, **kwargs)
            return result

        return traced


def _trial_key(config, snr_db, algorithm, trial_index, geometry_index=0, collect=False):
    return (config.geometries[geometry_index].label, float(snr_db), trial_index, algorithm)


def _subspace_dim(result, covariance, n_sources):
    return int(np.shape(getattr(covariance, "matrix", covariance))[0])


def _coarray_grid_work(result, subspaces, *args, **kwargs):
    """(grid points, computed flops) of a gca/avca spectrum: 8*G*M*D per subarray."""
    grid = result[0].size
    m, d = subspaces[0].signal_basis.shape
    return grid * len(subspaces), 8 * grid * m * d * len(subspaces)


def _physical_grid_work(result, covariances, layout, n_sources, *args, **kwargs):
    grid = result[0].size
    m = layout.base.n_sensors
    return grid * layout.n_subarrays, 8 * grid * m * n_sources * layout.n_subarrays


def _degraded(result, *args, **kwargs):
    return bool(result.degraded)


# (module, attribute looked up by the caller, layer span name, trial_of, note)
SWEEP_TARGETS = (
    (harness, "run_trial", "harness.run_trial", _trial_key, None),
    (harness, "simulate_snapshots", "sigmodel.simulate", None, None),
    (harness, "sample_covariance", "sigmodel.covariance", None, None),
    (harness, "exact_covariance", "sigmodel.covariance", None, None),
    (harness, "covariance_to_coarray", "coarray.to_coarray", None, None),
    (harness, "spatial_smooth", "coarray.smooth", None, None),
    (harness, "signal_subspace", "coarray.subspace", None, _subspace_dim),
    (estimators, "signal_subspace", "coarray.subspace", None, _subspace_dim),
    (harness, "gca_music", "estimators.spectrum", None, _coarray_grid_work),
    (harness, "avca_music", "estimators.spectrum", None, _coarray_grid_work),
    (harness, "g_music", "estimators.spectrum", None, _physical_grid_work),
    (estimators, "find_peaks", "estimators.peaks", None, _degraded),
)

GEOMETRY_TARGETS = tuple(
    (harness, builder, "geometry.build", None, None)
    for builder in ("build_ula", "build_nested2", "build_super_nested2", "build_mra")
)


@contextmanager
def instrument(tracer, targets=SWEEP_TARGETS + GEOMETRY_TARGETS):
    """Route the targeted calls through ``tracer`` inside the block."""
    originals = [(module, attr, getattr(module, attr)) for module, attr, *_ in targets]
    try:
        for module, attr, name, trial_of, note in targets:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), trial_of, note))
        yield tracer
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)


def child_time(spans):
    """Per span, the summed duration of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            covered[span[PARENT]] += span[END] - span[START]
    return covered


def layer_summary(spans):
    """Per layer name: call count, errors, total and self seconds.

    Self time is a span's duration minus the part its children cover;
    calls run on one thread, so children never overlap each other.
    """
    covered = child_time(spans)
    summary = {}
    for span, inner in zip(spans, covered):
        row = summary.setdefault(
            span[NAME], {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0}
        )
        duration = span[END] - span[START]
        row["calls"] += 1
        row["errors"] += span[ERROR] is not None
        row["total_s"] += duration
        row["self_s"] += duration - inner
    return summary


def _enclosing_trial(spans, index):
    parent = spans[index][PARENT]
    while parent is not None and spans[parent][NAME] != "harness.run_trial":
        parent = spans[parent][PARENT]
    return parent


def pass_metrics(spans):
    """Per-layer metrics of one traced sweep pass, keyed by metric name."""
    summary = layer_summary(spans)

    def layer(name, field):
        return summary.get(name, {}).get(field, 0)

    trials = [i for i, s in enumerate(spans) if s[NAME] == "harness.run_trial"]
    raised = {i for i in trials if spans[i][ERROR] in IDENTIFIABILITY_ERRORS}
    simulations = [i for i, s in enumerate(spans) if s[NAME] == "sigmodel.simulate"]
    draws = {spans[i][TRIAL][:3] for i in trials}
    dims = [s[NOTE] for s in spans if s[NAME] == "coarray.subspace" and s[NOTE] is not None]
    work = [s[NOTE] for s in spans if s[NAME] == "estimators.spectrum" and s[NOTE] is not None]
    peaks = [s[NOTE] for s in spans if s[NAME] == "estimators.peaks" and s[NOTE] is not None]
    return {
        "sigmodel.simulate.calls": len(simulations),
        "sigmodel.simulate.self_s": layer("sigmodel.simulate", "self_s"),
        "sigmodel.simulate_per_draw": len(simulations) / len(draws) if draws else 0.0,
        "sigmodel.covariance.calls": layer("sigmodel.covariance", "calls"),
        "sigmodel.covariance.self_s": layer("sigmodel.covariance", "self_s"),
        "harness.identifiability_raises": len(raised),
        "harness.wasted_simulations": sum(
            _enclosing_trial(spans, i) in raised for i in simulations
        ),
        "harness.run_trial.calls": len(trials),
        "harness.run_trial.self_s": layer("harness.run_trial", "self_s"),
        "coarray.to_coarray.self_s": layer("coarray.to_coarray", "self_s"),
        "coarray.smooth.self_s": layer("coarray.smooth", "self_s"),
        "coarray.subspace.calls": layer("coarray.subspace", "calls"),
        "coarray.subspace.self_s": layer("coarray.subspace", "self_s"),
        "coarray.subspace.dim_mean": float(np.mean(dims)) if dims else 0.0,
        "estimators.spectrum.self_s": layer("estimators.spectrum", "self_s"),
        "estimators.grid_points": sum(points for points, _ in work),
        "estimators.grid_flops": sum(flops for _, flops in work),
        "estimators.peaks.calls": layer("estimators.peaks", "calls"),
        "estimators.peaks.self_s": layer("estimators.peaks", "self_s"),
        "estimators.degraded_frac": sum(peaks) / len(peaks) if peaks else 0.0,
    }


def trial_durations_ms(spans):
    return [
        1e3 * (s[END] - s[START]) for s in spans if s[NAME] == "harness.run_trial"
    ]


def span_records(spans, origin):
    """Spans as JSON-ready rows in ``FIELDS`` order, times relative to ``origin``."""
    return [[s[NAME], s[START] - origin, s[END] - origin, *s[PARENT:]] for s in spans]
