"""Monte-Carlo experiment harness.

Runs the full pipeline (simulate -> covariance -> coarray -> subspace ->
spectrum -> peaks) over grids of geometries, algorithms, and SNR points, and
aggregates root-mean-square direction errors into CSV-friendly rows.

Reproducibility works through keyed substreams: every trial draws from a
``SeedSequence`` spawned off the master seed with key (geometry index, SNR
bit pattern, trial index).  The algorithm is deliberately not part of the
key, so competing algorithms see identical data in matched trials, and the
worker count never changes any draw.

A sweep simulates and decomposes each keyed draw once and shares it with
every algorithm: it walks (geometry, SNR) groups, runs all algorithms of a
trial back to back, and ``run_trial`` reads the draw from a one-entry memo
and its group's set-up (layout, sources, steering) from another.  Each stage
runs once per draw, on the stack of its L subarrays.  ``gmusic`` reuses the
draw's covariances, while ``gca`` and ``avca`` also share its coarray signals,
smoothed covariances and subspaces.  Parallel sweeps spread the groups over processes.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from .coarray import CoarraySignal, SmoothedCovariance, SubspaceDecomposition
from .coarray import covariance_to_coarray, signal_subspace, spatial_smooth
from .errors import DegenerateCoarrayError, TooManySourcesError
from .estimators import DoaEstimate, SpectrumGrid, avca_music, g_music, gca_music
from .geometry import (
    ArrayGeometry,
    TypeIILayout,
    _integer,
    build_mra,
    build_nested2,
    build_super_nested2,
    build_ula,
    compose_type2,
)
from .sigmodel import (
    Scenario,
    SourceSet,
    exact_covariance,
    noise_power_for_snr,
    sample_covariance,
    simulate_snapshots,
)

__all__ = [
    "GeometrySpec",
    "ExperimentConfig",
    "TrialArtifacts",
    "TrialResult",
    "RmseCurve",
    "RMSE_SENTINEL",
    "ALGORITHMS",
    "run_trial",
    "rmse",
    "sweep",
]

#: RMSE reported for a curve point whose every trial failed.
RMSE_SENTINEL = 2.0

ALGORITHMS = ("gca", "gmusic", "avca")

#: Geometry kind -> (name of its builder in this module, looked up per build so
#: a wrapper set on the module attribute sees it; the builder's size keys, which
#: the label gives in this order after the kind).
_GEOMETRY_KINDS = {"ula": ("build_ula", ("n",)), "naq2": ("build_nested2", ("n1", "n2")),
                  "snaq2": ("build_super_nested2", ("n1", "n2")), "mra": ("build_mra", ("n",))}

_SNR_FLOOR_DB = -1500.0  # noise power 1e150, so the squared eigenvalues stay finite


def _sequence(key: str, values) -> tuple:
    """``values`` as a non-empty tuple, naming ``key`` if it is not one."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise ValueError(f"{key!r} must be a list, got {values!r}")
    if len(values) == 0:
        raise ValueError(f"{key!r} needs at least one entry")
    return tuple(values)


def _finite_reals(key: str, values) -> tuple[float, ...]:
    """``values`` as a tuple of finite floats, naming ``key`` if any is not."""
    values = _sequence(key, values)
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
            raise ValueError(f"{key!r} must hold finite numbers, got {v!r}")
    return tuple(float(v) for v in values)


def _named(key: str, check, *args):
    """``check(*args)``, with the message of any ValueError prefixed by ``key``."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ValueError(f"{key!r}: {exc}") from None


def _noise_powers(key: str, snrs) -> tuple[float, ...]:
    """Noise power at each SNR in dB for unit-power sources, naming ``key``."""
    if min(snrs) < _SNR_FLOOR_DB:
        raise ValueError(f"{key!r} must be at least {_SNR_FLOOR_DB:g} dB, got {min(snrs):g}")
    return tuple(noise_power_for_snr(snr_db) for snr_db in snrs)


@dataclass(frozen=True)
class GeometrySpec:
    """A subarray geometry named by its label, such as ``"naq2-4-3"``.

    The label is the kind, then its sizes in the order of ``_GEOMETRY_KINDS``:
    ``ula-N``, ``naq2-N1-N2``, ``snaq2-N1-N2`` or ``mra-N``.  Only labels that
    read back as written are accepted (``"ula-07"`` is not ``ula-7``).  The
    constructor parses ``kind`` and ``sizes`` once, so a build reads no text.
    """

    label: str

    def __post_init__(self):
        kind, *sizes = self.label.split("-") if isinstance(self.label, str) else [None]
        try:
            sizes = tuple(map(int, sizes))
            if (len(sizes) == len(_GEOMETRY_KINDS[kind][1])
                    and "-".join([kind, *map(str, sizes)]) == self.label):
                object.__setattr__(self, "kind", kind)
                object.__setattr__(self, "sizes", sizes)
                return
        except (KeyError, ValueError):
            pass
        forms = ", ".join("-".join([k, *map(str.upper, keys)])
                          for k, (_, keys) in _GEOMETRY_KINDS.items())
        raise ValueError(f"malformed geometry label {self.label!r}; the forms are {forms}")

    def build(self) -> ArrayGeometry:
        try:
            return globals()[_GEOMETRY_KINDS[self.kind][0]](*self.sizes)
        except ValueError as exc:
            raise ValueError(f"geometry {self.label!r}: {exc}") from exc


_REQUIRED = object()

# ExperimentConfig field -> (the file keys that set it, canonical key first;
# its default, or None to keep the dataclass default; the value types that
# stand for a one-element list; the smallest value of an integer field, else
# None).  Fields are read in this order, which fixes the error reported first
# when a config has several faults.
_CONFIG_FIELDS = {
    "geometries": (("geometries", "geometry"), _REQUIRED, (str,), None),
    "snr_db_list": (("snr_sweep", "snr_db"), _REQUIRED, (int, float), None),
    "algorithms": (("algorithms", "algorithm"), None, (str,), None),
    "n_subarrays": (("L", "n_subarrays"), _REQUIRED, (), 1),
    "spacing": (("mu", "spacing"), 1, (), 1),
    "thetas": (("thetas",), _REQUIRED, (), None),
    "snapshots": (("snapshots", "T"), 100, (), 1),
    "trials": (("trials",), None, (), 1),
    "seed": (("seed",), None, (), 0),
    "grid_size": (("grid_size",), None, (), 3),
    "exact": (("exact",), None, (), None),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs, hashable and process-safe."""

    geometries: tuple[GeometrySpec, ...]
    n_subarrays: int
    spacing: int
    thetas: tuple[float, ...]
    snapshots: int
    snr_db_list: tuple[float, ...]
    algorithms: tuple[str, ...] = ALGORITHMS
    trials: int = 200
    seed: int = 0
    grid_size: int = 2001
    exact: bool = False

    def __post_init__(self):
        # The config keys the draw memo, so every field is checked and
        # normalised to a plain hashable value here.
        geometries = _sequence("geometries", self.geometries)
        object.__setattr__(self, "geometries", tuple(
            g if isinstance(g, GeometrySpec) else _named("geometries", GeometrySpec, g)
            for g in geometries
        ))
        object.__setattr__(self, "thetas", _finite_reals("thetas", self.thetas))
        object.__setattr__(self, "snr_db_list", _finite_reals("snr_db_list", self.snr_db_list))
        object.__setattr__(self, "algorithms", _sequence("algorithms", self.algorithms))
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ValueError(f"'algorithms': unknown algorithm {name!r}")
        for key, (_, _, _, minimum) in _CONFIG_FIELDS.items():
            if minimum is None:
                continue
            value = _integer(key, getattr(self, key))
            if value < minimum:
                raise ValueError(f"{key!r} must be at least {minimum}, got {value}")
            object.__setattr__(self, key, value)
        if not isinstance(self.exact, bool):
            raise ValueError(f"'exact' must be true or false, got {self.exact!r}")
        _noise_powers("snr_db_list", self.snr_db_list)
        # The grid covers [-1, 1), where theta = 1 is -1; SourceSet checks the order.
        for theta in self.thetas:
            if not -1.0 <= theta < 1.0:
                raise ValueError(f"'thetas' must lie in [-1, 1), got {theta:g}")
        _named("thetas", SourceSet.equal_power, self.thetas)

    @property
    def n_sources(self) -> int:
        return len(self.thetas)

    def source_set(self) -> SourceSet:
        return SourceSet.equal_power(self.thetas)

    def layout(self, geometry_index: int = 0) -> TypeIILayout:
        return compose_type2(
            self.geometries[geometry_index].build(), self.n_subarrays, self.spacing
        )

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {key for keys, *_ in _CONFIG_FIELDS.values() for key in keys}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {}
        for field, (keys, default, singular, _) in _CONFIG_FIELDS.items():
            present = [key for key in keys if key in data]
            if len(present) > 1:
                raise ValueError(f"config sets both {present[0]!r} and {present[1]!r}")
            if present:
                value = data[present[0]]
                kwargs[field] = [value] if isinstance(value, singular) else value
            elif default is _REQUIRED:
                raise ValueError(f"config is missing {keys[0]!r}")
            elif default is not None:
                kwargs[field] = default
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        return cls.from_dict(data)


@dataclass(frozen=True)
class TrialArtifacts:
    """Intermediate products of one trial, for inspection and dumping."""

    covariances: tuple[np.ndarray, ...]
    coarray_signals: tuple
    smoothed: tuple
    subspaces: tuple
    spectrum: SpectrumGrid


@dataclass(frozen=True)
class TrialResult:
    estimate: DoaEstimate
    squared_error: float | None
    artifacts: TrialArtifacts

    @property
    def failed(self) -> bool:
        return self.squared_error is None


@dataclass(frozen=True)
class RmseCurve:
    """One aggregated point of an RMSE-versus-SNR curve."""

    geometry: str
    algorithm: str
    snr_db: float
    trials: int
    failures: int
    rmse: float


def _snr_bits(snr_db: float) -> int:
    (bits,) = struct.unpack("<Q", struct.pack("<d", float(snr_db)))
    return bits


def trial_seed_sequence(seed, geometry_index: int, snr_db: float, trial_index: int):
    """Substream for one trial, keyed so matched trials share data."""
    return np.random.SeedSequence(
        entropy=seed, spawn_key=(geometry_index, _snr_bits(snr_db), trial_index)
    )


def rmse(squared_errors, n_sources: int) -> float:
    """Root mean square error per source over successful trials.

    Each entry of ``squared_errors`` is the summed squared direction error
    of one trial.  With no successful trials the sentinel value is returned
    so failure shows up as an off-scale flat line rather than a gap.
    """
    if n_sources < 1:
        raise ValueError("need at least one source")
    errors = list(squared_errors)
    if not errors:
        return RMSE_SENTINEL
    return float(np.sqrt(np.sum(errors) / (n_sources * len(errors))))


@dataclass(frozen=True)
class _Draw:
    """One keyed draw: the data every algorithm of a matched trial sees.

    Its arrays are read-only because several trials share them.  The coarray
    stage runs on first use, one call per stage on the ``(L, ...)`` stack, so
    ``gca`` and ``avca`` share it and ``gmusic`` never pays for it.
    """

    layout: TypeIILayout
    sources: SourceSet
    covariances: np.ndarray  # (L, N, N)

    @cached_property
    def coarray_stage(self) -> tuple[tuple, tuple, tuple]:
        """Per subarray: coarray signals, smoothed covariances, subspaces (views of stacks)."""
        signal = covariance_to_coarray(self.covariances, self.layout.base)
        smoothed = spatial_smooth(signal)
        s = signal_subspace(smoothed, self.sources.count)
        _read_only(signal.values, smoothed.root, s.signal_basis, s.noise_basis, s.eigenvalues)
        return (tuple(CoarraySignal(signal.lags, values) for values in signal.values),
                tuple(SmoothedCovariance(root) for root in smoothed.root),
                tuple(map(SubspaceDecomposition, s.signal_basis, s.noise_basis, s.eigenvalues)))


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.setflags(write=False)


@lru_cache(maxsize=1)
def _scenario(config: ExperimentConfig, snr_db: float, geometry_index: int) -> Scenario:
    """What every draw of one (geometry, SNR) group shares; the memo holds one group."""
    (noise_power,) = _noise_powers("snr_db", [snr_db])
    return Scenario(config.layout(geometry_index), config.source_set(), noise_power,
                    config.snapshots)


@lru_cache(maxsize=1)
def _draw(config: ExperimentConfig, snr_bits: int, trial_index: int,
          geometry_index: int) -> _Draw:
    """The keyed draw of one trial; the memo holds only the draw in flight.

    The SNR enters the key as its bit pattern, as it does the substream key:
    0.0 and -0.0 compare equal but seed different draws.
    """
    (snr_db,) = struct.unpack("<d", struct.pack("<Q", snr_bits))
    scenario = _scenario(config, snr_db, geometry_index)
    layout = scenario.layout
    if config.exact:
        positions = np.add.outer(layout.offsets, layout.base.positions)
        covariances = exact_covariance(positions, scenario.sources, scenario.noise_power)
    else:
        keys = trial_seed_sequence(config.seed, geometry_index, snr_db, trial_index)
        batch = simulate_snapshots(scenario, rng=np.random.default_rng(keys))
        covariances = sample_covariance(batch.matrices)
    _read_only(covariances)
    return _Draw(layout, scenario.sources, covariances)


def run_trial(
    config: ExperimentConfig,
    snr_db: float,
    algorithm: str,
    trial_index: int,
    geometry_index: int = 0,
) -> TrialResult:
    """Run one trial end to end and score it against the true directions.

    Consecutive calls for the same draw (same config, SNR, trial and
    geometry index; any algorithm) reuse its covariances and, for the
    coarray algorithms, its subspaces.

    Returns a :class:`TrialResult` whose ``squared_error`` is ``None`` when
    the spectrum produced fewer peaks than sources (a degraded estimate).
    Identifiability violations propagate as :class:`TooManySourcesError` or
    :class:`DegenerateCoarrayError` so callers can distinguish "model cannot
    work here" from "this noisy draw failed".
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if not 0 <= _integer("geometry_index", geometry_index) < len(config.geometries):
        raise ValueError(f"geometry index {geometry_index} out of range")
    (snr_db,) = _finite_reals("snr_db", [snr_db])
    if _integer("trial_index", trial_index) < 0:
        raise ValueError(f"'trial_index' must be at least 0, got {trial_index}")
    draw = _draw(config, _snr_bits(snr_db), trial_index, geometry_index)
    d = draw.sources.count

    coarray_signals = smoothed = subspaces = ()
    if algorithm == "gmusic":
        spectrum, estimate = g_music(draw.covariances, draw.layout, d, grid_size=config.grid_size)
    else:
        coarray_signals, smoothed, subspaces = draw.coarray_stage
        runner = gca_music if algorithm == "gca" else avca_music
        spectrum, estimate = runner(subspaces, d, grid_size=config.grid_size)

    if estimate.degraded:
        squared_error = None
    else:
        truth = np.sort(draw.sources.theta_array)
        squared_error = float(np.sum((np.sort(estimate.thetas) - truth) ** 2))
    artifacts = TrialArtifacts(tuple(draw.covariances), coarray_signals, smoothed, subspaces,
                               spectrum)
    return TrialResult(estimate, squared_error, artifacts)


def _run_group(config: ExperimentConfig, group) -> list[RmseCurve]:
    """All trials at one (geometry index, SNR index) point: a row per algorithm.

    Each trial runs every algorithm back to back, so all of them read the
    draw that ``run_trial`` memoised for the first.
    """
    geometry_index, snr_index = group
    snr_db = config.snr_db_list[snr_index]
    _draw.cache_clear()  # a sweep reuses no draw from earlier calls
    errors = [[] for _ in config.algorithms]
    failures = [0] * len(config.algorithms)
    for trial_index in range(config.trials):
        for position, algorithm in enumerate(config.algorithms):
            try:
                result = run_trial(config, snr_db, algorithm, trial_index, geometry_index)
            except (TooManySourcesError, DegenerateCoarrayError):
                failures[position] += 1
                continue
            if result.failed:
                failures[position] += 1
            else:
                errors[position].append(result.squared_error)
    label = config.geometries[geometry_index].label
    return [
        RmseCurve(
            geometry=label,
            algorithm=algorithm,
            snr_db=snr_db,
            trials=config.trials,
            failures=failures[position],
            rmse=rmse(errors[position], config.n_sources),
        )
        for position, algorithm in enumerate(config.algorithms)
    ]


def sweep(config: ExperimentConfig, out_path=None, workers: int = 1) -> list[RmseCurve]:
    """Run every (geometry, algorithm, SNR) cell of the config.

    The sweep walks (geometry, SNR) groups.  Within a group each trial's
    draw is simulated and decomposed once and shared by every algorithm, so
    matched trials see identical data.  Groups are independent, so
    ``workers`` spreads them over processes without changing any number:
    each trial's randomness is keyed by its coordinates alone.  Results
    come back in config order (geometry, then algorithm, then SNR), one row
    per position, so repeated labels, algorithms or SNRs each keep their
    own row.  Every geometry is built before ``out_path`` is checked, so one
    that cannot be built fails before any trial and leaves an existing file
    as it was; a bad path also fails before any trial.  The file is written
    only once every row is ready, so a failed sweep leaves it as it was too.

    Args:
        config: experiment description.
        out_path: optional CSV destination.
        workers: process count, at least 1, checked before ``out_path`` is
            checked; 1 means run in this process.

    Returns:
        One :class:`RmseCurve` per cell.
    """
    geometry_indices = range(len(config.geometries))
    snr_indices = range(len(config.snr_db_list))
    groups = [(gi, si) for gi in geometry_indices for si in snr_indices]
    if _integer("workers", workers) < 1:
        raise ValueError(f"'workers' must be at least 1, got {workers}")
    for gi in geometry_indices:
        _named("geometries", config.layout, gi)
    if out_path is not None:
        open(out_path, "a").close()
    runner = partial(_run_group, config)
    if workers == 1:
        rows = [runner(group) for group in groups]
    else:
        from concurrent.futures import ProcessPoolExecutor  # off the import path: ~15 ms
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(runner, groups))
    by_group = dict(zip(groups, rows))
    curves = [
        by_group[gi, si][position]
        for gi in geometry_indices
        for position in range(len(config.algorithms))
        for si in snr_indices
    ]
    if out_path is not None:
        with open(out_path, "w", newline="") as handle:
            _write_rows(handle, curves)
    return curves


def _write_rows(handle, curves) -> None:
    writer = csv.writer(handle)
    writer.writerow(["geometry", "algorithm", "snr_db", "trials", "failures", "rmse"])
    for c in curves:
        writer.writerow(
            [c.geometry, c.algorithm, f"{c.snr_db:g}", c.trials, c.failures, f"{c.rmse:.9g}"]
        )
