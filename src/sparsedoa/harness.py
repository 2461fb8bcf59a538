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
trial back to back, and ``run_trial`` reads the draw from a one-entry memo.
``gmusic`` reuses the draw's covariances, while ``gca`` and ``avca`` also
share its coarray signals, smoothed covariances and subspaces.  Parallel
sweeps spread the (geometry, SNR) groups over worker processes.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from .coarray import covariance_to_coarray, signal_subspace, spatial_smooth
from .errors import DegenerateCoarrayError, TooManySourcesError
from .estimators import DoaEstimate, SpectrumGrid, avca_music, g_music, gca_music
from .geometry import (
    ArrayGeometry,
    TypeIILayout,
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
    "write_curves",
]

#: RMSE reported for a curve point whose every trial failed.
RMSE_SENTINEL = 2.0

ALGORITHMS = ("gca", "gmusic", "avca")

_GEOMETRY_KINDS = ("ula", "naq2", "snaq2", "mra")


def _integer(key: str, value) -> int:
    """``value`` as an int; bools and floats are rejected, naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return int(value)


def _sequence(key: str, values) -> tuple:
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise ValueError(f"{key!r} must be a list, got {values!r}")
    return tuple(values)


def _finite_reals(key: str, values) -> tuple[float, ...]:
    """``values`` as a tuple of finite floats, naming ``key`` if any is not."""
    values = _sequence(key, values)
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
            raise ValueError(f"{key!r} must hold finite numbers, got {v!r}")
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class GeometrySpec:
    """Named recipe for a subarray geometry.

    ``ula`` and ``mra`` take ``n`` sensors; ``naq2`` and ``snaq2`` take the
    two nesting levels ``n1`` and ``n2``.
    """

    kind: str
    n: int | None = None
    n1: int | None = None
    n2: int | None = None

    def __post_init__(self):
        if self.kind not in _GEOMETRY_KINDS:
            raise ValueError(f"unknown geometry kind {self.kind!r}")
        if self.kind in ("ula", "mra"):
            if self.n is None or self.n1 is not None or self.n2 is not None:
                raise ValueError(f"{self.kind} takes a single sensor count 'n'")
        else:
            if self.n1 is None or self.n2 is None or self.n is not None:
                raise ValueError(f"{self.kind} takes nesting levels 'n1' and 'n2'")
        for key in ("n", "n1", "n2"):
            if getattr(self, key) is not None:
                object.__setattr__(self, key, _integer(key, getattr(self, key)))

    @property
    def label(self) -> str:
        if self.kind in ("ula", "mra"):
            return f"{self.kind}-{self.n}"
        return f"{self.kind}-{self.n1}-{self.n2}"

    @classmethod
    def parse(cls, label: str) -> "GeometrySpec":
        """Build a spec from a label such as ``"mra-7"`` or ``"naq2-4-3"``."""
        parts = label.split("-")
        kind = parts[0]
        try:
            sizes = [int(p) for p in parts[1:]]
        except ValueError:
            raise ValueError(f"malformed geometry label {label!r}") from None
        if kind in ("ula", "mra") and len(sizes) == 1:
            return cls(kind, n=sizes[0])
        if kind in ("naq2", "snaq2") and len(sizes) == 2:
            return cls(kind, n1=sizes[0], n2=sizes[1])
        raise ValueError(f"malformed geometry label {label!r}")

    @classmethod
    def from_value(cls, value) -> "GeometrySpec":
        if isinstance(value, GeometrySpec):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        if isinstance(value, dict):
            try:
                return cls(**value)
            except TypeError:
                pass
        raise ValueError(f"cannot interpret geometry {value!r}")

    def build(self) -> ArrayGeometry:
        if self.kind == "ula":
            return build_ula(self.n)
        if self.kind == "mra":
            return build_mra(self.n)
        if self.kind == "naq2":
            return build_nested2(self.n1, self.n2)
        return build_super_nested2(self.n1, self.n2)


_CONFIG_KEYS = {
    "geometry",
    "geometries",
    "L",
    "n_subarrays",
    "mu",
    "spacing",
    "thetas",
    "snapshots",
    "T",
    "snr_db",
    "snr_sweep",
    "algorithm",
    "algorithms",
    "trials",
    "seed",
    "grid_size",
    "dedup_rule",
    "exact",
    "source_power",
    "refine_peaks",
}

# Integer config fields and their smallest accepted values.
_INTEGER_MINIMUMS = {
    "n_subarrays": 1,
    "spacing": 1,
    "snapshots": 1,
    "trials": 1,
    "seed": 0,
    "grid_size": 3,
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
    dedup_rule: str = "average"
    exact: bool = False
    source_power: float = 1.0
    refine_peaks: bool = True

    def __post_init__(self):
        # The config keys the draw memo, so every field is checked and
        # normalised to a plain hashable value here.
        geometries = _sequence("geometries", self.geometries)
        object.__setattr__(
            self, "geometries", tuple(GeometrySpec.from_value(g) for g in geometries)
        )
        object.__setattr__(self, "thetas", _finite_reals("thetas", self.thetas))
        object.__setattr__(self, "snr_db_list", _finite_reals("snr_db_list", self.snr_db_list))
        object.__setattr__(self, "algorithms", _sequence("algorithms", self.algorithms))
        if not self.geometries:
            raise ValueError("need at least one geometry")
        if not self.snr_db_list:
            raise ValueError("need at least one SNR point")
        if not self.algorithms:
            raise ValueError("need at least one algorithm")
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {name!r}")
        for key, minimum in _INTEGER_MINIMUMS.items():
            value = _integer(key, getattr(self, key))
            if value < minimum:
                raise ValueError(f"{key!r} must be at least {minimum}, got {value}")
            object.__setattr__(self, key, value)
        for key in ("exact", "refine_peaks"):
            if not isinstance(getattr(self, key), bool):
                raise ValueError(f"{key!r} must be true or false, got {getattr(self, key)!r}")
        (power,) = _finite_reals("source_power", [self.source_power])
        object.__setattr__(self, "source_power", power)
        if self.dedup_rule not in ("average", "first"):
            raise ValueError(f"unknown dedup rule {self.dedup_rule!r}")
        # Source ordering/range/count/power checks live in SourceSet.
        SourceSet.equal_power(self.thetas, power=self.source_power)

    @property
    def n_sources(self) -> int:
        return len(self.thetas)

    def source_set(self) -> SourceSet:
        return SourceSet.equal_power(self.thetas, power=self.source_power)

    def layout(self, geometry_index: int = 0) -> TypeIILayout:
        return compose_type2(
            self.geometries[geometry_index].build(), self.n_subarrays, self.spacing
        )

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")

        def pick(*names, default=None, required=False):
            present = [n for n in names if n in data]
            if len(present) > 1:
                raise ValueError(f"config sets both {present[0]!r} and {present[1]!r}")
            if present:
                return data[present[0]]
            if required:
                raise ValueError(f"config is missing {names[0]!r}")
            return default

        geometries = pick("geometries", "geometry", required=True)
        if isinstance(geometries, (str, dict)):
            geometries = [geometries]
        snrs = pick("snr_sweep", "snr_db", required=True)
        if isinstance(snrs, (int, float)):
            snrs = [snrs]
        algorithms = pick("algorithms", "algorithm", default=list(ALGORITHMS))
        if isinstance(algorithms, str):
            algorithms = [algorithms]
        kwargs = {
            "geometries": geometries,
            "n_subarrays": pick("L", "n_subarrays", required=True),
            "spacing": pick("mu", "spacing", default=1),
            "thetas": pick("thetas", required=True),
            "snapshots": pick("snapshots", "T", default=100),
            "snr_db_list": snrs,
            "algorithms": algorithms,
        }
        for key in ("trials", "seed", "grid_size", "dedup_rule", "exact",
                    "source_power", "refine_peaks"):
            if key in data:
                kwargs[key] = data[key]
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
    artifacts: TrialArtifacts | None = None

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

    Its arrays are read-only because several trials share them.  The
    coarray stage is computed on first use, so ``gca`` and ``avca`` share
    one eigendecomposition per subarray and ``gmusic`` never pays for it.
    """

    base: ArrayGeometry
    layout: TypeIILayout
    sources: SourceSet
    covariances: tuple[np.ndarray, ...]
    dedup_rule: str

    @cached_property
    def coarray_stage(self) -> tuple[tuple, tuple, tuple]:
        """Per subarray: coarray signals, smoothed covariances, subspaces."""
        signals = tuple(
            covariance_to_coarray(r, self.base, rule=self.dedup_rule) for r in self.covariances
        )
        smoothed = tuple(spatial_smooth(sig, subarray_index=l) for l, sig in enumerate(signals))
        subspaces = tuple(signal_subspace(s, self.sources.count) for s in smoothed)
        _read_only(*(sig.values for sig in signals), *(s.matrix for s in smoothed))
        for s in subspaces:
            _read_only(s.signal_basis, s.noise_basis, s.eigenvalues)
        return signals, smoothed, subspaces


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.setflags(write=False)


@lru_cache(maxsize=1)
def _draw(config: ExperimentConfig, snr_bits: int, trial_index: int,
          geometry_index: int) -> _Draw:
    """The keyed draw of one trial; the memo holds only the draw in flight.

    The SNR enters the key as its bit pattern, as it does the substream key:
    0.0 and -0.0 compare equal but seed different draws.
    """
    (snr_db,) = struct.unpack("<d", struct.pack("<Q", snr_bits))
    base = config.geometries[geometry_index].build()
    layout = compose_type2(base, config.n_subarrays, config.spacing)
    sources = config.source_set()
    noise_power = noise_power_for_snr(snr_db, signal_power=config.source_power)
    if config.exact:
        covariances = tuple(
            exact_covariance(layout.subarray_positions(l), sources, noise_power)
            for l in range(layout.n_subarrays)
        )
    else:
        scenario = Scenario(
            layout=layout,
            sources=sources,
            noise_power=noise_power,
            snapshots=config.snapshots,
        )
        rng = np.random.default_rng(
            trial_seed_sequence(config.seed, geometry_index, snr_db, trial_index)
        )
        batch = simulate_snapshots(scenario, rng=rng)
        covariances = tuple(sample_covariance(x) for x in batch.matrices)
    _read_only(*covariances)
    return _Draw(base, layout, sources, covariances, config.dedup_rule)


def run_trial(
    config: ExperimentConfig,
    snr_db: float,
    algorithm: str,
    trial_index: int,
    geometry_index: int = 0,
    collect: bool = False,
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
    if not 0 <= geometry_index < len(config.geometries):
        raise ValueError(f"geometry index {geometry_index} out of range")
    draw = _draw(config, _snr_bits(snr_db), trial_index, geometry_index)
    d = draw.sources.count

    coarray_signals = ()
    smoothed = ()
    subspaces = ()
    if algorithm == "gmusic":
        spectrum, estimate = g_music(
            draw.covariances, draw.layout, d,
            grid_size=config.grid_size, refine=config.refine_peaks,
        )
    else:
        coarray_signals, smoothed, subspaces = draw.coarray_stage
        runner = gca_music if algorithm == "gca" else avca_music
        spectrum, estimate = runner(
            subspaces, d, grid_size=config.grid_size, refine=config.refine_peaks
        )

    if estimate.degraded:
        squared_error = None
    else:
        truth = np.sort(draw.sources.theta_array)
        squared_error = float(np.sum((np.sort(estimate.thetas) - truth) ** 2))
    artifacts = None
    if collect:
        artifacts = TrialArtifacts(
            draw.covariances, coarray_signals, smoothed, subspaces, spectrum
        )
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
    own row.  When ``out_path`` is given the CSV is written there; the file
    is opened before any computation so a bad path fails fast.

    Args:
        config: experiment description.
        out_path: optional CSV destination.
        workers: process count; 1 means run in this process.

    Returns:
        One :class:`RmseCurve` per cell.
    """
    geometry_indices = range(len(config.geometries))
    snr_indices = range(len(config.snr_db_list))
    groups = [(gi, si) for gi in geometry_indices for si in snr_indices]
    handle = open(out_path, "w", newline="") if out_path is not None else None
    try:
        runner = partial(_run_group, config)
        if workers <= 1:
            rows = [runner(group) for group in groups]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(runner, groups))
        by_group = dict(zip(groups, rows))
        curves = [
            by_group[gi, si][position]
            for gi in geometry_indices
            for position in range(len(config.algorithms))
            for si in snr_indices
        ]
        if handle is not None:
            _write_rows(handle, curves)
    finally:
        if handle is not None:
            handle.close()
    return curves


def _write_rows(handle, curves) -> None:
    writer = csv.writer(handle)
    writer.writerow(["geometry", "algorithm", "snr_db", "trials", "failures", "rmse"])
    for c in curves:
        writer.writerow(
            [c.geometry, c.algorithm, f"{c.snr_db:g}", c.trials, c.failures, f"{c.rmse:.9g}"]
        )


def write_curves(curves, out_path) -> None:
    """Write aggregated curves to ``out_path`` as CSV."""
    with open(out_path, "w", newline="") as handle:
        _write_rows(handle, curves)
