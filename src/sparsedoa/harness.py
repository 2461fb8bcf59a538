"""Monte-Carlo experiment harness.

Runs the full pipeline (simulate -> covariance -> coarray -> subspace ->
spectrum -> peaks) over grids of geometries, algorithms, and SNR points, and
aggregates root-mean-square direction errors into CSV-friendly rows.

Reproducibility works through keyed substreams: every trial draws from a
``SeedSequence`` spawned off the master seed with key (geometry index, SNR
bit pattern, trial index).  The algorithm is deliberately not part of the
key, so competing algorithms see identical data in matched trials, and the
worker count never changes any draw.

A sweep walks each geometry's draws in (SNR, trial) order, in blocks of a
few draws.  Only each draw's keyed generators run on their own; every stage
(the snapshot arithmetic, covariances, coarray, smoothing, subspaces, the
lag-domain spectra and the peak search) runs once per block, and ``gca`` and
``avca`` share one stack of subspaces and deficits.  ``run_trial`` reads a
trial's row of the block in flight, or runs the same stages on a block of its
one draw.  An algorithm that cannot identify the sources on a geometry is
found before any draw is simulated.  Parallel sweeps spread the blocks over
processes.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import struct
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .coarray import CoarraySignal, SmoothedCovariance, SubspaceDecomposition
from .coarray import _check_sources, _smoothing_window
from .coarray import covariance_to_coarray, signal_subspace, spatial_smooth
from .errors import DegenerateCoarrayError, TooManySourcesError
# Not called here, but tracers wrap ``gca_music``, ``avca_music`` and ``g_music`` by these names.
from .estimators import DoaEstimate, SpectrumGrid, avca_music, g_music, gca_music
from .estimators import _averaged, _grid_estimates, _merged, grid_thetas
from .geometry import (
    ArrayGeometry,
    TypeIILayout,
    _integer,
    build_mra,
    build_nested2,
    build_super_nested2,
    build_ula,
    compose_type2,
    difference_coarray,
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
        # The memos and ``_installed`` key on the config: normalise every field to a hashable.
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
    """Intermediate products of one trial: read-only records stacked over the L subarrays,
    as the stages return them; ``gmusic`` has no coarray records (None)."""

    covariances: np.ndarray
    coarray_signals: CoarraySignal | None
    smoothed: SmoothedCovariance | None
    subspaces: SubspaceDecomposition | None
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


#: A block holds at most this many deficit values, (draws * L) x grid, and snapshot
#: values, (draws * L) x N x T, so memory stays bounded for any grid size and
#: snapshot count: 8 draws at L = 3, 2001 grid points and N * T <= 2001.
_BLOCK_VALUES = 49_152

#: Each algorithm's rule for merging its per-subarray deficits into a spectrum.
_RULES = {"gca": _merged, "avca": _averaged, "gmusic": _merged}

#: (config, geometry index, SNR bits, trial index, algorithm) -> TrialResult for
#: the block of draws that ``sweep`` has in flight.
_installed: dict = {}


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.setflags(write=False)


@lru_cache(maxsize=1)
def _geometry(config: ExperimentConfig, geometry_index: int):
    """The layout and sources of every draw on one geometry.  The memo holds one geometry."""
    return config.layout(geometry_index), config.source_set()


@lru_cache(maxsize=1)
def _scenario(config: ExperimentConfig, snr_db: float, geometry_index: int):
    """What every draw of one (geometry, SNR) group shares: its scenario and, with
    ``exact``, its covariance stack (else None).  The memo holds one group."""
    (noise_power,) = _noise_powers("snr_db", [snr_db])
    scenario = Scenario(*_geometry(config, geometry_index), noise_power, config.snapshots)
    if not config.exact:
        return scenario, None
    positions = np.add.outer(scenario.layout.offsets, scenario.layout.base.positions)
    exact = exact_covariance(positions, scenario.sources, noise_power)
    _read_only(exact)
    return scenario, exact


def _check_identifiable(layout: TypeIILayout, n_sources: int, algorithm: str) -> None:
    """Raise what every draw of ``algorithm`` on ``layout`` would raise."""
    if algorithm == "gmusic":
        _check_sources(n_sources, layout.base.n_sensors)
    else:
        contiguous_half = difference_coarray(layout.base).contiguous_half
        _check_sources(n_sources, _smoothing_window(contiguous_half))


def _run_stages(config: ExperimentConfig, geometry_index: int, draws, algorithms) -> list:
    """``algorithms`` on the keyed ``draws``, (SNR, trial index) pairs of one geometry:
    one ``{algorithm: TrialResult}`` per draw, whose artifacts are its rows of the stacks.

    Only the keyed generators run per draw; every stage runs once on the block,
    ``simulate_snapshots`` included.  The stacks are read-only.
    """
    scenarios, exact = zip(*[_scenario(config, snr_db, geometry_index) for snr_db, _ in draws])
    if config.exact:
        covariances = np.stack(exact)
    else:
        keys = [trial_seed_sequence(config.seed, geometry_index, *draw) for draw in draws]
        covariances = sample_covariance(simulate_snapshots(scenarios, keys).matrices)
    base, d = scenarios[0].layout.base, scenarios[0].sources.count
    views = [(None,) * 3] * len(draws)
    stages, estimates = [], {}
    names = [name for name in ("gca", "avca") if name in algorithms]
    if names:
        signal = covariance_to_coarray(covariances, base)
        smoothed = spatial_smooth(signal)
        s = signal_subspace(smoothed, d)
        _read_only(signal.values, smoothed.root, s.signal_basis, s.noise_basis, s.eigenvalues)
        views = [(CoarraySignal(signal.lags, v), SmoothedCovariance(r), SubspaceDecomposition(*u))
                 for v, r, *u in zip(signal.values, smoothed.root, s.signal_basis,
                                     s.noise_basis, s.eigenvalues)]
        stages.append((names, s.signal_basis, tuple(range(smoothed.window))))
    if "gmusic" in algorithms:
        stages.append((["gmusic"], signal_subspace(covariances, d).signal_basis, base.positions))
    for names, bases, positions in stages:
        rules = [_RULES[name] for name in names]
        estimates.update(zip(names, _grid_estimates(rules, bases, positions, config.grid_size)))
    _read_only(covariances)
    grid, truth = grid_thetas(config.grid_size), scenarios[0].sources.theta_array
    results = [{} for _ in draws]
    for name, (values, thetas, peak_values, degraded) in estimates.items():
        for row, found in enumerate(results):
            estimate = DoaEstimate(thetas[row], peak_values[row], bool(degraded[row]))
            error = None
            if not estimate.degraded:  # estimates and sources both ascend
                error = float(np.sum((estimate.thetas - truth) ** 2))
            coarray = views[row] if name != "gmusic" else (None,) * 3
            artifacts = TrialArtifacts(covariances[row], *coarray, SpectrumGrid(grid, values[row]))
            found[name] = TrialResult(estimate, error, artifacts)
    return results


def run_trial(
    config: ExperimentConfig,
    snr_db: float,
    algorithm: str,
    trial_index: int,
    geometry_index: int = 0,
) -> TrialResult:
    """Run one trial end to end and score it against the true directions.

    Inside a sweep the trial is a row of the block of draws that ``sweep``
    has in flight; any other call runs the same stages on a block of one draw.

    Returns a :class:`TrialResult` whose ``squared_error`` is ``None`` when
    the spectrum produced fewer peaks than sources (a degraded estimate).
    Identifiability violations raise :class:`TooManySourcesError` or
    :class:`DegenerateCoarrayError` before anything is simulated, so callers
    can distinguish "model cannot work here" from "this noisy draw failed".
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if not 0 <= _integer("geometry_index", geometry_index) < len(config.geometries):
        raise ValueError(f"geometry index {geometry_index} out of range")
    (snr_db,) = _finite_reals("snr_db", [snr_db])
    if _integer("trial_index", trial_index) < 0:
        raise ValueError(f"'trial_index' must be at least 0, got {trial_index}")
    result = _installed.get((config, geometry_index, _snr_bits(snr_db), trial_index, algorithm))
    if result is None:
        scenario, _ = _scenario(config, snr_db, geometry_index)
        _check_identifiable(scenario.layout, config.n_sources, algorithm)
        (found,) = _run_stages(config, geometry_index, [(snr_db, trial_index)], [algorithm])
        result = found[algorithm]
    return result


def _run_block(config: ExperimentConfig, task) -> list:
    """One block of one geometry's draws: ``((geometry, position, SNR index), squared
    error)`` per trial and algorithm position, from one ``run_trial`` call each."""
    geometry_index, positions, draws = task
    keyed = [(config.snr_db_list[si], trial_index) for si, trial_index in draws]
    algorithms = {config.algorithms[position] for position in positions}
    results = _run_stages(config, geometry_index, keyed, algorithms)
    try:
        for found, (snr_db, trial_index) in zip(results, keyed):
            for algorithm in algorithms:
                key = (config, geometry_index, _snr_bits(snr_db), trial_index, algorithm)
                _installed[key] = found[algorithm]
        return [((geometry_index, position, si),
                 run_trial(config, snr_db, config.algorithms[position], trial_index,
                           geometry_index).squared_error)
                for (si, _), (snr_db, trial_index) in zip(draws, keyed) for position in positions]
    finally:
        _installed.clear()


def sweep(config: ExperimentConfig, out_path=None, workers: int = 1) -> list[RmseCurve]:
    """Run every (geometry, algorithm, SNR) cell of the config.

    The sweep walks each geometry's draws in (SNR, trial) order, in blocks of
    at most ``_BLOCK_VALUES // (L * max(grid_size, N * T))`` draws, so a
    block may span SNRs.  Each draw is simulated once, and every stage runs
    once per block; every algorithm reads the same draw, so matched trials see
    identical data.  An algorithm that cannot identify the sources on a
    geometry is found before anything is simulated, and its cells report
    every trial failed.  Blocks are independent, so ``workers`` spreads them
    over processes without changing any number: each trial's randomness is
    keyed by its coordinates alone.  Results come back in config order
    (geometry, then algorithm, then SNR), one row per position, so repeated
    labels, algorithms or SNRs each keep their own row.  Every geometry is
    built before ``out_path`` is checked, so one that cannot be built fails
    before any trial and leaves an existing file as it was; a bad path also
    fails before any trial.  The file is written only once every row is
    ready, so a failed sweep leaves it as it was too.

    Args:
        config: experiment description.
        out_path: optional CSV destination.
        workers: process count, at least 1, checked before ``out_path`` is
            checked; 1 means run in this process.

    Returns:
        One :class:`RmseCurve` per cell.
    """
    if _integer("workers", workers) < 1:
        raise ValueError(f"'workers' must be at least 1, got {workers}")
    layouts = [_named("geometries", config.layout, gi) for gi in range(len(config.geometries))]
    if out_path is not None:
        open(out_path, "a").close()
    draws = [(si, t) for si in range(len(config.snr_db_list)) for t in range(config.trials)]
    cells = {}
    tasks = []
    for gi, layout in enumerate(layouts):
        positions = []
        for position, algorithm in enumerate(config.algorithms):
            for si in range(len(config.snr_db_list)):
                cells[gi, position, si] = []
            try:
                _check_identifiable(layout, config.n_sources, algorithm)
                positions.append(position)
            except (TooManySourcesError, DegenerateCoarrayError):
                pass
        if positions:
            values = max(config.grid_size, layout.base.n_sensors * config.snapshots)
            size = max(1, _BLOCK_VALUES // (config.n_subarrays * values))
            tasks += [(gi, positions, draws[i : i + size]) for i in range(0, len(draws), size)]
    runner = partial(_run_block, config)
    if workers == 1:
        outcomes = [runner(task) for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # off the import path: ~15 ms
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(runner, tasks))
    for cell, error in (item for outcome in outcomes for item in outcome):
        if error is not None:
            cells[cell].append(error)
    curves = [
        RmseCurve(config.geometries[gi].label, config.algorithms[position],
                  config.snr_db_list[si], config.trials, config.trials - len(errors),
                  rmse(errors, config.n_sources))
        for (gi, position, si), errors in cells.items()
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
