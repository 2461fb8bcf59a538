"""Sparse linear array geometries, difference coarrays, and multi-subarray layouts.

Sensor positions are non-negative integers in units of the minimum
inter-sensor spacing (half a wavelength for the narrowband model used
elsewhere in this package), canonicalized so the first sensor sits at 0.
"""

from __future__ import annotations

import numbers
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "ArrayGeometry",
    "CoarrayProfile",
    "TypeIILayout",
    "build_ula",
    "build_nested2",
    "build_super_nested2",
    "build_mra",
    "difference_coarray",
    "compose_type2",
    "dof_bound",
    "MRA_SENSOR_LIMIT",
]

#: Largest sensor count for either hole-free search (minimum-redundancy and
#: super-nested): both grow combinatorially with it, to seconds past 10.
MRA_SENSOR_LIMIT = 10


def _integer(key: str, value) -> int:
    """``value`` as an int; bools and floats are rejected, naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return int(value)


def _as_positions(geometry, dtype=np.int64) -> np.ndarray:
    """Positions of an :class:`ArrayGeometry` or of a raw position sequence.

    Raises:
        ValueError: naming the first position that is not a whole number
            (whole-valued floats such as ``3.0`` are accepted).
    """
    if isinstance(geometry, ArrayGeometry):
        geometry = geometry.positions
    positions = list(geometry)
    values = np.asarray(positions, dtype=np.float64)
    whole = np.isfinite(values) & (values == np.round(values))
    if not whole.all():
        bad = np.asarray(positions, dtype=object).ravel()[int(np.argmin(whole))]
        raise ValueError(f"sensor positions must be whole numbers, got {bad!r}")
    return np.asarray(positions, dtype=dtype)


_LagPlan = namedtuple("_LagPlan", "lags first inverse counts rows cols binning")


@lru_cache(maxsize=64)
def _lag_plan(positions: tuple[int, ...]) -> _LagPlan:
    """Which sensor pairs realise which lag: :func:`numpy.unique` of the pair lags
    ``p_m - p_n`` in column-major order, the positive-lag pairs ``(rows, cols)`` in
    that order, and ``binning[q, k - 1] = 1`` for pair ``q`` at lag ``k`` (read-only)."""
    pos = np.asarray(positions, dtype=np.int64)
    lag_of_pair = (pos[:, None] - pos[None, :]).ravel(order="F")
    lags, first, inverse, counts = np.unique(
        lag_of_pair, return_index=True, return_inverse=True, return_counts=True
    )
    pairs = np.flatnonzero(lag_of_pair > 0)
    binning = np.zeros((pairs.size, int(lag_of_pair.max(initial=0))))
    binning[np.arange(pairs.size), lag_of_pair[pairs] - 1] = 1.0
    arrays = (first, inverse, counts, pairs % pos.size, pairs // pos.size, binning)
    for array in arrays:
        array.setflags(write=False)
    return _LagPlan(tuple(lags.tolist()), *arrays)


def _contiguous_half(lags) -> int:
    """Largest c such that every lag in [-c, c] is in ``lags`` (a set or a dict)."""
    c = 0
    while (c + 1) in lags and -(c + 1) in lags:
        c += 1
    return c


@dataclass(frozen=True)
class ArrayGeometry:
    """A sparse linear array in canonical form.

    Positions are strictly increasing integers with ``positions[0] == 0``.
    """

    positions: tuple[int, ...]

    def __post_init__(self):
        pos = tuple(_as_positions(self.positions).tolist())
        object.__setattr__(self, "positions", pos)
        if not pos:
            raise ValueError("an array needs at least one sensor")
        if pos[0] != 0:
            raise ValueError("canonical form places the first sensor at position 0")
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise ValueError("sensor positions must be strictly increasing")

    @classmethod
    def canonical(cls, positions) -> "ArrayGeometry":
        """Sort and shift arbitrary integer positions into canonical form."""
        pos = sorted(_as_positions(positions).tolist())
        if len(set(pos)) != len(pos):
            raise ValueError("duplicate sensor positions")
        return cls(tuple(p - pos[0] for p in pos))

    @property
    def n_sensors(self) -> int:
        return len(self.positions)

    @property
    def aperture(self) -> int:
        """Largest position, i.e. the array span in spacing units."""
        return self.positions[-1]

    def position_array(self) -> np.ndarray:
        return np.asarray(self.positions, dtype=np.int64)


@dataclass(frozen=True)
class CoarrayProfile:
    """Difference coarray of a geometry: the lag set and its weight function."""

    lags: tuple[int, ...]
    weights: dict[int, int]

    def weight(self, lag: int) -> int:
        """Number of sensor pairs realizing ``lag``; 0 for missing lags."""
        return self.weights.get(int(lag), 0)

    @property
    def sdof(self) -> int:
        """Subarray degrees of freedom: the number of distinct lags."""
        return len(self.lags)

    @cached_property
    def contiguous_half(self) -> int:
        """Largest c such that every lag in [-c, c] is present."""
        return _contiguous_half(self.weights)

    @property
    def is_hole_free(self) -> bool:
        return self.contiguous_half == self.lags[-1]


def difference_coarray(geometry) -> CoarrayProfile:
    """Compute the difference coarray of a geometry.

    Args:
        geometry: :class:`ArrayGeometry` or any sequence of integer positions.

    Returns:
        :class:`CoarrayProfile` with lags sorted ascending and the weight
        (pair multiplicity) of each lag.
    """
    plan = _lag_plan(tuple(_as_positions(geometry).tolist()))
    return CoarrayProfile(plan.lags, dict(zip(plan.lags, plan.counts.tolist())))


def build_ula(n: int) -> ArrayGeometry:
    """Uniform linear array with ``n`` sensors at 0..n-1."""
    if n < 1:
        raise ValueError(f"sensor count must be positive, got {n}")
    return ArrayGeometry(tuple(range(n)))


def build_nested2(n1: int, n2: int) -> ArrayGeometry:
    """Two-level nested array: a dense level of ``n1`` sensors feeding a
    sparse level of ``n2`` sensors at pitch ``n1 + 1``.

    Positions are ``{0..n1-1} U {k(n1+1)-1 : k = 1..n2}``; the difference
    coarray is hole free with ``2*n2*(n1+1) - 1`` distinct lags.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError(f"both level sizes must be positive, got ({n1}, {n2})")
    inner = range(n1)
    outer = (k * (n1 + 1) - 1 for k in range(1, n2 + 1))
    return ArrayGeometry(tuple(sorted({*inner, *outer})))


def _hole_free_arrays(n_sensors: int, aperture: int):
    """Yield, once each and in no set order, every n-sensor array spanning
    {0..aperture} whose difference coarray is hole free.

    Arrays are sorted position tuples.  Lag coverage is a bitmask over lags
    1..aperture.  While lags are missing, the search branches on the ways to
    realise the largest missing lag (the lag with the fewest candidate sensor
    pairs) and prunes when the sensors left cannot add enough pairs to plug
    the holes; once every lag is covered, it adds the remaining sensors at
    any free positions.  A seen-set of position masks expands each position
    set at most once, which also keeps the yields distinct.
    """
    if n_sensors == 1:
        if aperture == 0:
            yield (0,)
        return
    if aperture < n_sensors - 1 or aperture > n_sensors * (n_sensors - 1) // 2:
        return
    target = (1 << (aperture + 1)) - 2
    seen = set()

    def extend(posmask, positions, covered):
        if posmask in seen:
            return
        seen.add(posmask)
        count = len(positions)
        holes = target & ~covered
        if not holes:
            if count == n_sensors:
                yield tuple(sorted(positions))
                return
            for x in range(1, aperture):
                if not posmask & (1 << x):
                    yield from extend(posmask | 1 << x, (*positions, x), covered)
            return
        remaining = n_sensors - count
        if holes.bit_count() > remaining * count + remaining * (remaining - 1) // 2:
            return
        g = holes.bit_length() - 1
        for a in range(aperture - g + 1):
            missing_ends = [x for x in (a, a + g) if not posmask & (1 << x)]
            if not missing_ends or count + len(missing_ends) > n_sensors:
                continue
            newmask, newcov = posmask, covered
            newpos = list(positions)
            for x in missing_ends:
                for q in newpos:
                    newcov |= 1 << abs(x - q)
                newpos.append(x)
                newmask |= 1 << x
            yield from extend(newmask, tuple(newpos), newcov)

    yield from extend((1 << 0) | (1 << aperture), (0, aperture), 1 << aperture)


@lru_cache(maxsize=None)
def build_mra(n: int) -> ArrayGeometry:
    """Minimum-redundancy array by exhaustive search.

    Finds the ``n``-sensor array of maximal aperture whose difference coarray
    is hole free, i.e. the classical restricted MRA.  Apertures are scanned
    downward from the pair-count bound ``n(n-1)/2``; the first aperture with
    any solution wins, and among its solutions the lexicographically smallest
    position tuple.  Results are cached.

    Args:
        n: sensor count, ``1 <= n <= MRA_SENSOR_LIMIT``.

    Raises:
        ValueError: for non-positive ``n`` or ``n`` beyond the search limit.
    """
    if n < 1:
        raise ValueError(f"sensor count must be positive, got {n}")
    if n > MRA_SENSOR_LIMIT:
        raise ValueError(
            f"exhaustive MRA search supports up to {MRA_SENSOR_LIMIT} sensors, got {n}"
        )
    for aperture in range(n * (n - 1) // 2, n - 2, -1):
        found = min(_hole_free_arrays(n, aperture), default=None)
        if found is not None:
            return ArrayGeometry(found)
    raise AssertionError("unreachable: the ULA aperture is always feasible")


def _positive_weights(positions: tuple[int, ...], aperture: int) -> tuple[int, ...]:
    counts = [0] * (aperture + 1)
    for i, p in enumerate(positions):
        for q in positions[:i]:
            counts[p - q] += 1
    return tuple(counts[1:])


@lru_cache(maxsize=None)
def build_super_nested2(n1: int, n2: int) -> ArrayGeometry:
    """Second-order super-nested array for the parent nested pair (n1, n2).

    Rearranges the sensors of :func:`build_nested2` ``(n1, n2)`` without
    touching its difference coarray: the result has the same sensor count,
    the same aperture, and an identical (hole-free) lag set, but concentrates
    fewer sensor pairs at small separations, which lowers mutual coupling.
    Among all hole-free arrays of that size and aperture the builder picks
    the one whose positive-lag weight vector ``(w(1), w(2), ...)`` is
    lexicographically smallest, breaking remaining ties by the smallest
    position tuple, so the construction is deterministic.

    Args:
        n1: dense-level size of the parent nested array, ``n1 >= 3``.
        n2: sparse-level size of the parent nested array, ``n2 >= 2``;
            ``n1 + n2 <= MRA_SENSOR_LIMIT``.

    Raises:
        ValueError: for out-of-range level sizes or parents with more than
            ``MRA_SENSOR_LIMIT`` sensors.
    """
    if n1 < 3 or n2 < 2:
        raise ValueError(
            f"second-order rearrangement needs n1 >= 3 and n2 >= 2, got ({n1}, {n2})"
        )
    if n1 + n2 > MRA_SENSOR_LIMIT:
        raise ValueError(
            f"rearrangement search supports up to {MRA_SENSOR_LIMIT} sensors, got {n1 + n2}"
        )
    parent = build_nested2(n1, n2)
    aperture = parent.aperture
    # The parent itself is hole free, so there is always a candidate.
    best = min(
        _hole_free_arrays(parent.n_sensors, aperture),
        key=lambda c: (_positive_weights(c, aperture), c),
    )
    return ArrayGeometry(best)


@dataclass(frozen=True)
class TypeIILayout:
    """Partially calibrated layout: L translated copies of a base subarray.

    Subarray ``l`` (0-based) occupies ``offset_l + base.positions`` with
    ``offset_l = l * (base.aperture + spacing)``, so consecutive copies are
    separated by ``spacing`` empty slots and never overlap.
    """

    base: ArrayGeometry
    n_subarrays: int
    spacing: int

    def __post_init__(self):
        object.__setattr__(self, "n_subarrays", _integer("n_subarrays", self.n_subarrays))
        object.__setattr__(self, "spacing", _integer("spacing", self.spacing))
        if self.n_subarrays < 1:
            raise ValueError(f"need at least one subarray, got {self.n_subarrays}")
        if self.spacing < 1:
            raise ValueError(f"inter-subarray spacing must be >= 1, got {self.spacing}")

    @property
    def offsets(self) -> tuple[int, ...]:
        pitch = self.base.aperture + self.spacing
        return tuple(l * pitch for l in range(self.n_subarrays))

    def subarray_positions(self, l: int) -> tuple[int, ...]:
        """Absolute positions of subarray ``l`` within the whole array."""
        off = self.offsets[l]
        return tuple(off + p for p in self.base.positions)

    @cached_property
    def whole_array(self) -> ArrayGeometry:
        pos = []
        for l in range(self.n_subarrays):
            pos.extend(self.subarray_positions(l))
        return ArrayGeometry(tuple(sorted(pos)))


def compose_type2(base: ArrayGeometry, n_subarrays: int, spacing: int = 1) -> TypeIILayout:
    """Tile ``n_subarrays`` copies of ``base`` with ``spacing`` empty slots between."""
    return TypeIILayout(base=base, n_subarrays=n_subarrays, spacing=spacing)


def dof_bound(n_subarrays: int, sdof: int, spacing: int, aperture: int) -> int:
    """Distinct-lag count of the whole Type-II array, from subarray quantities.

    For spacing ``mu <= aperture`` the whole-array difference coarray has at
    most ``L*(sdof - 1) + 2*(L - 1)*mu + 1`` distinct lags, achieved with
    equality when the base coarray is hole free.  For ``mu > aperture`` the
    per-pair lag blocks are disjoint and the count is exactly
    ``(2L - 1) * sdof``.

    Args:
        n_subarrays: number of identical subarrays L.
        sdof: distinct-lag count of one subarray (odd by symmetry).
        spacing: empty slots between consecutive subarrays (mu >= 1).
        aperture: base subarray aperture.
    """
    for key, value in [("n_subarrays", n_subarrays), ("sdof", sdof), ("spacing", spacing),
                       ("aperture", aperture)]:
        _integer(key, value)
    if n_subarrays < 1 or spacing < 1 or aperture < 0:
        raise ValueError("layout parameters must be positive")
    if sdof < 1 or sdof % 2 == 0:
        raise ValueError(f"a difference coarray has an odd lag count, got {sdof}")
    if spacing <= aperture:
        return n_subarrays * (sdof - 1) + 2 * (n_subarrays - 1) * spacing + 1
    return (2 * n_subarrays - 1) * sdof
