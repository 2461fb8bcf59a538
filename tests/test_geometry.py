"""Geometry and coarray combinatorics, checked against brute-force oracles."""

import itertools

import numpy as np
import pytest

from sparsedoa import geometry
from sparsedoa.geometry import (
    MRA_SENSOR_LIMIT,
    ArrayGeometry,
    CoarrayProfile,
    _hole_free_arrays,
    build_mra,
    build_nested2,
    build_super_nested2,
    build_ula,
    compose_type2,
    difference_coarray,
    dof_bound,
)


def brute_lags(positions):
    """Oracle: the difference set computed the obvious quadratic way."""
    return sorted({a - b for a in positions for b in positions})


def brute_weights(positions):
    weights = {}
    for a in positions:
        for b in positions:
            weights[a - b] = weights.get(a - b, 0) + 1
    return weights


def is_hole_free_oracle(positions):
    aperture = max(positions) - min(positions)
    return set(brute_lags(positions)) == set(range(-aperture, aperture + 1))


def mra_oracle(n):
    """Exhaustive max-aperture hole-free search over all sensor placements.

    Feasible only for small n; used to validate the pruned search.
    """
    best = None
    for aperture in range(n * (n - 1) // 2, -1, -1):
        if n == 1:
            return (0,)
        for interior in itertools.combinations(range(1, aperture), n - 2):
            candidate = (0, *interior, aperture)
            if is_hole_free_oracle(candidate):
                if best is None or candidate < best:
                    best = candidate
        if best is not None:
            return best
    return best


class TestArrayGeometry:
    def test_validation(self):
        with pytest.raises(ValueError):
            ArrayGeometry(())
        with pytest.raises(ValueError):
            ArrayGeometry((1, 2))  # must start at 0
        with pytest.raises(ValueError):
            ArrayGeometry((0, 3, 2))  # must increase

    def test_canonical_shifts_and_sorts(self):
        geom = ArrayGeometry.canonical([9, 4, 11])
        assert geom.positions == (0, 5, 7)
        with pytest.raises(ValueError):
            ArrayGeometry.canonical([1, 1, 4])

    def test_rejects_non_integer_positions(self):
        with pytest.raises(ValueError, match="1.5"):
            ArrayGeometry((0, 1.5, 2.7))
        assert ArrayGeometry((0.0, 1.0, 3.0)).positions == (0, 1, 3)

    def test_canonical_rejects_non_integer_positions(self):
        with pytest.raises(ValueError, match="0.5"):
            ArrayGeometry.canonical((0.5, 3.9))
        assert ArrayGeometry.canonical((4.0, 1.0)).positions == (0, 3)

    def test_basic_properties(self):
        geom = ArrayGeometry((0, 1, 4, 6))
        assert geom.n_sensors == 4
        assert geom.aperture == 6
        assert np.array_equal(geom.position_array(), [0, 1, 4, 6])


class TestDifferenceCoarray:
    @pytest.mark.parametrize(
        "positions",
        [(0, 1), (0, 2, 3), (0, 1, 4, 9, 11), (0, 5, 7, 13, 16, 17), (3, 0, 1), (0, 2, 2, 5)],
    )
    def test_lags_match_oracle(self, positions):
        profile = difference_coarray(positions)
        assert list(profile.lags) == brute_lags(positions)

    @pytest.mark.parametrize("seed", range(5))
    def test_weights_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        raw = np.unique(rng.integers(0, 40, size=8))
        positions = tuple(int(p - raw[0]) for p in raw)
        profile = difference_coarray(positions)
        oracle = brute_weights(positions)
        assert {lag: profile.weight(lag) for lag in profile.lags} == oracle
        # Every position pair is counted exactly once.
        assert sum(oracle.values()) == len(positions) ** 2

    def test_weight_defaults_to_zero_on_holes(self):
        profile = difference_coarray((0, 1, 4))
        assert profile.weight(2) == 0
        assert profile.weight(4) == 1

    def test_contiguous_half(self):
        assert difference_coarray((0, 1, 4)).contiguous_half == 1
        assert difference_coarray((0, 2)).contiguous_half == 0
        assert difference_coarray((0, 1, 2)).contiguous_half == 2

    def test_hole_detection(self):
        assert difference_coarray((0, 1, 3)).is_hole_free
        assert not difference_coarray((0, 1, 5)).is_hole_free

    def test_sdof_is_odd(self):
        for positions in [(0, 1), (0, 3, 7), (0, 1, 4, 6)]:
            assert difference_coarray(positions).sdof % 2 == 1

    def test_rejects_non_integer_positions(self):
        with pytest.raises(ValueError, match="1.5"):
            difference_coarray((0, 1.5, 2.7))
        assert difference_coarray((0.0, 1.0, 3.0)).lags == difference_coarray((0, 1, 3)).lags


class TestUla:
    @pytest.mark.parametrize("n", [1, 2, 5, 21])
    def test_positions_and_sdof(self, n):
        geom = build_ula(n)
        assert geom.positions == tuple(range(n))
        assert difference_coarray(geom).sdof == 2 * n - 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_ula(0)


class TestNested2:
    @pytest.mark.parametrize("n1,n2", [(1, 1), (2, 2), (4, 3), (3, 4), (5, 5)])
    def test_sdof_closed_form(self, n1, n2):
        geom = build_nested2(n1, n2)
        profile = difference_coarray(geom)
        assert geom.n_sensors == n1 + n2
        assert profile.sdof == 2 * n2 * (n1 + 1) - 1
        assert profile.is_hole_free

    def test_known_layout(self):
        assert build_nested2(4, 3).positions == (0, 1, 2, 3, 4, 9, 14)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            build_nested2(0, 3)
        with pytest.raises(ValueError):
            build_nested2(3, 0)


def hole_free_oracle(n, aperture):
    """Every n-sensor hole-free array spanning {0..aperture}, by brute force."""
    if n == 1:
        return {(0,)} if aperture == 0 else set()
    if aperture == 0:
        return set()
    candidates = (
        (0, *mid, aperture) for mid in itertools.combinations(range(1, aperture), n - 2)
    )
    return {c for c in candidates if is_hole_free_oracle(c)}


class TestHoleFreeArrays:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_brute_force(self, n):
        for aperture in range(18):
            found = list(_hole_free_arrays(n, aperture))
            assert len(found) == len(set(found)), (n, aperture)
            assert set(found) == hole_free_oracle(n, aperture), (n, aperture)


class TestSuperNested2:
    @pytest.mark.parametrize("n1,n2", [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2)])
    def test_matches_brute_force_selection(self, n1, n2):
        """Smallest positive-lag weight vector, then smallest positions."""
        parent = build_nested2(n1, n2)

        def key(positions):
            weights = brute_weights(positions)
            return [weights.get(k, 0) for k in range(1, parent.aperture + 1)], positions

        expected = min(hole_free_oracle(parent.n_sensors, parent.aperture), key=key)
        assert build_super_nested2(n1, n2).positions == expected

    @pytest.mark.parametrize(
        "n1,n2,expected",
        [
            (3, 2, (0, 1, 3, 5, 7)),
            (3, 3, (0, 1, 4, 6, 9, 11)),
            (4, 3, (0, 1, 4, 7, 9, 12, 14)),
            (5, 4, (0, 1, 4, 8, 12, 16, 18, 21, 23)),
        ],
    )
    def test_frozen_layouts(self, n1, n2, expected):
        assert build_super_nested2(n1, n2).positions == expected

    @pytest.mark.parametrize("n1,n2", [(3, 2), (3, 3), (4, 3), (5, 4)])
    def test_preserves_parent_coarray(self, n1, n2):
        """Rearrangement keeps the coarray while shrinking small-lag weights."""
        nested = difference_coarray(build_nested2(n1, n2))
        rearranged = difference_coarray(build_super_nested2(n1, n2))
        assert rearranged.lags == nested.lags
        assert rearranged.sdof == nested.sdof
        assert rearranged.weight(1) < nested.weight(1)

    def test_same_sensor_count_and_aperture(self):
        nested = build_nested2(4, 3)
        rearranged = build_super_nested2(4, 3)
        assert rearranged.n_sensors == nested.n_sensors
        assert rearranged.aperture == nested.aperture

    def test_rejects_small_inner_level(self):
        with pytest.raises(ValueError):
            build_super_nested2(2, 3)

    @pytest.mark.parametrize("n1,n2", [(9, 2), (30, 2)])
    def test_rejects_parents_beyond_the_sensor_limit(self, monkeypatch, n1, n2):
        def no_search(*args):
            raise AssertionError("searched a parent beyond the limit")

        monkeypatch.setattr(geometry, "_hole_free_arrays", no_search)
        with pytest.raises(ValueError, match=f"up to {MRA_SENSOR_LIMIT} sensors"):
            build_super_nested2(n1, n2)


class TestMra:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_exhaustive_oracle(self, n):
        assert build_mra(n).positions == mra_oracle(n)

    @pytest.mark.parametrize(
        "n,expected",
        [
            (7, (0, 1, 2, 3, 8, 13, 17)),
            (8, (0, 1, 2, 11, 15, 18, 21, 23)),
            (9, (0, 1, 2, 14, 18, 21, 24, 27, 29)),
            (10, (0, 1, 3, 6, 13, 20, 27, 31, 35, 36)),
        ],
    )
    def test_frozen_layouts(self, n, expected):
        assert build_mra(n).positions == expected

    @pytest.mark.parametrize("n", range(2, 11))
    def test_hole_free_and_no_larger_aperture(self, n):
        geom = build_mra(n)
        profile = difference_coarray(geom)
        assert profile.is_hole_free
        assert profile.sdof == 2 * geom.aperture + 1

    def test_known_apertures(self):
        apertures = [build_mra(n).aperture for n in range(1, 11)]
        assert apertures == [0, 1, 3, 6, 9, 13, 17, 23, 29, 36]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            build_mra(0)
        with pytest.raises(ValueError):
            build_mra(11)


class TestTypeIILayout:
    def test_offsets_and_positions(self):
        layout = compose_type2(build_nested2(4, 3), 3, spacing=1)
        assert layout.offsets == (0, 15, 30)
        assert layout.subarray_positions(1) == (15, 16, 17, 18, 19, 24, 29)
        whole = layout.whole_array
        assert whole.n_sensors == 21
        assert whole.positions[:8] == (0, 1, 2, 3, 4, 9, 14, 15)

    def test_single_subarray(self):
        layout = compose_type2(build_ula(4), 1)
        assert layout.offsets == (0,)
        assert layout.whole_array.positions == (0, 1, 2, 3)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            compose_type2(build_ula(4), 0)
        with pytest.raises(ValueError):
            compose_type2(build_ula(4), 2, spacing=0)

    @pytest.mark.parametrize(
        "key,n_subarrays,spacing",
        [("n_subarrays", 2.5, 1), ("n_subarrays", True, 1), ("n_subarrays", "2", 1),
         ("spacing", 2, 1.5), ("spacing", 2, False), ("spacing", 2, 2.0)],
    )
    def test_counts_must_be_integers(self, key, n_subarrays, spacing):
        with pytest.raises(ValueError, match=f"^'{key}' must be an integer"):
            compose_type2(build_ula(3), n_subarrays, spacing)

    def test_numpy_counts_become_ints(self):
        layout = compose_type2(build_ula(3), np.int64(2), np.uint8(1))
        assert type(layout.n_subarrays) is int and type(layout.spacing) is int
        assert layout.offsets == (0, 3)


class TestDofBound:
    @pytest.mark.parametrize(
        "build,args",
        [
            (build_ula, (7,)),
            (build_ula, (4,)),
            (build_nested2, (4, 3)),
            (build_nested2, (3, 2)),
            (build_super_nested2, (4, 3)),
            (build_mra, (7,)),
            (build_mra, (5,)),
        ],
    )
    @pytest.mark.parametrize("n_subarrays", [1, 2, 3])
    @pytest.mark.parametrize("spacing", [1, 2])
    def test_bound_is_exact_for_hole_free_bases(self, build, args, n_subarrays, spacing):
        """For these layouts the whole-array coarray size meets the bound."""
        base = build(*args)
        if spacing > base.aperture:
            pytest.skip("spacing exceeds aperture; covered separately")
        layout = compose_type2(base, n_subarrays, spacing)
        profile = difference_coarray(build(*args))
        predicted = dof_bound(n_subarrays, profile.sdof, spacing, base.aperture)
        assert len(brute_lags(layout.whole_array.positions)) == predicted

    def test_disjoint_regime(self):
        """Spacing beyond the aperture leaves per-subarray coarrays disjoint."""
        base = build_ula(8)
        layout = compose_type2(base, 2, spacing=8)
        predicted = dof_bound(2, 15, 8, 7)
        assert predicted == 45
        assert len(brute_lags(layout.whole_array.positions)) == predicted

    def test_worked_example(self):
        assert dof_bound(3, 29, 1, 14) == 89

    def test_rejects_even_sdof(self):
        with pytest.raises(ValueError):
            dof_bound(3, 28, 1, 14)

    @pytest.mark.parametrize(
        "key,args",
        [("n_subarrays", (2.5, 5, 1, 2)), ("n_subarrays", (True, 5, 1, 2)),
         ("sdof", (3, 29.0, 1, 14)), ("spacing", (3, 29, 1.5, 14)),
         ("spacing", (3, 29, True, 14)), ("aperture", (3, 29, 1, "14"))],
    )
    def test_counts_must_be_integers(self, key, args):
        with pytest.raises(ValueError, match=f"^'{key}' must be an integer"):
            dof_bound(*args)


class TestCoarrayProfileType:
    def test_is_frozen_value_object(self):
        profile = difference_coarray((0, 1, 3))
        assert isinstance(profile, CoarrayProfile)
        with pytest.raises(AttributeError):
            profile.lags = ()
