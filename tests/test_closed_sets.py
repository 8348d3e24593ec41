import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference
from pinning_lab import closed_sets as cs


EMPTY = cs.ClosedSetR(np.empty(0))

finite_sets = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    min_size=0, max_size=12,
).map(lambda xs: cs.ClosedSetR(np.unique(xs)))


class TestPoints:
    @pytest.mark.parametrize("pts", [
        [np.nan, 0.5, 1.0], [0.0, np.nan, 1.0], [0.0, 0.5, np.nan], [np.nan],
        [0.0, 0.5, np.inf], [-np.inf, 0.0, 0.5], [np.inf], [-np.inf]])
    def test_non_finite_rejected(self, pts):
        with pytest.raises(ValueError, match="finite|increasing"):
            cs.ClosedSetR(pts, resolution=0.01)

    @pytest.mark.parametrize("pts", [np.zeros((2, 2)), [[0.0, 1.0]], 0.5])
    def test_not_one_dimensional_rejected(self, pts):
        with pytest.raises(ValueError, match="one-dimensional"):
            cs.ClosedSetR(pts)

    def test_empty_and_single_valid(self):
        assert len(cs.ClosedSetR([])) == 0
        assert len(cs.ClosedSetR([-1e300])) == 1


class TestGDMaps:
    def test_interior(self):
        C = cs.ClosedSetR([0.0, 1.0])
        assert cs.g_map(C, 0.5) == 0.0
        assert cs.d_map(C, 0.5) == 1.0

    def test_empty(self):
        assert cs.g_map(EMPTY, 3.0) == -np.inf
        assert cs.d_map(EMPTY, 3.0) == np.inf

    def test_right_endpoint_strict(self):
        C = cs.ClosedSetR([0.0, 1.0])
        assert cs.g_map(C, 1.0) == 1.0
        assert cs.d_map(C, 1.0) == np.inf

    def test_record_invariant(self):
        C = cs.ClosedSetR([0.0, 2.0])
        assert cs.g_map(C, 1.0) <= 1.0 < cs.d_map(C, 1.0)

    @given(finite_sets, st.floats(-40, 40))
    def test_right_continuity(self, C, t):
        # nudging t without crossing a point of C changes nothing
        d = cs.d_map(C, t)
        t2 = t + min(1e-9, (d - t) / 2 if np.isfinite(d) else 1e-9)
        if cs.d_map(C, t2) == d:  # no point crossed
            assert cs.g_map(C, t2) == cs.g_map(C, t)


class TestFmDistance:
    def test_empty_empty(self):
        assert cs.fm_distance(EMPTY, EMPTY) == 0.0

    def test_singleton_vs_empty(self):
        d = cs.fm_distance(cs.ClosedSetR([0.0]), EMPTY)
        assert d == pytest.approx(np.pi / 2, abs=1e-14)

    def test_shift_decreasing(self):
        C = cs.ClosedSetR([0.0, 1.0, 2.0])
        ds = [cs.fm_distance(C, cs.ClosedSetR(C.points + 1.0 / n))
              for n in (1, 2, 4, 8)]
        assert all(a > b for a, b in zip(ds, ds[1:]))
        assert ds[-1] < 0.2

    def test_identity(self):
        C = cs.ClosedSetR([0.3, 1.7])
        assert cs.fm_distance(C, C) == 0.0

    def test_distinct_positive(self):
        assert cs.fm_distance(cs.ClosedSetR([0.0]), cs.ClosedSetR([1.0])) > 0

    @given(finite_sets, finite_sets)
    def test_symmetry(self, A, B):
        assert cs.fm_distance(A, B) == cs.fm_distance(B, A)

    @settings(max_examples=200)
    @given(finite_sets, finite_sets, finite_sets)
    def test_triangle(self, A, B, C):
        dab = cs.fm_distance(A, B)
        dbc = cs.fm_distance(B, C)
        dac = cs.fm_distance(A, C)
        assert dac <= dab + dbc + 1e-12


class TestBoxCount:
    def test_endpoints_only(self):
        C = cs.ClosedSetR([0.0, 1.0], resolution=2.0 ** -10)
        for n in (1, 4, 8):
            assert cs.box_count(C, n, 1.0) == 2

    def test_full_grid(self):
        n = 6
        C = cs.ClosedSetR(np.arange(2 ** n + 1) / 2 ** n, resolution=2.0 ** -n)
        assert cs.box_count(C, n, 1.0) == 2 ** n

    def test_resolution_guard(self):
        C = cs.ClosedSetR([0.0, 1.0], resolution=0.25)
        with pytest.raises(ValueError):
            cs.box_count(C, 4, 1.0)

    @given(st.lists(st.one_of(st.floats(-0.5, 1.5), st.integers(0, 64).map(
        lambda k: k / 64)), max_size=40), st.integers(0, 6))
    def test_matches_unique_count(self, xs, n):
        # points at 0, at T, on block boundaries and outside [0, T]
        C = cs.ClosedSetR(np.unique(xs), resolution=2.0 ** -6)
        pts = C.points[(C.points >= 0) & (C.points <= 1)]
        j = np.ceil(pts * 2.0 ** n).astype(np.int64)
        j[pts == 0.0] = 1
        assert cs.box_count(C, n, 1.0) == len(np.unique(j))

    def test_infinite_horizon_rejected(self):
        C = cs.ClosedSetR([0.0, 1.0], resolution=0.25)
        for T in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                cs.box_count(C, 2, T)

    def test_slope_of_full_grid(self):
        C = cs.ClosedSetR(np.arange(2 ** 10 + 1) / 2 ** 10, resolution=2.0 ** -10)
        counts = {n: cs.box_count(C, n, 1.0) for n in range(4, 10)}
        assert cs.box_count_slope(counts) == pytest.approx(1.0, abs=0.01)


class TestBlockIndex:
    @pytest.mark.parametrize("T", [1.0, 0.75, 3.0, 4.0])
    def test_matches_division(self, T):
        # points exactly on the block edges k w and one ulp either side: the
        # multiply by 1/w at a power-of-two w is the division bit for bit
        for n in range(13):
            on = np.arange(2 ** n + 1) * (T * 2.0 ** -n)
            pts = np.unique(np.concatenate(
                [on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf)]))
            C = cs.ClosedSetR(pts, resolution=T * 2.0 ** -12)
            got_pts, got_j = cs._blocks_of(C, n, T)
            ref_pts, ref_j = loop_reference.block_index(pts, n, T)
            assert got_pts.tobytes() == ref_pts.tobytes()
            assert got_j.tobytes() == ref_j.tobytes()
            first = np.r_[True, ref_j[1:] != ref_j[:-1]]
            last = np.r_[ref_j[1:] != ref_j[:-1], True]
            assert cs.box_count(C, n, T) == np.count_nonzero(first)
            np.testing.assert_array_equal(
                cs.dyadic_blocks(C, n, T),
                np.column_stack([ref_pts[first], ref_pts[last]]))


class TestCoveringSum:
    def test_exponent_one_bounded(self):
        rng = np.random.default_rng(0)
        pts = np.unique(np.concatenate([[0.0, 1.0], rng.random(40)]))
        C = cs.ClosedSetR(pts, resolution=2.0 ** -12)
        for n in (2, 5, 8):
            assert cs.covering_sum(C, n, 1.0, 1.0) <= 1.0 + 1e-12

    def test_full_grid_closed_form(self):
        n, m = 4, 7  # blocks at level n, grid at level m
        C = cs.ClosedSetR(np.arange(2 ** m + 1) / 2 ** m, resolution=2.0 ** -m)
        s = cs.covering_sum(C, n, 0.5, 1.0)
        # first block holds points 0..2^-n inclusive (span 2^-n); the other
        # 2^n - 1 blocks are left-open with span 2^-n - 2^-m
        expect = (2.0 ** -n) ** 0.5 + (2 ** n - 1) * (2.0 ** -n - 2.0 ** -m) ** 0.5
        assert s == pytest.approx(expect, rel=1e-12)

    def test_singleton_blocks_contribute_zero(self):
        C = cs.ClosedSetR([0.0, 0.5, 1.0], resolution=2.0 ** -8)
        assert cs.covering_sum(C, 2, 0.5, 1.0) == 0.0

    @given(st.lists(st.one_of(st.floats(0.0, 1.0), st.integers(0, 64).map(
        lambda k: k / 64)), max_size=40), st.integers(0, 6),
        st.sampled_from([1.0, 2.5]))
    def test_blocks_are_extremes_per_block(self, xs, n, T):
        # points on block boundaries, at 0 and at T, and points that
        # underflow to block 0 beside 0
        pts = np.unique(np.r_[0.0, 5e-324, T, np.array(xs) * T])
        C = cs.ClosedSetR(pts, resolution=2.0 ** -6)
        j = np.maximum(np.ceil(pts / (T * 2.0 ** -n)), 1.0)
        expect = [(pts[j == b][0], pts[j == b][-1]) for b in np.unique(j)]
        np.testing.assert_array_equal(cs.dyadic_blocks(C, n, T), expect)
        assert cs.box_count(C, n, T) == len(expect)

    def test_requires_endpoints(self):
        C = cs.ClosedSetR([0.2, 0.8], resolution=2.0 ** -8)
        with pytest.raises(ValueError):
            cs.covering_sum(C, 2, 0.5, 1.0)
