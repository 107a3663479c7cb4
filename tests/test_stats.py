import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ricensim.stats import pearson, zscore_by_group


def well_resolved(values) -> bool:
    """The spread of ``values`` is a million ulps of their magnitude or more,
    and its square is a normal float, so float64 resolves every deviation
    from the mean to about 1e-6."""
    v = np.asarray(values, dtype=np.float64)
    spread = float(np.ptp(v))
    return spread > 1e-150 and spread > 1e6 * np.finfo(np.float64).eps * float(np.abs(v).max())


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_computed_value(self):
        # cov = 1.0, both stds sqrt(1.25) -> r = 0.8
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            pearson([1], [2])

    def test_zero_variance_is_absent(self):
        assert pearson([1, 1, 1], [1, 2, 3]) is None
        assert pearson([1, 2, 3], [5, 5, 5]) is None

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=3, max_size=40),
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=-10.0, max_value=10.0),
    )
    @settings(max_examples=100)
    def test_affine_invariance(self, xs, scale, shift):
        ys = [scale * x + shift for x in xs]
        # ``scale * x + shift`` rounds each y to float64; where the spread of
        # ys is only a few ulps of their magnitude (xs=[0, 0, 7.4e-107],
        # shift=5.7e-92) that rounding, not pearson, decides the correlation.
        assume(well_resolved(xs) and well_resolved(ys))
        r = pearson(xs, ys)
        if r is not None:
            assert r == pytest.approx(1.0, abs=1e-6)

    def test_affine_invariance_precondition(self):
        # The draw that once failed: ys differ from ``shift`` by a few ulps,
        # so their correlation with xs is 0.998, and the property skips it.
        xs = [0.0, 0.0, 7.395239102886132e-107]
        ys = [x + 5.665712317520721e-92 for x in xs]
        assert pearson(xs, ys) < 0.999
        assert well_resolved(xs) and not well_resolved(ys)
        assert well_resolved([1.0, 2.0, 4.0]) and not well_resolved([1.0, 1.0 + 2**-52])


class TestZScoreByGroup:
    def test_single_group_population_std(self):
        z = zscore_by_group([1.0, 2.0, 3.0], [0, 0, 0])
        assert z == pytest.approx([-1.224744871391589, 0.0, 1.224744871391589], abs=1e-12)

    def test_constant_group_maps_to_zero(self):
        assert np.array_equal(zscore_by_group([5.0, 5.0, 5.0], [0, 0, 0]), np.zeros(3))

    def test_singleton_group_maps_to_zero(self):
        z = zscore_by_group([7.0, 1.0, 2.0], [0, 1, 1])
        assert z[0] == 0.0
        assert z[1] != 0.0

    def test_groups_normalized_independently(self):
        values = np.array([1.0, 2.0, 3.0, 100.0, 200.0, 300.0])
        groups = np.array([0, 0, 0, 1, 1, 1])
        z = zscore_by_group(values, groups)
        assert abs(z[:3].mean()) < 1e-12
        assert abs(z[3:].mean()) < 1e-12
        assert z[:3] == pytest.approx(z[3:], abs=1e-9)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            zscore_by_group([1.0, 2.0], [0])
