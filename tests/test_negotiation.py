import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricensim.actions import NUM_LEVELS
from ricensim.errors import InvalidActionError, ProtocolError
from ricensim.negotiation import build_mask, commitments_from_arrays, masked_sample


def max_level_oracle_mean(n: int, levels: int = 10) -> float:
    """E[max of n iid uniform{0..levels-1}] via the exact CDF sum."""
    return sum(
        k * (((k + 1) / levels) ** n - (k / levels) ** n) for k in range(levels)
    )


class TestCommitments:
    def test_max_of_accepted(self):
        # Every region accepts every proposal, so all commit to the maximum.
        proposals = np.array([3, 9, 5])
        committed = commitments_from_arrays(proposals)
        assert committed.shape == proposals.shape[:-1] and committed == 9

    def test_all_accept_fast_path_matches_matrix_path(self):
        # Region i commits to the maximum proposal it accepts; with an
        # all-ones acceptance matrix that is the overall maximum.
        rng = np.random.default_rng(0)
        levels = rng.integers(0, 10, size=8)
        accept = np.ones((8, 8), dtype=bool)
        by_matrix = np.maximum(np.where(accept, levels[None, :], -1).max(axis=1), 0)
        assert np.all(by_matrix == commitments_from_arrays(levels))

    def test_batched_proposals_commit_per_row(self):
        proposals = np.random.default_rng(1).integers(0, 10, size=(3, 5, 4))
        batched = commitments_from_arrays(proposals)
        assert batched.shape == proposals.shape[:-1]
        for index in np.ndindex(3, 5):
            assert np.array_equal(batched[index], commitments_from_arrays(proposals[index]))


class TestBuildMask:
    def test_commitment_floor(self):
        mask = build_mask(7)
        assert type(mask) is int and mask == 7

    def test_zero_commitment_unconstrained(self):
        assert build_mask(0) == 0

    def test_top_commitment_single_level(self):
        assert build_mask(9) == NUM_LEVELS - 1

    def test_empty_mask_rejected(self):
        # A commitment outside the level range would leave no level permitted.
        for bad in (-1, NUM_LEVELS):
            with pytest.raises(InvalidActionError):
                build_mask(bad)


class TestMaskedSample:
    def test_single_permitted_level(self):
        rng = np.random.default_rng(1)
        assert masked_sample(build_mask(9), rng) == 9

    def test_deterministic_given_state(self):
        draws1 = [masked_sample(0, np.random.default_rng(42)) for _ in range(5)]
        draws2 = [masked_sample(0, np.random.default_rng(42)) for _ in range(5)]
        assert draws1 == draws2

    def test_uniform_over_permitted(self):
        floor = build_mask(7)  # permits 7, 8, 9
        rng = np.random.default_rng(123)
        draws = np.array([masked_sample(floor, rng) for _ in range(30_000)])
        for lvl in (7, 8, 9):
            assert abs((draws == lvl).mean() - 1 / 3) < 0.01

    def test_unsatisfiable_mask_rejected(self):
        for bad in (-1, NUM_LEVELS):
            with pytest.raises(ProtocolError):
                masked_sample(bad, np.random.default_rng(0))

    @given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=100)
    def test_never_samples_forbidden_level(self, commitment, seed):
        floor = build_mask(commitment)
        assert masked_sample(floor, np.random.default_rng(seed)) >= commitment

    def test_same_draws_as_indexing_the_permitted_levels(self):
        # The floor draw consumes the generator exactly like picking a
        # uniform index into the permitted levels, so episodes recorded
        # with boolean masks replay bit for bit.
        floors = np.random.default_rng(5).integers(0, NUM_LEVELS, size=2_000)
        ours, indexed = np.random.default_rng(6), np.random.default_rng(6)
        for floor in floors.tolist():
            permitted = np.flatnonzero(np.arange(NUM_LEVELS) >= floor)
            expected = int(permitted[indexed.integers(permitted.size)])
            got = masked_sample(floor, ours)
            assert type(got) is int and got == expected

    @pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "half-word buffered"])
    def test_leaves_the_state_of_the_plain_draw(self, buffered):
        # The top floor returns without a draw: numpy's draw over one level
        # consumes no state, even with a 32-bit half-word buffered.
        for floor in range(NUM_LEVELS):
            ours, plain = np.random.default_rng(11), np.random.default_rng(11)
            if buffered:
                ours.integers(NUM_LEVELS), plain.integers(NUM_LEVELS)
                assert ours.bit_generator.state["has_uint32"] == 1
            got = masked_sample(floor, ours)
            assert got == floor + plain.integers(NUM_LEVELS - floor)
            assert ours.bit_generator.state == plain.bit_generator.state


class TestMaxOfDrawsInflation:
    def test_exact_oracle_values(self):
        # Frozen from exact rational evaluation of the CDF sum; the
        # complementary tail-sum formula agrees to one ulp.
        assert math.isclose(max_level_oracle_mean(27), 8.939365668036395, rel_tol=1e-12)
        tail = sum(1 - (k / 10) ** 27 for k in range(1, 10))
        assert math.isclose(max_level_oracle_mean(27), tail, rel_tol=1e-12)
        assert math.isclose(max_level_oracle_mean(1), 4.5, rel_tol=1e-12)
        assert math.isclose(1 - 0.9**27, 0.94185026299696, rel_tol=1e-12)

    def test_empirical_max_matches_oracle(self):
        rng = np.random.default_rng(7)
        draws = rng.integers(0, 10, size=(20_000, 27))
        committed = commitments_from_arrays(draws)
        assert committed.shape == draws.shape[:-1]
        assert abs(committed.mean() - max_level_oracle_mean(27)) < 0.05
        assert abs((committed == 9).mean() - (1 - 0.9**27)) < 0.01
