import copy
import dataclasses
import pickle
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ricensim import SimParams, VariantConfig
from ricensim.actions import (
    ACTION_DIMENSIONS,
    RATE_NAMES,
    ActionSet,
    JointActions,
    check_level,
    levels_to_rates,
)
from ricensim.engine import Observation, reset, step
from ricensim.errors import ConfigError, InvalidActionError
from ricensim.policies import FixedLevelsPolicy


class TestLevelToRate:
    """The level -> rate map ``levels_to_rates`` and the level check."""

    def test_maximum_level_is_point_nine(self):
        assert levels_to_rates(np.array([9]))[0] == 0.9

    def test_zero_level(self):
        assert levels_to_rates(np.array([0]))[0] == 0.0

    def test_savings_style_level(self):
        assert levels_to_rates(np.array([3]))[0] == 0.3

    @pytest.mark.parametrize("bad", [-1, 10, 42])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(InvalidActionError, match=f"savings level {bad} outside 0..9"):
            check_level("savings", bad)

    def test_non_integer_rejected(self):
        for bad in (0.5, 3.0, True, "3", None):
            with pytest.raises(InvalidActionError, match="must be an integer"):
                check_level("savings", bad)
        check_level("savings", np.int64(3))

    def test_injective_and_monotone(self):
        rates = levels_to_rates(np.arange(10)).tolist()
        assert len(set(rates)) == 10
        assert rates == sorted(rates)

    @given(st.integers(min_value=0, max_value=9))
    def test_rate_is_level_over_ten(self, level):
        check_level("savings", level)
        assert levels_to_rates(np.array([level]))[0] == level / 10


def policy_sets(n: int, *levels: int) -> list[ActionSet]:
    """Every region's set under one fixed policy."""
    policy = FixedLevelsPolicy(*levels)
    return [policy.act(Observation(region=i, n_regions=n), None, None) for i in range(n)]


class TestJointActions:
    def test_uniform_zeroes_diagonal(self):
        j = JointActions.uniform(4, savings=1, mitigation=2, export=3, imports=5, tariffs=7)
        assert np.all(np.diag(j.imports) == 0)
        assert np.all(np.diag(j.tariffs) == 0)
        assert np.all(j.imports[0, 1:] == 5)
        j.validate(4)
        for bad in (-1, 10, 2.5):
            with pytest.raises(InvalidActionError, match="tariffs level"):
                JointActions.uniform(4, savings=1, mitigation=2, export=3, imports=5, tariffs=bad)

    def test_round_trip_region_view(self):
        j = JointActions.uniform(3, savings=1, mitigation=2, export=3, imports=5, tariffs=7)
        sets = policy_sets(3, 1, 2, 3, 5, 7)
        assert sets[1].savings_level == 1
        assert sets[1].import_levels == (5, 0, 5)
        joint = JointActions.from_action_sets(sets)
        for name in ("savings", "mitigation", "export", "imports", "tariffs"):
            assert np.array_equal(getattr(joint, name), getattr(j, name)), name

    def test_from_action_sets_validates(self):
        sets = [
            ActionSet(1, 2, 3, (0, 5), (0, 4)),
            ActionSet(1, 2, 3, (5, 0), (4, 0)),
        ]
        j = JointActions.from_action_sets(sets)
        assert j.imports[1, 0] == 5

    def test_out_of_range_matrix_rejected(self):
        # The arrays are read-only, so the out-of-range matrix has to come in
        # through the constructor, which rejects it.
        j = JointActions.uniform(3, savings=1, mitigation=2, export=3, imports=5, tariffs=7)
        with pytest.raises(ValueError, match="read-only"):
            j.imports[0, 1] = 11
        assert j.imports[0, 1] == 5
        bad_imports = np.array(j.imports)
        bad_imports[0, 1] = 11
        for make in (
            lambda: JointActions(j.savings, j.mitigation, j.export, bad_imports, j.tariffs),
            lambda: JointActions(j.savings, j.mitigation, j.export, j.imports, j.tariffs - 1),
            lambda: JointActions(
                j.savings, j.mitigation, j.export, np.ones((3, 3), dtype=np.int64), j.tariffs
            ),
            lambda: JointActions(j.savings[:2], j.mitigation, j.export, j.imports, j.tariffs),
        ):
            with pytest.raises(InvalidActionError):
                make()

    def test_constructor_copies_its_inputs(self):
        imports = 5 * (1 - np.eye(3, dtype=np.int64))
        ones = np.ones(3, dtype=np.int64)
        j = JointActions(ones, ones, ones, imports, imports)
        imports[0, 1] = 11
        assert j.imports[0, 1] == 5 and j.tariffs[0, 1] == 5
        assert j.savings.dtype == np.int64 and not j.savings.flags.writeable

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_, np.str_])
    def test_non_integer_arrays_rejected(self, dtype):
        # numpy would cast each of these to int64 without a word.
        j = JointActions.uniform(3, savings=1, mitigation=2, export=3, imports=5, tariffs=7)
        for name in ACTION_DIMENSIONS:
            arrays = {n: getattr(j, n) for n in ACTION_DIMENSIONS}
            arrays[name] = arrays[name].astype(dtype)
            with pytest.raises(InvalidActionError, match=f"region 0: {name} level must be an integer"):
                JointActions(**arrays)

    def test_non_integer_sequences_rejected(self):
        j = JointActions.uniform(4, savings=1, mitigation=2, export=3, imports=5, tariffs=7)
        for name, bad in [
            ("savings", [2.5] * 4),
            ("mitigation", [True] * 4),
            ("export", ["3"] * 4),
            ("savings", [1, 2, True, 3]),
            ("tariffs", [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, None], [1, 1, 1, 0]]),
        ]:
            arrays = {n: getattr(j, n) for n in ACTION_DIMENSIONS}
            arrays[name] = bad
            with pytest.raises(InvalidActionError, match=f"{name} level must be an integer"):
                JointActions(**arrays)

    def test_attributes_cannot_be_rebound(self):
        j = JointActions.uniform(3, savings=1, mitigation=2, export=3, imports=5, tariffs=7)
        for name in (*ACTION_DIMENSIONS, *RATE_NAMES):
            with pytest.raises(AttributeError):
                setattr(j, name, getattr(j, name))
            with pytest.raises(AttributeError):
                delattr(j, name)
        with pytest.raises(AttributeError):
            j.extra = 1

    def test_actions_must_cover_the_world(self):
        j = JointActions.uniform(3, savings=1, mitigation=2, export=3, imports=5, tariffs=7)
        j.validate(3)
        with pytest.raises(ConfigError, match="actions cover 3 regions, world has 4"):
            j.validate(4)
        with pytest.raises(ConfigError, match="actions cover 3 regions, world has 4"):
            step(reset(SimParams(n_regions=4), VariantConfig(), 0), j)

    def test_rates_are_read_only_levels_over_ten(self):
        j = JointActions.uniform(3, savings=1, mitigation=2, export=3, imports=5, tariffs=7)
        for name, rate_name in zip(ACTION_DIMENSIONS, RATE_NAMES):
            rates = getattr(j, rate_name)
            assert rates.dtype == np.float64 and not rates.flags.writeable, rate_name
            assert rates.tobytes() == (getattr(j, name) / 10.0).tobytes(), rate_name
            with pytest.raises(ValueError):
                rates[0] = 0.5

    def test_copies_survive_pickle_and_deepcopy(self):
        j = JointActions.uniform(3, savings=1, mitigation=2, export=3, imports=5, tariffs=7)
        for clone in (pickle.loads(pickle.dumps(j)), copy.deepcopy(j)):
            for name in (*ACTION_DIMENSIONS, *RATE_NAMES):
                assert np.array_equal(getattr(clone, name), getattr(j, name))
            clone.validate(3)

    def test_from_action_sets_result_passes_validate(self):
        sets = policy_sets(4, 1, 2, 3, 5, 7)
        j = JointActions.from_action_sets(sets)
        j.validate(4)
        for i, a in enumerate(sets):
            assert j.savings[i] == a.savings_level and j.mitigation[i] == a.mitigation_level
            assert j.export[i] == a.max_export_level
            assert tuple(j.imports[i]) == a.import_levels
            assert tuple(j.tariffs[i]) == a.tariff_levels


def _sets_with(region, **changes):
    """Three valid sets, one field of one region's set replaced."""
    sets = policy_sets(3, 1, 2, 3, 5, 7)
    sets[region] = dataclasses.replace(sets[region], **changes)
    return sets


#: Each bad case and the message it is rejected with.
BAD_SETS = {
    "savings below range": (_sets_with(1, savings_level=-1), "region 1: savings level -1 outside"),
    "savings above range": (_sets_with(1, savings_level=10), "region 1: savings level 10 outside"),
    "mitigation above range": (
        _sets_with(0, mitigation_level=10), "region 0: mitigation level 10 outside"
    ),
    "export below range": (_sets_with(2, max_export_level=-1), "region 2: export level -1 outside"),
    "imports too short": (_sets_with(1, import_levels=(5, 0)), "imports rows differ in length"),
    "tariffs too long": (_sets_with(1, tariff_levels=(7, 0, 7, 7)), "tariffs rows differ in length"),
    "imports entry above range": (
        _sets_with(0, import_levels=(0, 10, 5)), "region 0: imports level 10 outside"
    ),
    "tariffs entry below range": (
        _sets_with(2, tariff_levels=(-1, 7, 0)), "region 2: tariffs level -1 outside"
    ),
    "imports self entry": (
        _sets_with(1, import_levels=(5, 1, 5)), "region 1: self entry of imports must be 0"
    ),
    "tariffs self entry": (
        _sets_with(2, tariff_levels=(7, 7, 7)), "region 2: self entry of tariffs must be 0"
    ),
    "savings float": (
        _sets_with(1, savings_level=2.5), "region 1: savings level must be an integer, got 2.5"
    ),
    "mitigation bool": (
        _sets_with(2, mitigation_level=True),
        "region 2: mitigation level must be an integer, got True",
    ),
    "export string": (
        _sets_with(0, max_export_level="3"), "region 0: export level must be an integer, got '3'"
    ),
    "imports float inside vector": (
        _sets_with(0, import_levels=(0, 2.5, 5)),
        "region 0: imports level must be an integer, got 2.5",
    ),
    "tariffs bool inside vector": (
        _sets_with(1, tariff_levels=(5, 0, True)),
        "region 1: tariffs level must be an integer, got True",
    ),
}


@pytest.mark.parametrize("case", list(BAD_SETS))
def test_from_action_sets_rejects_bad_sets(case):
    sets, message = BAD_SETS[case]
    with pytest.raises(InvalidActionError, match=re.escape(message)):
        JointActions.from_action_sets(sets)
