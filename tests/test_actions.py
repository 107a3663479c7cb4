import collections
import copy
import pickle
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ricensim import SimParams, VariantConfig
from ricensim import actions as actions_mod
from ricensim.actions import (
    ACTION_DIMENSIONS,
    RATE_NAMES,
    JointActions,
    _partner_matrix,
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

    @pytest.mark.parametrize(
        "levels",
        [
            np.arange(-3, 46, dtype=np.int64).reshape(7, 7),
            np.linspace(-2.5, 12.5, 31),
            np.array(4.45),
        ],
        ids=["int64 matrix", "float array", "0-d float"],
    )
    def test_same_bits_as_a_float_copy_over_ten(self, levels):
        expected = np.asarray(levels, dtype=np.float64) / 10.0
        rates = levels_to_rates(levels)
        assert rates.dtype == np.float64 and np.shape(rates) == np.shape(expected)
        assert np.asarray(rates).tobytes() == np.asarray(expected).tobytes()


#: The complement each ``JointActions`` derives from a rate when it is built.
COMPLEMENTS = {"unmitigated_rate": "mitigation_rate", "untariffed_rate": "tariffs_rate"}


def policy_sets(n: int, *levels: int) -> list[tuple]:
    """Every region's set under one fixed policy."""
    policy = FixedLevelsPolicy(*levels)
    return [policy.act(Observation(region=i, n_regions=n), None, None) for i in range(n)]


def random_sets(n: int, rng: np.random.Generator) -> list[tuple]:
    """One random valid set per region, as ``UniformRandomPolicy`` hands
    them: ``np.int64`` levels and read-only ``int64`` rows."""
    vectors = rng.integers(10, size=(3, n))
    matrices = rng.integers(10, size=(2, n, n)) * (1 - np.eye(n, dtype=np.int64))
    matrices.setflags(write=False)
    return [(*vectors[:, i], *matrices[:, i]) for i in range(n)]


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
        assert sets[1][0] == 1
        assert np.array_equal(sets[1][3], (5, 0, 5))
        joint = JointActions.from_action_sets(sets)
        for name in ("savings", "mitigation", "export", "imports", "tariffs"):
            assert np.array_equal(getattr(joint, name), getattr(j, name)), name

    def test_from_action_sets_validates(self):
        sets = [
            (1, 2, 3, (0, 5), (0, 4)),
            (1, 2, 3, (5, 0), (4, 0)),
        ]
        j = JointActions.from_action_sets(sets)
        assert j.imports[1, 0] == 5

    def test_no_sets_is_an_empty_action(self):
        with pytest.raises(InvalidActionError, match=r"savings array has shape \(0,\)"):
            JointActions.from_action_sets([])

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
        """Every input is copied, whether writable or read-only, an array, a
        view or a list, and so is every ``_partner_matrix`` ``uniform``
        stacks: writes to an input reach nothing, and every level is a
        read-only ``int64``."""
        read_only = np.array([1, 2, 3])
        read_only.setflags(write=False)
        vector = np.array([1, 2, 3])
        matrix = _partner_matrix(3, 4)
        writable = 2 * (1 - np.eye(3, dtype=np.int64))
        view = writable[:]
        view.setflags(write=False)
        inputs = (read_only, vector, [1, 2, 3], matrix, view)
        j = JointActions(*inputs)
        u = JointActions.uniform(3, savings=1, mitigation=2, export=3, imports=5, tariffs=7)
        vector[0] = 9
        writable[0, 1] = 9
        assert j.mitigation[0] == 1 and j.tariffs[0, 1] == 2
        for name, value in zip(ACTION_DIMENSIONS, inputs):
            assert not np.shares_memory(getattr(j, name), np.asarray(value)), name
        for name, level in (("imports", 5), ("tariffs", 7)):
            assert not np.shares_memory(getattr(u, name), _partner_matrix(3, level)), name
        assert _partner_matrix(5, np.uint64(6)).dtype == np.int64
        for built in (j, u):
            for name in ACTION_DIMENSIONS:
                levels = getattr(built, name)
                assert levels.dtype == np.int64 and not levels.flags.writeable, name
                with pytest.raises(ValueError, match="read-only"):
                    levels[0] = 1

    def test_levels_and_rates_are_rows_of_two_blocks(self):
        """Savings, mitigation and export are the rows of one read-only
        ``[3, n]`` block, imports and tariffs of one ``[2, n, n]`` block, and
        each rate is the same row of its block's rates."""
        for j in (
            JointActions.uniform(4, savings=1, mitigation=2, export=3, imports=5, tariffs=7),
            JointActions.from_action_sets(random_sets(4, np.random.default_rng(4))),
            JointActions(*zip(*random_sets(4, np.random.default_rng(4)))),
        ):
            for names, shape in (
                (ACTION_DIMENSIONS[:3], (3, 4)), (ACTION_DIMENSIONS[3:], (2, 4, 4))
            ):
                for suffix in ("", "_rate"):
                    rows = [getattr(j, name + suffix) for name in names]
                    block = rows[0].base
                    assert block.shape == shape and not block.flags.writeable
                    for k, row in enumerate(rows):
                        assert row.base is block and row.flags.c_contiguous
                        assert np.shares_memory(row, block[k])

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
        for name in (*ACTION_DIMENSIONS, *RATE_NAMES, *COMPLEMENTS):
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

    def test_complements_are_read_only_one_minus_rates(self):
        arrays = dict(
            savings=[1, 2, 3],
            mitigation=np.array([0, 4, 9]),
            export=(3, 3, 3),
            imports=np.array([[0, 5, 1], [2, 0, 9], [7, 8, 0]]),
            tariffs=[[0, 7, 9], [0, 0, 1], [4, 3, 0]],
        )
        built = (
            JointActions.uniform(3, savings=1, mitigation=2, export=3, imports=5, tariffs=7),
            JointActions.from_action_sets(policy_sets(4, 1, 6, 3, 5, 8)),
            JointActions(**arrays),
            pickle.loads(pickle.dumps(JointActions(**arrays))),
        )
        for j in built:
            for name, rate_name in COMPLEMENTS.items():
                complement = getattr(j, name)
                assert complement.dtype == np.float64 and not complement.flags.writeable, name
                assert complement.tobytes() == (1.0 - getattr(j, rate_name)).tobytes(), name
                with pytest.raises(ValueError):
                    complement[0] = 0.5

    def test_copies_survive_pickle_and_deepcopy(self):
        j = JointActions.uniform(3, savings=1, mitigation=2, export=3, imports=5, tariffs=7)
        for clone in (pickle.loads(pickle.dumps(j)), copy.deepcopy(j)):
            for name in (*ACTION_DIMENSIONS, *RATE_NAMES, *COMPLEMENTS):
                assert np.array_equal(getattr(clone, name), getattr(j, name))
            clone.validate(3)

    def test_from_action_sets_result_passes_validate(self):
        sets = policy_sets(4, 1, 2, 3, 5, 7)
        j = JointActions.from_action_sets(sets)
        j.validate(4)
        for i, (savings, mitigation, export, imports, tariffs) in enumerate(sets):
            assert j.savings[i] == savings and j.mitigation[i] == mitigation
            assert j.export[i] == export
            assert np.array_equal(j.imports[i], imports)
            assert np.array_equal(j.tariffs[i], tariffs)


def _sets_with(region, **changes):
    """Three valid sets, one dimension of one region's set replaced; each
    change is keyed by its name in ``ACTION_DIMENSIONS``."""
    sets = policy_sets(3, 1, 2, 3, 5, 7)
    entries = list(sets[region])
    for name, value in changes.items():
        entries[ACTION_DIMENSIONS.index(name)] = value
    sets[region] = tuple(entries)
    return sets


#: Each bad case and the message it is rejected with.
BAD_SETS = {
    "savings below range": (_sets_with(1, savings=-1), "region 1: savings level -1 outside"),
    "savings above range": (_sets_with(1, savings=10), "region 1: savings level 10 outside"),
    "mitigation above range": (
        _sets_with(0, mitigation=10), "region 0: mitigation level 10 outside"
    ),
    "export below range": (_sets_with(2, export=-1), "region 2: export level -1 outside"),
    "imports too short": (_sets_with(1, imports=(5, 0)), "imports rows differ in length"),
    "tariffs too long": (_sets_with(1, tariffs=(7, 0, 7, 7)), "tariffs rows differ in length"),
    "imports entry above range": (
        _sets_with(0, imports=(0, 10, 5)), "region 0: imports level 10 outside"
    ),
    "tariffs entry below range": (
        _sets_with(2, tariffs=(-1, 7, 0)), "region 2: tariffs level -1 outside"
    ),
    "imports self entry": (
        _sets_with(1, imports=(5, 1, 5)), "region 1: self entry of imports must be 0"
    ),
    "tariffs self entry": (
        _sets_with(2, tariffs=(7, 7, 7)), "region 2: self entry of tariffs must be 0"
    ),
    "savings float": (
        _sets_with(1, savings=2.5), "region 1: savings level must be an integer, got 2.5"
    ),
    "mitigation bool": (
        _sets_with(2, mitigation=True),
        "region 2: mitigation level must be an integer, got True",
    ),
    "export string": (
        _sets_with(0, export="3"), "region 0: export level must be an integer, got '3'"
    ),
    "imports float inside vector": (
        _sets_with(0, imports=(0, 2.5, 5)),
        "region 0: imports level must be an integer, got 2.5",
    ),
    "tariffs bool inside vector": (
        _sets_with(1, tariffs=(5, 0, True)),
        "region 1: tariffs level must be an integer, got True",
    ),
    "tariffs entry at int64 min": (
        _sets_with(2, tariffs=(np.iinfo(np.int64).min, 7, 0)),
        f"region 2: tariffs level {np.iinfo(np.int64).min} outside",
    ),
    "imports all floats": (
        _sets_with(0, imports=(0.0, 2.5, 5.0)),
        "region 0: imports level must be an integer, got 0.0",
    ),
    "tariffs all bools": (
        _sets_with(1, tariffs=(False, False, True)),
        "region 1: tariffs level must be an integer, got False",
    ),
}


def _entry(sets, region, name):
    """Region ``region``'s ``name`` entry of ``sets``."""
    return sets[region][ACTION_DIMENSIONS.index(name)]


def _array_twin(case, region, field):
    """``BAD_SETS[case]`` with its bad row as an array, as the policies hand
    rows: rejected with the same message."""
    sets, message = BAD_SETS[case]
    return _sets_with(region, **{field: np.array(_entry(sets, region, field))}), message


BAD_SETS |= {
    f"{case}, array row": _array_twin(case, region, field)
    for case, region, field in [
        ("imports too short", 1, "imports"),
        ("imports entry above range", 0, "imports"),
        ("tariffs entry below range", 2, "tariffs"),
        ("tariffs entry at int64 min", 2, "tariffs"),
        ("imports self entry", 1, "imports"),
        ("imports all floats", 0, "imports"),
        ("tariffs all bools", 1, "tariffs"),
    ]
}
BAD_SETS |= {
    f"{case}, np.int64 level": (
        _sets_with(region, **{field: np.int64(_entry(BAD_SETS[case][0], region, field))}),
        BAD_SETS[case][1],
    )
    for case, region, field in [
        ("savings below range", 1, "savings"),
        ("savings above range", 1, "savings"),
        ("mitigation above range", 0, "mitigation"),
        ("export below range", 2, "export"),
    ]
}


def _sets_resized(regions, size):
    """Three valid sets, those of ``regions`` cut or padded with 0 to ``size``
    entries."""
    sets = policy_sets(3, 1, 2, 3, 5, 7)
    for region in regions:
        sets[region] = (*sets[region], 0, 0)[:size]
    return sets


BAD_SETS |= {
    "a 6-entry set among 5-entry ones": (
        _sets_resized([1], 6), "region 1: action set has 6 entries, expected 5"
    ),
    "every set with 6 entries": (
        _sets_resized([0, 1, 2], 6), "region 0: action set has 6 entries, expected 5"
    ),
    "a 4-entry set": (_sets_resized([2], 4), "region 2: action set has 4 entries, expected 5"),
    "every set with 4 entries": (
        _sets_resized([0, 1, 2], 4), "region 0: action set has 4 entries, expected 5"
    ),
    "an empty set": (_sets_resized([1], 0), "region 1: action set has 0 entries, expected 5"),
}


def _set_replaced(region, replace):
    """Three valid sets, that of ``region`` replaced by ``replace(set)``."""
    sets = policy_sets(3, 1, 2, 3, 5, 7)
    sets[region] = replace(sets[region])
    return sets


BAD_SETS |= {
    "a None set": (
        _set_replaced(1, lambda s: None),
        "region 1: action set must be a tuple or list, got NoneType",
    ),
    "an int set": (
        _set_replaced(1, lambda s: 7), "region 1: action set must be a tuple or list, got int"
    ),
    "a 4-entry generator": (
        _set_replaced(1, lambda s: (x for x in s[:4])),
        "region 1: action set must be a tuple or list, got generator",
    ),
    "a 5-entry generator": (
        _set_replaced(1, lambda s: (x for x in s)),
        "region 1: action set must be a tuple or list, got generator",
    ),
}


@pytest.mark.parametrize("case", list(BAD_SETS))
def test_from_action_sets_rejects_bad_sets(case):
    sets, message = BAD_SETS[case]
    with pytest.raises(InvalidActionError, match=re.escape(message)):
        JointActions.from_action_sets(sets)


#: Ways a caller may hand a set's levels and rows: as the policies do
#: (``int`` or ``np.int64`` levels, ``int64`` rows), or as plain sequences.
SET_FORMS = {
    "np.int64 levels, int64 rows": (lambda level: level, lambda row: row),
    "int levels, int64 rows": (int, lambda row: row),
    "int levels, writable int64 rows": (int, np.array),
    "np.int64 levels, tuple rows": (lambda level: level, lambda row: tuple(row.tolist())),
    "int levels, list rows": (int, lambda row: row.tolist()),
}


def _block_arrays(j: JointActions) -> list[tuple]:
    """What must match between two ``JointActions``: each of the 12 arrays'
    dtype, shape, bytes and read-only flag."""
    return [
        (name, a.dtype, a.shape, a.tobytes(), a.flags.writeable)
        for name in JointActions.__slots__
        for a in [getattr(j, name)]
    ]


@pytest.mark.parametrize("n", [2, 27, 100])
@pytest.mark.parametrize("form", list(SET_FORMS))
def test_from_action_sets_equals_the_constructor_bit_for_bit(n, form):
    level, row = SET_FORMS[form]
    sets = [
        (*map(level, s[:3]), *map(row, s[3:]))
        for s in random_sets(n, np.random.default_rng(n))
    ]
    assert _block_arrays(JointActions.from_action_sets(sets)) == _block_arrays(
        JointActions(*zip(*sets))
    )


def test_policy_sets_are_stacked_without_the_constructor(monkeypatch):
    """Sets as the policies hand them go straight into the blocks, so no
    dimension is converted or checked on its own; a bool level is not such
    a set."""
    sets = random_sets(5, np.random.default_rng(5))

    def refuse(name, *args):
        raise AssertionError(f"{name} converted on its own")

    monkeypatch.setattr(actions_mod, "_integer_copy", refuse)
    monkeypatch.setattr(actions_mod, "_check_levels", refuse)
    JointActions.from_action_sets(sets)
    JointActions.from_action_sets(policy_sets(3, 1, 2, 3, 5, 7))
    with pytest.raises(AssertionError, match="savings converted on its own"):
        JointActions.from_action_sets([(True, *a[1:]) for a in sets])


@pytest.mark.parametrize("n", [2, 27, 100])
def test_uniform_equals_the_constructor_bit_for_bit(n):
    for levels in [(0, 0, 0, 0, 0), (3, 9, 1, 5, 7), (9, 9, 9, 9, 9)]:
        given = (*(np.full(n, level) for level in levels[:3]),
                 *(_partner_matrix(n, level) for level in levels[3:]))
        assert _block_arrays(JointActions.uniform(n, *levels)) == _block_arrays(
            JointActions(*given)
        ), levels


@pytest.mark.parametrize(
    "kind",
    [list, collections.namedtuple("Set", ACTION_DIMENSIONS)._make],
    ids=["list", "namedtuple"],
)
def test_list_and_tuple_subclass_sets_equal_tuple_sets(kind):
    sets = random_sets(4, np.random.default_rng(4))
    assert _block_arrays(JointActions.from_action_sets([kind(s) for s in sets])) == _block_arrays(
        JointActions.from_action_sets(sets)
    )
