"""Property tests of the input door: mutated config documents and argument
lists either run to finite outputs or are turned away cleanly.

Every numeric config key and experiment option declares its range once
(``config.Range``). The tests read those declarations: each declared key
rejects a wrong type and a value just outside either end with exit 1 and
its document path, and a Hypothesis property draws from every key's ends,
the nearest values inside and outside them, and odd multiples of valid
values. Each example starts from a valid, tiny config document (at most 4
regions, a 10-year horizon, a sweep grid of 2) and mutates one declared key
of one section, or, in the "anywhere" section, a few positions with wrong
types, nulls, non-finite, huge and negative numbers, unknown and nested
keys, and odd command-line flags. A value outside its key's range must exit
1 naming that key; otherwise the CLI must exit 0, 1 or 2; 2 only for a
``DomainError`` or ``MaskViolationError`` raised by the run; never with a
traceback; and on exit 0 every number it wrote must be finite.

The example budget per section comes from a Hypothesis profile: "door" by
default, "ci" (1000 examples) when ``HYPOTHESIS_PROFILE=ci``.
"""
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricensim import cli
from ricensim.config import (
    HORIZON_YEARS,
    N_REGIONS,
    DisasterPenalty,
    NegotiationConfig,
    Range,
    SimParams,
    VariantConfig,
)
from ricensim.errors import DomainError, MaskViolationError
from ricensim.experiments import EPISODES, GRID, RUNS
from ricensim.runio import DEFAULT_EXPERIMENT, EXPERIMENTS, RunConfig

settings.register_profile("door", max_examples=48, deadline=None)
settings.register_profile("ci", max_examples=1000, deadline=None)
BUDGET = settings.get_profile(os.environ.get("HYPOTHESIS_PROFILE", "door"))

#: The config dataclasses whose fields declare ranges, by document path.
RANGED_SECTIONS = {"sim": SimParams, "variant.disaster": DisasterPenalty}


class Key(NamedTuple):
    """One declared key: where a document holds it (a list option by its
    first entry), its range, and the experiment that takes it, if an
    option."""

    location: tuple
    bounds: Range
    experiment: str | None = None

    @property
    def path(self) -> str:
        """The path an error names: ``options.tariff_levels[0]``."""
        text = ".".join(str(k) for k in self.location if isinstance(k, str))
        return text + "".join(f"[{k}]" for k in self.location if isinstance(k, int))

    @property
    def section(self) -> str:
        return self.location[0]


def declared_keys() -> list[Key]:
    keys = []
    for prefix, cls in RANGED_SECTIONS.items():
        for f in dataclasses.fields(cls):
            if "range" in f.metadata:
                keys.append(Key((*prefix.split("."), f.name), f.metadata["range"]))
    for name, experiment in EXPERIMENTS.items():
        for key, opt in experiment.options.items():
            entry = (0,) if opt.is_list else ()
            keys.append(Key(("options", key, *entry), opt.bounds, name))
    return keys


KEYS = declared_keys()


def inside(bounds: Range, value) -> bool:
    """Whether ``value`` lies in ``bounds``, worked out apart from the
    library's own check."""
    integer = bounds.ends == ".."
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        return False
    above = value > bounds.lo if bounds.ends[0] == "(" else value >= bounds.lo
    below = value < bounds.hi if bounds.ends[1] == ")" else value <= bounds.hi
    return above and below


def near_ends(bounds: Range) -> list:
    """Both ends, the nearest values inside them and the nearest outside."""
    lo, hi = bounds.lo, bounds.hi
    if bounds.ends == "..":
        return [lo - 1, lo, lo + 1, hi - 1, hi, hi + 1]
    down, up = (lambda x: math.nextafter(x, -math.inf)), (lambda x: math.nextafter(x, math.inf))
    return [down(lo), lo, up(lo), down(hi), hi, up(hi)]


#: Integer keys that set how much work a run does, their range, and the
#: largest value a draw inside that range may give them (a list's entries
#: are capped alike). A draw outside the range is never capped.
SIZE_CAPS = {
    "n_regions": (N_REGIONS, 4),
    "horizon_years": (HORIZON_YEARS, 20),
    "grid": (GRID, 2),
    "runs": (RUNS, 2),
    "episodes": (EPISODES, 20),
    "horizons": (HORIZON_YEARS, 20),
}

TINY_OPTIONS = {
    "sweep": {"grid": 2},
    "pariah": {"runs": 2, "tariff_levels": [5, 9]},
    "horizon": {"horizons": [10, 20]},
    "masking-demo": {"episodes": 20},
}

#: Numbers at and past the bounds a check may draw; many are of the wrong
#: type for an integer key.
NUMBERS = st.sampled_from(
    [0, 0.0, -1, 1, 2, -0.5, 0.5, 1e308, -1e308, 5e-324, 10**30, -(10**30),
     math.nan, math.inf, -math.inf]
)
#: Factors on a valid number, to carry it past the range checks into the run.
SCALES = st.sampled_from([0, -1, 1e-300, 1e-6, 0.1, 0.9, 1.1, 10, 1e3, 1e6, 1e12, 1e100, 1e300])
INT_SCALES = st.sampled_from([0, -1, 10, 1000])
FLOAT_EDGES = st.sampled_from([0.0, -1.0, 1.0, 2.0, -0.5, 0.5, 1e308, -1e308, 5e-324, -5e-324])
NON_NUMBERS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 12), max_size=3),
    st.dictionaries(st.sampled_from(["x", "enabled", "penalty"]), st.integers(-1, 3), max_size=2),
)

#: Flags any command takes, with odd values; ``--config`` and ``--out``
#: repeated without a value.
COMMON_FLAGS = [
    ["--seed", "-1"], ["--seed", "x"], ["--seed", "3"], ["--seed", str(10**30)],
    ["--workers", "0"], ["--workers", "2"], ["--workers", "x"],
    ["--workers", str((os.cpu_count() or 1) + 1)],
    ["--full-scale"], ["--frob"], ["--config"], ["--out"],
]
#: Values for an experiment's own flags, none above its size cap.
OPTION_FLAG_VALUES = ["-3", "0", "1", "2", "x", "1,1", "5,x", "10,20"]


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def paths(node, path=()):
    """Every position in a JSON document: the root, each value and each
    list entry."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from paths(value, path + (i,))


def get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def put(doc, path, value):
    if not path:
        return value
    get(doc, path[:-1])[path[-1]] = value
    return doc


def cap_sizes(node, size=None):
    """``node`` with every integer inside a ``SIZE_CAPS`` key's range at
    most its cap."""
    if isinstance(node, dict):
        return {k: cap_sizes(v, SIZE_CAPS.get(k, size)) for k, v in node.items()}
    if isinstance(node, list):
        return [cap_sizes(v, size) for v in node]
    if size is not None and inside(size[0], node):
        return min(node, size[1])
    return node


#: One section per declared key group, plus "anywhere", which mutates any
#: position, a few at a time, and adds odd flags.
SECTIONS = ["sim", "variant", "options", "anywhere"]


def odd_value(draw, target, anything: bool):
    """A replacement for ``target``: of any type when ``anything``, else a
    number of its own type at or past the bounds a check may draw."""
    if anything:
        kind = draw(st.sampled_from(["number", "scaled", "scaled", "other"]))
        if kind == "scaled" and is_number(target):
            return target * draw(SCALES)
        return draw(NON_NUMBERS if kind == "other" else NUMBERS)
    if isinstance(target, int):
        return draw(st.sampled_from([0, -1, 1, 2, 10**30, -(10**30)]) | INT_SCALES.map(target.__mul__))
    return draw(FLOAT_EDGES | SCALES.map(target.__mul__))


def base_document(name: str, disaster: bool, negotiation=NegotiationConfig()) -> dict:
    """A valid, tiny document running experiment ``name``, every option set."""
    options = {key: opt.default for key, opt in EXPERIMENTS[name].options.items()}
    penalty = DisasterPenalty(threshold_degc=1.5, penalty=100.0) if disaster else None
    config = RunConfig(
        SimParams(n_regions=4, horizon_years=10, negotiation=negotiation),
        VariantConfig(disaster=penalty),
        name,
        options={**options, **TINY_OPTIONS.get(name, {})},
        seed=1,
    )
    return json.loads(json.dumps(dataclasses.asdict(config)))  # tuples become lists, as in a file


@st.composite
def inputs(draw, section: str):
    """A config document mutated in ``section``, its command, the arguments
    after the config and output paths, and the key whose range the mutation
    left (None when it left none)."""
    outside = None
    negotiation = NegotiationConfig(enabled=draw(st.booleans()), enforce_masks=draw(st.booleans()))
    if section == "anywhere":
        name = draw(st.sampled_from(list(EXPERIMENTS)))
        doc = base_document(name, draw(st.booleans()), negotiation)
        for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
            every = list(paths(doc))
            numbers = [p for p in every if is_number(get(doc, p))]
            path = draw(st.sampled_from(numbers if numbers and draw(st.booleans()) else every))
            target = get(doc, path)
            value = odd_value(draw, target, anything=True)
            if isinstance(target, dict) and draw(st.booleans()):
                target[draw(st.sampled_from(["zz_unknown", "seed", "n_regions", "climate"]))] = value
            else:
                doc = put(doc, path, value)
    else:
        key = draw(st.sampled_from([k for k in KEYS if k.section == section]))
        name = key.experiment or draw(st.sampled_from(list(EXPERIMENTS)))
        doc = base_document(name, section == "variant" or draw(st.booleans()), negotiation)
        if draw(st.booleans()):
            value = draw(st.sampled_from(near_ends(key.bounds)))
        else:
            value = odd_value(draw, get(doc, key.location), anything=False)
        doc = put(doc, key.location, value)
        outside = None if inside(key.bounds, value) else key

    command = name if draw(st.booleans()) else "run"
    if isinstance(doc, dict):
        runs = doc.get("experiment", DEFAULT_EXPERIMENT) if command == "run" else command
        options = doc.setdefault("options", {})
        if isinstance(runs, str) and isinstance(options, dict):
            for key, value in TINY_OPTIONS.get(runs, {}).items():
                options.setdefault(key, value)  # a missing size would run at its default
    own = EXPERIMENTS[command].options if command != "run" else {}
    flags = COMMON_FLAGS + [
        [f"--{key}", value]
        for key, opt in own.items() if opt.flag_help
        for value in OPTION_FLAG_VALUES
    ]
    extra = draw(st.sampled_from(flags)) if section == "anywhere" and draw(st.booleans()) else []
    return cap_sizes(doc), command, extra, outside


def assert_written_numbers_finite(out: Path) -> None:
    for path in sorted(out.rglob("*")):
        if path.suffix == ".csv":
            for row in path.read_text().splitlines()[1:]:
                for cell in row.split(","):
                    try:
                        int(cell)  # a huge integer (a seed) is exact, not inf
                        continue
                    except ValueError:
                        pass
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    assert math.isfinite(value), (path.name, row)
        elif path.suffix == ".json":
            def no_constant(name):
                raise AssertionError(f"{path.name} holds {name}")

            json.loads(path.read_text(), parse_constant=no_constant)


def run_cli(doc, command: str, extra: list, tmp: str):
    """Run the CLI on ``doc`` in-process; returns the exit code, stderr, the
    exceptions the run raised and the output directory."""
    raised = []
    execute = cli._execute

    def recording_execute(*args):
        try:
            return execute(*args)
        except Exception as exc:
            raised.append(exc)
            raise

    cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
    cfg.write_text(json.dumps(doc))
    argv = [command, "--config", str(cfg), "--out", str(out)] + extra
    stderr = io.StringIO()
    # Threads stand in for the sweep's worker processes: nothing forks.
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr), \
            mock.patch("concurrent.futures.ProcessPoolExecutor", ThreadPoolExecutor), \
            mock.patch.object(cli, "_execute", recording_execute):
        code = cli.main(argv)
    return code, stderr.getvalue(), raised, out


@pytest.mark.parametrize("section", SECTIONS)
@given(data=st.data())
@settings(BUDGET)
def test_mutated_inputs_exit_cleanly(section, data):
    doc, command, extra, outside = data.draw(inputs(section))
    with tempfile.TemporaryDirectory() as tmp:
        code, err, raised, out = run_cli(doc, command, extra, tmp)
        assert code in (0, 1, 2), err
        assert "Traceback" not in err
        if outside is not None:
            assert code == 1 and f"error: {outside.path}: expected" in err, err
            assert not out.exists()
        if code == 2:
            assert raised and isinstance(raised[-1], (DomainError, MaskViolationError)), err
        if code == 0:
            assert_written_numbers_finite(out)


@pytest.mark.parametrize("key", KEYS, ids=lambda k: f"{k.experiment or 'config'}:{k.path}")
def test_declared_key_names_its_path_for_a_wrong_type_and_either_side(key, tmp_path):
    below, above = near_ends(key.bounds)[0], near_ends(key.bounds)[-1]
    for i, value in enumerate(["x", below, above]):
        doc = put(base_document(key.experiment or DEFAULT_EXPERIMENT, True), key.location, value)
        (tmp_path / str(i)).mkdir()
        code, err, _, out = run_cli(doc, "run", [], str(tmp_path / str(i)))
        assert code == 1 and f"error: {key.path}: expected" in err, (value, err)
        assert not out.exists()


def test_every_numeric_key_declares_both_ends():
    """``seed`` is an identifier, not a quantity, and declares no range."""
    for cls in RANGED_SECTIONS.values():
        for f in dataclasses.fields(cls):
            numeric = re.search(r"\b(int|float)\b", f.type)
            if numeric:
                bounds = f.metadata.get("range")
                assert bounds is not None, f"{cls.__name__}.{f.name} declares no range"
                assert bounds.ends in ("..", "[]", "[)", "(]", "()"), f.name
                assert math.isfinite(bounds.lo) and math.isfinite(bounds.hi), f.name
                assert bounds.lo < bounds.hi, f.name
                assert (bounds.ends == "..") == (numeric.group(1) == "int"), f.name
    for experiment in EXPERIMENTS.values():
        for key, opt in experiment.options.items():
            assert opt.bounds.ends == "..", key
            assert isinstance(opt.bounds.lo, int) and isinstance(opt.bounds.hi, int), key
            default = opt.default if opt.is_list else (opt.default,)
            assert all(inside(opt.bounds, v) for v in default), key
            if opt.full_scale is not None:
                assert inside(opt.bounds, opt.full_scale), key
