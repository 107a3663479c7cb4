"""Property test of the input door: mutated config documents and argument
lists either run to finite outputs or are turned away cleanly.

Each example starts from a valid, tiny config document (at most 4 regions,
a 10-year horizon, a sweep grid of 2) and mutates it: one number of the
``sim`` or the ``sim.climate`` section at or past its bounds, or, anywhere,
a few wrong types, nulls, non-finite, huge and negative numbers, unknown
and nested keys, and odd command-line flags. The CLI must then exit 0, 1 or 2; 2 only
for a ``DomainError`` or ``MaskViolationError`` raised by the run; never
with a traceback; and on exit 0 every number it wrote must be finite.
"""
import contextlib
import io
import json
import math
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricensim import cli, experiments
from ricensim.config import DisasterPenalty, NegotiationConfig, SimParams, VariantConfig
from ricensim.errors import DomainError, MaskViolationError
from ricensim.runio import DEFAULT_EXPERIMENT, EXPERIMENTS, RunConfig, config_to_dict

#: Integer keys that set how much work a run does, and the largest value a
#: mutation may give them (a list's entries are capped alike).
SIZE_CAPS = {
    "n_regions": 4,
    "horizon_years": 20,
    "dt_years": 20,
    "grid": 2,
    "runs": 2,
    "episodes": 20,
    "horizons": 20,
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


def paths(node, path=(), in_list=False):
    """Every position in a JSON document: the root, each value, and each
    entry of a list that is not itself in a list (a matrix row is one)."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from paths(value, path + (key,))
    elif isinstance(node, list) and not in_list:
        for i, value in enumerate(node):
            yield from paths(value, path + (i,), in_list=True)


def get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def put(doc, path, value):
    if not path:
        return value
    get(doc, path[:-1])[path[-1]] = value
    return doc


def cap_sizes(node, cap=None):
    """``node`` with every integer under a ``SIZE_CAPS`` key at most its cap."""
    if isinstance(node, dict):
        return {k: cap_sizes(v, SIZE_CAPS.get(k, cap)) for k, v in node.items()}
    if isinstance(node, list):
        return [cap_sizes(v, cap) for v in node]
    if cap is not None and isinstance(node, int) and not isinstance(node, bool):
        return min(node, cap)
    return node


#: The sections whose numbers a case may mutate one at a time, by path;
#: "anywhere" mutates any position, a few at a time, and adds odd flags.
SECTIONS = {
    "sim": lambda path: len(path) == 2 and path[0] == "sim",
    "climate": lambda path: path[:2] == ("sim", "climate"),
    "anywhere": None,
}


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


@st.composite
def inputs(draw, section: str):
    """A config document mutated in ``section``, its command, and the
    arguments after the config and output paths."""
    name = draw(st.sampled_from(list(EXPERIMENTS)))
    disaster = draw(st.sampled_from([None, DisasterPenalty(threshold_degc=1.5, penalty=100.0)]))
    negotiation = NegotiationConfig(enabled=draw(st.booleans()), enforce_masks=draw(st.booleans()))
    config = RunConfig(
        SimParams(n_regions=4, horizon_years=10, negotiation=negotiation),
        VariantConfig(disaster=disaster),
        name,
        options=dict(TINY_OPTIONS.get(name, {})),
        seed=1,
    )
    doc = json.loads(json.dumps(config_to_dict(config)))  # tuples become lists, as in a file
    anywhere = SECTIONS[section] is None
    for _ in range(draw(st.sampled_from([0, 1, 1, 2])) if anywhere else 1):
        every = list(paths(doc))
        numbers = [p for p in every if is_number(get(doc, p))]
        if not anywhere:
            numbers = [p for p in numbers if SECTIONS[section](p)]
        path = draw(st.sampled_from(numbers if not anywhere or draw(st.booleans()) else every))
        target = get(doc, path)
        value = odd_value(draw, target, anywhere)
        if isinstance(target, dict) and draw(st.booleans()):
            target[draw(st.sampled_from(["zz_unknown", "seed", "n_regions", "climate"]))] = value
        else:
            doc = put(doc, path, value)

    command = name if EXPERIMENTS[name].help and draw(st.booleans()) else "run"
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
    extra = draw(st.sampled_from(flags)) if anywhere and draw(st.booleans()) else []
    return cap_sizes(doc), command, extra


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


@pytest.mark.parametrize("section", list(SECTIONS))
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_mutated_inputs_exit_cleanly(section, data):
    doc, command, extra = data.draw(inputs(section))
    raised = []
    execute = cli._execute

    def recording_execute(*args):
        try:
            return execute(*args)
        except Exception as exc:
            raised.append(exc)
            raise

    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(doc))
        argv = [command, "--config", str(cfg), "--out", str(out)] + extra
        stderr = io.StringIO()
        # Threads stand in for the sweep's worker processes: nothing forks.
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr), \
                mock.patch.object(experiments, "ProcessPoolExecutor", ThreadPoolExecutor), \
                mock.patch.object(cli, "_execute", recording_execute):
            code = cli.main(argv)
        err = stderr.getvalue()
        assert code in (0, 1, 2), err
        assert "Traceback" not in err
        if code == 2:
            assert raised and isinstance(raised[-1], (DomainError, MaskViolationError)), err
        if code == 0:
            assert_written_numbers_finite(out)
