"""Span tracing of ricensim's layers, installed from outside the program.

``install`` wraps every public function defined in the fourteen layer
modules, plus the few methods listed in ``METHODS``, and rebinds each wrapper
wherever the function is looked up: in its own module, in every ricensim
module that imported it by name (``engine`` imports ``generate_regions``,
``experiments`` imports ``run_episode``, ``cli`` imports ``write_csv``,
...), and in the package namespace. Wrapping only the defining module
would miss those calls and read 0 forever.

Each call records a span (name, span id, parent span id, start, end) in
memory. Self time is a span's duration minus the durations of its direct
child spans. A call nested directly inside a span of the same reported
name (``PariahOverridePolicy.act`` calling ``FixedLevelsPolicy.act``)
adds its self time but is not counted again as a call. Private helpers are
not wrapped, so their time is the self time of the public caller.

Hooks read the return values of a few functions to count the events that
shape results (domestic-consumption floors, budget-multiplier clamps,
fraction caps, the carbon-audit residual) without touching the program.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = (
    "cli", "runio", "experiments", "stats", "calibration", "engine", "policies",
    "negotiation", "actions", "regions", "economy", "trade", "climate", "config",
)

#: Public functions left unwrapped: they run per array or per CSV cell, so
#: a span each would cost more than their work. Their time is the caller's.
UNTRACED = {"actions.level_to_rate", "actions.levels_to_rates", "runio.format_value"}

#: Methods wrapped on their class, as ``layer.Class.method``.
METHODS = (
    "engine.World.observation",
    "engine.World.masks",
    "actions.JointActions.validate",
    "actions.JointActions.from_action_sets",
    "policies.FixedLevelsPolicy.act",
    "policies.UniformRandomPolicy.act",
    "policies.PariahOverridePolicy.act",
)

#: Span names reported under another name; every other span is reported
#: as ``layer.function``.
ALIASES = {
    "engine.run_episode": "engine.rollout",
    "engine.run_episode_summary": "engine.rollout",
    "engine.run_fixed_actions_summary": "engine.rollout",
    "engine.World.observation": "engine.observation",
    "engine.World.masks": "engine.masks",
    "actions.JointActions.validate": "actions.validate",
    "actions.JointActions.from_action_sets": "actions.from_action_sets",
    "regions.generate_regions": "regions.generate",
    "trade.import_budget_multiplier": "trade.budget_multiplier",
    "negotiation.commitments_from_arrays": "negotiation.commitments",
    "policies.FixedLevelsPolicy.act": "policies.act",
    "policies.UniformRandomPolicy.act": "policies.act",
    "policies.PariahOverridePolicy.act": "policies.act",
}

#: Spans reported with both ``.calls`` and ``.self_s``.
REPORTED_SPANS = (
    "engine.step", "engine.reset", "engine.rollout", "engine.observation", "engine.masks",
    "economy.gross_output", "economy.damage_fraction", "economy.abatement_fraction",
    "trade.build_demand", "trade.ration_exports", "trade.apply_tariffs",
    "trade.consumption", "trade.step_balance", "trade.budget_multiplier",
    "climate.step_carbon", "climate.radiative_forcing", "climate.exogenous_forcing",
    "climate.step_temperature",
    "actions.validate", "actions.from_action_sets",
    "regions.generate",
    "policies.act",
    "negotiation.build_mask", "negotiation.masked_sample", "negotiation.commitments",
    "runio.write_csv", "runio.write_manifest",
)

#: Counts and ratios read from calls and return values; each repeats
#: exactly for fixed inputs.
EVENT_METRICS = (
    "trade.floored_rollouts",
    "trade.floor_hits",
    "trade.budget_clamps",
    "economy.fraction_cap_hits",
    "climate.carbon_residual_max",
    "regions.distinct_seed_ratio",
    "actions.validate.per_step",
    "trade.matrix_bytes",
    "runio.bytes_written",
)

#: Every per-layer metric a traced pass yields, in report order: the exact
#: ones must repeat across passes of one input, the timed ones need not.
EXACT_METRICS = tuple(f"{s}.calls" for s in REPORTED_SPANS) + EVENT_METRICS
TIMED_METRICS = tuple(f"{s}.self_s" for s in REPORTED_SPANS) + tuple(
    f"{layer}.self_s" for layer in LAYERS
)

_UNITS = {
    "climate.carbon_residual_max": "GtC",
    "regions.distinct_seed_ratio": "ratio",
    "actions.validate.per_step": "calls/step",
    "trade.matrix_bytes": "bytes/step",
    "runio.bytes_written": "bytes",
    "trace.overhead_frac": "ratio",
    "experiments.parallel_efficiency": "ratio",
}


def unit(metric: str) -> str:
    if metric.endswith(".self_s"):
        return "s"
    return _UNITS.get(metric, "count")


class Tracer:
    """In-memory span recorder plus the event counters fed by hooks."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[list] = []  # [name id, span id, child seconds]
        self._span_ids = iter(range(1, 2**62))
        self.reset()

    def reset(self) -> None:
        n = len(self.names)
        self.calls = [0] * n
        self.self_time = [0.0] * n
        # name id, span id, parent span id (0 at the top), start, end
        self.spans = array("d")
        self.rollout = 0
        self.floored_rollouts: set[int] = set()
        self.floor_hits = 0
        self.budget_clamps = 0
        self.fraction_cap_hits = 0
        self.carbon_residual_max = 0.0
        self.region_seeds: set[int] = set()
        self.matrix_bytes = 0
        self.bytes_written = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_time.append(0.0)
        return self._ids[name]

    def wrap(self, fn, name: str, hook=None):
        nid = self._name_id(ALIASES.get(name, name))
        stack = self._stack
        span_ids = self._span_ids
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [nid, next(span_ids), 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                tracer.self_time[nid] += duration - frame[2]
                parent_id = 0
                if parent is not None:
                    parent[2] += duration
                    parent_id = parent[1]
                if parent is None or parent[0] != nid:
                    tracer.calls[nid] += 1
                tracer.spans.extend((nid, frame[1], parent_id, start, end))
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- per-pass results -------------------------------------------------

    def _calls(self, name: str) -> int:
        i = self._ids.get(name)
        return self.calls[i] if i is not None else 0

    def _self(self, name: str) -> float:
        i = self._ids.get(name)
        return self.self_time[i] if i is not None else 0.0

    def snapshot(self) -> dict[str, float]:
        """Every per-layer metric of the pass recorded since ``reset``."""
        out: dict[str, float] = {}
        for span in REPORTED_SPANS:
            out[f"{span}.calls"] = self._calls(span)
        steps = self._calls("engine.step")
        generated = self._calls("regions.generate")
        out.update({
            "trade.floored_rollouts": len(self.floored_rollouts),
            "trade.floor_hits": self.floor_hits,
            "trade.budget_clamps": self.budget_clamps,
            "economy.fraction_cap_hits": self.fraction_cap_hits,
            "climate.carbon_residual_max": self.carbon_residual_max,
            "regions.distinct_seed_ratio": len(self.region_seeds) / generated if generated else 0.0,
            "actions.validate.per_step": self._calls("actions.validate") / steps if steps else 0.0,
            "trade.matrix_bytes": self.matrix_bytes / steps if steps else 0.0,
            "runio.bytes_written": self.bytes_written,
        })
        for span in REPORTED_SPANS:
            out[f"{span}.self_s"] = self._self(span)
        for layer in LAYERS:
            prefix = layer + "."
            out[f"{layer}.self_s"] = sum(
                (t for name, t in zip(self.names, self.self_time) if name.startswith(prefix)),
                0.0,
            )
        return out

    def write_spans(self, path: Path) -> None:
        table = np.frombuffer(self.spans, dtype=np.float64).reshape(-1, 5)
        np.savez_compressed(
            path,
            name_id=table[:, 0].astype(np.int32),
            span_id=table[:, 1].astype(np.int64),
            parent_id=table[:, 2].astype(np.int64),
            start_s=table[:, 3],
            end_s=table[:, 4],
            names=np.array(self.names),
        )


# -- hooks: (tracer, args, kwargs, result) --------------------------------


def _on_reset(tr: Tracer, args, kwargs, result) -> None:
    tr.rollout += 1


def _on_generate(tr: Tracer, args, kwargs, result) -> None:
    tr.region_seeds.add(int(args[1] if len(args) > 1 else kwargs["seed"]))


def _on_consumption(tr: Tracer, args, kwargs, result) -> None:
    hits = int(np.count_nonzero(result.domestic_floored))
    if hits:
        tr.floor_hits += hits
        tr.floored_rollouts.add(tr.rollout)


def _on_budget(bounds):
    def hook(tr: Tracer, args, kwargs, result) -> None:
        tr.budget_clamps += int(np.count_nonzero((result == bounds[0]) | (result == bounds[1])))
    return hook


def _on_fraction(cap):
    def hook(tr: Tracer, args, kwargs, result) -> None:
        tr.fraction_cap_hits += int(np.count_nonzero(np.asarray(result) == cap))
    return hook


def _on_rollout(tr: Tracer, args, kwargs, result) -> None:
    residual = abs(
        result.initial_carbon_total + result.cumulative_emissions - result.final_carbon_total
    )
    if math.isnan(residual):
        residual = math.inf
    tr.carbon_residual_max = max(tr.carbon_residual_max, residual)


def _on_trade_matrices(tr: Tracer, args, kwargs, result) -> None:
    for arr in result if isinstance(result, tuple) else (result,):
        if isinstance(arr, np.ndarray) and arr.ndim == 2 and arr.dtype == np.float64:
            tr.matrix_bytes += arr.nbytes


def _on_write(tr: Tracer, args, kwargs, result) -> None:
    tr.bytes_written += Path(result).stat().st_size


def _hooks(mods) -> dict:
    budget = _on_budget(mods["trade"].BUDGET_MULTIPLIER_BOUNDS)
    fraction = _on_fraction(mods["economy"].FRACTION_CAP)
    return {
        "engine.reset": _on_reset,
        "regions.generate_regions": _on_generate,
        "trade.consumption": _on_consumption,
        "trade.import_budget_multiplier": budget,
        "economy.damage_fraction": fraction,
        "economy.abatement_fraction": fraction,
        "engine.run_episode": _on_rollout,
        "engine.run_episode_summary": _on_rollout,
        "engine.run_fixed_actions_summary": _on_rollout,
        "trade.build_demand": _on_trade_matrices,
        "trade.ration_exports": _on_trade_matrices,
        "trade.apply_tariffs": _on_trade_matrices,
        "runio.write_csv": _on_write,
        "runio.write_manifest": _on_write,
    }


def install(tracer: Tracer):
    """Wrap the layer functions and methods; returns a callable that undoes it."""
    mods = {layer: importlib.import_module(f"ricensim.{layer}") for layer in LAYERS}
    namespaces = [importlib.import_module("ricensim"), *mods.values()]
    hooks = _hooks(mods)
    undo = []
    for layer, mod in mods.items():
        for fname, fn in list(vars(mod).items()):
            name = f"{layer}.{fname}"
            defined_here = inspect.isfunction(fn) and fn.__module__ == mod.__name__
            if not defined_here or fname.startswith("_") or name in UNTRACED:
                continue
            wrapped = tracer.wrap(fn, name, hooks.get(name))
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, attr, wrapped)
                        undo.append((ns, attr, fn))
    for path in METHODS:
        layer, cls_name, meth = path.split(".")
        cls = getattr(mods[layer], cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(raw.__func__, path))
        else:
            wrapped = tracer.wrap(raw, path)
        setattr(cls, meth, wrapped)
        undo.append((cls, meth, raw))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
