import json
import re

import pytest

from ricensim.config import SimParams, VariantConfig
from ricensim.errors import ConfigError
from ricensim.runio import (
    RunConfig,
    format_value,
    load_config,
    parse_config,
    write_csv,
    write_manifest,
)


class TestParseConfig:
    def test_empty_document_gives_defaults(self):
        config = parse_config("")
        assert config.sim.n_regions == 27
        assert config.sim.horizon_years == 100
        assert config.sim.dt_years == 5
        assert config.variant == VariantConfig()

    def test_invariant_violation_names_key(self):
        with pytest.raises(ConfigError, match="n_regions"):
            parse_config('{"sim": {"n_regions": 1}}')

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ConfigError, match="unknown key: sim.fuzzle"):
            parse_config('{"sim": {"fuzzle": 3}}')
        with pytest.raises(ConfigError, match="unknown key: wat"):
            parse_config('{"wat": 1}')

    def test_round_trip_is_lossless(self, tmp_path):
        text = json.dumps(
            {
                "sim": {"n_regions": 5, "horizon_years": 200},
                "variant": {
                    "use_tariff_revenue": True,
                    "disaster": {"threshold_degc": 3.0, "penalty": 1e5},
                },
                "experiment": "sweep",
                "options": {"grid": 3},
                "seed": 4,
            }
        )
        config = parse_config(text)
        again = load_config(write_manifest(tmp_path, config))
        assert again == config

    def test_nested_negotiation_block(self):
        config = parse_config(
            '{"sim": {"negotiation": {"enabled": true, "dimensions": ["savings"]}}}'
        )
        assert config.sim.negotiation.enabled
        assert config.sim.negotiation.dimensions == ("savings",)

    def test_bad_experiment_name(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config('{"experiment": "frobnicate"}')

    def test_manifest_versions_block_tolerated(self):
        config = parse_config('{"versions": {"ricensim": "0.1.0"}, "seed": 3}')
        assert config.seed == 3

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("{nope")

    def test_type_error_named(self):
        with pytest.raises(ConfigError):
            parse_config('{"sim": {"dt_years": "five"}}')

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"sim": {"theta2": "2.6"}}, "sim.theta2"),
            ({"sim": {"theta3": False}}, "sim.theta3"),
            ({"sim": {"theta3": float("inf")}}, "sim.theta3"),
            ({"sim": {"depreciation": float("nan")}}, "sim.depreciation"),
            ({"sim": {"horizon_years": 100.0}}, "sim.horizon_years"),
            ({"sim": {"climate": {"initial_carbon_gtc": [850, 460]}}},
             "sim.climate.initial_carbon_gtc"),
            ({"sim": {"climate": {"initial_carbon_gtc": [850, 460, "x"]}}},
             "sim.climate.initial_carbon_gtc[2]"),
            ({"sim": {"negotiation": {"dimensions": "mitigation"}}}, "sim.negotiation.dimensions"),
            ({"sim": {"negotiation": {"enabled": 1}}}, "sim.negotiation.enabled"),
            ({"variant": {"damage_kind": 3}}, "variant.damage_kind"),
            ({"variant": {"disaster": [2.0, 1.0]}}, "variant.disaster"),
            ({"variant": {"disaster": {"threshold_degc": "2", "penalty": 1.0}}},
             "variant.disaster.threshold_degc"),
        ],
    )
    def test_field_types_follow_the_annotations(self, doc, key):
        with pytest.raises(ConfigError, match=re.escape(key + ":")):
            parse_config(json.dumps(doc))

    def test_integers_accepted_for_floats_and_kept_as_given(self):
        config = parse_config(json.dumps(
            {"sim": {"theta3": 2, "climate": {"initial_carbon_gtc": [850, 460, 1740]}}}
        ))
        assert config.sim.theta3 == 2 and config.sim.climate.initial_carbon_gtc == (850, 460, 1740)
        assert parse_config('{"variant": {"disaster": null}}').variant.disaster is None


class TestCsv:
    def test_full_precision_floats_and_lf_endings(self, tmp_path):
        path = write_csv(tmp_path / "x.csv", ["a", "b"], [[0.1, 2], [1 / 3, True]])
        raw = path.read_bytes()
        assert b"\r" not in raw
        text = raw.decode("utf-8")
        assert text.splitlines()[0] == "a,b"
        assert "0.3333333333333333" in text
        assert "true" in text

    def test_value_formatting(self):
        assert format_value(0.5) == "0.5"
        assert format_value(7) == "7"
        assert format_value(False) == "false"
        assert format_value(None) == ""
        assert format_value("x") == "x"

    def test_rewritten_file_is_byte_identical(self, tmp_path):
        rows = [[1.2345678901234567, 42]]
        a = write_csv(tmp_path / "a.csv", ["x", "y"], rows).read_bytes()
        b = write_csv(tmp_path / "b.csv", ["x", "y"], rows).read_bytes()
        assert a == b


def test_load_config_from_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"seed": 11, "experiment": "horizon"}')
    config = load_config(path)
    assert config.seed == 11
    assert config.experiment == "horizon"
    assert isinstance(config, RunConfig)
    assert isinstance(config.sim, SimParams)
