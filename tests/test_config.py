import dataclasses
import re

import pytest

from thinker.backend import HttpBackend, ScriptedPolicyBackend
from thinker.config import (
    EngineConfig,
    _build_dataclass,
    build_backend,
    config_from_dict,
    config_hash,
    load_config,
    parse_override,
)
from thinker.errors import ConfigError


def _config_file(tmp_path, key: str, text: str) -> str:
    """A config file setting the dotted *key* to the YAML *text*."""
    for part in reversed(key.split(".")):
        text = f"{{{part}: {text}}}"
    path = tmp_path / "engine.yaml"
    path.write_text(text + "\n")
    return str(path)


@dataclasses.dataclass(frozen=True)
class _Weighted:
    """A section with a field of a type no config field has."""

    weights: dict[str, int] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class _Holder:
    section: _Weighted = dataclasses.field(default_factory=_Weighted)


class TestDefaults:
    def test_generation_settings(self):
        cfg = EngineConfig()
        assert cfg.budgets.fast_tokens == 1000
        assert cfg.budgets.verify_tokens == 2000
        assert cfg.budgets.slow_tokens == 6000
        assert cfg.budgets.summary_tokens == 1000
        assert cfg.budgets.temperature == 1.0
        assert cfg.budgets.summary_temperature == 0.6

    def test_reward_settings(self):
        cfg = EngineConfig()
        assert cfg.rewards.logprob_coef == pytest.approx(1e-3)
        assert cfg.rewards.min_summary_tokens == 300

    def test_rollout_and_eval_settings(self):
        cfg = EngineConfig()
        assert cfg.rollout.batch_size == 128
        assert cfg.rollout.samples_per_prompt == 32
        assert cfg.eval.k == 16
        assert cfg.eval.vocab == ("wait", "however", "alternatively")
        assert cfg.eval.single_turn_tokens == 8000


class TestBuild:
    def test_empty_dict_gives_defaults(self):
        assert config_from_dict({}) == EngineConfig()
        assert config_from_dict(None) == EngineConfig()

    def test_nested_values_applied(self):
        cfg = config_from_dict({
            "budgets": {"fast_tokens": 500},
            "rewards": {"logprob_coef": 1e-4, "trailing": {"ema_decay": 0.8}},
            "backend": {"kind": "http", "policy": {"p_fast": 0.9}},
        })
        assert cfg.budgets.fast_tokens == 500
        assert cfg.budgets.verify_tokens == 2000
        assert cfg.rewards.logprob_coef == pytest.approx(1e-4)
        assert cfg.rewards.trailing.ema_decay == pytest.approx(0.8)
        assert cfg.backend.kind == "http"
        assert cfg.backend.policy.p_fast == 0.9

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="rewards.coefficient"):
            config_from_dict({"rewards": {"coefficient": 1e-3}})
        with pytest.raises(ConfigError, match="'typo'"):
            config_from_dict({"typo": {}})

    def test_wrong_types_rejected(self):
        with pytest.raises(ConfigError, match="budgets.fast_tokens"):
            config_from_dict({"budgets": {"fast_tokens": "a lot"}})
        with pytest.raises(ConfigError, match="eval.vocab"):
            config_from_dict({"eval": {"vocab": "wait"}})
        with pytest.raises(ConfigError, match="budgets.fast_tokens"):
            config_from_dict({"budgets": {"fast_tokens": True}})

    def test_unsupported_field_type_named_in_error(self):
        with pytest.raises(ConfigError, match=r"^section\.weights: unsupported value \{'a': 1\}$"):
            _build_dataclass(_Holder, {"section": {"weights": {"a": 1}}}, "")

    def test_semantic_validation_wrapped(self):
        with pytest.raises(ConfigError, match="summary_temperature"):
            config_from_dict({"budgets": {"summary_temperature": 2.0}})
        with pytest.raises(ConfigError, match="backend"):
            config_from_dict({"backend": {"kind": "carrier-pigeon"}})

    # each would reach a reward as NaN or +-inf, or a request body that
    # json.dumps(allow_nan=False) refuses or a server should never see
    @pytest.mark.parametrize("section, key, value", [
        ("backend.policy", "logprob_per_token", float("nan")),
        ("backend.policy", "logprob_per_token", float("-inf")),
        ("rewards", "logprob_coef", float("nan")),
        ("rewards", "logprob_coef", float("inf")),
        ("budgets", "temperature", float("nan")),
        ("budgets", "temperature", float("inf")),
        ("budgets", "temperature", -0.5),
    ])
    def test_non_finite_or_negative_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            load_config(values={f"{section}.{key}": value})

    def test_zero_temperature_allowed(self):
        assert config_from_dict({"budgets": {"temperature": 0}}).budgets.temperature == 0.0

    def test_vocab_list_becomes_tuple(self):
        cfg = config_from_dict({"eval": {"vocab": ["wait", "hmm"]}})
        assert cfg.eval.vocab == ("wait", "hmm")

    def test_flat_backend_keys(self):
        cfg = config_from_dict({"backend": {
            "kind": "http", "base_url": "http://h/v1", "model": "m",
            "timeout_s": 5.0, "api_key_env": "KEY"}})
        settings = build_backend(cfg).settings
        assert settings.base_url == "http://h/v1"
        assert settings.model == "m"
        assert settings.timeout_s == 5.0
        assert settings.api_key_env == "KEY"

    def test_eval_modes_validated(self):
        cfg = config_from_dict({"eval": {"modes": ["thinker", "thinker-fast"]}})
        assert cfg.eval.modes == ("thinker", "thinker_fast")  # stored in one spelling
        with pytest.raises(ConfigError, match="modes"):
            config_from_dict({"eval": {"modes": ["zen"]}})
        with pytest.raises(ConfigError, match="modes"):
            config_from_dict({"eval": {"modes": []}})


class TestLoadAndOverride:
    def test_yaml_file(self, tmp_path):
        path = tmp_path / "engine.yaml"
        path.write_text("budgets:\n  slow_tokens: 4000\nrollout:\n  parallelism: 2\n")
        cfg = load_config(str(path))
        assert cfg.budgets.slow_tokens == 4000
        assert cfg.rollout.parallelism == 2

    def test_json_is_valid_yaml(self, tmp_path):
        path = tmp_path / "engine.json"
        path.write_text('{"eval": {"k": 4}}')
        assert load_config(str(path)).eval.k == 4

    def test_overrides_win_over_file(self, tmp_path):
        path = tmp_path / "engine.yaml"
        path.write_text("eval:\n  k: 4\n")
        cfg = load_config(str(path), ["eval.k=9"])
        assert cfg.eval.k == 9

    def test_typed_values_win_over_overrides(self, tmp_path):
        path = tmp_path / "engine.yaml"
        path.write_text("eval:\n  k: 4\n")
        cfg = load_config(str(path), ["eval.k=9", "rollout.batch_size=5"],
                          {"eval.k": 2, "eval.modes": ["single-turn"]})
        assert (cfg.eval.k, cfg.eval.modes, cfg.rollout.batch_size) == (2, ("single_turn",), 5)

    def test_typed_values_are_checked(self):
        with pytest.raises(ConfigError, match="eval.k: expected an integer"):
            load_config(None, None, {"eval.k": "2"})
        with pytest.raises(ConfigError, match="unknown config key 'eval.kk'"):
            load_config(None, None, {"eval.kk": 2})

    def test_override_parses_scalars(self):
        assert load_config(None, ["rewards.logprob_coef=1e-4"]).rewards.logprob_coef == 1e-4
        assert parse_override("rewards.logprob_per_token_mean=true") == (
            "rewards.logprob_per_token_mean", True)

    def test_override_returns_what_yaml_read(self):
        assert parse_override("rewards.logprob_coef=1e-4") == ("rewards.logprob_coef", "1e-4")
        assert parse_override('backend.model="123"') == ("backend.model", "123")

    def test_quoted_number_stays_text(self):
        assert load_config(None, ['backend.model="123"']).backend.model == "123"
        assert load_config(None, ["backend.model='007'"]).backend.model == "007"

    # YAML 1.1 reads each as text; a float field takes it as a number, by any route
    @pytest.mark.parametrize("key, text, number", [
        ("rewards.logprob_coef", "1e-4", 1e-4),
        ("backend.policy.logprob_per_token", "-2E+3", -2000.0),
        ("rewards.logprob_coef", ".5e-3", 5e-4),
        ("rewards.logprob_coef", "1.5e3", 1500.0),
    ])
    def test_exponent_float_same_by_every_route(self, tmp_path, key, text, number):
        routes = [load_config(_config_file(tmp_path, key, text)), load_config(None, [f"{key}={text}"]),
                  load_config(None, None, {key: text})]
        assert routes == [load_config(None, None, {key: number})] * 3

    @pytest.mark.parametrize("key, text, message", [
        ("eval.k", "1e3", "eval.k: expected an integer, got '1e3'"),
        ("budgets.fast_tokens", '"a lot"', "budgets.fast_tokens: expected an integer, got 'a lot'"),
        ("budgets.temperature", '"0.5"', "budgets.temperature: expected a number, got '0.5'"),
        ("backend.model", "123", "backend.model: expected a string, got 123"),
        ("rewards.logprob_coef", "1e-4x", "rewards.logprob_coef: expected a number, got '1e-4x'"),
        ("eval.vocab", '[wait, ""]', "reflection term '' must begin and end with a word character"),
        ("eval.vocab", '["  "]', "reflection term '  ' must begin and end"),
        ("eval.vocab", '["wait,"]', "reflection term 'wait,' must begin and end"),
        ("eval.vocab", '["<think>"]', "reflection term '<think>' must begin and end"),
    ])
    def test_wrong_text_rejected_by_every_route(self, tmp_path, key, text, message):
        for path, overrides in ((_config_file(tmp_path, key, text), None), (None, [f"{key}={text}"])):
            with pytest.raises(ConfigError, match=re.escape(message)):
                load_config(path, overrides)

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigError):
            parse_override("no-equals-sign")
        with pytest.raises(ConfigError):
            parse_override("=5")

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent.yaml")

    def test_non_utf8_file_is_config_error(self, tmp_path):
        path = tmp_path / "engine.yaml"
        path.write_bytes(b"a: \xff\n")
        with pytest.raises(ConfigError, match=re.escape(f"cannot read config {str(path)!r}")):
            load_config(str(path))

    def test_invalid_yaml_file_is_config_error(self, tmp_path):
        path = tmp_path / "engine.yaml"
        path.write_text("eval: [\n")
        with pytest.raises(ConfigError, match=re.escape(f"config {str(path)!r} is not valid YAML")):
            load_config(str(path))

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "engine.yaml"
        path.write_text("")
        assert load_config(str(path)) == EngineConfig()

    def test_non_mapping_file_rejected(self, tmp_path):
        path = tmp_path / "engine.yaml"
        path.write_text("- just\n- a\n- list\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_config(str(path))


class TestHash:
    def test_stable_for_equal_configs(self):
        assert config_hash(EngineConfig()) == config_hash(EngineConfig())

    def test_default_hash_pinned(self):
        # every output file of a default run embeds this value
        assert config_hash(EngineConfig()) == "42906493996766aa"

    def test_mode_spellings_hash_alike(self):
        hashes = {config_hash(config_from_dict({"eval": {"modes": [mode]}}))
                  for mode in ("thinker_fast", "thinker-fast")}
        assert len(hashes) == 1

    def test_changes_with_any_value(self):
        base = config_hash(EngineConfig())
        tweaked = config_hash(config_from_dict({"eval": {"k": 17}}))
        assert base != tweaked

    def test_roundtrips_through_dict(self):
        cfg = config_from_dict({"budgets": {"fast_tokens": 777}})
        assert config_from_dict(dataclasses.asdict(cfg)) == cfg


class TestBuildBackend:
    def test_scripted(self):
        backend = build_backend(EngineConfig())
        assert isinstance(backend, ScriptedPolicyBackend)

    def test_http(self):
        cfg = config_from_dict({"backend": {"kind": "http", "base_url": "http://x/v1"}})
        backend = build_backend(cfg)
        assert isinstance(backend, HttpBackend)
        assert backend.settings.base_url == "http://x/v1"

    def test_mock_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            config_from_dict({"backend": {"kind": "mock"}})
