"""Engine configuration: defaults, file loading, overrides, and hashing.

Config files are YAML (JSON is valid YAML) mirroring the EngineConfig tree
below; CLI --set overrides use dotted paths and win over the file. Unknown
keys are rejected by name, and every run embeds a hash of the effective
config so outputs can be traced back to their exact settings.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import typing
from dataclasses import dataclass, field

from .backend import Backend, BackendConfig, HttpBackend, ScriptedPolicyBackend
from .errors import ConfigError
from .evaluation import EVAL_MODES, ReflectionVocab
from .rewards import RewardConfig
from .task import StageBudgets


@dataclass(frozen=True)
class RolloutConfig:
    parallelism: int = 4
    samples_per_prompt: int = 32
    batch_size: int = 128

    def __post_init__(self) -> None:
        for name in ("parallelism", "samples_per_prompt", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"rollout.{name} must be >= 1")


@dataclass(frozen=True)
class EvalConfig:
    k: int = 16
    vocab: tuple[str, ...] = ReflectionVocab.terms
    modes: tuple[str, ...] = ("thinker",)

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "vocab", ReflectionVocab(terms=self.vocab).terms)  # checks each term
        except ValueError as exc:
            raise ValueError(f"eval.vocab: {exc}") from None
        # one spelling per mode, so thinker-fast and thinker_fast hash alike
        object.__setattr__(self, "modes", tuple(m.replace("-", "_") for m in self.modes))
        if self.k < 1:
            raise ValueError("eval.k must be >= 1")
        if not self.modes:
            raise ValueError("eval.modes must be nonempty")
        if len(set(self.modes)) < len(self.modes):
            raise ValueError(f"eval.modes entries must be distinct, got {list(self.modes)}")
        for mode in self.modes:
            if mode not in EVAL_MODES:
                raise ValueError(f"eval.modes entry {mode!r} not one of {EVAL_MODES}")

    def reflection_vocab(self) -> ReflectionVocab:
        return ReflectionVocab(terms=self.vocab)


@dataclass(frozen=True)
class EngineConfig:
    budgets: StageBudgets = field(default_factory=StageBudgets)
    rewards: RewardConfig = field(default_factory=RewardConfig)
    backend: BackendConfig = field(default_factory=BackendConfig)
    rollout: RolloutConfig = field(default_factory=RolloutConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)


# A decimal number with an exponent, which YAML 1.1 reads as text when it
# lacks the point or the exponent's sign that YAML asks for (1e-4, 1.5e3).
_EXPONENT_FLOAT = re.compile(r"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)[eE][-+]?[0-9]+")


def _coerce_scalar(hint, value, path: str):
    if typing.get_origin(hint) in (tuple, list):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list")
        inner = typing.get_args(hint)[0] if typing.get_args(hint) else str
        return tuple(_coerce_scalar(inner, v, f"{path}[{i}]") for i, v in enumerate(value))
    if hint is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected a boolean, got {value!r}")
        return value
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if hint is float:
        if isinstance(value, str) and _EXPONENT_FLOAT.fullmatch(value):
            value = float(value)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        return float(value)
    if hint is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    raise ConfigError(f"{path}: unsupported value {value!r}")


def _build_dataclass(dc_type, data, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected a mapping")
    hints = typing.get_type_hints(dc_type)
    known = {f.name: f for f in dataclasses.fields(dc_type)}
    kwargs = {}
    for key, value in data.items():
        full = f"{path}.{key}" if path else key
        if key not in known:
            raise ConfigError(f"unknown config key {full!r}")
        hint = hints[known[key].name]
        if dataclasses.is_dataclass(hint):
            kwargs[key] = _build_dataclass(hint, value, full)
        else:
            kwargs[key] = _coerce_scalar(hint, value, full)
    # fill defaults for absent keys via normal construction
    try:
        return dc_type(**kwargs)
    except ValueError as exc:
        # the message names its key once, in full: a section's own checks do so already,
        # the value types it holds (budgets, rewards, policy) name the bare field
        message = str(exc)
        if path and not message.startswith(f"{path}."):
            message = f"{path}.{message}"
        raise ConfigError(message) from exc


def config_from_dict(data: dict | None) -> EngineConfig:
    return _build_dataclass(EngineConfig, data or {}, "")


def _set_dotted(tree: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = tree
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override {dotted!r}: {part!r} is not a section")
    node[parts[-1]] = value


def parse_override(text: str) -> tuple[str, object]:
    """Parse one --set override of the form section.key=value."""
    if "=" not in text:
        raise ConfigError(f"override {text!r} must look like key=value")
    key, raw = text.split("=", 1)
    key = key.strip()
    if not key:
        raise ConfigError(f"override {text!r} has an empty key")
    import yaml  # loaded on first use: a run given no overrides and no file never reads YAML
    try:
        value = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError(f"override {text!r}: unparseable value ({exc})") from exc
    return key, value


def load_config(path: str | None = None, overrides: list[str] | None = None,
                values: dict[str, object] | None = None) -> EngineConfig:
    """Effective config = defaults, overlaid by the file, then by --set
    overrides, then by `values` (dotted key -> typed value, never parsed)."""
    tree: dict = {}
    if path is not None:
        import yaml
        try:
            with open(path, encoding="utf-8") as fh:
                loaded = yaml.safe_load(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"config {path!r} is not valid YAML: {exc}") from exc
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {path!r} must contain a mapping at the top level")
        tree = loaded
    for override in overrides or []:
        _set_dotted(tree, *parse_override(override))
    for key, value in (values or {}).items():
        _set_dotted(tree, key, value)
    return config_from_dict(tree)


def config_hash(cfg: EngineConfig) -> str:
    canonical = json.dumps(dataclasses.asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def build_backend(cfg: EngineConfig) -> Backend:
    """Instantiate the configured backend."""
    if cfg.backend.kind == "http":
        return HttpBackend(cfg.backend)
    return ScriptedPolicyBackend(cfg.backend.policy)
