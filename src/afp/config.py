"""Run configuration: one JSON document covering model, training, corpus,
evaluation, and paths, with documented defaults for every field.

Loading rejects unknown keys; saving emits canonical bytes (sorted keys,
2-space indent, trailing newline), so load -> save is byte-stable.
"""

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field

from .atomic import atomic_write
from .corpus import POLICIES, TASKS
from .errors import ConfigError
from .model import ModelConfig
from .represent import POOLING_METHODS

ENV_SEED = "AFP_SEED"


@dataclass
class TrainConfig:
    align_layer: int = 1
    pooling: str = "mean"
    tau: float = 0.05
    alpha: float = 1.5
    p_src: float = 0.5
    # 1e-5 matches fine-tuning of large pretrained models; from-scratch desk
    # runs need the larger default.
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.0
    steps: int = 2000
    mcl_batch: int = 32
    cif_batch: int = 32
    eval_every: int = 500
    symmetric_mcl: bool = False

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.tau <= 0:
            raise ConfigError(f"tau must be > 0, got {self.tau}")
        if self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if not 0.0 <= self.p_src <= 1.0:
            raise ConfigError(f"p_src must be in [0, 1], got {self.p_src}")
        if self.lr < 0 or self.weight_decay < 0:
            raise ConfigError(f"lr and weight_decay must be >= 0, got {self.lr} and {self.weight_decay}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.align_layer < 0:
            raise ConfigError(f"align_layer must be >= 0, got {self.align_layer}")
        if self.pooling not in POOLING_METHODS:
            raise ConfigError(f"unknown pooling {self.pooling!r}")
        if self.steps < 0 or self.mcl_batch < 1 or self.cif_batch < 1 or self.eval_every < 1:
            raise ConfigError("steps/batch/eval_every out of range")

    @property
    def betas(self) -> tuple[float, float]:
        return (self.beta1, self.beta2)


@dataclass
class CorpusConfig:
    concept_count: int = 128
    languages: list = field(default_factory=lambda: ["L0", "L1"])
    transforms: list = field(default_factory=lambda: ["identity", "identity"])
    length_min: int = 3
    length_max: int = 8
    n_pairs_per_combination: int = 4096
    n_cif: int = 4096
    n_heldout_pairs: int = 128
    n_heldout_cif: int = 256
    policy: str = "pivot"
    pivot_lang: str = "L0"
    task: str = "copy"

    def __post_init__(self):
        if len(self.languages) != len(self.transforms):
            raise ConfigError("languages and transforms must have equal length")
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}")
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}")
        if self.length_min < 1 or self.length_max < self.length_min:
            raise ConfigError("bad length bounds")

    @property
    def langs_config(self) -> list:
        return list(zip(self.languages, self.transforms))

    @property
    def length_bounds(self) -> tuple:
        return (self.length_min, self.length_max)


@dataclass
class EvalConfig:
    n_examples: int = 200
    k_shot: int = 0
    max_new_tokens: int = 16
    eval_src_lang: str = "L0"
    eval_tgt_lang: str = "L1"

    def __post_init__(self):
        if self.n_examples < 1 or self.k_shot < 0 or self.max_new_tokens < 1:
            raise ConfigError("eval.n_examples and eval.max_new_tokens must be >= 1, and eval.k_shot >= 0")


@dataclass
class PathsConfig:
    corpus_dir: str = "corpus"
    run_dir: str = "run"


@dataclass
class RunConfig:
    # vocab 265 = 7 shared specials + 2 language tags + 2 * 128 concept tokens
    model: ModelConfig = field(
        default_factory=lambda: ModelConfig(
            vocab_size=265, d_model=64, n_layers=4, n_heads=4, d_ff=256, max_seq_len=96
        )
    )
    train: TrainConfig = field(default_factory=TrainConfig)
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)
    seed: int = 0

    def __post_init__(self):
        if self.train.align_layer > self.model.n_layers:
            raise ConfigError(f"train.align_layer {self.train.align_layer} outside [0, {self.model.n_layers}]")


_SECTIONS = {
    "model": ModelConfig,
    "train": TrainConfig,
    "corpus": CorpusConfig,
    "eval": EvalConfig,
    "paths": PathsConfig,
}


def _check_type(value, kind, where: str) -> None:
    """ConfigError unless value has the field type `kind`: an int or float
    field takes no bool, and a float field also takes an int."""
    if isinstance(value, bool) and kind is not bool:
        ok = False
    elif kind is float:
        ok = isinstance(value, (int, float))
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(f"{where} must be {kind.__name__}, got {value!r}")


def _build_section(cls, obj: dict, where: str, default):
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(obj) - set(fields)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    for name, value in obj.items():
        _check_type(value, fields[name], f"{where}.{name}")
    return dataclasses.replace(default, **obj)


def config_from_dict(obj: dict, env: dict | None = None) -> RunConfig:
    """Validate a raw JSON dict; AFP_SEED applies only when 'seed' is absent.

    Omitted keys take the documented defaults; unknown keys and values of
    the wrong type are rejected.
    """
    env = os.environ if env is None else env
    unknown = set(obj) - (set(_SECTIONS) | {"seed"})
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    defaults = RunConfig()
    kwargs = {}
    for name, cls in _SECTIONS.items():
        section = obj.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"section {name!r} must be an object")
        kwargs[name] = _build_section(cls, section, name, getattr(defaults, name))
    if "seed" in obj:
        seed = obj["seed"]
        _check_type(seed, int, "seed")
    elif ENV_SEED in env:
        try:
            seed = int(env[ENV_SEED])
        except ValueError:
            raise ConfigError(f"{ENV_SEED} must be an integer, got {env[ENV_SEED]!r}") from None
    else:
        seed = defaults.seed
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return RunConfig(seed=seed, **kwargs)


def dumps_config(cfg: RunConfig) -> str:
    return json.dumps(dataclasses.asdict(cfg), sort_keys=True, indent=2) + "\n"


def load_config(path, overrides: list[str] | None = None, env: dict | None = None) -> RunConfig:
    """Load a config file, applying --set key=value overrides before validation."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: top level must be an object")
    for item in overrides or []:
        obj = apply_override(obj, item)
    return config_from_dict(obj, env=env)


def save_config(path, cfg: RunConfig) -> None:
    with atomic_write(path) as fh:
        fh.write(dumps_config(cfg))


def apply_override(obj: dict, item: str) -> dict:
    """Apply one 'dotted.key=json_value' override to a raw config dict."""
    if "=" not in item:
        raise ConfigError(f"override {item!r} is not key=value")
    key, raw = item.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings stay strings
    parts = key.strip().split(".")
    node = obj
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override {item!r}: {p} is not a section")
    node[parts[-1]] = value
    return obj
