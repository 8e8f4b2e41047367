import dataclasses
import json

import pytest

from afp.config import (
    RunConfig,
    apply_override,
    config_from_dict,
    dumps_config,
    load_config,
    save_config,
)
from afp.errors import ConfigError


class TestDefaults:
    def test_documented_defaults(self):
        cfg = RunConfig()
        assert cfg.train.tau == 0.05
        assert cfg.train.alpha == 1.5
        assert cfg.train.p_src == 0.5
        assert cfg.train.align_layer == 1
        assert cfg.train.pooling == "mean"
        assert cfg.train.beta1 == 0.9 and cfg.train.beta2 == 0.999
        assert cfg.train.weight_decay == 0.0
        assert cfg.train.lr == 3e-4
        assert cfg.train.steps == 2000
        assert cfg.train.mcl_batch == cfg.train.cif_batch == 32
        assert cfg.corpus.concept_count == 128
        assert cfg.seed == 0

    def test_empty_dict_is_all_defaults(self):
        assert config_from_dict({}, env={}) == RunConfig()


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown top-level"):
            config_from_dict({"modle": {}}, env={})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match="unknown keys in train"):
            config_from_dict({"train": {"taus": 0.1}}, env={})

    def test_invalid_values(self):
        with pytest.raises(ConfigError):
            config_from_dict({"train": {"tau": 0.0}}, env={})
        with pytest.raises(ConfigError):
            config_from_dict({"train": {"p_src": 1.5}}, env={})
        with pytest.raises(ConfigError):
            config_from_dict({"corpus": {"policy": "ring"}}, env={})
        with pytest.raises(ConfigError, match="eval.n_examples"):
            config_from_dict({"eval": {"n_examples": 0}}, env={})

    def test_align_layer_beyond_the_model_rejected(self):
        for layers, layer in ((4, 4), (2, 2), (2, 0)):
            doc = {"model": {"n_layers": layers}, "train": {"align_layer": layer}}
            assert config_from_dict(doc, env={}).train.align_layer == layer
        with pytest.raises(ConfigError, match=r"train.align_layer 5 outside \[0, 4\]"):
            config_from_dict({"train": {"align_layer": 5}}, env={})
        with pytest.raises(ConfigError, match=r"train.align_layer 3 outside \[0, 2\]"):
            config_from_dict({"model": {"n_layers": 2}, "train": {"align_layer": 3}}, env={})
        cfg = RunConfig()
        with pytest.raises(ConfigError, match="align_layer"):  # the path the sweep's grid points take
            dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, align_layer=5))


class TestRoundTrip:
    def test_load_save_byte_stable(self, tmp_path):
        path = tmp_path / "cfg.json"
        # write a scrambled-key, oddly formatted file
        raw = {"seed": 7, "train": {"alpha": 2.0, "tau": 0.1}, "model": {}}
        path.write_text(json.dumps(raw, indent=7))
        cfg = load_config(path)
        canon = tmp_path / "canon.json"
        save_config(canon, cfg)
        first = canon.read_bytes()
        cfg2 = load_config(canon)
        save_config(canon, cfg2)
        assert canon.read_bytes() == first

    def test_canonical_ordering(self):
        text = dumps_config(RunConfig())
        obj = json.loads(text)
        assert list(obj) == sorted(obj)
        assert text.endswith("\n")


class TestOverridesAndEnv:
    def test_set_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        cfg = load_config(path, overrides=["train.alpha=2.5", "seed=9"])
        assert cfg.train.alpha == 2.5
        assert cfg.seed == 9

    def test_string_override(self):
        obj = apply_override({}, "train.pooling=max")
        assert obj["train"]["pooling"] == "max"

    def test_env_seed_is_last_resort(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        cfg = load_config(path, env={"AFP_SEED": "123"})
        assert cfg.seed == 123

    def test_config_seed_beats_env(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": 4}')
        cfg = load_config(path, env={"AFP_SEED": "123"})
        assert cfg.seed == 4

    def test_flag_beats_config_and_env(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": 4}')
        cfg = load_config(path, overrides=["seed=77"], env={"AFP_SEED": "123"})
        assert cfg.seed == 77

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigError):
            apply_override({}, "no_equals_sign")
