import numpy as np
import pytest

from afp.checkpoint import MAGIC, load_arrays, load_params, save_arrays, save_params
from afp.errors import CheckpointError
from afp.model import ModelConfig, init_params
from afp.rng import stream

CFG = ModelConfig(vocab_size=13, d_model=8, n_layers=2, n_heads=2, d_ff=12, max_seq_len=6)


class TestRoundTrip:
    def test_bit_exact_float32_and_float64(self, tmp_path):
        rng = stream(0, "ckpt")
        arrays = {
            "a": rng.standard_normal((3, 4)).astype(np.float32),
            "b.nested.name": rng.standard_normal(7),
            "scalar_ish": rng.standard_normal((1,)),
        }
        path = tmp_path / "x.afpt"
        save_arrays(path, arrays)
        loaded = load_arrays(path)
        assert list(loaded) == list(arrays)
        for name in arrays:
            assert loaded[name].dtype == arrays[name].dtype
            assert np.array_equal(
                loaded[name].view(np.uint8), arrays[name].view(np.uint8)
            )

    def test_params_round_trip(self, tmp_path):
        params = init_params(CFG, seed=3)
        path = tmp_path / "m.afpt"
        save_params(path, params)
        again = load_params(path, CFG)
        for (na, ta), (nb, tb) in zip(params.named(), again.named()):
            assert na == nb
            assert np.array_equal(ta.data, tb.data)

    def test_save_is_deterministic(self, tmp_path):
        params = init_params(CFG, seed=4)
        p1, p2 = tmp_path / "a.afpt", tmp_path / "b.afpt"
        save_params(p1, params)
        save_params(p2, params)
        assert p1.read_bytes() == p2.read_bytes()


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.afpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            load_arrays(path)

    def test_truncation(self, tmp_path):
        params = init_params(CFG, seed=5)
        path = tmp_path / "t.afpt"
        save_params(path, params)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_arrays(path)

    def test_wrong_config_shapes(self, tmp_path):
        params = init_params(CFG, seed=6)
        path = tmp_path / "w.afpt"
        save_params(path, params)
        other = ModelConfig(vocab_size=13, d_model=8, n_layers=3, n_heads=2, d_ff=12, max_seq_len=6)
        with pytest.raises(CheckpointError):
            load_params(path, other)

    def test_same_names_wrong_shapes(self, tmp_path):
        path = tmp_path / "s.afpt"
        save_params(path, init_params(CFG, seed=6))
        wider = ModelConfig(vocab_size=13, d_model=8, n_layers=2, n_heads=2, d_ff=16, max_seq_len=6)
        with pytest.raises(CheckpointError, match="mlp.w1: shape"):
            load_params(path, wider)

    def test_magic_is_afpt(self, tmp_path):
        params = init_params(CFG, seed=7)
        path = tmp_path / "m.afpt"
        save_params(path, params)
        assert path.read_bytes()[:4] == MAGIC == b"AFPT"
