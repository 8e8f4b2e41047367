import numpy as np
import pytest

from afp.errors import TrainingError
from afp.model import ModelConfig, init_params
from afp.optim import adamw_step, init_opt_state
from afp.rng import stream

CFG = ModelConfig(vocab_size=11, d_model=8, n_layers=1, n_heads=2, d_ff=8, max_seq_len=4)


def fresh():
    params = init_params(CFG, seed=0)
    return params, init_opt_state(params)


def zero_grads(params):
    return {name: np.zeros_like(p.data) for name, p in params.named()}


class TestAdamW:
    def test_zero_grad_zero_decay_leaves_params_unchanged(self):
        params, state = fresh()
        before = {name: p.data.copy() for name, p in params.named()}
        adamw_step(params, zero_grads(params), state, lr=0.1)
        for name, p in params.named():
            np.testing.assert_array_equal(p.data, before[name])

    def test_scalar_hand_value(self):
        # w=1, g=1, lr=0.1, wd=0, t=1: m_hat=1, v_hat=1 -> w = 1 - 0.1/(1+eps)
        params, state = fresh()
        params["final_ln.gain"].data[:] = 1.0
        grads = zero_grads(params)
        grads["final_ln.gain"][:] = 1.0
        adamw_step(params, grads, state, lr=0.1)
        np.testing.assert_allclose(params["final_ln.gain"].data, 0.9, atol=1e-7)

    def test_decoupled_decay_with_zero_grad(self):
        params, state = fresh()
        w0 = params["tok_emb"].data.copy()
        lr, wd = 0.05, 0.2
        adamw_step(params, zero_grads(params), state, lr=lr, weight_decay=wd)
        np.testing.assert_allclose(params["tok_emb"].data, w0 * (1 - lr * wd), atol=1e-7)

    def test_bias_correction_over_steps(self):
        # constant gradient: m_hat = g and v_hat = g^2 at every t, so each
        # step moves by exactly lr*g/(|g| + eps) regardless of beta decay
        params, state = fresh()
        g = 0.25
        grads = zero_grads(params)
        grads["final_ln.bias"][:] = g
        for _ in range(3):
            adamw_step(params, grads, state, lr=0.01)
        np.testing.assert_allclose(params["final_ln.bias"].data, -3 * 0.01 * g / (g + 1e-8), rtol=1e-5)

    def test_nan_grad_names_parameter(self):
        params, state = fresh()
        grads = zero_grads(params)
        grads["blocks.0.attn.wq"][0, 0] = np.nan
        with pytest.raises(TrainingError, match="blocks.0.attn.wq"):
            adamw_step(params, grads, state, lr=0.1)

    def test_overflowing_second_moment_names_parameter(self):
        params, state = fresh()
        grads = zero_grads(params)
        grads["blocks.0.mlp.w1"][0, 0] = 1e20  # finite in float32; its square is not
        assert grads["blocks.0.mlp.w1"].dtype == np.float32
        with pytest.raises(TrainingError, match="second moment .*blocks.0.mlp.w1"):
            adamw_step(params, grads, state, lr=0.1)

    def test_step_counter_advances(self):
        params, state = fresh()
        adamw_step(params, zero_grads(params), state, lr=0.1)
        adamw_step(params, zero_grads(params), state, lr=0.1)
        assert state.t == 2

    def test_deterministic_update(self):
        rng = stream(0, "adamw")
        g = {name: rng.standard_normal(p.data.shape).astype(np.float32) for name, p in init_params(CFG, seed=0).named()}
        results = []
        for _ in range(2):
            params, state = fresh()
            for _ in range(5):
                adamw_step(params, g, state, lr=3e-4)
            results.append({name: p.data.copy() for name, p in params.named()})
        for name in results[0]:
            np.testing.assert_array_equal(results[0][name], results[1][name])
