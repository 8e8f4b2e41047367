import math

import numpy as np
import pytest

from afp.errors import ConfigError, ShapeError, UsageError
from afp.gradcheck import grad_error
from afp.model import ForwardResult, ModelConfig, forward, init_params, param_shapes, sequence_nll
from afp.rng import stream
from afp.tensor import Tensor

CFG = ModelConfig(vocab_size=19, d_model=16, n_layers=2, n_heads=2, d_ff=24, max_seq_len=12)


def rand_tokens(rng, b, s, vocab=CFG.vocab_size):
    return rng.integers(0, vocab, size=(b, s))


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=8, d_model=10, n_layers=1, n_heads=3, d_ff=8, max_seq_len=4)

    def test_min_seq(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=8, d_model=8, n_layers=1, n_heads=2, d_ff=8, max_seq_len=1)


class TestInit:
    def test_deterministic(self):
        a = init_params(CFG, seed=5)
        b = init_params(CFG, seed=5)
        for (na, ta), (nb, tb) in zip(a.named(), b.named()):
            assert na == nb
            assert np.array_equal(ta.data, tb.data)

    def test_seeds_differ(self):
        a = init_params(CFG, seed=1)
        b = init_params(CFG, seed=2)
        assert not np.array_equal(a["tok_emb"].data, b["tok_emb"].data)

    def test_param_count_matches_enumeration(self):
        params = init_params(CFG, seed=0)
        v, d, f, L, s = CFG.vocab_size, CFG.d_model, CFG.d_ff, CFG.n_layers, CFG.max_seq_len
        per_block = (
            2 * d  # ln1
            + 4 * (d * d + d)  # qkv + out projections with biases
            + 2 * d  # ln2
            + (d * f + f) + (f * d + d)  # mlp
        )
        expected = v * d + s * d + L * per_block + 2 * d + d * v
        assert params.n_params() == expected
        assert params.n_params() == sum(int(np.prod(sh)) for sh in param_shapes(CFG).values())

    def test_output_projection_scaled_down(self):
        big = ModelConfig(vocab_size=4096, d_model=64, n_layers=8, n_heads=4, d_ff=64, max_seq_len=4)
        params = init_params(big, seed=0)
        ratio = params["out_proj"].data.std() / params["tok_emb"].data.std()
        assert abs(ratio - 1.0 / math.sqrt(2 * big.n_layers)) < 0.05


class TestForward:
    def test_single_token_shapes(self):
        params = init_params(CFG, seed=0)
        res = forward(params, np.array([[3]]))
        assert isinstance(res, ForwardResult)
        assert res.logits.shape == (1, 1, CFG.vocab_size)
        assert len(res.hidden_states) == CFG.n_layers + 1
        assert res.hidden_states[0].shape == (1, 1, CFG.d_model)

    def test_batch_permutation_permutes_outputs(self):
        params = init_params(CFG, seed=0)
        tokens = rand_tokens(stream(0, "perm"), 4, 6)
        perm = np.array([2, 0, 3, 1])
        base = forward(params, tokens).logits.data
        permuted = forward(params, tokens[perm]).logits.data
        np.testing.assert_array_equal(permuted, base[perm])

    def test_causality_probe(self):
        # changing the token at position t leaves logits at positions < t unchanged
        params = init_params(CFG, seed=1)
        rng = stream(1, "causal")
        tokens = rand_tokens(rng, 2, 8)
        base = forward(params, tokens).logits.data
        for t in (3, 5, 7):
            mutated = tokens.copy()
            mutated[:, t] = (mutated[:, t] + 1) % CFG.vocab_size
            out = forward(params, mutated).logits.data
            np.testing.assert_array_equal(out[:, :t], base[:, :t])
            assert not np.array_equal(out[:, t:], base[:, t:])

    def test_early_stop_returns_layers_up_to_l_and_no_logits(self):
        params = init_params(CFG, seed=4)
        tokens = rand_tokens(stream(4, "stop"), 2, 5)
        full = forward(params, tokens)
        for layer in range(CFG.n_layers + 1):
            res = forward(params, tokens, upto_layer=layer)
            assert res.logits is None
            assert len(res.hidden_states) == layer + 1
            np.testing.assert_array_equal(res.hidden_states[layer].data, full.hidden_states[layer].data)

    @pytest.mark.parametrize("layer", [-1, CFG.n_layers + 1])
    def test_early_stop_layer_out_of_range(self, layer):
        params = init_params(CFG, seed=4)
        with pytest.raises(UsageError):
            forward(params, np.array([[1, 2]]), upto_layer=layer)

    def test_hidden0_equals_embedding_sum(self):
        params = init_params(CFG, seed=2)
        tokens = rand_tokens(stream(2, "emb"), 3, 5)
        res = forward(params, tokens)
        expected = params["tok_emb"].data[tokens] + params["pos_emb"].data[:5]
        np.testing.assert_array_equal(res.hidden_states[0].data, expected)

    def test_padded_keys_do_not_affect_valid_positions(self):
        params = init_params(CFG, seed=3)
        tokens = rand_tokens(stream(3, "pad"), 2, 6)
        pad = np.ones((2, 6), dtype=bool)
        pad[:, 4:] = False
        base = forward(params, tokens, pad).logits.data
        mutated = tokens.copy()
        mutated[:, 4:] = (mutated[:, 4:] + 3) % CFG.vocab_size
        out = forward(params, mutated, pad).logits.data
        np.testing.assert_array_equal(out[:, :4], base[:, :4])

    def test_over_length_rejected(self):
        params = init_params(CFG, seed=0)
        with pytest.raises(ShapeError):
            forward(params, np.zeros((1, CFG.max_seq_len + 1), dtype=int))

    def test_bad_token_id_rejected(self):
        params = init_params(CFG, seed=0)
        with pytest.raises(IndexError):
            forward(params, np.array([[CFG.vocab_size]]))


class TestSequenceNll:
    def test_uniform_limit_with_zero_output_projection(self):
        params = init_params(CFG, seed=4)
        params["out_proj"].data[:] = 0.0
        tokens = rand_tokens(stream(4, "nll"), 4, 8)
        mask = np.zeros_like(tokens, dtype=bool)
        mask[:, 2:6] = True
        loss, n = sequence_nll(params, tokens, mask)
        assert n == 16
        assert abs(loss.item() - math.log(CFG.vocab_size)) / math.log(CFG.vocab_size) < 0.05

    def test_all_false_mask_flagged_zero(self):
        params = init_params(CFG, seed=0)
        tokens = rand_tokens(stream(5, "nll0"), 2, 4)
        loss, n = sequence_nll(params, tokens, np.zeros_like(tokens, dtype=bool))
        assert n == 0
        assert loss.item() == 0.0

    def test_position_by_position_oracle(self):
        params = init_params(CFG, seed=6).astype(np.float64)
        rng = stream(6, "oracle")
        tokens = rand_tokens(rng, 3, 7)
        mask = rng.random((3, 7)) < 0.5
        mask[:, -1] = False
        mask[0, 0] = True  # ensure nonempty
        loss, n = sequence_nll(params, tokens, mask)

        logits = forward(params, tokens).logits.data
        total, count = 0.0, 0
        for b in range(3):
            for t in range(7):
                if not mask[b, t]:
                    continue
                row = logits[b, t]
                z = np.log(np.exp(row - row.max()).sum()) + row.max()
                total += -(row[tokens[b, t + 1]] - z)
                count += 1
        assert count == n
        assert abs(loss.item() - total / count) < 1e-10

    def test_last_position_mask_rejected(self):
        params = init_params(CFG, seed=0)
        tokens = rand_tokens(stream(7, "last"), 1, 4)
        mask = np.zeros((1, 4), dtype=bool)
        mask[0, 3] = True
        with pytest.raises(UsageError):
            sequence_nll(params, tokens, mask)

    def test_gradients_match_finite_differences(self):
        for seed in range(5):
            params = init_params(CFG, seed=seed, dtype=np.float64)
            rng = stream(seed, "nllgrad")
            tokens = rand_tokens(rng, 2, 6)
            mask = np.zeros((2, 6), dtype=bool)
            mask[:, 1:5] = True
            leaves = [t for _, t in params.named()]
            err = grad_error(
                lambda: sequence_nll(params, tokens, mask)[0],
                leaves,
                stream(seed, "nllgrad-coords"),
                coords_per_tensor=2,
            )
            assert err <= 1e-4, f"seed {seed}: {err}"


class TestParams:
    def test_copy_is_deep(self):
        params = init_params(CFG, seed=0)
        clone = params.copy()
        clone["tok_emb"].data[0, 0] += 1.0
        assert params["tok_emb"].data[0, 0] != clone["tok_emb"].data[0, 0]

    def test_non_finite_rejected(self):
        params = init_params(CFG, seed=0)
        bad = {name: Tensor(t.data.copy()) for name, t in params.named()}
        bad["tok_emb"].data[0, 0] = np.nan
        with pytest.raises(ConfigError):
            type(params)(CFG, bad)
