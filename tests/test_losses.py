import math

import numpy as np
import pytest

from afp import corpus as C
from afp import losses
from afp.config import TrainConfig
from afp.errors import UsageError
from afp.gradcheck import grad_error
from afp.losses import afp_loss, cif_loss, embed, mcl_loss
from afp.model import ModelConfig, forward, init_params, sequence_nll
from afp.represent import POOLING_METHODS, PooledBatch, pool
from afp.rng import stream
from afp.tensor import Graph, Tensor, backward


def pooled(arr):
    return PooledBatch(vectors=Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True), method="mean", layer=1)


def mcl_oracle(h, hp, tau):
    # independent scalar-loop evaluation: cosine similarities, temperature
    # softmax with the positive inside the denominator, mean over anchors
    def cos(u, v):
        nu = math.sqrt(sum(x * x for x in u))
        nv = math.sqrt(sum(x * x for x in v))
        return sum(x * y for x, y in zip(u, v)) / (nu * nv)

    n = len(h)
    total = 0.0
    for i in range(n):
        denom = sum(math.exp(cos(h[i], hp[j]) / tau) for j in range(n))
        total += -math.log(math.exp(cos(h[i], hp[i]) / tau) / denom)
    return total / n


class TestMclHandValues:
    def test_identical_batch_ln4(self):
        vecs = np.tile([0.3, -0.7, 0.1], (4, 1))
        loss = mcl_loss(pooled(vecs), pooled(vecs.copy()), tau=0.7)
        assert abs(loss.item() - math.log(4.0)) < 1e-12

    def test_orthogonal_two_pairs_tau_one(self):
        h = [[1.0, 0.0], [0.0, 1.0]]
        loss = mcl_loss(pooled(h), pooled(h), tau=1.0)
        assert abs(loss.item() - math.log(1.0 + math.exp(-1.0))) < 1e-12
        assert abs(loss.item() - 0.313262) < 1e-6

    def test_orthogonal_two_pairs_tau_005(self):
        h = [[1.0, 0.0], [0.0, 1.0]]
        loss = mcl_loss(pooled(h), pooled(h), tau=0.05)
        assert abs(loss.item() - math.log1p(math.exp(-20.0))) < 1e-15
        assert loss.item() == pytest.approx(2.06e-9, rel=1e-2)


class TestMclOracle:
    def test_hundred_random_batches(self):
        for seed in range(100):
            rng = stream(seed, "mcl-oracle")
            n = int(rng.integers(2, 9))
            d = int(rng.integers(2, 7))
            tau = float(rng.choice([0.05, 0.2, 1.0]))
            h = rng.standard_normal((n, d))
            hp = rng.standard_normal((n, d))
            loss = mcl_loss(pooled(h), pooled(hp), tau)
            assert abs(loss.item() - mcl_oracle(h, hp, tau)) <= 1e-10

    def test_bounds(self):
        for seed in range(30):
            rng = stream(seed, "mcl-bounds")
            n = int(rng.integers(2, 8))
            tau = float(rng.choice([0.05, 0.5]))
            h = rng.standard_normal((n, 5))
            hp = rng.standard_normal((n, 5))
            val = mcl_loss(pooled(h), pooled(hp), tau).item()
            assert 0.0 <= val <= math.log(n) + 2.0 / tau

    def test_positive_rescaling_invariance(self):
        rng = stream(3, "mcl-scale")
        h = rng.standard_normal((6, 4))
        hp = rng.standard_normal((6, 4))
        base = mcl_loss(pooled(h), pooled(hp), 0.1).item()
        scales_h = rng.uniform(0.01, 50.0, size=(6, 1))
        scales_p = rng.uniform(0.01, 50.0, size=(6, 1))
        scaled = mcl_loss(pooled(h * scales_h), pooled(hp * scales_p), 0.1).item()
        assert abs(base - scaled) <= 1e-9

    def test_symmetric_flag_averages_directions(self):
        rng = stream(4, "mcl-sym")
        h = rng.standard_normal((5, 3))
        hp = rng.standard_normal((5, 3))
        sym = mcl_loss(pooled(h), pooled(hp), 0.3, symmetric=True).item()
        fwd = mcl_oracle(h, hp, 0.3)
        rev = mcl_oracle(hp, h, 0.3)
        assert abs(sym - 0.5 * (fwd + rev)) < 1e-10

    def test_single_pair_rejected(self):
        with pytest.raises(UsageError):
            mcl_loss(pooled([[1.0, 0.0]]), pooled([[0.0, 1.0]]), 0.5)

    def test_batch_size_mismatch_rejected(self):
        with pytest.raises(UsageError):
            mcl_loss(pooled(np.ones((3, 2))), pooled(np.ones((2, 2))), 0.5)

    def test_bad_tau_rejected(self):
        with pytest.raises(UsageError):
            mcl_loss(pooled(np.ones((2, 2))), pooled(np.ones((2, 2))), 0.0)

    def test_gradients_flow_through_both_sides(self):
        rng = stream(5, "mcl-grad")
        h = pooled(rng.standard_normal((4, 3)))
        hp = pooled(rng.standard_normal((4, 3)))
        with Graph() as g:
            loss = mcl_loss(h, hp, 0.2)
            backward(g, loss)
        assert h.vectors.grad is not None and np.any(h.vectors.grad)
        assert hp.vectors.grad is not None and np.any(hp.vectors.grad)


@pytest.fixture(scope="module")
def tiny():
    family = C.make_family(12, ["A", "B"], seed=8, length_bounds=(3, 5))
    mcfg = ModelConfig(vocab_size=family.vocab_size, d_model=16, n_layers=2, n_heads=2, d_ff=24, max_seq_len=32)
    params = init_params(mcfg, seed=8, dtype=np.float64)
    return family, mcfg, params


class TestCifLoss:
    def test_p_src_one_bit_equals_plain_instruction_nll(self, tiny):
        family, _, params = tiny
        rng = stream(9, "cif-degen")
        samples = [C.make_cif_sample(family, "copy", "A", 1.0, rng) for _ in range(6)]
        assert C.audit_cif(samples)["target_eq_source_frac"] == 1.0
        batch = C.collate_cif(samples)
        a, _ = cif_loss(params, batch)
        b, _ = sequence_nll(params, batch.tokens, batch.loss_mask, batch.pad_mask)
        assert a.item() == b.item()  # bit-equal

    def test_uniform_limit(self, tiny):
        family, mcfg, _ = tiny
        params = init_params(mcfg, seed=1, dtype=np.float64)
        params["out_proj"].data[:] = 0.0
        rng = stream(10, "cif-uniform")
        batch = C.collate_cif([C.make_cif_sample(family, "copy", "A", 0.5, rng) for _ in range(8)])
        loss, _ = cif_loss(params, batch)
        expected = math.log(mcfg.vocab_size)
        assert abs(loss.item() - expected) / expected < 0.05

    def test_per_position_oracle(self, tiny):
        family, _, params = tiny
        rng = stream(11, "cif-oracle")
        batch = C.collate_cif([C.make_cif_sample(family, "copy", "B", 0.5, rng) for _ in range(4)])
        loss, n = cif_loss(params, batch)
        logits = forward(params, batch.tokens, batch.pad_mask).logits.data
        total = 0.0
        for b in range(batch.tokens.shape[0]):
            for t in range(batch.tokens.shape[1]):
                if not batch.loss_mask[b, t]:
                    continue
                row = logits[b, t]
                z = math.log(sum(math.exp(v - row.max()) for v in row)) + row.max()
                total += -(row[batch.tokens[b, t + 1]] - z)
        assert abs(loss.item() - total / n) < 1e-10


class TestEmbed:
    @pytest.mark.parametrize("method", POOLING_METHODS)
    def test_equals_pool_of_full_forward_bit_for_bit(self, tiny, method):
        family, mcfg, params = tiny
        pairs = C.make_translation_pairs(family, "pairwise", 6, stream(15, "embed-pairs"))
        batch = C.collate_pairs(pairs)
        assert not batch.src_pad.all()  # ragged rows exercise the pad mask
        full = forward(params, batch.src_tokens, batch.src_pad)
        for layer in range(mcfg.n_layers + 1):
            got = embed(params, batch.src_tokens, batch.src_pad, layer, method)
            want = pool(full.hidden_states[layer], batch.src_pad, method, layer=layer)
            assert (got.method, got.layer) == (method, layer)
            assert np.array_equal(got.array, want.array)


class TestAfpLoss:
    def make_batches(self, family, seed):
        pairs = C.make_translation_pairs(family, "pairwise", 4, stream(seed, "afp-pairs"))
        rng = stream(seed, "afp-cif")
        cifs = [C.make_cif_sample(family, "copy", "A", 0.5, rng) for _ in range(4)]
        return C.collate_pairs(pairs[:4]), C.collate_cif(cifs)

    def test_alpha_zero_equals_mcl_exactly(self, tiny, monkeypatch):
        family, _, params = tiny
        pair_batch, cif_batch = self.make_batches(family, 12)

        def no_cif(*args):
            raise AssertionError("cif_loss called at alpha = 0")

        monkeypatch.setattr(losses, "cif_loss", no_cif)
        cfg = TrainConfig(alpha=0.0, tau=0.05, align_layer=1)
        total, comps = afp_loss(params, pair_batch, cif_batch, cfg)
        assert total.item() == comps["mcl"]
        assert list(comps) == ["mcl"]

    def test_weighted_arithmetic(self):
        assert 0.4 + 1.5 * 0.2 == pytest.approx(0.7)

    def test_components_compose(self, tiny):
        family, _, params = tiny
        pair_batch, cif_batch = self.make_batches(family, 13)
        cfg = TrainConfig(alpha=1.5, tau=0.05, align_layer=1)
        total, comps = afp_loss(params, pair_batch, cif_batch, cfg)
        assert total.item() == pytest.approx(comps["mcl"] + 1.5 * comps["cif"], abs=1e-12)

    def test_align_layer_out_of_range(self, tiny):
        family, _, params = tiny
        pair_batch, cif_batch = self.make_batches(family, 14)
        with pytest.raises(UsageError):
            afp_loss(params, pair_batch, cif_batch, TrainConfig(align_layer=3))

    def test_gradients_match_finite_differences(self, tiny):
        family, mcfg, _ = tiny
        for seed in range(3):
            params = init_params(mcfg, seed=seed, dtype=np.float64)
            pair_batch, cif_batch = self.make_batches(family, seed)
            cfg = TrainConfig(alpha=1.5, tau=0.05, align_layer=1)
            leaves = [t for _, t in params.named()]
            err = grad_error(
                lambda: afp_loss(params, pair_batch, cif_batch, cfg)[0],
                leaves,
                stream(seed, "afp-fd"),
                coords_per_tensor=2,
            )
            assert err <= 1e-4, f"seed {seed}: {err}"
