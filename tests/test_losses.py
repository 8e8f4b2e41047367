import contextlib
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from afp import corpus as C
from afp import losses
from afp import model as M
from afp.config import RunConfig, TrainConfig
from afp.errors import UsageError
from afp.gradcheck import grad_error
from afp.losses import afp_loss, cif_loss, embed, mcl_loss
from afp.model import ModelConfig, forward, init_params, sequence_nll
from afp.represent import POOLING_METHODS, PooledBatch, pool
from afp.rng import stream
from afp.tensor import Graph, Tensor, backward
from afp.training import _Helper, generate_corpus


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

    @staticmethod
    def mcl(params, pair_batch, cfg):
        h = embed(params, pair_batch.src_tokens, pair_batch.src_pad, cfg.align_layer, cfg.pooling)
        h_plus = embed(params, pair_batch.tgt_tokens, pair_batch.tgt_pad, cfg.align_layer, cfg.pooling)
        return mcl_loss(h, h_plus, cfg.tau, symmetric=cfg.symmetric_mcl)

    def test_alpha_zero_equals_mcl_exactly(self, tiny, monkeypatch):
        family, _, params = tiny
        pair_batch, cif_batch = self.make_batches(family, 12)

        def no_cif(*args):
            raise AssertionError("cif_loss called at alpha = 0")

        monkeypatch.setattr(losses, "cif_loss", no_cif)
        cfg = TrainConfig(alpha=0.0, tau=0.05, align_layer=1)
        total = afp_loss(params, pair_batch, cif_batch, cfg)
        assert total.item() == self.mcl(params, pair_batch, cfg).item()

    def test_weighted_arithmetic(self):
        assert 0.4 + 1.5 * 0.2 == pytest.approx(0.7)

    def test_components_compose(self, tiny):
        family, _, params = tiny
        pair_batch, cif_batch = self.make_batches(family, 13)
        cfg = TrainConfig(alpha=1.5, tau=0.05, align_layer=1)
        total = afp_loss(params, pair_batch, cif_batch, cfg)
        mcl = self.mcl(params, pair_batch, cfg).item()
        cif = cif_loss(params, cif_batch)[0].item()
        assert total.item() == pytest.approx(mcl + 1.5 * cif, abs=1e-12)

    @staticmethod
    def desk_step():
        cfg = RunConfig()
        corpus = generate_corpus(cfg)
        params = init_params(cfg.model, seed=cfg.seed)
        pair_batch, cif_batch = C.collate_pairs(corpus.train_pairs[:32]), C.collate_cif(corpus.train_cif[:32])
        return cfg, lambda: afp_loss(params, pair_batch, cif_batch, cfg.train)

    def test_desk_tape_op_sequence(self, monkeypatch):
        """The ops a desk training step records. Each forward holds only the
        rows its loss reads: attention takes the live rows packed and returns
        the rows that go on, and each product adds its bias itself; in the
        last block only the read rows go on (mean pooling reads every live
        row). Each forward returns its top output alone, packed, for pool or
        the cross-entropy to read. The CIF batch runs as two shards: the
        first on this tape, the second on a tape of its own, joined as one
        cif_shard node recorded first."""
        results = []
        real = M.forward

        def kept_forward(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(M, "forward", kept_forward)
        monkeypatch.setattr(losses, "forward", kept_forward)
        cfg, step = self.desk_step()
        with Graph() as g:
            step()

        def block(gather_x):
            return ["layer_norm", *["matmul"] * 3, *["gather_rows"] * gather_x, "attention", "matmul", "add",
                    "layer_norm", "matmul", "gelu", "matmul", "add"]

        def forward_ops(n_blocks, gather_x):
            return ["embedding", "embedding", "add", *block(False) * (n_blocks - 1), *block(gather_x)]

        assert cfg.train.pooling == "mean"
        side = [*forward_ops(cfg.train.align_layer, False), "pool_mean"]
        mcl = ["l2_normalize_rows", "l2_normalize_rows", "permute", "matmul", "scale", "cross_entropy_rows"]
        cif = [*forward_ops(cfg.model.n_layers, True), "layer_norm", "matmul", "cross_entropy_rows"]
        want = ["cif_shard", *side, *side, *mcl, *cif, "add", "scale", "add"]
        assert [n.op for n in g.nodes] == want
        assert len(want) == 97
        assert len(results) == 4  # both pair sides and both CIF shards
        assert all(sum(t is not None for t in [*res.hidden_states, res.logits]) == 1 for res in results)

    def test_deep_mcl_tape_with_the_worker(self, monkeypatch):
        """At alpha 0 train's worker embeds the target side: the calling tape
        holds the target_side node that joins the worker's gradients first,
        then the source side, one target_vectors node and the MCL ops, and no
        forward op of the target side. The gradients are the bytes of the
        step with both sides on the calling tape."""
        cfg = RunConfig()
        tcfg = dataclasses.replace(cfg.train, alpha=0.0, align_layer=4, pooling="last_token", symmetric_mcl=True)
        corpus = generate_corpus(cfg)
        pair_batch = C.collate_pairs(corpus.train_pairs[:64])
        forwards = []
        real = M.forward

        def counted_forward(*args, **kwargs):
            forwards.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(losses, "forward", counted_forward)
        grads = {}
        for runner in ("in process", "worker"):
            params = init_params(cfg.model, seed=cfg.seed)
            forwards.clear()
            with contextlib.ExitStack() as stack:
                helper = None if runner == "in process" else stack.enter_context(_Helper(params, C.collate_cif(corpus.heldout_cif)))
                with Graph() as g:
                    loss = afp_loss(params, pair_batch, None, tcfg, helper or losses.in_process)
                ops = [n.op for n in g.nodes]
                backward(g, loss)
            grads[runner] = [None if t.grad is None else t.grad.tobytes() for _, t in params.named()]
        assert [tokens is pair_batch.src_tokens for tokens in forwards] == [True]  # this process's one forward
        side = ops[1 : ops.index("target_vectors")]
        assert side[0] == "embedding" and side[-1] == "pool_last"
        infonce = ["l2_normalize_rows", "l2_normalize_rows", "permute", "matmul", "scale", "cross_entropy_rows"]
        assert ops == ["target_side", *side, "target_vectors", *infonce, *infonce, "add", "scale"]
        assert grads["worker"] == grads["in process"]
        assert all(g is not None for g in grads["worker"][:-3])  # all but the final layer norm and the head

    def test_desk_tape_holds_at_most_17_mib(self):
        """Traced numpy memory held after a desk afp_loss forward, the tape
        alive: each recorded value exists once (25.7 MiB when every product
        kept a bias-free copy and attention its spread and head-major ones)."""
        _, step = self.desk_step()
        tracemalloc.start()
        try:
            with Graph():
                loss = step()
                held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert np.isfinite(loss.item())
        assert held <= 17 * 2**20, held / 2**20

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
                lambda: afp_loss(params, pair_batch, cif_batch, cfg),
                leaves,
                stream(seed, "afp-fd"),
                coords_per_tensor=2,
            )
            assert err <= 1e-4, f"seed {seed}: {err}"
