import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from afp import corpus as C
from afp import losses
from afp import model as M
from afp import tensor as T
from afp.config import RunConfig
from afp.errors import ConfigError, NumericError, ShapeError, UsageError
from afp.gradcheck import grad_error
from afp.losses import afp_loss, embed
from afp.model import ForwardResult, KVCache, ModelConfig, forward, init_params, param_shapes, sequence_nll
from afp.represent import POOLING_METHODS, pool
from afp.rng import stream
from afp.tensor import Graph, Tensor
from afp.training import generate_corpus

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
            assert all(h is None for h in res.hidden_states[:layer])
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

    @pytest.mark.parametrize("n_layers", [1, 2, 4])
    def test_residual_stream_stays_in_rows(self, n_layers):
        # one reshape into rows, one back out per block output, one for the logits
        cfg = ModelConfig(vocab_size=19, d_model=16, n_layers=n_layers, n_heads=2, d_ff=24, max_seq_len=12)
        with Graph() as g:
            res = forward(init_params(cfg, seed=1), rand_tokens(stream(1, "rows"), 3, 5))
        assert [n.op for n in g.nodes].count("reshape") == n_layers + 2
        assert all(h.shape == (3, 5, 16) for h in res.hidden_states)
        assert res.logits.shape == (3, 5, 19)

    def test_over_length_rejected(self):
        params = init_params(CFG, seed=0)
        with pytest.raises(ShapeError):
            forward(params, np.zeros((1, CFG.max_seq_len + 1), dtype=int))

    def test_bad_token_id_rejected(self):
        params = init_params(CFG, seed=0)
        with pytest.raises(IndexError):
            forward(params, np.array([[CFG.vocab_size]]))


def filled_outputs(a, b):
    """(a, b) array pairs of every output both results fill, or None if they fill different ones."""
    outs_a, outs_b = [*a.hidden_states, a.logits], [*b.hidden_states, b.logits]
    if len(outs_a) != len(outs_b) or any((x is None) != (y is None) for x, y in zip(outs_a, outs_b)):
        return None
    return [(x.data, y.data) for x, y in zip(outs_a, outs_b) if x is not None]


def same_forward(a, b):
    arrays = filled_outputs(a, b)
    return arrays is not None and all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in arrays)


@pytest.fixture()
def chunk_calls(monkeypatch):
    """Records the row count of every one-piece forward that model.forward runs."""
    calls = []
    real = M._forward

    def spy(params, tokens, *args):
        calls.append(len(tokens))
        return real(params, tokens, *args)

    monkeypatch.setattr(M, "_forward", spy)
    return calls


def unchunked_forward(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(M, "CHUNK_POSITIONS", 10**9)
        return forward(*args, **kwargs)


def close_forward(a, b, rel):
    arrays = filled_outputs(a, b)
    return arrays is not None and all(x.dtype == y.dtype and np.abs(x - y).max() <= rel * np.abs(y).max() for x, y in arrays)


# The default run config's model, whose float32 products keep their bits in
# pieces of two or more rows under OpenBLAS, and a d32 model with a
# (32, 64, 100) product whose rows can differ in the last bits by piece size.
CHUNK_MODELS = [RunConfig().model, ModelConfig(vocab_size=100, d_model=32, n_layers=2, n_heads=4, d_ff=64, max_seq_len=12)]
# case -> (rows, positions per row, one-piece row counts with chunks of 3 rows)
CHUNK_CASES = {
    "right-padded": (32, 12, [3] * 10 + [2]),
    "odd-batch": (7, 12, [3, 3, 1]),
    "s1-remainder": (7, 1, [3, 4]),  # the lone last position folds into the chunk before
}


class TestChunkedForward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cfg", CHUNK_MODELS, ids=["desk", "d32"])
    @pytest.mark.parametrize("case", list(CHUNK_CASES))
    def test_chunked_equals_unchunked(self, monkeypatch, chunk_calls, dtype, cfg, case):
        b, s, chunks = CHUNK_CASES[case]
        monkeypatch.setattr(M, "CHUNK_POSITIONS", 3 * s)
        rng = stream(31, case)
        tokens = rand_tokens(rng, b, s, cfg.vocab_size)
        pad = np.arange(s)[None, :] < rng.integers(1, s + 1, size=(b, 1)) if case == "right-padded" else None
        params = init_params(cfg, seed=9, dtype=dtype)
        # each early stop fills only its own layer, so every layer is compared
        # in its own run; the full run compares every layer and the logits
        for layer in [*range(cfg.n_layers + 1), None]:
            chunk_calls.clear()
            got = forward(params, tokens, pad, upto_layer=layer)
            assert chunk_calls == chunks
            filled = [i for i, h in enumerate(got.hidden_states) if h is not None]
            assert filled == ([layer] if layer is not None else list(range(cfg.n_layers + 1)))
            assert (got.logits is None) == (layer is not None)
            want = unchunked_forward(monkeypatch, params, tokens, pad, upto_layer=layer)
            if cfg is CHUNK_MODELS[0] and dtype == np.float32:
                assert same_forward(got, want)
            else:
                assert close_forward(got, want, 1e-6)

    def test_batch_below_the_threshold_is_not_chunked(self, chunk_calls):
        params = init_params(CFG, seed=9)
        tokens = rand_tokens(stream(32, "small"), M.CHUNK_POSITIONS // CFG.max_seq_len, CFG.max_seq_len)
        forward(params, tokens)
        assert chunk_calls == [len(tokens)]

    def test_cache_and_recording_paths_never_chunk(self, monkeypatch, chunk_calls):
        monkeypatch.setattr(M, "CHUNK_POSITIONS", 2)
        params = init_params(CFG, seed=9)
        tokens = rand_tokens(stream(33, "unchunked"), 4, CFG.max_seq_len)
        with Graph():
            forward(params, tokens)
        forward(params, tokens[:1], cache=KVCache(params))
        assert chunk_calls == [4, 1]

    @pytest.mark.parametrize("checked", [False, True])
    def test_nan_in_the_last_chunk_raises(self, monkeypatch, chunk_calls, checked):
        monkeypatch.setattr(M, "CHUNK_POSITIONS", 3 * CFG.max_seq_len)
        params = init_params(CFG, seed=9)
        nan_token = CFG.vocab_size - 1
        params["tok_emb"].data[nan_token, 0] = np.nan
        tokens = rand_tokens(stream(34, "nan"), 7, CFG.max_seq_len, nan_token)
        tokens[6, 5] = nan_token  # only the last chunk, row 6, sees it
        T.set_checked(checked)
        try:
            with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="embedding" if checked else "attention: NaN"):
                forward(params, tokens)
        finally:
            T.set_checked(False)
        assert chunk_calls == [3, 3, 1]

    def test_traced_peak_is_the_output_plus_a_few_chunks(self, monkeypatch):
        cfg = RunConfig().model
        chunk = 128
        monkeypatch.setattr(M, "CHUNK_POSITIONS", chunk)
        params = init_params(cfg, seed=9)
        tokens = rand_tokens(stream(35, "peak"), 8 * chunk // 16, 16, cfg.vocab_size)
        tracemalloc.start()
        try:
            res = forward(params, tokens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out_bytes = sum(t.data.nbytes for t in res.hidden_states) + res.logits.data.nbytes
        # one chunk's outputs plus its widest activation, an MLP GELU input
        chunk_bytes = chunk * 4 * ((cfg.n_layers + 1) * cfg.d_model + cfg.vocab_size + cfg.d_ff)
        assert peak <= out_bytes + 4 * chunk_bytes


# case -> (rows, positions per row, valid positions of each row or None for random)
READ_CASES = {
    "right-padded": (12, 10, None),
    "single-row": (1, 10, [7]),
    "single-full-row": (1, 10, [10]),
}


def read_batch(cfg, case):
    b, s, lengths = READ_CASES[case]
    rng = stream(41, case)
    tokens = rand_tokens(rng, b, s, cfg.vocab_size)
    lengths = rng.integers(1, s + 1, size=b) if lengths is None else np.asarray(lengths)
    return tokens, np.arange(s)[None, :] < lengths[:, None]


def same_or_close(got, want, exact):
    """Bit-equal, or within 1e-6 of the largest magnitude of want."""
    if exact:
        return got.dtype == want.dtype and np.array_equal(got, want)
    return got.dtype == want.dtype and np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


# Recorded products and the embedding gradient's sort-sum run over the held
# rows alone, so their float32 sums round in another order than over every
# row: about 16 float32 epsilons, against a worst of 8.9e-7 over the desk and
# train_mcl_deep steps.
GRAD_TOL = 2e-6


def grads_close(got: dict, want: dict) -> bool:
    """The same leaves hold gradients, each within GRAD_TOL of the largest entry
    of want's. A key bias's exact gradient is zero (softmax ignores a shift
    shared by every key), so its entries are rounding noise, held to GRAD_TOL of
    the largest entry of every gradient instead."""
    if [n for n, g in got.items() if g is None] != [n for n, g in want.items() if g is None]:
        return False
    largest = max(np.abs(g).max() for g in want.values() if g is not None)
    return all(
        got[n].dtype == g.dtype
        and np.abs(got[n] - g).max() <= GRAD_TOL * (largest if n.endswith(".bk") else np.abs(g).max())
        for n, g in want.items()
        if g is not None
    )


def grad_bytes(grads: dict) -> dict:
    return {name: None if g is None else g.tobytes() for name, g in grads.items()}


class TestReadPositions:
    """A graph-free forward given `read` computes only what the read positions
    depend on; the oracle is a full forward, then gather_rows or pool."""

    @pytest.mark.parametrize("chunk_rows", [None, 3], ids=["unchunked", "chunked"])
    @pytest.mark.parametrize("case", list(READ_CASES))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cfg", CHUNK_MODELS, ids=["desk", "d32"])
    def test_pooled_embedding_equals_pool_of_full_forward(self, monkeypatch, cfg, dtype, case, chunk_rows):
        tokens, pad = read_batch(cfg, case)
        params = init_params(cfg, seed=9, dtype=dtype)
        full = unchunked_forward(monkeypatch, params, tokens, pad)
        monkeypatch.setattr(M, "CHUNK_POSITIONS", 10**9 if chunk_rows is None else chunk_rows * tokens.shape[1])
        exact = cfg is CHUNK_MODELS[0] and dtype == np.float32
        for method in POOLING_METHODS:
            for layer in range(cfg.n_layers + 1):
                got = embed(params, tokens, pad, layer, method).array
                want = pool(full.hidden_states[layer], pad, method, layer=layer).array
                assert same_or_close(got, want, exact), (method, layer)

    @pytest.mark.parametrize("chunk_rows", [None, 3], ids=["unchunked", "chunked"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cfg", CHUNK_MODELS, ids=["desk", "d32"])
    def test_read_rows_equal_gather_rows_of_full_forward(self, monkeypatch, cfg, dtype, chunk_rows):
        tokens, pad = read_batch(cfg, "right-padded")
        rng = stream(42, "read")
        read = rng.random(tokens.shape) < 0.2
        read[0] = False  # a row that reads nothing
        read[1, -1] = True  # a padded position after its row's valid ones
        assert not pad[1, -1]
        idx = np.flatnonzero(read)
        params = init_params(cfg, seed=9, dtype=dtype)
        monkeypatch.setattr(M, "CHUNK_POSITIONS", 10**9 if chunk_rows is None else chunk_rows * tokens.shape[1])
        exact = cfg is CHUNK_MODELS[0] and dtype == np.float32
        for layer in [*range(cfg.n_layers + 1), None]:
            got = forward(params, tokens, pad, upto_layer=layer, read=read)
            want = unchunked_forward(monkeypatch, params, tokens, pad, upto_layer=layer)
            outs = [*got.hidden_states, got.logits]
            top = len(outs) - 1 if layer is None else layer
            assert [i for i, t in enumerate(outs) if t is not None] == [top]  # the top output alone, packed
            full = want.logits if layer is None else want.hidden_states[layer]
            assert same_or_close(outs[top].data, T.gather_rows(full, idx).data, exact), layer

    @pytest.mark.parametrize("s, valid", [(10, 7), (1, 1)])
    def test_one_read_position_runs_no_one_row_product(self, monkeypatch, s, valid):
        cfg = RunConfig().model
        params = init_params(cfg, seed=9)
        tokens = rand_tokens(stream(43, "one"), 1, s, cfg.vocab_size)
        pad = np.arange(s)[None, :] < valid
        read = np.zeros_like(pad)
        read[0, valid - 1] = True
        full = forward(params, tokens, pad)
        products = []
        real = T.matmul
        monkeypatch.setattr(T, "matmul", lambda a, b, *bias: products.append(a.shape[0]) or real(a, b, *bias))
        got = forward(params, tokens, pad, read=read)
        # a gemv (a product of one row) rounds differently, unless the full forward runs one too
        assert min(products) == min(s, 2)
        assert got.logits.shape == (1, cfg.vocab_size)  # the lone read row, returned once
        assert np.array_equal(got.logits.data[0], full.logits.data[0, valid - 1])

    # the desk training config, and the MCL-only one of the benchmark's train_mcl_deep workload
    TRAIN_CONFIGS = {
        "desk": {},
        "mcl_deep": {"alpha": 0.0, "align_layer": 4, "pooling": "last_token", "symmetric_mcl": True, "mcl_batch": 64},
    }

    @pytest.mark.parametrize("pooling", POOLING_METHODS)
    @pytest.mark.parametrize("config", list(TRAIN_CONFIGS))
    def test_recorded_afp_loss_equal_and_gradients_close_to_full_forwards(self, monkeypatch, desk_corpus, config, pooling):
        """A training step against the same step with every forward computing
        every position: the loss is byte-equal, every leaf gradient within
        GRAD_TOL (see grads_close), and a rerun gives the same bytes."""
        run = RunConfig()
        tcfg = dataclasses.replace(run.train, **{**self.TRAIN_CONFIGS[config], "pooling": pooling})
        params = init_params(run.model, seed=3)

        def step(pairs, cif):
            for _, t in params.named():
                t.grad = None
            with Graph() as g:
                loss = afp_loss(params, pairs, cif, tcfg)
            T.backward(g, loss)
            return loss.data.tobytes(), {name: t.grad for name, t in params.named()}

        real = M.forward

        def full_forward(*args, read=None, **kwargs):  # every position, then the read rows of the top output
            res = real(*args, **kwargs)
            if read is None:
                return res
            idx = np.flatnonzero(read)
            if res.logits is not None:
                return M.ForwardResult([None] * len(res.hidden_states), T.gather_rows(res.logits, idx))
            res.hidden_states[-1] = T.gather_rows(res.hidden_states[-1], idx)
            return res

        for k in range(4):
            pairs = C.collate_pairs(desk_corpus.train_pairs[k * tcfg.mcl_batch : (k + 1) * tcfg.mcl_batch])
            cif = C.collate_cif(desk_corpus.train_cif[k * tcfg.cif_batch : (k + 1) * tcfg.cif_batch])
            assert not pairs.src_pad.all() and not cif.pad_mask.all()  # padding to skip
            got, again = step(pairs, cif), step(pairs, cif)
            with monkeypatch.context() as m:
                m.setattr(M, "forward", full_forward)
                m.setattr(losses, "forward", full_forward)
                want = step(pairs, cif)
            assert got[0] == again[0] == want[0]
            assert grad_bytes(got[1]) == grad_bytes(again[1])
            assert grads_close(got[1], want[1])
            assert (got[1]["out_proj"] is None) == (tcfg.alpha == 0)

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_one_read_position_recorded_gradients_equal_a_full_forward(self, dtype, tol):
        """A graph-free forward runs a lone read position twice; a recorded one
        must not count the copy's gradient (2x on tok_emb at layer 0 if it did).
        One-row products round differently, hence the tolerance, taken against
        the largest gradient: the key bias's is zero up to rounding (softmax
        ignores a shift shared by every key)."""
        cfg = RunConfig().model
        params = init_params(cfg, seed=9, dtype=dtype)
        s, valid = 10, 7
        tokens = rand_tokens(stream(46, "one-recorded"), 1, s, cfg.vocab_size)
        pad = np.arange(s)[None, :] < valid
        read = np.zeros_like(pad)
        read[0, valid - 1] = True
        rng = stream(47, "one-recorded-weights")
        for layer in [*range(cfg.n_layers + 1), None]:
            out = cfg.vocab_size if layer is None else cfg.d_model
            weights = Tensor(rng.normal(size=(1, out)).astype(dtype))
            grads = []
            for r in (read, None):
                for _, t in params.named():
                    t.grad = None
                with Graph() as g:
                    res = forward(params, tokens, pad, upto_layer=layer, read=r)
                    out = res.logits if layer is None else res.hidden_states[layer]
                    picked = T.gather_rows(out, [valid - 1] if r is None else [0])  # the packed read row
                    loss = T.sum_all(T.mul(picked, weights))
                T.backward(g, loss)
                grads.append({name: t.grad for name, t in params.named()})
            got, want = grads
            assert [name for name in got if got[name] is None] == [name for name in want if want[name] is None]
            scale = max(np.abs(g).max() for g in want.values() if g is not None)
            for name, g in want.items():
                if g is not None:
                    assert got[name].dtype == dtype and np.abs(got[name] - g).max() <= tol * scale, (layer, name)

    def test_bad_read_rejected(self):
        params = init_params(CFG, seed=9)
        tokens = rand_tokens(stream(45, "bad"), 2, 4)
        pad = np.array([[True] * 4, [False, True, True, False]])
        with pytest.raises(ShapeError, match="read"):
            forward(params, tokens, pad, read=np.ones((2, 3), dtype=bool))
        before = np.zeros_like(pad)
        before[1, 0] = True  # no valid position at or before it
        with pytest.raises(UsageError, match="no valid position"):
            forward(params, tokens, pad, read=before)
        with pytest.raises(UsageError, match="KV cache"):
            forward(params, tokens[:1], read=pad[:1], cache=KVCache(params))


class TestKVCache:
    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_chunked_feeds_match_full_forward(self, dtype, tol):
        params = init_params(CFG, seed=6).astype(dtype)
        tokens = rand_tokens(stream(6, "cache"), 1, CFG.max_seq_len)
        full = forward(params, tokens)
        cache = KVCache(params)
        start = 0
        for stop in (5, 6, 9, CFG.max_seq_len):
            res = forward(params, tokens[:, start:stop], cache=cache)
            assert cache.length == stop
            np.testing.assert_allclose(res.logits.data, full.logits.data[:, start:stop], rtol=0, atol=tol)
            for got, want in zip(res.hidden_states, full.hidden_states):
                np.testing.assert_allclose(got.data, want.data[:, start:stop], rtol=0, atol=tol)
            start = stop

    def test_rejected_under_an_active_graph(self):
        params = init_params(CFG, seed=0)
        cache = KVCache(params)
        with Graph(), pytest.raises(UsageError):
            forward(params, np.array([[1, 2]]), cache=cache)
        assert cache.length == 0

    def test_rejected_with_padding(self):
        params = init_params(CFG, seed=0)
        with pytest.raises(UsageError):
            forward(params, np.array([[1, 2, 3]]), np.array([[True, True, False]]), cache=KVCache(params))

    def test_rejected_with_early_stop(self):
        params = init_params(CFG, seed=0)
        with pytest.raises(UsageError):
            forward(params, np.array([[1, 2]]), upto_layer=1, cache=KVCache(params))

    def test_positions_past_max_seq_len_rejected(self):
        params = init_params(CFG, seed=0)
        cache = KVCache(params)
        forward(params, np.zeros((1, CFG.max_seq_len - 1), dtype=int), cache=cache)
        with pytest.raises(ShapeError):
            forward(params, np.zeros((1, 2), dtype=int), cache=cache)
        forward(params, np.zeros((1, 1), dtype=int), cache=cache)
        assert cache.length == CFG.max_seq_len

    def test_rejected_with_two_rows(self):
        params = init_params(CFG, seed=0)
        with pytest.raises(UsageError):
            forward(params, np.zeros((2, 3), dtype=int), cache=KVCache(params))


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

    def test_all_false_mask_rejected(self):
        params = init_params(CFG, seed=0)
        tokens = rand_tokens(stream(5, "nll0"), 2, 4)
        with pytest.raises(ShapeError, match="no position to score"):
            sequence_nll(params, tokens, np.zeros_like(tokens, dtype=bool))

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


def composed_nll(params, tokens, mask, pad):
    """sequence_nll as full logits -> reshape -> gather_rows -> cross_entropy_rows."""
    b, s = tokens.shape
    flat = T.reshape(forward(params, tokens, pad).logits, (b * s, params.config.vocab_size))
    rows_b, rows_t = np.nonzero(mask)
    return T.cross_entropy_rows(T.gather_rows(flat, rows_b * s + rows_t), tokens[rows_b, rows_t + 1])


@pytest.fixture(scope="module")
def desk_corpus():
    return generate_corpus(RunConfig())


class TestScoredRowsHead:
    """sequence_nll runs the head on the scored rows only, with the loss of the full head."""

    def loss_and_grads(self, params, fn):
        for _, t in params.named():
            t.grad = None
        with Graph() as g:
            loss = fn()
        shapes = [node.out.shape for node in g.nodes]
        T.backward(g, loss)
        return loss.data.tobytes(), {name: t.grad for name, t in params.named()}, shapes

    # (first train sample, scored positions kept): whole desk batches, and one
    # with few scored rows, whose head products OpenBLAS may sum in yet
    # another order
    @pytest.mark.parametrize("start, keep", [(0, None), (96, None), (0, 5)])
    def test_loss_equal_and_gradients_close_to_the_full_head(self, desk_corpus, start, keep):
        params = init_params(RunConfig().model, seed=3)
        batch = C.collate_cif(desk_corpus.train_cif[start : start + 32])
        assert not batch.pad_mask.all() and batch.pad_mask[:, 0].all()  # right-padded
        mask = batch.loss_mask.copy()
        if keep is not None:
            mask.flat[np.flatnonzero(mask)[keep:]] = False
        args = (params, batch.tokens, mask, batch.pad_mask)
        loss, grads, shapes = self.loss_and_grads(params, lambda: sequence_nll(*args)[0])
        again_loss, again_grads, _ = self.loss_and_grads(params, lambda: sequence_nll(*args)[0])
        want_loss, want_grads, _ = self.loss_and_grads(params, lambda: composed_nll(*args))
        vocab_rows = {shape[0] for shape in shapes if shape[-1:] == (params.config.vocab_size,)}
        assert vocab_rows == {int(mask.sum())}  # logits of the scored rows only
        assert loss == again_loss == want_loss
        assert grad_bytes(grads) == grad_bytes(again_grads)
        assert grads_close(grads, want_grads)

    def test_chunked_traced_peak_below_full_outputs(self, desk_corpus):
        cfg = RunConfig().model
        params = init_params(cfg, seed=3)
        batch = C.collate_cif(desk_corpus.heldout_cif)
        b, s = batch.tokens.shape
        assert b * s > M.CHUNK_POSITIONS
        tracemalloc.start()
        try:
            loss, _ = sequence_nll(params, batch.tokens, batch.loss_mask, batch.pad_mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loss.item() == composed_nll(params, batch.tokens, batch.loss_mask, batch.pad_mask).item()
        # what a forward keeping the [b, s, vocab] logits and every hidden layer holds
        full_outputs = b * s * 4 * (cfg.vocab_size + (cfg.n_layers + 1) * cfg.d_model)
        assert peak < full_outputs


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
