import ctypes
import glob
import math
import os

import numpy as np
import pytest

from afp import tensor as T
from afp.errors import NumericError, ShapeError, UsageError
from afp.gradcheck import grad_error
from afp.rng import stream
from afp.tensor import Graph, Tensor, backward


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def padded_attention_bias(pad_mask, dtype=np.float64):
    """Additive [B, 1, S, S] causal mask that also hides padded keys."""
    s = pad_mask.shape[1]
    allowed = np.tril(np.ones((s, s), dtype=bool))[None, None] & pad_mask[:, None, None, :]
    return np.where(allowed, 0.0, T.MASK_FILL).astype(dtype)


def composed_attention(q, k, v, bias, h):
    """The reshape/permute/bmm/scale/add/softmax_lastdim/bmm chain that
    T.attention fuses, with the mask repeated per head."""
    b, _, s, sk = bias.shape
    d = q.shape[-1]
    dh = d // h
    q3 = T.reshape(T.permute(T.reshape(q, (b, s, h, dh)), (0, 2, 1, 3)), (b * h, s, dh))
    kt = T.reshape(T.permute(T.reshape(k, (b, sk, h, dh)), (0, 2, 3, 1)), (b * h, dh, sk))
    v3 = T.reshape(T.permute(T.reshape(v, (b, sk, h, dh)), (0, 2, 1, 3)), (b * h, sk, dh))
    repeated = Tensor(np.repeat(bias.reshape(b, s, sk), h, axis=0))
    scores = T.add(T.scale(T.bmm(q3, kt), 1.0 / np.sqrt(dh)), repeated)
    ctx = T.bmm(T.softmax_lastdim(scores), v3)
    return T.reshape(T.permute(T.reshape(ctx, (b, h, s, dh)), (0, 2, 1, 3)), (b * s, d))


class TestMatmul:
    def test_identity(self):
        out = T.matmul(t64(np.eye(2)), t64([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.data, [[5.0, 6.0], [7.0, 8.0]])

    def test_zero(self):
        out = T.matmul(t64([[1.0, 2.0]]), t64([[0.0], [0.0]]))
        np.testing.assert_array_equal(out.data, [[0.0]])

    def test_scaled_against_triple_loop(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = 2.0 * np.eye(2)
        expected = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    expected[i, j] += a[i, k] * b[k, j]
        np.testing.assert_array_equal(expected, [[2.0, 4.0], [6.0, 8.0]])
        out = T.matmul(t64(a), t64(b))
        np.testing.assert_array_equal(out.data, expected)

    def test_random_against_triple_loop(self):
        rng = stream(11, "matmul")
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 5))
        expected = np.zeros((4, 5))
        for i in range(4):
            for j in range(5):
                for k in range(3):
                    expected[i, j] += a[i, k] * b[k, j]
        out = T.matmul(t64(a), t64(b))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(t64(np.ones((2, 3))), t64(np.ones((2, 3))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bias_bit_identical_to_add_bias_of_the_product(self, dtype):
        """Forward and all three gradients, one tape node instead of two."""
        rng = stream(13, "matmul-bias", np.dtype(dtype).name)
        arrays = [rng.standard_normal(shape).astype(dtype) for shape in [(9, 6), (6, 5), (5,)]]
        weight = Tensor(rng.standard_normal((9, 5)).astype(dtype))
        runs, ops = [], []
        for fn in (T.matmul, lambda a, w, b: T.add_bias(T.matmul(a, w), b)):
            leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            with Graph() as g:
                out = fn(*leaves)
                ops.append([n.op for n in g.nodes])
                backward(g, T.sum_all(T.mul(out, weight)))
            runs.append([out.data] + [t.grad for t in leaves])
        assert ops == [["matmul"], ["matmul", "add_bias"]]
        for fused, composed in zip(*runs):
            assert fused.dtype == composed.dtype == dtype
            assert fused.shape == composed.shape and fused.tobytes() == composed.tobytes()

    def test_bias_shape_and_dtype_mismatch_rejected(self):
        a, w = t64(np.ones((2, 3))), t64(np.ones((3, 4)))
        for bias in (t64(np.ones(3)), t64(np.ones((1, 4))), Tensor(np.ones(4, np.float32))):
            with pytest.raises(ShapeError, match="bias"):
                T.matmul(a, w, bias)

    def test_identity_associativity_bitwise(self):
        rng = stream(12, "assoc")
        for _ in range(10):
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 4))
            via_identity = T.matmul(T.matmul(t64(a), t64(np.eye(3))), t64(b))
            direct = T.matmul(t64(a), t64(b))
            assert np.array_equal(via_identity.data, direct.data)


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax_lastdim(t64([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_shift_forces_quarter_three_quarters(self):
        for c in (-5.0, 0.0, 123.0):
            out = T.softmax_lastdim(t64([c, c + math.log(3.0)]))
            np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_naive_oracle(self):
        x = np.array([1.0, 2.0, 3.0])
        naive = np.array([math.exp(v) for v in x])
        naive /= naive.sum()
        out = T.softmax_lastdim(t64(x))
        np.testing.assert_allclose(out.data, naive, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = stream(13, "softmax")
        for _ in range(25):
            x = rng.standard_normal((5, 7)) * rng.uniform(0.1, 50)
            out = T.softmax_lastdim(t64(x))
            np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5), atol=1e-12)

    def test_shift_invariance(self):
        rng = stream(14, "shift")
        x = rng.standard_normal((4, 6))
        base = T.softmax_lastdim(t64(x)).data
        shifted = T.softmax_lastdim(t64(x + 17.25)).data
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_nan_input_rejected(self):
        with pytest.raises(NumericError):
            T.softmax_lastdim(t64([0.0, float("nan")]))


class TestLayerNorm:
    def test_constant_row_zero_output(self):
        out = T.layer_norm(t64([3.0, 3.0, 3.0]), t64(np.ones(3)), t64(np.zeros(3)), eps=1e-5)
        np.testing.assert_allclose(out.data, np.zeros(3), atol=1e-12)

    def test_already_normalized(self):
        out = T.layer_norm(t64([1.0, -1.0]), t64(np.ones(2)), t64(np.zeros(2)), eps=1e-12)
        np.testing.assert_allclose(out.data, [1.0, -1.0], atol=1e-6)

    def test_two_pass_oracle(self):
        rng = stream(15, "ln")
        x = rng.standard_normal((3, 8))
        gain = rng.standard_normal(8)
        bias = rng.standard_normal(8)
        eps = 1e-5
        expected = np.empty_like(x)
        for i in range(3):
            mu = sum(x[i]) / 8
            var = sum((v - mu) ** 2 for v in x[i]) / 8
            expected[i] = (x[i] - mu) / math.sqrt(var + eps) * gain + bias
        out = T.layer_norm(t64(x), t64(gain), t64(bias), eps)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_bad_eps(self):
        with pytest.raises(UsageError):
            T.layer_norm(t64([1.0, 2.0]), t64(np.ones(2)), t64(np.zeros(2)), eps=0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_np_mean_and_var(self, dtype):
        rng = stream(16, "ln-bits")
        for shape in [(3, 8), (2, 5, 64), (7, 13), (40, 256)]:
            x = (rng.standard_normal(shape) * 30.0 + 5.0).astype(dtype)
            gain = rng.standard_normal(shape[-1]).astype(dtype)
            bias = rng.standard_normal(shape[-1]).astype(dtype)
            mean = x.mean(axis=-1, keepdims=True)
            var = x.var(axis=-1, keepdims=True)
            expected = (x - mean) * (1.0 / np.sqrt(var + 1e-5)) * gain + bias
            out = T.layer_norm(Tensor(x), Tensor(gain), Tensor(bias), 1e-5)
            assert out.dtype == dtype
            assert out.data.tobytes() == expected.astype(dtype).tobytes()


def spread(x, rows, n):
    """x's rows at flat positions `rows` of zeros [n, d]; the backward gathers them."""
    out = np.zeros((n, x.shape[-1]), x.dtype)
    out[rows] = x.data
    return T.apply_op("spread", out, (x,), lambda g: (g[rows],))


def packed_case(dtype):
    """A padded batch with its live rows (valid positions up to a per-row cut)
    and kept rows, a strict subset of the live ones."""
    b, s, d, h = 3, 7, 12, 2
    pad = np.ones((b, s), dtype=bool)
    pad[1, 5:] = False
    pad[2, 3:] = False
    live = np.flatnonzero(pad & (np.arange(s) <= np.array([[6], [4], [1]])))
    keep = live[[0, 3, len(live) - 1]]
    return b, s, d, h, padded_attention_bias(pad, dtype), live, keep


class TestAttention:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_and_gradients_bit_identical_to_composed_chain(self, dtype):
        rng = stream(17, "attn", np.dtype(dtype).name)
        b, s, d, h = 3, 7, 12, 2  # head dim 6: the 1/sqrt(6) scale rounds, unlike a power of two
        pad = np.ones((b, s), dtype=bool)
        pad[1, 5:] = False
        pad[2, 2:] = False
        bias = padded_attention_bias(pad, dtype)
        arrays = [rng.standard_normal((b * s, d)).astype(dtype) for _ in range(3)]
        weight = Tensor(rng.standard_normal((b * s, d)).astype(dtype))
        runs = []
        for fn in (lambda q, k, v: T.attention(q, k, v, bias, h), lambda q, k, v: composed_attention(q, k, v, bias, h)):
            leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            with Graph() as g:
                out = fn(*leaves)
                backward(g, T.sum_all(T.mul(out, weight)))
            runs.append([out.data] + [t.grad for t in leaves])
        for fused, composed in zip(*runs):
            assert fused.dtype == composed.dtype == dtype
            assert fused.shape == composed.shape
            assert fused.tobytes() == composed.tobytes()

    def test_is_one_tape_node(self):
        rng = stream(18, "attn-node")
        q, k, v = (t64(rng.standard_normal((4, 4)), requires_grad=True) for _ in range(3))
        with Graph() as g:
            T.attention(q, k, v, padded_attention_bias(np.ones((1, 4), dtype=bool)), 2)
        assert [node.op for node in g.nodes] == ["attention"]

    def test_nan_scores_rejected(self):
        q = t64(np.full((2, 4), np.nan))
        k = v = t64(np.ones((2, 4)))
        with pytest.raises(NumericError):
            T.attention(q, k, v, padded_attention_bias(np.ones((1, 2), dtype=bool)), 2)

    def test_shape_and_dtype_mismatch_rejected(self):
        bias = padded_attention_bias(np.ones((1, 3), dtype=bool))
        with pytest.raises(ShapeError):
            T.attention(t64(np.ones((3, 4))), t64(np.ones((2, 4))), t64(np.ones((3, 4))), bias, 2)
        with pytest.raises(ShapeError):
            T.attention(t64(np.ones((3, 4))), t64(np.ones((3, 4))), t64(np.ones((3, 4))), bias, 3)
        with pytest.raises(ShapeError):
            T.attention(t64(np.ones((3, 4))), t64(np.ones((3, 4))), t64(np.ones((3, 4))), bias.astype(np.float32), 2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kept", ["subset", "all"])
    def test_packed_rows_bit_identical_to_spread_dense_and_gather(self, dtype, kept):
        """Packed rows against spreading them into zeros, the dense op and a
        gather of the kept rows: output and q/k/v gradients."""
        b, s, d, h, bias, live, keep = packed_case(dtype)
        if kept == "all":
            keep = live
        assert np.isin(keep, live).all()
        rng = stream(19, "attn-rows", np.dtype(dtype).name)
        arrays = [rng.standard_normal((live.size, d)).astype(dtype) for _ in range(3)]
        weight = Tensor(rng.standard_normal((keep.size, d)).astype(dtype))

        def packed(q, k, v):
            return T.attention(q, k, v, bias, h, rows=live, keep=None if kept == "all" else keep)

        def oracle(q, k, v):
            dense = composed_attention(*(spread(t, live, b * s) for t in (q, k, v)), bias, h)
            return T.gather_rows(dense, keep)

        runs, ops = [], []
        for fn in (packed, oracle):
            leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            with Graph() as g:
                out = fn(*leaves)
                ops.append([n.op for n in g.nodes])
                backward(g, T.sum_all(T.mul(out, weight)))
            runs.append([out.data] + [t.grad for t in leaves])
        assert ops[0] == ["attention"]
        for got, want in zip(*runs):
            assert got.dtype == want.dtype == dtype
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert runs[0][0].shape == (keep.size, d)

    def test_dense_call_unchanged_by_rows_over_every_position(self):
        """rows naming every position in order is the dense op."""
        b, s, d, h, bias, _, _ = packed_case(np.float64)
        rng = stream(20, "attn-all-rows")
        q, k, v = (t64(rng.standard_normal((b * s, d))) for _ in range(3))
        dense = T.attention(q, k, v, bias, h)
        packed = T.attention(q, k, v, bias, h, rows=np.arange(b * s))
        assert dense.data.tobytes() == packed.data.tobytes()

    @pytest.mark.parametrize(
        "case, error",
        [
            ("row-too-large", IndexError),
            ("negative-row", IndexError),
            ("keep-too-large", IndexError),
            ("fewer-rows-than-q", ShapeError),
            ("k-rows-differ", ShapeError),
            ("two-d-rows", ShapeError),
            ("keys-beyond-queries", ShapeError),
        ],
    )
    def test_bad_rows_rejected(self, case, error):
        b, s, d, h, bias, live, keep = packed_case(np.float64)
        n = live.size
        q = k = v = t64(np.ones((n, d)))
        rows = live.copy()
        if case == "row-too-large":
            rows[-1] = b * s
        elif case == "negative-row":
            rows[0] = -1
        elif case == "keep-too-large":
            keep = np.array([0, b * s])
        elif case == "fewer-rows-than-q":
            rows = rows[:-1]
        elif case == "k-rows-differ":
            k = t64(np.ones((n - 1, d)))
        elif case == "two-d-rows":
            rows = rows.reshape(1, n)
        else:
            bias = np.concatenate([bias, bias], axis=-1)
        with pytest.raises(error):
            T.attention(q, k, v, bias, h, rows=rows, keep=keep)


class TestCrossEntropy:
    def test_uniform_two_way(self):
        loss = T.cross_entropy_rows(t64([[0.0, 0.0]]), [0])
        assert abs(loss.item() - math.log(2.0)) < 1e-12

    def test_confident_limit(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 1000.0
        loss = T.cross_entropy_rows(t64(logits), [2])
        assert loss.item() < 1e-12

    def test_naive_oracle(self):
        rng = stream(16, "ce")
        logits = rng.standard_normal((3, 5))
        targets = [4, 0, 2]
        expected = 0.0
        for i, t in enumerate(targets):
            z = sum(math.exp(v) for v in logits[i])
            expected += -math.log(math.exp(logits[i][t]) / z)
        expected /= 3
        loss = T.cross_entropy_rows(t64(logits), targets)
        assert abs(loss.item() - expected) < 1e-10

    def test_zero_rows_rejected(self):
        with pytest.raises(ShapeError):
            T.cross_entropy_rows(t64(np.zeros((0, 3))), [])

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            T.cross_entropy_rows(t64([[0.0, 0.0]]), [2])


class TestBackward:
    def test_sum_of_squares(self):
        x = t64([1.0, -2.0, 3.0], requires_grad=True)
        with Graph() as g:
            root = T.sum_all(T.mul(x, x))
            backward(g, root)
        np.testing.assert_allclose(x.grad, 2.0 * x.data, atol=1e-12)

    def test_constant_root_gives_zero_grad(self):
        x = t64([1.0, 2.0], requires_grad=True)
        c = t64([5.0])
        with Graph() as g:
            _ = T.mul(x, x)  # on tape but not part of root
            root = T.sum_all(c)
            backward(g, root)
        assert x.grad is None or not np.any(x.grad)

    def test_non_scalar_root_rejected(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with Graph() as g:
            y = T.mul(x, x)
            with pytest.raises(UsageError):
                backward(g, y)

    @staticmethod
    def seeded_leaf_grads(dtype, seeded: bool) -> list:
        """The leaf gradients of a [4, 3] root, a small two-layer net, seeded
        with a fixed gradient, or through the scalar sum_all(mul(root, seed))."""
        rng = np.random.default_rng(5)
        x, w1, w2 = (Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True) for s in ((4, 5), (5, 6), (6, 3)))
        seed = rng.standard_normal((4, 3)).astype(dtype)
        with Graph() as g:
            root = T.matmul(T.gelu(T.matmul(x, w1)), w2)
            if seeded:
                backward(g, root, seed)
            else:
                backward(g, T.sum_all(T.mul(root, Tensor(seed))))
        return [t.grad.tobytes() for t in (x, w1, w2)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_seeded_root_gives_the_bytes_of_a_scalar_root(self, dtype):
        assert self.seeded_leaf_grads(dtype, True) == self.seeded_leaf_grads(dtype, False)

    @pytest.mark.parametrize("seed", [np.ones((2, 3)), np.ones((3,)), np.ones((3, 2), np.float32), [[1.0, 1.0, 1.0]] * 3])
    def test_seed_of_another_shape_or_dtype_rejected(self, seed):
        x = t64(np.ones((3, 2)), requires_grad=True)
        with Graph() as g:
            y = T.mul(x, x)
            with pytest.raises(UsageError, match="seed gradient"):
                backward(g, y, seed)
        assert x.grad is None  # nothing ran

    def test_scalar_root_unchanged_by_the_seed_parameter(self):
        x = t64([1.0, -2.0, 3.0], requires_grad=True)
        with Graph() as g:
            root = T.sum_all(T.mul(x, x))
            backward(g, root)
        plain = x.grad
        with Graph() as g:
            root = T.sum_all(T.mul(x, x))
            backward(g, root, np.ones((), np.float64))
        assert plain.tobytes() == x.grad.tobytes() == (2.0 * x.data).tobytes()

    def test_grad_accumulates_over_reuses(self):
        x = t64([2.0], requires_grad=True)
        with Graph() as g:
            root = T.sum_all(T.add(T.mul(x, x), T.mul(x, x)))
            backward(g, root)
        np.testing.assert_allclose(x.grad, [8.0], atol=1e-12)

    def test_tape_released_gradients_kept_on_leaves(self):
        x = t64([1.0, -2.0], requires_grad=True)
        w = t64([0.5, 3.0], requires_grad=True)
        with Graph() as g:
            y = T.mul(x, w)
            z = T.gelu(y)
            root = T.sum_all(T.add(z, y))
            backward(g, root)
        assert x.grad is not None and w.grad is not None
        assert y.grad is None and z.grad is None and root.grad is None
        assert [n.op for n in g.nodes] == ["mul", "gelu", "add", "sum_all"]
        assert all(n.inputs is None and n.out is None and n.backward is None for n in g.nodes)
        with pytest.raises(UsageError, match="already differentiated"):
            backward(g, root)

    def test_repeated_backward_is_fresh(self):
        x = t64([3.0], requires_grad=True)
        for _ in range(2):
            with Graph() as g:
                root = T.sum_all(T.mul(x, x))
                backward(g, root)
        np.testing.assert_allclose(x.grad, [6.0], atol=1e-12)


OPS = {
    "add": lambda rng: (
        lambda a, b: T.sum_all(T.mul(T.add(a, b), T.add(a, b))),
        [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))],
    ),
    "mul": lambda rng: (
        lambda a, b: T.sum_all(T.mul(a, b)),
        [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))],
    ),
    "add_bias": lambda rng: (
        lambda x, b: T.sum_all(T.mul(T.add_bias(x, b), T.add_bias(x, b))),
        [rng.standard_normal((3, 4)), rng.standard_normal(4)],
    ),
    "matmul": lambda rng: (
        lambda a, b: T.sum_all(T.mul(T.matmul(a, b), T.matmul(a, b))),
        [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))],
    ),
    "matmul_bias": lambda rng: (
        lambda a, b, c: T.sum_all(T.mul(T.matmul(a, b, c), T.matmul(a, b, c))),
        [rng.standard_normal((3, 4)), rng.standard_normal((4, 2)), rng.standard_normal(2)],
    ),
    "bmm": lambda rng: (
        lambda a, b: T.sum_all(T.mul(T.bmm(a, b), T.bmm(a, b))),
        [rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 4, 2))],
    ),
    "permute_reshape": lambda rng: (
        lambda x: T.sum_all(T.mul(T.reshape(T.permute(x, (1, 0, 2)), (12, 2)), t64(np.arange(24.0).reshape(12, 2)))),
        [rng.standard_normal((3, 4, 2))],
    ),
    "gelu": lambda rng: (
        lambda x: T.sum_all(T.gelu(x)),
        [rng.standard_normal((5, 3))],
    ),
    "layer_norm": lambda rng: (
        lambda x, g_, b_: T.sum_all(T.mul(T.layer_norm(x, g_, b_, 1e-5), t64(np.arange(12.0).reshape(3, 4)))),
        [rng.standard_normal((3, 4)), rng.standard_normal(4), rng.standard_normal(4)],
    ),
    "softmax": lambda rng: (
        lambda x: T.sum_all(T.mul(T.softmax_lastdim(x), t64(np.arange(12.0).reshape(3, 4)))),
        [rng.standard_normal((3, 4))],
    ),
    "cross_entropy": lambda rng: (
        lambda x: T.cross_entropy_rows(x, [1, 0, 3]),
        [rng.standard_normal((3, 5))],
    ),
    "l2_normalize": lambda rng: (
        lambda x: T.sum_all(T.mul(T.l2_normalize_rows(x), t64(np.arange(12.0).reshape(4, 3)))),
        [rng.standard_normal((4, 3)) + 2.0],
    ),
    "embedding": lambda rng: (
        lambda tab: T.sum_all(T.mul(T.embedding(tab, np.array([[0, 2], [2, 1]])), t64(np.arange(12.0).reshape(2, 2, 3)))),
        [rng.standard_normal((4, 3))],
    ),
    "gather_rows": lambda rng: (
        lambda x: T.sum_all(T.mul(T.gather_rows(x, np.array([0, 2, 2])), t64(np.arange(9.0).reshape(3, 3)))),
        [rng.standard_normal((4, 3))],
    ),
    "gather_rows_distinct": lambda rng: (
        lambda x: T.sum_all(T.mul(T.gather_rows(x, np.array([0, 2, 3])), t64(np.arange(9.0).reshape(3, 3)))),
        [rng.standard_normal((4, 3))],
    ),
    "gather_rows_3d": lambda rng: (
        lambda x: T.sum_all(T.mul(T.gather_rows(x, np.array([0, 5, 5, 3])), t64(np.arange(16.0).reshape(4, 4)))),
        [rng.standard_normal((2, 3, 4))],
    ),
    "scale": lambda rng: (
        lambda x: T.scale(T.sum_all(T.mul(x, x)), -0.37),
        [rng.standard_normal(6)],
    ),
    "attention": lambda rng: (
        lambda q, k, v: T.sum_all(
            T.mul(
                T.attention(q, k, v, padded_attention_bias(np.array([[True] * 3, [True, True, False]])), 2),
                t64(np.arange(24.0).reshape(6, 4) / 8.0),
            )
        ),
        [rng.standard_normal((6, 4)) for _ in range(3)],
    ),
    "attention_rows": lambda rng: (
        lambda q, k, v: T.sum_all(
            T.mul(
                T.attention(q, k, v, padded_attention_bias(np.array([[True] * 3, [True, True, False]])), 2,
                            rows=np.array([0, 1, 3, 4]), keep=np.array([1, 3, 4])),
                t64(np.arange(12.0).reshape(3, 4) / 8.0),
            )
        ),
        [rng.standard_normal((4, 4)) for _ in range(3)],
    ),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_gradients_match_finite_differences(name):
    # 20 seeds per op, 64-bit, central differences
    for seed in range(20):
        rng = stream(seed, "opgrad", name)
        fn, arrays = OPS[name](rng)
        leaves = [t64(a, requires_grad=True) for a in arrays]
        err = grad_error(lambda: fn(*leaves), leaves, stream(seed, "coords", name), coords_per_tensor=3)
        assert err <= 1e-4, f"{name} seed {seed}: rel err {err}"


class TestGatherRows:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("idx", [[1, 4, 5, 9], [9, 1, 5], [0, 3, 3, 7], [6], [[2, 4], [5, 8]]],
                             ids=["increasing", "unordered", "repeated", "one", "2d"])
    def test_gradient_bytes_equal_add_at_into_zeros(self, dtype, idx):
        idx = np.asarray(idx)
        rng = stream(5, "gather-bwd")
        x = Tensor(rng.normal(size=(2, 5, 3)).astype(dtype), requires_grad=True)
        g = rng.normal(size=(*idx.shape, 3)).astype(dtype)
        g.reshape(-1)[0] = -0.0  # np.add.at gives 0 + -0 = +0
        with Graph() as graph:
            out = T.gather_rows(x, idx)
        want = np.zeros((10, 3), dtype)
        np.add.at(want, idx, g)
        assert graph.nodes[0].backward(g)[0].tobytes() == want.reshape(x.shape).tobytes()
        assert out.data.tobytes() == x.data.reshape(10, 3)[idx].tobytes()


EMBEDDING_IDS = {
    "distinct": [3, 0, 7, 5],
    "repeated": stream(7, "embedding-ids").integers(0, 10, size=300),
    "2d": [[4, 1, 4, 9], [1, 1, 6, 4]],
    "empty": [],
}


class TestEmbeddingGradient:
    """embedding's backward sums each id's rows with np.add.reduceat over the
    ids' stable sort; the oracle is np.add.at into zeros."""

    def gradient(self, dtype, ids, g):
        table = Tensor(np.ones((10, g.shape[-1]), dtype), requires_grad=True)
        with Graph() as graph:
            out = T.embedding(table, ids)
        assert out.shape == g.shape
        want = np.zeros_like(table.data)
        np.add.at(want, ids.reshape(-1), g.reshape(-1, g.shape[-1]))
        return graph.nodes[0].backward(g)[0], want

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 4e-15)])
    @pytest.mark.parametrize("case", list(EMBEDDING_IDS))
    def test_gradient_against_add_at_into_zeros(self, dtype, tol, case):
        """Bit-equal where no id repeats; a repeated id's rows are summed in
        another order, within tol of the largest entry."""
        ids = np.asarray(EMBEDDING_IDS[case], dtype=np.int64)
        g = stream(8, "embedding-bwd", case).normal(size=(*ids.shape, 8)).astype(dtype)
        got, want = self.gradient(dtype, ids, g)
        assert got.dtype == dtype
        if np.unique(ids).size == ids.size:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.abs(got - want).max() <= tol * np.abs(want).max()

    def test_lone_negative_zero_row_gives_positive_zero(self):
        ids = np.array([2, 5, 5])
        g = np.full((3, 4), -0.0, np.float32)  # np.add.at gives 0 + -0 = +0, and +0 + -0 = +0
        got, want = self.gradient(np.float32, ids, g)
        assert got.tobytes() == want.tobytes() and not np.signbit(got).any()


class TestCheckedMode:
    def test_overflow_raises_instead_of_inf(self):
        T.set_checked(True)
        try:
            big = t64([1e308])
            with np.errstate(over="ignore"), pytest.raises(NumericError):
                T.mul(big, big)
        finally:
            T.set_checked(False)

    def test_finite_ops_pass(self):
        T.set_checked(True)
        try:
            out = T.mul(t64([1.0, 2.0]), t64([3.0, 4.0]))
            np.testing.assert_array_equal(out.data, [3.0, 8.0])
        finally:
            T.set_checked(False)


class TestRowSplitOps:
    """The row-wise ops give each row the bits it gets in the whole batch, as chunked forwards need."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [2, 3, 17, 64])
    def test_split_equals_whole_with_gradients(self, dtype, rows):
        rng = stream(rows, "split-ops")
        s, d, heads = 6, 24, 4
        pad = np.arange(s)[None, :] < rng.integers(1, s + 1, size=(rows, 1))
        x2, x3, qkv = (rng.normal(size=shape).astype(dtype) * 3.0 for shape in [(rows * s, d), (rows, s, d), (rows * s, d)])
        gain, bias = (Tensor(rng.normal(size=d).astype(dtype)) for _ in range(2))
        weights = np.cos(np.arange(rows * s * d, dtype=dtype)).reshape(rows, s * d)

        def run(r):  # outputs and input gradients of batch rows r, on a tape of their own
            n = len(weights[r])
            ins = [Tensor(a.copy(), requires_grad=True) for a in (x2.reshape(rows, -1)[r].reshape(-1, d), x3[r], qkv.reshape(rows, -1)[r].reshape(-1, d))]
            with Graph() as g:
                outs = [
                    T.gelu(ins[0]),
                    T.gelu(ins[1]),
                    T.layer_norm(ins[1], gain, bias),
                    T.layer_norm(ins[0], gain, bias),
                    T.attention(ins[2], ins[2], ins[2], padded_attention_bias(pad[r], dtype), heads),
                ]
                total = T.reshape(outs[0], (n * s, d))
                for o in outs[1:]:
                    total = T.add(total, T.reshape(o, (n * s, d)))
                backward(g, T.sum_all(T.mul(total, Tensor(weights[r].reshape(n * s, d)))))
            return [a.reshape(n, -1) for a in [o.data for o in outs] + [t.grad for t in ins]]

        whole = run(slice(None))
        bounds = [*range(0, rows, max(rows // 3, 1)), rows]
        pieces = [run(slice(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
        assert len(pieces) >= 2
        for i, want in enumerate(whole):
            got = np.concatenate([p[i] for p in pieces])
            assert got.dtype == want.dtype == dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [(1, 9), (11,), (8, 6)])
    def test_gelu_splits_by_element(self, shape):
        data = stream(5, "split-gelu").normal(size=shape[::-1]).T  # non-contiguous when 2-D
        whole = T.gelu(Tensor(data)).data.reshape(-1)
        flat = data.reshape(-1)
        for cut in (1, flat.size // 2, flat.size - 1):
            got = np.concatenate([T.gelu(Tensor(flat[:cut])).data, T.gelu(Tensor(flat[cut:])).data])
            assert np.array_equal(got, whole)

    def test_nan_score_in_a_split_attention(self):
        q = np.ones((4 * 3, 8))
        q[10, 0] = np.nan  # batch row 3
        pad = np.ones((4, 3), bool)
        assert T.attention(t64(q[:6]), t64(q[:6]), t64(q[:6]), padded_attention_bias(pad[:2]), 2).shape == (6, 8)
        with pytest.raises(NumericError, match="attention: NaN"):
            T.attention(t64(q[6:]), t64(q[6:]), t64(q[6:]), padded_attention_bias(pad[2:]), 2)


def phi_oracle(x):
    """Standard normal cdf of each element, in float64, from math.erf."""
    return np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x.tolist()])


def gelu_and_grad(x):
    t = Tensor(x, requires_grad=True)
    with Graph() as g:
        y = T.gelu(t)
        backward(g, T.sum_all(y))
    return y.data, t.grad


class TestGeluKernel:
    def test_float32_phi_within_3e_7_of_math_erf(self):
        clamp = np.float32(4.0 * math.sqrt(2.0))
        edges = [np.nextafter(clamp, np.float32(0)), clamp, np.nextafter(clamp, np.float32(np.inf))]
        x = np.concatenate([np.linspace(-12.0, 12.0, 1_200_001, dtype=np.float32), edges, np.negative(edges)])
        phi, out = np.empty_like(x), np.empty_like(x)
        T._gelu32(x, phi, out)
        assert np.abs(phi - phi_oracle(x)).max() <= 3e-7
        assert phi.min() == 0.0 and phi.max() == 1.0
        assert np.array_equal(out, x * phi)

    @pytest.mark.parametrize(
        "n", [2**14 - 1, 2**14, 2**14 + 1, 3 * 2**14 + 7, T.GELU_BLOCK - 1, T.GELU_BLOCK + 1, 3 * T.GELU_BLOCK + 7]
    )
    def test_bits_do_not_depend_on_size_offset_or_block(self, monkeypatch, n):
        x = stream(n, "gelu-blocks").normal(size=n + 5).astype(np.float32) * 4.0
        whole, whole_grad = gelu_and_grad(x)
        for start in (0, 1, 5):
            y, grad = gelu_and_grad(x[start : start + n])
            assert np.array_equal(y, whole[start : start + n]) and np.array_equal(grad, whole_grad[start : start + n])
        y, grad = gelu_and_grad(x[: 2 * n : 2].reshape(-1, 1))  # strided, then 2-D
        assert np.array_equal(y.reshape(-1), whole[: 2 * n : 2]) and np.array_equal(grad.reshape(-1), whole_grad[: 2 * n : 2])
        monkeypatch.setattr(T, "GELU_BLOCK", 7)
        y, grad = gelu_and_grad(x[:n])
        assert np.array_equal(y, whole[:n]) and np.array_equal(grad, whole_grad[:n])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_special_values(self, dtype):
        x = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, 1e30, -1e30], dtype)
        with np.errstate(invalid="ignore"):
            y = T.gelu(Tensor(x)).data
        assert y.dtype == dtype and np.isnan(y[0])
        assert y[1] == 0.0 and not np.signbit(y[1]) and y[2] == 0.0 and np.signbit(y[2])
        assert y[3] == np.inf and np.isnan(y[4])  # -inf * Phi(-inf) = -inf * 0
        assert y[5] == x[5] and y[6] == 0.0 and np.signbit(y[6])

    def test_float64_is_math_erf_elementwise(self):
        x = np.concatenate([stream(3, "gelu64").normal(size=257) * 3.0, [-40.0, -6.0, 1e-300, 6.0, 40.0]])
        phi, out = np.empty_like(x), np.empty_like(x)
        T._gelu64(x, phi, out)
        expected = [0.5 * (1.0 + math.erf(v * (1.0 / math.sqrt(2.0)))) for v in x.tolist()]
        assert np.array_equal(phi, expected)
        assert np.array_equal(T.gelu(t64(x)).data, x * phi)


class TestTensorBasics:
    def test_flat_row_major_invariant(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert x.data.size == int(np.prod(x.shape))
        assert x.data.flags["C_CONTIGUOUS"]

    def test_dtype_mismatch_rejected(self):
        a = Tensor(np.ones(3, dtype=np.float32))
        b = Tensor(np.ones(3, dtype=np.float64))
        with pytest.raises(ShapeError):
            T.add(a, b)

    def test_int_input_becomes_float32(self):
        x = Tensor([1, 2, 3])
        assert x.dtype == np.float32


def test_blas_runs_on_one_thread():
    # conftest.py pins BLAS; read the count back from the OpenBLAS bundled with numpy
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "libscipy_openblas*"))
    counts = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                counts.append(int(fn()))
                break
    if not counts:
        pytest.skip("numpy bundles no OpenBLAS whose thread count can be read")
    assert counts == [1] * len(counts)
