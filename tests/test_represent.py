import math
import tracemalloc

import numpy as np
import pytest

import afp.represent as R
from afp.errors import DataError, NumericError, ShapeError, UsageError
from afp.rng import stream
from afp.tensor import Graph, Tensor, backward, sum_all, mul


def pooled(arr, method="mean", layer=0):
    return R.PooledBatch(vectors=Tensor(np.asarray(arr, dtype=np.float64)), method=method, layer=layer)


class TestPool:
    HIDDEN = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype=np.float64))

    def test_mean(self):
        out = R.pool(self.HIDDEN, np.array([[True, True]]), "mean")
        np.testing.assert_allclose(out.array, [[2.0, 3.0]])
        assert out.method == "mean"

    def test_max(self):
        out = R.pool(self.HIDDEN, np.array([[True, True]]), "max")
        np.testing.assert_allclose(out.array, [[3.0, 4.0]])

    def test_last_token_respects_mask(self):
        out = R.pool(self.HIDDEN, np.array([[True, False]]), "last_token")
        np.testing.assert_allclose(out.array, [[1.0, 2.0]])

    def test_mean_ignores_padding(self):
        h = Tensor(np.array([[[2.0, 2.0], [4.0, 4.0], [99.0, -99.0]]]))
        out = R.pool(h, np.array([[True, True, False]]), "mean")
        np.testing.assert_allclose(out.array, [[3.0, 3.0]])

    def test_mean_of_constant_sequence_is_exact(self):
        h = Tensor(np.full((2, 5, 3), 0.73, dtype=np.float64))
        out = R.pool(h, np.ones((2, 5), dtype=bool), "mean")
        np.testing.assert_array_equal(out.array, np.full((2, 3), 0.73))

    def test_all_pad_row_rejected(self):
        with pytest.raises(DataError):
            R.pool(self.HIDDEN, np.array([[False, False]]), "mean")

    def test_unknown_method_rejected(self):
        with pytest.raises(UsageError):
            R.pool(self.HIDDEN, np.array([[True, True]]), "median")

    @pytest.mark.parametrize(
        "method, packed",
        [(m, False) for m in R.POOLING_METHODS] + [(m, True) for m in R.POOLING_METHODS],
        ids=[*R.POOLING_METHODS, *(f"packed-{m}" for m in R.POOLING_METHODS)],
    )
    def test_pool_is_differentiable(self, method, packed):
        rng = stream(3, "pool", method)
        data = rng.standard_normal((3, 4, 5))
        pad = np.ones((3, 4), dtype=bool)
        pad[1, 2:] = False
        if packed:
            data = data.reshape(-1, 5)[np.flatnonzero(R.pooled_positions(pad, method))]
        h = Tensor(data, requires_grad=True)
        with Graph() as g:
            out = R.pool(h, pad, method)
            root = sum_all(mul(out.vectors, out.vectors))
            backward(g, root)
        assert h.grad is not None and h.grad.shape == h.shape
        if not packed:
            assert not h.grad[1, 2:].any()  # padded positions get no gradient

    # ragged rows: full, one position, right-padded, left- and right-padded
    RAGGED_PAD = np.array([[1, 1, 1, 1, 1], [1, 0, 0, 0, 0], [1, 1, 1, 0, 0], [0, 1, 1, 0, 0]], dtype=bool)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("method", R.POOLING_METHODS)
    def test_packed_rows_pool_like_the_full_layout(self, method, dtype):
        """The rows at pooled_positions, packed, give the bytes of the
        [batch, seq, d] input, vectors and the gradient at those rows alike;
        the full input holds noise, not zeros, where pool does not read."""
        pad = self.RAGGED_PAD
        rng = stream(6, "packed", method)
        full = rng.standard_normal((*pad.shape, 6)).astype(dtype)
        weights = Tensor(rng.standard_normal((len(pad), 6)).astype(dtype))
        idx = np.flatnonzero(R.pooled_positions(pad, method))
        got = []
        for data in (full, full.reshape(-1, 6)[idx]):
            h = Tensor(data, requires_grad=True)
            with Graph() as g:
                out = R.pool(h, pad, method)
                backward(g, sum_all(mul(out.vectors, weights)))
            got.append((out.array, h.grad.reshape(-1, 6)[idx] if h.grad.ndim == 3 else h.grad))
        (vec_full, grad_full), (vec_packed, grad_packed) = got
        assert vec_packed.dtype == dtype and vec_packed.tobytes() == vec_full.tobytes()
        assert grad_packed.dtype == dtype and grad_packed.tobytes() == grad_full.tobytes()

    def test_packed_last_token_builds_no_full_layout(self):
        """512 packed last_token rows are the vectors: pooling them and the
        backward stay below one [batch, seq, d] layout of memory."""
        b, s, d = 512, 16, 64
        pad = np.ones((b, s), dtype=bool)
        pad[::3, 9:] = False
        h = Tensor(stream(8, "last").standard_normal((b, d)).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            with Graph() as g:
                out = R.pool(h, pad, "last_token")
                backward(g, sum_all(out.vectors))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.array.tobytes() == h.data.tobytes()
        assert h.grad.tobytes() == np.ones((b, d), np.float32).tobytes()
        assert peak < b * s * d * 4, peak

    @pytest.mark.parametrize("method, n", [("mean", 3), ("mean", 1), ("last_token", 2)])
    def test_packed_row_count_must_match_the_pooled_positions(self, method, n):
        pad = np.array([[True, True, False]])
        with pytest.raises(ShapeError, match="packed"):
            R.pool(Tensor(np.zeros((n, 2))), pad, method)


class TestCosine:
    def test_orthogonal(self):
        assert R.cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_positive_scaling(self):
        assert abs(R.cosine([1.0, 2.0], [2.0, 4.0]) - 1.0) < 1e-12

    def test_antipodal(self):
        assert abs(R.cosine([1.0, 0.0], [-1.0, 0.0]) + 1.0) < 1e-12

    def test_scale_invariance_random(self):
        rng = stream(4, "cos")
        for _ in range(50):
            u = rng.standard_normal(6)
            v = rng.standard_normal(6)
            c, d = rng.uniform(0.01, 100, size=2)
            assert abs(R.cosine(c * u, d * v) - R.cosine(u, v)) <= 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(NumericError):
            R.cosine([0.0, 0.0], [1.0, 0.0])


class TestAlignment:
    def test_identical_pairs_zero(self):
        pairs = [([1.0, 1.0], [2.0, 2.0])]  # same direction after normalization
        assert R.alignment_metric(pairs) == 0.0

    def test_orthogonal_pair_is_two(self):
        assert abs(R.alignment_metric([([1.0, 0.0], [0.0, 1.0])]) - 2.0) < 1e-12

    def test_antipodal_pair_is_four(self):
        assert abs(R.alignment_metric([([1.0, 0.0], [-1.0, 0.0])]) - 4.0) < 1e-12

    def test_naive_double_loop_oracle(self):
        rng = stream(5, "align")
        pairs = [(rng.standard_normal(4), rng.standard_normal(4)) for _ in range(12)]
        total = 0.0
        for a, b in pairs:
            an = a / math.sqrt(sum(x * x for x in a))
            bn = b / math.sqrt(sum(x * x for x in b))
            total += sum((x - y) ** 2 for x, y in zip(an, bn))
        assert abs(R.alignment_metric(pairs) - total / len(pairs)) < 1e-10

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            R.alignment_metric([])


class TestUniformity:
    def test_collapsed_points_zero(self):
        assert R.uniformity_metric([[1.0, 0.0]] * 4) == 0.0

    def test_antipodal_pair_minus_eight(self):
        assert abs(R.uniformity_metric([[1.0, 0.0], [-1.0, 0.0]]) + 8.0) < 1e-12

    def test_naive_double_loop_oracle(self):
        rng = stream(6, "uniform")
        pts = rng.standard_normal((10, 5))
        norm = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        acc = []
        for i in range(10):
            for j in range(10):
                if i == j:
                    continue
                d2 = sum((x - y) ** 2 for x, y in zip(norm[i], norm[j]))
                acc.append(math.exp(-2.0 * d2))
        expected = math.log(sum(acc) / len(acc))
        assert abs(R.uniformity_metric(pts) - expected) < 1e-10

    def test_always_nonpositive(self):
        rng = stream(7, "uniform-sign")
        for _ in range(20):
            pts = rng.standard_normal((6, 3))
            assert R.uniformity_metric(pts) <= 0.0

    def test_single_point_rejected(self):
        with pytest.raises(UsageError):
            R.uniformity_metric([[1.0, 0.0]])

    def test_near_duplicate_rows_nonpositive(self):
        # for about one direction in five the rounded dot product of two unit
        # near-duplicates exceeds 1, so the Gram form 2 - 2 x.y goes negative
        rng = stream(14, "uniform-dup")
        for _ in range(50):
            v = rng.standard_normal(8)
            assert R.uniformity_metric([v, v, v * (1.0 + 1e-15), v]) <= 0.0


class TestPca2:
    def test_collinear_second_axis_zero(self):
        direction = np.array([1.0, 2.0, -1.0])
        pts = np.outer(np.linspace(-3, 3, 9), direction) + 5.0
        coords = R.pca2(pts)
        assert np.abs(coords[:, 1]).max() <= 1e-6

    def test_2d_data_preserves_variance(self):
        rng = stream(8, "pca2d")
        pts = rng.standard_normal((40, 2)) @ np.array([[2.0, 0.3], [0.1, 0.5]])
        coords = R.pca2(pts)
        centered = pts - pts.mean(axis=0)
        assert abs(coords.var(axis=0).sum() - centered.var(axis=0).sum()) < 1e-9

    def test_subspace_matches_dense_eigensolver(self):
        rng = stream(9, "pca-oracle")
        pts = rng.standard_normal((20, 5))
        coords = R.pca2(pts)
        centered = pts - pts.mean(axis=0)
        cov = centered.T @ centered
        w, v = np.linalg.eigh(cov)
        top2 = v[:, np.argsort(w)[-2:]]
        # recover projection axes from coordinates via least squares
        axes, *_ = np.linalg.lstsq(centered, coords, rcond=None)
        q, _ = np.linalg.qr(axes)
        # principal angles between spans
        s = np.linalg.svd(top2.T @ q, compute_uv=False)
        angles = np.arccos(np.clip(s, -1.0, 1.0))
        assert angles.max() <= 1e-6

    def test_centered_coordinates(self):
        rng = stream(10, "pca-center")
        coords = R.pca2(rng.standard_normal((15, 4)))
        assert np.abs(coords.mean(axis=0)).max() <= 1e-9

    def test_deterministic(self):
        rng = stream(11, "pca-det")
        pts = rng.standard_normal((12, 6))
        np.testing.assert_array_equal(R.pca2(pts), R.pca2(pts))

    def test_too_few_points_rejected(self):
        with pytest.raises(UsageError):
            R.pca2(np.ones((2, 3)))

    def test_one_dimension_rejected(self):
        with pytest.raises(UsageError):
            R.pca2(np.arange(5.0).reshape(5, 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        pts = stream(12, "pca-nan").standard_normal((10, 4))
        pts[3, 2] = bad
        with pytest.raises(NumericError):
            R.pca2(pts)

    def test_near_tie_matches_svd(self):
        # top two variances differ by a relative 1e-6: the axes stay well
        # defined (eigenvector error ~ eps / gap), but an iterative solver
        # converges at rate 1 - 1e-6
        rng = stream(12, "pca-tie")
        a = rng.standard_normal((64, 6))
        q, _ = np.linalg.qr(a - a.mean(axis=0))
        rot, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        sigma = np.sqrt([1.0, 1.0 - 1e-6, 0.3, 0.2, 0.1, 0.05])
        pts = q @ np.diag(sigma) @ rot.T + 2.0
        coords = R.pca2(pts)
        centered = pts - pts.mean(axis=0)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        expected = centered @ vt[:2].T
        expected *= np.sign((coords * expected).sum(axis=0))  # SVD signs are arbitrary
        np.testing.assert_allclose(coords, expected, atol=1e-7)


class TestRetrieval:
    def test_identity_is_one(self):
        rng = stream(13, "ret")
        x = rng.standard_normal((8, 4))
        assert R.retrieval_acc_at_1(pooled(x), pooled(x)) == 1.0

    def test_cyclic_shift_is_zero(self):
        rng = stream(14, "ret-shift")
        x = rng.standard_normal((8, 4))
        assert R.retrieval_acc_at_1(pooled(x), pooled(np.roll(x, 1, axis=0))) == 0.0

    def test_noisy_orthonormal_rows_against_brute_force(self):
        rng = stream(15, "ret-noise")
        q, _ = np.linalg.qr(rng.standard_normal((16, 16)))
        src = q[:8]
        tgt = src + 1e-3 * rng.standard_normal(src.shape)
        acc = R.retrieval_acc_at_1(pooled(src), pooled(tgt))
        hits = 0
        for i in range(8):
            sims = [R.cosine(src[i], tgt[j]) for j in range(8)]
            hits += int(np.argmax(sims) == i)
        assert acc == hits / 8 == 1.0

    def test_size_mismatch_rejected(self):
        rng = stream(16, "ret-err")
        with pytest.raises(UsageError):
            R.retrieval_acc_at_1(pooled(rng.standard_normal((4, 3))), pooled(rng.standard_normal((5, 3))))

    def test_tie_breaks_to_lowest_index(self):
        src = np.array([[1.0, 0.0]])
        tgt = np.array([[1.0, 0.0]])
        # single row trivially ties with itself only; check duplicate targets
        src2 = np.array([[1.0, 0.0], [1.0, 0.0]])
        tgt2 = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert R.retrieval_acc_at_1(pooled(src), pooled(tgt)) == 1.0
        assert R.retrieval_acc_at_1(pooled(src2), pooled(tgt2)) == 0.5  # row 1 loses the tie


class TestPooledBatch:
    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            pooled(np.array([[np.nan, 1.0]]))

    def test_bad_method_rejected(self):
        with pytest.raises(UsageError):
            pooled(np.ones((2, 2)), method="sum")
