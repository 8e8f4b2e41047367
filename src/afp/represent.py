"""Sentence pooling, similarity, and representation-space diagnostics.

Pooling is differentiable (it feeds the contrastive loss); the alignment and
uniformity metrics, retrieval accuracy, and the 2-D PCA export are plain
numpy evaluation utilities. Metric vectors are L2-normalized internally, so
both diagnostics live on the unit hypersphere.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import DataError, NumericError, ShapeError, UsageError
from .tensor import Tensor, apply_op

POOLING_METHODS = ("mean", "max", "last_token")


@dataclass
class PooledBatch:
    vectors: Tensor  # [batch, d_model]
    method: str
    layer: int

    def __post_init__(self):
        if self.method not in POOLING_METHODS:
            raise UsageError(f"unknown pooling method {self.method!r}")
        if self.layer < 0:
            raise UsageError(f"negative layer {self.layer}")
        if np.isnan(self.vectors.data).any():
            raise NumericError("PooledBatch: NaN in vectors")

    @property
    def array(self) -> np.ndarray:
        return self.vectors.data


def pool(hidden: Tensor, pad_mask: np.ndarray, method: str, layer: int = 0) -> PooledBatch:
    """Reduce [batch, seq, d] hidden states to one vector per row.

    mean/max run over valid (unpadded) positions; last_token takes the
    representation at the final valid position. A row with no valid position
    is a data error.
    """
    if hidden.data.ndim != 3:
        raise ShapeError(f"pool: expected [batch, seq, d], got {hidden.shape}")
    b, s, d = hidden.shape
    pad_mask = np.asarray(pad_mask, dtype=bool)
    if pad_mask.shape != (b, s):
        raise ShapeError(f"pool: pad_mask {pad_mask.shape} vs hidden {(b, s)}")
    counts = pad_mask.sum(axis=1)
    if (counts == 0).any():
        raise DataError(f"pool: row {int(np.argmin(counts))} has no valid positions")

    if method == "mean":
        w = (pad_mask / counts[:, None]).astype(hidden.dtype)
        out = (hidden.data * w[:, :, None]).sum(axis=1)
        vectors = apply_op(
            "pool_mean", out, (hidden,), lambda g: (g[:, None, :] * w[:, :, None],)
        )
    elif method == "max":
        masked = np.where(pad_mask[:, :, None], hidden.data, -np.inf)
        arg = masked.argmax(axis=1)  # [b, d], first max wins ties
        rows = np.arange(b)[:, None]
        out = hidden.data[rows, arg, np.arange(d)[None, :]]

        def bwd_max(g):
            gx = np.zeros_like(hidden.data)
            np.add.at(gx, (rows, arg, np.arange(d)[None, :]), g)
            return (gx,)

        vectors = apply_op("pool_max", out, (hidden,), bwd_max)
    elif method == "last_token":
        last = s - 1 - pad_mask[:, ::-1].argmax(axis=1)
        rows = np.arange(b)
        out = hidden.data[rows, last]

        def bwd_last(g):
            gx = np.zeros_like(hidden.data)
            gx[rows, last] = g
            return (gx,)

        vectors = apply_op("pool_last", out, (hidden,), bwd_last)
    else:
        raise UsageError(f"unknown pooling method {method!r}")
    return PooledBatch(vectors=vectors, method=method, layer=layer)


def cosine(u, v) -> float:
    """u.v / (|u||v|), defined only for nonzero vectors."""
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if u.shape != v.shape:
        raise ShapeError(f"cosine: shapes {u.shape} and {v.shape} differ")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise NumericError("cosine: zero vector")
    return float(np.clip(u @ v / (nu * nv), -1.0, 1.0))


def _unit_rows(x: np.ndarray, what: str) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise NumericError(f"{what}: zero-norm vector")
    return x / norms


def alignment_metric(pairs) -> float:
    """Mean squared distance between normalized positive-pair vectors; >= 0."""
    if len(pairs) == 0:
        raise UsageError("alignment_metric: no pairs")
    ab = np.asarray(pairs, dtype=np.float64)  # [n, 2, d]
    a = _unit_rows(ab[:, 0], "alignment_metric")
    b = _unit_rows(ab[:, 1], "alignment_metric")
    return float(((a - b) ** 2).sum(axis=1).mean())


def uniformity_metric(points) -> float:
    """log mean over ordered pairs (x != y) of exp(-2 |x - y|^2); always <= 0."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n < 2:
        raise UsageError("uniformity_metric: need at least 2 points")
    pts = _unit_rows(pts, "uniformity_metric")
    # |x - y|^2 = 2 - 2 x.y on unit rows; rounding can push a near-duplicate's
    # dot product past 1, so clamp to keep the metric <= 0.
    sq = np.maximum(2.0 - 2.0 * pts @ pts.T, 0.0)
    vals = -2.0 * sq[~np.eye(n, dtype=bool)]
    m = vals.max()
    return float(m + np.log(np.exp(vals - m).mean()))


def pca2(vectors) -> np.ndarray:
    """Project [n, d] data onto its top-2 principal axes, the eigenvectors of
    the scatter matrix with the two largest eigenvalues. Sign convention:
    each axis has a positive first non-negligible coordinate."""
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 3 or x.shape[1] < 2:
        raise UsageError(f"pca2: need [n >= 3, d >= 2] data, got {x.shape}")
    if not np.isfinite(x).all():
        raise NumericError("pca2: non-finite input")
    xc = x - x.mean(axis=0)
    _, vecs = np.linalg.eigh(xc.T @ xc)  # eigenvalues ascending

    axes = []
    for v in (vecs[:, -1], vecs[:, -2]):
        scale = np.abs(v).max()
        nz = np.nonzero(np.abs(v) > 1e-9 * max(scale, 1e-30))[0]
        if nz.size and v[nz[0]] < 0:
            v = -v
        axes.append(v)
    return xc @ np.stack(axes, axis=1)


def retrieval_acc_at_1(src: PooledBatch, tgt: PooledBatch) -> float:
    """Fraction of rows whose nearest (cosine) target row is their own index."""
    a, b = src.array, tgt.array
    if a.shape != b.shape:
        raise UsageError(f"retrieval_acc_at_1: {a.shape} vs {b.shape}")
    an = _unit_rows(np.asarray(a, dtype=np.float64), "retrieval_acc_at_1")
    bn = _unit_rows(np.asarray(b, dtype=np.float64), "retrieval_acc_at_1")
    sim = an @ bn.T
    hits = sim.argmax(axis=1) == np.arange(a.shape[0])  # argmax takes lowest index on ties
    return float(hits.mean())
