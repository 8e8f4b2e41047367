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


def _last_valid(pad_mask: np.ndarray) -> np.ndarray:
    """Index of each row's last valid position (the last one when none is)."""
    return pad_mask.shape[1] - 1 - pad_mask[:, ::-1].argmax(axis=1)


def pooled_positions(pad_mask: np.ndarray, method: str) -> np.ndarray:
    """[batch, seq] mask of the positions pool() reads: the valid ones for
    mean and max, each row's last valid one for last_token."""
    pad_mask = np.asarray(pad_mask, dtype=bool)
    if method != "last_token":
        return pad_mask
    read = np.zeros_like(pad_mask)
    read[np.arange(len(read)), _last_valid(pad_mask)] = True
    return read & pad_mask


def pool(hidden: Tensor, pad_mask: np.ndarray, method: str, layer: int = 0) -> PooledBatch:
    """Reduce [batch, seq, d] hidden states to one vector per row.

    mean/max run over valid (unpadded) positions; last_token takes the
    representation at the final valid position. A row with no valid position
    is a data error. hidden may instead hold the rows at
    pooled_positions(pad_mask, method) packed, as a forward given that
    `read` returns them: for last_token those rows are the vectors as they
    are, and mean and max lay them out in zeros for their reduction.
    """
    if method not in POOLING_METHODS:
        raise UsageError(f"unknown pooling method {method!r}")
    pad_mask = np.asarray(pad_mask, dtype=bool)
    packed = hidden.data.ndim == 2 and pad_mask.ndim == 2
    if not packed and hidden.data.ndim != 3:
        raise ShapeError(f"pool: expected [batch, seq, d] or packed [n, d], got {hidden.shape}")
    d = hidden.shape[-1]
    b, s = pad_mask.shape if packed else hidden.shape[:2]
    if pad_mask.shape != (b, s):
        raise ShapeError(f"pool: pad_mask {pad_mask.shape} vs hidden {(b, s)}")
    counts = pad_mask.sum(axis=1)
    if (counts == 0).any():
        raise DataError(f"pool: row {int(np.argmin(counts))} has no valid positions")

    x, read = hidden.data, None
    if packed:
        read = np.flatnonzero(pooled_positions(pad_mask, method))
        if hidden.shape[0] != read.size:
            raise ShapeError(f"pool: {hidden.shape[0]} packed rows but {method} pooling reads {read.size}")
        if method == "last_token":  # one read row per batch row, in row order: they are the vectors
            return PooledBatch(vectors=apply_op("pool_last", x, (hidden,), lambda g: (g,)), method=method, layer=layer)
        x = np.zeros((b * s, d), hidden.dtype)
        x[read] = hidden.data
        x = x.reshape(b, s, d)

    def unpack(gx):  # the gradient of hidden from the one of x
        return (gx if read is None else gx.reshape(b * s, d)[read],)

    if method == "mean":
        w = (pad_mask / counts[:, None]).astype(hidden.dtype)
        out = (x * w[:, :, None]).sum(axis=1)
        vectors = apply_op("pool_mean", out, (hidden,), lambda g: unpack(g[:, None, :] * w[:, :, None]))
    else:  # max and last_token pick one entry of x for each output entry
        if method == "max":  # the first max wins ties
            at = (np.arange(b)[:, None], np.where(pad_mask[:, :, None], x, -np.inf).argmax(axis=1), np.arange(d))
        else:
            at = (np.arange(b), _last_valid(pad_mask))

        def bwd(g):
            gx = np.zeros_like(x)
            gx[at] = g
            return unpack(gx)

        vectors = apply_op("pool_max" if method == "max" else "pool_last", x[at], (hidden,), bwd)
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
