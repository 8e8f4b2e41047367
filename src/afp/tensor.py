"""Dense tensors with tape-based reverse-mode automatic differentiation.

Tensors hold flat row-major float32/float64 buffers (numpy arrays). Ops run
eagerly; when a Graph is active and an input requires gradients, the op is
recorded on the tape. backward() replays the tape in reverse, which fixes a
single deterministic accumulation order. Broadcasting is deliberately limited
to trailing-dimension bias adds and row-wise ops.
"""

import math
import threading

import numpy as np
from scipy.special import erf

from .errors import NumericError, ShapeError, UsageError

FLOAT_DTYPES = (np.float32, np.float64)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Finite stand-in for -inf in attention masks; exp() underflows it to exactly 0
# without ever materializing an Inf in checked mode.
MASK_FILL = -1e9

_checked = False


def set_checked(flag: bool) -> None:
    """Globally enable/disable post-op finite checks (slow, for tests/audits)."""
    global _checked
    _checked = bool(flag)


class Tensor:
    """N-dimensional float array, optionally tracked for gradients.

    Immutable after construction except for `grad` (and in-place optimizer
    updates on parameter leaves between graphs).
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


class Node:
    """One tape record: op name, input tensors, output, and its backward rule."""

    __slots__ = ("op", "inputs", "out", "backward")

    def __init__(self, op, inputs, out, backward):
        self.op = op
        self.inputs = inputs
        self.out = out
        self.backward = backward


_tls = threading.local()


def _stack() -> list:
    if not hasattr(_tls, "graphs"):
        _tls.graphs = []
    return _tls.graphs


class Graph:
    """Tape of ops in execution order (a topological order by construction).

    Confined to the thread that opened it; concurrent threads each get their
    own active-graph stack, so graph-free forwards can run in parallel.
    """

    def __init__(self):
        self.nodes: list[Node] = []

    def __enter__(self):
        _stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _stack().pop()
        assert popped is self
        return False


def _active() -> Graph | None:
    stack = _stack()
    return stack[-1] if stack else None


def apply_op(op: str, out_data: np.ndarray, inputs: tuple, backward) -> Tensor:
    """Wrap an eagerly computed result, recording it on the active tape.

    `backward(grad_out)` must return one gradient array (or None) per input,
    in input order. Other modules build custom differentiable ops through this.
    """
    if _checked and not np.all(np.isfinite(out_data)):
        raise NumericError(f"{op}: non-finite values in output")
    out = Tensor(out_data)
    g = _active()
    if g is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        g.nodes.append(Node(op, tuple(inputs), out, backward))
    return out


def backward(graph: Graph, root: Tensor) -> None:
    """Populate .grad = d(root)/d(tensor) for every requires_grad tensor on the tape.

    Accumulation follows reverse tape order, so repeated runs are bit-identical.
    """
    if root.data.shape != ():
        raise UsageError(f"backward root must be scalar, got shape {root.data.shape}")
    seen = set()
    for node in graph.nodes:
        for t in (node.out,) + node.inputs:
            if id(t) not in seen:
                seen.add(id(t))
                t.grad = None
    root.grad = np.ones((), dtype=root.data.dtype)
    for node in reversed(graph.nodes):
        gout = node.out.grad
        if gout is None:
            continue
        gins = node.backward(gout)
        for t, gin in zip(node.inputs, gins):
            if gin is None or not t.requires_grad:
                continue
            t.grad = gin if t.grad is None else t.grad + gin


def _binary_check(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")
    if a.dtype != b.dtype:
        raise ShapeError(f"{op}: dtypes {a.dtype} and {b.dtype} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_check("add", a, b)
    return apply_op("add", a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_check("mul", a, b)
    return apply_op("mul", a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return apply_op("scale", x.data * np.asarray(c, dtype=x.dtype), (x,), lambda g: (g * c,))


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """x[..., d] + b[d], the one broadcast this engine allows."""
    if b.data.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise ShapeError(f"add_bias: x {x.shape} vs bias {b.shape}")
    if x.dtype != b.dtype:
        raise ShapeError(f"add_bias: dtypes {x.dtype} and {b.dtype} differ")
    axes = tuple(range(x.data.ndim - 1))
    return apply_op("add_bias", x.data + b.data, (x, b), lambda g: (g, g.sum(axis=axes)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """C[m,n] = A[m,k] @ B[k,n]."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} are incompatible")
    if a.dtype != b.dtype:
        raise ShapeError(f"matmul: dtypes {a.dtype} and {b.dtype} differ")
    return apply_op(
        "matmul",
        a.data @ b.data,
        (a, b),
        lambda g: (g @ b.data.T, a.data.T @ g),
    )


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matmul: [N,m,k] @ [N,k,n] -> [N,m,n]."""
    if a.data.ndim != 3 or b.data.ndim != 3 or a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ShapeError(f"bmm: shapes {a.shape} and {b.shape} are incompatible")
    return apply_op(
        "bmm",
        a.data @ b.data,
        (a, b),
        lambda g: (g @ b.data.transpose(0, 2, 1), a.data.transpose(0, 2, 1) @ g),
    )


def permute(x: Tensor, axes: tuple) -> Tensor:
    axes = tuple(axes)
    inv = tuple(int(i) for i in np.argsort(axes))
    return apply_op("permute", x.data.transpose(axes), (x,), lambda g: (g.transpose(inv),))


def reshape(x: Tensor, shape: tuple) -> Tensor:
    in_shape = x.shape
    return apply_op("reshape", x.data.reshape(shape), (x,), lambda g: (g.reshape(in_shape),))


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows: table[V,d], integer ids of any shape -> [*ids.shape, d]."""
    ids = np.asarray(ids)
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= table.shape[0]):
        raise IndexError(f"embedding: ids outside [0, {table.shape[0]})")

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.shape[1]))
        return (gt,)

    return apply_op("embedding", table.data[ids], (table,), bwd)


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Pick rows of a 2-D tensor: x[n,d], idx[m] -> [m,d]."""
    idx = np.asarray(idx)
    if x.data.ndim != 2:
        raise ShapeError(f"gather_rows: expected 2-D input, got {x.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise IndexError(f"gather_rows: index outside [0, {x.shape[0]})")

    def bwd(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return (gx,)

    return apply_op("gather_rows", x.data[idx], (x,), bwd)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian error linear unit: 0.5*x*(1 + erf(x/sqrt(2)))."""
    xd = x.data
    phi = 0.5 * (1.0 + erf(xd * _INV_SQRT2))
    out = xd * phi

    def bwd(g):
        pdf = np.exp(-0.5 * xd * xd) * _INV_SQRT2PI
        return (g * (phi + xd * pdf),)

    return apply_op("gelu", out.astype(x.dtype, copy=False), (x,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each trailing-dim row to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: x {x.shape} with gain {gain.shape}, bias {bias.shape}")
    if eps <= 0:
        raise UsageError("layer_norm: eps must be > 0")
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv
    out = xhat * gain.data + bias.data
    axes = tuple(range(x.data.ndim - 1))

    def bwd(g):
        gxhat = g * gain.data
        gmean = gxhat.mean(axis=-1, keepdims=True)
        gdot = (gxhat * xhat).mean(axis=-1, keepdims=True)
        gx = (gxhat - gmean - xhat * gdot) * inv
        return (
            gx.astype(x.dtype, copy=False),
            (g * xhat).sum(axis=axes),
            g.sum(axis=axes),
        )

    return apply_op("layer_norm", out.astype(x.dtype, copy=False), (x, gain, bias), bwd)


def softmax_lastdim(x: Tensor) -> Tensor:
    """Row-wise softmax over the last dim, computed with max subtraction."""
    if np.isnan(x.data).any():
        raise NumericError("softmax_lastdim: NaN in input")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        return ((g - (g * s).sum(axis=-1, keepdims=True)) * s,)

    return apply_op("softmax_lastdim", s.astype(x.dtype, copy=False), (x,), bwd)


def cross_entropy_rows(logits: Tensor, targets, mask=None) -> tuple[Tensor, int]:
    """Mean of -log softmax(logits)[target] over unmasked rows.

    Returns (loss, n_scored); n_scored == 0 flags an all-masked batch, in
    which case the loss is an exact zero detached from the graph.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy_rows: expected [n, vocab], got {logits.shape}")
    n, v = logits.shape
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (n,):
        raise ShapeError(f"cross_entropy_rows: {n} rows but {targets.shape} targets")
    mask = np.ones(n, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if mask.shape != (n,):
        raise ShapeError(f"cross_entropy_rows: {n} rows but {mask.shape} mask")
    if np.any((targets[mask] < 0) | (targets[mask] >= v)):
        raise IndexError(f"cross_entropy_rows: target outside [0, {v})")
    n_scored = int(mask.sum())
    if n_scored == 0:
        return Tensor(np.zeros((), dtype=logits.dtype)), 0

    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - logz
    rows = np.arange(n)
    losses = -logp[rows, targets]
    out = np.asarray(losses[mask].mean(), dtype=logits.dtype)

    def bwd(g):
        gl = np.exp(logp)
        gl[rows, targets] -= 1.0
        gl[~mask] = 0.0
        return ((g / n_scored) * gl.astype(logits.dtype, copy=False),)

    return apply_op("cross_entropy_rows", out, (logits,), bwd), n_scored


def sum_all(x: Tensor) -> Tensor:
    return apply_op(
        "sum_all",
        np.asarray(x.data.sum(), dtype=x.dtype),
        (x,),
        lambda g: (np.full_like(x.data, 1.0) * g,),
    )


def mean_all(x: Tensor) -> Tensor:
    return scale(sum_all(x), 1.0 / x.size)


def l2_normalize_rows(x: Tensor) -> Tensor:
    """Scale each row of x[n,d] to unit L2 norm; zero rows are an error."""
    if x.data.ndim != 2:
        raise ShapeError(f"l2_normalize_rows: expected [n, d], got {x.shape}")
    norms = np.sqrt((x.data * x.data).sum(axis=1, keepdims=True))
    if np.any(norms == 0.0):
        raise NumericError("l2_normalize_rows: zero-norm row")
    y = x.data / norms

    def bwd(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        return (((g - y * dot) / norms).astype(x.dtype, copy=False),)

    return apply_op("l2_normalize_rows", y.astype(x.dtype, copy=False), (x,), bwd)
