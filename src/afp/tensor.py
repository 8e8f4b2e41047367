"""Dense tensors with tape-based reverse-mode automatic differentiation.

Tensors hold flat row-major float32/float64 buffers (numpy arrays). Ops run
eagerly; when a Graph is active and an input requires gradients, the op is
recorded on the tape. backward() replays the tape in reverse, which fixes a
single deterministic accumulation order. Broadcasting is deliberately limited
to trailing-dimension bias adds and row-wise ops. backward() frees each
node's saved arrays as soon as it has been processed. Every op runs on the
calling thread. GELU computes its Gaussian cdf with numpy alone: a blocked
float32 rational kernel, and libm's erf in float64.
"""

import math
import threading

import numpy as np

from .errors import NumericError, ShapeError, UsageError

FLOAT_DTYPES = (np.float32, np.float64)
_FLOAT_DTYPE_SET = frozenset(np.dtype(t) for t in FLOAT_DTYPES)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# GELU's float32 Gaussian cdf: phi(x) = 0.5 + x*P(x*x)/Q(x*x) for x clamped
# to +-4*sqrt(2), then clipped to [0, 1], which it would leave by up to 2e-7.
# x*P/Q is Eigen/XLA's float32 rational erf(z) ~ z*N(z*z)/D(z*z) on
# z in [-4, 4] at z = x/sqrt(2), with that scale and the 0.5 folded into the
# coefficients (lowest power first below). Its error against the exact phi
# is at most 2.5e-7.
_ERF_N = (
    -1.60960333262415e-02, -2.95459980854025e-03, -7.34990630326855e-04, -5.69250639462346e-05,
    -2.10102402082508e-06, 2.77068142495902e-08, -2.72614225801306e-10,
)
_ERF_D = (
    -1.42647390514189e-02, -7.37332916720468e-03, -1.68282697438203e-03, -2.13374055278905e-04,
    -1.45660718464996e-05,
)
# Coefficients, bounds and constants as 0-d float32 arrays: a ufunc takes
# those with the least per-call overhead, and the decode path calls GELU on
# one position at a time.
_PHI_P = tuple(np.array(c * 0.5 * _INV_SQRT2 / 2**k, np.float32) for k, c in enumerate(_ERF_N))
_PHI_Q = tuple(np.array(c / 2**k, np.float32) for k, c in enumerate(_ERF_D))
_PHI_HI, _PHI_LO = np.array(4.0 * math.sqrt(2.0), np.float32), np.array(-4.0 * math.sqrt(2.0), np.float32)
_F32_0, _F32_HALF, _F32_1 = (np.array(v, np.float32) for v in (0.0, 0.5, 1.0))
# Elements per step of the float32 kernel. It bounds the temporaries (three
# 256 KB buffers) and keeps a step's working set, about 1.5 MB with the
# input and output blocks, inside a core's L2 cache. On a 2-core Xeon with
# 2 MB of L2 per core, 2**16 ran GELUs of 172k-1.4M elements 13% faster
# than 2**14 and 8% faster than 2**17.
GELU_BLOCK = 2**16
# libm's erf, elementwise; only the float64 path (gradcheck, oracles) uses it.
_erf64 = np.frompyfunc(math.erf, 1, 1)

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

    __slots__ = ("data", "requires_grad", "grad", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
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

    Confined to the thread that opened it: each thread has its own
    active-graph stack, so a thread never records on another's tape.
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
    stack = getattr(_tls, "graphs", None)
    return stack[-1] if stack else None


def recording() -> bool:
    """True while a Graph is open on this thread."""
    return bool(_stack())


def apply_op(op: str, out_data: np.ndarray, inputs: tuple, backward) -> Tensor:
    """Wrap an eagerly computed result, recording it on the active tape.

    `backward(grad_out)` must return one gradient array (or None) per input,
    in input order. Other modules build custom differentiable ops through this.
    """
    if _checked and not np.all(np.isfinite(out_data)):
        raise NumericError(f"{op}: non-finite values in output")
    if type(out_data) is np.ndarray and out_data.dtype in _FLOAT_DTYPE_SET:
        out = Tensor.__new__(Tensor)  # what __init__ would build, without its np.asarray
        out.data, out.requires_grad, out.grad = out_data, False, None
    else:
        out = Tensor(out_data)
    g = _active()
    if g is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        g.nodes.append(Node(op, tuple(inputs), out, backward))
    return out


def backward(graph: Graph, root: Tensor, grad: np.ndarray | None = None) -> None:
    """Populate .grad = d(root)/d(leaf) for every requires_grad leaf of the tape.

    The root is a scalar, or, given grad, an array of its shape and dtype
    that stands for d(loss)/d(root) of a loss computed from root elsewhere:
    the leaves then get d(loss)/d(leaf), with the bits that a scalar root
    sum_all(mul(root, grad)) would give them.

    Accumulation follows reverse tape order, so repeated runs are bit-identical.
    Each node lets go of its inputs, its output's gradient and its backward
    rule (with the arrays it saved) as soon as it has been processed, so the
    pass frees activations as it goes. Gradients persist on leaves only: an
    op output's .grad is None afterwards, and graph.nodes keeps only the op
    names. A tape can therefore be differentiated once.
    """
    if grad is None:
        if root.data.shape != ():
            raise UsageError(f"backward root must be scalar, got shape {root.data.shape}")
        grad = np.ones((), dtype=root.data.dtype)
    elif not (isinstance(grad, np.ndarray) and grad.shape == root.data.shape and grad.dtype == root.data.dtype):
        raise UsageError(f"backward: the seed gradient must be a {root.dtype} array of the root's shape {root.shape}")
    if graph.nodes and graph.nodes[-1].backward is None:
        raise UsageError("backward: this tape was already differentiated")
    seen = set()
    for node in graph.nodes:
        for t in (node.out,) + node.inputs:
            if id(t) not in seen:
                seen.add(id(t))
                t.grad = None
    root.grad = grad
    for node in reversed(graph.nodes):
        gout, node.out.grad = node.out.grad, None
        if gout is not None:
            for t, gin in zip(node.inputs, node.backward(gout)):
                if gin is not None and t.requires_grad:
                    t.grad = gin if t.grad is None else t.grad + gin
        node.inputs = node.out = node.backward = None


def _binary_check(op: str, a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")
    if a.data.dtype != b.data.dtype:
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
    xd, bd = x.data, b.data
    if bd.ndim != 1 or xd.shape[-1] != bd.shape[0]:
        raise ShapeError(f"add_bias: x {x.shape} vs bias {b.shape}")
    if xd.dtype != bd.dtype:
        raise ShapeError(f"add_bias: dtypes {x.dtype} and {b.dtype} differ")
    return apply_op("add_bias", xd + bd, (x, b), lambda g: (g, g.sum(axis=tuple(range(g.ndim - 1)))))


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """C[m,n] = A[m,k] @ B[k,n], plus bias[n] when given.

    The bias is added in place into the product, so the tape holds one
    array and one node where add_bias(matmul(a, b), bias) holds two, with
    the same bits forward and backward.
    """
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} are incompatible")
    if ad.dtype != bd.dtype:
        raise ShapeError(f"matmul: dtypes {a.dtype} and {b.dtype} differ")
    out = ad @ bd
    if bias is None:
        return apply_op("matmul", out, (a, b), lambda g: (g @ bd.T, ad.T @ g))
    if bias.data.shape != (bd.shape[1],) or bias.dtype != bd.dtype:
        raise ShapeError(f"matmul: bias {bias.shape} {bias.dtype} vs product columns {bd.shape[1]} {bd.dtype}")
    out += bias.data
    return apply_op("matmul", out, (a, b, bias), lambda g: (g @ bd.T, ad.T @ g, g.sum(axis=0)))


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
    in_shape = x.data.shape
    return apply_op("reshape", x.data.reshape(shape), (x,), lambda g: (g.reshape(in_shape),))


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows: table[V,d], integer ids of any shape -> [*ids.shape, d]."""
    ids = np.asarray(ids)
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= table.shape[0]):
        raise IndexError(f"embedding: ids outside [0, {table.shape[0]})")

    def bwd(g):
        # Each id's rows summed in one np.add.reduceat over the ids' stable
        # sort: about 3x faster than np.add.at, whose sequential sums it
        # matches up to rounding. Adding the sums into zeros keeps
        # np.add.at's +0 for a lone -0 row.
        gt = np.zeros_like(table.data)
        flat = ids.reshape(-1)
        if flat.size:
            order = np.argsort(flat, kind="stable")
            ordered = flat[order]
            starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
            gt[ordered[starts]] += np.add.reduceat(g.reshape(-1, table.shape[1])[order], starts, axis=0)
        return (gt,)

    return apply_op("embedding", table.data[ids], (table,), bwd)


def _scatter_rows(shape: tuple, idx: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Zeros of the given shape with g's rows added at flat row positions idx."""
    out = np.zeros(shape, g.dtype)
    rows, flat = out.reshape(-1, shape[-1]), idx.reshape(-1)
    if (flat[1:] > flat[:-1]).all():  # increasing, so distinct: np.add.at's sums, about 10x faster
        rows[idx] += g
    else:
        np.add.at(rows, idx, g)
    return out


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Pick rows of x[..., d], numbered over its leading dims: idx[m] -> [m,d]."""
    idx = np.asarray(idx)
    if x.data.ndim < 2:
        raise ShapeError(f"gather_rows: expected an input of 2 or more dims, got {x.shape}")
    shape = x.data.shape
    rows = x.data.reshape(-1, shape[-1])
    if idx.size and (idx.min() < 0 or idx.max() >= rows.shape[0]):
        raise IndexError(f"gather_rows: index outside [0, {rows.shape[0]})")
    return apply_op("gather_rows", rows[idx], (x,), lambda g: (_scatter_rows(shape, idx, g),))


def _horner(t: np.ndarray, coefs: tuple, out: np.ndarray) -> np.ndarray:
    """coefs[0] + coefs[1]*t + ... into out, highest power first."""
    np.add(np.multiply(t, coefs[-1], out=out), coefs[-2], out=out)
    for c in coefs[-3::-1]:
        np.add(np.multiply(out, t, out=out), c, out=out)
    return out


def _gelu32(x: np.ndarray, phi: np.ndarray, out: np.ndarray) -> None:
    """phi = Phi(x) and out = x * phi over flat float32 arrays, GELU_BLOCK elements at a time.

    Only +, *, /, min and max, each exact or correctly rounded elementwise,
    so an element's bits do not depend on where blocks or row chunks cut.
    """
    m = min(x.size, GELU_BLOCK)
    c_buf, t_buf, q_buf = np.empty(m, np.float32), np.empty(m, np.float32), np.empty(m, np.float32)
    for s in range(0, x.size, GELU_BLOCK):
        xb, p = x[s : s + GELU_BLOCK], phi[s : s + GELU_BLOCK]
        k = xb.size
        c = np.maximum(np.minimum(xb, _PHI_HI, out=c_buf[:k]), _PHI_LO, out=c_buf[:k])  # keeps NaN
        t = np.multiply(c, c, out=t_buf[:k])
        q = _horner(t, _PHI_Q, q_buf[:k])
        _horner(t, _PHI_P, p)
        np.add(np.divide(np.multiply(p, c, out=p), q, out=p), _F32_HALF, out=p)
        np.minimum(np.maximum(p, _F32_0, out=p), _F32_1, out=p)
        np.multiply(xb, p, out=out[s : s + GELU_BLOCK])


def _gelu64(x: np.ndarray, phi: np.ndarray, out: np.ndarray) -> None:
    """The float64 counterpart of _gelu32, through libm's erf (about 190 ns an element)."""
    np.multiply(0.5, np.add(1.0, _erf64(x * _INV_SQRT2).astype(np.float64), out=phi), out=phi)
    np.multiply(x, phi, out=out)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian error linear unit: x * Phi(x), Phi the standard normal cdf."""
    xd = x.data
    phi, out = np.empty(xd.shape, xd.dtype), np.empty(xd.shape, xd.dtype)
    kernel = _gelu32 if xd.dtype == np.float32 else _gelu64
    kernel(xd.reshape(-1), phi.reshape(-1), out.reshape(-1))

    def bwd(g):
        pdf = np.exp(-0.5 * xd * xd) * _INV_SQRT2PI
        return (g * (phi + xd * pdf),)

    return apply_op("gelu", out, (x,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each trailing-dim row to zero mean / unit variance, then affine."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(f"layer_norm: x {x.shape} with gain {gain.shape}, bias {bias.shape}")
    if eps <= 0:
        raise UsageError("layer_norm: eps must be > 0")
    # np.add.reduce(...) / d is what np.mean and np.var compute, bit for bit,
    # without their Python-level overhead; the centred array is built once.
    centred = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / d
    var = np.add.reduce(centred * centred, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv
    out = xhat * gain.data + bias.data

    def bwd(g):
        axes = tuple(range(g.ndim - 1))
        gxhat = g * gain.data
        gmean = np.add.reduce(gxhat, axis=-1, keepdims=True) / d
        gdot = np.add.reduce(gxhat * xhat, axis=-1, keepdims=True) / d
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


def attention(q: Tensor, k: Tensor, v: Tensor, bias: np.ndarray, n_heads: int, rows=None, keep=None) -> Tensor:
    """Causal multi-head attention as one tape node: q[B*S, D], k/v[B*Sk, D] -> [B*S, D].

    `bias` is the additive [B, 1, S, Sk] mask (MASK_FILL where a key is
    hidden), broadcast over heads; k and v may also come as [B, Sk, D].

    With `rows`, q, k and v hold packed rows instead: row i belongs at flat
    position rows[i] of the [B*S, D] layout (S == Sk), and every other
    position has a zero query, key and value. The output holds only the
    rows at flat positions `keep` (default `rows`), [len(keep), D]. The
    zero layouts exist only for the products: the backward lays them out
    again from its inputs, so the tape holds the packed rows alone.

    Forward and backward run the numpy expressions of the
    reshape/permute/bmm/scale/add/softmax_lastdim/bmm chain in its order,
    on head-major strided views of q, k and v rather than copies. The
    output and all three gradients are bit-identical to that chain's, and
    with `rows` to that chain over the zero layouts followed by a gather
    of the `keep` rows.
    """
    b, _, s, sk = bias.shape
    d = q.shape[-1]
    if rows is None:
        ok = q.shape == (b * s, d) and k.size == v.size == b * sk * d
    else:
        rows = np.asarray(rows)
        keep = rows if keep is None else np.asarray(keep)
        ok = sk == s and rows.ndim == keep.ndim == 1 and q.shape == k.shape == v.shape == (rows.size, d)
    if d % n_heads or not ok:
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape} vs bias {bias.shape}, {n_heads} heads")
    if not q.dtype == k.dtype == v.dtype == bias.dtype:
        raise ShapeError(f"attention: dtypes {q.dtype}, {k.dtype}, {v.dtype}, {bias.dtype} differ")
    if rows is not None and any(i.size and (i.min() < 0 or i.max() >= b * s) for i in (rows, keep)):
        raise IndexError(f"attention: row outside [0, {b * s})")
    h, dh = n_heads, d // n_heads
    c = float(1.0 / np.sqrt(dh))

    def heads():  # [B, H, S or Sk, dh] views of the (laid-out) q, k and v
        out = []
        for t, n in ((q, s), (k, sk), (v, sk)):
            x = t.data
            if rows is not None:
                x = np.zeros((b * s, d), t.dtype)
                x[rows] = t.data
            out.append(x.reshape(b, n, h, dh).transpose(0, 2, 1, 3))
        return out

    q4, k4, v4 = heads()
    scores = (q4 @ k4.transpose(0, 1, 3, 2)) * np.asarray(c, dtype=q.dtype) + bias
    if np.isnan(scores).any():
        raise NumericError("attention: NaN in scores")
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    out = (w @ v4).transpose(0, 2, 1, 3).reshape(b * s, d)
    if rows is not None:
        out = out[keep]

    def bwd(g):
        q4, k4, v4 = heads()
        if rows is not None:
            g = _scatter_rows((b * s, d), keep, g)
        g4 = g.reshape(b, s, h, dh).transpose(0, 2, 1, 3)
        gw = g4 @ v4.transpose(0, 1, 3, 2)
        gv4 = w.transpose(0, 1, 3, 2) @ g4
        gs = ((gw - (gw * w).sum(axis=-1, keepdims=True)) * w) * c
        gq4 = gs @ k4
        gkt4 = q4.transpose(0, 1, 3, 2) @ gs
        grads = (
            gq4.transpose(0, 2, 1, 3).reshape(b * s, d),
            gkt4.transpose(0, 3, 1, 2).reshape(b * sk, d),
            gv4.transpose(0, 2, 1, 3).reshape(b * sk, d),
        )
        if rows is None:
            return tuple(gx.reshape(t.shape) for gx, t in zip(grads, (q, k, v)))
        return tuple(gx[rows] for gx in grads)

    return apply_op("attention", out, (q, k, v), bwd)


def cross_entropy_rows(logits: Tensor, targets, divisor: int | None = None) -> Tensor:
    """Mean of -log softmax(logits)[target] over every row; given a divisor
    (at least the row count), their sum divided by it instead."""
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy_rows: expected [n, vocab], got {logits.shape}")
    n, v = logits.shape
    if n == 0:
        raise ShapeError("cross_entropy_rows: no rows to score")
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (n,):
        raise ShapeError(f"cross_entropy_rows: {n} rows but {targets.shape} targets")
    if np.any((targets < 0) | (targets >= v)):
        raise IndexError(f"cross_entropy_rows: target outside [0, {v})")
    if divisor is not None and divisor < n:
        raise UsageError(f"cross_entropy_rows: divisor {divisor} below the {n} rows")

    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - logz
    rows = np.arange(n)
    nll = -logp[rows, targets]
    out = np.asarray(nll.mean() if divisor is None else nll.sum() / divisor, dtype=logits.dtype)
    divisor = n if divisor is None else divisor

    def bwd(g):
        gl = np.exp(logp)
        gl[rows, targets] -= 1.0
        return ((g / divisor) * gl.astype(logits.dtype, copy=False),)

    return apply_op("cross_entropy_rows", out, (logits,), bwd)


def precomputed(op: str, value: np.ndarray, leaves: tuple, grads) -> Tensor:
    """A value computed off the active tape (on a tape of its own, or in
    another process) from leaf tensors, as one node named op.

    grads() returns d(value)/d(leaf) for each leaf, None where it has none;
    the node's backward scales them by its output gradient. The node is
    recorded at the start of the tape, which keeps the tape in topological
    order since its inputs are leaves: backward reaches it last, so its
    gradients are added after every other contribution to the leaves, and
    grads() is called only then.
    """
    out = apply_op(op, value, leaves, lambda g: [None if x is None else g * x for x in grads()])
    graph = _active()
    if graph is not None and graph.nodes and graph.nodes[-1].out is out:
        graph.nodes.insert(0, graph.nodes.pop())
    return out


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
