"""Decoder-only transformer exposing per-layer hidden states.

Pre-norm residual blocks, GELU MLP, learned absolute positions, untied
input/output embeddings. hidden_states[0] is the raw token+position embedding
sum; hidden_states[l] is the output of block l. Padded positions are masked
out of attention keys and excluded from every loss/pooling downstream.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError, UsageError
from .rng import stream
from .tensor import Tensor

LN_EPS = 1e-5
INIT_STD = 0.02
# Most positions a graph-free, cache-free forward runs at once; a larger one
# runs in chunks of whole rows of at most this many positions (at least two
# rows). On a 2-core x86 box, a held-out call at the desk config (median of 20
# interleaved rounds) took 151, 142, 138, 167 and 180 ms at 256, 512, 1024,
# 2048 and unchunked, with traced numpy peaks of 7.2, 7.2, 8.3, 14.4 and
# 32.9 MiB, the early-stopped forwards keeping one layer each.
CHUNK_POSITIONS = 1024


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int
    n_layers: int
    n_heads: int
    d_ff: int
    max_seq_len: int

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.max_seq_len < 2:
            raise ConfigError("max_seq_len must be >= 2")


def param_shapes(config: ModelConfig) -> dict[str, tuple]:
    """Parameter name -> shape, in canonical (checkpoint) order."""
    shapes = {
        "tok_emb": (config.vocab_size, config.d_model),
        "pos_emb": (config.max_seq_len, config.d_model),
    }
    d, f = config.d_model, config.d_ff
    for i in range(config.n_layers):
        p = f"blocks.{i}."
        shapes[p + "ln1.gain"] = (d,)
        shapes[p + "ln1.bias"] = (d,)
        shapes[p + "attn.wq"] = (d, d)
        shapes[p + "attn.bq"] = (d,)
        shapes[p + "attn.wk"] = (d, d)
        shapes[p + "attn.bk"] = (d,)
        shapes[p + "attn.wv"] = (d, d)
        shapes[p + "attn.bv"] = (d,)
        shapes[p + "attn.wo"] = (d, d)
        shapes[p + "attn.bo"] = (d,)
        shapes[p + "ln2.gain"] = (d,)
        shapes[p + "ln2.bias"] = (d,)
        shapes[p + "mlp.w1"] = (d, f)
        shapes[p + "mlp.b1"] = (f,)
        shapes[p + "mlp.w2"] = (f, d)
        shapes[p + "mlp.b2"] = (d,)
    shapes["final_ln.gain"] = (d,)
    shapes["final_ln.bias"] = (d,)
    shapes["out_proj"] = (d, config.vocab_size)
    return shapes


class ModelParams:
    """Named parameter tensors plus the config they were built for."""

    def __init__(self, config: ModelConfig, tensors: dict[str, Tensor]):
        expected = param_shapes(config)
        if list(tensors) != list(expected):
            raise ConfigError("parameter names do not match config")
        for name, t in tensors.items():
            if t.shape != expected[name]:
                raise ConfigError(f"{name}: shape {t.shape} != {expected[name]}")
            if not np.all(np.isfinite(t.data)):
                raise ConfigError(f"{name}: non-finite values")
        self.config = config
        self.tensors = tensors

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def named(self):
        return self.tensors.items()

    @property
    def dtype(self):
        return self.tensors["tok_emb"].dtype

    def n_params(self) -> int:
        return sum(t.size for t in self.tensors.values())

    def copy(self) -> "ModelParams":
        out = ModelParams(
            self.config,
            {name: Tensor(t.data.copy(), requires_grad=t.requires_grad) for name, t in self.named()},
        )
        return out

    def astype(self, dtype) -> "ModelParams":
        return ModelParams(
            self.config,
            {name: Tensor(t.data.astype(dtype), requires_grad=t.requires_grad) for name, t in self.named()},
        )


def init_params(config: ModelConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Scaled-normal init: std 0.02 everywhere, output projection shrunk by
    1/sqrt(2*n_layers); layer-norm gains 1, all biases 0. Deterministic in seed."""
    rng = stream(seed, "init")
    out_std = INIT_STD / np.sqrt(2.0 * config.n_layers)
    tensors = {}
    for name, shape in param_shapes(config).items():
        if name.endswith((".gain",)):
            data = np.ones(shape)
        elif name.endswith((".bias", ".bq", ".bk", ".bv", ".bo", ".b1", ".b2")):
            data = np.zeros(shape)
        elif name == "out_proj":
            data = rng.normal(0.0, out_std, size=shape)
        else:
            data = rng.normal(0.0, INIT_STD, size=shape)
        tensors[name] = Tensor(data.astype(dtype), requires_grad=True)
    return ModelParams(config, tensors)


@dataclass
class ForwardResult:
    """Outputs of forward(). A full forward fills every layer of
    hidden_states (index 0 = embeddings). With upto_layer=L there are still
    L + 1 entries, but only index L is filled and the lower ones are None,
    so a forward keeps only the layer its caller reads. A forward given
    `read` fills only its top output, hidden_states[L] under upto_layer=L
    and the logits otherwise, as the read rows packed: [n_read, d_model]
    or [n_read, vocab], in np.flatnonzero(read) order."""

    hidden_states: list  # [batch, seq, d_model] Tensor, or None where not filled
    logits: Tensor | None  # [batch, seq, vocab]; None when stopped early


class KVCache:
    """Keys and values of every block for the positions fed so far.

    forward(..., cache=c) feeds only new positions: they take the next
    position ids, attend over every cached key and are appended to the
    cache. Inference only, for a single unpadded row.
    """

    def __init__(self, params: ModelParams):
        cfg = params.config
        shape = (1, cfg.max_seq_len, cfg.d_model)
        self.keys = [np.empty(shape, dtype=params.dtype) for _ in range(cfg.n_layers)]
        self.values = [np.empty(shape, dtype=params.dtype) for _ in range(cfg.n_layers)]
        self.length = 0


def _attention_bias(key_valid: np.ndarray, s: int, dtype) -> np.ndarray:
    """Additive [B, 1, S, Sk] mask, broadcast over heads: 0 where key j is
    valid and j <= Sk - S + i (the absolute position of query i)."""
    sk = key_valid.shape[1]
    allowed = np.tri(s, sk, sk - s, dtype=bool)[None, None] & key_valid[:, None, None, :]
    return np.where(allowed, 0.0, T.MASK_FILL).astype(dtype)


def forward(
    params: ModelParams,
    tokens: np.ndarray,
    pad_mask: np.ndarray | None = None,
    upto_layer: int | None = None,
    cache: KVCache | None = None,
    read: np.ndarray | None = None,
) -> ForwardResult:
    """Causal forward pass over a [batch, seq] token matrix.

    upto_layer=L stops after block L: there are no logits, and of
    hidden_states only index L is filled (see ForwardResult). With a cache,
    tokens continue the cached positions (see KVCache). With neither a cache
    nor an open Graph, a batch of more than CHUNK_POSITIONS positions runs in
    chunks of whole rows.

    read, a [batch, seq] mask, names the positions the caller reads; each
    needs a valid position at or before it in its row. The forward then
    computes only what they depend on (see _live_rows) and returns their
    rows packed (see ForwardResult). This holds under a Graph too.
    """
    cfg = params.config
    if upto_layer is not None and not 0 <= upto_layer <= cfg.n_layers:
        raise UsageError(f"layer {upto_layer} outside [0, {cfg.n_layers}]")
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 2:
        raise ShapeError(f"forward: tokens must be [batch, seq], got {tokens.shape}")
    b, s = tokens.shape
    past = 0 if cache is None else cache.length
    if past + s > cfg.max_seq_len:
        raise ShapeError(f"forward: seq length {past + s} exceeds max_seq_len {cfg.max_seq_len}")
    if s < 1:
        raise ShapeError("forward: empty sequence")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
        raise IndexError(f"forward: token id outside [0, {cfg.vocab_size})")
    if pad_mask is None:
        pad_mask = np.ones((b, s), dtype=bool)
    pad_mask = np.asarray(pad_mask, dtype=bool)
    if pad_mask.shape != (b, s):
        raise ShapeError(f"forward: pad_mask {pad_mask.shape} vs tokens {(b, s)}")
    if read is not None:
        read = np.asarray(read, dtype=bool)
        if read.shape != (b, s):
            raise ShapeError(f"forward: read {read.shape} vs tokens {(b, s)}")
        if (read & ~np.logical_or.accumulate(pad_mask, axis=1)).any():
            raise UsageError("forward: a read position has no valid position at or before it")
    if cache is not None:
        if T.recording():
            raise UsageError("forward: a KV cache is for inference; close the Graph first")
        if upto_layer is not None or read is not None or b != 1 or not pad_mask.all():
            raise UsageError("forward: a KV cache needs every block, every position and one unpadded row")
    elif b * s > CHUNK_POSITIONS and not T.recording():
        return _chunked_forward(params, tokens, pad_mask, upto_layer, read)
    return _forward(params, tokens, pad_mask, upto_layer, cache, read)


def chunk_plan(shape: tuple, read: np.ndarray | None = None) -> tuple[list, np.ndarray]:
    """The chunks of a graph-free, cache-free forward of a [batch, seq] batch
    (see CHUNK_POSITIONS): their row bounds, one chunk when the batch holds at
    most CHUNK_POSITIONS positions, and at[i], where row i's outputs start
    among the forward's output rows (its packed read rows, given read)."""
    b, s = shape
    rows = max(CHUNK_POSITIONS // s, 2)
    bounds = [*range(0, b, rows), b]
    if s == 1 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]  # fold a lone last position into the chunk before
    at = np.arange(b + 1) if read is None else np.r_[0, np.cumsum(read.sum(axis=1))]
    return bounds, at


def _chunked_forward(params: ModelParams, tokens: np.ndarray, pad_mask: np.ndarray, upto_layer, read) -> ForwardResult:
    """_forward over chunks of whole rows (see CHUNK_POSITIONS), their
    outputs (packed read rows too) written one after another.

    Every op but matmul works row by row, and an OpenBLAS product row keeps
    its bits in any piece of two or more rows at the default model's float32
    shapes, but not in a one-row piece (a gemv): no chunk holds one position.
    """
    bounds, at = chunk_plan(tokens.shape, read)
    outs = None
    for lo, hi in zip(bounds, bounds[1:]):
        res = _forward(params, tokens[lo:hi], pad_mask[lo:hi], upto_layer, None, None if read is None else read[lo:hi])
        parts = [*res.hidden_states, res.logits]
        if outs is None:  # only the outputs the chunk filled
            outs = [None if t is None else np.empty((at[-1], *t.shape[1:]), t.dtype) for t in parts]
        for out, t in zip(outs, parts):
            if t is not None:
                out[at[lo] : at[hi]] = t.data
        del res, parts, t  # the chunk's outputs, before the next chunk runs
    outs = [None if a is None else Tensor(a) for a in outs]
    return ForwardResult(outs[:-1], outs[-1])


def _live_rows(pad_mask: np.ndarray, read: np.ndarray, n_blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions (live, top) of a forward that computes only what `read` depends on.

    top holds the read positions. live adds every valid position at or
    before its row's last read one: the keys that the read positions reach
    through n_blocks causal blocks; it is top itself when that adds none.
    Graph-free, a set of one position in a batch of more is that position
    twice, since a one-row product (a gemv) rounds differently from the same
    row in a larger one; _forward returns it once. A recorded forward keeps
    it once, so that no copy takes a gradient.
    """

    def rows(mask):
        idx = np.flatnonzero(mask)
        return np.repeat(idx, 2) if idx.size == 1 and mask.size > 1 and not T.recording() else idx

    top = rows(read)
    ahead = np.logical_or.accumulate(read[:, ::-1], axis=1)[:, ::-1]  # a read position here or later
    live = rows(ahead & (pad_mask | read)) if n_blocks else top
    return (top, top) if np.array_equal(live, top) else (live, top)


def _forward(params: ModelParams, tokens: np.ndarray, pad_mask: np.ndarray, upto_layer, cache, read) -> ForwardResult:
    """The blocks of forward() over arguments it has checked, in one piece.

    With `read`, the residual stream holds the live rows only, and in the
    last block only the read rows continue past attention (see _live_rows),
    so that it ends holding the rows forward() returns. T.attention takes
    the live rows packed, with their flat positions, and returns the rows
    that go on; it runs over every position, with zero queries, keys and
    values where a row was skipped (a masked key weighs exactly 0), in
    layouts that only its own products hold. Each product adds its bias
    itself, so every recorded value is on the tape once.
    """
    cfg = params.config
    b, s = tokens.shape
    d, h = cfg.d_model, cfg.n_heads
    n_blocks = cfg.n_layers if upto_layer is None else upto_layer
    past = 0 if cache is None else cache.length
    if cache is not None and s == 1:  # one new token of one unpadded row: it sees every key
        pos_ids, attn_bias = np.array([[past]]), np.zeros((1, 1, 1, past + 1), params.dtype)
    else:
        key_valid = pad_mask if cache is None else np.ones((1, past + s), dtype=bool)
        pos_ids = np.broadcast_to(np.arange(past, past + s), (b, s))
        attn_bias = _attention_bias(key_valid, s, params.dtype)
    if read is None:
        live = top = None
        emb = T.add(T.embedding(params["tok_emb"], tokens), T.embedding(params["pos_emb"], pos_ids))
        x = T.reshape(emb, (b * s, d))  # the residual stream, one row per position
    else:
        live, top = _live_rows(pad_mask, read, n_blocks)
        tok, pos = tokens.reshape(-1)[live], pos_ids.reshape(-1)[live]
        x = T.add(T.embedding(params["tok_emb"], tok), T.embedding(params["pos_emb"], pos))

    def linear(x, w, bias):  # x @ w + bias over the rows x holds
        return T.matmul(x, params[p + w], params[p + bias])

    every = read is None and upto_layer is None  # a full forward returns every layer
    hidden = [emb if every else None]
    keep = live
    for i in range(n_blocks):
        p = f"blocks.{i}."
        a = T.layer_norm(x, params[p + "ln1.gain"], params[p + "ln1.bias"], LN_EPS)
        q, k, v = linear(a, "attn.wq", "attn.bq"), linear(a, "attn.wk", "attn.bk"), linear(a, "attn.wv", "attn.bv")
        if cache is not None:
            cache.keys[i][:, past : past + s] = k.data.reshape(b, s, d)
            cache.values[i][:, past : past + s] = v.data.reshape(b, s, d)
            k = Tensor(cache.keys[i][:, : past + s])
            v = Tensor(cache.values[i][:, : past + s])
        if i == n_blocks - 1 and live is not top:  # only the read rows continue
            x, keep = T.gather_rows(x, np.searchsorted(live, top)), top
        ctx = T.attention(q, k, v, attn_bias, h, rows=live, keep=keep)  # dense when live is None
        x = T.add(x, linear(ctx, "attn.wo", "attn.bo"))

        m = T.layer_norm(x, params[p + "ln2.gain"], params[p + "ln2.bias"], LN_EPS)
        x = T.add(x, linear(T.gelu(linear(m, "mlp.w1", "mlp.b1")), "mlp.w2", "mlp.b2"))
        hidden.append(T.reshape(x, (b, s, d)) if every else None)

    if cache is not None:
        cache.length = past + s
    if upto_layer is None:
        fin = T.layer_norm(x, params["final_ln.gain"], params["final_ln.bias"], LN_EPS)
        x = T.matmul(fin, params["out_proj"])  # the logits
    if read is None:
        x = T.reshape(x, (b, s, x.shape[-1]))
    elif top.size == 2 and top[0] == top[1]:  # a graph-free lone read position, held twice
        x = Tensor(x.data[1:])
    if upto_layer is not None:  # the top output is that layer's, not the logits
        hidden[upto_layer], x = x, None
    return ForwardResult(hidden, x)


def sequence_nll(
    params: ModelParams,
    tokens: np.ndarray,
    loss_mask: np.ndarray,
    pad_mask: np.ndarray | None = None,
    divisor: int | None = None,
) -> tuple[Tensor, int]:
    """Mean next-token NLL over positions t with loss_mask[t] set.

    loss_mask marks the *predicting* positions: a marked t scores
    logits[t] against tokens[t+1]. Returns (loss, n_scored); an all-false
    mask raises ShapeError (`CifSample.from_json` rejects a record that
    scores nothing). The forward reads the marked positions alone, so it
    computes only what their logits depend on. Given a divisor, the summed
    NLL is divided by it instead of n_scored: a shard of a batch is scored
    with the whole batch's count.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    loss_mask = np.asarray(loss_mask, dtype=bool)
    if loss_mask.shape != tokens.shape:
        raise ShapeError(f"sequence_nll: loss_mask {loss_mask.shape} vs tokens {tokens.shape}")
    if loss_mask[:, -1].any():
        raise UsageError("sequence_nll: last position has no next token to score")
    if not loss_mask.any():
        raise ShapeError("sequence_nll: loss_mask marks no position to score")

    logits = forward(params, tokens, pad_mask, read=loss_mask).logits
    return read_logits_nll(logits, tokens, loss_mask, divisor), int(loss_mask.sum())


def read_logits_nll(logits: Tensor, tokens: np.ndarray, loss_mask: np.ndarray, divisor: int | None = None) -> Tensor:
    """sequence_nll's loss from its forward's packed read logits (read =
    loss_mask), however they were computed."""
    rows = np.flatnonzero(loss_mask)  # no row's last position, so rows + 1 is the next token
    return T.cross_entropy_rows(logits, tokens.reshape(-1)[rows + 1], divisor)
