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


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int
    n_layers: int
    n_heads: int
    d_ff: int
    max_seq_len: int

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.max_seq_len < 2:
            raise ConfigError("max_seq_len must be >= 2")
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


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

    def set_requires_grad(self, flag: bool) -> None:
        for t in self.tensors.values():
            t.requires_grad = flag

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
    hidden_states: list  # [batch, seq, d_model] per layer; index 0 = embeddings
    logits: Tensor | None  # [batch, seq, vocab]; None when stopped early


def _attention_bias(pad_mask: np.ndarray, n_heads: int, dtype) -> np.ndarray:
    """Additive [B*H, S, S] mask: 0 where key j <= query i and j is valid."""
    b, s = pad_mask.shape
    causal = np.tril(np.ones((s, s), dtype=bool))
    allowed = causal[None, :, :] & pad_mask[:, None, :]
    bias = np.where(allowed, 0.0, T.MASK_FILL).astype(dtype)
    return np.repeat(bias, n_heads, axis=0)


def forward(
    params: ModelParams,
    tokens: np.ndarray,
    pad_mask: np.ndarray | None = None,
    upto_layer: int | None = None,
) -> ForwardResult:
    """Causal forward pass over a [batch, seq] token matrix; upto_layer=L stops after block L, with no logits."""
    cfg = params.config
    if upto_layer is not None and not 0 <= upto_layer <= cfg.n_layers:
        raise UsageError(f"layer {upto_layer} outside [0, {cfg.n_layers}]")
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 2:
        raise ShapeError(f"forward: tokens must be [batch, seq], got {tokens.shape}")
    b, s = tokens.shape
    if s > cfg.max_seq_len:
        raise ShapeError(f"forward: seq length {s} exceeds max_seq_len {cfg.max_seq_len}")
    if s < 1:
        raise ShapeError("forward: empty sequence")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
        raise IndexError(f"forward: token id outside [0, {cfg.vocab_size})")
    if pad_mask is None:
        pad_mask = np.ones((b, s), dtype=bool)
    pad_mask = np.asarray(pad_mask, dtype=bool)
    if pad_mask.shape != (b, s):
        raise ShapeError(f"forward: pad_mask {pad_mask.shape} vs tokens {(b, s)}")

    d, h, dh = cfg.d_model, cfg.n_heads, cfg.head_dim
    pos_ids = np.broadcast_to(np.arange(s), (b, s))
    x = T.add(T.embedding(params["tok_emb"], tokens), T.embedding(params["pos_emb"], pos_ids))
    hidden = [x]
    attn_bias = Tensor(_attention_bias(pad_mask, h, params.dtype))

    for i in range(cfg.n_layers if upto_layer is None else upto_layer):
        p = f"blocks.{i}."
        a = T.layer_norm(x, params[p + "ln1.gain"], params[p + "ln1.bias"], LN_EPS)
        a2 = T.reshape(a, (b * s, d))
        q = T.add_bias(T.matmul(a2, params[p + "attn.wq"]), params[p + "attn.bq"])
        k = T.add_bias(T.matmul(a2, params[p + "attn.wk"]), params[p + "attn.bk"])
        v = T.add_bias(T.matmul(a2, params[p + "attn.wv"]), params[p + "attn.bv"])
        # [B*S, D] -> [B*H, S, dh]
        q = T.reshape(T.permute(T.reshape(q, (b, s, h, dh)), (0, 2, 1, 3)), (b * h, s, dh))
        kt = T.reshape(T.permute(T.reshape(k, (b, s, h, dh)), (0, 2, 3, 1)), (b * h, dh, s))
        v = T.reshape(T.permute(T.reshape(v, (b, s, h, dh)), (0, 2, 1, 3)), (b * h, s, dh))
        scores = T.add(T.scale(T.bmm(q, kt), 1.0 / np.sqrt(dh)), attn_bias)
        weights = T.softmax_lastdim(scores)
        ctx = T.bmm(weights, v)
        ctx = T.reshape(T.permute(T.reshape(ctx, (b, h, s, dh)), (0, 2, 1, 3)), (b * s, d))
        proj = T.add_bias(T.matmul(ctx, params[p + "attn.wo"]), params[p + "attn.bo"])
        x = T.add(x, T.reshape(proj, (b, s, d)))

        m = T.layer_norm(x, params[p + "ln2.gain"], params[p + "ln2.bias"], LN_EPS)
        m2 = T.reshape(m, (b * s, d))
        f = T.add_bias(T.matmul(m2, params[p + "mlp.w1"]), params[p + "mlp.b1"])
        f = T.gelu(f)
        f = T.add_bias(T.matmul(f, params[p + "mlp.w2"]), params[p + "mlp.b2"])
        x = T.add(x, T.reshape(f, (b, s, d)))
        hidden.append(x)

    if upto_layer is not None:
        return ForwardResult(hidden_states=hidden, logits=None)
    fin = T.layer_norm(x, params["final_ln.gain"], params["final_ln.bias"], LN_EPS)
    logits = T.reshape(T.matmul(T.reshape(fin, (b * s, d)), params["out_proj"]), (b, s, cfg.vocab_size))
    return ForwardResult(hidden_states=hidden, logits=logits)


def sequence_nll(
    params: ModelParams,
    tokens: np.ndarray,
    loss_mask: np.ndarray,
    pad_mask: np.ndarray | None = None,
) -> tuple[Tensor, int]:
    """Mean next-token NLL over positions t with loss_mask[t] set.

    loss_mask marks the *predicting* positions: a marked t scores
    logits[t] against tokens[t+1]. Returns (loss, n_scored); an all-false
    mask yields a flagged (detached) zero.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    loss_mask = np.asarray(loss_mask, dtype=bool)
    if loss_mask.shape != tokens.shape:
        raise ShapeError(f"sequence_nll: loss_mask {loss_mask.shape} vs tokens {tokens.shape}")
    b, s = tokens.shape
    if loss_mask[:, -1].any():
        raise UsageError("sequence_nll: last position has no next token to score")
    n_scored = int(loss_mask.sum())
    if n_scored == 0:
        return Tensor(np.zeros((), dtype=params.dtype)), 0

    res = forward(params, tokens, pad_mask)
    flat_logits = T.reshape(res.logits, (b * s, params.config.vocab_size))
    rows_b, rows_t = np.nonzero(loss_mask)
    picked = T.gather_rows(flat_logits, rows_b * s + rows_t)
    targets = tokens[rows_b, rows_t + 1]
    return T.cross_entropy_rows(picked, targets)
