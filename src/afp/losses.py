"""The three training objectives: contrastive (MCL), instruction (CIF), and
their weighted combination (AFP).

MCL is an in-batch-negative InfoNCE over cosine similarities at temperature
tau: the i-th anchor is scored against all positive-side vectors of the
batch, including its own translation. CIF is plain next-token NLL over the
masked response positions. AFP = MCL + alpha * CIF.
"""

import numpy as np

from . import tensor as T
from .corpus import PairBatch, TokenBatch
from .errors import UsageError
from .model import ModelParams, forward, sequence_nll
from .represent import PooledBatch, pool
from .tensor import Tensor


def _infonce(anchors: Tensor, positives: Tensor, tau: float) -> Tensor:
    an = T.l2_normalize_rows(anchors)
    pn = T.l2_normalize_rows(positives)
    sims = T.scale(T.matmul(an, T.permute(pn, (1, 0))), 1.0 / tau)
    loss, _ = T.cross_entropy_rows(sims, np.arange(anchors.shape[0]))
    return loss


def mcl_loss(h: PooledBatch, h_plus: PooledBatch, tau: float, symmetric: bool = False) -> Tensor:
    """mean_i -log( exp(cos(h_i, h+_i)/tau) / sum_j exp(cos(h_i, h+_j)/tau) ).

    The denominator runs over the positive-side vectors of the batch
    (including j = i). `symmetric` averages in the reversed direction too.
    """
    if tau <= 0:
        raise UsageError(f"tau must be > 0, got {tau}")
    n = h.vectors.shape[0]
    if h_plus.vectors.shape[0] != n:
        raise UsageError(f"mcl_loss: batch sizes {n} and {h_plus.vectors.shape[0]} differ")
    if n < 2:
        raise UsageError("mcl_loss: need at least 2 pairs for in-batch negatives")
    loss = _infonce(h.vectors, h_plus.vectors, tau)
    if symmetric:
        loss = T.scale(T.add(loss, _infonce(h_plus.vectors, h.vectors, tau)), 0.5)
    return loss


def cif_loss(params: ModelParams, batch: TokenBatch) -> tuple[Tensor, int]:
    """Next-token NLL over the batch's masked predictions; identical to
    sequence_nll on the same matrices."""
    return sequence_nll(params, batch.tokens, batch.loss_mask, batch.pad_mask)


def embed(params: ModelParams, tokens: np.ndarray, pad: np.ndarray, layer: int, pooling: str) -> PooledBatch:
    """Pooled hidden_states[layer] of a forward that stops after block `layer`."""
    res = forward(params, tokens, pad, upto_layer=layer)
    return pool(res.hidden_states[layer], pad, pooling, layer=layer)


def afp_loss(
    params: ModelParams,
    mcl_batch: PairBatch,
    cif_batch: TokenBatch,
    config,
) -> tuple[Tensor, dict]:
    """Combined loss L_MCL + alpha * L_CIF.

    Anchors/positives are embedded at config.align_layer from the source and
    target sides of the pair batch. At alpha = 0 the loss is L_MCL alone and
    the CIF forward is skipped. Returns (total, components) with float
    components for logging; "cif" is present only when CIF was computed.
    """
    h = embed(params, mcl_batch.src_tokens, mcl_batch.src_pad, config.align_layer, config.pooling)
    h_plus = embed(params, mcl_batch.tgt_tokens, mcl_batch.tgt_pad, config.align_layer, config.pooling)
    mcl = mcl_loss(h, h_plus, config.tau, symmetric=config.symmetric_mcl)
    if config.alpha == 0:
        return mcl, {"mcl": mcl.item()}
    cif, _ = cif_loss(params, cif_batch)
    total = T.add(mcl, T.scale(cif, config.alpha))
    return total, {"mcl": mcl.item(), "cif": cif.item()}
