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
from .represent import PooledBatch, pool, pooled_positions
from .tensor import Graph, Tensor, backward


def _infonce(anchors: Tensor, positives: Tensor, tau: float) -> Tensor:
    an = T.l2_normalize_rows(anchors)
    pn = T.l2_normalize_rows(positives)
    sims = T.scale(T.matmul(an, T.permute(pn, (1, 0))), 1.0 / tau)
    return T.cross_entropy_rows(sims, np.arange(anchors.shape[0]))


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


def cif_loss(params: ModelParams, batch: TokenBatch, divisor: int | None = None) -> tuple[Tensor, int]:
    """Next-token NLL over the batch's masked predictions; identical to
    sequence_nll on the same matrices (divisor included)."""
    return sequence_nll(params, batch.tokens, batch.loss_mask, batch.pad_mask, divisor)


def cif_halves(batch: TokenBatch) -> tuple[TokenBatch, TokenBatch | None]:
    """The two fixed CIF shards of a batch: its first ceil(n/2) rows, then
    the rest (None for a one-row batch)."""
    half = (len(batch.tokens) + 1) // 2
    first, second = (
        TokenBatch(batch.tokens[rows], batch.pad_mask[rows], batch.loss_mask[rows])
        for rows in (slice(None, half), slice(half, None))
    )
    return first, (second if len(second.tokens) else None)


def _own_tape_grads(params: ModelParams, graph: Graph, root: Tensor, grad: np.ndarray | None = None) -> list:
    """backward over a tape of its own: the gradient of every parameter in
    params.named() order, None where one has none. The parameters' own .grad
    is left as it was, so this may run in the middle of another tape's
    backward."""
    leaves = [t for _, t in params.named()]
    held = [t.grad for t in leaves]
    backward(graph, root, grad)
    grads = [t.grad for t in leaves]
    for t, h in zip(leaves, held):
        t.grad = h
    return grads


def cif_shard(params: ModelParams, shard: TokenBatch, divisor: int):
    """A generator over one CIF shard on a tape of its own, divided by the
    whole batch's count of scored positions: it yields the loss value, then
    the gradient of every parameter in params.named() order (None where one
    has none, and for every one after a non-finite value)."""
    with Graph() as g:
        loss = cif_loss(params, shard, divisor)[0]
    yield loss.data
    if not np.isfinite(loss.data):
        yield [None] * len(params.tensors)
        return
    yield _own_tape_grads(params, g, loss)


def embed_apart(params: ModelParams, tokens: np.ndarray, pad: np.ndarray, layer: int, pooling: str):
    """A generator over one pair side's embed on a tape of its own: it yields
    the pooled vectors' array; sent d(loss)/d(vectors) of a loss computed
    from them elsewhere, it yields the gradient of every parameter in
    params.named() order, as cif_shard does."""
    with Graph() as g:
        vectors = embed(params, tokens, pad, layer, pooling).vectors
    seed = yield vectors.data
    yield _own_tape_grads(params, g, vectors, seed)


class InProcess:
    """afp_loss's default runner: what train hands its worker runs in this
    process instead, in the order of a run with no worker."""

    @staticmethod
    def second_shard(params: ModelParams, shard: TokenBatch, divisor: int):
        """cif_shard, its forward when the value is asked for, its backward
        when the gradients are."""

        def finish():
            run = cif_shard(params, shard, divisor)
            return next(run), lambda: next(run)

        return finish

    @staticmethod
    def target_side(params: ModelParams, tokens: np.ndarray, pad: np.ndarray, layer: int, pooling: str):
        """embed on the calling tape, once the source side is embedded."""
        return lambda: embed(params, tokens, pad, layer, pooling)


in_process = InProcess()


def embed(params: ModelParams, tokens: np.ndarray, pad: np.ndarray, layer: int, pooling: str) -> PooledBatch:
    """Pooled hidden_states[layer] of a forward that stops after block `layer`;
    graph-free or under a Graph, it computes only the positions the pooling reads."""
    res = forward(params, tokens, pad, upto_layer=layer, read=pooled_positions(pad, pooling))
    return pool(res.hidden_states[layer], pad, pooling, layer=layer)


def afp_loss(params: ModelParams, mcl_batch: PairBatch, cif_batch: TokenBatch, config, runner=in_process) -> Tensor:
    """Combined loss L_MCL + alpha * L_CIF.

    Anchors and positives are embedded at config.align_layer from the source
    side of the pair batch, then from its target side. L_CIF is the sum of
    the batch's two cif_halves, each divided by the whole batch's count of
    scored positions. The first is recorded on the calling tape after MCL.
    The second runs on a tape of its own and joins as one node recorded
    first (T.precomputed), so its gradients are added last. The bits thus
    depend on the fixed split alone, not on where the second shard runs.

    runner holds what may run elsewhere; by default (in_process) all of it
    runs in this process, and train hands it to its worker. Both are
    started before the source side is embedded:
    - runner.second_shard(params, shard, divisor) returns a function giving
      the shard's loss value and a function giving its gradients, as
      cif_shard yields them;
    - at alpha = 0, runner.target_side(params, tokens, pad, layer, pooling)
      returns a function giving the target side's PooledBatch, recorded
      where its embed would be. Its gradients may be added after the source
      side's: each leaf then sums one term per side, and float addition
      commutes. With CIF a leaf sums three or more terms, so the target
      side stays on the calling tape, in its place.
    At alpha = 0 the loss is L_MCL alone and no CIF runs.
    """
    layer, pooling = config.align_layer, config.pooling
    if config.alpha != 0:
        first, second = cif_halves(cif_batch)
        divisor = int(cif_batch.loss_mask.sum())
        finish = None if second is None else runner.second_shard(params, second, divisor)
    target_side = (runner if config.alpha == 0 else in_process).target_side
    h_plus = target_side(params, mcl_batch.tgt_tokens, mcl_batch.tgt_pad, layer, pooling)
    h = embed(params, mcl_batch.src_tokens, mcl_batch.src_pad, layer, pooling)
    mcl = mcl_loss(h, h_plus(), config.tau, symmetric=config.symmetric_mcl)
    if config.alpha == 0:
        return mcl
    cif = cif_loss(params, first, divisor)[0]
    if finish is not None:
        value, grads = finish()
        cif = T.add(cif, T.precomputed("cif_shard", value, tuple(t for _, t in params.named()), grads))
    return T.add(mcl, T.scale(cif, config.alpha))
