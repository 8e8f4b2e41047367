"""Finite-difference verification of backward passes.

Central differences at 64-bit are the independent oracle for every scalar
loss in the package; relative errors are measured against a small floor so
near-zero gradient coordinates do not divide FD noise by zero.
"""

import numpy as np

from .errors import UsageError
from .tensor import Graph, backward

FD_STEP = 1e-5
REL_FLOOR = 1e-3
REL_TOL = 1e-4
PROBE_BATCH = 4


def grad_error(loss_fn, leaves, rng, coords_per_tensor: int = 4) -> float:
    """Worst relative error between backward() and central differences.

    loss_fn() must rebuild the loss from the leaves' current data each call.
    Leaves must be float64 tensors with requires_grad set.
    """
    leaves = list(leaves)
    for leaf in leaves:
        if leaf.data.dtype != np.float64:
            raise UsageError("grad_error requires float64 leaves")
        if not leaf.requires_grad:
            raise UsageError("grad_error leaves must require gradients")

    with Graph() as g:
        loss = loss_fn()
        backward(g, loss)
    analytic = [np.zeros_like(leaf.data) if leaf.grad is None else leaf.grad.copy() for leaf in leaves]

    worst = 0.0
    for leaf, an in zip(leaves, analytic):
        flat = leaf.data.reshape(-1)
        k = min(coords_per_tensor, flat.size)
        coords = rng.choice(flat.size, size=k, replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + FD_STEP
            f_plus = loss_fn().item()
            flat[c] = orig - FD_STEP
            f_minus = loss_fn().item()
            flat[c] = orig
            fd = (f_plus - f_minus) / (2.0 * FD_STEP)
            an_c = an.reshape(-1)[c]
            rel = abs(an_c - fd) / max(abs(an_c), abs(fd), REL_FLOOR)
            worst = max(worst, rel)
    return worst


def loss_gradcheck(n_seeds: int = 20, coords_per_tensor: int = 1) -> dict[str, float]:
    """FD-check the three training losses on a tiny 64-bit model.

    Fixed probe: 2 layers, d_model 16, vocab 64, batch 4. Returns the worst
    relative error per loss kind across all seeds. A check of no seed or
    no coordinate would pass without checking anything: UsageError.
    """
    if n_seeds < 1 or coords_per_tensor < 1:
        raise UsageError(f"gradcheck needs at least 1 seed and 1 coordinate, got {n_seeds} and {coords_per_tensor}")
    from . import corpus as C
    from .config import TrainConfig
    from .losses import afp_loss, cif_loss, embed, mcl_loss
    from .model import ModelConfig, init_params
    from .rng import stream

    mcfg = ModelConfig(vocab_size=64, d_model=16, n_layers=2, n_heads=2, d_ff=32, max_seq_len=48)
    tcfg = TrainConfig(align_layer=1, pooling="mean", tau=0.05, alpha=1.5, steps=0)
    worst = {"mcl_loss": 0.0, "cif_loss": 0.0, "afp_loss": 0.0}
    for seed in range(n_seeds):
        family = C.make_family(24, ["A", "B"], seed=seed, length_bounds=(3, 6))
        assert family.vocab_size <= mcfg.vocab_size
        pair_rng = stream(seed, "gradcheck-pairs")
        cif_rng = stream(seed, "gradcheck-cif")
        pairs = C.make_translation_pairs(family, "pairwise", PROBE_BATCH, pair_rng)
        pair_batch = C.collate_pairs(pairs[:PROBE_BATCH])
        cifs = [C.make_cif_sample(family, "copy", "A", 0.5, cif_rng) for _ in range(PROBE_BATCH)]
        cif_batch = C.collate_cif(cifs)
        params = init_params(mcfg, seed=seed, dtype=np.float64)

        def mcl_fn():
            h = embed(params, pair_batch.src_tokens, pair_batch.src_pad, tcfg.align_layer, tcfg.pooling)
            hp = embed(params, pair_batch.tgt_tokens, pair_batch.tgt_pad, tcfg.align_layer, tcfg.pooling)
            return mcl_loss(h, hp, tcfg.tau)

        def cif_fn():
            return cif_loss(params, cif_batch)[0]

        def afp_fn():
            return afp_loss(params, pair_batch, cif_batch, tcfg)

        leaves = [t for _, t in params.named()]
        for name, fn in (("mcl_loss", mcl_fn), ("cif_loss", cif_fn), ("afp_loss", afp_fn)):
            err = grad_error(fn, leaves, stream(seed, "gradcheck-coords", name), coords_per_tensor)
            worst[name] = max(worst[name], err)
    return worst
