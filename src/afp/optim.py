"""AdamW with decoupled weight decay and bias-corrected moments."""

from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingError
from .model import ModelParams

EPS = 1e-8


@dataclass
class OptState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def init_opt_state(params: ModelParams) -> OptState:
    return OptState(
        m={name: np.zeros_like(p.data) for name, p in params.named()},
        v={name: np.zeros_like(p.data) for name, p in params.named()},
        t=0,
    )


def adamw_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: OptState,
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    weight_decay: float = 0.0,
) -> None:
    """One in-place update:
    m <- b1*m + (1-b1)*g;  v <- b2*v + (1-b2)*g^2;  bias-correct both;
    w <- w - lr * (m_hat / (sqrt(v_hat) + EPS) + weight_decay * w).
    A non-finite gradient or second moment raises TrainingError.
    """
    b1, b2 = betas
    state.t += 1
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name, p in params.named():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        if g.shape != p.data.shape:
            raise TrainingError(f"gradient shape {g.shape} != param shape {p.data.shape} for {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        with np.errstate(over="ignore"):
            v += (1.0 - b2) * (g * g)
        if not np.all(np.isfinite(v)):
            raise TrainingError(f"non-finite second moment for parameter {name!r}: its squared gradient overflows")
        m_hat = m / bc1
        v_hat = v / bc2
        step = m_hat / (np.sqrt(v_hat) + EPS)
        if weight_decay != 0.0:
            step = step + weight_decay * p.data
        p.data -= (lr * step).astype(p.data.dtype, copy=False)
