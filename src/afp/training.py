"""Training loop, per-checkpoint diagnostics, and the ablation sweep harness."""

import dataclasses
import json
import os
from dataclasses import dataclass

import numpy as np

from . import corpus as C
from .checkpoint import save_params
from .config import RunConfig, TrainConfig
from .errors import NumericError, TrainingError, UsageError
from .evaluate import translation_eval
from .losses import afp_loss, cif_loss, embed, mcl_loss
# forward and pool are unused here; the benchmark's span tracer patches them by name.
from .model import ModelConfig, ModelParams, forward, init_params
from .optim import OptState, adamw_step, init_opt_state
from .represent import POOLING_METHODS, alignment_metric, pool, retrieval_acc_at_1, uniformity_metric
from .rng import stream
from .tensor import Graph, backward


@dataclass
class AlignReport:
    step: int
    l_align: float
    l_uniform: float
    retrieval_acc_at_1: float
    mcl_loss: float
    cif_loss: float
    afp_loss: float
    task_scores: dict | None = None

    def __post_init__(self):
        if self.l_align < 0:
            raise NumericError(f"l_align must be >= 0, got {self.l_align}")
        if self.l_uniform > 1e-12:
            raise NumericError(f"l_uniform must be <= 0, got {self.l_uniform}")

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class CorpusHandles:
    family: C.TwinLanguageFamily
    train_pairs: list
    train_cif: list
    heldout_pairs: list
    heldout_cif: list


@dataclass
class TrainResult:
    params: ModelParams
    opt_state: OptState
    reports: list


def generate_corpus(cfg: RunConfig) -> CorpusHandles:
    """Materialize all datasets for a run config from derived seed streams."""
    cc = cfg.corpus
    family = C.make_family(cc.concept_count, cc.langs_config, cfg.seed, cc.length_bounds)
    pivot = cc.pivot_lang if cc.policy == "pivot" else None
    pairs = C.make_translation_pairs(
        family, cc.policy, cc.n_pairs_per_combination, stream(cfg.seed, "pairs"), pivot_lang=pivot
    )
    n_combos = len(C.language_combinations(family, cc.policy, pivot))
    heldout_pairs = C.make_translation_pairs(
        family,
        cc.policy,
        max(1, cc.n_heldout_pairs // n_combos),
        stream(cfg.seed, "heldout-pairs"),
        pivot_lang=pivot,
    )
    cif_rng = stream(cfg.seed, "cif")
    langs = family.lang_names
    train_cif = [
        C.make_cif_sample(family, cc.task, langs[int(cif_rng.integers(len(langs)))], cfg.train.p_src, cif_rng)
        for _ in range(cc.n_cif)
    ]
    held_rng = stream(cfg.seed, "heldout-cif")
    heldout_cif = [
        C.make_cif_sample(family, cc.task, langs[int(held_rng.integers(len(langs)))], cfg.train.p_src, held_rng)
        for _ in range(cc.n_heldout_cif)
    ]
    return CorpusHandles(family, pairs, train_cif, heldout_pairs, heldout_cif)


def _epoch_batches(dataset, batch_size, seed, epoch):
    # a trailing batch of one pair is dropped: MCL needs in-batch negatives
    for batch in C.batch_iter(dataset, batch_size, seed=int(seed + epoch), pad_token=C.PAD):
        if not (isinstance(batch, C.PairBatch) and len(batch.langs) == 1):
            yield batch


def _endless(dataset, batch_size, seed):
    epoch = 0
    while True:
        yield from _epoch_batches(dataset, batch_size, seed, epoch)
        epoch += 1


def heldout_metrics(params: ModelParams, corpus: CorpusHandles, tcfg: TrainConfig, step: int) -> AlignReport:
    """Alignment diagnostics plus loss values on the held-out sets (no graph)."""
    if len(corpus.heldout_pairs) < 2 or not corpus.heldout_cif:
        raise UsageError("held-out metrics need at least 2 held-out pairs and one held-out CIF sample")
    pair_batch = C.collate_pairs(corpus.heldout_pairs)
    h = embed(params, pair_batch.src_tokens, pair_batch.src_pad, tcfg.align_layer, tcfg.pooling)
    h_plus = embed(params, pair_batch.tgt_tokens, pair_batch.tgt_pad, tcfg.align_layer, tcfg.pooling)
    pairs = list(zip(h.array, h_plus.array))
    points = np.concatenate([h.array, h_plus.array], axis=0)

    mcl = mcl_loss(h, h_plus, tcfg.tau, symmetric=tcfg.symmetric_mcl).item()
    cif = cif_loss(params, C.collate_cif(corpus.heldout_cif))[0].item()
    return AlignReport(
        step=step,
        l_align=alignment_metric(pairs),
        l_uniform=uniformity_metric(points),
        retrieval_acc_at_1=retrieval_acc_at_1(h, h_plus),
        mcl_loss=mcl,
        cif_loss=cif,
        afp_loss=mcl + tcfg.alpha * cif,
    )


def train(
    model_config: ModelConfig,
    train_config: TrainConfig,
    corpus: CorpusHandles,
    seed: int = 0,
    checkpoint_dir: str | None = None,
    log=None,
) -> TrainResult:
    """Optimize AFP for train_config.steps steps.

    Per step: one pair batch and one CIF batch, a combined forward/backward,
    and one AdamW update. Diagnostics run at step 0 and every eval_every
    steps; checkpoints are written at eval points and at the end when
    checkpoint_dir is given. A non-finite loss aborts with the last good
    (eval-point) parameters attached to the error.
    """
    if min(train_config.mcl_batch, len(corpus.train_pairs)) < 2:
        raise UsageError("MCL needs pair batches of at least 2 pairs for in-batch negatives")
    if not corpus.train_cif:
        raise UsageError("training needs at least one CIF sample")
    params = init_params(model_config, seed)
    opt = init_opt_state(params)
    mcl_stream = _endless(corpus.train_pairs, train_config.mcl_batch, seed + 101)
    cif_stream = _endless(corpus.train_cif, train_config.cif_batch, seed + 202)

    def write_checkpoint(tag):
        if checkpoint_dir is not None:
            os.makedirs(checkpoint_dir, exist_ok=True)
            save_params(os.path.join(checkpoint_dir, f"checkpoint_{tag}.afpt"), params)

    reports = [heldout_metrics(params, corpus, train_config, step=0)]
    write_checkpoint("step0")
    last_good = params.copy()
    last_good_step = 0

    for step in range(1, train_config.steps + 1):
        pair_batch = next(mcl_stream)
        cif_batch = next(cif_stream)
        try:
            with Graph() as g:
                loss, _ = afp_loss(params, pair_batch, cif_batch, train_config)
                value = loss.item()
                if not np.isfinite(value):
                    raise NumericError(f"non-finite loss {value}")
                backward(g, loss)
            grads = {name: p.grad for name, p in params.named() if p.grad is not None}
            adamw_step(
                params,
                grads,
                opt,
                lr=train_config.lr,
                betas=train_config.betas,
                weight_decay=train_config.weight_decay,
            )
            if step % train_config.eval_every == 0:
                report = heldout_metrics(params, corpus, train_config, step=step)
                if not all(np.isfinite(v) for v in (report.l_align, report.mcl_loss, report.cif_loss)):
                    raise NumericError("non-finite held-out metrics")
                reports.append(report)
                write_checkpoint(f"step{step}")
                last_good = params.copy()
                last_good_step = step
                if log is not None:
                    r = reports[-1]
                    log(
                        f"step {step}: afp={r.afp_loss:.4f} mcl={r.mcl_loss:.4f} "
                        f"cif={r.cif_loss:.4f} align={r.l_align:.4f} "
                        f"uniform={r.l_uniform:.4f} acc@1={r.retrieval_acc_at_1:.3f}"
                    )
        except (NumericError, TrainingError) as exc:
            raise TrainingError(
                f"numeric abort at step {step}: {exc}",
                last_good_params=last_good,
                last_good_step=last_good_step,
            ) from exc
    write_checkpoint("final")
    return TrainResult(params=params, opt_state=opt, reports=reports)


# kind -> (config section, field, value type, default grid); the layer grid
# depends on the model, so default_grid builds it
SWEEP_KINDS = {
    "layer": ("train", "align_layer", int, None),
    "p_src": ("train", "p_src", float, (0.0, 0.25, 0.5, 0.75, 1.0)),
    "pooling": ("train", "pooling", str, POOLING_METHODS),
    "alpha": ("train", "alpha", float, (1.0, 1.5, 2.0)),
    "policy": ("corpus", "policy", str, C.POLICIES),
}


def _sweep_kind(kind: str) -> tuple:
    try:
        return SWEEP_KINDS[kind]
    except KeyError:
        raise UsageError(f"unknown sweep kind {kind!r}") from None


def default_grid(kind: str, model_config: ModelConfig):
    grid = _sweep_kind(kind)[3]
    return tuple(range(model_config.n_layers + 1)) if grid is None else grid


def sweep_value(kind: str, value):
    """Cast one grid value to the type of the config field that `kind` sets."""
    try:
        return _sweep_kind(kind)[2](value)
    except (TypeError, ValueError):
        raise UsageError(f"bad {kind} sweep value {value!r}") from None


def _with_value(cfg: RunConfig, kind: str, value) -> RunConfig:
    section, field = _sweep_kind(kind)[:2]
    part = dataclasses.replace(getattr(cfg, section), **{field: sweep_value(kind, value)})
    return dataclasses.replace(cfg, **{section: part})


def ablation_sweep(kind: str, grid, base_config: RunConfig, log=None) -> list[dict]:
    """Run train once per grid value with a shared seed; one row per point.

    Rows carry the final AlignReport metrics, a quick translation score, and
    the data audits (language-combination count, target==source fraction).
    """
    if grid is None:
        grid = default_grid(kind, base_config.model)
    rows = []
    for value in grid:
        cfg = _with_value(base_config, kind, value)
        corpus = generate_corpus(cfg)
        result = train(cfg.model, cfg.train, corpus, seed=cfg.seed)
        final = heldout_metrics(result.params, corpus, cfg.train, step=cfg.train.steps)
        pair_audit = C.audit_pairs(corpus.train_pairs)
        cif_audit = C.audit_cif(corpus.train_cif)
        ev = cfg.eval
        trans = translation_eval(
            result.params,
            corpus.family,
            ev.eval_src_lang,
            ev.eval_tgt_lang,
            n=min(32, ev.n_examples),
            max_new_tokens=ev.max_new_tokens,
            k_shot=0,
            seed=cfg.seed,
            task=cfg.corpus.task,
        )
        row = {
            "kind": kind,
            "value": value,
            "step": final.step,
            "l_align": final.l_align,
            "l_uniform": final.l_uniform,
            "retrieval_acc_at_1": final.retrieval_acc_at_1,
            "mcl_loss": final.mcl_loss,
            "cif_loss": final.cif_loss,
            "afp_loss": final.afp_loss,
            "exact_match": trans.score,
            "bleu": trans.details["bleu"],
            "n_lang_combinations": pair_audit["n_lang_combinations"],
            "target_eq_source_frac": cif_audit["target_eq_source_frac"],
        }
        rows.append(row)
        if log is not None:
            log(f"sweep {kind}={value}: " + json.dumps(row, default=float))
    return rows


def write_reports(path, reports: list[AlignReport]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in reports:
            fh.write(json.dumps(r.to_json(), sort_keys=True) + "\n")
