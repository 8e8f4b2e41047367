"""Training loop, per-checkpoint diagnostics, and the ablation sweep harness."""

import contextlib
import dataclasses
import json
import os
from dataclasses import dataclass

import numpy as np

from . import corpus as C
from . import losses
from . import tensor as T
from .atomic import atomic_write
from .checkpoint import save_params
from .config import RunConfig, TrainConfig
from .errors import ConfigError, NumericError, TrainingError, UsageError
from .evaluate import check_max_new_tokens, translation_eval
from .losses import afp_loss, cif_loss, embed, in_process, mcl_loss
from .model import ModelConfig, ModelParams, chunk_plan, forward, init_params, read_logits_nll
from .optim import OptState, adamw_step, init_opt_state
# pool is unused here; the benchmark's span tracer patches it by name.
from .represent import POOLING_METHODS, PooledBatch, alignment_metric, pool, retrieval_acc_at_1, uniformity_metric
from .rng import stream
from .tensor import Graph, Tensor, backward
from .workers import Worker, fan_out, shared_zeros, usable_cpus


@dataclass
class AlignReport:
    step: int
    l_align: float
    l_uniform: float
    retrieval_acc_at_1: float
    mcl_loss: float
    cif_loss: float
    afp_loss: float

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


def check_fits(record, model: ModelConfig):
    """The record, once it fits the model: every token id in [0, vocab_size),
    and no pair side or CIF sample longer than max_seq_len (ConfigError)."""
    seqs = [record.input_tokens] if isinstance(record, C.CifSample) else [record.src_tokens, record.tgt_tokens]
    bad = [t for seq in seqs for t in seq if not 0 <= t < model.vocab_size]
    if bad:
        raise ConfigError(f"token id {bad[0]} outside the model's vocabulary [0, {model.vocab_size})")
    longest = max(len(seq) for seq in seqs)
    if longest > model.max_seq_len:
        raise ConfigError(f"{longest} tokens exceed the model's max_seq_len {model.max_seq_len}")
    return record


def check_corpus(corpus: CorpusHandles, cfg: RunConfig) -> None:
    """What train would reject in a generated corpus: check_fits on every
    record, then check_corpus_size."""
    for record in corpus.train_pairs + corpus.train_cif + corpus.heldout_pairs + corpus.heldout_cif:
        check_fits(record, cfg.model)
    check_corpus_size(corpus, cfg.train.mcl_batch)


def check_corpus_size(corpus: CorpusHandles, mcl_batch: int | None = None) -> None:
    """UsageError unless the held-out sets hold at least 2 pairs and one CIF
    sample (what heldout_metrics needs) and, given mcl_batch, training can
    draw pair batches of at least 2 pairs and has a CIF sample."""
    if mcl_batch is not None:
        if min(mcl_batch, len(corpus.train_pairs)) < 2:
            raise UsageError("MCL needs pair batches of at least 2 pairs for in-batch negatives")
        if not corpus.train_cif:
            raise UsageError("training needs at least one CIF sample")
    if len(corpus.heldout_pairs) < 2 or not corpus.heldout_cif:
        raise UsageError("held-out metrics need at least 2 held-out pairs and one held-out CIF sample")


def _epoch_batches(dataset, batch_size, seed, epoch):
    # a trailing batch of one pair is dropped: MCL needs in-batch negatives
    for batch in C.batch_iter(dataset, batch_size, seed=int(seed + epoch)):
        if not (isinstance(batch, C.PairBatch) and len(batch.langs) == 1):
            yield batch


def _endless(dataset, batch_size, seed):
    epoch = 0
    while True:
        yield from _epoch_batches(dataset, batch_size, seed, epoch)
        epoch += 1


def heldout_metrics(params: ModelParams, corpus: CorpusHandles, tcfg: TrainConfig, step: int) -> AlignReport:
    """Alignment diagnostics plus loss values on the held-out sets (no graph)."""
    check_corpus_size(corpus)
    pair_batch = C.collate_pairs(corpus.heldout_pairs)
    return _heldout_report(params, pair_batch, tcfg, step, lambda: cif_loss(params, C.collate_cif(corpus.heldout_cif))[0])


def _heldout_report(params, pair_batch, tcfg: TrainConfig, step: int, cif) -> AlignReport:
    """heldout_metrics on a collated pair batch; cif() gives the held-out CIF
    loss, once the pairs are embedded."""
    h = embed(params, pair_batch.src_tokens, pair_batch.src_pad, tcfg.align_layer, tcfg.pooling)
    h_plus = embed(params, pair_batch.tgt_tokens, pair_batch.tgt_pad, tcfg.align_layer, tcfg.pooling)
    pairs = list(zip(h.array, h_plus.array))
    points = np.concatenate([h.array, h_plus.array], axis=0)

    mcl = mcl_loss(h, h_plus, tcfg.tau, symmetric=tcfg.symmetric_mcl).item()
    cif = cif().item()
    return AlignReport(
        step=step,
        l_align=alignment_metric(pairs),
        l_uniform=uniformity_metric(points),
        retrieval_acc_at_1=retrieval_acc_at_1(h, h_plus),
        mcl_loss=mcl,
        cif_loss=cif,
        afp_loss=mcl + tcfg.alpha * cif,
    )


class _Helper:
    """train()'s worker (afp.workers.Worker) and what it shares with it.

    Made before the fork: the parameters, moved into shared memory, which
    AdamW updates in place; one array per parameter for the gradients the
    worker computes; and the packed logits of the held-out CIF forward
    (model.chunk_plan), with one claim flag per chunk for each side.

    It is afp_loss's runner, and the worker runs what afp_loss hands it on
    its copy of the parameters, which shares their arrays:
    - with CIF, the second shard (losses.cif_shard): it sends back the loss
      value, then, once its backward has written the gradients, which
      parameters have one;
    - at alpha 0, the target side (losses.embed_apart): it sends back the
      pooled vectors and holds its tape until the caller's backward sends
      their gradient, then runs its backward while the caller runs the
      source side's, writes the gradients and sends which it wrote. The
      target side is the only pair side the worker embeds.
    At each eval point it takes whole chunks of the held-out CIF forward
    from the last one down, while this process embeds the held-out pairs
    and then takes chunks from the first one up, until each side meets a
    chunk the other has claimed. A chunk that both claim at once is
    computed twice, harmlessly: a chunk's rows do not depend on the process
    that computes them, so both write the same bytes, and the loss keeps
    the bits of heldout_metrics.
    """

    def __init__(self, params: ModelParams, heldout_cif: C.TokenBatch):
        for _, p in params.named():
            data = shared_zeros(p.shape, p.dtype)
            data[...] = p.data
            p.data = data
        self.params, self.cif = params, heldout_cif
        self.grads = [shared_zeros(p.shape, p.dtype) for _, p in params.named()]
        self.bounds, self.at = chunk_plan(heldout_cif.tokens.shape, heldout_cif.loss_mask)
        self.logits = shared_zeros((int(self.at[-1]), params.config.vocab_size), params.dtype)
        self.claims = shared_zeros((2, len(self.bounds) - 1), np.uint8)  # [side, chunk]; side 1 is the worker's
        self.side = None  # in the worker: the target side's run between its two requests
        self.worker = Worker(self._serve)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.worker.close()

    def _serve(self, command, *args):
        """The worker's side of a request: ("shard", shard, divisor),
        ("side", tokens, pad, layer, pooling), ("side_grads", seed) or ("heldout",)."""
        if command == "heldout":
            self._take_chunks(1)
            yield None
        elif command == "side":
            self.side = losses.embed_apart(self.params, *args)
            yield next(self.side)
        elif command == "side_grads":
            run, self.side = self.side, None
            yield self._write_grads(run.send(*args))
        else:
            run = losses.cif_shard(self.params, *args)
            yield next(run)
            yield self._write_grads(next(run))

    def _write_grads(self, grads) -> list:
        for out, g in zip(self.grads, grads):
            if g is not None:
                out[...] = g
        return [g is not None for g in grads]

    def _written_grads(self) -> list:
        """The gradients the worker wrote, once it says which (None for the others)."""
        return [g if held else None for g, held in zip(self.grads, self.worker.receive())]

    def second_shard(self, params, shard, divisor):
        """afp_loss's second_shard, run by the worker."""
        self.worker.submit("shard", shard, divisor)

        def finish():
            return self.worker.receive(), self._written_grads

        return finish

    def target_side(self, params, tokens, pad, layer, pooling):
        """afp_loss's target_side, run by the worker. Its vectors enter the
        calling tape as one target_vectors node, whose backward sends their
        gradient to the worker; the worker's gradients join through a
        target_side node recorded first (T.precomputed), after the source
        side's."""
        self.worker.submit("side", tokens, pad, layer, pooling)

        def finish():
            vectors = self.worker.receive()
            leaves = tuple(t for _, t in params.named())
            join = T.precomputed("target_side", np.zeros((), vectors.dtype), leaves, self._written_grads)

            def send(g):
                self.worker.submit("side_grads", g)
                return (np.ones((), g.dtype),)

            return PooledBatch(T.apply_op("target_vectors", vectors, (join,), send), pooling, layer)

        return finish

    def start_heldout(self):
        """Start the worker on the held-out CIF forward; returns a function
        that takes this process's chunks and gives the loss."""
        self.claims[...] = 0
        self.worker.submit("heldout")
        return self._finish_heldout

    def _finish_heldout(self) -> Tensor:
        self._take_chunks(0)
        self.worker.receive()
        return read_logits_nll(Tensor(self.logits), self.cif.tokens, self.cif.loss_mask)

    def _take_chunks(self, side: int) -> None:
        order = range(len(self.bounds) - 1)
        for i in order if side == 0 else reversed(order):
            if self.claims[1 - side, i]:
                return
            self.claims[side, i] = 1
            lo, hi = self.bounds[i], self.bounds[i + 1]
            rows = forward(self.params, self.cif.tokens[lo:hi], self.cif.pad_mask[lo:hi], read=self.cif.loss_mask[lo:hi])
            self.logits[self.at[lo] : self.at[hi]] = rows.logits.data


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
    and one AdamW update. Diagnostics run at step 0, every eval_every steps
    and at the final step, so the last report describes the returned
    parameters; checkpoints are written at eval points and at the end when
    checkpoint_dir is given. A non-finite loss aborts with the last good
    (eval-point) parameters attached to the error.

    Where afp.workers.usable_cpus() allows, one worker forked per call runs
    the second CIF shard of every step (the target side, at alpha 0) and a
    share of each eval point's held-out CIF forward (_Helper); it is reaped
    before train returns or raises, and the bits are those of a run without
    it.
    """
    check_corpus_size(corpus, train_config.mcl_batch)
    params = init_params(model_config, seed)
    opt = init_opt_state(params)
    mcl_stream = _endless(corpus.train_pairs, train_config.mcl_batch, seed + 101)
    cif_stream = _endless(corpus.train_cif, train_config.cif_batch, seed + 202)
    held_pairs, held_cif = C.collate_pairs(corpus.heldout_pairs), C.collate_cif(corpus.heldout_cif)

    def write_checkpoint(tag):
        if checkpoint_dir is not None:
            os.makedirs(checkpoint_dir, exist_ok=True)
            save_params(os.path.join(checkpoint_dir, f"checkpoint_{tag}.afpt"), params)

    with _Helper(params, held_cif) if usable_cpus() > 1 else contextlib.nullcontext() as helper:
        runner = in_process if helper is None else helper

        def heldout_report(step):  # the worker, if any, starts on the CIF forward before the pairs are embedded
            cif = (lambda: cif_loss(params, held_cif)[0]) if helper is None else helper.start_heldout()
            return _heldout_report(params, held_pairs, train_config, step, cif)

        reports = [heldout_report(0)]
        write_checkpoint("step0")
        last_good = params.copy()
        last_good_step = 0

        for step in range(1, train_config.steps + 1):
            pair_batch = next(mcl_stream)
            cif_batch = next(cif_stream)
            try:
                with Graph() as g:
                    loss = afp_loss(params, pair_batch, cif_batch, train_config, runner)
                    value = loss.item()
                    if not np.isfinite(value):
                        raise NumericError(f"non-finite loss {value}")
                    backward(g, loss)
                del g, loss  # the tape, before AdamW, diagnostics and checkpoints
                grads = {name: p.grad for name, p in params.named() if p.grad is not None}
                adamw_step(
                    params,
                    grads,
                    opt,
                    lr=train_config.lr,
                    betas=train_config.betas,
                    weight_decay=train_config.weight_decay,
                )
                if step % train_config.eval_every == 0 or step == train_config.steps:
                    report = heldout_report(step)
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
    The points fan out over worker processes (`fan_out`): rows, and their
    log lines, come in grid order as soon as every earlier point is done,
    and a failing point raises what a serial run would raise.
    """
    if grid is None:
        grid = default_grid(kind, base_config.model)
    # every value, the eval length and languages and the corpus of each point are checked before any
    # training; a point's corpus is generated again when it trains, so only one is held at a time
    configs = [_with_value(base_config, kind, value) for value in grid]
    for cfg in configs:
        check_max_new_tokens(cfg.eval.max_new_tokens, cfg.corpus.length_max)
        for lang in (cfg.eval.eval_src_lang, cfg.eval.eval_tgt_lang):
            if lang not in cfg.corpus.languages:
                raise UsageError(f"unknown language {lang!r}: corpus.languages are {cfg.corpus.languages}")
    for cfg in configs:
        check_corpus(generate_corpus(cfg), cfg)

    def point(value, cfg) -> dict:
        corpus = generate_corpus(cfg)
        result = train(cfg.model, cfg.train, corpus, seed=cfg.seed)
        final = result.reports[-1]  # train always reports at its final step
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
        return {
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

    def each(row) -> None:
        if log is not None:
            log(f"sweep {kind}={row['value']}: " + json.dumps(row, default=float))

    return fan_out(lambda args: point(*args), list(zip(grid, configs)), each)


def write_reports(path, reports: list[AlignReport]) -> None:
    with atomic_write(path) as fh:
        for r in reports:
            fh.write(json.dumps(r.to_json(), sort_keys=True) + "\n")
