import dataclasses
import json
import math
import os
import tracemalloc
import weakref

import numpy as np
import pytest

from afp import corpus as C
from afp import losses
from afp import model as M
from afp import tensor as T
from afp import training
from afp.config import CorpusConfig, EvalConfig, RunConfig, TrainConfig
from afp.errors import TrainingError, UsageError
from afp.losses import cif_loss
from afp.model import ModelConfig, init_params
from afp.optim import adamw_step, init_opt_state
from afp.tensor import Graph, backward
from afp.training import (
    AlignReport,
    _epoch_batches,
    ablation_sweep,
    generate_corpus,
    heldout_metrics,
    train,
    write_reports,
)
from afp.workers import shared_zeros

TINY_MODEL = ModelConfig(vocab_size=33, d_model=16, n_layers=2, n_heads=2, d_ff=24, max_seq_len=32)


def tiny_run_config(**train_kw) -> RunConfig:
    train_kw.setdefault("lr", 1e-3)
    train_cfg = TrainConfig(
        steps=train_kw.pop("steps", 20),
        eval_every=train_kw.pop("eval_every", 10),
        mcl_batch=8,
        cif_batch=8,
        **train_kw,
    )
    corpus_cfg = CorpusConfig(
        concept_count=12,
        n_pairs_per_combination=48,
        n_cif=48,
        n_heldout_pairs=16,
        n_heldout_cif=16,
        length_min=3,
        length_max=5,
    )
    return RunConfig(
        model=TINY_MODEL,
        train=train_cfg,
        corpus=corpus_cfg,
        eval=EvalConfig(n_examples=8, max_new_tokens=6),
        seed=13,
    )


@pytest.fixture(scope="module")
def tiny_corpus():
    return generate_corpus(tiny_run_config())


def poison_third_call(monkeypatch, side):
    """Make afp_loss's third target-side embedding ("target") or the loss of
    the third step's second CIF shard ("cif") non-finite. Returns a sized
    record of the calls of that side, counted in shared memory, so that
    those run in train's forked worker count too: the worker's only pair
    side is the target side, and in this process a target side is the
    embed of the target tokens of the batch afp_loss was given."""
    calls = SharedCount()
    if side == "target":
        caller, batch = os.getpid(), {}
        real, real_loss = losses.embed, training.afp_loss

        def spied_loss(params, mcl_batch, *args):
            batch["target"] = mcl_batch.tgt_tokens
            return real_loss(params, mcl_batch, *args)

        def poisoned(params, tokens, *args):
            out = real(params, tokens, *args)
            if os.getpid() == caller and tokens is not batch.get("target"):
                return out
            calls.add()
            return dataclasses.replace(out, vectors=T.scale(out.vectors, math.inf)) if len(calls) == 3 else out

        monkeypatch.setattr(training, "afp_loss", spied_loss)
        monkeypatch.setattr(losses, "embed", poisoned)
    else:
        real = losses.cif_shard

        def poisoned(params, shard, divisor):
            calls.add()
            run = real(params, shard, divisor)
            value = next(run)
            yield T.scale(T.Tensor(value), math.inf).data if len(calls) == 3 else value
            yield from run

        monkeypatch.setattr(losses, "cif_shard", poisoned)
    return calls


class SharedCount:
    """A count that forked processes add to; len() reads it."""

    def __init__(self):
        self.count = shared_zeros((1,), np.int64)

    def add(self) -> None:
        self.count[0] += 1

    def __len__(self) -> int:
        return int(self.count[0])


def params_equal(a, b):
    return all(np.array_equal(ta.data, tb.data) for (_, ta), (_, tb) in zip(a.named(), b.named()))


def spy_rows(monkeypatch) -> dict:
    """Records the rows of each call of T.gelu, T.layer_norm and T.matmul: op -> list of row counts.
    A product's gradient products run over the rows of its first input."""
    calls = {"gelu": [], "layer_norm": [], "matmul": []}
    for op in calls:
        real = getattr(T, op)

        def spy(x, *args, _op=op, _real=real):
            calls[_op].append(x.shape[0])
            return _real(x, *args)

        monkeypatch.setattr(T, op, spy)
    return calls


def row_totals(calls: dict) -> dict:
    return {op: sum(rows) for op, rows in calls.items()}


def live_and_read(read, valid) -> tuple[int, int]:
    """(live, read) position counts: live ones are valid and at or before their row's last read one."""
    s = read.shape[1]
    last = np.where(read.any(axis=1), s - 1 - read[:, ::-1].argmax(axis=1), -1)
    return int((valid & (np.arange(s) <= last[:, None])).sum()), int(read.sum())


def pruned_rows(cfg, pairs, cif) -> dict:
    """GELU, layer-norm and product rows of both pair sides (mean pooling), the
    MCL similarities and the CIF batch."""
    assert cfg.train.pooling == "mean"  # it reads the valid positions
    # (read, valid, blocks run, final norms): both pair sides, then the CIF batch
    forwards = [(pad, pad, cfg.train.align_layer, 0) for pad in (pairs.src_pad, pairs.tgt_pad)]
    forwards.append((cif.loss_mask, cif.pad_mask, cfg.model.n_layers, 1))
    # one [n, n] similarity product per MCL direction
    want = {"gelu": 0, "layer_norm": 0, "matmul": len(pairs.src_tokens) * (1 + cfg.train.symmetric_mcl)}
    for read, valid, blocks, final_norms in forwards:
        live, n_read = live_and_read(read, valid)
        want["gelu"] += (blocks - 1) * live + n_read
        want["layer_norm"] += (blocks - 1) * 2 * live + live + n_read + final_norms * n_read
        # q, k and v of every block over the live rows, then wo, w1 and w2 (and the head) over the held ones
        want["matmul"] += (blocks - 1) * 6 * live + 3 * live + 3 * n_read + final_norms * n_read
    return want


class TestTrain:
    def test_zero_steps_returns_init(self, tiny_corpus):
        cfg = tiny_run_config(steps=0)
        result = train(cfg.model, cfg.train, tiny_corpus, seed=cfg.seed)
        assert params_equal(result.params, init_params(cfg.model, seed=cfg.seed))
        assert len(result.reports) == 1
        init_report = heldout_metrics(init_params(cfg.model, seed=cfg.seed), tiny_corpus, cfg.train, step=0)
        assert result.reports[0] == init_report

    def test_bit_identical_reruns(self, tiny_corpus):
        cfg = tiny_run_config(steps=12, eval_every=6)
        a = train(cfg.model, cfg.train, tiny_corpus, seed=cfg.seed)
        b = train(cfg.model, cfg.train, tiny_corpus, seed=cfg.seed)
        assert params_equal(a.params, b.params)
        assert [r.to_json() for r in a.reports] == [r.to_json() for r in b.reports]

    def test_report_count_and_steps(self, tiny_corpus):
        cfg = tiny_run_config(steps=30, eval_every=10)
        result = train(cfg.model, cfg.train, tiny_corpus, seed=cfg.seed)
        assert len(result.reports) == 30 // 10 + 1
        assert [r.step for r in result.reports] == [0, 10, 20, 30]

    def test_training_changes_params(self, tiny_corpus):
        cfg = tiny_run_config(steps=5, eval_every=5)
        result = train(cfg.model, cfg.train, tiny_corpus, seed=cfg.seed)
        assert not params_equal(result.params, init_params(cfg.model, seed=cfg.seed))

    def test_checkpoints_written_at_eval_points(self, tiny_corpus, tmp_path):
        cfg = tiny_run_config(steps=10, eval_every=5)
        train(cfg.model, cfg.train, tiny_corpus, seed=cfg.seed, checkpoint_dir=str(tmp_path))
        names = {p.name for p in tmp_path.iterdir()}
        assert {"checkpoint_step0.afpt", "checkpoint_step5.afpt", "checkpoint_step10.afpt", "checkpoint_final.afpt"} <= names

    def test_nan_abort_retains_last_good(self, tiny_corpus):
        cfg = tiny_run_config(steps=40, eval_every=5, lr=1e18)
        with np.errstate(all="ignore"), pytest.raises(TrainingError) as err:
            train(cfg.model, cfg.train, tiny_corpus, seed=cfg.seed)
        assert err.value.last_good_params is not None
        assert err.value.last_good_step >= 0

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("side, alpha", [("target", 1.5), ("target", 0.0), ("cif", 1.5)], ids=["target", "target_alpha0", "cif"])
    def test_checked_abort_on_either_side_retains_last_good(self, tiny_corpus, monkeypatch, side, alpha, cpus):
        # the third step's target-side embedding or second CIF shard turns inf,
        # in process (1 CPU) or, the second shard and at alpha 0 the target
        # side, in train's worker (2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        poisoned = poison_third_call(monkeypatch, side)
        cfg = tiny_run_config(steps=4, eval_every=2, alpha=alpha)
        T.set_checked(True)
        try:
            with pytest.raises(TrainingError, match="scale: non-finite") as err:
                train(cfg.model, cfg.train, tiny_corpus, seed=cfg.seed)
        finally:
            T.set_checked(False)
        assert len(poisoned) == 3
        assert err.value.last_good_step == 2
        monkeypatch.undo()
        two_steps = tiny_run_config(steps=2, eval_every=2, alpha=alpha)
        clean = train(two_steps.model, two_steps.train, tiny_corpus, seed=cfg.seed)
        assert params_equal(err.value.last_good_params, clean.params)
        assert not T.recording()  # the aborted step's Graph was closed

    def test_align_layer_beyond_model_rejected(self, tiny_corpus):
        cfg = tiny_run_config()  # a RunConfig rejects the layer itself (test_config)
        with pytest.raises(UsageError):
            train(cfg.model, dataclasses.replace(cfg.train, align_layer=5), tiny_corpus, seed=0)

    def test_trailing_single_pair_batch_is_dropped(self, tiny_corpus):
        # 9 pairs in batches of 4 leave one pair over at the end of each epoch
        corpus = dataclasses.replace(tiny_corpus, train_pairs=tiny_corpus.train_pairs[:9])
        cfg = tiny_run_config(steps=6, eval_every=3)
        tcfg = dataclasses.replace(cfg.train, mcl_batch=4)
        result = train(cfg.model, tcfg, corpus, seed=cfg.seed)
        assert [r.step for r in result.reports] == [0, 3, 6]
        sizes = [len(b.langs) for b in _epoch_batches(corpus.train_pairs, 4, seed=1, epoch=0)]
        assert sizes == [4, 4]

    def test_batch_stream_unchanged_when_batch_size_divides(self, tiny_corpus):
        pairs = tiny_corpus.train_pairs[:8]
        ours = list(_epoch_batches(pairs, 4, seed=1, epoch=2))
        plain = list(C.batch_iter(pairs, 4, seed=3))
        assert len(ours) == len(plain) == 2
        for a, b in zip(ours, plain):
            assert np.array_equal(a.src_tokens, b.src_tokens) and np.array_equal(a.tgt_tokens, b.tgt_tokens)

    @pytest.mark.parametrize("n_pairs, mcl_batch", [(9, 1), (1, 8)])
    def test_pair_batches_below_two_rejected(self, tiny_corpus, n_pairs, mcl_batch):
        corpus = dataclasses.replace(tiny_corpus, train_pairs=tiny_corpus.train_pairs[:n_pairs])
        cfg = tiny_run_config(steps=2)
        tcfg = dataclasses.replace(cfg.train, mcl_batch=mcl_batch)
        with pytest.raises(UsageError, match="at least 2 pairs"):
            train(cfg.model, tcfg, corpus, seed=cfg.seed)

    def test_empty_cif_set_rejected_up_front(self, tiny_corpus):
        # steps=0: the check must come before the first step draws a CIF batch
        corpus = dataclasses.replace(tiny_corpus, train_cif=[])
        cfg = tiny_run_config(steps=0)
        with pytest.raises(UsageError, match="CIF sample"):
            train(cfg.model, cfg.train, corpus, seed=cfg.seed)

    @pytest.mark.parametrize("field, keep", [("heldout_pairs", 1), ("heldout_cif", 0)])
    def test_heldout_metrics_reject_too_small_sets(self, tiny_corpus, field, keep):
        corpus = dataclasses.replace(tiny_corpus, **{field: getattr(tiny_corpus, field)[:keep]})
        cfg = tiny_run_config()
        params = init_params(cfg.model, 0)
        with pytest.raises(UsageError, match="held-out"):
            heldout_metrics(params, corpus, cfg.train, step=0)

    def test_heldout_metrics_chunked_equal_unchunked(self, tiny_corpus, monkeypatch):
        cfg = tiny_run_config()
        params = init_params(cfg.model, seed=cfg.seed)
        calls = []
        real = M._forward
        monkeypatch.setattr(M, "_forward", lambda params, tokens, *a: calls.append(len(tokens)) or real(params, tokens, *a))
        reports = {}
        for chunk in (40, 10**9):  # a few rows per chunk, then one piece
            monkeypatch.setattr(M, "CHUNK_POSITIONS", chunk)
            calls.clear()
            reports[chunk] = heldout_metrics(params, tiny_corpus, cfg.train, step=0).to_json()
            assert (len(calls) > 3) == (chunk == 40)
        assert reports[40] == reports[10**9]

    def test_desk_heldout_metrics_traced_peak(self):
        cfg = RunConfig()
        corpus = generate_corpus(cfg)
        params = init_params(cfg.model, seed=cfg.seed)
        tracemalloc.start()
        try:
            heldout_metrics(params, corpus, cfg.train, step=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 20.7 MB when every layer and the [b, s, vocab] logits were kept
        assert peak <= 10e6

    def test_desk_heldout_metrics_compute_only_live_and_read_rows(self, monkeypatch):
        """Rows through GELU and layer norm in a desk held-out call, against the
        counts the masks give; a change that brings back padded rows fails here."""
        cfg = RunConfig()
        corpus = generate_corpus(cfg)
        params = init_params(cfg.model, seed=cfg.seed)
        rows = spy_rows(monkeypatch)
        heldout_metrics(params, corpus, cfg.train, step=0)
        pairs, cif = C.collate_pairs(corpus.heldout_pairs), C.collate_cif(corpus.heldout_cif)
        assert row_totals(rows) == pruned_rows(cfg, pairs, cif)
        live, n_read = live_and_read(cif.loss_mask, cif.pad_mask)
        assert n_read < live < cif.pad_mask.sum() < cif.pad_mask.size

    def test_desk_training_step_computes_only_live_and_read_rows(self, monkeypatch):
        """The same counts for a recorded desk step, forward and backward: its
        forwards hold only the rows its losses read, as graph-free ones do, and
        every product, with its gradient products, runs over those rows."""
        cfg = RunConfig()
        corpus = generate_corpus(cfg)
        params = init_params(cfg.model, seed=cfg.seed)
        pairs = C.collate_pairs(corpus.train_pairs[: cfg.train.mcl_batch])
        cif = C.collate_cif(corpus.train_cif[: cfg.train.cif_batch])
        rows = spy_rows(monkeypatch)
        products, batch = [], [None]  # (rows, positions of the forward's batch) of each forward product
        real_forward, spied_matmul = M._forward, T.matmul

        def tagged_forward(params, tokens, *args):
            batch[0] = tokens.size
            try:
                return real_forward(params, tokens, *args)
            finally:
                batch[0] = None

        monkeypatch.setattr(M, "_forward", tagged_forward)
        monkeypatch.setattr(T, "matmul", lambda x, *args: products.append((x.shape[0], batch[0])) or spied_matmul(x, *args))
        with Graph() as g:
            loss = losses.afp_loss(params, pairs, cif, cfg.train)
        backward(g, loss)
        assert row_totals(rows) == pruned_rows(cfg, pairs, cif)
        assert not pairs.src_pad.all() and not cif.pad_mask.all()
        # no product over every position of its batch: a pair side, or one of the two CIF shards
        assert {size for _, size in products} == {pairs.src_pad.size, pairs.tgt_pad.size, cif.pad_mask.size // 2, None}
        assert all(n != size for n, size in products)

    def test_no_tape_tensor_alive_when_adamw_runs(self, tiny_corpus, monkeypatch):
        tapes, alive = [], []
        real_backward, real_adamw = training.backward, training.adamw_step

        def spy_backward(g, root):
            tapes.append([weakref.ref(n.out) for n in g.nodes])
            real_backward(g, root)

        def spy_adamw(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in tapes[-1]))
            return real_adamw(*args, **kwargs)

        monkeypatch.setattr(training, "backward", spy_backward)
        monkeypatch.setattr(training, "adamw_step", spy_adamw)
        cfg = tiny_run_config(steps=3, eval_every=2)
        train(cfg.model, cfg.train, tiny_corpus, seed=cfg.seed)
        assert len(tapes) == 3 and all(tapes)
        assert alive == [0, 0, 0]

    def test_mcl_only_mode_runs(self, tiny_corpus):
        cfg = tiny_run_config(steps=4, eval_every=2, alpha=0.0)
        result = train(cfg.model, cfg.train, tiny_corpus, seed=cfg.seed)
        assert len(result.reports) == 3


class TestOverfitSanity:
    def test_cif_loss_collapses_on_fixed_batch(self, tiny_corpus):
        batch = C.collate_cif(tiny_corpus.train_cif[:4])
        params = init_params(TINY_MODEL, seed=3)
        opt = init_opt_state(params)
        initial = cif_loss(params, batch)[0].item()
        for _ in range(200):
            with Graph() as g:
                loss, _ = cif_loss(params, batch)
                backward(g, loss)
            grads = {n: p.grad for n, p in params.named() if p.grad is not None}
            adamw_step(params, grads, opt, lr=3e-3)
        final = cif_loss(params, batch)[0].item()
        assert final < 0.1 * initial, f"{final} vs initial {initial}"


class TestAlignReport:
    def test_invariants_enforced(self):
        with pytest.raises(Exception):
            AlignReport(step=0, l_align=-0.1, l_uniform=-1, retrieval_acc_at_1=0, mcl_loss=0, cif_loss=0, afp_loss=0)
        with pytest.raises(Exception):
            AlignReport(step=0, l_align=0.1, l_uniform=0.5, retrieval_acc_at_1=0, mcl_loss=0, cif_loss=0, afp_loss=0)

    def test_jsonl_writing(self, tmp_path, tiny_corpus):
        cfg = tiny_run_config(steps=4, eval_every=2)
        result = train(cfg.model, cfg.train, tiny_corpus, seed=cfg.seed)
        path = tmp_path / "reports.jsonl"
        write_reports(path, result.reports)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == len(result.reports)
        rec = json.loads(lines[0])
        for key in ("step", "l_align", "l_uniform", "retrieval_acc_at_1", "mcl_loss", "cif_loss", "afp_loss"):
            assert key in rec


def sweep_base(**kw) -> RunConfig:
    cfg = tiny_run_config(steps=3, eval_every=3)
    return dataclasses.replace(cfg, **kw)


class TestAblationSweep:
    def test_layer_sweep_structure(self):
        rows = ablation_sweep("layer", (0, 1, 2), sweep_base())
        assert [r["value"] for r in rows] == [0, 1, 2]
        assert all(r["kind"] == "layer" for r in rows)

    def test_p_src_degenerate_point_audit(self):
        rows = ablation_sweep("p_src", (1.0,), sweep_base())
        assert rows[0]["target_eq_source_frac"] == 1.0

    def test_policy_sweep_combination_audit_three_languages(self):
        base = sweep_base()
        corpus_cfg = dataclasses.replace(
            base.corpus,
            languages=["L0", "L1", "L2"],
            transforms=["identity", "identity", "identity"],
            n_pairs_per_combination=12,
        )
        model_cfg = ModelConfig(vocab_size=46, d_model=16, n_layers=2, n_heads=2, d_ff=24, max_seq_len=32)
        base = dataclasses.replace(base, corpus=corpus_cfg, model=model_cfg)
        rows = ablation_sweep("policy", ("pivot", "pairwise"), base)
        assert rows[0]["n_lang_combinations"] == 2
        assert rows[1]["n_lang_combinations"] == 3

    def test_rows_deterministic(self):
        a = ablation_sweep("alpha", (1.0,), sweep_base())
        b = ablation_sweep("alpha", (1.0,), sweep_base())
        assert a == b

    def test_unknown_kind_rejected(self):
        with pytest.raises(UsageError):
            ablation_sweep("dropout", (0.1,), sweep_base())

    def test_bad_grid_value_rejected(self):
        with pytest.raises(UsageError, match="alpha"):
            ablation_sweep("alpha", ("x",), sweep_base())
