import dataclasses
import json

import numpy as np
import pytest

from afp import corpus as C
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


def params_equal(a, b):
    return all(np.array_equal(ta.data, tb.data) for (_, ta), (_, tb) in zip(a.named(), b.named()))


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

    def test_align_layer_beyond_model_rejected(self, tiny_corpus):
        cfg = tiny_run_config(align_layer=5)
        with pytest.raises(UsageError):
            train(cfg.model, cfg.train, tiny_corpus, seed=0)

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
        plain = list(C.batch_iter(pairs, 4, seed=3, pad_token=C.PAD))
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
