import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from afp import cli
from afp import corpus as C
from afp.checkpoint import load_params, save_params
from afp.config import load_config
from afp.model import forward, init_params
from afp.represent import pool

TINY = {
    "model": {"vocab_size": 33, "d_model": 16, "n_layers": 2, "n_heads": 2, "d_ff": 24, "max_seq_len": 48},
    "corpus": {
        "concept_count": 12,
        "n_pairs_per_combination": 40,
        "n_cif": 40,
        "n_heldout_pairs": 12,
        "n_heldout_cif": 12,
        "length_min": 3,
        "length_max": 5,
    },
    "train": {"steps": 2, "eval_every": 1, "mcl_batch": 8, "cif_batch": 8},
    "eval": {"n_examples": 6, "max_new_tokens": 6},
    "seed": 5,
}


@pytest.fixture()
def ws(tmp_path):
    cfg = tmp_path / "config.json"
    doc = json.loads(json.dumps(TINY))
    doc["paths"] = {"corpus_dir": str(tmp_path / "corpus"), "run_dir": str(tmp_path / "run")}
    cfg.write_text(json.dumps(doc))
    return tmp_path, str(cfg)


def run_cli(argv):
    return cli.main(argv)


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGenCorpus:
    def test_counts_and_files(self, ws, capsys):
        tmp, cfg = ws
        assert run_cli(["gen-corpus", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "pairs.jsonl: 40 records" in out
        corpus_dir = tmp / "corpus"
        assert len((corpus_dir / "pairs.jsonl").read_text().strip().split("\n")) == 40
        for name in cli.CORPUS_FILES:
            assert (corpus_dir / name).exists()

    def test_byte_identical_reruns(self, ws):
        tmp, cfg = ws
        run_cli(["gen-corpus", "--config", cfg])
        first = {n: digest(tmp / "corpus" / n) for n in cli.CORPUS_FILES}
        run_cli(["gen-corpus", "--config", cfg])
        second = {n: digest(tmp / "corpus" / n) for n in cli.CORPUS_FILES}
        assert first == second

    def test_generated_pairs_pass_round_trip_validator(self, ws):
        tmp, cfg = ws
        run_cli(["gen-corpus", "--config", cfg])
        with open(tmp / "corpus" / "family.json") as fh:
            family = C.TwinLanguageFamily.from_json(json.load(fh))
        pairs = C.load_jsonl(tmp / "corpus" / "pairs.jsonl", C.TranslationPair.from_json)
        for p in pairs:
            assert C.translate(family, p.src_tokens, p.src_lang, p.tgt_lang) == p.tgt_tokens
            assert C.translate(family, p.tgt_tokens, p.tgt_lang, p.src_lang) == p.src_tokens

    def test_io_failure_exit_3(self, ws):
        tmp, cfg = ws
        blocker = tmp / "blocked"
        blocker.write_text("a file, not a directory")
        assert run_cli(["gen-corpus", "--config", cfg, "--out", str(blocker)]) == 3


class TestTrain:
    def test_missing_corpus_exit_2(self, ws):
        _, cfg = ws
        assert run_cli(["train", "--config", cfg]) == 2

    def test_zero_steps_checkpoint_equals_init(self, ws):
        tmp, cfg = ws
        run_cli(["gen-corpus", "--config", cfg])
        assert run_cli(["train", "--config", cfg, "--set", "train.steps=0"]) == 0
        loaded = load_params(tmp / "run" / "checkpoint.afpt", load_config(cfg).model)
        fresh = init_params(load_config(cfg).model, seed=5)
        for (_, a), (_, b) in zip(loaded.named(), fresh.named()):
            assert np.array_equal(a.data, b.data)

    def test_rerun_identical_digest_and_reports(self, ws):
        tmp, cfg = ws
        run_cli(["gen-corpus", "--config", cfg])
        run_cli(["train", "--config", cfg])
        d1 = digest(tmp / "run" / "checkpoint.afpt")
        r1 = (tmp / "run" / "reports.jsonl").read_bytes()
        run_cli(["train", "--config", cfg])
        assert digest(tmp / "run" / "checkpoint.afpt") == d1
        assert (tmp / "run" / "reports.jsonl").read_bytes() == r1

    def test_report_count(self, ws):
        tmp, cfg = ws
        run_cli(["gen-corpus", "--config", cfg])
        run_cli(["train", "--config", cfg, "--set", "train.steps=4", "--set", "train.eval_every=2"])
        lines = (tmp / "run" / "reports.jsonl").read_text().strip().split("\n")
        assert len(lines) == 4 // 2 + 1

    @pytest.mark.parametrize("override", ["corpus.n_cif=0", "corpus.n_heldout_cif=0", "corpus.n_heldout_pairs=1"])
    def test_too_small_corpus_exit_2(self, ws, override):
        _, cfg = ws
        assert run_cli(["gen-corpus", "--config", cfg, "--set", override]) == 0
        assert run_cli(["train", "--config", cfg, "--set", override, "--set", "train.steps=0"]) == 2

    def test_nan_abort_exit_4_retains_last_good(self, ws):
        tmp, cfg = ws
        run_cli(["gen-corpus", "--config", cfg])
        with np.errstate(all="ignore"):
            code = run_cli(
                ["train", "--config", cfg, "--set", "train.lr=1e18", "--set", "train.steps=40"]
            )
        assert code == 4
        assert (tmp / "run" / "checkpoint_lastgood.afpt").exists()


@pytest.fixture()
def trained(ws):
    tmp, cfg = ws
    run_cli(["gen-corpus", "--config", cfg])
    run_cli(["train", "--config", cfg])
    return tmp, cfg, tmp / "run" / "checkpoint.afpt"


class TestEval:
    def test_unknown_task_exit_2(self, trained, capsys):
        _, cfg, ckpt = trained
        assert run_cli(["eval", "--checkpoint", str(ckpt), "--config", cfg, "--task", "nope"]) == 2
        assert "choose from" in capsys.readouterr().err

    def test_metrics_keys(self, trained, capsys):
        _, cfg, ckpt = trained
        assert run_cli(["metrics", "--checkpoint", str(ckpt), "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "l_align" in payload and "l_uniform" in payload

    def test_retrieval_identity_rigged_checkpoint(self, trained, capsys):
        tmp, cfg, _ = trained
        run_config = load_config(cfg)
        params = init_params(run_config.model, seed=0)
        with open(tmp / "corpus" / "family.json") as fh:
            family = C.TwinLanguageFamily.from_json(json.load(fh))
        # identity rig: every concept token embeds as a one-hot of its
        # concept, so layer-0 mean pooling is language-independent
        params["tok_emb"].data[:] = 0.0
        params["pos_emb"].data[:] = 0.0
        for lang in family.languages:
            for concept in range(family.concept_count):
                params["tok_emb"].data[lang.token_of(concept), concept] = 1.0
        rigged = tmp / "rigged.afpt"
        save_params(rigged, params)
        code = run_cli(
            ["eval", "--checkpoint", str(rigged), "--config", cfg, "--task", "retrieval",
             "--set", "train.align_layer=0"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["score"] == 1.0

    def test_translation_and_classification_write_results(self, trained, tmp_path):
        _, cfg, ckpt = trained
        for task in ("translation", "classification"):
            out = tmp_path / f"{task}.json"
            assert run_cli(
                ["eval", "--checkpoint", str(ckpt), "--config", cfg, "--task", task, "--out", str(out)]
            ) == 0
            payload = json.loads(out.read_text())
            assert 0.0 <= payload["score"] <= 1.0

    def test_corrupt_checkpoint_exit_5(self, trained):
        tmp, cfg, ckpt = trained
        bad = tmp / "bad.afpt"
        bad.write_bytes(ckpt.read_bytes()[: ckpt.stat().st_size // 3])
        assert run_cli(["eval", "--checkpoint", str(bad), "--config", cfg, "--task", "metrics"]) == 5
        notafpt = tmp / "not.afpt"
        notafpt.write_bytes(b"JUNKJUNKJUNK")
        assert run_cli(["metrics", "--checkpoint", str(notafpt), "--config", cfg]) == 5

    def test_wrong_shape_checkpoint_exit_5(self, trained, capsys):
        _, cfg, ckpt = trained
        # same layer count, so the names match; a wider MLP changes the shapes
        assert run_cli(["metrics", "--checkpoint", str(ckpt), "--config", cfg, "--set", "model.d_ff=32"]) == 5
        assert "corrupt artifact" in capsys.readouterr().err


class TestExportEmbeddings:
    def test_records_and_centering_and_consistency(self, trained, capsys):
        tmp, cfg, ckpt = trained
        out = tmp / "emb.jsonl"
        code = run_cli(
            ["export-embeddings", "--checkpoint", str(ckpt), "--config", cfg,
             "--corpus", str(tmp / "corpus" / "heldout.jsonl"), "--out", str(out)]
        )
        assert code == 0
        records = [json.loads(line) for line in out.read_text().strip().split("\n")]
        assert len(records) == 2 * 12  # both sides of every held-out pair
        coords = np.array([r["pca"] for r in records])
        assert np.abs(coords.mean(axis=0)).max() <= 1e-9
        assert {r["lang"] for r in records} == {"L0", "L1"}

        # vectors must match an in-process pool() call bit-exactly
        run_config = load_config(cfg)
        params = load_params(ckpt, run_config.model)
        pairs = C.load_jsonl(tmp / "corpus" / "heldout.jsonl", C.TranslationPair.from_json)
        sents = [p.src_tokens for p in pairs] + [p.tgt_tokens for p in pairs]
        tokens, pad = C._pad_matrix(sents, C.PAD)
        hidden = forward(params, tokens, pad).hidden_states[run_config.train.align_layer]
        vectors = pool(hidden, pad, run_config.train.pooling).array
        got = np.array([r["vector"] for r in records], dtype=np.float64)
        reordered = np.concatenate([vectors[: len(pairs)], vectors[len(pairs) :]])
        assert np.array_equal(got, reordered.astype(np.float64))

    def test_layer_out_of_range_exit_2(self, trained):
        tmp, cfg, ckpt = trained
        assert run_cli(
            ["export-embeddings", "--checkpoint", str(ckpt), "--config", cfg,
             "--corpus", str(tmp / "corpus" / "heldout.jsonl"), "--layer", "9", "--out", str(tmp / "x.jsonl")]
        ) == 2

    def test_one_dimensional_model_exit_2(self, trained, capsys):
        tmp, cfg, _ = trained
        ckpt = tmp / "narrow.afpt"
        save_params(ckpt, init_params(load_config(cfg, overrides=["model.d_model=1", "model.n_heads=1"]).model, 0))
        assert run_cli(
            ["export-embeddings", "--checkpoint", str(ckpt), "--config", cfg,
             "--set", "model.d_model=1", "--set", "model.n_heads=1",
             "--corpus", str(tmp / "corpus" / "heldout.jsonl"), "--out", str(tmp / "x.jsonl")]
        ) == 2
        assert "pca2" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_passes_and_reports_per_loss(self, capsys):
        assert run_cli(["gradcheck", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        for name in ("mcl_loss", "cif_loss", "afp_loss"):
            assert name in out
        assert "worst rel err" in out

    def test_corrupted_backward_rule_fails(self, monkeypatch, capsys):
        import afp.tensor
        from afp.tensor import apply_op

        true_gelu = afp.tensor.gelu

        def broken_gelu(x):
            out = true_gelu(x)
            # re-wrap with a wrong backward rule
            return apply_op("gelu_broken", out.data.copy(), (x,), lambda g: (g * 0.5,))

        monkeypatch.setattr(afp.tensor, "gelu", broken_gelu)
        assert run_cli(["gradcheck", "--seeds", "1"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestSweepCommand:
    def test_layer_sweep_csv(self, ws):
        tmp, cfg = ws
        out = tmp / "layer.csv"
        code = run_cli(
            ["sweep", "--kind", "layer", "--config", cfg, "--out", str(out),
             "--grid", "0,1", "--set", "train.steps=2", "--set", "eval.n_examples=4"]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3  # header + 2 rows
        assert lines[0].startswith("kind,value")

    @pytest.mark.parametrize("kind, grid", [("alpha", "x"), ("layer", "1.5")])
    def test_bad_grid_exit_2(self, ws, kind, grid):
        tmp, cfg = ws
        assert run_cli(["sweep", "--kind", kind, "--config", cfg, "--out", str(tmp / "s.csv"), "--grid", grid]) == 2

    def test_sweep_rows_deterministic(self, ws):
        tmp, cfg = ws
        a, b = tmp / "a.csv", tmp / "b.csv"
        for out in (a, b):
            run_cli(
                ["sweep", "--kind", "alpha", "--config", cfg, "--out", str(out),
                 "--grid", "1.5", "--set", "train.steps=2", "--set", "eval.n_examples=4"]
            )
        assert a.read_bytes() == b.read_bytes()


class TestSeedPrecedence:
    def test_env_seed_used_when_config_omits(self, ws, monkeypatch):
        tmp, cfg = ws
        doc = json.loads((tmp / "config.json").read_text())
        del doc["seed"]
        (tmp / "config.json").write_text(json.dumps(doc))
        monkeypatch.setenv("AFP_SEED", "91")
        run_cli(["gen-corpus", "--config", cfg])
        first = digest(tmp / "corpus" / "pairs.jsonl")
        monkeypatch.setenv("AFP_SEED", "92")
        run_cli(["gen-corpus", "--config", cfg])
        assert digest(tmp / "corpus" / "pairs.jsonl") != first

    def test_flag_beats_env(self, ws, monkeypatch):
        tmp, cfg = ws
        monkeypatch.setenv("AFP_SEED", "91")
        run_cli(["gen-corpus", "--config", cfg, "--set", "seed=5"])
        first = digest(tmp / "corpus" / "pairs.jsonl")
        monkeypatch.delenv("AFP_SEED")
        run_cli(["gen-corpus", "--config", cfg, "--set", "seed=5"])
        assert digest(tmp / "corpus" / "pairs.jsonl") == first


class TestUsage:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main([])
        assert err.value.code == 2

    def test_subprocess_entry(self, ws):
        tmp, cfg = ws
        proc = subprocess.run(
            [sys.executable, "-m", "afp", "gen-corpus", "--config", cfg],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "pairs.jsonl" in proc.stdout
