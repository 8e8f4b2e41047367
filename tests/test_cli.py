import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from afp import cli
from afp import corpus as C
from afp import tensor as T
from afp import training
from afp.checkpoint import load_params, save_params
from afp.config import load_config
from afp.model import forward, init_params
from afp.represent import pool

from test_checkpoint import oversized_record
from test_training import poison_third_call

ROOT = pathlib.Path(__file__).resolve().parents[1]

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

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (["model.max_seq_len=12"], "exceed the model's max_seq_len 12"),
            (["corpus.length_max=40"], "exceed the model's max_seq_len 48"),
            (
                ['corpus.languages=["L0","L1","L2"]', 'corpus.transforms=["identity","identity","identity"]',
                 "model.vocab_size=45"],
                "outside the model's vocabulary [0, 45)",
            ),
        ],
        ids=["short-model", "long-sentences", "three-languages"],
    )
    def test_corpus_the_model_cannot_fit_exit_2_writes_nothing(self, ws, capsys, overrides, message):
        """A corpus that train would reject is never written."""
        tmp, cfg = ws
        sets = [arg for item in overrides for arg in ("--set", item)]
        assert run_cli(["gen-corpus", "--config", cfg, *sets]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp / "corpus").exists()


    @pytest.mark.parametrize(
        "override, message",
        [
            ("corpus.n_heldout_pairs=1", "at least 2 held-out pairs"),
            ("corpus.n_heldout_pairs=0", "at least 2 held-out pairs"),
            ("corpus.n_heldout_cif=0", "one held-out CIF sample"),
            ("corpus.n_cif=0", "at least one CIF sample"),
            ("corpus.n_pairs_per_combination=1", "at least 2 pairs for in-batch negatives"),
        ],
        ids=["one-heldout-pair", "no-heldout-pairs", "no-heldout-cif", "no-cif", "one-pair"],
    )
    def test_corpus_too_small_to_train_exit_2_writes_nothing(self, ws, capsys, override, message):
        """A corpus too small for train or its held-out metrics is never written."""
        tmp, cfg = ws
        assert run_cli(["gen-corpus", "--config", cfg, "--set", override]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp / "corpus").exists()


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

    @pytest.mark.parametrize(
        "name, keep",
        [("cif.jsonl", 0), ("heldout_cif.jsonl", 0), ("heldout.jsonl", 1)],
        ids=["corpus.n_cif=0", "corpus.n_heldout_cif=0", "corpus.n_heldout_pairs=1"],
    )
    def test_too_small_corpus_exit_2(self, ws, name, keep):
        """A corpus cut down on disk after gen-corpus wrote it, to what those
        settings would give (gen-corpus itself rejects them)."""
        tmp, cfg = ws
        assert run_cli(["gen-corpus", "--config", cfg]) == 0
        path = tmp / "corpus" / name
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:keep]))
        assert run_cli(["train", "--config", cfg, "--set", "train.steps=0"]) == 2
        assert not (tmp / "run" / "checkpoint_step0.afpt").exists()

    def test_nan_abort_exit_4_retains_last_good(self, ws):
        tmp, cfg = ws
        run_cli(["gen-corpus", "--config", cfg])
        with np.errstate(all="ignore"):
            code = run_cli(
                ["train", "--config", cfg, "--set", "train.lr=1e18", "--set", "train.steps=40"]
            )
        assert code == 4
        assert (tmp / "run" / "checkpoint_lastgood.afpt").exists()

    def test_second_moment_overflow_exit_4(self, ws, capsys):
        # tau 1e-30 scales the similarities to ~1e30: a squared gradient overflows float32
        tmp, cfg = ws
        run_cli(["gen-corpus", "--config", cfg])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no overflow warning on the way
            assert run_cli(["train", "--config", cfg, "--set", "train.tau=1e-30"]) == 4
        assert "non-finite second moment" in capsys.readouterr().err
        assert (tmp / "run" / "checkpoint_lastgood.afpt").exists()
        assert not (tmp / "run" / "checkpoint.afpt").exists()

    @pytest.mark.parametrize("side, alpha", [("target", "1.5"), ("target", "0"), ("cif", "1.5")], ids=["target", "target_alpha0", "cif"])
    def test_checked_abort_on_either_side_exit_4(self, ws, monkeypatch, side, alpha):
        # with train's worker, which runs the second CIF shard or, at alpha 0,
        # the target side (test_training.py runs both with 1 and 2 CPUs)
        tmp, cfg = ws
        run_cli(["gen-corpus", "--config", cfg])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        poison_third_call(monkeypatch, side)
        T.set_checked(True)
        try:
            code = run_cli(["train", "--config", cfg, "--set", "train.steps=4", "--set", f"train.alpha={alpha}"])
        finally:
            T.set_checked(False)
        assert code == 4
        assert (tmp / "run" / "checkpoint_lastgood.afpt").exists()
        assert not (tmp / "run" / "checkpoint.afpt").exists()

    def test_last_report_is_the_final_steps(self, ws, capsys):
        tmp, cfg = ws
        run_cli(["gen-corpus", "--config", cfg])
        assert run_cli(["train", "--config", cfg, "--set", "train.steps=3", "--set", "train.eval_every=2"]) == 0
        reports = [json.loads(line) for line in (tmp / "run" / "reports.jsonl").read_text().splitlines()]
        assert [r["step"] for r in reports] == [0, 2, 3]
        run = tmp / "run"
        assert (run / "checkpoint_step3.afpt").read_bytes() == (run / "checkpoint.afpt").read_bytes()
        assert f"trained 3 steps: afp={reports[-1]['afp_loss']:.4f} " in capsys.readouterr().out

    def test_deep_pair_batch_starts_no_thread(self, ws):
        # 64 pairs embedded up to block 4: a pair batch that once ran on a worker thread
        _, cfg = ws
        deep = ["--set", "model.n_layers=4", "--set", "train.align_layer=4", "--set", "train.mcl_batch=64"]
        run_cli(["gen-corpus", "--config", cfg])
        code = (
            "import sys, threading\n"
            "from afp import cli\n"
            "before = threading.enumerate()\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(code, threading.enumerate() == before)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code, "train", "--config", cfg, *deep],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 True"


BAD_VALUES = [
    (["--set", 'seed="abc"'], {}),
    (["--set", "seed=-1"], {}),
    (["--set", "seed=1.7"], {}),
    ([], {"AFP_SEED": "abc"}),
    (["--set", "model.n_layers=1.5"], {}),
    (["--set", "model.d_model=16.0"], {}),
    (["--set", "model.n_heads=0"], {}),
    (["--set", "train.align_layer=1.0"], {}),
    (["--set", "train.mcl_batch=2.5"], {}),
    (["--set", "train.steps=2.5"], {}),
    (["--set", "train.cif_batch=true"], {}),
    (["--set", "train.tau=true"], {}),
    (["--set", 'train.lr="fast"'], {}),
    (["--set", "train.lr=-1"], {}),
    (["--set", "train.weight_decay=-1"], {}),
    (["--set", "train.beta1=1.0"], {}),
    (["--set", "train.beta2=1.5"], {}),
    (["--set", "train.tau=NaN"], {}),
    (["--set", "train.alpha=Infinity"], {}),
]


@pytest.mark.parametrize("overrides,env", BAD_VALUES, ids=[" ".join(o) or str(e) for o, e in BAD_VALUES])
def test_bad_config_value_exit_2_before_any_step(ws, monkeypatch, capsys, overrides, env):
    tmp, cfg = ws
    if env:  # AFP_SEED applies only when the config has no seed
        doc = json.loads((tmp / "config.json").read_text())
        del doc["seed"]
        (tmp / "config.json").write_text(json.dumps(doc))
    run_cli(["gen-corpus", "--config", cfg])
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert run_cli(["train", "--config", cfg, *overrides]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp / "run").exists()


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

    @pytest.mark.parametrize("dims", [(2**62, 4), (2**40,)])
    def test_oversized_dims_checkpoint_exit_5(self, ws, capsys, dims):
        tmp, cfg = ws
        bad = tmp / "huge.afpt"
        bad.write_bytes(oversized_record(dims))
        assert run_cli(["metrics", "--checkpoint", str(bad), "--config", cfg]) == 5
        assert "corrupt artifact" in capsys.readouterr().err

    def test_non_finite_checkpoint_exit_5(self, trained, capsys):
        tmp, cfg, ckpt = trained
        params = load_params(ckpt, load_config(cfg).model)
        params["tok_emb"].data[3, 1] = np.nan
        bad = tmp / "nan.afpt"
        save_params(bad, params)
        assert run_cli(["eval", "--checkpoint", str(bad), "--config", cfg, "--task", "retrieval"]) == 5
        err = capsys.readouterr().err
        assert "corrupt artifact" in err and "nan.afpt" in err and "tok_emb" in err

    @pytest.mark.parametrize("task", ["classification", "translation"])
    def test_prompt_that_cannot_fit_exit_2(self, trained, tmp_path, capsys, task):
        _, cfg, ckpt = trained
        out = tmp_path / "result.json"
        argv = ["eval", "--checkpoint", str(ckpt), "--config", cfg, "--task", task, "--out", str(out)]
        assert run_cli([*argv, "--set", "eval.k_shot=20"]) == 2
        err = capsys.readouterr().err
        assert "eval.k_shot" in err and "max_seq_len 48" in err
        assert not out.exists()

    def test_max_new_tokens_below_longest_sentence_exit_2(self, trained, tmp_path, capsys):
        _, cfg, ckpt = trained
        out = tmp_path / "result.json"
        argv = ["eval", "--checkpoint", str(ckpt), "--config", cfg, "--task", "translation", "--out", str(out)]
        assert run_cli([*argv, "--set", "eval.max_new_tokens=2"]) == 2
        assert "eval.max_new_tokens 2 cannot hold a 5-token reference" in capsys.readouterr().err
        assert not out.exists()

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
        tokens, pad = C.pad_matrix(sents)
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


def rewrite_record(path, line, edit):
    """Apply edit to the JSON record on the given (1-based) line of a JSONL file."""
    lines = path.read_text().splitlines()
    rec = json.loads(lines[line - 1])
    edit(rec)
    lines[line - 1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")


class TestCorruptCorpus:
    def test_truncated_pairs_file_exit_5(self, ws, capsys):
        tmp, cfg = ws
        run_cli(["gen-corpus", "--config", cfg])
        path = tmp / "corpus" / "pairs.jsonl"
        text = path.read_text()
        path.write_text(text[: len(text) - 10])  # cut inside the last record
        assert run_cli(["train", "--config", cfg]) == 5
        err = capsys.readouterr().err
        assert "corrupt artifact" in err and f"pairs.jsonl line {text.count(chr(10))}" in err
        assert not (tmp / "run" / "checkpoint_step0.afpt").exists()

    def test_heldout_record_without_tgt_exit_5(self, trained, capsys):
        tmp, cfg, ckpt = trained
        rewrite_record(tmp / "corpus" / "heldout.jsonl", 3, lambda rec: rec.pop("tgt"))
        assert run_cli(["metrics", "--checkpoint", str(ckpt), "--config", cfg]) == 5
        err = capsys.readouterr().err
        assert "heldout.jsonl line 3" in err and "tgt" in err

    @pytest.mark.parametrize("first_only", [False, True])
    def test_unscored_heldout_cif_record_exit_5(self, trained, capsys, first_only):
        # a mask set at position 0 alone scores nothing: that position predicts no token
        tmp, cfg, ckpt = trained
        unscored = lambda rec: rec.update(loss_mask=[first_only] + [False] * (len(rec["loss_mask"]) - 1))
        rewrite_record(tmp / "corpus" / "heldout_cif.jsonl", 2, unscored)
        assert run_cli(["metrics", "--checkpoint", str(ckpt), "--config", cfg]) == 5
        err = capsys.readouterr().err
        assert "corrupt artifact" in err and "heldout_cif.jsonl line 2" in err and "scores no prediction" in err

    def test_truncated_family_file_exit_5(self, ws, capsys):
        tmp, cfg = ws
        run_cli(["gen-corpus", "--config", cfg])
        path = tmp / "corpus" / "family.json"
        path.write_text(path.read_text()[:100])
        assert run_cli(["train", "--config", cfg]) == 5
        assert "family.json" in capsys.readouterr().err


def rewrite_family(corpus_dir, edit):
    path = corpus_dir / "family.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def negative_entry(doc):
    row = doc["transition"][0]
    row[0] += row[1] + 0.5
    row[1] = -0.5


def one_sequence(doc):
    n = doc["concept_count"]
    doc["start_dist"] = [1.0] + [0.0] * (n - 1)
    doc["transition"] = [[1.0 if j == (i + 1) % n else 0.0 for j in range(n)] for i in range(n)]
    doc["length_bounds"] = [2, 2]


class TestBadFamily:
    @pytest.mark.parametrize("task", ["classification", "translation"])
    def test_negative_probability_exit_2(self, trained, capsys, task):
        tmp, cfg, ckpt = trained
        rewrite_family(tmp / "corpus", negative_entry)
        assert run_cli(["eval", "--checkpoint", str(ckpt), "--config", cfg, "--task", task]) == 2
        assert "non-negative" in capsys.readouterr().err

    def test_one_sequence_family_classification_exit_2(self, trained, capsys):
        tmp, cfg, ckpt = trained
        rewrite_family(tmp / "corpus", one_sequence)
        assert run_cli(["eval", "--checkpoint", str(ckpt), "--config", cfg, "--task", "classification"]) == 2
        assert "two different concept sequences" in capsys.readouterr().err

    def test_missing_langtag_exit_2(self, trained, capsys):
        tmp, cfg, ckpt = trained
        rewrite_family(tmp / "corpus", lambda doc: doc["langtag"].pop("L1"))
        assert run_cli(["eval", "--checkpoint", str(ckpt), "--config", cfg, "--task", "translation"]) == 2
        assert "langtag" in capsys.readouterr().err

    def test_non_integer_base_exit_2(self, trained, capsys):
        tmp, cfg, ckpt = trained
        rewrite_family(tmp / "corpus", lambda doc: doc["languages"][1].update(base=doc["languages"][1]["base"] + 0.5))
        assert run_cli(["eval", "--checkpoint", str(ckpt), "--config", cfg, "--task", "translation"]) == 2
        assert "base must be an integer" in capsys.readouterr().err


OUT_OF_VOCAB = [
    ("pairs.jsonl", lambda rec: rec["src"]["tokens"].append(33)),
    ("cif.jsonl", lambda rec: rec["input_tokens"].__setitem__(2, -1)),
    ("heldout.jsonl", lambda rec: rec["tgt"]["tokens"].append(1000)),
    ("heldout_cif.jsonl", lambda rec: rec["input_tokens"].__setitem__(0, 33)),
]


class TestOutOfVocabCorpus:
    @pytest.mark.parametrize("name,edit", OUT_OF_VOCAB, ids=[n for n, _ in OUT_OF_VOCAB])
    def test_train_exit_2_before_any_step(self, ws, capsys, name, edit):
        tmp, cfg = ws
        run_cli(["gen-corpus", "--config", cfg])
        rewrite_record(tmp / "corpus" / name, 2, edit)
        assert run_cli(["train", "--config", cfg]) == 2
        assert f"{name} line 2" in capsys.readouterr().err
        assert not (tmp / "run" / "checkpoint_step0.afpt").exists()

    @pytest.mark.parametrize("command", [["metrics"], ["eval", "--task", "metrics"], ["eval", "--task", "retrieval"]])
    def test_eval_and_metrics_exit_2(self, trained, capsys, command):
        tmp, cfg, ckpt = trained
        rewrite_record(tmp / "corpus" / "heldout.jsonl", 1, OUT_OF_VOCAB[2][1])
        assert run_cli(command + ["--checkpoint", str(ckpt), "--config", cfg]) == 2
        assert "vocabulary" in capsys.readouterr().err

    def test_export_embeddings_exit_2(self, trained, capsys):
        tmp, cfg, ckpt = trained
        rewrite_record(tmp / "corpus" / "heldout.jsonl", 1, OUT_OF_VOCAB[2][1])
        assert run_cli(
            ["export-embeddings", "--checkpoint", str(ckpt), "--config", cfg,
             "--corpus", str(tmp / "corpus" / "heldout.jsonl"), "--out", str(tmp / "x.jsonl")]
        ) == 2
        assert "vocabulary" in capsys.readouterr().err


def test_over_long_corpus_record_exit_2_before_any_step(ws, capsys):
    tmp, cfg = ws
    longer = ["--set", "corpus.length_max=40"]  # CIF samples of up to 85 tokens
    assert run_cli(["gen-corpus", "--config", cfg, *longer, "--set", "model.max_seq_len=96"]) == 0
    assert run_cli(["train", "--config", cfg, *longer]) == 2  # max_seq_len is 48
    err = capsys.readouterr().err
    assert re.search(r"cif\.jsonl line \d+: \d+ tokens exceed the model's max_seq_len 48", err), err
    assert not (tmp / "run" / "checkpoint_step0.afpt").exists()


class TestGradcheckCommand:
    def test_passes_and_reports_per_loss(self, capsys):
        assert run_cli(["gradcheck", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        for name in ("mcl_loss", "cif_loss", "afp_loss"):
            assert name in out
        assert "worst rel err" in out

    @pytest.mark.parametrize("args", [["--seeds", "0"], ["--seeds", "-3"], ["--coords", "0"]])
    def test_a_check_of_nothing_is_a_usage_error(self, capsys, args):
        assert run_cli(["gradcheck", *args]) == 2
        captured = capsys.readouterr()
        assert "at least 1 seed and 1 coordinate" in captured.err
        assert "[ok]" not in captured.out

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

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--kind", "alpha", "--grid", "1.5", "--set", "eval.n_examples=0"], "eval.n_examples"),
            (["--kind", "alpha", "--grid", "1.5", "--set", "model.max_seq_len=10"], "exceed the model's max_seq_len 10"),
            (["--kind", "alpha", "--grid", "1.5", "--set", "model.vocab_size=20"], "outside the model's vocabulary [0, 20)"),
            # a bad value after a good one
            (["--kind", "p_src", "--grid", "0.5,1.5"], "p_src must be in [0, 1]"),
            (["--kind", "pooling", "--grid", "mean,cls"], "unknown pooling 'cls'"),
            (["--kind", "policy", "--grid", "pivot,ring"], "unknown policy 'ring'"),
            (["--kind", "layer", "--grid", "0,5"], "train.align_layer 5 outside [0, 2]"),
            (["--kind", "alpha", "--grid", "1.0,2.0", "--set", "eval.max_new_tokens=2"], "eval.max_new_tokens 2"),
            (["--kind", "alpha", "--grid", "1.5", "--set", "eval.eval_src_lang=L9"], "unknown language 'L9'"),
            (["--kind", "policy", "--grid", "pivot", "--set", "eval.eval_tgt_lang=L2"], "unknown language 'L2'"),
            (["--kind", "alpha", "--grid", "1.0,2.0", "--set", "corpus.n_heldout_cif=0"], "one held-out CIF sample"),
            (["--kind", "alpha", "--grid", "1.5", "--set", "corpus.n_pairs_per_combination=1"], "at least 2 pairs"),
        ],
    )
    def test_bad_input_exit_2_before_training(self, ws, monkeypatch, capsys, args, message):
        def no_train(*a, **kw):
            raise AssertionError("a grid point trained")

        monkeypatch.setattr(training, "train", no_train)
        tmp, cfg = ws
        out = tmp / "s.csv"
        assert run_cli(["sweep", "--config", cfg, "--out", str(out), *args]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()


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


class TestRuntimeDependencies:
    def test_cli_help_loads_no_scipy(self):
        code = (
            "import sys\n"
            "import afp.cli\n"
            "try:\n"
            "    afp.cli.main(['--help'])\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "gen-corpus" in proc.stdout
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_numpy_is_the_only_runtime_dependency(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
        assert [re.split(r"[<>=!~;\[ ]", dep)[0] for dep in project["dependencies"]] == ["numpy"]
