"""train()'s worker: the same bits with one, two and three usable CPUs and
inside a sweep, every eval-point report equal to heldout_metrics on that
point's checkpoint, and a worker killed part-way through, with no thread
started and no process left behind. A checked-mode abort in the worker's
shard or target side is in test_training.py."""

import dataclasses
import json
import os
import signal
import threading
import time

import numpy as np
import pytest

import test_training
from afp import losses, training
from afp.checkpoint import load_params
from afp.config import RunConfig, load_config
from afp.errors import WorkerError
from afp.workers import fan_out

from test_cli import run_cli
from test_workers import assert_no_child_left, count_forks, usable_cpus

# The desk model and held-out sets (six chunks in the held-out CIF forward),
# with smaller training sets and three steps; DESK_MCL is the same at alpha 0,
# and DEEP_MCL is shaped like the benchmark's train_mcl_deep: MCL alone at the
# top block, last_token pooling, symmetric InfoNCE over 64 pairs.
DESK = {
    "corpus": {"n_pairs_per_combination": 256, "n_cif": 256},
    "train": {"steps": 3, "eval_every": 2},
}
DESK_MCL = {"corpus": DESK["corpus"], "train": {**DESK["train"], "alpha": 0.0}}
DEEP_MCL = {
    "corpus": DESK["corpus"],
    "train": {
        **DESK_MCL["train"],
        "align_layer": 4,
        "pooling": "last_token",
        "symmetric_mcl": True,
        "mcl_batch": 64,
    },
}


def write_config(tmp_path, doc, seed) -> str:
    path = tmp_path / f"config-{seed}.json"
    path.write_text(json.dumps({**doc, "seed": seed, "paths": {"corpus_dir": str(tmp_path / f"corpus-{seed}")}}))
    return str(path)


def run_bytes(run_dir) -> dict:
    """Every checkpoint and reports.jsonl of a run directory, by name."""
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir()) if p.suffix in (".afpt", ".jsonl")}


@pytest.mark.parametrize("seed", [1, 11])
@pytest.mark.parametrize("doc", [DESK, DESK_MCL, DEEP_MCL], ids=["desk", "alpha0", "deep_mcl"])
def test_train_bits_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch, doc, seed):
    config = write_config(tmp_path, doc, seed)
    assert run_cli(["gen-corpus", "--config", config]) == 0
    runs = {}
    for cpus in (1, 2, 3):
        usable_cpus(monkeypatch, cpus)
        forks = count_forks(monkeypatch)
        out = tmp_path / f"run-{cpus}"
        assert run_cli(["train", "--config", config, "--out", str(out)]) == 0
        assert len(forks) == (cpus > 1)  # one worker per call, whatever the CPU count
        runs[cpus] = run_bytes(out)

    def in_sweep(cpus):  # item 0 trains in the caller, item 1 in a worker: both inline
        out = tmp_path / f"sweep-{cpus}"
        assert run_cli(["train", "--config", config, "--out", str(out)]) == 0
        return os.getpid()

    usable_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    assert len(set(fan_out(in_sweep, ["caller", "worker"]))) == 2
    assert len(forks) == 1  # the sweep's worker alone
    runs["sweep caller"], runs["sweep worker"] = run_bytes(tmp_path / "sweep-caller"), run_bytes(tmp_path / "sweep-worker")
    steps = [f"checkpoint_step{k}.afpt" for k in (0, 2, 3)]
    assert sorted(runs[1]) == ["checkpoint.afpt", "checkpoint_final.afpt", *steps, "reports.jsonl"]
    assert all(run == runs[1] for run in runs.values())

    cfg = load_config(config)
    corpus = training.generate_corpus(cfg)
    reports = [json.loads(line) for line in runs[1]["reports.jsonl"].decode().splitlines()]
    assert [r["step"] for r in reports] == [0, 2, 3]
    for r in reports:
        params = load_params(tmp_path / "run-2" / f"checkpoint_step{r['step']}.afpt", cfg.model)
        assert training.heldout_metrics(params, corpus, cfg.train, step=r["step"]).to_json() == r
    assert_no_child_left()


@pytest.mark.parametrize("cif_batch", [1, 7])
def test_odd_and_one_row_cif_batches_keep_their_bits(monkeypatch, cif_batch):
    """A 7-row batch splits 4 and 3; a one-row batch has no second shard."""
    cfg = test_training.tiny_run_config(steps=3, eval_every=2)
    tcfg = dataclasses.replace(cfg.train, cif_batch=cif_batch)
    corpus = training.generate_corpus(cfg)
    params = []
    for cpus in (1, 2):
        usable_cpus(monkeypatch, cpus)
        result = training.train(cfg.model, tcfg, corpus, seed=cfg.seed)
        params.append([t.data.tobytes() for _, t in result.params.named()])
    assert params[0] == params[1]
    assert_no_child_left()


def kill_worker_on_its_second_call(monkeypatch, module, name):
    """module.name kills the process it runs in on its second call there, unless that is this process."""
    caller, real, calls = os.getpid(), getattr(module, name), []

    def dying(*args, **kwargs):
        calls.append(1)
        if os.getpid() != caller and len(calls) == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, dying)


# (config, where the worker is killed): the second step's second CIF shard;
# at alpha 0 the second step's target side, in its forward request or its
# backward request; or the second chunk of its share of the first eval point
KILLS = {
    "shard": (DESK, losses, "cif_shard"),
    "side forward": (DESK_MCL, losses, "embed"),
    "side backward": (DESK_MCL, losses, "backward"),
    "heldout": (DESK, training, "forward"),
}


@pytest.mark.parametrize("where", KILLS)
def test_a_killed_worker_makes_train_raise_at_once(monkeypatch, where):
    doc, module, name = KILLS[where]
    usable_cpus(monkeypatch, 2)
    kill_worker_on_its_second_call(monkeypatch, module, name)
    cfg = RunConfig()
    tcfg = dataclasses.replace(cfg.train, steps=4, eval_every=2, alpha=doc["train"].get("alpha", cfg.train.alpha))
    corpus = training.generate_corpus(cfg)
    start = time.monotonic()
    with pytest.raises(WorkerError, match="ended with status -9"):
        training.train(cfg.model, tcfg, corpus, seed=1)
    assert time.monotonic() - start < 20
    assert_no_child_left()


@pytest.mark.parametrize("where", ["shard", "side forward", "side backward"])
def test_afp_train_exits_1_when_its_worker_is_killed(tmp_path, monkeypatch, capsys, where):
    doc, module, name = KILLS[where]
    config = write_config(tmp_path, doc, 1)
    assert run_cli(["gen-corpus", "--config", config]) == 0
    usable_cpus(monkeypatch, 2)
    kill_worker_on_its_second_call(monkeypatch, module, name)
    assert run_cli(["train", "--config", config, "--out", str(tmp_path / "run")]) == 1
    assert "check failure: worker" in capsys.readouterr().err
    assert not (tmp_path / "run" / "checkpoint.afpt").exists()
    assert_no_child_left()


def test_train_starts_no_thread(monkeypatch):
    usable_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    threads = threading.enumerate()
    tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
    seen = []

    def log(line):  # at every eval point, with the worker alive
        seen.append((threading.enumerate(), None if tasks is None else len(os.listdir("/proc/self/task"))))

    cfg = test_training.tiny_run_config(steps=3, eval_every=1)
    training.train(cfg.model, cfg.train, training.generate_corpus(cfg), seed=cfg.seed, log=log)
    assert len(forks) == 1 and len(seen) == 3
    assert all(s == (threads, tasks) for s in seen)
    assert threading.enumerate() == threads
    assert_no_child_left()


def test_train_result_params_match_the_checkpoint(tmp_path, monkeypatch):
    """The returned parameters, which lived in shared memory, are the final checkpoint's."""
    usable_cpus(monkeypatch, 2)
    cfg = test_training.tiny_run_config(steps=2, eval_every=2)
    result = training.train(cfg.model, cfg.train, training.generate_corpus(cfg), seed=cfg.seed, checkpoint_dir=str(tmp_path))
    loaded = load_params(tmp_path / "checkpoint_final.afpt", cfg.model)
    assert all(np.array_equal(a.data, b.data) for (_, a), (_, b) in zip(result.params.named(), loaded.named()))
    assert_no_child_left()
