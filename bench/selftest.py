"""Self-test of the afp benchmark on a tiny model config.

    python3 bench/selftest.py        (or: python3 -m pytest bench/selftest.py)

Checks that every workload emits every metric of BENCHMARK.json with its
unit, that tracing leaves the loss and checkpoint bits unchanged, and that a
wrong hypothesis or log-likelihood is caught as a failed operation.
"""

import json
import os
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import workloads  # noqa: E402

# vocab 41 = 7 shared specials + 2 language tags + 2 * 16 concept tokens
TINY = {
    "model": {"vocab_size": 41, "d_model": 16, "n_layers": 4, "n_heads": 2, "d_ff": 32, "max_seq_len": 96},
    "corpus": {"concept_count": 16, "n_pairs_per_combination": 64, "n_cif": 64, "n_heldout_pairs": 16, "n_heldout_cif": 16},
    "train": {"steps": 4, "eval_every": 2, "mcl_batch": 8, "cif_batch": 8, "lr": 1e-2},
    "eval": {"n_examples": 6},
}

AFP = workloads.load_afp()
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(name: str, trace: bool, seed: int = 3):
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_work")) as workdir:
        wl = workloads.Workload(AFP, name, seed, workdir, overrides=TINY)
        if trace:
            units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
            metrics, info = workloads.run_traced(wl, 0.0, None, units)
        else:
            metrics, info = workloads.run_untraced(wl, 0.0)
    return wl, metrics, info


def test_every_workload_emits_every_metric_with_its_unit():
    for name in workloads.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            wl, metrics, _ = _run(name, trace)
            assert wl.failed == 0, (name, trace, wl.checks.failures)
            expected = {m["name"]: m["unit"] for m in SPEC[section]}
            assert {k: unit for k, (_, unit) in metrics.items()} == expected, (name, section)
            assert all(isinstance(v, float) for v, _ in metrics.values()), (name, section)


def test_tracing_leaves_loss_and_checkpoint_bits_unchanged():
    for name in ("train_desk", "train_mcl_deep"):
        _, _, plain = _run(name, trace=False)
        wl, _, traced = _run(name, trace=True)
        assert wl.failed == 0, wl.checks.failures
        assert traced["loss"] == plain["loss"]
        assert traced["traced_output_sha256"] == plain["output_sha256"]


def _run_with(module, attr, replacement):
    original = getattr(module, attr)
    setattr(module, attr, replacement(original))
    try:
        wl, _, _ = _run("eval_icl", trace=False)
    finally:
        setattr(module, attr, original)
    return wl


def test_wrong_hypothesis_is_a_failure():
    def wrong(decode):
        return lambda params, prompt, max_new_tokens, stop_token=AFP.corpus.SEP: decode(params, prompt, max_new_tokens, stop_token) + [AFP.corpus.BOS]

    wl = _run_with(AFP.evaluate, "greedy_decode", wrong)
    assert wl.failed > 0 and wl.failed / wl.attempted > 0
    assert any("translation example" in f for f in wl.checks.failures)


def test_wrong_loglik_is_a_failure():
    def wrong(loglik):
        return lambda logits, prompt_len, candidate: loglik(logits, prompt_len, candidate) + 1e-3

    wl = _run_with(AFP.evaluate, "candidate_loglik", wrong)
    assert wl.failed > 0 and wl.failed / wl.attempted > 0
    assert any("classification query" in f for f in wl.checks.failures)


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc!r}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
