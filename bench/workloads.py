"""The afp benchmark's workloads, their correctness checks and their metrics.

Each workload is one closed loop run by a single client in one process: the
next rep starts only when the previous one has finished. A rep is one
train() call (train_* workloads) or one pass over the in-context eval tasks
(eval_icl). Reps repeat until the measuring time is used up, and every timed
figure is the median over reps. Everything goes through the public afp API.
"""

import hashlib
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

import spans

# Model seed of eval_icl: the eval model is fixed, while the workload seed
# picks the corpus and the eval prompts.
EVAL_MODEL_SEED = 0
CLASSIFICATION_K = 4
# Examples whose outputs are compared with the benchmark's own reference.
REFERENCE_SUBSET = 8
LOGLIK_TOL = 1e-5
SETUP_REPEATS = 5

# train_desk: RunConfig() defaults, with runs short enough to repeat. The
# final held-out loss of a 40-step run is steady across seeds.
# train_mcl_deep: MCL only at the top block; its held-out MCL loss heads to
# zero within ~30 steps, so the run stops at 10 steps, well before that.
WORKLOADS = {
    "train_desk": {"kind": "train", "config": {"train": {"steps": 40, "eval_every": 20}}},
    "train_mcl_deep": {
        "kind": "train",
        "config": {
            "train": {
                "alpha": 0.0,
                "align_layer": 4,
                "pooling": "last_token",
                "symmetric_mcl": True,
                "mcl_batch": 64,
                "steps": 10,
                "eval_every": 10,
            }
        },
    },
    "eval_icl": {"kind": "eval", "config": {}},
}


def load_afp():
    """Import the afp layers as one namespace (after sys.path points at src)."""
    from afp import checkpoint, config, corpus, evaluate, losses, model, represent, rng, tensor, training

    return SimpleNamespace(
        checkpoint=checkpoint,
        config=config,
        corpus=corpus,
        evaluate=evaluate,
        losses=losses,
        model=model,
        represent=represent,
        rng=rng,
        tensor=tensor,
        training=training,
    )


@dataclass
class Checks:
    """Correctness checks of one run; each one counts as an attempted operation."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def _merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        out[key] = _merge(out.get(key, {}), value) if isinstance(value, dict) else value
    return out


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _same_params(a, b) -> bool:
    return all(
        x.data.dtype == y.data.dtype and x.data.tobytes() == y.data.tobytes()
        for (_, x), (_, y) in zip(a.named(), b.named(), strict=True)
    )


def _finite_report(report) -> bool:
    values = [v for k, v in report.to_json().items() if k not in ("step", "task_scores")]
    return all(np.isfinite(v) for v in values)


class Workload:
    def __init__(self, afp, name: str, seed: int, workdir: str, overrides: dict | None = None):
        self.afp = afp
        self.kind = WORKLOADS[name]["kind"]
        self.workdir = workdir
        self.doc = _merge(_merge(WORKLOADS[name]["config"], overrides or {}), {"seed": seed})
        self.checks = Checks()
        self.items = 0

    @property
    def attempted(self) -> int:
        """Operations attempted: workload items (steps or queries) plus checks."""
        return max(1, self.items + self.checks.attempted)

    @property
    def failed(self) -> int:
        return len(self.checks.failures)

    # -- set-up -----------------------------------------------------------

    def setup(self) -> float:
        """Build config, corpus and model once; returns the wall seconds."""
        A = self.afp
        t0 = time.perf_counter()
        self.cfg = A.config.config_from_dict(json.loads(json.dumps(self.doc)), env={})
        self.corpus = A.training.generate_corpus(self.cfg)
        if self.kind == "train":
            self.params = A.model.init_params(self.cfg.model, self.cfg.seed)
        else:
            path = os.path.join(self.workdir, "eval_model.afpt")
            A.checkpoint.save_params(path, A.model.init_params(self.cfg.model, EVAL_MODEL_SEED))
            self.params = A.checkpoint.load_params(path, self.cfg.model)
        return time.perf_counter() - t0

    # -- reps ---------------------------------------------------------------

    def rep(self) -> dict:
        return self._train_rep() if self.kind == "train" else self._eval_rep()

    def _train_rep(self) -> dict:
        A, cfg, checks = self.afp, self.cfg, self.checks
        tc = cfg.train
        t0 = time.perf_counter()
        result = A.training.train(cfg.model, tc, self.corpus, seed=cfg.seed, checkpoint_dir=self.workdir)
        t1 = time.perf_counter()
        again = A.training.heldout_metrics(result.params, self.corpus, tc, step=tc.steps)
        t2 = time.perf_counter()
        self.items += tc.steps

        reports = result.reports
        checks.expect(all(_finite_report(r) for r in reports), "every AlignReport is finite")
        checks.expect(reports[-1].step == tc.steps, "the last report is at the final step")
        checks.expect(reports[-1].afp_loss < reports[0].afp_loss, "held-out AFP loss fell below its step-0 value")
        checks.expect(again.to_json() == reports[-1].to_json(), "held-out metrics recomputed on the final params agree")
        path = os.path.join(self.workdir, "checkpoint_final.afpt")
        loaded = A.checkpoint.load_params(path, cfg.model)
        checks.expect(_same_params(loaded, result.params), "the final checkpoint loads back bit-exact")
        return {
            "item_ms": (t1 - t0) * 1000.0 / tc.steps,
            "diagnostics_ms": (t2 - t1) * 1000.0,
            "loss": reports[-1].afp_loss,
            "output": _sha256(path),
        }

    def _eval_rep(self) -> dict:
        A, cfg, checks = self.afp, self.cfg, self.checks
        E, ev = A.evaluate, cfg.eval
        family = self.corpus.family
        t0 = time.perf_counter()
        trans = E.translation_eval(
            self.params,
            family,
            ev.eval_src_lang,
            ev.eval_tgt_lang,
            n=ev.n_examples,
            max_new_tokens=ev.max_new_tokens,
            k_shot=ev.k_shot,
            seed=cfg.seed,
            task=cfg.corpus.task,
        )
        task = E.PairClassificationTask(family, ev.eval_src_lang, ev.eval_tgt_lang)
        template = E.Template(k=CLASSIFICATION_K, verbalizer=task.verbalizer())
        cls = E.classification_eval(self.params, task, template, n=ev.n_examples, seed=cfg.seed)
        t1 = time.perf_counter()
        report = A.training.heldout_metrics(self.params, self.corpus, cfg.train, step=0)
        coords = self._export()
        t2 = time.perf_counter()
        self.items += trans.n + cls.n

        checks.expect(_finite_report(report), "held-out metrics are finite")
        checks.expect(
            coords.shape == (2 * len(self.corpus.heldout_pairs), 2) and bool(np.isfinite(coords).all()),
            "embedding export gives finite 2-D coordinates for every sentence",
        )
        path = os.path.join(self.workdir, "roundtrip.afpt")
        A.checkpoint.save_params(path, self.params)
        checks.expect(_same_params(A.checkpoint.load_params(path, cfg.model), self.params), "checkpoint round trip is bit-exact")
        outputs = {
            "hyps": [r["hyp"] for r in trans.records],
            "logliks": [r["loglik"] for r in cls.records],
            "afp_loss": report.afp_loss,
        }
        return {
            "item_ms": (t1 - t0) * 1000.0 / (trans.n + cls.n),
            "diagnostics_ms": (t2 - t1) * 1000.0,
            "loss": report.afp_loss,
            "output": hashlib.sha256(json.dumps(outputs).encode()).hexdigest(),
            "translation": trans,
            "classification": cls,
            "template": template,
            "task": task,
        }

    def _export(self) -> np.ndarray:
        """Embedding export as the CLI does it: one forward over both sides, pool, pca2."""
        A, tc = self.afp, self.cfg.train
        sentences = [p.src_tokens for p in self.corpus.heldout_pairs] + [p.tgt_tokens for p in self.corpus.heldout_pairs]
        width = max(len(s) for s in sentences)
        tokens = np.full((len(sentences), width), A.corpus.PAD, dtype=np.int64)
        pad = np.zeros(tokens.shape, dtype=bool)
        for i, s in enumerate(sentences):
            tokens[i, : len(s)] = s
            pad[i, : len(s)] = True
        hidden = A.model.forward(self.params, tokens, pad).hidden_states[tc.align_layer]
        vectors = A.represent.pool(hidden, pad, tc.pooling, layer=tc.align_layer).array
        return A.represent.pca2(vectors)

    # -- reference checks (eval_icl) ---------------------------------------

    def check_references(self, rep: dict) -> None:
        """Compare a subset of eval outputs with the benchmark's own references."""
        if self.kind != "eval":
            return
        self.check_translation(rep["translation"].records[:REFERENCE_SUBSET])
        self.check_classification(rep["classification"].records[:REFERENCE_SUBSET], rep["task"], rep["template"])

    def check_translation(self, records) -> None:
        A, ev = self.afp, self.cfg.eval
        C = A.corpus
        family = self.corpus.family
        for rec in records:
            # k_shot = 0: the prompt is BOS plus the instruction prompt of the source.
            prompt = [C.BOS] + C.cif_prompt(family, self.cfg.corpus.task, rec["src"], ev.eval_tgt_lang)[1:]
            self.checks.expect(
                rec["hyp"] == self.reference_decode(prompt, ev.max_new_tokens),
                f"translation example {rec['index']} matches the full-prefix greedy reference",
            )

    def reference_decode(self, prompt, max_new_tokens: int) -> list[int]:
        """Greedy decode that re-runs afp.model.forward over the whole prefix per token."""
        A = self.afp
        seq, out = list(prompt), []
        for _ in range(max_new_tokens):
            if len(seq) >= self.cfg.model.max_seq_len:
                break
            logits = A.model.forward(self.params, np.asarray([seq])).logits.data[0, -1]
            nxt = int(np.argmax(logits))
            if nxt == A.corpus.SEP:
                break
            out.append(nxt)
            seq.append(nxt)
        return out

    def check_classification(self, records, task, template) -> None:
        A = self.afp
        demo_rng = A.rng.stream(self.cfg.seed, "demos")
        query_rng = A.rng.stream(self.cfg.seed, "queries")
        for rec in records:
            demos = [task.make_example(demo_rng) for _ in range(template.k)]
            query, label = task.make_example(query_rng)
            prompt = [A.corpus.BOS] + A.evaluate.build_prompt(template, demos, query)
            ref = [self.reference_loglik(prompt, cand) for cand in template.candidates]
            ok = (
                label == rec["label"]
                and len(ref) == len(rec["loglik"])
                and all(abs(a - b) <= LOGLIK_TOL for a, b in zip(ref, rec["loglik"]))
                and int(np.argmax(ref)) == rec["chosen"]
            )
            self.checks.expect(ok, f"classification query {rec['index']} log-likelihoods match the reference within {LOGLIK_TOL}")

    def reference_loglik(self, prompt, candidate) -> float:
        logits = self.afp.model.forward(self.params, np.asarray([list(prompt) + list(candidate)])).logits.data[0]
        logits = logits.astype(np.float64)
        logp = logits - logits.max(axis=-1, keepdims=True)
        logp -= np.log(np.exp(logp).sum(axis=-1, keepdims=True))
        return float(sum(logp[len(prompt) - 1 + i, tok] for i, tok in enumerate(candidate)))


def _run_reps(wl: Workload, seconds: float) -> list[dict]:
    """At least one rep, then more until `seconds` have passed."""
    reps = []
    t0 = time.perf_counter()
    while not reps or time.perf_counter() - t0 < seconds:
        reps.append(wl.rep())
        if len(reps) == 1:
            wl.check_references(reps[0])
    return reps


def _check_same(wl: Workload, reps: list[dict], what: str) -> None:
    first = reps[0]
    for r in reps[1:]:
        wl.checks.expect(r["loss"] == first["loss"] and r["output"] == first["output"], what)


def run_untraced(wl: Workload, seconds: float) -> tuple[dict, dict]:
    setup = [wl.setup() for _ in range(SETUP_REPEATS)]
    reps = _run_reps(wl, seconds)
    _check_same(wl, reps, "every rep gives the same loss and output bits")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ms_per_item": (statistics.median(r["item_ms"] for r in reps), "ms"),
        "diagnostics_ms": (statistics.median(r["diagnostics_ms"] for r in reps), "ms"),
        "heldout_afp_loss": (reps[0]["loss"], "nats"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "setup_s": setup,
        "item_ms": [r["item_ms"] for r in reps],
        "loss": reps[0]["loss"],
        "output_sha256": reps[0]["output"],
    }
    return metrics, info


def run_traced(wl: Workload, seconds: float, trace_path: str | None, per_layer_units: dict) -> tuple[dict, dict]:
    """One untraced rep, then traced reps; per-layer metrics come from the traced ones."""
    tracer = spans.Tracer()
    spans.instrument(tracer, wl.afp)
    try:
        wl.setup()
    finally:
        tracer.restore()
    t0 = time.perf_counter()
    plain = wl.rep()
    wl.check_references(plain)
    wl.items = 0
    spans.instrument(tracer, wl.afp)
    try:
        traced = _run_reps(wl, seconds - (time.perf_counter() - t0))
    finally:
        tracer.restore()
    _check_same(wl, [plain] + traced, "traced reps give the same loss and output bits as the untraced rep")
    layer = spans.layer_metrics(spans.SpanTable(tracer), wl.items)
    layer["trace.overhead_frac"] = statistics.median(r["item_ms"] for r in traced) / plain["item_ms"] - 1.0
    if trace_path is not None:
        tracer.save(trace_path)
    metrics = {name: (layer[name], unit) for name, unit in per_layer_units.items()}
    info = {
        "reps": 1 + len(traced),
        "spans": len(tracer.name),
        "loss": plain["loss"],
        "output_sha256": plain["output"],
        "traced_output_sha256": traced[-1]["output"],
    }
    return metrics, info
