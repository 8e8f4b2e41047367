"""Command-line surface tying the pipeline together.

Subcommands: gen-corpus, train, eval, metrics, export-embeddings, gradcheck,
sweep. Every command is byte-reproducible given the same config and seed.

Exit codes: 0 ok, 1 check failure, 2 usage, 3 IO, 4 numeric abort,
5 corrupt artifact. Seed precedence: --set seed=N > config file > AFP_SEED.
"""

import argparse
import csv
import hashlib
import json
import os
import sys

from . import corpus as C
from .checkpoint import load_params, save_params
from .config import RunConfig, dumps_config, load_config, save_config
from .errors import AfpError, CheckpointError, ConfigError, TrainingError, UsageError
from .evaluate import PairClassificationTask, Template, classification_eval, translation_eval
from .gradcheck import REL_TOL, loss_gradcheck
from .losses import embed
from .represent import POOLING_METHODS, pca2, retrieval_acc_at_1
from .training import (
    SWEEP_KINDS,
    CorpusHandles,
    ablation_sweep,
    generate_corpus,
    heldout_metrics,
    sweep_value,
    train,
    write_reports,
)

CORPUS_FILES = ("family.json", "pairs.jsonl", "cif.jsonl", "heldout.jsonl", "heldout_cif.jsonl")


def _load_run_config(args) -> RunConfig:
    return load_config(args.config, overrides=args.set or [])


def cmd_gen_corpus(args) -> int:
    cfg = _load_run_config(args)
    out_dir = args.out or cfg.paths.corpus_dir
    os.makedirs(out_dir, exist_ok=True)
    handles = generate_corpus(cfg)
    with open(os.path.join(out_dir, "family.json"), "w", encoding="utf-8") as fh:
        json.dump(handles.family.to_json(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    counts = {
        "pairs.jsonl": C.save_jsonl(os.path.join(out_dir, "pairs.jsonl"), handles.train_pairs),
        "cif.jsonl": C.save_jsonl(os.path.join(out_dir, "cif.jsonl"), handles.train_cif),
        "heldout.jsonl": C.save_jsonl(os.path.join(out_dir, "heldout.jsonl"), handles.heldout_pairs),
        "heldout_cif.jsonl": C.save_jsonl(os.path.join(out_dir, "heldout_cif.jsonl"), handles.heldout_cif),
    }
    save_config(os.path.join(out_dir, "config.json"), cfg)
    for name, n in counts.items():
        print(f"{name}: {n} records")
    print(f"family.json: vocab_size={handles.family.vocab_size}")
    return 0


def _load_corpus_dir(corpus_dir: str) -> CorpusHandles:
    for name in CORPUS_FILES:
        if not os.path.exists(os.path.join(corpus_dir, name)):
            raise UsageError(f"missing corpus file {name!r} in {corpus_dir!r}; run gen-corpus first")
    with open(os.path.join(corpus_dir, "family.json"), "r", encoding="utf-8") as fh:
        family = C.TwinLanguageFamily.from_json(json.load(fh))
    return CorpusHandles(
        family=family,
        train_pairs=C.load_jsonl(os.path.join(corpus_dir, "pairs.jsonl"), C.TranslationPair.from_json),
        train_cif=C.load_jsonl(os.path.join(corpus_dir, "cif.jsonl"), C.CifSample.from_json),
        heldout_pairs=C.load_jsonl(os.path.join(corpus_dir, "heldout.jsonl"), C.TranslationPair.from_json),
        heldout_cif=C.load_jsonl(os.path.join(corpus_dir, "heldout_cif.jsonl"), C.CifSample.from_json),
    )


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    corpus_dir = args.corpus_dir or cfg.paths.corpus_dir
    handles = _load_corpus_dir(corpus_dir)
    run_dir = args.out or cfg.paths.run_dir
    os.makedirs(run_dir, exist_ok=True)
    try:
        result = train(
            cfg.model,
            cfg.train,
            handles,
            seed=cfg.seed,
            checkpoint_dir=run_dir,
            log=print if args.verbose else None,
        )
    except TrainingError as exc:
        if exc.last_good_params is not None:
            save_params(os.path.join(run_dir, "checkpoint_lastgood.afpt"), exc.last_good_params)
            print(f"aborted: {exc} (last good checkpoint from step {exc.last_good_step} retained)", file=sys.stderr)
        raise
    save_params(os.path.join(run_dir, "checkpoint.afpt"), result.params)
    write_reports(os.path.join(run_dir, "reports.jsonl"), result.reports)
    save_config(os.path.join(run_dir, "config.json"), cfg)
    final = result.reports[-1]
    print(
        f"trained {cfg.train.steps} steps: afp={final.afp_loss:.4f} "
        f"l_align={final.l_align:.4f} l_uniform={final.l_uniform:.4f} "
        f"acc@1={final.retrieval_acc_at_1:.3f}"
    )
    print(f"checkpoint: {os.path.join(run_dir, 'checkpoint.afpt')}")
    return 0


EVAL_TASKS = ("classification", "retrieval", "translation", "metrics")


def cmd_eval(args) -> int:
    cfg = _load_run_config(args)
    if args.task not in EVAL_TASKS:
        print(f"unknown eval task {args.task!r}; choose from {', '.join(EVAL_TASKS)}", file=sys.stderr)
        return 2
    config_digest = hashlib.sha256(dumps_config(cfg).encode("utf-8")).hexdigest()
    params = load_params(args.checkpoint, cfg.model)
    handles = _load_corpus_dir(args.corpus_dir or cfg.paths.corpus_dir)
    ev = cfg.eval

    if args.task == "metrics":
        report = heldout_metrics(params, handles, cfg.train, step=-1)
        payload = report.to_json()
        payload.pop("step")
    elif args.task == "retrieval":
        batch = C.collate_pairs(handles.heldout_pairs)
        h = embed(params, batch.src_tokens, batch.src_pad, cfg.train.align_layer, cfg.train.pooling)
        hp = embed(params, batch.tgt_tokens, batch.tgt_pad, cfg.train.align_layer, cfg.train.pooling)
        payload = {
            "task": "retrieval",
            "n": len(handles.heldout_pairs),
            "score": retrieval_acc_at_1(h, hp),
        }
    elif args.task == "classification":
        task = PairClassificationTask(handles.family, ev.eval_src_lang, ev.eval_tgt_lang)
        template = Template(k=ev.k_shot, verbalizer=task.verbalizer())
        result = classification_eval(params, task, template, n=ev.n_examples, seed=cfg.seed)
        payload = result.to_json()
    else:
        result = translation_eval(
            params,
            handles.family,
            ev.eval_src_lang,
            ev.eval_tgt_lang,
            n=ev.n_examples,
            max_new_tokens=ev.max_new_tokens,
            k_shot=ev.k_shot,
            seed=cfg.seed,
            task=cfg.corpus.task,
        )
        payload = result.to_json()

    payload["config_digest"] = config_digest
    text = json.dumps(payload, sort_keys=True, indent=2, default=float) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        summary = {k: v for k, v in payload.items() if k not in ("examples", "records")}
        print(json.dumps(summary, sort_keys=True, default=float))
        print(f"full result: {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_export_embeddings(args) -> int:
    cfg = _load_run_config(args)
    params = load_params(args.checkpoint, cfg.model)
    layer = args.layer if args.layer is not None else cfg.train.align_layer
    pooling = args.pooling or cfg.train.pooling
    pairs = C.load_jsonl(args.corpus, C.TranslationPair.from_json)
    if not pairs:
        raise UsageError(f"no pair records in {args.corpus!r}")
    sentences = [(p.src_lang, p.src_tokens) for p in pairs] + [(p.tgt_lang, p.tgt_tokens) for p in pairs]
    tokens, pad = C._pad_matrix([s for _, s in sentences], C.PAD)
    vectors = embed(params, tokens, pad, layer, pooling).array
    coords = pca2(vectors)
    with open(args.out, "w", encoding="utf-8") as fh:
        for i, (lang, _) in enumerate(sentences):
            rec = {
                "id": i,
                "lang": lang,
                "layer": layer,
                "pooling": pooling,
                "vector": [float(x) for x in vectors[i]],
                "pca": [float(coords[i, 0]), float(coords[i, 1])],
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    print(f"wrote {len(sentences)} embeddings to {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    worst = loss_gradcheck(n_seeds=args.seeds, coords_per_tensor=args.coords)
    failed = False
    for name in ("mcl_loss", "cif_loss", "afp_loss"):
        status = "ok" if worst[name] <= REL_TOL else "FAIL"
        failed = failed or status == "FAIL"
        print(f"{name}: worst rel err {worst[name]:.3e} [{status}]")
    print(f"overall worst rel err: {max(worst.values()):.3e} (tolerance {REL_TOL:.0e})")
    return 1 if failed else 0


def cmd_sweep(args) -> int:
    cfg = _load_run_config(args)
    grid = tuple(sweep_value(args.kind, v) for v in args.grid.split(",")) if args.grid else None
    rows = ablation_sweep(args.kind, grid, cfg, log=print if args.verbose else None)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afp",
        description="Desk-scale cross-lingual alignment: corpora, training, diagnostics, evaluation.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config entry (dotted path, JSON value), e.g. --set train.alpha=2",
    )
    common.add_argument("--verbose", action="store_true", help="log progress during long commands")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("gen-corpus", help="generate family/pair/instruction corpora")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="output directory (default: paths.corpus_dir)")
    p.set_defaults(fn=cmd_gen_corpus)

    p = add_parser("train", help="train with the combined alignment loss")
    p.add_argument("--config", required=True)
    p.add_argument("--corpus-dir", help="corpus directory (default: paths.corpus_dir)")
    p.add_argument("--out", help="run directory (default: paths.run_dir)")
    p.set_defaults(fn=cmd_train)

    p = add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--task", required=True, help="classification | retrieval | translation | metrics")
    p.add_argument("--corpus-dir")
    p.add_argument("--out", help="write the JSON result here as well as stdout")
    p.set_defaults(fn=cmd_eval)

    p = add_parser("metrics", help="alignment/uniformity/retrieval diagnostics for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--corpus-dir")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eval, task="metrics")

    p = add_parser("export-embeddings", help="pooled vectors + 2-D PCA coordinates as JSONL")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--corpus", required=True, help="pairs JSONL file to embed")
    p.add_argument("--layer", type=int)
    p.add_argument("--pooling", choices=POOLING_METHODS)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_export_embeddings)

    p = add_parser("gradcheck", help="finite-difference check of the loss gradients")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--coords", type=int, default=1, help="coordinates probed per tensor per seed")
    p.set_defaults(fn=cmd_gradcheck)

    p = add_parser("sweep", help="run an ablation sweep and write a CSV")
    p.add_argument("--kind", required=True, choices=tuple(SWEEP_KINDS))
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", help="comma-separated grid values (defaults per kind)")
    p.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckpointError as exc:
        print(f"corrupt artifact: {exc}", file=sys.stderr)
        return 5
    except TrainingError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except AfpError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
