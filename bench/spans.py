"""Outside-in span tracer for the afp benchmark.

The tracer replaces public callables of the afp modules, at the module
attribute where their callers look them up, with wrappers that record a span
(name, start, end, parent) around each call. Nothing inside the package is
changed: the wrappers call the original function with the original
arguments, so a traced run computes the same bits as an untraced one.

Spans are kept in flat in-memory arrays and written out once, when the run
ends. Parents are recorded before their children, so a span's index is
always larger than its parent's.
"""

import functools
import os
from array import array
from time import perf_counter

import numpy as np

# The op functions of afp.tensor whose forward and backward times are reported.
TENSOR_OPS = (
    "matmul",
    "bmm",
    "gelu",
    "layer_norm",
    "softmax_lastdim",
    "add",
    "add_bias",
    "scale",
    "reshape",
    "permute",
    "embedding",
    "gather_rows",
    "cross_entropy_rows",
    "l2_normalize_rows",
    "sum_all",
)

# Every op function of afp.tensor gets a forward span, listed or not, so that
# nested ops (mean_all -> scale, sum_all) and unlisted ones (mul) are covered.
_ALL_TENSOR_OPS = TENSOR_OPS + ("mul", "mean_all")


class Tracer:
    """Records nested spans and per-span notes (sizes, counts) in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: list[tuple[int, str, float]] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def nid(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def begin(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def timed(self, name: str, fn, after=None):
        """Return fn wrapped in a span; after(args, out) yields (key, value) notes."""
        nid = self.nid(name)
        begin, finish, notes = self.begin, self.finish, self.notes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                finish(i)
            if after is not None:
                for key, value in after(args, out):
                    notes.append((i, key, value))
            return out

        return wrapper

    def replace(self, module, attr: str, make) -> None:
        """Set module.attr to make(original) until restore()."""
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, make(original))

    def patch(self, module, attr: str, name: str, after=None) -> None:
        self.replace(module, attr, lambda fn: self.timed(name, fn, after))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def save(self, path: str) -> None:
        """Write every span and note as one .npz archive (times in seconds)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        notes = self.notes
        np.savez(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            note_span=np.asarray([n[0] for n in notes], dtype=np.int64),
            note_key=np.asarray([n[1] for n in notes], dtype=str),
            note_value=np.asarray([n[2] for n in notes], dtype=np.float64),
        )


def _batch_positions(prefix, mask_attrs):
    def after(args, out):
        masks = [getattr(out, a) for a in mask_attrs]
        yield prefix + "_positions", float(sum(m.size for m in masks))
        yield prefix + "_valid", float(sum(int(m.sum()) for m in masks))

    return after


def instrument(tracer: Tracer, afp) -> None:
    """Wrap the public callables of each afp layer where their callers find them.

    `afp` is a namespace holding the imported modules (tensor, model, losses,
    represent, corpus, training, checkpoint, evaluate).
    """
    T = afp.tensor

    # Per-op backward: every op hands its backward closure to apply_op, so a
    # wrapped apply_op swaps in a closure that times the original one.
    begin, finish = tracer.begin, tracer.finish

    def timed_apply_op(inner):
        def apply_op(op, out_data, inputs, backward):
            nid = tracer.nid("tensor.bwd." + op)

            def timed_backward(grad):
                i = begin(nid)
                try:
                    return backward(grad)
                finally:
                    finish(i)

            return inner(op, out_data, inputs, timed_backward)

        return apply_op

    for module in (T, afp.represent):
        tracer.replace(module, "apply_op", timed_apply_op)

    for op in _ALL_TENSOR_OPS:
        tracer.patch(T, op, "tensor.fwd." + op)

    tracer.patch(afp.training, "backward", "tensor.backward", after=lambda a, out: [("tape_nodes", len(a[0].nodes))])

    def positions(args, out):
        return [("positions", float(np.asarray(args[1]).size))]

    for module in (afp.model, afp.losses, afp.training, afp.evaluate):
        tracer.patch(module, "forward", "model.forward", after=positions)

    for module in (afp.losses, afp.training):
        tracer.patch(module, "mcl_loss", "losses.mcl_loss")
        tracer.patch(module, "cif_loss", "losses.cif_loss")
        tracer.patch(module, "pool", "represent.pool")
    tracer.patch(afp.represent, "pool", "represent.pool")
    tracer.patch(afp.training, "afp_loss", "losses.afp_loss")

    tracer.patch(afp.training, "adamw_step", "optim.adamw_step")

    tracer.patch(afp.training, "generate_corpus", "corpus.generate_corpus")
    tracer.patch(afp.corpus, "collate_pairs", "corpus.collate_pairs", after=_batch_positions("pair", ("src_pad", "tgt_pad")))
    tracer.patch(afp.corpus, "collate_cif", "corpus.collate_cif", after=_batch_positions("cif", ("pad_mask",)))

    for name in ("alignment_metric", "uniformity_metric", "retrieval_acc_at_1"):
        tracer.patch(afp.training, name, "represent." + name)
    tracer.patch(afp.represent, "pca2", "represent.pca2")

    tracer.patch(afp.training, "train", "training.train")
    tracer.patch(afp.training, "heldout_metrics", "training.heldout_metrics")

    def file_bytes(args, out):
        return [("bytes", float(os.path.getsize(args[0])))]

    tracer.patch(afp.training, "save_params", "checkpoint.save_params", after=file_bytes)
    tracer.patch(afp.checkpoint, "save_params", "checkpoint.save_params", after=file_bytes)
    tracer.patch(afp.checkpoint, "load_params", "checkpoint.load_params")

    def translation_counts(args, out):
        return [("examples", float(out.n)), ("generated_tokens", float(sum(len(r["hyp"]) for r in out.records)))]

    tracer.patch(afp.evaluate, "translation_eval", "evaluate.translation_eval", after=translation_counts)
    tracer.patch(afp.evaluate, "classification_eval", "evaluate.classification_eval", after=lambda a, out: [("queries", float(out.n))])
    tracer.patch(afp.evaluate, "greedy_decode", "evaluate.greedy_decode")
    tracer.patch(afp.evaluate, "score_candidates", "evaluate.score_candidates")
    tracer.patch(afp.evaluate, "bleu", "evaluate.bleu")


# Spans whose subtrees make up the workload's items: training steps, or
# in-context eval queries. Per-step metrics count only work inside them.
ITEM_SPANS = ("training.train", "evaluate.translation_eval", "evaluate.classification_eval")


class SpanTable:
    """Vectorised view of a tracer's spans for aggregation."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name = np.frombuffer(tracer.name, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        start = np.frombuffer(tracer.start, dtype=np.float64)
        end = np.frombuffer(tracer.end, dtype=np.float64)
        self.dur = (end - start) * 1000.0  # ms
        child = np.zeros_like(self.dur)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_ms = self.dur - child
        self.notes = tracer.notes

    def of(self, name: str) -> np.ndarray:
        """Boolean mask of the spans with this name."""
        if name not in self.names:
            return np.zeros(self.name.shape, dtype=bool)
        return self.name == self.names.index(name)

    def under(self, *names: str) -> np.ndarray:
        """Mask of spans named one of `names` or nested anywhere below one."""
        mask = np.zeros(self.name.shape, dtype=bool)
        for n in names:
            mask |= self.of(n)
        has_parent = self.parent >= 0
        while True:
            grown = mask.copy()
            grown[has_parent] |= mask[self.parent[has_parent]]
            if (grown == mask).all():
                return mask
            mask = grown

    def note_sum(self, key: str, mask: np.ndarray | None = None) -> float:
        return float(sum(v for i, k, v in self.notes if k == key and (mask is None or mask[i])))


def _div(a: float, b: float) -> float:
    return float(a) / float(b) if b else 0.0


def layer_metrics(table: SpanTable, items: int) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced reps.

    `items` is the number of workload items (training steps, or eval
    queries) the traced reps ran; "per_step" metrics divide by it.
    """
    inside = table.under(*ITEM_SPANS)
    out: dict[str, float] = {}

    def total(name, mask=None, field=None):
        m = table.of(name) if mask is None else table.of(name) & mask
        return float((table.dur if field is None else field)[m].sum()), int(m.sum())

    for op in TENSOR_OPS:
        ms, calls = total("tensor.fwd." + op, inside)
        out[f"tensor.fwd.{op}.ms_per_step"] = _div(ms, items)
        out[f"tensor.fwd.{op}.calls_per_step"] = _div(calls, items)
        out[f"tensor.bwd.{op}.ms_per_step"] = _div(total("tensor.bwd." + op, inside)[0], items)
    out["tensor.backward.self_ms_per_step"] = _div(total("tensor.backward", inside, table.self_ms)[0], items)
    out["tensor.tape_nodes_per_step"] = _div(table.note_sum("tape_nodes", inside), items)

    fwd_self, fwd_calls = total("model.forward", inside, table.self_ms)
    out["model.forward.calls_per_step"] = _div(fwd_calls, items)
    out["model.forward.positions_per_call"] = _div(table.note_sum("positions", inside), fwd_calls)
    out["model.forward.self_ms_per_call"] = _div(fwd_self, fwd_calls)

    for name in ("afp_loss", "mcl_loss", "cif_loss"):
        out[f"losses.{name}.ms_per_step"] = _div(total("losses." + name, inside)[0], items)
    out["optim.adamw_step.ms_per_step"] = _div(total("optim.adamw_step", inside)[0], items)

    out["corpus.generate_corpus.s"] = _div(*total("corpus.generate_corpus")) / 1000.0
    collate_ms = total("corpus.collate_pairs", inside)[0] + total("corpus.collate_cif", inside)[0]
    out["corpus.collate.ms_per_step"] = _div(collate_ms, items)
    for kind in ("pair", "cif"):
        positions = table.note_sum(kind + "_positions")
        out[f"corpus.{kind}_pad_frac"] = _div(positions - table.note_sum(kind + "_valid"), positions)

    out["represent.pool.ms_per_call"] = _div(*total("represent.pool"))
    for name in ("alignment_metric", "uniformity_metric", "retrieval_acc_at_1", "pca2"):
        out[f"represent.{name}.ms"] = _div(*total("represent." + name))

    out["training.heldout_metrics.ms_per_call"] = _div(*total("training.heldout_metrics"))
    out["training.loop.self_ms_per_step"] = _div(total("training.train", None, table.self_ms)[0], items)

    save_ms, saves = total("checkpoint.save_params")
    out["checkpoint.save_params.ms_per_call"] = _div(save_ms, saves)
    out["checkpoint.save_params.bytes"] = _div(table.note_sum("bytes"), saves)
    out["checkpoint.load_params.ms_per_call"] = _div(*total("checkpoint.load_params"))

    in_translation = table.under("evaluate.translation_eval")
    in_classification = table.under("evaluate.classification_eval")
    examples = table.note_sum("examples")
    queries = table.note_sum("queries")
    generated = table.note_sum("generated_tokens")
    translation_ms = total("evaluate.translation_eval")[0]
    out["evaluate.translation_eval.ms_per_example"] = _div(translation_ms, examples)
    out["evaluate.decode_tokens_per_s"] = _div(generated, translation_ms / 1000.0)
    out["evaluate.greedy_decode.ms_per_example"] = _div(total("evaluate.greedy_decode")[0], examples)
    out["evaluate.forward_calls_per_generated_token"] = _div(total("model.forward", in_translation)[1], generated)
    out["evaluate.positions_forwarded_per_generated_token"] = _div(table.note_sum("positions", in_translation), generated)
    out["evaluate.classification_eval.ms_per_query"] = _div(total("evaluate.classification_eval")[0], queries)
    out["evaluate.score_candidates.ms_per_query"] = _div(total("evaluate.score_candidates")[0], queries)
    out["evaluate.forward_calls_per_query"] = _div(total("model.forward", in_classification)[1], queries)
    out["evaluate.bleu.ms"] = _div(*total("evaluate.bleu"))
    return out
