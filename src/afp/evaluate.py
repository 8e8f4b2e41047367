"""In-context evaluation: candidate scoring with verbalizer templates,
greedy translation with exact references, and token-level corpus BLEU.

Candidates are ranked by summed next-token log-likelihood (verbalizers here
are equal-length by construction, so no length normalization is needed);
ties resolve to the lowest index.
"""

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import corpus as C
from .errors import ShapeError, UsageError
from .model import KVCache, ModelParams, forward
from .rng import stream
from .workers import fan_out


@dataclass
class Template:
    k: int
    verbalizer: dict  # label -> candidate token list

    def __post_init__(self):
        if self.k < 0:
            raise UsageError("k must be >= 0")
        rendered = [tuple(v) for v in self.verbalizer.values()]
        if len(set(rendered)) != len(rendered):
            raise UsageError("verbalizer outputs must be distinct")

    @property
    def labels(self) -> list:
        return list(self.verbalizer)

    @property
    def candidates(self) -> list:
        return [list(self.verbalizer[label]) for label in self.labels]


@dataclass
class EvalResult:
    task: str
    n: int
    score: float
    records: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise UsageError(f"score {self.score} outside [0, 1]")

    def to_json(self) -> dict:
        return {
            "task": self.task,
            "n": self.n,
            "score": self.score,
            "details": self.details,
            "examples": self.records,
        }


def build_prompt(template: Template, demos, query_input) -> list[int]:
    """[demo_1 + SEP + ... + demo_k + SEP + query]; demos are (input, label)."""
    if len(demos) != template.k:
        raise UsageError(f"template.k={template.k} but got {len(demos)} demos")
    prompt: list[int] = []
    for demo_input, label in demos:
        prompt += list(demo_input) + list(template.verbalizer[label]) + [C.SEP]
    prompt += list(query_input)
    return prompt


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def candidate_loglik(logits: np.ndarray, prompt_len: int, candidate) -> float:
    """Sum of log P(candidate_i | prefix) from a [seq, vocab] logits matrix
    for the sequence prompt + candidate; rows from prompt_len + len(candidate) - 1
    on are never read, so the logits of prompt + candidate[:-1] suffice.
    Invariant to per-position constant logit offsets (softmax shift invariance)."""
    if prompt_len < 1:
        raise UsageError("candidate_loglik: empty prompt")
    start = prompt_len - 1
    logp = _log_softmax(np.asarray(logits)[start : start + len(candidate)].astype(np.float64))
    total = 0.0
    for i, tok in enumerate(candidate):
        total += logp[i, tok]
    return float(total)


def score_candidates(params: ModelParams, prompt, candidates) -> tuple[int, list[float]]:
    """Log-likelihood of each candidate continuation; argmax wins, ties to
    the lowest index.

    The last token of a candidate is scored but never fed, so one
    right-padded forward over the distinct rows prompt + candidate[:-1]
    scores them all; single-token candidates share the bare prompt.
    """
    if len(candidates) < 2:
        raise UsageError("need at least 2 candidates")
    prompt = list(prompt)
    if not prompt:
        raise UsageError("score_candidates: empty prompt")
    limit = params.config.max_seq_len
    rows: dict[tuple, int] = {}
    for cand in candidates:
        if len(prompt) + len(cand) > limit:
            raise ShapeError(f"prompt+candidate length {len(prompt) + len(cand)} exceeds max_seq_len {limit}")
        rows.setdefault(tuple(cand[:-1]), len(rows))
    tokens, pad = C.pad_matrix([prompt + list(fed) for fed in rows])
    logits = forward(params, tokens, pad).logits.data
    scores = []
    for cand in candidates:
        fed = tuple(cand[:-1])
        row = logits[rows[fed], : len(prompt) + len(fed)]
        scores.append(candidate_loglik(row, len(prompt), cand))
    return int(np.argmax(scores)), scores


def greedy_decode(params: ModelParams, prompt, max_new_tokens: int, stop_token: int = C.SEP) -> list[int]:
    """Greedy continuation of prompt; stops on stop_token, after
    max_new_tokens, or once prompt plus output fill max_seq_len. Returns only
    the generated tokens (without stop_token).

    The prompt is fed once, then one token per step against a KV cache.
    """
    seq = list(prompt)
    out: list[int] = []
    limit = params.config.max_seq_len
    cache = KVCache(params)
    feed = seq
    for _ in range(max_new_tokens):
        if len(seq) >= limit:
            break
        res = forward(params, np.asarray([feed]), cache=cache)
        nxt = int(np.argmax(res.logits.data[0, -1]))
        if nxt == stop_token:
            break
        out.append(nxt)
        seq.append(nxt)
        feed = [nxt]
    return out


def _emits_two_sequences(family: C.TwinLanguageFamily) -> bool:
    """Two lengths, or a fork in the start support or in a transition row
    that the one fixed-length path reaches before its last concept."""
    lo, hi = family.length_bounds
    if hi > lo:
        return True
    support = np.flatnonzero(family.start_dist)
    for _ in range(lo - 1):
        if support.size > 1:
            return True
        support = np.flatnonzero(family.transition[support[0]])
    return support.size > 1


@dataclass
class PairClassificationTask:
    """Same-concept vs different-concept sentence pairs across two languages.

    Inputs are s (lang_a) + t (lang_b); label "same" iff t carries the same
    concept sequence as s. Verbalized by two reserved tokens.
    """

    family: C.TwinLanguageFamily
    lang_a: str
    lang_b: str
    name: str = "same-concept"

    def __post_init__(self):
        # make_example redraws until the two sequences differ
        if not _emits_two_sequences(self.family):
            raise UsageError("classification needs a family that can emit two different concept sequences")

    def verbalizer(self) -> dict:
        return {"same": [C.VERB_SAME], "diff": [C.VERB_DIFF]}

    def make_example(self, rng) -> tuple[list[int], str]:
        s = C.sample_sentence(self.family, self.lang_a, rng)
        if rng.random() < 0.5:
            return s + C.translate(self.family, s, self.lang_a, self.lang_b), "same"
        while True:
            t = C.sample_sentence(self.family, self.lang_b, rng)
            if self.family.parse(t, self.lang_b) != self.family.parse(s, self.lang_a):
                return s + t, "diff"


def classification_eval(
    params: ModelParams,
    task_spec,
    template: Template,
    n: int,
    seed: int,
    scorer=None,
) -> EvalResult:
    """Accuracy over n fresh queries with template.k demonstrations drawn
    from a disjoint stream. `scorer(prompt, candidates) -> (index, loglikes)`
    defaults to model scoring, which `fan_out` spreads over worker
    processes; a caller's scorer runs in this process, in query order.
    n < 1, or a prompt that cannot fit max_seq_len with its longest
    candidate, raises UsageError; every prompt is built and checked before
    the first is scored."""
    if n < 1:
        raise UsageError(f"classification needs at least one query, got n={n}")
    demo_rng = stream(seed, "demos")
    query_rng = stream(seed, "queries")
    labels = template.labels
    candidates = template.candidates
    longest = max(len(c) for c in candidates)
    limit = params.config.max_seq_len
    queries = []
    for _ in range(n):
        demos = [task_spec.make_example(demo_rng) for _ in range(template.k)]
        query, label = task_spec.make_example(query_rng)
        prompt = [C.BOS] + build_prompt(template, demos, query)
        if len(prompt) + longest > limit:
            raise UsageError(
                f"a {len(prompt)}-token prompt plus a {longest}-token candidate exceeds max_seq_len {limit}; "
                f"lower eval.k_shot ({template.k})"
            )
        queries.append((prompt, label))
    prompts = [prompt for prompt, _ in queries]
    if scorer is None:
        scored = fan_out(lambda prompt: score_candidates(params, prompt, candidates), prompts)
    else:
        scored = [scorer(prompt, candidates) for prompt in prompts]
    hits = 0
    records = []
    for i, ((_, label), (chosen, scores)) in enumerate(zip(queries, scored)):
        ok = labels[chosen] == label
        hits += ok
        records.append({"index": i, "label": label, "chosen": int(chosen), "loglik": list(map(float, scores))})
    return EvalResult(task=task_spec.name, n=n, score=hits / n, records=records)


def check_max_new_tokens(max_new_tokens: int, longest: int) -> None:
    """UsageError unless max_new_tokens holds a reference of `longest` tokens,
    the longest sentence of the family (a reference is as long as its source)."""
    if max_new_tokens < longest:
        raise UsageError(
            f"eval.max_new_tokens {max_new_tokens} cannot hold a {longest}-token reference; "
            f"raise it to at least {longest}"
        )


def translation_eval(
    params: ModelParams,
    family: C.TwinLanguageFamily,
    src_lang: str,
    tgt_lang: str,
    n: int,
    max_new_tokens: int,
    k_shot: int = 0,
    seed: int = 0,
    task: str = "copy",
    generate_fn=None,
) -> EvalResult:
    """Greedy translation against the exact translator's references.

    Prompts mirror the instruction-sample layout (task tag, source sentence,
    target-language tag, SEP), with k_shot completed demonstrations in front.
    Scores: exact-match rate (primary) and corpus BLEU. Raises UsageError
    for n < 1, for max_new_tokens below the longest sentence (a reference
    is as long as its source), or for a prompt that leaves fewer positions
    than its reference needs; every prompt is built and checked before the
    first is decoded. The default greedy decodes fan out over worker
    processes (`fan_out`); a caller's generate_fn runs in this process, in
    example order.
    """
    if n < 1:
        raise UsageError(f"translation needs at least one example, got n={n}")
    check_max_new_tokens(max_new_tokens, family.length_bounds[1])
    rng = stream(seed, "translation")
    examples = []
    for _ in range(n):
        demo_part: list[int] = []
        for _ in range(k_shot):
            d_prompt, d_ref = C.instruction(family, task, C.sample_sentence(family, src_lang, rng), src_lang, tgt_lang)
            demo_part += d_prompt[1:] + d_ref + [C.SEP]
        src = C.sample_sentence(family, src_lang, rng)
        query, ref = C.instruction(family, task, src, src_lang, tgt_lang)
        prompt = [C.BOS] + demo_part + query[1:]
        if len(prompt) + len(ref) > params.config.max_seq_len:
            raise UsageError(
                f"a {len(prompt)}-token prompt leaves no room for its {len(ref)}-token reference within "
                f"max_seq_len {params.config.max_seq_len}; lower eval.k_shot ({k_shot})"
            )
        examples.append((src, ref, prompt))
    prompts = [prompt for _, _, prompt in examples]
    if generate_fn is None:
        hyps = fan_out(lambda prompt: greedy_decode(params, prompt, max_new_tokens, stop_token=C.SEP), prompts)
    else:
        hyps = [list(generate_fn(prompt)) for prompt in prompts]
    refs = [ref for _, ref, _ in examples]
    records = [
        {"index": i, "src": src, "ref": ref, "hyp": hyp, "exact": hyp == ref}
        for i, ((src, ref, _), hyp) in enumerate(zip(examples, hyps))
    ]
    score = sum(r["exact"] for r in records) / n
    return EvalResult(
        task="translation",
        n=n,
        score=score,
        records=records,
        details={"exact_match": score, "bleu": bleu(hyps, refs)},
    )


def _ngram_counts(tokens, order: int) -> Counter:
    return Counter(tuple(tokens[i : i + order]) for i in range(len(tokens) - order + 1))


def bleu(hypotheses, references) -> float:
    """Corpus BLEU in [0, 1] over token lists, one reference per hypothesis.

    Modified n-gram precision with clipping, n up to min(4, shortest
    reference); brevity penalty exp(1 - r/c) when c < r; plain geometric
    mean, so any zero precision zeroes the score.
    """
    if len(hypotheses) == 0:
        raise UsageError("bleu: empty corpus")
    if len(hypotheses) != len(references):
        raise UsageError(f"bleu: {len(hypotheses)} hypotheses vs {len(references)} references")
    max_order = min(4, min(len(r) for r in references))
    if max_order == 0:
        raise UsageError("bleu: empty reference")
    c = sum(len(h) for h in hypotheses)
    r = sum(len(rf) for rf in references)
    if c == 0:
        return 0.0
    log_sum = 0.0
    for order in range(1, max_order + 1):
        matched, total = 0, 0
        for hyp, ref in zip(hypotheses, references):
            hc = _ngram_counts(hyp, order)
            rc = _ngram_counts(ref, order)
            matched += sum(min(count, rc[g]) for g, count in hc.items())
            total += max(len(hyp) - order + 1, 0)
        if total == 0 or matched == 0:
            return 0.0
        log_sum += math.log(matched / total) / max_order
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return bp * math.exp(log_sum)
