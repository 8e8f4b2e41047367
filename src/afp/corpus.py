"""Synthetic twin-language corpora with an exact translator.

All languages in a family share one concept process (a seeded Markov chain);
each language renders concepts through its own bijective token mapping over a
disjoint id range, optionally composed with a word-order transform. That
makes translation exactly invertible, so every pair/sample carries its own
ground truth.

Token id layout: shared specials first, then one language-tag token per
language, then one block of concept tokens per language.
"""

import bisect
import functools
import itertools
import json
import operator
from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_write
from .errors import AfpError, CheckpointError, ConfigError, DataError, UsageError
from .rng import stream

PAD, BOS, SEP = 0, 1, 2
TASK_TAGS = {"copy": 3, "reverse": 4}
VERB_SAME, VERB_DIFF = 5, 6
N_SHARED_SPECIALS = 7

TASKS = tuple(TASK_TAGS)
POLICIES = ("pivot", "pairwise")
ORDER_TRANSFORMS = ("identity", "reverse")
# Generator.choice's tolerance on the sum of a probability vector.
PROB_SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def _apply_order(transform: str, seq: list[int]) -> list[int]:
    if transform == "identity":
        return list(seq)
    if transform == "reverse":
        return list(reversed(seq))
    raise ConfigError(f"unknown order transform {transform!r}")


def _record_parser(build):
    """from_json classmethod whose malformed input raises CheckpointError (exit 5)."""

    @functools.wraps(build)
    def parse(cls, obj):
        try:
            return build(cls, obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed {cls.__name__} record: {type(exc).__name__}: {exc}") from None

    return classmethod(parse)


def _token_ids(seq) -> list[int]:
    return [operator.index(t) for t in seq]


@dataclass
class LanguageSpec:
    name: str
    base: int  # first concept-token id for this language
    perm: np.ndarray  # concept -> offset within the block (a bijection)
    transform: str = "identity"

    def __post_init__(self):
        if self.transform not in ORDER_TRANSFORMS:
            raise ConfigError(f"unknown order transform {self.transform!r}")
        base = np.asarray(self.base)
        if base.ndim or base.dtype.kind not in "iu":
            raise ConfigError(f"language {self.name}: base must be an integer")
        self.base = int(base)
        perm = np.asarray(self.perm)
        if perm.dtype.kind not in "iu":
            raise ConfigError(f"language {self.name}: perm entries must be integers")
        perm = perm.astype(np.int64)
        if sorted(perm.tolist()) != list(range(perm.size)):
            raise ConfigError(f"language {self.name}: perm is not a bijection")
        self.perm = perm
        inv = np.empty_like(perm)
        inv[perm] = np.arange(perm.size)
        # both maps as Python lists: a list index per token is cheaper than a numpy scalar read
        self._tokens = [self.base + p for p in perm.tolist()]
        self._concepts = inv.tolist()

    @property
    def concept_count(self) -> int:
        return int(self.perm.size)

    def token_of(self, concept: int) -> int:
        return self._tokens[concept]

    def concept_of(self, token: int) -> int:
        return self._concepts[token - self.base]

    def owns(self, token: int) -> bool:
        return self.base <= token < self.base + self.concept_count


@dataclass
class TwinLanguageFamily:
    concept_count: int
    languages: list[LanguageSpec]
    start_dist: np.ndarray  # [C]
    transition: np.ndarray  # [C, C], rows sum to 1
    length_bounds: tuple[int, int]
    seed: int
    langtag: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        self.start_dist = np.asarray(self.start_dist, dtype=np.float64)
        self.transition = np.asarray(self.transition, dtype=np.float64)
        self.validate()
        # Inverse-CDF tables for sample_concepts, one per distribution.
        self._start_cdf = _choice_cdf(self.start_dist)
        self._transition_cdf = [_choice_cdf(row) for row in self.transition]

    def validate(self):
        if self.concept_count < 8:
            raise ConfigError("concept_count must be >= 8")
        if len(self.languages) < 2:
            raise ConfigError("need at least 2 languages")
        names = [l.name for l in self.languages]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate language names")
        spans = sorted((l.base, l.base + l.concept_count, l.name) for l in self.languages)
        floor = N_SHARED_SPECIALS + len(self.languages)
        for lo, hi, name in spans:
            if lo < floor:
                raise ConfigError(f"language {name}: token range overlaps reserved ids")
        for (lo1, hi1, n1), (lo2, _hi2, n2) in zip(spans, spans[1:]):
            if lo2 < hi1:
                raise ConfigError(f"overlapping token ranges: {n1} and {n2}")
        if set(self.langtag) != set(names):
            raise ConfigError(f"langtag names {sorted(map(str, self.langtag))} are not the languages {sorted(names)}")
        try:
            tags = sorted(operator.index(t) for t in self.langtag.values())
        except TypeError:
            tags = None
        if tags != list(range(N_SHARED_SPECIALS, floor)):
            raise ConfigError(f"langtag ids must be distinct integers in [{N_SHARED_SPECIALS}, {floor})")
        for l in self.languages:
            if l.concept_count != self.concept_count:
                raise ConfigError(f"language {l.name}: permutation size mismatch")
        if self.start_dist.shape != (self.concept_count,):
            raise ConfigError("start distribution shape mismatch")
        if self.transition.shape != (self.concept_count, self.concept_count):
            raise ConfigError("transition matrix shape mismatch")
        # the checks Generator.choice made on every draw, made once for every row
        for what, probs in (("start distribution", self.start_dist[None]), ("transition rows", self.transition)):
            if not (np.isfinite(probs).all() and (probs >= 0).all()):
                raise ConfigError(f"{what} must be finite and non-negative")
            if np.abs(probs.sum(axis=1) - 1.0).max() > PROB_SUM_ATOL:
                raise ConfigError(f"{what} must sum to 1")
        lo, hi = self.length_bounds
        if not (1 <= lo <= hi):
            raise ConfigError(f"bad length bounds {self.length_bounds}")

    @property
    def vocab_size(self) -> int:
        return max(l.base + l.concept_count for l in self.languages)

    @property
    def lang_names(self) -> list[str]:
        return [l.name for l in self.languages]

    def language(self, name: str) -> LanguageSpec:
        for l in self.languages:
            if l.name == name:
                return l
        raise UsageError(f"unknown language {name!r}")

    def lang_of_token(self, token: int) -> str | None:
        for l in self.languages:
            if l.owns(token):
                return l.name
        return None

    def render(self, concepts, lang: str) -> list[int]:
        spec = self.language(lang)
        tokens = spec._tokens
        return _apply_order(spec.transform, [tokens[c] for c in concepts])

    def parse(self, sent, lang: str) -> list[int]:
        spec = self.language(lang)
        concepts = spec._concepts
        out = []
        for pos, tok in enumerate(sent):
            if not spec.owns(tok):
                raise DataError(f"token {tok} at position {pos} is not in language {lang!r}")
            out.append(concepts[tok - spec.base])
        return _apply_order(spec.transform, out)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "concept_count": self.concept_count,
            "length_bounds": list(self.length_bounds),
            "languages": [
                {
                    "name": l.name,
                    "base": l.base,
                    "transform": l.transform,
                    "perm": l.perm.tolist(),
                }
                for l in self.languages
            ],
            "langtag": self.langtag,
            "start_dist": self.start_dist.tolist(),
            "transition": self.transition.tolist(),
        }

    @_record_parser
    def from_json(cls, obj: dict) -> "TwinLanguageFamily":
        langs = [
            LanguageSpec(name=d["name"], base=d["base"], perm=np.asarray(d["perm"]), transform=d["transform"])
            for d in obj["languages"]
        ]
        return cls(
            concept_count=obj["concept_count"],
            languages=langs,
            start_dist=np.asarray(obj["start_dist"]),
            transition=np.asarray(obj["transition"]),
            length_bounds=tuple(obj["length_bounds"]),
            seed=obj["seed"],
            langtag=dict(obj["langtag"]),
        )


def make_family(concept_count: int, langs_config, seed: int, length_bounds=(3, 8)) -> TwinLanguageFamily:
    """Build a family from [(name, transform), ...] or plain names (identity)."""
    specs = []
    for entry in langs_config:
        if isinstance(entry, str):
            specs.append((entry, "identity"))
        else:
            name, transform = entry
            specs.append((str(name), str(transform)))

    rng = stream(seed, "family")
    langtag = {name: N_SHARED_SPECIALS + i for i, (name, _) in enumerate(specs)}
    first_base = N_SHARED_SPECIALS + len(specs)
    languages = [
        LanguageSpec(
            name=name,
            base=first_base + i * concept_count,
            perm=rng.permutation(concept_count),
            transform=transform,
        )
        for i, (name, transform) in enumerate(specs)
    ]
    start = rng.uniform(0.5, 1.5, size=concept_count)
    start /= start.sum()
    trans = rng.uniform(0.5, 1.5, size=(concept_count, concept_count))
    trans /= trans.sum(axis=1, keepdims=True)
    return TwinLanguageFamily(
        concept_count=concept_count,
        languages=languages,
        start_dist=start,
        transition=trans,
        length_bounds=tuple(length_bounds),
        seed=seed,
        langtag=langtag,
    )


def _choice_cdf(p: np.ndarray) -> list[float]:
    """The table Generator.choice(p=p) builds on every call."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def sample_concepts(family: TwinLanguageFamily, rng: np.random.Generator) -> list[int]:
    """Draw a length, then each concept by inverse CDF on the family's tables.

    The draws equal a loop of `rng.choice(concept_count, p=row)` calls: choice
    takes one `random()` per call and returns `searchsorted(cdf, u, side="right")`.
    Drawing the uniforms in one call yields the same doubles in the same order.
    """
    lo, hi = family.length_bounds
    length = int(rng.integers(lo, hi + 1))
    first, *rest = rng.random(length).tolist()
    rows = family._transition_cdf
    seq = [bisect.bisect_right(family._start_cdf, first)]
    for u in rest:
        seq.append(bisect.bisect_right(rows[seq[-1]], u))
    return seq


def sample_sentence(family: TwinLanguageFamily, lang: str, rng: np.random.Generator) -> list[int]:
    return family.render(sample_concepts(family, rng), lang)


def translate(family: TwinLanguageFamily, sent, src_lang: str, tgt_lang: str) -> list[int]:
    """Exact translation: parse out of src, render into tgt."""
    return family.render(family.parse(sent, src_lang), tgt_lang)


@dataclass
class TranslationPair:
    src_lang: str
    tgt_lang: str
    src_tokens: list[int]
    tgt_tokens: list[int]

    def to_json(self) -> dict:
        return {
            "src": {"lang": self.src_lang, "tokens": self.src_tokens},
            "tgt": {"lang": self.tgt_lang, "tokens": self.tgt_tokens},
        }

    @_record_parser
    def from_json(cls, obj: dict) -> "TranslationPair":
        return cls(
            src_lang=obj["src"]["lang"],
            tgt_lang=obj["tgt"]["lang"],
            src_tokens=_token_ids(obj["src"]["tokens"]),
            tgt_tokens=_token_ids(obj["tgt"]["tokens"]),
        )


def language_combinations(family: TwinLanguageFamily, policy: str, pivot_lang: str | None = None):
    """Ordered (src, tgt) combinations under a pairing policy."""
    names = family.lang_names
    if len(names) < 2:
        raise UsageError("pairing needs at least 2 languages")
    if policy == "pivot":
        if pivot_lang is None or pivot_lang not in names:
            raise UsageError(f"pivot language {pivot_lang!r} not in family")
        return [(pivot_lang, other) for other in names if other != pivot_lang]
    if policy == "pairwise":
        return list(itertools.combinations(names, 2))
    raise UsageError(f"unknown pairing policy {policy!r}")


def make_translation_pairs(
    family: TwinLanguageFamily,
    policy: str,
    n_per_combination: int,
    rng: np.random.Generator,
    pivot_lang: str | None = None,
) -> list[TranslationPair]:
    pairs = []
    for a, b in language_combinations(family, policy, pivot_lang):
        for _ in range(n_per_combination):
            concepts = sample_concepts(family, rng)
            pairs.append(
                TranslationPair(
                    src_lang=a,
                    tgt_lang=b,
                    src_tokens=family.render(concepts, a),
                    tgt_tokens=family.render(concepts, b),
                )
            )
    return pairs


@dataclass
class CifSample:
    """One instruction sample: context in `source_lang`, a language tag, and a
    response in `target_lang`, terminated with SEP.

    `loss_mask` marks the scored *target* positions: every response token plus
    the terminal SEP. All of them lie strictly after the prompt SEP.
    """

    source_lang: str
    target_lang: str
    input_tokens: list[int]
    loss_mask: list[bool]

    def response_tokens(self) -> list[int]:
        """The response proper (masked targets with the terminal SEP stripped)."""
        masked = [t for t, m in zip(self.input_tokens, self.loss_mask) if m]
        return masked[:-1]

    def to_json(self) -> dict:
        return {
            "source_lang": self.source_lang,
            "target_lang": self.target_lang,
            "input_tokens": self.input_tokens,
            "loss_mask": self.loss_mask,
        }

    @_record_parser
    def from_json(cls, obj: dict) -> "CifSample":
        sample = cls(
            source_lang=obj["source_lang"],
            target_lang=obj["target_lang"],
            input_tokens=_token_ids(obj["input_tokens"]),
            loss_mask=[bool(m) for m in obj["loss_mask"]],
        )
        if len(sample.loss_mask) != len(sample.input_tokens):
            raise ValueError(f"{len(sample.input_tokens)} input tokens but {len(sample.loss_mask)} loss-mask entries")
        if not any(sample.loss_mask[1:]):
            raise ValueError("loss_mask marks no token after the first, so the record scores no prediction")
        return sample


def cif_prompt(family: TwinLanguageFamily, task: str, context, tgt_lang: str) -> list[int]:
    """Everything up to and including the prompt SEP (what generation conditions on)."""
    return [BOS, TASK_TAGS[task]] + list(context) + [family.langtag[tgt_lang], SEP]


def instruction(family: TwinLanguageFamily, task: str, context, src_lang: str, tgt_lang: str):
    """(prompt, response) for a context in src_lang: the cif_prompt, and the
    exact answer in tgt_lang, which is the context translated ("copy") or the
    reversed context translated ("reverse"), without the terminal SEP."""
    if task not in TASK_TAGS:
        raise UsageError(f"unknown task {task!r}")
    answer = list(context) if task == "copy" else list(reversed(context))
    return cif_prompt(family, task, context, tgt_lang), translate(family, answer, src_lang, tgt_lang)


def make_cif_sample(
    family: TwinLanguageFamily,
    task: str,
    src_lang: str,
    p_src: float,
    rng: np.random.Generator,
) -> CifSample:
    """Sample a context in src_lang; with probability p_src answer in the same
    language, otherwise in a uniformly drawn other language."""
    if not 0.0 <= p_src <= 1.0:
        raise UsageError(f"p_src must be in [0, 1], got {p_src}")
    context = sample_sentence(family, src_lang, rng)
    if rng.random() < p_src:
        tgt_lang = src_lang
    else:
        others = [n for n in family.lang_names if n != src_lang]
        tgt_lang = str(others[rng.integers(len(others))])
    prompt, response = instruction(family, task, context, src_lang, tgt_lang)
    mask = [False] * len(prompt) + [True] * (len(response) + 1)
    return CifSample(source_lang=src_lang, target_lang=tgt_lang, input_tokens=prompt + response + [SEP], loss_mask=mask)


@dataclass
class TokenBatch:
    """Right-padded token matrix with validity and prediction masks.

    loss_mask here is in *prediction* position convention (position t scores
    tokens[t+1]), i.e. the per-sample target masks shifted left by one.
    """

    tokens: np.ndarray  # [b, s] int
    pad_mask: np.ndarray  # [b, s] bool
    loss_mask: np.ndarray  # [b, s] bool


@dataclass
class PairBatch:
    src_tokens: np.ndarray
    src_pad: np.ndarray
    tgt_tokens: np.ndarray
    tgt_pad: np.ndarray
    langs: list[tuple[str, str]]


def pad_matrix(seqs: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad with PAD: a [n, width] token matrix and its valid-position mask."""
    width = max(len(s) for s in seqs)
    tokens = np.full((len(seqs), width), PAD, dtype=np.int64)
    pad_mask = np.zeros((len(seqs), width), dtype=bool)
    for i, s in enumerate(seqs):
        tokens[i, : len(s)] = s
        pad_mask[i, : len(s)] = True
    return tokens, pad_mask


def collate_cif(samples: list[CifSample]) -> TokenBatch:
    tokens, pad_mask = pad_matrix([s.input_tokens for s in samples])
    loss_mask = np.zeros_like(pad_mask)
    for i, s in enumerate(samples):
        target = np.asarray(s.loss_mask, dtype=bool)
        loss_mask[i, : len(s.input_tokens) - 1] = target[1:]  # shift to prediction positions
    return TokenBatch(tokens=tokens, pad_mask=pad_mask, loss_mask=loss_mask)


def collate_pairs(pairs: list[TranslationPair]) -> PairBatch:
    src_tokens, src_pad = pad_matrix([p.src_tokens for p in pairs])
    tgt_tokens, tgt_pad = pad_matrix([p.tgt_tokens for p in pairs])
    return PairBatch(
        src_tokens=src_tokens,
        src_pad=src_pad,
        tgt_tokens=tgt_tokens,
        tgt_pad=tgt_pad,
        langs=[(p.src_lang, p.tgt_lang) for p in pairs],
    )


def batch_iter(dataset, batch_size: int, seed: int):
    """One epoch over the dataset: deterministic shuffle, right-padded batches.

    CifSample datasets yield TokenBatch; TranslationPair datasets yield
    PairBatch. Every sample appears exactly once per epoch.
    """
    if batch_size < 1:
        raise UsageError("batch_size must be >= 1")
    order = stream(seed, "batch").permutation(len(dataset))
    for lo in range(0, len(dataset), batch_size):
        chunk = [dataset[i] for i in order[lo : lo + batch_size]]
        if isinstance(chunk[0], CifSample):
            yield collate_cif(chunk)
        elif isinstance(chunk[0], TranslationPair):
            yield collate_pairs(chunk)
        else:
            raise UsageError(f"cannot batch items of type {type(chunk[0]).__name__}")


def audit_pairs(pairs: list[TranslationPair]) -> dict:
    combos = sorted({tuple(sorted((p.src_lang, p.tgt_lang))) for p in pairs})
    return {"n_pairs": len(pairs), "n_lang_combinations": len(combos), "combinations": combos}


def audit_cif(samples: list[CifSample]) -> dict:
    same = sum(1 for s in samples if s.source_lang == s.target_lang)
    return {
        "n_samples": len(samples),
        "target_eq_source_frac": same / len(samples) if samples else 0.0,
    }


def save_jsonl(path, records) -> int:
    n = 0
    with atomic_write(path) as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json() if hasattr(rec, "to_json") else rec, sort_keys=True))
            fh.write("\n")
            n += 1
    return n


def load_jsonl(path, parser):
    """Parse each non-blank line of a UTF-8 JSONL file.

    An error names the file and line: malformed JSON raises CheckpointError,
    and a package error from parser keeps its type.
    """
    records = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                records.append(parser(json.loads(line.decode("utf-8"))))
            except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
                raise CheckpointError(f"{path} line {lineno}: {exc}") from None
            except AfpError as exc:
                raise type(exc)(f"{path} line {lineno}: {exc}") from None
    return records
