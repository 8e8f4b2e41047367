"""Synthetic twin-language corpora with an exact translator.

All languages in a family share one concept process (a seeded Markov chain);
each language renders concepts through its own bijective token mapping over a
disjoint id range, optionally composed with a word-order transform. That
makes translation exactly invertible, so every pair/sample carries its own
ground truth.

Token id layout: shared specials first, then one language-tag token per
language, then one block of concept tokens per language.
"""

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, UsageError
from .rng import stream

PAD, BOS, SEP = 0, 1, 2
TASK_TAGS = {"copy": 3, "reverse": 4}
VERB_SAME, VERB_DIFF = 5, 6
N_SHARED_SPECIALS = 7

TASKS = tuple(TASK_TAGS)
POLICIES = ("pivot", "pairwise")
ORDER_TRANSFORMS = ("identity", "reverse")


def _apply_order(transform: str, seq: list[int]) -> list[int]:
    if transform == "identity":
        return list(seq)
    if transform == "reverse":
        return list(reversed(seq))
    raise ConfigError(f"unknown order transform {transform!r}")


@dataclass
class LanguageSpec:
    name: str
    base: int  # first concept-token id for this language
    perm: np.ndarray  # concept -> offset within the block (a bijection)
    transform: str = "identity"

    def __post_init__(self):
        if self.transform not in ORDER_TRANSFORMS:
            raise ConfigError(f"unknown order transform {self.transform!r}")
        perm = np.asarray(self.perm, dtype=np.int64)
        if sorted(perm.tolist()) != list(range(perm.size)):
            raise ConfigError(f"language {self.name}: perm is not a bijection")
        self.perm = perm
        inv = np.empty_like(perm)
        inv[perm] = np.arange(perm.size)
        self._inv = inv

    @property
    def concept_count(self) -> int:
        return int(self.perm.size)

    def token_of(self, concept: int) -> int:
        return self.base + int(self.perm[concept])

    def concept_of(self, token: int) -> int:
        return int(self._inv[token - self.base])

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
        for l in self.languages:
            if l.concept_count != self.concept_count:
                raise ConfigError(f"language {l.name}: permutation size mismatch")
        if self.transition.shape != (self.concept_count, self.concept_count):
            raise ConfigError("transition matrix shape mismatch")
        if not np.allclose(self.transition.sum(axis=1), 1.0, atol=1e-12):
            raise ConfigError("transition rows must sum to 1")
        if not np.isclose(self.start_dist.sum(), 1.0, atol=1e-12):
            raise ConfigError("start distribution must sum to 1")
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
        return _apply_order(spec.transform, [spec.token_of(c) for c in concepts])

    def parse(self, sent, lang: str) -> list[int]:
        spec = self.language(lang)
        for pos, tok in enumerate(sent):
            if not spec.owns(tok):
                raise DataError(f"token {tok} at position {pos} is not in language {lang!r}")
        return [spec.concept_of(t) for t in _apply_order(spec.transform, list(sent))]

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

    @classmethod
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
    if len(specs) < 2:
        raise ConfigError("need at least 2 languages")

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


def sample_concepts(family: TwinLanguageFamily, rng: np.random.Generator) -> list[int]:
    lo, hi = family.length_bounds
    length = int(rng.integers(lo, hi + 1))
    seq = [int(rng.choice(family.concept_count, p=family.start_dist))]
    for _ in range(length - 1):
        seq.append(int(rng.choice(family.concept_count, p=family.transition[seq[-1]])))
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

    @classmethod
    def from_json(cls, obj: dict) -> "TranslationPair":
        return cls(
            src_lang=obj["src"]["lang"],
            tgt_lang=obj["tgt"]["lang"],
            src_tokens=list(obj["src"]["tokens"]),
            tgt_tokens=list(obj["tgt"]["tokens"]),
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

    @classmethod
    def from_json(cls, obj: dict) -> "CifSample":
        return cls(
            source_lang=obj["source_lang"],
            target_lang=obj["target_lang"],
            input_tokens=list(obj["input_tokens"]),
            loss_mask=[bool(m) for m in obj["loss_mask"]],
        )


def cif_prompt(family: TwinLanguageFamily, task: str, context, tgt_lang: str) -> list[int]:
    """Everything up to and including the prompt SEP (what generation conditions on)."""
    return [BOS, TASK_TAGS[task]] + list(context) + [family.langtag[tgt_lang], SEP]


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
    if task not in TASK_TAGS:
        raise UsageError(f"unknown task {task!r}")
    context = sample_sentence(family, src_lang, rng)
    if rng.random() < p_src:
        tgt_lang = src_lang
    else:
        others = [n for n in family.lang_names if n != src_lang]
        tgt_lang = str(others[rng.integers(len(others))])
    response_src = context if task == "copy" else list(reversed(context))
    response = translate(family, response_src, src_lang, tgt_lang)
    tokens = cif_prompt(family, task, context, tgt_lang) + response + [SEP]
    n_prompt = len(tokens) - len(response) - 1
    mask = [False] * n_prompt + [True] * (len(response) + 1)
    return CifSample(source_lang=src_lang, target_lang=tgt_lang, input_tokens=tokens, loss_mask=mask)


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


def _pad_matrix(seqs: list[list[int]], pad_token: int) -> tuple[np.ndarray, np.ndarray]:
    width = max(len(s) for s in seqs)
    tokens = np.full((len(seqs), width), pad_token, dtype=np.int64)
    pad_mask = np.zeros((len(seqs), width), dtype=bool)
    for i, s in enumerate(seqs):
        tokens[i, : len(s)] = s
        pad_mask[i, : len(s)] = True
    return tokens, pad_mask


def collate_cif(samples: list[CifSample], pad_token: int = PAD) -> TokenBatch:
    tokens, pad_mask = _pad_matrix([s.input_tokens for s in samples], pad_token)
    loss_mask = np.zeros_like(pad_mask)
    for i, s in enumerate(samples):
        target = np.asarray(s.loss_mask, dtype=bool)
        loss_mask[i, : len(s.input_tokens) - 1] = target[1:]  # shift to prediction positions
    return TokenBatch(tokens=tokens, pad_mask=pad_mask, loss_mask=loss_mask)


def collate_pairs(pairs: list[TranslationPair], pad_token: int = PAD) -> PairBatch:
    src_tokens, src_pad = _pad_matrix([p.src_tokens for p in pairs], pad_token)
    tgt_tokens, tgt_pad = _pad_matrix([p.tgt_tokens for p in pairs], pad_token)
    return PairBatch(
        src_tokens=src_tokens,
        src_pad=src_pad,
        tgt_tokens=tgt_tokens,
        tgt_pad=tgt_pad,
        langs=[(p.src_lang, p.tgt_lang) for p in pairs],
    )


def batch_iter(dataset, batch_size: int, seed: int, pad_token: int = PAD):
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
            yield collate_cif(chunk, pad_token)
        elif isinstance(chunk[0], TranslationPair):
            yield collate_pairs(chunk, pad_token)
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
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json() if hasattr(rec, "to_json") else rec, sort_keys=True))
            fh.write("\n")
            n += 1
    return n


def load_jsonl(path, parser):
    with open(path, "r", encoding="utf-8") as fh:
        return [parser(json.loads(line)) for line in fh if line.strip()]
