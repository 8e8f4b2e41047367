import itertools
import json

import numpy as np
import pytest

from afp import corpus as C
from afp.config import CorpusConfig, RunConfig
from afp.errors import CheckpointError, ConfigError, DataError, UsageError
from afp.rng import stream
from afp.training import generate_corpus


@pytest.fixture(scope="module")
def family():
    return C.make_family(16, [("A", "identity"), ("B", "reverse"), ("Cc", "identity")], seed=42, length_bounds=(3, 6))


class TestFamily:
    def test_same_seed_identical(self, family):
        again = C.make_family(16, [("A", "identity"), ("B", "reverse"), ("Cc", "identity")], seed=42, length_bounds=(3, 6))
        assert json.dumps(family.to_json(), sort_keys=True) == json.dumps(again.to_json(), sort_keys=True)

    def test_different_seed_differs(self, family):
        other = C.make_family(16, [("A", "identity"), ("B", "reverse"), ("Cc", "identity")], seed=43, length_bounds=(3, 6))
        assert json.dumps(family.to_json()) != json.dumps(other.to_json())

    def test_bijection_round_trip(self, family):
        for lang in family.languages:
            for concept in range(family.concept_count):
                assert lang.concept_of(lang.token_of(concept)) == concept

    def test_token_ranges_disjoint_and_separable(self, family):
        ranges = [(l.base, l.base + l.concept_count) for l in family.languages]
        for (a0, a1), (b0, b1) in itertools.combinations(ranges, 2):
            assert a1 <= b0 or b1 <= a0
        rng = stream(0, "sep")
        for _ in range(200):
            name = family.lang_names[int(rng.integers(3))]
            sent = C.sample_sentence(family, name, rng)
            assert all(family.lang_of_token(t) == name for t in sent)

    def test_transition_rows_normalized(self, family):
        np.testing.assert_allclose(family.transition.sum(axis=1), 1.0, atol=1e-12)

    def test_transition_frequencies_monte_carlo(self, family):
        # empirical next-concept frequencies over 100k chain steps vs matrix
        rng = stream(7, "mc")
        counts = np.zeros((family.concept_count, family.concept_count))
        state = int(rng.choice(family.concept_count, p=family.start_dist))
        for _ in range(100_000):
            nxt = int(rng.choice(family.concept_count, p=family.transition[state]))
            counts[state, nxt] += 1
            state = nxt
        rows = counts.sum(axis=1, keepdims=True)
        emp = counts / np.maximum(rows, 1)
        assert np.abs(emp - family.transition).max() <= 0.01

    def test_overlapping_ranges_rejected(self, family):
        doc = family.to_json()
        doc["languages"][1]["base"] = doc["languages"][0]["base"] + 1
        with pytest.raises(ConfigError, match="overlap"):
            C.TwinLanguageFamily.from_json(doc)

    def test_too_few_concepts_rejected(self):
        with pytest.raises(ConfigError):
            C.make_family(4, ["A", "B"], seed=0)

    def test_single_language_rejected(self):
        with pytest.raises(ConfigError):
            C.make_family(16, ["A"], seed=0)

    def test_json_round_trip(self, family):
        clone = C.TwinLanguageFamily.from_json(json.loads(json.dumps(family.to_json())))
        assert clone.to_json() == family.to_json()


def edited_family(family, edit):
    doc = json.loads(json.dumps(family.to_json()))
    edit(doc)
    return C.TwinLanguageFamily.from_json(doc)


def negative_entry(row):
    row[0] += row[1] + 0.5
    row[1] = -0.5


def scale(row, factor):
    row[:] = [x * factor for x in row]


BAD_FAMILIES = {
    "negative-transition": (lambda doc: negative_entry(doc["transition"][3]), "non-negative"),
    "negative-start": (lambda doc: negative_entry(doc["start_dist"]), "non-negative"),
    "nan-transition": (lambda doc: doc["transition"][0].__setitem__(2, float("nan")), "finite"),
    "inf-start": (lambda doc: doc["start_dist"].__setitem__(0, float("inf")), "finite"),
    "transition-row-sum-off-1e-6": (lambda doc: scale(doc["transition"][5], 1 + 1e-6), "sum to 1"),
    "start-sum-off-1e-6": (lambda doc: scale(doc["start_dist"], 1 - 1e-6), "sum to 1"),
    "start-wrong-length": (lambda doc: doc["start_dist"].append(0.0), "shape"),
    "non-integer-perm": (lambda doc: doc["languages"][0].update(perm=[p + 0.2 for p in doc["languages"][0]["perm"]]), "integers"),
    "base-fraction": (lambda doc: doc["languages"][2].update(base=doc["languages"][2]["base"] + 0.5), "base must be an integer"),
    "base-float": (lambda doc: doc["languages"][1].update(base=float(doc["languages"][1]["base"])), "base must be an integer"),
    # the fixture's languages are A, B and Cc, so its tags are 7, 8 and 9
    "langtag-missing": (lambda doc: doc["langtag"].pop("B"), "langtag names"),
    "langtag-unknown-name": (lambda doc: doc["langtag"].update(D=10), "langtag names"),
    "langtag-duplicate": (lambda doc: doc["langtag"].update(B=doc["langtag"]["A"]), "distinct integers"),
    "langtag-below-range": (lambda doc: doc["langtag"].update(A=C.N_SHARED_SPECIALS - 1), "distinct integers"),
    "langtag-above-range": (lambda doc: doc["langtag"].update(Cc=C.N_SHARED_SPECIALS + 3), "distinct integers"),
    "langtag-float": (lambda doc: doc["langtag"].update(B=8.0), "distinct integers"),
}


class TestFamilyValidation:
    """validate() holds every check Generator.choice made on each draw, and
    checks the token layout that rendering and prompts rely on."""

    @pytest.mark.parametrize("edit,message", BAD_FAMILIES.values(), ids=BAD_FAMILIES.keys())
    def test_rejected(self, family, edit, message):
        with pytest.raises(ConfigError, match=message):
            edited_family(family, edit)

    def test_sums_within_choice_tolerance_accepted(self, family):
        def edit(doc):
            scale(doc["transition"][5], 1 + 1e-9)
            scale(doc["start_dist"], 1 - 1e-9)

        edited_family(family, edit)

    def test_permuted_tags_accepted(self, family):
        family = edited_family(family, lambda doc: doc["langtag"].update(A=9, Cc=7))
        assert family.langtag == {"A": 9, "B": 8, "Cc": 7}


def choice_sample_concepts(family, rng):
    """Reference sampler: one Generator.choice draw per concept."""
    lo, hi = family.length_bounds
    length = int(rng.integers(lo, hi + 1))
    seq = [int(rng.choice(family.concept_count, p=family.start_dist))]
    for _ in range(length - 1):
        seq.append(int(rng.choice(family.concept_count, p=family.transition[seq[-1]])))
    return seq


def sparse(doc):
    """Zero a third of every row and both ends of the start distribution."""
    start = [0.0] + doc["start_dist"][1:-1] + [0.0]
    doc["start_dist"] = [x / sum(start) for x in start]
    for i, row in enumerate(doc["transition"]):
        kept = [0.0 if (i + j) % 3 == 0 else x for j, x in enumerate(row)]
        doc["transition"][i] = [x / sum(kept) for x in kept]


def unnormalized(doc):
    """Sums 1e-9 away from 1: inside choice's tolerance, so the cdf's own division matters."""
    scale(doc["start_dist"], 1 + 1e-9)
    for row in doc["transition"]:
        scale(row, 1 - 1e-9)


ORACLE_CASES = {
    "8-concepts-length-1": (8, ["A", "B"], (1, 1), None),
    "8-concepts-reverse": (8, [("A", "identity"), ("B", "reverse")], (3, 8), None),
    "128-concepts-three-languages": (128, [("A", "identity"), ("B", "reverse"), ("Cc", "identity")], (3, 8), None),
    "128-concepts-length-1": (128, ["A", "B"], (1, 1), None),
    "16-concepts-sparse": (16, ["A", "B"], (3, 8), sparse),
    "16-concepts-unnormalized": (16, ["A", "B"], (1, 3), unnormalized),
}


class FixedUniforms:
    """Generator stand-in: a sequence of len(uniforms) concepts drawn with these uniforms."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)

    def integers(self, lo, hi):
        return len(self.uniforms)

    def random(self, n):
        return np.array(self.uniforms[:n])


def searchsorted_concepts(family, uniforms):
    """The concepts the choice loop picks for these uniforms: searchsorted(side="right") on its cdf."""
    seq, p = [], family.start_dist
    for u in uniforms:
        cdf = p.cumsum()
        cdf /= cdf[-1]
        seq.append(int(cdf.searchsorted(u, side="right")))
        p = family.transition[seq[-1]]
    return seq


class TestSamplerOracle:
    """sample_concepts makes exactly the draws of the Generator.choice loop."""

    @pytest.fixture(params=ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
    def case_family(self, request):
        count, langs, bounds, edit = request.param
        fam = C.make_family(count, langs, seed=count + 1, length_bounds=bounds)
        return edited_family(fam, edit) if edit else fam

    def test_same_sequences_and_generator_state(self, case_family):
        fast, ref = stream(31, "oracle"), stream(31, "oracle")
        for _ in range(250):
            assert C.sample_concepts(case_family, fast) == choice_sample_concepts(case_family, ref)
            assert fast.bit_generator.state == ref.bit_generator.state

    def test_sentences_match_oracle_rendering(self, case_family):
        for lang in case_family.languages:
            fast, ref = stream(32, lang.name), stream(32, lang.name)
            for _ in range(200):
                tokens = [lang.token_of(c) for c in choice_sample_concepts(case_family, ref)]
                expected = tokens[::-1] if lang.transform == "reverse" else tokens
                assert C.sample_sentence(case_family, lang.name, fast) == expected
            assert fast.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("start_scale", [1.0, 1 + 2**-30], ids=["normalized", "sum-off-by-2**-30"])
    def test_uniform_equal_to_a_table_entry(self, start_scale):
        # dyadic rows put table entries on doubles a uniform can equal; random
        # draws almost never hit them, so ties and the cdf's division need this
        def edit(doc):
            doc["start_dist"] = [x * start_scale for x in [0.25, 0.25, 0.5, 0, 0, 0, 0, 0]]
            doc["transition"] = [[0.5 if j in ((i + 1) % 8, (i + 2) % 8) else 0.0 for j in range(8)] for i in range(8)]

        fam = edited_family(C.make_family(8, ["A", "B"], seed=0), edit)
        uniforms = [0.25, 0.5, 0.0, 0.5, 0.0]
        assert C.sample_concepts(fam, FixedUniforms(uniforms)) == searchsorted_concepts(fam, uniforms)

    @pytest.mark.parametrize(
        "corpus",
        [
            CorpusConfig(),
            CorpusConfig(
                concept_count=32,
                languages=["A", "B", "Cc"],
                transforms=["identity", "reverse", "identity"],
                policy="pairwise",
                n_pairs_per_combination=300,
                n_cif=600,
                n_heldout_pairs=60,
                n_heldout_cif=90,
            ),
        ],
        ids=["desk", "three-languages-pairwise"],
    )
    def test_generate_corpus_equals_choice_corpus(self, corpus, monkeypatch):
        cfg = RunConfig(corpus=corpus, seed=17)
        fast = generate_corpus(cfg)
        monkeypatch.setattr(C, "sample_concepts", choice_sample_concepts)
        ref = generate_corpus(cfg)
        assert fast.family.to_json() == ref.family.to_json()
        for name in ("train_pairs", "train_cif", "heldout_pairs", "heldout_cif"):
            assert getattr(fast, name) == getattr(ref, name), name


class TestRenderParse:
    def test_render_and_parse_equal_per_token_maps(self, family):
        concepts = list(range(family.concept_count)) * 2
        for spec in family.languages:
            tokens = [spec.token_of(c) for c in concepts]
            assert tokens == [spec.base + int(spec.perm[c]) for c in concepts]
            sent = tokens[::-1] if spec.transform == "reverse" else tokens
            assert family.render(concepts, spec.name) == sent
            assert family.parse(sent, spec.name) == [spec.concept_of(t) for t in tokens] == concepts

    @pytest.mark.parametrize("lang", ["A", "B"])
    @pytest.mark.parametrize("pos", [0, 2, 4])
    @pytest.mark.parametrize("where", ["below", "above", "special"])
    def test_parse_names_bad_position(self, family, lang, pos, where):
        spec = family.language(lang)
        sent = family.render([1, 2, 3, 4, 5], lang)
        sent[pos] = {"below": spec.base - 1, "above": spec.base + spec.concept_count, "special": C.SEP}[where]
        with pytest.raises(DataError, match=f"position {pos} "):
            family.parse(sent, lang)


class TestSampling:
    def test_tokens_stay_in_language_range(self, family):
        rng = stream(1, "range")
        spec = family.language("A")
        for _ in range(10_000):
            sent = C.sample_sentence(family, "A", rng)
            assert all(spec.owns(t) for t in sent)

    def test_degenerate_length_bounds(self):
        fam = C.make_family(8, ["A", "B"], seed=0, length_bounds=(3, 3))
        rng = stream(2, "len")
        assert all(len(C.sample_sentence(fam, "A", rng)) == 3 for _ in range(200))

    def test_lengths_within_bounds(self, family):
        rng = stream(3, "bounds")
        lo, hi = family.length_bounds
        for _ in range(500):
            assert lo <= len(C.sample_sentence(family, "B", rng)) <= hi

    def test_cloned_rng_reproduces(self, family):
        r1 = stream(9, "clone")
        r2 = stream(9, "clone")
        for _ in range(50):
            assert C.sample_sentence(family, "A", r1) == C.sample_sentence(family, "A", r2)


class TestTranslate:
    def test_same_language_identity(self, family):
        sent = C.sample_sentence(family, "A", stream(4, "id"))
        assert C.translate(family, sent, "A", "A") == sent

    def test_round_trip_identity_all_ordered_pairs(self, family):
        rng = stream(5, "rt")
        names = family.lang_names
        for _ in range(10_000):
            a, b = (names[int(rng.integers(3))] for _ in range(2))
            sent = C.sample_sentence(family, a, rng)
            assert C.translate(family, C.translate(family, sent, a, b), b, a) == sent

    def test_identity_transforms_map_tokenwise(self, family):
        concepts = [3, 1, 2]
        src = family.render(concepts, "A")
        out = C.translate(family, src, "A", "Cc")  # both identity-order languages
        spec = family.language("Cc")
        assert out == [spec.token_of(c) for c in concepts]

    def test_reverse_transform_reverses_order(self, family):
        concepts = [3, 1, 2]
        out = C.translate(family, family.render(concepts, "A"), "A", "B")
        spec = family.language("B")
        assert out == [spec.token_of(c) for c in reversed(concepts)]

    def test_foreign_token_names_position(self, family):
        sent = C.sample_sentence(family, "A", stream(6, "foreign"))
        sent[1] = family.language("B").base
        with pytest.raises(DataError, match="position 1"):
            C.translate(family, sent, "A", "B")


class TestTranslationPairs:
    def test_pivot_three_languages_two_combinations(self, family):
        pairs = C.make_translation_pairs(family, "pivot", 5, stream(7, "pv"), pivot_lang="A")
        audit = C.audit_pairs(pairs)
        assert audit["n_lang_combinations"] == 2
        assert all(p.src_lang == "A" for p in pairs)

    def test_pairwise_three_languages_three_combinations(self, family):
        pairs = C.make_translation_pairs(family, "pairwise", 5, stream(8, "pw"))
        assert C.audit_pairs(pairs)["n_lang_combinations"] == 3

    def test_pivot_four_languages_counting(self):
        fam = C.make_family(8, ["A", "B", "Cc", "D"], seed=1)
        pairs = C.make_translation_pairs(fam, "pivot", 5, stream(9, "pv4"), pivot_lang="A")
        assert len(pairs) == 15

    def test_pairs_satisfy_translator_invariant(self, family):
        pairs = C.make_translation_pairs(family, "pairwise", 20, stream(10, "inv"))
        for p in pairs:
            assert C.translate(family, p.src_tokens, p.src_lang, p.tgt_lang) == p.tgt_tokens

    def test_unknown_pivot_rejected(self, family):
        with pytest.raises(UsageError):
            C.make_translation_pairs(family, "pivot", 1, stream(0, "x"), pivot_lang="ZZ")

    def test_json_round_trip(self, family):
        pair = C.make_translation_pairs(family, "pairwise", 1, stream(11, "json"))[0]
        assert C.TranslationPair.from_json(pair.to_json()) == pair


class TestCifSamples:
    def test_p_src_one_always_same_language(self, family):
        rng = stream(12, "psrc1")
        for _ in range(200):
            s = C.make_cif_sample(family, "copy", "A", 1.0, rng)
            assert s.target_lang == s.source_lang == "A"

    def test_p_src_zero_never_same_language(self):
        fam = C.make_family(8, ["A", "B"], seed=2)
        rng = stream(13, "psrc0")
        for _ in range(200):
            s = C.make_cif_sample(fam, "copy", "A", 0.0, rng)
            assert s.target_lang == "B"

    def test_copy_same_language_response_equals_context(self, family):
        rng = stream(14, "copy")
        s = C.make_cif_sample(family, "copy", "A", 1.0, rng)
        context = s.input_tokens[2 : s.input_tokens.index(C.SEP) - 1]
        assert s.response_tokens() == context

    def test_layout(self, family):
        s = C.make_cif_sample(family, "copy", "A", 0.0, stream(15, "layout"))
        toks = s.input_tokens
        assert toks[0] == C.BOS
        assert toks[1] == C.TASK_TAGS["copy"]
        sep_at = toks.index(C.SEP)
        assert toks[sep_at - 1] == family.langtag[s.target_lang]
        assert toks[-1] == C.SEP
        # mask marks exactly the response plus terminal SEP, all after SEP
        first_true = s.loss_mask.index(True)
        assert first_true == sep_at + 1
        assert all(s.loss_mask[first_true:])
        assert not any(s.loss_mask[:first_true])

    def test_mask_reconstructs_response(self, family):
        rng = stream(16, "mask")
        for _ in range(100):
            task = ("copy", "reverse")[int(rng.integers(2))]
            s = C.make_cif_sample(family, task, "B", 0.5, rng)
            ref = C.translate(
                family,
                s.input_tokens[2 : s.input_tokens.index(C.SEP) - 1]
                if task == "copy"
                else list(reversed(s.input_tokens[2 : s.input_tokens.index(C.SEP) - 1])),
                s.source_lang,
                s.target_lang,
            )
            assert s.response_tokens() == ref

    def test_p_src_statistics(self, family):
        rng = stream(17, "stats")
        p_src = 0.5
        same = sum(
            C.make_cif_sample(family, "copy", "A", p_src, rng).target_lang == "A" for _ in range(10_000)
        )
        assert abs(same / 10_000 - p_src) <= 0.02

    def test_bad_p_src_rejected(self, family):
        with pytest.raises(UsageError):
            C.make_cif_sample(family, "copy", "A", 1.5, stream(0, "bad"))

    def test_json_round_trip(self, family):
        s = C.make_cif_sample(family, "reverse", "A", 0.5, stream(18, "json"))
        assert C.CifSample.from_json(json.loads(json.dumps(s.to_json()))) == s

    @pytest.mark.parametrize("mask", [lambda n: [False] * n, lambda n: [True] + [False] * (n - 1)])
    def test_record_that_scores_nothing_rejected(self, family, mask):
        # position 0 predicts nothing, so a mask set there alone scores no token
        obj = C.make_cif_sample(family, "copy", "A", 0.5, stream(18, "unscored")).to_json()
        obj["loss_mask"] = mask(len(obj["input_tokens"]))
        with pytest.raises(CheckpointError, match="scores no prediction"):
            C.CifSample.from_json(obj)


class TestBatchIter:
    def make_cifs(self, family, n):
        rng = stream(19, "batch")
        return [C.make_cif_sample(family, "copy", "A", 0.5, rng) for _ in range(n)]

    def test_batch_sizes(self, family):
        batches = list(C.batch_iter(self.make_cifs(family, 10), 4, seed=0))
        assert [b.tokens.shape[0] for b in batches] == [4, 4, 2]

    def test_same_seed_same_order(self, family):
        data = self.make_cifs(family, 10)
        a = [b.tokens.tolist() for b in C.batch_iter(data, 3, seed=5)]
        b = [b.tokens.tolist() for b in C.batch_iter(data, 3, seed=5)]
        assert a == b

    def test_partition_property(self, family):
        data = self.make_cifs(family, 13)
        seen = []
        for batch in C.batch_iter(data, 4, seed=1):
            for row, pad in zip(batch.tokens, batch.pad_mask):
                seen.append(tuple(row[pad].tolist()))
        assert sorted(seen) == sorted(tuple(s.input_tokens) for s in data)

    def test_prediction_mask_shift(self, family):
        data = self.make_cifs(family, 4)
        batch = next(C.batch_iter(data, 4, seed=2))
        order = stream(2, "batch").permutation(4)
        for row in range(4):
            sample = data[order[row]]
            n = len(sample.input_tokens)
            got = batch.loss_mask[row, : n - 1].tolist()
            expected = list(sample.loss_mask[1:])
            assert got == expected
            assert not batch.loss_mask[row, n - 1 :].any()

    def test_pair_batches(self, family):
        pairs = C.make_translation_pairs(family, "pairwise", 3, stream(20, "pb"))
        batch = next(C.batch_iter(pairs, 4, seed=3))
        assert batch.src_tokens.shape == batch.src_pad.shape
        assert batch.src_tokens.shape[0] == 4

    def test_bad_batch_size(self, family):
        with pytest.raises(UsageError):
            list(C.batch_iter(self.make_cifs(family, 4), 0, seed=0))


class TestAudits:
    def test_cif_audit_fraction(self, family):
        rng = stream(21, "audit")
        samples = [C.make_cif_sample(family, "copy", "A", 1.0, rng) for _ in range(50)]
        assert C.audit_cif(samples)["target_eq_source_frac"] == 1.0

    def test_jsonl_round_trip(self, family, tmp_path):
        pairs = C.make_translation_pairs(family, "pairwise", 2, stream(22, "io"))
        path = tmp_path / "pairs.jsonl"
        n = C.save_jsonl(path, pairs)
        assert n == len(pairs)
        again = C.load_jsonl(path, C.TranslationPair.from_json)
        assert again == pairs

    @pytest.mark.parametrize(
        "bad",
        [
            b'{"src": {"lang": "A", "tokens": [9, 1',  # truncated
            b'{"src": {"lang": "A", "tokens": [9]}}',  # no "tgt"
            b'{"src": {"lang": "A", "tokens": [9, "x"]}, "tgt": {"lang": "B", "tokens": [9]}}',
            b"[1, 2]",
            b"\xff\xfe{}",
            b"\xef\xbb\xbf{}",
            '{"src": {}}'.encode("utf-16"),
        ],
        ids=["truncated", "missing-key", "non-integer-token", "not-an-object", "not-utf8", "utf8-bom", "utf16"],
    )
    def test_malformed_line_names_file_and_line(self, family, tmp_path, bad):
        path = tmp_path / "pairs.jsonl"
        C.save_jsonl(path, C.make_translation_pairs(family, "pairwise", 1, stream(23, "io")))
        lines = path.read_bytes().splitlines()
        lines[1] = bad
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(CheckpointError, match=r"pairs\.jsonl line 2: ") as err:
            C.load_jsonl(path, C.TranslationPair.from_json)
        if bad.startswith((b"\xff", b"\xef")):  # rejected as UTF-8, not through a missing key
            assert "utf-8" in str(err.value).lower()

    def test_cif_mask_length_mismatch_rejected(self, family):
        doc = C.make_cif_sample(family, "copy", "A", 0.5, stream(24, "io")).to_json()
        doc["loss_mask"].append(True)
        with pytest.raises(CheckpointError, match="loss-mask"):
            C.CifSample.from_json(doc)

    def test_family_missing_key_rejected(self, family):
        doc = family.to_json()
        del doc["transition"]
        with pytest.raises(CheckpointError, match="transition"):
            C.TwinLanguageFamily.from_json(doc)
