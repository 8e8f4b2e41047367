import itertools
import json

import numpy as np
import pytest

from afp import corpus as C
from afp.errors import CheckpointError, ConfigError, DataError, UsageError
from afp.rng import stream


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
