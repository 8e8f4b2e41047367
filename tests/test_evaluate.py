import dataclasses
import math

import numpy as np
import pytest

from afp import corpus as C
from afp import evaluate as E
from afp.errors import ShapeError, UsageError
from afp.model import ModelConfig, forward, init_params
from afp.rng import stream

FAMILY = C.make_family(12, ["A", "B"], seed=21, length_bounds=(3, 5))
MCFG = ModelConfig(vocab_size=FAMILY.vocab_size, d_model=16, n_layers=2, n_heads=2, d_ff=24, max_seq_len=64)


def rigged_constant_logit_params(favored_token: int, strength: float = 50.0):
    """Zeroed model whose logits are constant over inputs/positions and favor
    one token: residual stream stays 0, final LN gain 0 pushes bias through."""
    params = init_params(MCFG, seed=0)
    for _, t in params.named():
        t.data[:] = 0.0
    params["final_ln.bias"].data[0] = 1.0
    params["out_proj"].data[0, favored_token] = strength
    return params


class TestTemplate:
    def test_distinct_verbalizers_required(self):
        with pytest.raises(UsageError):
            E.Template(k=0, verbalizer={"a": [5], "b": [5]})

    def test_negative_k_rejected(self):
        with pytest.raises(UsageError):
            E.Template(k=-1, verbalizer={"a": [5], "b": [6]})


class TestBuildPrompt:
    TEMPLATE = E.Template(k=3, verbalizer={"same": [C.VERB_SAME], "diff": [C.VERB_DIFF]})

    def demos(self, k):
        rng = stream(1, "demos")
        task = E.PairClassificationTask(FAMILY, "A", "B")
        return [task.make_example(rng) for _ in range(k)]

    def test_zero_shot_is_query_alone(self):
        template = E.Template(k=0, verbalizer=self.TEMPLATE.verbalizer)
        query = [9, 10, 11]
        assert E.build_prompt(template, [], query) == query

    def test_three_sep_terminated_segments(self):
        demos = self.demos(3)
        query = [9, 10]
        prompt = E.build_prompt(self.TEMPLATE, demos, query)
        seps = [i for i, t in enumerate(prompt) if t == C.SEP]
        assert len(seps) == 3
        assert prompt[seps[-1] + 1 :] == query
        # each demo segment is input + verbalizer + SEP
        start = 0
        for (demo_input, label), sep_at in zip(demos, seps):
            seg = prompt[start:sep_at]
            assert seg == list(demo_input) + self.TEMPLATE.verbalizer[label]
            start = sep_at + 1

    def test_token_count_closed_form(self):
        demos = self.demos(3)
        query = [9, 10, 11, 12]
        prompt = E.build_prompt(self.TEMPLATE, demos, query)
        expected = sum(len(d[0]) + 1 + 1 for d in demos) + len(query)
        assert len(prompt) == expected

    def test_wrong_demo_count_rejected(self):
        with pytest.raises(UsageError):
            E.build_prompt(self.TEMPLATE, self.demos(2), [9])


class TestScoreCandidates:
    def test_rigged_model_picks_favored_candidate(self):
        tokA = FAMILY.language("A").base
        params = rigged_constant_logit_params(favored_token=tokA + 3)
        chosen, scores = E.score_candidates(params, [C.BOS, tokA], [[tokA + 1], [tokA + 3], [tokA + 5]])
        assert chosen == 1
        assert scores[1] > scores[0] and scores[1] > scores[2]
        assert math.exp(scores[1]) > 0.99

    def test_duplicate_candidates_tie_to_lowest_index(self):
        params = init_params(MCFG, seed=3)
        tokA = FAMILY.language("A").base
        chosen, scores = E.score_candidates(params, [C.BOS, tokA], [[tokA + 2], [tokA + 2]])
        assert chosen == 0
        assert scores[0] == scores[1]

    def test_loglik_matches_per_position_oracle(self):
        params = init_params(MCFG, seed=4).astype(np.float64)
        rng = stream(2, "loglik")
        prompt = [C.BOS] + C.sample_sentence(FAMILY, "A", rng)
        candidates = [C.sample_sentence(FAMILY, "B", rng)[:3] for _ in range(3)]
        chosen, scores = E.score_candidates(params, prompt, candidates)
        for cand, got in zip(candidates, scores):
            seq = prompt + cand
            logits = forward(params, np.asarray([seq])).logits.data[0]
            expected = 0.0
            for i, tok in enumerate(cand):
                row = logits[len(prompt) - 1 + i]
                z = math.log(sum(math.exp(v - row.max()) for v in row)) + row.max()
                expected += row[tok] - z
            assert abs(got - expected) <= 1e-8
        assert chosen == int(np.argmax(scores))

    def test_shift_invariance_of_scoring(self):
        rng = stream(3, "shift")
        logits = rng.standard_normal((10, 7))
        cand = [2, 5, 1]
        base = E.candidate_loglik(logits, prompt_len=4, candidate=cand)
        shifted = E.candidate_loglik(logits + 123.5, prompt_len=4, candidate=cand)
        assert abs(base - shifted) < 1e-9

    def test_chosen_index_invariant_under_offset(self):
        rng = stream(4, "shift2")
        logits = rng.standard_normal((8, 9))
        cands = [[1, 2], [3, 4], [5, 6]]
        base = [E.candidate_loglik(logits, 3, c) for c in cands]
        off = [E.candidate_loglik(logits + 42.0, 3, c) for c in cands]
        assert int(np.argmax(base)) == int(np.argmax(off))

    def test_needs_two_candidates(self):
        params = init_params(MCFG, seed=0)
        with pytest.raises(UsageError):
            E.score_candidates(params, [C.BOS], [[3]])

    def test_length_overflow(self):
        params = init_params(MCFG, seed=0)
        with pytest.raises(ShapeError):
            E.score_candidates(params, [C.BOS] * MCFG.max_seq_len, [[3], [4]])

    def test_empty_prompt_rejected(self):
        params = init_params(MCFG, seed=0)
        with pytest.raises(UsageError):
            E.score_candidates(params, [], [[3], [4]])

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-10)])
    def test_matches_per_candidate_forwards(self, dtype, tol):
        params = init_params(MCFG, seed=7).astype(dtype)
        rng = stream(7, "cands")
        tokB = FAMILY.language("B").base
        prompt = [C.BOS] + C.sample_sentence(FAMILY, "A", rng)
        candidates = [
            C.sample_sentence(FAMILY, "B", rng)[:4],
            [tokB],
            [],
            [tokB, tokB + 1, tokB + 2],
            [tokB],
            [tokB + 3, tokB + 1],
            [tokB, tokB + 1, tokB + 5],
        ]
        chosen, scores = E.score_candidates(params, prompt, candidates)
        for cand, got in zip(candidates, scores):
            logits = forward(params, np.asarray([prompt + cand])).logits.data[0]
            assert abs(got - E.candidate_loglik(logits, len(prompt), cand)) <= tol
        assert scores[2] == 0.0
        assert scores[1] == scores[4]
        assert chosen == int(np.argmax(scores))

    def test_one_forward_over_distinct_fed_rows(self, monkeypatch):
        params = init_params(MCFG, seed=8)
        shapes = []

        def counting_forward(*args, **kwargs):
            shapes.append(np.asarray(args[1]).shape)
            return forward(*args, **kwargs)

        monkeypatch.setattr(E, "forward", counting_forward)
        prompt = [C.BOS, 9, 10, 11]
        E.score_candidates(params, prompt, [[C.VERB_SAME], [C.VERB_DIFF]])
        assert shapes == [(1, len(prompt))]
        shapes.clear()
        E.score_candidates(params, prompt, [[5, 6], [5, 7], [8], [5, 6, 7]])
        assert shapes == [(3, len(prompt) + 2)]


def chain_family(start, forks, length_bounds, n=8):
    """n-concept family starting uniformly on `start`, where concept i moves to
    i + 1 except that `forks` maps a concept to its uniform successors."""
    doc = C.make_family(n, ["A", "B"], seed=0).to_json()
    start_dist = np.zeros(n)
    start_dist[start] = 1 / len(start)
    trans = np.zeros((n, n))
    for i in range(n):
        succ = forks.get(i, [(i + 1) % n])
        trans[i, succ] = 1 / len(succ)
    doc.update(start_dist=start_dist.tolist(), transition=trans.tolist(), length_bounds=list(length_bounds))
    return C.TwinLanguageFamily.from_json(doc)


ONE_SEQUENCE = {
    "length-1": ([0], {}, (1, 1)),
    "length-2": ([0], {}, (2, 2)),
    "fork-past-the-end": ([0], {1: [2, 3]}, (2, 2)),
    "fork-unreachable": ([0], {5: [6, 7]}, (4, 4)),
}
TWO_SEQUENCES = {
    "two-lengths": ([0], {}, (2, 3)),
    "start-fork": ([0, 3], {}, (1, 1)),
    "fork-at-first-step": ([0], {0: [1, 2]}, (2, 2)),
    "fork-at-last-step": ([0], {3: [4, 6]}, (5, 5)),
}


class TestClassificationFamilyCheck:
    @pytest.mark.parametrize("start,forks,bounds", ONE_SEQUENCE.values(), ids=ONE_SEQUENCE.keys())
    def test_one_sequence_family_rejected(self, start, forks, bounds):
        with pytest.raises(UsageError, match="two different concept sequences"):
            E.PairClassificationTask(chain_family(start, forks, bounds), "A", "B")

    @pytest.mark.parametrize("start,forks,bounds", TWO_SEQUENCES.values(), ids=TWO_SEQUENCES.keys())
    def test_two_sequence_family_draws_both_labels(self, start, forks, bounds):
        task = E.PairClassificationTask(chain_family(start, forks, bounds), "A", "B")
        rng = stream(3, "fork")
        labels = [task.make_example(rng)[1] for _ in range(50)]
        assert {"same", "diff"} == set(labels)


class TestClassificationEval:
    def task(self):
        return E.PairClassificationTask(FAMILY, "A", "B")

    def test_label_agnostic_model_is_chance_level(self):
        # constant equal logits => every query ties => index 0 chosen; with
        # random balanced labels accuracy sits in the binomial band around 0.5
        params = init_params(MCFG, seed=5)
        params["out_proj"].data[:] = 0.0
        template = E.Template(k=0, verbalizer=self.task().verbalizer())
        result = E.classification_eval(params, self.task(), template, n=1000, seed=6)
        assert abs(result.score - 0.5) <= 0.05

    def test_lookup_rigged_oracle_scores_one(self):
        task = self.task()
        template = E.Template(k=0, verbalizer=task.verbalizer())
        labels = template.labels
        base_b = FAMILY.language("B").base

        def oracle(prompt, candidates):
            query = prompt[1:]  # k=0: [BOS] + s + t
            split = next(i for i, t in enumerate(query) if FAMILY.lang_of_token(t) == "B")
            s, t = query[:split], query[split:]
            label = "same" if C.translate(FAMILY, s, "A", "B") == t else "diff"
            idx = labels.index(label)
            scores = [0.0] * len(candidates)
            scores[idx] = 1.0
            return idx, scores

        result = E.classification_eval(init_params(MCFG, seed=0), task, template, n=200, seed=7, scorer=oracle)
        assert result.score == 1.0
        assert base_b > 0

    def test_n_zero_rejected(self):
        template = E.Template(k=0, verbalizer=self.task().verbalizer())
        with pytest.raises(UsageError, match="at least one query"):
            E.classification_eval(init_params(MCFG, seed=0), self.task(), template, n=0, seed=0)

    def test_chosen_index_is_argmax_of_records(self):
        params = init_params(MCFG, seed=8)
        template = E.Template(k=1, verbalizer=self.task().verbalizer())
        result = E.classification_eval(params, self.task(), template, n=20, seed=9)
        for rec in result.records:
            assert rec["chosen"] == int(np.argmax(rec["loglik"]))

    def test_unfittable_later_prompt_rejected_before_any_score(self):
        task = self.task()
        template = E.Template(k=1, verbalizer=task.verbalizer())
        prompts = []

        def run(params, scorer):
            return E.classification_eval(params, task, template, n=12, seed=12, scorer=scorer)

        run(init_params(MCFG, seed=0), lambda p, c: prompts.append(p) or (0, [0.0, 0.0]))
        limit = len(prompts[0]) + 1  # the first prompt fits with its one-token candidates
        assert max(len(p) for p in prompts) + 1 > limit
        scored = []
        with pytest.raises(UsageError, match=r"eval\.k_shot \(1\)"):
            run(init_params(dataclasses.replace(MCFG, max_seq_len=limit), seed=0), lambda p, c: scored.append(p) or (0, [0.0, 0.0]))
        assert scored == []

    def test_deterministic(self):
        params = init_params(MCFG, seed=10)
        template = E.Template(k=0, verbalizer=self.task().verbalizer())
        a = E.classification_eval(params, self.task(), template, n=25, seed=11)
        b = E.classification_eval(params, self.task(), template, n=25, seed=11)
        assert a.records == b.records and a.score == b.score


class TestTranslationEval:
    def test_rigged_echo_translator_perfect(self):
        refs_seen = {}

        def echo(prompt):
            # read the source sentence back out of the prompt and translate it
            src = [t for t in prompt if FAMILY.lang_of_token(t) == "A"]
            return C.translate(FAMILY, src, "A", "B")

        result = E.translation_eval(
            init_params(MCFG, seed=0), FAMILY, "A", "B", n=25, max_new_tokens=8, generate_fn=echo
        )
        assert result.score == 1.0
        assert result.details["exact_match"] == 1.0
        assert result.details["bleu"] == 1.0
        assert refs_seen == {}

    def test_untrained_model_near_zero(self):
        params = init_params(MCFG, seed=1)
        result = E.translation_eval(params, FAMILY, "A", "B", n=25, max_new_tokens=8, seed=2)
        assert result.score <= 0.05

    def test_bleu_consistency_with_standalone_op(self):
        params = init_params(MCFG, seed=2)
        result = E.translation_eval(params, FAMILY, "A", "B", n=10, max_new_tokens=8, seed=3)
        hyps = [r["hyp"] for r in result.records]
        refs = [r["ref"] for r in result.records]
        assert result.details["bleu"] == E.bleu(hyps, refs)

    def test_references_are_exact_translations(self):
        params = init_params(MCFG, seed=3)
        result = E.translation_eval(params, FAMILY, "A", "B", n=10, max_new_tokens=8, seed=4, task="reverse")
        for rec in result.records:
            assert rec["ref"] == C.translate(FAMILY, list(reversed(rec["src"])), "A", "B")

    def test_deterministic(self):
        params = init_params(MCFG, seed=4)
        a = E.translation_eval(params, FAMILY, "A", "B", n=8, max_new_tokens=6, seed=5)
        b = E.translation_eval(params, FAMILY, "A", "B", n=8, max_new_tokens=6, seed=5)
        assert a.records == b.records

    def test_k_shot_prompt_fits_and_runs(self):
        params = init_params(MCFG, seed=5)
        result = E.translation_eval(params, FAMILY, "A", "B", n=4, max_new_tokens=6, k_shot=1, seed=6)
        assert result.n == 4

    def test_n_zero_rejected(self):
        with pytest.raises(UsageError, match="at least one example"):
            E.translation_eval(init_params(MCFG, seed=0), FAMILY, "A", "B", n=0, max_new_tokens=8)

    def test_max_new_tokens_below_longest_sentence_rejected_before_any_query(self):
        def generate(prompt):
            raise AssertionError("no query should run")

        # FAMILY's sentences have 3 to 5 tokens, and a reference is as long as its source
        with pytest.raises(UsageError, match=r"eval\.max_new_tokens 4 .* 5-token reference"):
            E.translation_eval(init_params(MCFG, seed=0), FAMILY, "A", "B", n=4, max_new_tokens=4, generate_fn=generate)
        result = E.translation_eval(init_params(MCFG, seed=0), FAMILY, "A", "B", n=4, max_new_tokens=5)
        assert result.n == 4

    def test_unknown_task_rejected(self):
        with pytest.raises(UsageError, match="unknown task"):
            E.translation_eval(init_params(MCFG, seed=0), FAMILY, "A", "B", n=2, max_new_tokens=8, task="rot13")

    def test_prompt_without_room_for_its_reference_rejected(self):
        prompts = []

        def run(params, generate_fn):
            return E.translation_eval(params, FAMILY, "A", "B", n=12, max_new_tokens=8, k_shot=1, seed=7, generate_fn=generate_fn)

        refs = [r["ref"] for r in run(init_params(MCFG, seed=0), lambda p: prompts.append(p) or []).records]
        # every prompt fits with a position to spare, but the longest cannot hold its reference
        limit = max(len(p) for p in prompts) + 1
        assert max(len(p) + len(r) for p, r in zip(prompts, refs)) > limit
        with pytest.raises(UsageError, match=r"eval\.k_shot \(1\)"):
            run(init_params(dataclasses.replace(MCFG, max_seq_len=limit), seed=0), lambda p: [])

    def test_unfittable_later_prompt_rejected_before_any_decode(self):
        prompts, decoded = [], []

        def run(params, generate_fn):
            return E.translation_eval(params, FAMILY, "A", "B", n=12, max_new_tokens=8, k_shot=1, seed=8, generate_fn=generate_fn)

        refs = [r["ref"] for r in run(init_params(MCFG, seed=0), lambda p: prompts.append(p) or []).records]
        limit = len(prompts[0]) + len(refs[0])  # the first prompt holds its reference
        assert max(len(p) + len(r) for p, r in zip(prompts, refs)) > limit
        with pytest.raises(UsageError, match=r"eval\.k_shot \(1\)"):
            run(init_params(dataclasses.replace(MCFG, max_seq_len=limit), seed=0), lambda p: decoded.append(p) or [])
        assert decoded == []


def full_prefix_decode(params, prompt, max_new_tokens, stop_token=C.SEP):
    """Oracle: greedy decode that re-runs the whole prefix for every token."""
    seq, out = list(prompt), []
    for _ in range(max_new_tokens):
        if len(seq) >= params.config.max_seq_len:
            break
        nxt = int(np.argmax(forward(params, np.asarray([seq])).logits.data[0, -1]))
        if nxt == stop_token:
            break
        out.append(nxt)
        seq.append(nxt)
    return out


class TestGreedyDecode:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_full_prefix_oracle(self, dtype):
        rng = stream(9, "decode")
        limit = MCFG.max_seq_len
        for seed in range(6):
            params = init_params(MCFG, seed=seed).astype(dtype)
            # SEP never wins, so decoding runs until the length limit
            params["out_proj"].data[:, C.SEP] = -1.0
            for length in (3, 17, limit - 2, limit - 1, limit, limit + 1):
                prompt = [C.BOS] + list(rng.integers(C.BOS + 1, MCFG.vocab_size, size=length - 1))
                got = E.greedy_decode(params, prompt, max_new_tokens=24)
                assert got == full_prefix_decode(params, prompt, 24), (seed, length)
                assert len(got) == min(24, max(limit - length, 0))

    def test_matches_oracle_with_stop_token(self):
        rng = stream(10, "decode-stop")
        for seed in range(6):
            params = init_params(MCFG, seed=seed)
            prompt = [C.BOS] + list(rng.integers(C.BOS + 1, MCFG.vocab_size, size=5))
            unstopped = full_prefix_decode(params, prompt, 12, stop_token=-1)
            for stop in set(unstopped[::3]):
                got = E.greedy_decode(params, prompt, max_new_tokens=12, stop_token=stop)
                assert got == full_prefix_decode(params, prompt, 12, stop_token=stop), (seed, stop)
                assert got == unstopped[: unstopped.index(stop)]

    def test_prompt_fed_once_then_one_token_per_step(self, monkeypatch):
        tokA = FAMILY.language("A").base
        params = rigged_constant_logit_params(favored_token=tokA)
        widths = []

        def counting_forward(*args, **kwargs):
            widths.append(np.asarray(args[1]).shape[1])
            return forward(*args, **kwargs)

        monkeypatch.setattr(E, "forward", counting_forward)
        assert E.greedy_decode(params, [C.BOS, tokA, tokA], max_new_tokens=4) == [tokA] * 4
        assert widths == [3, 1, 1, 1]

    def test_stops_on_separator(self):
        tokA = FAMILY.language("A").base
        params = rigged_constant_logit_params(favored_token=C.SEP)
        out = E.greedy_decode(params, [C.BOS, tokA], max_new_tokens=8)
        assert out == []

    def test_respects_max_new_tokens(self):
        tokA = FAMILY.language("A").base
        params = rigged_constant_logit_params(favored_token=tokA)
        out = E.greedy_decode(params, [C.BOS], max_new_tokens=5)
        assert out == [tokA] * 5


class TestBleu:
    def test_identity_is_one(self):
        corpus = [[1, 2, 3, 4, 5], [6, 7, 8, 9]]
        assert E.bleu(corpus, [list(s) for s in corpus]) == 1.0

    def test_disjoint_is_zero(self):
        assert E.bleu([[1, 2, 3, 4]], [[5, 6, 7, 8]]) == 0.0

    def test_hand_computed_three_token_case(self):
        # hyp=[a,b,a], ref=[a,b,c]; order N=min(4,3)=3
        # p1 = clipped(a:1, b:1)/3 = 2/3; p2 = (ab)/2 = 1/2; p3 = 0 -> score 0
        assert E.bleu([[0, 1, 0]], [[0, 1, 2]]) == 0.0

    def test_hand_computed_five_token_case(self):
        # hyp=[a,b,c,d,e], ref=[a,b,c,d,f]
        # p1=4/5, p2=3/4, p3=2/3, p4=1/2, c=r => BP=1
        expected = (4 / 5 * 3 / 4 * 2 / 3 * 1 / 2) ** 0.25
        assert E.bleu([[0, 1, 2, 3, 4]], [[0, 1, 2, 3, 5]]) == pytest.approx(expected, abs=1e-12)

    def test_brevity_penalty(self):
        # perfect 4-gram prefix, hyp shorter than ref: BP = exp(1 - 5/4)
        got = E.bleu([[0, 1, 2, 3]], [[0, 1, 2, 3, 4]])
        assert got == pytest.approx(math.exp(1 - 5 / 4), abs=1e-12)

    def test_corpus_level_pooling(self):
        # precisions pool over the corpus before the geometric mean
        hyps = [[0, 1, 2, 3, 9], [4, 5, 6, 7]]
        refs = [[0, 1, 2, 3, 8], [4, 5, 6, 7]]
        assert 0.0 < E.bleu(hyps, refs) < 1.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(UsageError):
            E.bleu([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(UsageError):
            E.bleu([[1]], [[1], [2]])
