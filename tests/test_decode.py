"""Beam search, exhaustive ranking oracle, and pruning classification."""

import math

import numpy as np
import pytest

from bearlab import catalog as cat
from bearlab.catalog import BOS_ID, EOS_ID
from bearlab.decode import (BeamTrace, DecodeConfig, PruningCause, beam_search,
                            classify_positive, exhaustive_rank)
from bearlab.errors import ValidationError
from bearlab.model import ModelConfig, SequenceModel
from per_context import PerContextScorer


class TableModel(PerContextScorer):
    """Hand-set conditional tables keyed by the generated prefix (the part of
    the context after the prompt)."""

    def __init__(self, vocab, tables, prompt_len=1):
        self.vocab_size = len(vocab)
        self.prompt_len = prompt_len
        self._tables = {}
        for prefix, row in tables.items():
            ids = tuple(vocab.id_of(t) for t in prefix)
            self._tables[ids] = {vocab.id_of(t): p for t, p in row.items()}

    def next_token_distribution(self, context):
        prefix = tuple(context[self.prompt_len:])
        dist = np.zeros(self.vocab_size)
        for tok, p in self._tables[prefix].items():
            dist[tok] = p
        return dist

    def sequence_log_prob(self, prompt, target, cache=None):
        ctx = tuple(prompt)
        total = 0.0
        for tok in target:
            dist = self.next_token_distribution(ctx)
            total += math.log(max(float(dist[tok]), 1e-12))
            ctx = ctx + (int(tok),)
        return total


@pytest.fixture
def movie_world():
    """The worked two-beam example: the positive item has the highest overall
    probability but its first token ranks third of three at the root."""
    titles = ["A Beautiful Mind", "A Hidden Life", "The Matrix", "The Room",
              "Bocchi the Rock!"]
    vocab, items, trie = cat.build_catalog(titles, tokenization="whitespace-word")
    tables = {
        (): {"A": 0.45, "The": 0.30, "Bocchi": 0.25},
        ("A",): {"Beautiful": 0.5, "Hidden": 0.5},
        ("A", "Beautiful"): {"Mind": 1.0},
        ("A", "Beautiful", "Mind"): {"<eos>": 1.0},
        ("A", "Hidden"): {"Life": 1.0},
        ("A", "Hidden", "Life"): {"<eos>": 1.0},
        ("The",): {"Matrix": 0.5, "Room": 0.5},
        ("The", "Matrix"): {"<eos>": 1.0},
        ("The", "Room"): {"<eos>": 1.0},
        ("Bocchi",): {"the": 0.92},
        ("Bocchi", "the"): {"Rock!": 1.0},
        ("Bocchi", "the", "Rock!"): {"<eos>": 1.0},
    }
    model = TableModel(vocab, tables)
    return vocab, items, trie, model


def test_positive_with_highest_overall_probability_pruned_at_step_one(movie_world):
    vocab, items, trie, model = movie_world
    positive = next(i for i in items if i.title == "Bocchi the Rock!")
    ranking = exhaustive_rank(model, (BOS_ID,), items)
    assert ranking[0][0] == positive.item_id
    assert ranking[0][1] == pytest.approx(math.log(0.25 * 0.92), abs=1e-12)

    finals, trace = beam_search(model, (BOS_ID,), trie, DecodeConfig(beam_width=2))
    returned = {h.item_id for h in finals}
    assert positive.item_id not in returned

    step1 = trace.steps[0]
    survivor_tokens = {tokens[0] for tokens, _s, _f in step1.survivors}
    assert survivor_tokens == {vocab.id_of("A"), vocab.id_of("The")}
    cause, step = classify_positive(trace, positive.token_ids, trie)
    assert cause is PruningCause.NECESSARY_VIOLATION
    assert step == 1


def test_wide_beam_returns_everything_and_survives(movie_world):
    vocab, items, trie, model = movie_world
    finals, trace = beam_search(model, (BOS_ID,), trie, DecodeConfig(beam_width=10))
    ranking = exhaustive_rank(model, (BOS_ID,), items)
    assert [(h.item_id, h.log_prob) for h in finals] == ranking
    for item in items:
        cause, step = classify_positive(trace, item.token_ids, trie)
        assert cause is PruningCause.SURVIVED
        assert step is None


def test_global_prune_with_local_rank_within_b():
    titles = ["aa", "ab", "ba", "bb"]
    vocab, items, trie = cat.build_catalog(titles)
    tables = {
        (): {"a": 0.6, "b": 0.4},
        ("a",): {"a": 0.5, "b": 0.5},
        ("b",): {"a": 0.55, "b": 0.45},
        ("a", "a"): {"<eos>": 1.0},
        ("a", "b"): {"<eos>": 1.0},
        ("b", "a"): {"<eos>": 1.0},
        ("b", "b"): {"<eos>": 1.0},
    }
    model = TableModel(vocab, tables)
    positive = next(i for i in items if i.title == "bb")
    finals, trace = beam_search(model, (BOS_ID,), trie, DecodeConfig(beam_width=2))
    # "bb" prefix (b, b): locally rank 2 of 2 at its parent, but the pool at
    # step 2 holds aa=0.30, ab=0.30 above ba=0.22 and bb=0.18
    cause, step = classify_positive(trace, positive.token_ids, trie)
    assert cause is PruningCause.GLOBAL_PRUNED
    assert step == 2
    # replay the step-2 pool by hand
    step2 = trace.steps[1]
    scores = sorted((e.log_score for e in step2.expansions), reverse=True)
    assert step2.bth_log_score == scores[1]


def test_greedy_beam_matches_path_enumeration():
    titles = ["ab", "ac", "b"]
    vocab, items, trie = cat.build_catalog(titles)
    tables = {
        (): {"a": 0.55, "b": 0.45},
        ("a",): {"b": 0.6, "c": 0.4},
        ("a", "b"): {"<eos>": 1.0},
        ("a", "c"): {"<eos>": 1.0},
        ("b",): {"<eos>": 1.0},
    }
    model = TableModel(vocab, tables)
    finals, _ = beam_search(model, (BOS_ID,), trie, DecodeConfig(beam_width=1))
    # greedy follows the locally best token at every step: a (0.55) then b (0.6)
    assert len(finals) == 1
    assert finals[0].item_id == next(i for i in items if i.title == "ab").item_id
    assert finals[0].log_prob == model.sequence_log_prob((BOS_ID,), finals[0].tokens)
    # brute force over all root-to-terminal paths: the global best is "b"
    # (0.45), which greedy pruned at step one - the phenomenon under study
    best = max(items, key=lambda it: model.sequence_log_prob((BOS_ID,), it.token_ids))
    assert best.title == "b"
    assert best.item_id != finals[0].item_id


def random_world(rng, n_titles=12, seed=None):
    letters = "abcdef"
    titles = set()
    while len(titles) < n_titles:
        n = int(rng.integers(1, 5))
        titles.add("".join(rng.choice(list(letters), size=n)))
    vocab, items, trie = cat.build_catalog(sorted(titles))
    config = ModelConfig(vocab_size=len(vocab), embed_dim=6, hidden_dim=6,
                         max_context=24, seed=int(rng.integers(0, 2**31)) if seed is None else seed)
    model = SequenceModel(config)
    # random parameter scale so distributions are not near-uniform
    init = np.random.default_rng(config.seed + 1)
    for name in model.store.names():
        shape = model.store.value(name).shape
        model.store.set_value(name, init.uniform(-0.8, 0.8, size=shape))
    return vocab, items, trie, model


def test_beam_equals_exhaustive_when_beam_covers_catalog():
    rng = np.random.default_rng(42)
    for _ in range(5):
        vocab, items, trie, model = random_world(rng)
        prompt = (BOS_ID, int(rng.integers(4, len(vocab))))
        finals, _ = beam_search(model, prompt, trie,
                                DecodeConfig(beam_width=len(items)))
        ranking = exhaustive_rank(model, prompt, items)
        assert [(h.item_id, h.log_prob) for h in finals] == ranking  # bit-equal


def test_exhaustive_rank_matches_per_step_log_sum_oracle():
    rng = np.random.default_rng(3)
    vocab, items, trie, model = random_world(rng, n_titles=50)
    prompt = (BOS_ID,)
    ranking = dict(exhaustive_rank(model, prompt, items))
    for item in items:
        ctx = list(prompt)
        total = 0.0
        for tok in item.token_ids:
            dist = model.next_token_distribution(ctx)
            total += math.log(max(float(dist[tok]), 1e-12))
            ctx.append(tok)
        assert ranking[item.item_id] == total


def test_necessary_condition_soundness_on_random_traces():
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(40):
        vocab, items, trie, model = random_world(rng)
        prompt = (BOS_ID,)
        b = int(rng.integers(1, 5))
        _, trace = beam_search(model, prompt, trie, DecodeConfig(beam_width=b))
        for record in trace.steps:
            survivor_set = {tokens for tokens, _s, finished in record.survivors
                            if len(tokens) == record.step}
            for tokens in survivor_set:
                parent_ctx = prompt + tokens[:-1]
                dist = model.next_token_distribution(parent_ctx)
                lp = math.log(max(float(dist[tokens[-1]]), 1e-12))
                parent_idx = next(e.parent for e in record.expansions
                                  if e.tokens == tokens)
                assert lp >= record.parent_thresholds[parent_idx]
                checked += 1
    assert checked > 100


def test_scores_non_increasing_along_hypotheses():
    rng = np.random.default_rng(23)
    vocab, items, trie, model = random_world(rng)
    _, trace = beam_search(model, (BOS_ID,), trie, DecodeConfig(beam_width=4))
    for record in trace.steps:
        for e in record.expansions:
            # parent score at previous step
            if record.step == 1:
                assert e.log_score <= 0.0
            else:
                prev = trace.steps[record.step - 2]
                parent_tokens, parent_score, _ = prev.survivors[e.parent]
                assert e.tokens[:-1] == parent_tokens
                assert e.log_score <= parent_score


def test_trace_accounting_and_determinism():
    rng = np.random.default_rng(29)
    vocab, items, trie, model = random_world(rng)
    config = DecodeConfig(beam_width=3)
    finals_a, trace_a = beam_search(model, (BOS_ID,), trie, config)
    finals_b, trace_b = beam_search(model, (BOS_ID,), trie, config)
    assert trace_a.to_json() == trace_b.to_json()
    assert finals_a == finals_b
    for record in trace_a.steps:
        assert len(record.survivors) <= config.beam_width
        fates = [tuple(t) for t, _s, _f in record.survivors]
        fates += [tuple(t) for t, _s, _c in record.pruned]
        for e in record.expansions:
            assert fates.count(tuple(e.tokens)) == 1


def test_unconstrained_mode_counts_unfinished():
    rng = np.random.default_rng(31)
    vocab, items, trie, model = random_world(rng)
    config = DecodeConfig(beam_width=3, constrained=False, max_steps=2)
    finals, trace = beam_search(model, (BOS_ID,), trie, config)
    assert len(finals) + trace.discarded_unfinished == 3
    for h in finals:
        assert h.tokens[-1] == EOS_ID


def test_length_normalization_changes_comparison():
    titles = ["aa", "bbbbb"]
    vocab, items, trie = cat.build_catalog(titles)
    tables = {
        (): {"a": 0.5, "b": 0.5},
        ("a",): {"a": 0.2},
        ("a", "a"): {"<eos>": 1.0},
        ("b",): {"b": 0.9}, ("b", "b"): {"b": 0.9}, ("b", "b", "b"): {"b": 0.9},
        ("b", "b", "b", "b"): {"b": 0.9},
        ("b", "b", "b", "b", "b"): {"<eos>": 1.0},
    }
    model = TableModel(vocab, tables)
    raw, _ = beam_search(model, (BOS_ID,), trie, DecodeConfig(beam_width=2))
    norm, _ = beam_search(model, (BOS_ID,), trie,
                          DecodeConfig(beam_width=2, length_normalization=True))
    # raw: aa has log(0.1) = -2.303 > bbbbb log(0.5*0.9^4) = -1.117? no:
    # log(0.5*0.2) = -2.303, log(0.5*0.9^4) = -1.117 so raw puts bbbbb first;
    # per-token average favours bbbbb even more: orders agree here, but the
    # comparison keys must differ
    assert raw[0].item_id == norm[0].item_id
    assert raw[0].log_prob == norm[0].log_prob  # raw scores recorded either way


def test_max_steps_guard_for_constrained_mode():
    vocab, items, trie = cat.build_catalog(["abc"])
    tables = {(): {"a": 1.0}, ("a",): {"b": 1.0}, ("a", "b"): {"c": 1.0},
              ("a", "b", "c"): {"<eos>": 1.0}}
    model = TableModel(vocab, tables)
    with pytest.raises(ValidationError):
        beam_search(model, (BOS_ID,), trie, DecodeConfig(beam_width=2, max_steps=2))


def test_classify_rejects_non_catalog_positive():
    vocab, items, trie = cat.build_catalog(["ab"])
    trace = BeamTrace(prompt=(BOS_ID,), beam_width=1, constrained=True,
                      length_normalization=False)
    with pytest.raises(ValidationError):
        classify_positive(trace, (vocab.id_of("a"), EOS_ID), trie)
