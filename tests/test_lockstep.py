"""Differential tests of lockstep beam search against the slow reference in
`reference_beam.py`: identical finals and identical trace JSON for every
prompt of a batch, ties included, and identical prefix-ref thresholds."""

import math
import zlib

import numpy as np
import pytest

from per_context import PerContextScorer
from reference_beam import reference_beam_search, reference_prefix_thresholds
from test_decode import TableModel, random_world

from bearlab import autodiff as ad
from bearlab import catalog as cat
from bearlab import objectives as obj
from bearlab.catalog import BOS_ID
from bearlab.decode import (DecodeConfig, beam_search, exhaustive_rank, prefix_thresholds,
                            score_table, search)


class TieModel(PerContextScorer):
    """Distributions drawn from three probabilities by a hash of the context,
    defined for every context, so beams tie exactly and often. It has no
    `config`: the search reads the vocabulary size off its rows."""

    def __init__(self, vocab_size, salt=0):
        self.vocab_size = vocab_size
        self.salt = salt

    def next_token_distribution(self, context):
        key = zlib.crc32(np.asarray(context, dtype=np.int64).tobytes()) + self.salt
        return np.random.default_rng(key).choice([0.05, 0.1, 0.2], size=self.vocab_size)


class FixedModel(PerContextScorer):
    """The same distribution after every context."""

    def __init__(self, dist):
        self.dist = dist

    def next_token_distribution(self, context):
        return self.dist


def prompts_of(rng, vocab_size, n):
    """Prompts of one to four tokens after BOS."""
    return [(BOS_ID,) + tuple(int(t) for t in rng.integers(4, vocab_size,
                                                          size=int(rng.integers(0, 4))))
            for _ in range(n)]


def assert_matches_reference(model, prompts, trie, config):
    found = search(model, prompts, trie, config)
    for prompt, (finals, trace) in zip(prompts, found.results):
        ref_finals, ref_trace = reference_beam_search(model, prompt, trie, config)
        assert finals == ref_finals
        assert trace.to_json() == ref_trace.to_json()
    return found


@pytest.mark.parametrize("normalized", [False, True])
def test_random_worlds_every_width(normalized):
    rng = np.random.default_rng(808)
    for trial in range(4):
        vocab, items, trie, model = random_world(rng, n_titles=int(rng.integers(5, 10)))
        prompts = prompts_of(rng, len(vocab), 5)
        for b in range(1, len(items) + 1):
            config = DecodeConfig(beam_width=b, length_normalization=normalized)
            assert_matches_reference(model, prompts, trie, config)


@pytest.mark.parametrize("normalized", [False, True])
def test_exact_ties_every_width(normalized):
    rng = np.random.default_rng(909)
    lengths = set()
    for trial in range(4):
        vocab, items, trie, _ = random_world(rng, n_titles=int(rng.integers(6, 12)))
        model = TieModel(len(vocab), salt=trial)
        prompts = prompts_of(rng, len(vocab), 6)
        for b in range(1, len(items) + 1):
            config = DecodeConfig(beam_width=b, length_normalization=normalized)
            found = assert_matches_reference(model, prompts, trie, config)
            lengths.add(len({len(trace.steps) for _, trace in found.results}))
    assert max(lengths) > 1  # some prompts finished before others


def test_unconstrained_with_ties_and_a_short_budget():
    rng = np.random.default_rng(1212)
    for trial in range(3):
        vocab, items, trie, _ = random_world(rng)
        model = TieModel(len(vocab), salt=trial)
        prompts = prompts_of(rng, len(vocab), 4)
        for b in (1, 3, 7):
            for max_steps in (1, 3):
                config = DecodeConfig(beam_width=b, constrained=False, max_steps=max_steps)
                assert_matches_reference(model, prompts, trie, config)


def test_scores_are_sums_of_math_log_floats():
    # probabilities whose np.log and math.log differ in the last bit on this
    # build (when there are any): beam and oracle scores must be math.log sums
    rng = np.random.default_rng(5)
    odd = [p for p in rng.uniform(0.01, 1.0, size=20000).tolist()
           if math.log(p) != float(np.log(p))]
    vocab, items, trie = cat.build_catalog(["ab", "ac", "ba", "bc", "ca", "cb"])
    model = FixedModel(np.array((odd + rng.uniform(0.01, 1.0, len(vocab)).tolist())[:len(vocab)]))
    assert_matches_reference(model, [(BOS_ID,)], trie, DecodeConfig(beam_width=len(items)))
    expected = {item.item_id: sum(math.log(model.dist[t]) for t in item.token_ids)
                for item in items}
    assert dict(exhaustive_rank(model, (BOS_ID,), items)) == expected


def test_one_prompt_and_shared_table_match_the_batch():
    rng = np.random.default_rng(77)
    vocab, items, trie, model = random_world(rng)
    prompts = prompts_of(rng, len(vocab), 3)
    config = DecodeConfig(beam_width=3)
    batch = search(model, prompts, trie, config).results
    for prompt, (finals, trace) in zip(prompts, batch):
        alone = beam_search(model, prompt, trie, config)
        shared = beam_search(model, prompt, trie, config,
                             table=score_table(model, prompt, trie))
        assert finals == alone[0] == shared[0]
        assert trace.to_json() == alone[1].to_json() == shared[1].to_json()


def test_prefix_thresholds_match_reference_and_per_instance_objective():
    rng = np.random.default_rng(4242)
    checked = 0
    for trial in range(6):
        vocab, items, trie, model = random_world(rng, n_titles=int(rng.integers(6, 14)))
        prompts = prompts_of(rng, len(vocab), 5)
        targets = [items[int(i)].token_ids for i in rng.integers(0, len(items), size=5)]
        b = int(rng.integers(1, 6))
        hp = obj.HyperParams(beam_width=b)
        config = DecodeConfig(beam_width=b)
        tape = ad.Tape()
        nodes = model.batch_forward(tape, [(list(p), list(t)) for p, t in zip(prompts, targets)])
        cums = [obj.prefix_log_scores(node.value, t) for node, t in zip(nodes, targets)]
        batch = prefix_thresholds(search(model, prompts, trie, config), trie, targets, cums, b)
        for prompt, target, node, cum, thresholds in zip(prompts, targets, nodes, cums, batch):
            ref_finals, ref_trace = reference_beam_search(model, prompt, trie, config)
            assert thresholds == reference_prefix_thresholds(ref_trace, ref_finals, cum,
                                                             target, b)
            free, _ = obj.prefix_objective_reference(tape, model, prompt, target, hp, trie,
                                                     config, dists=node)
            frozen, _ = obj.prefix_objective_reference(tape, model, prompt, target, hp, trie,
                                                       config, frozen_thresholds=thresholds,
                                                       dists=node)
            assert free.value.item() == frozen.value.item()
            checked += 1
    assert checked == 30


def test_prefix_thresholds_past_the_end_of_the_search():
    # with B = 1 the search ends after two steps, once its one beam "b"
    # finishes; the positive "ac" has three, so its last step compares
    # against the finals
    vocab, items, trie = cat.build_catalog(["ac", "b"])
    model = TableModel(vocab, {(): {"a": 0.4, "b": 0.6}, ("a",): {"c": 1.0},
                               ("a", "c"): {"<eos>": 1.0}, ("b",): {"<eos>": 1.0}})
    config = DecodeConfig(beam_width=1)
    found = search(model, [(BOS_ID,)], trie, config)
    ref_finals, ref_trace = reference_beam_search(model, (BOS_ID,), trie, config)
    target, cum = items[0].token_ids, [-0.9, -0.9, -0.9]
    assert len(found.steps) == len(ref_trace.steps) == 2
    thresholds = prefix_thresholds(found, trie, [target], [cum], 1)[0]
    assert thresholds == reference_prefix_thresholds(ref_trace, ref_finals, cum, target, 1)
    assert thresholds[2] == ref_finals[0].log_prob  # log 0.6 beats the prefix's -0.9
