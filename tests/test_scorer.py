"""Differential tests of the cached scorer (`prefill`/`extend`) and the score
table built from it, against the per-context reference: every row must be
bit-identical to `next_token_distribution` of the same context."""

import numpy as np
import pytest

from per_context import PerContextModel
from test_decode import random_world

from bearlab import catalog as cat
from bearlab import data as datamod
from bearlab import experiment as exp
from bearlab.catalog import BOS_ID
from bearlab.decode import DecodeConfig, beam_search, exhaustive_rank, score_table
from bearlab.errors import ContextLengthError, ValidationError
from bearlab.model import ModelConfig, SequenceModel


def internal_nodes(trie):
    return np.flatnonzero((trie.child >= 0).any(axis=1))


def path_of(trie, node):
    tokens = []
    while node > 0:
        tokens.append(int(trie.token[node]))
        node = trie.parent[node]
    return tuple(reversed(tokens))


def assert_table_matches_per_context(model, prompt, trie):
    """Every internal trie node, and nothing else, has a row, bit-equal to
    its per-context distribution; returns the number of rows."""
    table = score_table(model, prompt, trie)
    nodes = internal_nodes(trie)
    assert len(table.rows) == len(nodes)
    for node in nodes:
        expected = model.next_token_distribution(tuple(prompt) + path_of(trie, node))
        assert np.array_equal(table.rows[table.node_of[node]], expected), node
    return len(nodes)


def test_table_rows_bit_equal_in_random_worlds():
    rng = np.random.default_rng(1001)
    for trial in range(10):
        vocab, items, trie, model = random_world(rng, n_titles=int(rng.integers(8, 18)))
        prompt = (BOS_ID, int(rng.integers(4, len(vocab))))
        assert assert_table_matches_per_context(model, prompt, trie) > len(items) // 2


def test_table_rows_bit_equal_with_one_token_prompt_and_single_node_depths():
    vocab, items, trie = cat.build_catalog(["abcd", "abce", "b", "ca"])
    assert np.bincount(trie.depth[internal_nodes(trie)]).tolist() == [1, 3, 2, 1, 2]
    assert_table_matches_per_context(_scaled_model(len(vocab)), (BOS_ID,), trie)


def _scaled_model(vocab_size, block="causal-attention", blocks=1, seed=4):
    model = SequenceModel(ModelConfig(vocab_size=vocab_size, embed_dim=6, hidden_dim=6,
                                      block=block, blocks=blocks, max_context=24,
                                      seed=seed))
    init = np.random.default_rng(seed + 1)
    for name in model.store.names():
        shape = model.store.value(name).shape
        model.store.set_value(name, init.uniform(-0.8, 0.8, size=shape))
    return model


@pytest.mark.parametrize("block,blocks", [("causal-attention", 1), ("causal-attention", 2),
                                          ("gated-recurrent", 1)])
def test_extend_rows_bit_equal_to_next_token_distribution(block, blocks):
    model = _scaled_model(9, block=block, blocks=blocks)
    rng = np.random.default_rng(7)
    prompt = [BOS_ID] + [int(t) for t in rng.integers(4, 9, size=4)]
    state, root = model.prefill(prompt)
    assert np.array_equal(root, model.next_token_distribution(prompt))
    contexts = {0: list(prompt)}
    frontier = [0]
    for width in (3, 1, 5, 2):
        parents = rng.choice(frontier, size=width)
        tokens = rng.integers(4, 9, size=width)
        ids, dists = model.extend(state, parents, tokens)
        for node, parent, tok, dist in zip(ids, parents, tokens, dists):
            contexts[node] = contexts[parent] + [int(tok)]
            assert np.array_equal(dist, model.next_token_distribution(contexts[node]))
        frontier = list(ids)
    stacked = model.step_distributions([contexts[i] for i in frontier])
    for node, row in zip(frontier, stacked):
        assert np.array_equal(row, model.next_token_distribution(contexts[node]))


def test_extend_rejects_bad_batches():
    model = _scaled_model(9)
    state, _ = model.prefill([BOS_ID, 4])
    ids, _ = model.extend(state, [0, 0], [5, 6])
    with pytest.raises(ValidationError, match="one context length"):
        model.extend(state, [0, ids[0]], [5, 6])
    with pytest.raises(ValidationError, match="parent id out of range"):
        model.extend(state, [-1], [5])
    with pytest.raises(ValidationError, match="token id out of range"):
        model.extend(state, [0], [9])
    with pytest.raises(ValidationError):
        model.extend(state, [0, 0], [5])
    with pytest.raises(ValidationError):
        model.prefill([])
    long_state, _ = model.prefill([BOS_ID] + [4] * 23)
    with pytest.raises(ContextLengthError):
        model.extend(long_state, [0], [5])


def test_beam_search_same_trace_with_table_without_and_per_context():
    rng = np.random.default_rng(29)
    for trial in range(10):
        vocab, items, trie, model = random_world(rng)
        prompt = (BOS_ID, int(rng.integers(4, len(vocab))))
        config = DecodeConfig(beam_width=int(rng.integers(1, 5)))
        table = score_table(model, prompt, trie)
        _, shared = beam_search(model, prompt, trie, config, table=table)
        _, own = beam_search(model, prompt, trie, config)
        _, slow = beam_search(PerContextModel(model), prompt, trie, config)
        assert shared.to_json() == own.to_json() == slow.to_json(), trial
        assert (exhaustive_rank(model, prompt, items, table)
                == exhaustive_rank(model, prompt, items)
                == exhaustive_rank(PerContextModel(model), prompt, items)), trial


def test_table_rejects_other_prompt():
    vocab, items, trie, model = random_world(np.random.default_rng(3))
    table = score_table(model, (BOS_ID,), trie)
    with pytest.raises(ValidationError, match="different prompt"):
        beam_search(model, (BOS_ID, 4), trie, DecodeConfig(beam_width=2), table=table)
    with pytest.raises(ValidationError, match="different prompt"):
        exhaustive_rank(model, (BOS_ID, 4), items, table)
    with pytest.raises(ValidationError, match="unknown scorer"):
        beam_search(model, (BOS_ID,), trie, DecodeConfig(beam_width=2), scorer="fast")


@pytest.fixture(scope="module")
def default_checkpoint(tmp_path_factory):
    """A one-epoch sft checkpoint on the default synthetic data."""
    out = str(tmp_path_factory.mktemp("default"))
    config = exp.ExperimentConfig(dataset=datamod.SyntheticConfig(), epochs=1,
                                  seeds=(0,), out_dir=out)
    exp.generate_data(config, out)
    bundle = exp.prepare_dataset(config, out, persist=False)
    checkpoint, _ = exp.train(config, bundle, seed=0)
    return config, bundle, checkpoint.model()


def test_table_rows_bit_equal_on_trained_default_model(default_checkpoint):
    config, bundle, model = default_checkpoint
    for inst in bundle.split("test")[:3]:
        assert_table_matches_per_context(model, inst.prompt, bundle.trie)
        table = score_table(model, inst.prompt, bundle.trie)
        _, shared = beam_search(model, inst.prompt, bundle.trie, config.decode, table=table)
        _, own = beam_search(model, inst.prompt, bundle.trie, config.decode)
        _, slow = beam_search(PerContextModel(model), inst.prompt, bundle.trie,
                              config.decode)
        assert shared.to_json() == own.to_json() == slow.to_json()
