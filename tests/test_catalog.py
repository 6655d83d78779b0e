"""Catalog, vocabulary, and prefix-trie behaviour."""

import numpy as np
import pytest

from bearlab import catalog as cat
from bearlab.catalog import BOS_ID, EOS_ID, PAD_ID, SEP_ID
from bearlab.errors import ValidationError


def test_specials_have_fixed_ids():
    vocab, _, _ = cat.build_catalog(["ab"])
    assert (BOS_ID, EOS_ID, SEP_ID, PAD_ID) == (0, 1, 2, 3)
    assert vocab.token_of(0) == "<bos>"
    assert vocab.token_of(1) == "<eos>"


def test_three_title_trie_shape():
    vocab, items, trie = cat.build_catalog(["ab", "ac", "b"])
    a, b = vocab.id_of("a"), vocab.id_of("b")
    assert trie.valid_next_tokens(()) == {a, b}
    assert trie.n_items() == 3
    # prefix "a" continues with b or c
    assert trie.valid_next_tokens((a,)) == {vocab.id_of("b"), vocab.id_of("c")}
    # prefix "ab" can only terminate
    assert trie.valid_next_tokens((a, vocab.id_of("b"))) == {EOS_ID}


def test_single_title_trie():
    vocab, items, trie = cat.build_catalog(["x"])
    x = vocab.id_of("x")
    assert trie.valid_next_tokens(()) == {x}
    assert trie.valid_next_tokens((x,)) == {EOS_ID}
    assert trie.item_of((x, EOS_ID)) == 0


def test_item_of_lookups():
    vocab, items, trie = cat.build_catalog(["ab", "ac", "b"])
    assert trie.item_of(items[0].token_ids) == 0
    assert trie.item_of(items[2].token_ids) == 2
    with pytest.raises(ValidationError):
        trie.item_of((vocab.id_of("a"), EOS_ID))  # "a" is not an item
    with pytest.raises(ValidationError):
        trie.item_of((vocab.id_of("c"),))


def test_duplicate_title_rejected_with_indices():
    with pytest.raises(ValidationError, match=r"0 and 2"):
        cat.build_catalog(["ab", "cd", "ab"])


def test_empty_title_rejected():
    with pytest.raises(ValidationError, match="index 1"):
        cat.build_catalog(["ab", ""])


def test_word_tokenization_round_trip_and_collision():
    vocab, items, trie = cat.build_catalog(["red shoe", "red hat"], tokenization="whitespace-word")
    assert items[0].token_ids[:-1] == (vocab.id_of("red"), vocab.id_of("shoe"))
    title = cat.join_tokens(
        [vocab.token_of(t) for t in items[0].token_ids[:-1]], "whitespace-word"
    )
    assert title == "red shoe"
    with pytest.raises(ValidationError, match="irregular spacing"):
        cat.build_catalog(["red  shoe"], tokenization="whitespace-word")


def test_character_round_trip_arbitrary_titles():
    titles = ["a,b", 'say "hi"', "Bocchi the Rock!", " leading"]
    vocab, items, trie = cat.build_catalog(titles)
    for item in items:
        rebuilt = cat.join_tokens(
            [vocab.token_of(t) for t in item.token_ids[:-1]], "character"
        )
        assert rebuilt == item.title


def test_thousand_random_titles_terminal_count():
    rng = np.random.default_rng(0)
    letters = "abcdefghij"
    titles = set()
    while len(titles) < 1000:
        n = rng.integers(3, 9)
        titles.add("".join(rng.choice(list(letters), size=n)))
    titles = sorted(titles)
    _, items, trie = cat.build_catalog(titles)
    assert trie.n_items() == 1000
    assert len(trie.all_paths()) == 1000


def test_every_item_walk_never_rejects():
    rng = np.random.default_rng(1)
    letters = "abcde"
    titles = sorted({"".join(rng.choice(list(letters), size=rng.integers(1, 7)))
                     for _ in range(200)})
    vocab, items, trie = cat.build_catalog(titles)
    for item in items:
        prefix = ()
        for tok in item.token_ids:
            assert tok in trie.valid_next_tokens(prefix)
            prefix = prefix + (tok,)
        assert trie.item_of(prefix) == item.item_id


def test_trie_arrays_are_breadth_first_and_consistent():
    rng = np.random.default_rng(5)
    titles = sorted({"".join(rng.choice(list("abcd"), size=rng.integers(1, 6)))
                     for _ in range(60)})
    vocab, items, trie = cat.build_catalog(titles)
    assert np.all(np.diff(trie.depth) >= 0) and trie.levels[-1] == len(trie.item)
    paths = {0: ()}
    for node in range(1, len(trie.item)):
        paths[node] = paths[trie.parent[node]] + (int(trie.token[node]),)
        assert trie.depth[node] == len(paths[node])
        assert trie.child[trie.parent[node], trie.token[node]] == node
    assert sorted(paths.values(), key=lambda p: (len(p), p)) == list(paths.values())
    assert len(set(paths.values())) == len(paths)
    for node, path in paths.items():
        assert np.count_nonzero(trie.child[node] >= 0) == len(trie.valid_next_tokens(path))
        assert trie.item[node] == (trie.item_of(path) if path and path[-1] == EOS_ID else -1)
    assert {paths[n]: int(trie.item[n]) for n in np.flatnonzero(trie.item >= 0)} == {
        item.token_ids: item.item_id for item in items}
    assert trie.max_item_length() == max(len(item.token_ids) for item in items)


def test_trie_paths_reconstruct_catalog_exactly():
    titles = ["ab", "ac", "b", "bca"]
    vocab, items, trie = cat.build_catalog(titles)
    paths = {path: item_id for path, item_id in trie.all_paths()}
    assert paths == {item.token_ids: item.item_id for item in items}


def test_invalid_prefix_rejected():
    vocab, _, trie = cat.build_catalog(["ab"])
    with pytest.raises(ValidationError, match="position 0"):
        trie.valid_next_tokens((EOS_ID,))


def test_valid_mask_walk():
    vocab, items, trie = cat.build_catalog(["ab", "ac", "b"])
    target = items[0].token_ids  # a, b, EOS
    masks = trie.valid_mask_walk(target, len(vocab))
    a, b, c = vocab.id_of("a"), vocab.id_of("b"), vocab.id_of("c")
    assert set(np.flatnonzero(masks[0])) == {a, b}
    assert set(np.flatnonzero(masks[1])) == {b, c}
    assert set(np.flatnonzero(masks[2])) == {EOS_ID}


def test_catalog_csv_round_trip(tmp_path):
    titles = ["plain", "with, comma", 'with "quotes"']
    path = tmp_path / "catalog.csv"
    cat.save_catalog_csv(str(path), titles)
    assert cat.load_catalog_csv(str(path)) == titles
    # ids must be dense and ordered
    path2 = tmp_path / "bad.csv"
    path2.write_text("item_id,title\n1,thing\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        cat.load_catalog_csv(str(path2))


def test_vocab_json_round_trip():
    vocab, _, _ = cat.build_catalog(["ab", "cd"])
    again = cat.Vocabulary.from_json(vocab.to_json())
    assert again.tokens == vocab.tokens
    assert again.digest() == vocab.digest()
