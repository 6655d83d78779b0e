"""Item catalog, tokenizer, and the prefix trie used for constrained decoding.

The trie encodes every valid token continuation of every catalog item, with
the end-of-sequence token modeled as an explicit edge into a terminal node, so
a decoder's final step is ordinary expansion.
"""

import csv
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

BOS_ID, EOS_ID, SEP_ID, PAD_ID = 0, 1, 2, 3
SPECIAL_TOKENS = ("<bos>", "<eos>", "<sep>", "<pad>")

TOKENIZATIONS = ("character", "whitespace-word")


class Vocabulary:
    """Bijective token <-> id map with the four reserved specials at ids 0-3."""

    def __init__(self, content_tokens):
        tokens = list(SPECIAL_TOKENS) + list(content_tokens)
        if len(set(tokens)) != len(tokens):
            raise ValidationError("vocabulary tokens must be unique")
        self._tokens = tokens
        self._ids = {tok: i for i, tok in enumerate(tokens)}

    def __len__(self) -> int:
        return len(self._tokens)

    def id_of(self, token: str) -> int:
        try:
            return self._ids[token]
        except KeyError:
            raise ValidationError(f"token {token!r} not in vocabulary") from None

    def token_of(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._tokens):
            raise ValidationError(f"token id {token_id} out of range")
        return self._tokens[token_id]

    @property
    def tokens(self) -> tuple:
        return tuple(self._tokens)

    def digest(self) -> str:
        return hashlib.sha256(json.dumps(self._tokens).encode()).hexdigest()

    def to_json(self) -> dict:
        return {"tokens": self._tokens}

    @classmethod
    def from_json(cls, payload: dict) -> "Vocabulary":
        tokens = payload["tokens"]
        if tuple(tokens[:4]) != SPECIAL_TOKENS:
            raise ValidationError("vocabulary file is missing the reserved specials")
        return cls(tokens[4:])


def split_title(title: str, tokenization: str) -> list[str]:
    """Split a title into string tokens. Exact round-trip is required, so the
    whitespace-word mode rejects titles with leading/trailing/repeated
    spaces."""
    if tokenization == "character":
        return list(title)
    if tokenization == "whitespace-word":
        parts = title.split(" ")
        if any(p == "" for p in parts):
            raise ValidationError(
                f"title {title!r} has irregular spacing; whitespace-word "
                "tokenization cannot round-trip it"
            )
        return parts
    raise ValidationError(f"unknown tokenization {tokenization!r}")


def join_tokens(parts: list[str], tokenization: str) -> str:
    return "".join(parts) if tokenization == "character" else " ".join(parts)


@dataclass(frozen=True)
class Item:
    item_id: int
    title: str
    token_ids: tuple  # content token ids followed by exactly one EOS


class PrefixTrie:
    """All valid token continuations of the catalog, as arrays. Each item's
    path ends with an explicit EOS edge into a terminal node.

    Nodes are in breadth-first order with children by token id, so node 0 is
    the root and the nodes of depth d are `levels[d]:levels[d + 1]`.
    `child[n, tok]` is the child of node n by token tok, -1 where there is
    none; `parent`, `token` and `depth` describe each node, and `item[n]` is
    the item id at a terminal, -1 elsewhere.
    """

    def __init__(self, paths=()):
        """`paths`: (token ids, item id) of every item."""
        items: dict[tuple, int] = {}
        for tokens, item_id in paths:
            tokens = tuple(int(t) for t in tokens)
            if tokens in items:
                raise ValidationError(
                    f"items {items[tokens]} and {item_id} share an identical token sequence"
                )
            items[tokens] = item_id
        nodes = sorted({path[:d] for path in items for d in range(len(path) + 1)} | {()},
                       key=lambda prefix: (len(prefix), prefix))
        self._items = items
        self._index = {prefix: n for n, prefix in enumerate(nodes)}
        self.parent = np.array([self._index[p[:-1]] if p else -1 for p in nodes])
        self.token = np.array([p[-1] if p else -1 for p in nodes])
        self.depth = np.array([len(p) for p in nodes])
        self.item = np.array([items.get(p, -1) for p in nodes])
        self.child = np.full((len(nodes), self.token.max() + 1), -1)
        self.child[self.parent[1:], self.token[1:]] = np.arange(1, len(nodes))
        self.levels = np.searchsorted(self.depth, np.arange(self.depth[-1] + 2))

    @classmethod
    def from_items(cls, items) -> "PrefixTrie":
        return cls((item.token_ids, item.item_id) for item in items)

    def _node_at(self, prefix) -> int:
        prefix = tuple(prefix)
        node = self._index.get(prefix)
        if node is None:
            depth = next(d for d in range(len(prefix)) if prefix[:d + 1] not in self._index)
            raise ValidationError(
                f"prefix {list(prefix)!r} leaves the trie at position {depth}"
            )
        return node

    def valid_next_tokens(self, prefix) -> set:
        """Child token ids at the prefix's node (decoder never leaves the trie)."""
        return set(np.flatnonzero(self.child[self._node_at(prefix)] >= 0).tolist())

    def item_of(self, tokens) -> int:
        """Item id at the terminal reached by `tokens` (which must end in EOS)."""
        item = int(self.item[self._node_at(tokens)])
        if item < 0:
            raise ValidationError(f"token sequence {list(tokens)!r} is not a full catalog item")
        return item

    def n_items(self) -> int:
        return len(self._items)

    def max_item_length(self) -> int:
        return int(self.depth[-1])

    def all_paths(self) -> list[tuple[tuple, int]]:
        """Every root-to-terminal path with its item id (catalog reconstruction)."""
        return sorted(self._items.items(), key=lambda p: p[1])

    def valid_mask_walk(self, target, vocab_size: int) -> np.ndarray:
        """(len(target), vocab_size) boolean masks of valid next tokens along a
        target path, step t masking the children of target[:t]."""
        masks = np.zeros((len(target), vocab_size), dtype=bool)
        node = 0
        for t, tok in enumerate(target):
            masks[t, :self.child.shape[1]] = self.child[node] >= 0
            node = self.child[node, tok] if tok < self.child.shape[1] else -1
            if node < 0:
                raise ValidationError(
                    f"target {list(target)!r} leaves the trie at step {t}"
                )
        return masks


def build_catalog(titles, tokenization: str = "character"):
    """Build (Vocabulary, items, PrefixTrie) from titles.

    Duplicate titles (or distinct titles that tokenize identically) and empty
    titles are rejected with the offending indices.
    """
    titles = list(titles)
    if not titles:
        raise ValidationError("catalog needs at least one title")
    token_lists = []
    seen: dict[tuple, int] = {}
    for i, title in enumerate(titles):
        if title == "":
            raise ValidationError(f"title at index {i} is empty")
        parts = split_title(title, tokenization)
        key = tuple(parts)
        if key in seen:
            raise ValidationError(
                f"titles at indices {seen[key]} and {i} tokenize to the same sequence"
            )
        seen[key] = i
        token_lists.append(parts)

    content = sorted({tok for parts in token_lists for tok in parts})
    vocab = Vocabulary(content)
    items = []
    for i, (title, parts) in enumerate(zip(titles, token_lists)):
        ids = tuple(vocab.id_of(p) for p in parts) + (EOS_ID,)
        items.append(Item(item_id=i, title=title, token_ids=ids))
    return vocab, items, PrefixTrie.from_items(items)


# ---------------------------------------------------------------------------
# Catalog CSV: header `item_id,title`, ids dense in catalog order
# ---------------------------------------------------------------------------


def save_catalog_csv(path: str, titles) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["item_id", "title"])
        for i, title in enumerate(titles):
            writer.writerow([i, title])


def load_catalog_csv(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["item_id", "title"]:
            raise ValidationError(f"catalog file {path} has header {header}, "
                                  "expected ['item_id', 'title']")
        titles = []
        for row in reader:
            if len(row) != 2:
                raise ValidationError(f"catalog row {row!r} is malformed")
            idx, title = row
            if int(idx) != len(titles):
                raise ValidationError(
                    f"catalog item ids must be dense and ordered; got {idx} "
                    f"at position {len(titles)}"
                )
            titles.append(title)
    if not titles:
        raise ValidationError(f"catalog file {path} has no items")
    return titles
