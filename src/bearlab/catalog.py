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


class _TrieNode:
    __slots__ = ("children", "item_id")

    def __init__(self):
        self.children: dict[int, _TrieNode] = {}
        self.item_id: int | None = None


class PrefixTrie:
    """All valid token continuations of the catalog; terminals carry item ids."""

    def __init__(self):
        self._root = _TrieNode()
        self._n_items = 0
        self._max_item_length = 0
        self._internal_prefixes = None

    @classmethod
    def from_items(cls, items) -> "PrefixTrie":
        trie = cls()
        for item in items:
            trie._insert(item.token_ids, item.item_id)
        return trie

    def _insert(self, token_ids, item_id: int) -> None:
        node = self._root
        for tok in token_ids:
            node = node.children.setdefault(tok, _TrieNode())
        if node.item_id is not None:
            raise ValidationError(
                f"items {node.item_id} and {item_id} share an identical token sequence"
            )
        node.item_id = item_id
        self._n_items += 1
        self._max_item_length = max(self._max_item_length, len(token_ids))
        self._internal_prefixes = None

    def _node_at(self, prefix) -> _TrieNode:
        node = self._root
        for depth, tok in enumerate(prefix):
            child = node.children.get(tok)
            if child is None:
                raise ValidationError(
                    f"prefix {list(prefix)!r} leaves the trie at position {depth}"
                )
            node = child
        return node

    def valid_next_tokens(self, prefix) -> set:
        """Child token ids at the prefix's node (decoder never leaves the trie)."""
        return set(self._node_at(prefix).children)

    def item_of(self, tokens) -> int:
        """Item id at the terminal reached by `tokens` (which must end in EOS)."""
        node = self._node_at(tokens)
        if node.item_id is None:
            raise ValidationError(f"token sequence {list(tokens)!r} is not a full catalog item")
        return node.item_id

    def contains_prefix(self, prefix) -> bool:
        try:
            self._node_at(prefix)
            return True
        except ValidationError:
            return False

    def n_items(self) -> int:
        return self._n_items

    def max_item_length(self) -> int:
        return self._max_item_length

    def internal_prefixes(self) -> list[list[tuple]]:
        """Prefixes of the nodes that have children, one list per depth,
        the root's empty prefix first (computed once, then shared)."""
        if self._internal_prefixes is None:
            levels = []
            frontier = [((), self._root)]
            while frontier:
                levels.append([prefix for prefix, _ in frontier])
                frontier = [(prefix + (tok,), child) for prefix, node in frontier
                            for tok, child in node.children.items() if child.children]
            self._internal_prefixes = levels
        return self._internal_prefixes

    def all_paths(self) -> list[tuple[tuple, int]]:
        """Every root-to-terminal path with its item id (catalog reconstruction)."""
        out = []
        stack = [(self._root, ())]
        while stack:
            node, path = stack.pop()
            if node.item_id is not None:
                out.append((path, node.item_id))
            for tok, child in node.children.items():
                stack.append((child, path + (tok,)))
        return sorted(out, key=lambda p: p[1])

    def valid_mask_walk(self, target, vocab_size: int) -> np.ndarray:
        """(len(target), vocab_size) boolean masks of valid next tokens along a
        target path, step t masking the children of target[:t]."""
        masks = np.zeros((len(target), vocab_size), dtype=bool)
        node = self._root
        for t, tok in enumerate(target):
            for child in node.children:
                masks[t, child] = True
            nxt = node.children.get(tok)
            if nxt is None:
                raise ValidationError(
                    f"target {list(target)!r} leaves the trie at step {t}"
                )
            node = nxt
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
