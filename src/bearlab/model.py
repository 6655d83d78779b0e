"""Tiny trainable autoregressive next-token models.

Two forward paths compute the same arithmetic:

* a tape path (`forward_rows`, `batch_forward`) used for training, batched
  over padded instances, differentiable;
* a plain-numpy scorer (`prefill`, `extend`) used for decoding on a
  read-only parameter snapshot. With one attention block, `prefill`
  computes a prompt's K/V rows once and `extend` adds one K/V row and one
  query per new prefix, scoring a whole batch of prefixes (a trie depth, or
  a beam step) in one call; other models run a full forward per context.

`next_token_distribution` is `prefill` on the whole context, so every row the
scorer returns is bit-identical to it: the per-row kernels make one BLAS call
per row whatever the batch size. The tape path agrees with it to ~1e-12.

The canonical definition of a sequence's log probability is the incremental
one: the sum over steps of the floored log of `next_token_distribution` at
the growing context. Beam search accumulates exactly these floats, which is
what makes beam scores bit-comparable with exhaustive scores.
"""

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import PROB_FLOOR, ParameterStore
from .catalog import EOS_ID, PAD_ID
from .errors import ContextLengthError, ValidationError

BLOCK_KINDS = ("causal-attention", "gated-recurrent")

# Finite stand-in for -inf in masked attention scores; exp underflows to
# exactly 0.0, so masked positions get weight 0 while everything stays finite.
MASK_VALUE = -1e9

# Contexts per K/V gather in `extend`. It bounds the transient (block, T, d)
# copies; the rows returned do not depend on it.
ATTEND_BLOCK = 64


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    embed_dim: int = 16
    hidden_dim: int = 16
    block: str = "causal-attention"
    blocks: int = 1
    max_context: int = 96
    seed: int = 0

    def __post_init__(self):
        if self.vocab_size < 5:
            raise ValidationError("vocab_size must cover the specials plus content")
        if self.embed_dim < 1 or self.hidden_dim < 1:
            raise ValidationError("embed_dim and hidden_dim must be >= 1")
        if self.block not in BLOCK_KINDS:
            raise ValidationError(f"block must be one of {BLOCK_KINDS}, got {self.block!r}")
        if self.blocks < 1:
            raise ValidationError("blocks must be >= 1")
        if self.max_context < 2:
            raise ValidationError("max_context must be >= 2")


@dataclass
class PrefixState:
    """Continuations of one prompt scored so far by `SequenceModel.extend`.

    Node 0 is the prompt; node j > 0 was added with token `tokens[j]`, and
    `chains[j]` lists the nodes from depth 1 down to j, so its context is the
    prompt followed by `tokens[chains[j]]`. With one attention block, `keys`
    and `values` hold one row per prompt position and one per added node
    (node j owns row len(prompt) - 1 + j); other models keep no cache.
    """

    prompt: np.ndarray
    tokens: list
    chains: list
    keys: np.ndarray | None = None
    values: np.ndarray | None = None


class SequenceModel:
    """Conditional next-token distribution with a ParameterStore backing."""

    def __init__(self, config: ModelConfig, store: ParameterStore | None = None):
        self.config = config
        if store is None:
            store = _init_store(config)
        self.store = store
        self._causal_mask = _causal_mask(config.max_context)

    def parameter_count(self) -> int:
        return self.store.n_parameters()

    def digest(self) -> str:
        return self.store.digest()

    # -- tape (training) path ----------------------------------------------

    def forward_rows(self, tape: ad.Tape, tokens: np.ndarray) -> ad.Node:
        """Distributions for a (N, T) batch: out[n, i] = P(next | tokens[n, :i+1])."""
        tokens = np.asarray(tokens)
        n, t = tokens.shape
        self._check_len(t)
        cfg = self.config
        p = lambda name: tape.param(self.store, name)

        if cfg.block == "causal-attention":
            x = ad.add(ad.gather_rows(p("embed"), tokens),
                       ad.gather_rows(p("pos"), np.arange(t)))
            scale = tape.constant(1.0 / math.sqrt(cfg.embed_dim))
            mask = tape.constant(self._causal_mask[:t, :t])
            for i in range(cfg.blocks):
                pre = f"block{i}."
                q = ad.matmul(x, p(pre + "wq"))
                k = ad.matmul(x, p(pre + "wk"))
                v = ad.matmul(x, p(pre + "wv"))
                scores = ad.add(ad.multiply(ad.matmul(q, ad.transpose_last2(k)), scale), mask)
                attended = ad.matmul(ad.softmax_last_axis(scores), v)
                h = ad.add(x, ad.matmul(attended, p(pre + "wo")))
                f1 = ad.rectify(ad.add(ad.matmul(h, p(pre + "ff_w1")), p(pre + "ff_b1")))
                x = ad.add(h, ad.add(ad.matmul(f1, p(pre + "ff_w2")), p(pre + "ff_b2")))
        else:
            x = self._recurrent_rows(tape, tokens)

        logits = ad.add(ad.matmul(x, p("out.w")), p("out.b"))
        return ad.softmax_last_axis(logits)

    def _recurrent_rows(self, tape: ad.Tape, tokens: np.ndarray) -> ad.Node:
        """Gated-recurrent blocks; runs the time loop on (N, d) slices."""
        cfg = self.config
        n, t = tokens.shape
        p = lambda name: tape.param(self.store, name)
        steps = [ad.gather_rows(p("embed"), tokens[:, j]) for j in range(t)]
        one = tape.constant(1.0)
        two = tape.constant(2.0)
        neg_one = tape.constant(-1.0)
        for i in range(cfg.blocks):
            pre = f"block{i}."
            wxz, whz, bz = p(pre + "wxz"), p(pre + "whz"), p(pre + "bz")
            wxc, whc, bc = p(pre + "wxc"), p(pre + "whc"), p(pre + "bc")
            wo = p(pre + "wo")
            h = tape.constant(np.zeros((n, cfg.hidden_dim)))
            outs = []
            for x_t in steps:
                z = ad.sigmoid(ad.add(ad.add(ad.matmul(x_t, wxz), ad.matmul(h, whz)), bz))
                # tanh composed from available primitives: 2*sigmoid(2a) - 1
                pre_c = ad.add(ad.add(ad.matmul(x_t, wxc), ad.matmul(h, whc)), bc)
                c = ad.add(ad.multiply(ad.sigmoid(ad.multiply(pre_c, two)), two), neg_one)
                keep = ad.add(ad.multiply(z, neg_one), one)
                h = ad.add(ad.multiply(keep, h), ad.multiply(z, c))
                outs.append(ad.add(x_t, ad.matmul(h, wo)))
            steps = outs
        stacked = [ad.reshape(s, (n, 1, cfg.embed_dim)) for s in steps]
        return ad.concatenate(stacked, axis=1)

    def batch_forward(self, tape: ad.Tape, instances) -> list[ad.Node]:
        """Per-instance (len(target), vocab) distribution nodes for a batch of
        (prompt, target) pairs. Ragged lengths are right-padded with PAD; the
        padded rows are never gathered, so they contribute nothing to any
        loss."""
        if not instances:
            raise ValidationError("batch_forward needs at least one instance")
        lengths = []
        for prompt, target in instances:
            if len(target) == 0 or target[-1] != EOS_ID:
                raise ValidationError("targets must end with a single EOS token")
            if len(prompt) == 0:
                raise ValidationError("prompts must be non-empty (at least BOS)")
            lengths.append(len(prompt) + len(target) - 1)
        t_max = max(lengths)
        self._check_len(t_max)
        batch = np.full((len(instances), t_max), PAD_ID, dtype=np.int64)
        for row, (prompt, target) in enumerate(instances):
            seq = list(prompt) + list(target[:-1])
            batch[row, : len(seq)] = seq
        probs = self.forward_rows(tape, batch)
        flat = ad.reshape(probs, (len(instances) * t_max, self.config.vocab_size))
        out = []
        for row, (prompt, target) in enumerate(instances):
            first = len(prompt) - 1
            rows = row * t_max + first + np.arange(len(target))
            out.append(ad.gather_rows(flat, rows))
        return out

    # -- full-sequence forward (scorer of models without the K/V cache) ------

    def _forward_arrays(self, tokens: np.ndarray) -> np.ndarray:
        """Same arithmetic as forward_rows, raw numpy, (N, T) -> (N, T, V)."""
        cfg = self.config
        n, t = tokens.shape
        self._check_len(t)
        g = self.store.value
        if cfg.block == "causal-attention":
            x = g("embed")[tokens] + g("pos")[np.arange(t)]
            scale = 1.0 / math.sqrt(cfg.embed_dim)
            mask = self._causal_mask[:t, :t]
            for i in range(cfg.blocks):
                pre = f"block{i}."
                q = np.matmul(x, g(pre + "wq"))
                k = np.matmul(x, g(pre + "wk"))
                v = np.matmul(x, g(pre + "wv"))
                scores = np.matmul(q, np.swapaxes(k, -1, -2)) * scale + mask
                attended = np.matmul(_softmax(scores), v)
                h = x + np.matmul(attended, g(pre + "wo"))
                f1 = np.maximum(0.0, np.matmul(h, g(pre + "ff_w1")) + g(pre + "ff_b1"))
                x = h + (np.matmul(f1, g(pre + "ff_w2")) + g(pre + "ff_b2"))
        else:
            x = self._recurrent_arrays(tokens)
        logits = np.matmul(x, g("out.w")) + g("out.b")
        return _softmax(logits)

    def _recurrent_arrays(self, tokens: np.ndarray) -> np.ndarray:
        cfg = self.config
        n, t = tokens.shape
        g = self.store.value
        steps = [g("embed")[tokens[:, j]] for j in range(t)]
        for i in range(cfg.blocks):
            pre = f"block{i}."
            h = np.zeros((n, cfg.hidden_dim))
            outs = []
            for x_t in steps:
                z = _sigmoid(np.matmul(x_t, g(pre + "wxz")) + np.matmul(h, g(pre + "whz")) + g(pre + "bz"))
                pre_c = np.matmul(x_t, g(pre + "wxc")) + np.matmul(h, g(pre + "whc")) + g(pre + "bc")
                c = _sigmoid(pre_c * 2.0) * 2.0 + -1.0
                h = (z * -1.0 + 1.0) * h + z * c
                outs.append(x_t + np.matmul(h, g(pre + "wo")))
            steps = outs
        return np.stack(steps, axis=1)

    # -- cached scorer (decoding) ----------------------------------------------

    @property
    def _cached(self) -> bool:
        """One attention block: a context's distribution needs only the K/V
        rows of its positions and the query of its last one, so K/V rows can
        be computed once and shared by every continuation."""
        return self.config.block == "causal-attention" and self.config.blocks == 1

    def prefill(self, prompt) -> tuple["PrefixState", np.ndarray]:
        """Start scoring continuations of `prompt`: returns its state (the
        prompt's K/V rows) and the next-token distribution after it."""
        tokens = np.asarray(prompt, dtype=np.int64)
        if tokens.ndim != 1 or len(tokens) == 0:
            raise ValidationError("context must be non-empty (at least BOS)")
        self._check_len(len(tokens))
        state = PrefixState(prompt=tokens, tokens=[int(tokens[-1])],
                            chains=[np.zeros(0, dtype=np.int64)])
        if not self._cached:
            return state, self._forward_arrays(tokens[None])[0, -1]
        x = self._embed(tokens, np.arange(len(tokens)))
        state.keys, state.values = self._key_value_rows(x)
        return state, self._attend(x[-1:], state, np.arange(len(tokens))[None])[0]

    def extend(self, state: "PrefixState", parent_ids, tokens) -> tuple[np.ndarray, np.ndarray]:
        """Append `tokens[i]` to node `parent_ids[i]` for every i in one
        batched call: each new node gets one K/V row and one query row.
        Returns the new node ids and their (n, V) next-token distributions.
        All parents must have contexts of one length."""
        parents = np.asarray(parent_ids, dtype=np.int64)
        tokens = np.asarray(tokens, dtype=np.int64)
        if parents.ndim != 1 or len(parents) == 0 or parents.shape != tokens.shape:
            raise ValidationError("extend needs one token per parent, at least one")
        if parents.min() < 0 or parents.max() >= len(state.chains):
            raise ValidationError("extend parent id out of range")
        if tokens.min() < 0 or tokens.max() >= self.config.vocab_size:
            raise ValidationError("extend token id out of range")
        if len({len(state.chains[p]) for p in parents}) != 1:
            raise ValidationError("extend parents must share one context length")
        n, p = len(parents), len(state.prompt)
        ids = np.arange(len(state.chains), len(state.chains) + n)
        chains = np.concatenate([np.stack([state.chains[i] for i in parents]),
                                 ids[:, None]], axis=1)
        length = p + chains.shape[1]
        self._check_len(length)
        state.tokens.extend(tokens.tolist())
        state.chains.extend(chains)
        if not self._cached:
            contexts = np.concatenate([np.broadcast_to(state.prompt, (n, p)),
                                       np.asarray(state.tokens)[chains]], axis=1)
            return ids, np.stack([self._forward_arrays(c[None])[0, -1] for c in contexts])
        x = self._embed(tokens, np.full(n, length - 1))
        keys, values = self._key_value_rows(x)
        state.keys = np.concatenate([state.keys, keys])
        state.values = np.concatenate([state.values, values])
        rows = np.concatenate([np.broadcast_to(np.arange(p), (n, p)), chains + (p - 1)],
                              axis=1)
        return ids, np.concatenate([self._attend(x[lo:lo + ATTEND_BLOCK], state,
                                                 rows[lo:lo + ATTEND_BLOCK])
                                    for lo in range(0, n, ATTEND_BLOCK)])

    def _embed(self, tokens: np.ndarray, positions: np.ndarray) -> np.ndarray:
        return self.store.value("embed")[tokens] + self.store.value("pos")[positions]

    # The per-row kernels below are stacked matmuls, (n, 1, d) @ (d, d) and the
    # like: numpy makes one BLAS call per row with the same shapes whatever n
    # is, so a row's bits never depend on what it was batched with. A plain
    # (n, d) @ (d, d) would switch between gemv (n = 1) and gemm (n > 1), whose
    # rows can differ in the last bit.

    def _key_value_rows(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(m, d) embedded positions -> their (m, d) K and V rows."""
        g = self.store.value
        rows = x[:, None, :]
        return (np.matmul(rows, g("block0.wk"))[:, 0],
                np.matmul(rows, g("block0.wv"))[:, 0])

    def _attend(self, x: np.ndarray, state: "PrefixState", rows: np.ndarray) -> np.ndarray:
        """Next-token distributions of n contexts from the embedded last
        position of each, (n, d), and the (n, T) indices of their positions'
        K/V rows in `state` -> (n, V). Keys and values are gathered one after
        the other, so that only one (n, T, d) copy is alive at a time."""
        g = self.store.value
        x = x[:, None, :]
        q = np.matmul(x, g("block0.wq"))
        scores = np.matmul(q, np.swapaxes(state.keys[rows], -1, -2))
        scores *= 1.0 / math.sqrt(self.config.embed_dim)
        attended = np.matmul(_softmax(scores), state.values[rows])
        h = x + np.matmul(attended, g("block0.wo"))
        f1 = np.maximum(0.0, np.matmul(h, g("block0.ff_w1")) + g("block0.ff_b1"))
        out = h + (np.matmul(f1, g("block0.ff_w2")) + g("block0.ff_b2"))
        logits = np.matmul(out, g("out.w")) + g("out.b")
        return _softmax(logits)[:, 0]

    def next_token_distribution(self, context) -> np.ndarray:
        """Probability vector over the vocabulary after `context`: the
        canonical single-sequence computation, the same kernels as
        `prefill`/`extend`, so their rows are bit-identical to it."""
        return self.prefill(context)[1]

    def step_distributions(self, contexts) -> np.ndarray:
        """Next-token distributions for same-length contexts, (H, T) -> (H, V),
        each row bit-identical to `next_token_distribution`. Decoding scores
        trie prefixes with `prefill`/`extend` instead."""
        if not contexts:
            raise ValidationError("step_distributions needs at least one context")
        t = len(contexts[0])
        if any(len(c) != t for c in contexts):
            raise ValidationError("step_distributions contexts must share one length")
        return np.stack([self.next_token_distribution(c) for c in contexts])

    def step_log_probs(self, prompt, target) -> list[float]:
        """Floored per-step log probabilities of `target` after `prompt`."""
        if len(target) == 0 or target[-1] != EOS_ID:
            raise ValidationError("targets must end with a single EOS token")
        ctx = list(prompt)
        out = []
        for tok in target:
            dist = self.next_token_distribution(ctx)
            out.append(math.log(max(float(dist[tok]), PROB_FLOOR)))
            ctx.append(int(tok))
        return out

    def sequence_log_prob(self, prompt, target) -> float:
        """Sum of floored per-step log probabilities (always <= 0)."""
        total = 0.0
        for lp in self.step_log_probs(prompt, target):
            total += lp
        return total

    def _check_len(self, t: int) -> None:
        if t > self.config.max_context:
            raise ContextLengthError(
                f"context of length {t} exceeds max_context {self.config.max_context}"
            )

    # -- persistence ---------------------------------------------------------

    def save(self, directory: str, meta: dict | None = None) -> None:
        os.makedirs(directory, exist_ok=True)
        payload = {"config": asdict(self.config), "meta": meta or {}}
        with open(os.path.join(directory, "model.json"), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        self.store.save(os.path.join(directory, "params.json"),
                        os.path.join(directory, "params.bin"))

    @classmethod
    def load(cls, directory: str) -> tuple["SequenceModel", dict]:
        with open(os.path.join(directory, "model.json"), "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        config = ModelConfig(**payload["config"])
        store = ParameterStore.load(os.path.join(directory, "params.json"),
                                    os.path.join(directory, "params.bin"))
        _check_store_matches(config, store)
        return cls(config, store), payload.get("meta", {})


def _check_store_matches(config: ModelConfig, store: ParameterStore) -> None:
    expected = _parameter_shapes(config)
    actual = {name: tuple(store.value(name).shape) for name in store.names()}
    if actual != expected:
        raise ValidationError("parameter blob does not match the model config")


def _parameter_shapes(config: ModelConfig) -> dict[str, tuple]:
    d, hd, v = config.embed_dim, config.hidden_dim, config.vocab_size
    shapes = {"embed": (v, d)}
    if config.block == "causal-attention":
        shapes["pos"] = (config.max_context, d)
        for i in range(config.blocks):
            pre = f"block{i}."
            shapes.update({
                pre + "wq": (d, d), pre + "wk": (d, d), pre + "wv": (d, d),
                pre + "wo": (d, d),
                pre + "ff_w1": (d, hd), pre + "ff_b1": (hd,),
                pre + "ff_w2": (hd, d), pre + "ff_b2": (d,),
            })
    else:
        for i in range(config.blocks):
            pre = f"block{i}."
            shapes.update({
                pre + "wxz": (d, hd), pre + "whz": (hd, hd), pre + "bz": (hd,),
                pre + "wxc": (d, hd), pre + "whc": (hd, hd), pre + "bc": (hd,),
                pre + "wo": (hd, d),
            })
    shapes["out.w"] = (d, v)
    shapes["out.b"] = (v,)
    return shapes


def _init_store(config: ModelConfig) -> ParameterStore:
    """Uniform [-0.05, 0.05] from the config seed, in fixed parameter order;
    the output projection bias starts at exactly zero."""
    rng = np.random.default_rng(config.seed)
    store = ParameterStore()
    for name, shape in _parameter_shapes(config).items():
        if name == "out.b":
            store.add(name, np.zeros(shape))
        else:
            store.add(name, rng.uniform(-0.05, 0.05, size=shape))
    return store


def _causal_mask(size: int) -> np.ndarray:
    mask = np.zeros((size, size))
    mask[np.triu_indices(size, k=1)] = MASK_VALUE
    return mask


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
