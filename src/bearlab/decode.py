"""Trie-constrained beam search with a full pruning trace, plus the
exhaustive-ranking oracle it is checked against.

`search` runs many prompts in lockstep on the trie's arrays (`PrefixTrie.child`): each step
gathers the children of every open beam, ranks each parent's local top-B
with one `threshold_indices` call, builds all expansions with `np.nonzero`
and keeps B per prompt with one `np.lexsort`; `beam_search` is the
one-prompt case. Scoring stays per prompt (one `extend` per step, or rows of
a `score_table` by trie node). Only per-step arrays are kept; a trace's
`steps` are built from them when first read.

Scores are sums of floored per-token log probabilities (`math.log`; `np.log`
can differ in the last bit) accumulated left to right, the floats
`SequenceModel.sequence_log_prob` produces. The oracle sums the same floats
once per trie edge, so with a beam at least as wide as the catalog the beam
and exhaustive rankings agree bit for bit.

Tie-breaking everywhere: score descending, then token id ascending, then
parent beam index ascending. Finished hypotheses stay in the candidate pool,
competing on their final score, and are never expanded; a prompt's search
stops when every candidate is finished or the step budget runs out.
"""

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .autodiff import PROB_FLOOR
from .catalog import EOS_ID, PrefixTrie
from .errors import ValidationError
from .objectives import threshold_indices


@dataclass(frozen=True)
class DecodeConfig:
    beam_width: int = 10
    max_steps: int | None = None
    constrained: bool = True
    length_normalization: bool = False

    def __post_init__(self):
        if self.beam_width < 1:
            raise ValidationError("beam_width must be >= 1")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValidationError("max_steps must be >= 1")


class PruningCause(str, Enum):
    NECESSARY_VIOLATION = "NecessaryViolation"
    GLOBAL_PRUNED = "GlobalPruned"
    SURVIVED = "Survived"


@dataclass(frozen=True)
class Hypothesis:
    tokens: tuple
    log_prob: float
    finished: bool
    item_id: int | None


@dataclass(frozen=True)
class Expansion:
    tokens: tuple
    token: int
    parent: int
    log_score: float


@dataclass
class BeamStep:
    step: int
    expansions: list[Expansion]
    carryovers: list[tuple]              # (tokens, log_score) of finished candidates
    survivors: list[tuple]               # (tokens, log_score, finished)
    bth_log_score: float
    parent_thresholds: dict[int, float]  # parent index -> log(beta), floored
    pruned: list[tuple]                  # (tokens, log_score, cause)

    def to_json(self) -> dict:
        return {
            "step": self.step,
            "expansions": [[list(e.tokens), e.log_score, e.parent] for e in self.expansions],
            "carryovers": [[list(t), s] for t, s in self.carryovers],
            "survivors": [[list(t), s, f] for t, s, f in self.survivors],
            "bth_prefix_log_score": self.bth_log_score,
            "parent_thresholds": {str(k): v for k, v in self.parent_thresholds.items()},
            "pruning_events": [[list(t), s, c.value] for t, s, c in self.pruned],
        }


@dataclass
class BeamTrace:
    prompt: tuple
    beam_width: int
    constrained: bool
    length_normalization: bool
    finals: list[Hypothesis] = field(default_factory=list)
    discarded_unfinished: int = 0
    build_steps: object = field(default=list, repr=False)  # called on first read

    @cached_property
    def steps(self) -> list[BeamStep]:
        return self.build_steps()

    def to_json(self) -> dict:
        return {
            "prompt": list(self.prompt),
            "beam_width": self.beam_width,
            "constrained": self.constrained,
            "length_normalization": self.length_normalization,
            "steps": [s.to_json() for s in self.steps],
            "finals": [[list(h.tokens), h.log_prob, h.item_id] for h in self.finals],
            "discarded_unfinished": self.discarded_unfinished,
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")


def _logs(probs) -> np.ndarray:
    """Floored natural logs, one `math.log` each."""
    return np.array([math.log(p) for p in np.maximum(probs, PROB_FLOOR).tolist()],
                    dtype=np.float64)


class PrefixScores:
    """Next-token distributions after one prompt from the model's
    `prefill`/`extend` scorer. `rows[n]` is the distribution after scorer
    node n (node 0 is the prompt) and `node_of[t]` the scorer node of node t
    of `trie`, -1 while unscored. Every row is bit-identical to
    `model.next_token_distribution` of the prompt plus the node's tokens."""

    def __init__(self, model, prompt, trie: PrefixTrie):
        self.prompt = tuple(int(t) for t in prompt)
        self.trie = trie
        self._model = model
        self._state, root = model.prefill(self.prompt)
        self._blocks = [root[None]]
        self.node_of = np.full(len(trie.item), -1)
        self.node_of[0] = 0

    def extend(self, parents, tokens) -> tuple[np.ndarray, np.ndarray]:
        """Score `tokens[i]` after scorer node `parents[i]`, all parents of
        one length, in one `extend`; returns the new nodes and their rows."""
        ids, dists = self._model.extend(self._state, parents, tokens)
        self._blocks.append(np.asarray(dists))
        return np.asarray(ids), self._blocks[-1]

    @property
    def rows(self) -> np.ndarray:
        if len(self._blocks) > 1:
            self._blocks = [np.concatenate(self._blocks)]
        return self._blocks[0]

    def path_scores(self) -> np.ndarray:
        """Every trie node's path score: its parent's plus the floored log
        probability of its token, the floats beam search accumulates. Needs
        every internal node scored (`score_table`)."""
        trie = self.trie
        logs = _logs(self.rows[self.node_of[trie.parent[1:]], trie.token[1:]])
        scores = np.zeros(len(trie.item))
        for lo, hi in zip(trie.levels[1:-1], trie.levels[2:]):
            scores[lo:hi] = scores[trie.parent[lo:hi]] + logs[lo - 1:hi - 1]
        return scores


def score_table(model, prompt, trie: PrefixTrie) -> PrefixScores:
    """Distributions at every internal node of `trie` after `prompt`, one
    `extend` per depth, for beam search and the oracle to share."""
    table = PrefixScores(model, prompt, trie)
    internal = np.flatnonzero((trie.child >= 0).any(axis=1))
    for nodes in np.split(internal, np.searchsorted(internal, trie.levels[1:-1]))[1:]:
        if len(nodes):
            table.node_of[nodes] = table.extend(table.node_of[trie.parent[nodes]],
                                                trie.token[nodes])[0]
    return table


def _cmp_score(log_prob: float, n_tokens: int, normalized: bool) -> float:
    return log_prob / max(1, n_tokens) if normalized else log_prob


class _Beams(NamedTuple):
    """The hypotheses of the prompts still searching, by prompt in beam order."""

    inst: np.ndarray     # prompt index
    score: np.ndarray    # raw log probability
    length: np.ndarray   # tokens generated
    last: np.ndarray     # last token, -1 at the root; EOS once finished
    tnode: np.ndarray    # trie node, -1 once off the trie
    parent: np.ndarray   # scorer node of the prefix without the last token
    toks: np.ndarray     # (n, max_steps) tokens, -1 past `length`

    def take(self, rows) -> "_Beams":
        return _Beams(*(col[rows] for col in self))


class _Step(NamedTuple):
    """One step's candidates: expansions, then carryovers, each by prompt."""

    inst: np.ndarray
    src: np.ndarray       # parent (expansion) or own (carryover) beam index
    tok: np.ndarray       # token added, -1 for a carryover
    score: np.ndarray     # raw log score
    tnode: np.ndarray
    beta: np.ndarray      # the parent's log local top-B threshold
    violated: np.ndarray  # step log probability below `beta`
    order: np.ndarray     # tie order, grouped by prompt


class Search(NamedTuple):
    results: list         # (finals, trace) per prompt
    steps: list           # _Step records; a prompt takes part in a prefix of them


def search(model, prompts, trie: PrefixTrie, config: DecodeConfig,
           tables=None) -> Search:
    """Beam search from every prompt at once: `results[i]` is what
    `beam_search` returns for `prompts[i]`. `tables` may give each prompt's
    `score_table`."""
    if trie.n_items() < 1:
        raise ValidationError("trie has no items")
    b = config.beam_width
    min_steps = trie.max_item_length() + 1
    max_steps = config.max_steps if config.max_steps is not None else min_steps
    if config.constrained and max_steps < min_steps:
        raise ValidationError(
            f"max_steps {max_steps} cannot reach the longest item "
            f"(needs >= {min_steps})"
        )
    prompts = [tuple(int(t) for t in p) for p in prompts]
    if tables is None:
        tables = [PrefixScores(model, p, trie) for p in prompts]
    elif any(table.prompt != p or table.trie is not trie for table, p in zip(tables, prompts)):
        raise ValidationError("score table belongs to a different prompt or trie")
    n = len(prompts)
    known = np.stack([table.node_of for table in tables])  # scorer node by trie node
    zero = np.zeros(n, dtype=np.int64)
    beams = _Beams(np.arange(n), np.zeros(n), zero, zero - 1, zero, zero,
                   np.full((n, max_steps), -1))
    steps, results = [], [None] * n
    for step in range(1, max_steps + 2):
        # retire the prompts with no open beam (all of them after the last step)
        searching = np.zeros(n, dtype=bool)
        if step <= max_steps:
            searching[beams.inst[beams.last != EOS_ID]] = True
        for i in np.unique(beams.inst[~searching[beams.inst]]).tolist():
            mine = beams.take(beams.inst == i)
            fin = mine.last == EOS_ID
            items = np.where(mine.tnode[fin] >= 0, trie.item[mine.tnode[fin]], -1)
            finals = [Hypothesis(tuple(row[:k]), s, True, None if item < 0 else item)
                      for row, k, s, item in zip(*(col.tolist() for col in (
                          mine.toks[fin], mine.length[fin], mine.score[fin], items)))]
            finals.sort(key=lambda h: (-_cmp_score(h.log_prob, len(h.tokens),
                                                   config.length_normalization),
                                       h.item_id if h.item_id is not None else len(h.tokens),
                                       h.tokens))
            results[i] = (finals, BeamTrace(prompts[i], b, config.constrained,
                                            config.length_normalization, finals,
                                            int((~fin).sum()), partial(_trace_steps, steps, i, b)))
        beams = beams.take(searching[beams.inst])
        if not len(beams.inst):
            break
        # score the open beams: table rows, or one extend per prompt
        o = np.flatnonzero(beams.last != EOS_ID)
        snode = np.where(beams.tnode[o] >= 0, known[beams.inst[o], beams.tnode[o]], -1)
        cut = np.flatnonzero(np.diff(beams.inst[o])) + 1
        dists = []
        for i, rows, parent, last in zip(beams.inst[o[np.r_[0, cut]]].tolist(),
                                         np.split(np.arange(len(o)), cut),
                                         np.split(beams.parent[o], cut),
                                         np.split(beams.last[o], cut)):
            new = snode[rows] < 0
            if new.all():  # the usual case without a table: use the block as scored
                snode[rows], block = tables[i].extend(parent, last)
            else:
                if new.any():
                    snode[rows[new]] = tables[i].extend(parent[new], last[new])[0]
                block = tables[i].rows[snode[rows]]
            dists.append(block)
        dists = np.concatenate(dists)

        kids = np.full(dists.shape, -1)
        on = beams.tnode[o] >= 0
        kids[on, :trie.child.shape[1]] = trie.child[beams.tnode[o[on]]]
        valid = kids >= 0 if config.constrained else np.ones(dists.shape, dtype=bool)
        log_beta = _logs(dists[np.arange(len(o)), threshold_indices(dists, b, valid)])
        r, t = np.nonzero(valid)
        step_lp = _logs(dists[r, t])

        # candidate pool: expansions, then finished carryovers; keep B per prompt
        c = np.flatnonzero(beams.last == EOS_ID)
        src = np.concatenate([o[r], c])
        tok = np.concatenate([t, np.full(len(c), -1)])
        score = np.concatenate([beams.score[o[r]] + step_lp, beams.score[c]])
        length = beams.length[src] + (tok >= 0)
        inst = beams.inst[src]
        cmp = score / np.maximum(length, 1) if config.length_normalization else score
        order = np.lexsort((src, np.where(tok >= 0, tok, EOS_ID), -cmp, inst))
        ranked = inst[order]
        keep = order[np.arange(len(order)) - np.searchsorted(ranked, ranked) < b]
        tnode = np.concatenate([kids[r, t], beams.tnode[c]])
        steps.append(_Step(inst, src - np.searchsorted(beams.inst, inst), tok, score, tnode,
                           np.concatenate([log_beta[r], np.full(len(c), np.nan)]),
                           np.concatenate([step_lp < log_beta[r], np.zeros(len(c), bool)]),
                           order))
        added = tok[keep] >= 0
        toks = beams.toks[src[keep]]
        toks[added, step - 1] = tok[keep][added]
        beams = _Beams(inst[keep], score[keep], length[keep],
                       np.where(added, tok[keep], EOS_ID), tnode[keep],
                       np.concatenate([snode[r], beams.parent[c]])[keep], toks)
    return Search(results, steps)


def _trace_steps(steps, i, b) -> list[BeamStep]:
    """Prompt i's per-step records, rebuilt from the search's arrays."""
    out, beams = [], [()]
    for number, rec in enumerate(steps, start=1):
        mine = np.flatnonzero(rec.inst == i)
        if not len(mine):
            break
        src, tok, score, beta, violated = (col[mine].tolist() for col in (
            rec.src, rec.tok, rec.score, rec.beta, rec.violated))
        tokens = [beams[s] + (t,) if t >= 0 else beams[s] for s, t in zip(src, tok)]
        ranked = np.searchsorted(mine, rec.order[rec.inst[rec.order] == i]).tolist()
        grown = [k for k in range(len(mine)) if tok[k] >= 0]
        out.append(BeamStep(
            step=number,
            expansions=[Expansion(tokens[k], tok[k], src[k], score[k]) for k in grown],
            carryovers=[(tokens[k], score[k]) for k in range(len(mine)) if tok[k] < 0],
            survivors=[(tokens[k], score[k], tok[k] in (-1, EOS_ID)) for k in ranked[:b]],
            bth_log_score=score[ranked[min(b, len(ranked)) - 1]],
            parent_thresholds={src[k]: beta[k] for k in grown},
            pruned=[(tokens[k], score[k], PruningCause.NECESSARY_VIOLATION if violated[k]
                     else PruningCause.GLOBAL_PRUNED) for k in ranked[b:]]))
        beams = [tokens[k] for k in ranked[:b]]
    return out


def beam_search(model, prompt, trie: PrefixTrie, config: DecodeConfig,
                scorer: str = "exact",
                table: PrefixScores | None = None) -> tuple[list[Hypothesis], BeamTrace]:
    """Beam search over the trie from `prompt`: `search` with one prompt.

    Returns the finished hypotheses ranked by raw overall log probability
    (ties by item id) and the full per-step trace. `table` may pass in a
    `score_table` for this prompt. Both `scorer` values name the one scorer;
    the argument is kept for callers that pass it.
    """
    if scorer not in ("exact", "batched"):
        raise ValidationError(f"unknown scorer {scorer!r}")
    return search(model, [prompt], trie, config,
                  None if table is None else [table]).results[0]


def prefix_thresholds(found: Search, trie: PrefixTrie, targets, prefix_scores,
                      b: int) -> list[list[float]]:
    """Prefix-ref thresholds of each prompt's positive `targets[i]`, a
    catalog item with cumulative log scores `prefix_scores[i]`. At target
    step s: the B-th best log score among that step's candidates other than
    the positive prefix, joined by the prefix's own score; past the end of
    the prompt's search, among its finals and the prefix's score."""
    n, longest = len(targets), max(len(t) for t in targets)
    toks, cums = np.zeros((n, longest), dtype=np.int64), np.zeros((n, longest))
    for i, (target, cum) in enumerate(zip(targets, prefix_scores)):
        trie.item_of(target)  # raises unless a catalog item
        toks[i, :len(target)], cums[i, :len(target)] = target, cum
    lengths = np.array([len(t) for t in targets])
    child, node, out = trie.child, np.zeros(n, dtype=np.int64), [[] for _ in range(n)]
    for s in range(longest):
        need = np.flatnonzero(lengths > s)
        node = child[node, toks[:, s]]   # the positive prefix's trie node
        keys, vals = [need], [cums[need, s]]
        rec = found.steps[s] if s < len(found.steps) else None
        if rec is not None:
            other = rec.tnode != node[rec.inst]
            keys.append(rec.inst[other])
            vals.append(rec.score[other])
        for i in need[~np.isin(need, [] if rec is None else rec.inst)].tolist():
            keys.append(np.full(len(found.results[i][0]), i))
            vals.append(np.array([h.log_prob for h in found.results[i][0]], dtype=np.float64))
        keys, vals = np.concatenate(keys), np.concatenate(vals)
        order = np.lexsort((-vals, keys))
        start = np.searchsorted(keys[order], need)
        count = np.searchsorted(keys[order], need, side="right") - start
        for i, value in zip(need.tolist(), vals[order][start + np.minimum(b, count) - 1].tolist()):
            out[i].append(value)
    return out


def exhaustive_rank(model, prompt, items,
                    table: PrefixScores | None = None) -> list[tuple[int, float]]:
    """Score every catalog item's full sequence; sort by score descending,
    ties by item id. `table` may pass in this prompt's `score_table` over
    the items' trie; without one, a table over the items' own trie is built."""
    if table is None:
        table = score_table(model, prompt, PrefixTrie.from_items(items))
    elif table.prompt != tuple(int(t) for t in prompt):
        raise ValidationError("score table belongs to a different prompt")
    terminals = np.flatnonzero(table.trie.item >= 0)
    score_of = dict(zip(table.trie.item[terminals].tolist(),
                        table.path_scores()[terminals].tolist()))
    scored = [(item.item_id, score_of[item.item_id]) for item in items]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored


def classify_positive(trace: BeamTrace, positive, trie: PrefixTrie):
    """Fate of a positive item in a recorded search: Survived, or the first
    step its prefix left the beam plus the cause at that step."""
    positive = tuple(int(t) for t in positive)
    trie.item_of(positive)  # raises if the positive is not a catalog item

    for record in trace.steps:
        prefix = positive[: min(record.step, len(positive))]
        for tokens, _score, cause in record.pruned:
            if tokens == prefix:
                return cause, record.step
        if not any(tokens == prefix for tokens, _s, _f in record.survivors):
            raise ValidationError(
                f"positive prefix {list(prefix)} is neither a survivor nor a "
                f"pruning event at step {record.step}; trace is inconsistent"
            )
    if any(h.tokens == positive for h in trace.finals):
        return PruningCause.SURVIVED, None
    raise ValidationError("positive missing from finals of a completed trace")
