"""Trie-constrained beam search with a full pruning trace, plus the
exhaustive-ranking oracle it is checked against.

Scores are sums of floored per-token log probabilities accumulated left to
right, exactly the floats `SequenceModel.sequence_log_prob` produces, so with
a beam at least as wide as the catalog the beam ranking and the exhaustive
ranking agree bit for bit.

Tie-breaking everywhere: score descending, then token id ascending, then
parent beam index ascending. Finished hypotheses stay in the candidate pool,
competing on their final score, and are never expanded; search stops when
every candidate is finished or the step budget runs out.
"""

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .autodiff import PROB_FLOOR
from .catalog import EOS_ID, PrefixTrie
from .errors import ValidationError
from .objectives import top_b_threshold


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
    steps: list[BeamStep] = field(default_factory=list)
    finals: list[Hypothesis] = field(default_factory=list)
    discarded_unfinished: int = 0

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


SCORERS = ("exact", "batched")


class PrefixScores:
    """Next-token distributions after one prompt, memoized by generated
    prefix and computed with the model's `prefill`/`extend` scorer.

    `distributions` scores every prefix it has not seen in one `extend`.
    Every row is bit-identical to `model.next_token_distribution` of the
    prompt plus the prefix.
    """

    def __init__(self, model, prompt):
        self.prompt = tuple(int(t) for t in prompt)
        self._model = model
        self._state, root = model.prefill(self.prompt)
        self._nodes = {(): (0, root)}   # prefix -> (scorer node id, distribution)

    def distributions(self, prefixes) -> list[np.ndarray]:
        """Distributions after each prefix. The ones not scored yet must
        share one length and have scored parents."""
        missing = [p for p in dict.fromkeys(prefixes) if p not in self._nodes]
        if missing:
            ids, dists = self._model.extend(self._state,
                                            [self._nodes[p[:-1]][0] for p in missing],
                                            [p[-1] for p in missing])
            for prefix, node, dist in zip(missing, ids, dists):
                self._nodes[prefix] = (node, dist)
        return [self._nodes[p][1] for p in prefixes]

    def log_prob(self, tokens) -> float:
        """Floored step log probabilities of `tokens` summed left to right:
        the floats beam search accumulates for the same path."""
        total = 0.0
        for t, tok in enumerate(tokens):
            dist = self._nodes[tuple(tokens[:t])][1]
            total += math.log(max(float(dist[tok]), PROB_FLOOR))
        return total


def score_table(model, prompt, trie: PrefixTrie) -> PrefixScores:
    """Distributions at every internal node of `trie` after `prompt`, one
    `extend` per depth, for beam search and the oracle to share."""
    table = PrefixScores(model, prompt)
    for level in trie.internal_prefixes()[1:]:
        table.distributions(level)
    return table


def _cmp_score(log_prob: float, n_tokens: int, normalized: bool) -> float:
    return log_prob / max(1, n_tokens) if normalized else log_prob


def beam_search(model, prompt, trie: PrefixTrie, config: DecodeConfig,
                scorer: str = "exact",
                table: PrefixScores | None = None) -> tuple[list[Hypothesis], BeamTrace]:
    """Beam search over the trie from `prompt`.

    Returns the finished hypotheses ranked by raw overall log probability
    (ties by item id) and the full per-step trace. Each step scores its open
    beams with one `extend`, unless `table` (a `score_table` for this prompt)
    already holds them. Both `scorer` values name that one scorer; the
    argument is kept for callers that pass it.
    """
    if scorer not in SCORERS:
        raise ValidationError(f"unknown scorer {scorer!r}")
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
    prompt = tuple(int(t) for t in prompt)
    if table is None:
        table = PrefixScores(model, prompt)
    elif table.prompt != prompt:
        raise ValidationError("score table belongs to a different prompt")

    trace = BeamTrace(prompt=prompt, beam_width=b, constrained=config.constrained,
                      length_normalization=config.length_normalization)
    beams = [Hypothesis(tokens=(), log_prob=0.0, finished=False, item_id=None)]

    for step in range(1, max_steps + 1):
        if all(h.finished for h in beams):
            break
        open_parents = [(i, h) for i, h in enumerate(beams) if not h.finished]
        dists = table.distributions([h.tokens for _, h in open_parents])
        dist_of_parent = {i: d for (i, _), d in zip(open_parents, dists)}

        expansions: list[Expansion] = []
        parent_thresholds: dict[int, float] = {}
        for (parent, hyp), dist in zip(open_parents, dists):
            if config.constrained:
                valid = sorted(trie.valid_next_tokens(hyp.tokens))
            else:
                valid = range(len(dist))
            mask = np.zeros(len(dist), dtype=bool)
            mask[list(valid)] = True
            beta = top_b_threshold(dist, b, mask)
            parent_thresholds[parent] = math.log(max(beta, PROB_FLOOR))
            for tok in valid:
                step_lp = math.log(max(float(dist[tok]), PROB_FLOOR))
                expansions.append(Expansion(tokens=hyp.tokens + (tok,), token=tok,
                                            parent=parent, log_score=hyp.log_prob + step_lp))

        # candidate pool: new expansions plus finished carryovers
        pool: list[tuple] = []  # (cmp, token, parent, kind, payload)
        for e in expansions:
            cmp_val = _cmp_score(e.log_score, len(e.tokens), config.length_normalization)
            pool.append((-cmp_val, e.token, e.parent, "expansion", e))
        for parent, hyp in enumerate(beams):
            if hyp.finished:
                cmp_val = _cmp_score(hyp.log_prob, len(hyp.tokens), config.length_normalization)
                pool.append((-cmp_val, hyp.tokens[-1], parent, "carryover", hyp))
        pool.sort(key=lambda entry: entry[:3])

        survivors = pool[:b]
        pruned = pool[b:]
        bth_log_score = _raw_log(pool[min(b, len(pool)) - 1])

        new_beams: list[Hypothesis] = []
        survivor_records = []
        for entry in survivors:
            kind, payload = entry[3], entry[4]
            if kind == "carryover":
                new_beams.append(payload)
                survivor_records.append((payload.tokens, payload.log_prob, True))
                continue
            finished = payload.token == EOS_ID
            item_id = None
            if finished:
                try:
                    item_id = trie.item_of(payload.tokens)
                except ValidationError:
                    item_id = None
            new_beams.append(Hypothesis(tokens=payload.tokens, log_prob=payload.log_score,
                                        finished=finished, item_id=item_id))
            survivor_records.append((payload.tokens, payload.log_score, finished))

        pruned_records = []
        for entry in pruned:
            kind, payload = entry[3], entry[4]
            if kind == "carryover":
                pruned_records.append((payload.tokens, payload.log_prob,
                                       PruningCause.GLOBAL_PRUNED))
                continue
            # last token strictly below the parent's local top-B threshold?
            parent_dist = dist_of_parent[payload.parent]
            step_lp = math.log(max(float(parent_dist[payload.token]), PROB_FLOOR))
            violated = step_lp < parent_thresholds[payload.parent]
            cause = (PruningCause.NECESSARY_VIOLATION if violated
                     else PruningCause.GLOBAL_PRUNED)
            pruned_records.append((payload.tokens, payload.log_score, cause))

        trace.steps.append(BeamStep(step=step, expansions=expansions,
                                    carryovers=[(h.tokens, h.log_prob)
                                                for h in beams if h.finished],
                                    survivors=survivor_records,
                                    bth_log_score=bth_log_score,
                                    parent_thresholds=parent_thresholds,
                                    pruned=pruned_records))
        beams = new_beams

    finals = [h for h in beams if h.finished]
    trace.discarded_unfinished = len(beams) - len(finals)
    finals.sort(key=lambda h: (-_cmp_score(h.log_prob, len(h.tokens),
                                           config.length_normalization),
                               h.item_id if h.item_id is not None else len(h.tokens),
                               h.tokens))
    trace.finals = finals
    return finals, trace


def _raw_log(pool_entry) -> float:
    payload = pool_entry[4]
    return payload.log_score if pool_entry[3] == "expansion" else payload.log_prob


def exhaustive_rank(model, prompt, items,
                    table: PrefixScores | None = None) -> list[tuple[int, float]]:
    """Score every catalog item's full sequence; sort by score descending,
    ties by item id. `table` may pass in this prompt's `score_table`;
    without one, a table over the items' own trie is built."""
    if table is None:
        table = score_table(model, prompt, PrefixTrie.from_items(items))
    elif table.prompt != tuple(int(t) for t in prompt):
        raise ValidationError("score table belongs to a different prompt")
    scored = [(item.item_id, table.log_prob(item.token_ids)) for item in items]
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
