"""The slow reference for lockstep beam search: one prompt, one hypothesis
at a time, in plain Python, every distribution from a per-context
`next_token_distribution` call.

It builds the same `BeamTrace` records as `bearlab.decode`, so traces
compare with `to_json()`, and `reference_prefix_thresholds` reads the
prefix-ref thresholds off such a trace the way the per-instance objective
did.
"""

import math

import numpy as np

from bearlab.catalog import EOS_ID
from bearlab.decode import (BeamStep, BeamTrace, Expansion, Hypothesis, PruningCause,
                            _cmp_score)
from bearlab.errors import ValidationError

PROB_FLOOR = 1e-12


def top_b_threshold(dist, b: int, mask) -> float:
    """B-th highest probability among masked tokens (stable tie order);
    smallest masked probability when fewer than b tokens are valid."""
    masked = np.where(mask, dist, -1.0)
    order = np.argsort(-masked, kind="stable")
    return float(masked[order[min(b, int(mask.sum())) - 1]])


def reference_beam_search(model, prompt, trie, config):
    b = config.beam_width
    min_steps = trie.max_item_length() + 1
    max_steps = config.max_steps if config.max_steps is not None else min_steps
    prompt = tuple(int(t) for t in prompt)
    trace = BeamTrace(prompt=prompt, beam_width=b, constrained=config.constrained,
                      length_normalization=config.length_normalization)
    beams = [Hypothesis(tokens=(), log_prob=0.0, finished=False, item_id=None)]

    for step in range(1, max_steps + 1):
        if all(h.finished for h in beams):
            break
        open_parents = [(i, h) for i, h in enumerate(beams) if not h.finished]
        dist_of_parent = {i: model.next_token_distribution(prompt + h.tokens)
                          for i, h in open_parents}

        expansions, parent_thresholds = [], {}
        for parent, hyp in open_parents:
            dist = dist_of_parent[parent]
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

        pool = []  # (cmp, token, parent, kind, payload)
        for e in expansions:
            cmp_val = _cmp_score(e.log_score, len(e.tokens), config.length_normalization)
            pool.append((-cmp_val, e.token, e.parent, "expansion", e))
        for parent, hyp in enumerate(beams):
            if hyp.finished:
                cmp_val = _cmp_score(hyp.log_prob, len(hyp.tokens), config.length_normalization)
                pool.append((-cmp_val, hyp.tokens[-1], parent, "carryover", hyp))
        pool.sort(key=lambda entry: entry[:3])

        new_beams, survivor_records, pruned_records = [], [], []
        for entry in pool[:b]:
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
        for entry in pool[b:]:
            kind, payload = entry[3], entry[4]
            if kind == "carryover":
                pruned_records.append((payload.tokens, payload.log_prob,
                                       PruningCause.GLOBAL_PRUNED))
                continue
            dist = dist_of_parent[payload.parent]
            step_lp = math.log(max(float(dist[payload.token]), PROB_FLOOR))
            violated = step_lp < parent_thresholds[payload.parent]
            pruned_records.append((payload.tokens, payload.log_score,
                                   PruningCause.NECESSARY_VIOLATION if violated
                                   else PruningCause.GLOBAL_PRUNED))
        last = pool[min(b, len(pool)) - 1]
        trace.steps.append(BeamStep(
            step=step, expansions=expansions,
            carryovers=[(h.tokens, h.log_prob) for h in beams if h.finished],
            survivors=survivor_records,
            bth_log_score=last[4].log_score if last[3] == "expansion" else last[4].log_prob,
            parent_thresholds=parent_thresholds, pruned=pruned_records))
        beams = new_beams

    finals = [h for h in beams if h.finished]
    trace.discarded_unfinished = len(beams) - len(finals)
    finals.sort(key=lambda h: (-_cmp_score(h.log_prob, len(h.tokens),
                                           config.length_normalization),
                               h.item_id if h.item_id is not None else len(h.tokens),
                               h.tokens))
    trace.finals = finals
    return finals, trace


def reference_prefix_thresholds(trace, finals, cum, target, b: int) -> list:
    """The prefix-ref threshold at each target step: the B-th best log score
    among the step's expansions and carryovers other than the positive
    prefix, plus the prefix's own score; past the trace, among the finals."""
    thresholds = []
    for s, record in enumerate(trace.steps[:len(target)]):
        prefix = tuple(target[:s + 1])
        pool = [e.log_score for e in record.expansions if e.tokens != prefix]
        pool += [score for tokens, score in record.carryovers if tokens != prefix]
        pool.append(float(cum[s]))
        pool.sort(reverse=True)
        thresholds.append(pool[min(b, len(pool)) - 1])
    while len(thresholds) < len(target):
        pool = sorted([h.log_prob for h in finals] + [float(cum[len(thresholds)])],
                      reverse=True)
        thresholds.append(pool[min(b, len(pool)) - 1])
    return thresholds
