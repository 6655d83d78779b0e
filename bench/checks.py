"""Correctness checks on the outputs the benchmark times.

Each check recomputes a result apart from the code under test (a plain-numpy
forward of the attention model, metrics recounted from per-user results,
central differences of the training loss) or tests a property the method
must have. None compares against a stored copy of earlier output. Every
check raises CheckFailed with a one-line reason; `selftest.py` feeds each
one a corrupted output to show that it can fail.
"""

import math
from dataclasses import replace

import numpy as np

from bearlab import autodiff as ad
from bearlab import decode, experiment, objectives
from bearlab.decode import PruningCause

PROB_FLOOR = 1e-12        # the floor the program applies before every log
SCORE_TOL = 1e-9          # reference forward vs oracle score
METRIC_TOL = 1e-12        # recounted metric vs reported metric
GRAD_RTOL = 1e-4          # central differences vs reverse mode
GRAD_ATOL = 1e-8
GRAD_STEP = 1e-5


class CheckFailed(Exception):
    pass


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# Reference forward: one causal-attention block, written from the formulas
# ---------------------------------------------------------------------------


def reference_distributions(params: dict, tokens) -> np.ndarray:
    """(T, V) next-token distributions of a one-block causal-attention model:
    row i is P(next | tokens[:i+1]). `params` maps the checkpoint's parameter
    names to arrays."""
    tokens = np.asarray(tokens, dtype=np.int64)
    t = len(tokens)
    d = params["embed"].shape[1]
    x = params["embed"][tokens] + params["pos"][:t]
    q = x @ params["block0.wq"]
    k = x @ params["block0.wk"]
    v = x @ params["block0.wv"]
    scores = (q @ k.T) / math.sqrt(d)
    scores[np.triu(np.ones((t, t), dtype=bool), k=1)] = -np.inf
    weights = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    h = x + (weights @ v) @ params["block0.wo"]
    hidden = np.maximum(h @ params["block0.ff_w1"] + params["block0.ff_b1"], 0.0)
    y = h + hidden @ params["block0.ff_w2"] + params["block0.ff_b2"]
    logits = y @ params["out.w"] + params["out.b"]
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    return probs / probs.sum(axis=1, keepdims=True)


def checkpoint_params(checkpoint) -> dict:
    cfg = checkpoint.model_config
    require(cfg.block == "causal-attention" and cfg.blocks == 1,
            f"the reference forward covers one causal-attention block, not "
            f"{cfg.blocks} x {cfg.block}")
    return {name: checkpoint.store.value(name) for name in checkpoint.store.names()}


def reference_step_logs(params, prompt, item_tokens) -> tuple[np.ndarray, np.ndarray]:
    """Floored per-step log probabilities of `item_tokens` after `prompt`,
    plus the distribution rows they were read from."""
    seq = list(prompt) + list(item_tokens[:-1])
    rows = reference_distributions(params, seq)[len(prompt) - 1:]
    picked = rows[np.arange(len(item_tokens)), list(item_tokens)]
    return np.log(np.maximum(picked, PROB_FLOOR)), rows


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def check_ranking(ranking, n_items: int) -> None:
    """The oracle ranking is a permutation of the catalog sorted by score
    descending, ties by item id."""
    ids = [item_id for item_id, _ in ranking]
    require(sorted(ids) == list(range(n_items)),
            "oracle ranking is not a permutation of the catalog")
    for (a, sa), (b, sb) in zip(ranking, ranking[1:]):
        require(sa > sb or (sa == sb and a < b),
                f"oracle ranking out of order at items {a} ({sa!r}) and {b} ({sb!r})")


def check_oracle_entry(params, inst, items, ranking, result) -> None:
    """The reference forward reproduces the oracle's score of the positive,
    and the report's exhaustive rank is the positive's place in the ranking."""
    position = {item_id: rank for rank, (item_id, _) in enumerate(ranking, start=1)}
    score = dict(ranking)[inst.positive_item]
    logs, _ = reference_step_logs(params, inst.prompt, items[inst.positive_item].token_ids)
    reference = float(math.fsum(logs))
    require(abs(reference - score) <= SCORE_TOL,
            f"user {inst.user_id}: oracle score {score!r} vs reference {reference!r}")
    require(result.exhaustive_rank == position[inst.positive_item],
            f"user {inst.user_id}: reported exhaustive rank {result.exhaustive_rank}, "
            f"oracle ranking puts the positive at {position[inst.positive_item]}")


def check_violation(params, inst, items, result, beam_width: int) -> None:
    """A NecessaryViolation at step s: among the catalog tokens that may follow
    the positive's first s-1 tokens, at least B have a strictly higher floored
    log probability than the positive's s-th token."""
    step = result.pruned_step
    positive = items[inst.positive_item].token_ids
    require(step is not None and 1 <= step <= len(positive),
            f"user {inst.user_id}: violation at impossible step {step}")
    prefix = positive[:step - 1]
    valid = valid_tokens(items, prefix)
    _, rows = reference_step_logs(params, inst.prompt, positive)
    logs = np.log(np.maximum(rows[step - 1], PROB_FLOOR))
    own = logs[positive[step - 1]]
    above = sum(1 for tok in valid if logs[tok] > own)
    require(above >= beam_width,
            f"user {inst.user_id}: NecessaryViolation at step {step}, but only "
            f"{above} valid tokens outrank the positive's (beam width {beam_width})")


def check_beam_vs_oracle(results) -> None:
    """A positive that survives the beam is outranked there only by items the
    oracle also ranks above it, so its beam rank cannot exceed its exhaustive
    rank; and it survives exactly when its cause says so."""
    for r in results:
        survived = r.cause is PruningCause.SURVIVED
        require(survived == (r.beam_rank is not None),
                f"user {r.user_id}: cause {r.cause.value} with beam rank {r.beam_rank}")
        if r.beam_rank is not None:
            require(r.beam_rank <= r.exhaustive_rank,
                    f"user {r.user_id}: beam rank {r.beam_rank} > exhaustive rank "
                    f"{r.exhaustive_rank}")


def check_report_metrics(report) -> None:
    """NDCG@K, HR@K and PR@K recounted from the per-user results."""
    results = report.per_user
    n = len(results)
    require(n == report.n_instances, f"{n} per-user results for {report.n_instances} instances")
    for k in report.k_list:
        gains = [1.0 / math.log2(r.beam_rank + 1) for r in results
                 if r.beam_rank is not None and r.beam_rank <= k]
        ndcg = math.fsum(gains) / n
        hits = len(gains) / n
        qualifying = [r for r in results if r.exhaustive_rank <= k]
        pr = (sum(r.beam_rank is None for r in qualifying) / len(qualifying)
              if qualifying else None)
        require(abs(report.ndcg[k] - ndcg) <= METRIC_TOL,
                f"NDCG@{k}: report {report.ndcg[k]!r}, recounted {ndcg!r}")
        require(abs(report.hit_ratio[k] - hits) <= METRIC_TOL,
                f"HR@{k}: report {report.hit_ratio[k]!r}, recounted {hits!r}")
        if pr is None:
            require(report.pruning_rate[k] is None, f"PR@{k}: report {report.pruning_rate[k]!r}, "
                    "but no positive qualifies")
        else:
            require(report.pruning_rate[k] is not None
                    and abs(report.pruning_rate[k] - pr) <= METRIC_TOL,
                    f"PR@{k}: report {report.pruning_rate[k]!r}, recounted {pr!r}")


def report_fingerprint(report) -> dict:
    """The report as JSON with its wall-clock block removed."""
    payload = report.to_json()
    payload.pop("timing")
    return payload


# ---------------------------------------------------------------------------
# train and prefix-ref
# ---------------------------------------------------------------------------


def check_losses_finite(checkpoint) -> None:
    for row in checkpoint.history:
        require(math.isfinite(row["train_loss"]) and math.isfinite(row["val_ndcg10"]),
                f"epoch {row['epoch']}: non-finite loss or NDCG {row}")


def check_best_epoch(checkpoint) -> None:
    """The checkpoint keeps the first epoch with the highest validation NDCG."""
    scores = [row["val_ndcg10"] for row in checkpoint.history]
    first_best = scores.index(max(scores)) + 1
    require(checkpoint.epoch == first_best,
            f"checkpoint epoch {checkpoint.epoch}, first argmax of validation is {first_best}")


def validation_ndcg_from_finals(finals_per_instance, instances) -> float:
    """Mean NDCG@10 of the positives among the beam finals (ranked lists)."""
    total = []
    for finals, inst in zip(finals_per_instance, instances):
        ids = [hyp.item_id for hyp in finals[:10]]
        if inst.positive_item in ids:
            total.append(1.0 / math.log2(ids.index(inst.positive_item) + 2))
    return math.fsum(total) / len(instances)


def check_best_ndcg(checkpoint, recounted: float) -> None:
    best = checkpoint.best_val_ndcg()
    require(abs(best - recounted) <= METRIC_TOL,
            f"recorded best validation NDCG@10 {best!r}, recounted {recounted!r}")


def gradient_coordinates(store, grads: dict, rng, n_largest: int = 4, n_random: int = 4):
    """The largest-gradient coordinates plus a seeded random sample."""
    names = store.names()
    flat = [(name, i) for name in names for i in range(store.value(name).size)]
    magnitude = np.concatenate([np.abs(grads[name]).reshape(-1) for name in names])
    picks = [int(i) for i in np.argsort(-magnitude, kind="stable")[:n_largest]]
    taken = set(picks)
    rest = [i for i in range(len(flat)) if i not in taken]
    picks += [int(i) for i in rng.choice(rest, size=min(n_random, len(rest)), replace=False)]
    return [flat[i] for i in picks]


def check_gradients(training_loss, reference_loss, backward, store, rng) -> int:
    """Reverse mode through the training loop's batch loss agrees with central
    differences of the same loss assembled per instance from the public
    objectives. Both callables build a loss node on a fresh tape from the
    current values in `store`. Returns the number of coordinates checked."""
    store.zero_grads()
    loss = training_loss()
    value = loss.value.item()
    require(math.isfinite(value), f"non-finite batch loss {value!r}")
    backward(loss)
    grads = {name: store.grad(name).copy() for name in store.names()}
    assembled = reference_loss().value.item()
    require(abs(value - assembled) <= 1e-9 * max(1.0, abs(value)),
            f"training batch loss {value!r}, per-instance assembly {assembled!r}")
    coords = gradient_coordinates(store, grads, rng)
    for name, i in coords:
        flat = store.value(name).reshape(-1)
        original = flat[i]
        flat[i] = original + GRAD_STEP
        plus = reference_loss().value.item()
        flat[i] = original - GRAD_STEP
        minus = reference_loss().value.item()
        flat[i] = original
        numeric = (plus - minus) / (2.0 * GRAD_STEP)
        analytic = float(grads[name].reshape(-1)[i])
        require(abs(analytic - numeric) <= GRAD_ATOL + GRAD_RTOL * max(abs(analytic), abs(numeric)),
                f"d loss / d {name}[{i}]: backward {analytic!r}, central difference {numeric!r}")
    return len(coords)


def valid_tokens(items, prefix) -> list:
    """Tokens that may follow `prefix` in some catalog item."""
    prefix = tuple(prefix)
    n = len(prefix)
    return sorted({item.token_ids[n] for item in items
                   if len(item.token_ids) > n and item.token_ids[:n] == prefix})


def prefix_thresholds(trace, finals, cum, target, beam_width: int) -> list:
    """The prefix-ref threshold at each target step: the B-th best log score
    among that step's candidates (expansions and finished carryovers, the
    positive prefix itself excluded) plus the positive prefix's own score.
    Steps past the end of the search compare against the finals."""
    thresholds = []
    for s in range(len(target)):
        prefix = tuple(target[:s + 1])
        if s < len(trace.steps):
            record = trace.steps[s]
            pool = [e.log_score for e in record.expansions if e.tokens != prefix]
            pool += [score for tokens, score in record.carryovers if tokens != prefix]
        else:
            pool = [h.log_prob for h in finals]
        pool.append(float(cum[s]))
        pool.sort(reverse=True)
        thresholds.append(pool[min(beam_width, len(pool)) - 1])
    return thresholds


def training_loss_fn(model, batch, objective, config, bundle):
    """The training loop's own batch loss, rebuilt on a fresh tape per call."""
    def build():
        loss, _tape = experiment._batch_loss(model, batch, objective, config.hyper,
                                              config.decode, bundle, {})
        return loss
    return build


def reference_loss_fn(model, batch, objective, config, bundle):
    """The same batch loss assembled one instance at a time from the public
    objectives: sft_loss, bear_loss with trie masks built here from the item
    list, and prefix_objective_reference with its detached thresholds
    recomputed here from a beam simulation at the current parameters and then
    frozen, so that central differences see the function backward
    differentiates."""
    hp = config.hyper
    vocab_size = model.config.vocab_size
    pairs = [(list(inst.prompt), list(inst.target)) for inst in batch]
    frozen = None
    if objective == "prefix-ref":
        sim = replace(config.decode, beam_width=hp.beam_width)
        tape = ad.Tape()
        nodes = model.batch_forward(tape, pairs)
        frozen = []
        for inst, node in zip(batch, nodes):
            steps = np.log(np.maximum(node.value[np.arange(len(inst.target)), list(inst.target)],
                                      PROB_FLOOR))
            finals, trace = decode.beam_search(model, inst.prompt, bundle.trie, sim,
                                               scorer="batched")
            frozen.append(prefix_thresholds(trace, finals, np.cumsum(steps), inst.target,
                                            hp.beam_width))
    masks = None
    if objective == "bear":
        masks = []
        for inst in batch:
            m = np.zeros((len(inst.target), vocab_size), dtype=bool)
            for t in range(len(inst.target)):
                m[t, valid_tokens(bundle.items, inst.target[:t])] = True
            masks.append(m)

    def build():
        tape = ad.Tape()
        nodes = model.batch_forward(tape, pairs)
        total = None
        for i, (inst, node) in enumerate(zip(batch, nodes)):
            if objective == "sft":
                term = objectives.sft_loss(node, inst.target)
            elif objective == "bear":
                term = objectives.bear_loss(node, inst.target, hp, masks[i]).total_node
            else:
                reg, _ = objectives.prefix_objective_reference(
                    tape, model, inst.prompt, inst.target, hp, bundle.trie, config.decode,
                    frozen_thresholds=frozen[i], dists=node)
                term = ad.add(objectives.sft_loss(node, inst.target),
                              ad.multiply(reg, tape.constant(hp.lam)))
            total = term if total is None else ad.add(total, term)
        return ad.multiply(total, tape.constant(1.0 / len(batch)))
    return build


def check_same(first, second, what: str) -> None:
    require(first == second, f"{what} differs between two runs with the same seed")
