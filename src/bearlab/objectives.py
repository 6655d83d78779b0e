"""Training objectives: plain likelihood, the beam-search-aware regularized
objective, a prefix-level reference objective that simulates beam search, and
a positive/negative regularizer pair for preference-style training.

Conventions shared by every operation here:

* probabilities are floored at PROB_FLOOR before any logarithm;
* the pruning margin at a step is log(beta) - log(p) where beta is the B-th
  highest valid next-token probability and p the target token's probability;
* the step's necessary condition holds iff the margin is <= 0 (inclusive, so
  the exactly-B-th-ranked token satisfies it);
* rank ties at the B-th value count every tied token as within the top B
  (stable order: probability descending, token id ascending).
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import PROB_FLOOR
from .catalog import EOS_ID
from .errors import ValidationError

THRESHOLD_GRADIENT_MODES = ("flow", "detach")
THRESHOLD_SUPPORT_MODES = ("trie-valid", "full-vocabulary")


@dataclass(frozen=True)
class HyperParams:
    lam: float = 0.5
    xi: float = 1.0
    beam_width: int = 10
    threshold_gradient: str = "flow"
    threshold_support: str = "trie-valid"

    def __post_init__(self):
        if self.lam < 0:
            raise ValidationError("lam must be >= 0 (0 degenerates to plain sft)")
        if self.xi <= 0:
            raise ValidationError("xi must be > 0")
        if self.beam_width < 1:
            raise ValidationError("beam_width must be >= 1")
        if self.threshold_gradient not in THRESHOLD_GRADIENT_MODES:
            raise ValidationError(f"threshold_gradient must be one of {THRESHOLD_GRADIENT_MODES}")
        if self.threshold_support not in THRESHOLD_SUPPORT_MODES:
            raise ValidationError(f"threshold_support must be one of {THRESHOLD_SUPPORT_MODES}")


@dataclass(frozen=True)
class StepRecord:
    token: int
    log_p: float
    log_beta: float
    margin: float
    satisfied: bool

    def to_json(self) -> dict:
        return {"token": self.token, "log_p": self.log_p, "log_beta": self.log_beta,
                "margin": self.margin, "satisfied": self.satisfied}


@dataclass
class LossBreakdown:
    sft: float
    reg: float
    total: float
    steps: list[StepRecord]
    total_node: ad.Node = field(repr=False, default=None)

    def to_json(self) -> dict:
        return {"sft": self.sft, "reg": self.reg, "total": self.total,
                "steps": [s.to_json() for s in self.steps]}


def _check_instance(dists: ad.Node, targets) -> np.ndarray:
    targets = np.asarray(targets, dtype=np.int64)
    if dists.value.ndim != 2:
        raise ValidationError(f"per-step distributions must be (steps, vocab), got {dists.shape}")
    if len(targets) != dists.value.shape[0]:
        raise ValidationError(
            f"{len(targets)} target tokens but {dists.value.shape[0]} distributions"
        )
    if len(targets) == 0 or targets[-1] != EOS_ID:
        raise ValidationError("targets must end with a single EOS token")
    return targets


def sft_loss(dists: ad.Node, targets) -> ad.Node:
    """Negative log-likelihood of the target steps, probabilities floored."""
    targets = _check_instance(dists, targets)
    picked = ad.select_last_axis(dists, targets)
    logs = ad.logarithm(picked, clamp=True)
    return ad.multiply(ad.reduce_sum(logs), dists.tape.constant(-1.0))


def threshold_indices(values: np.ndarray, b: int, masks: np.ndarray) -> np.ndarray:
    """Index of the B-th highest masked value per row, stable ties; the lowest if fewer."""
    masks = np.asarray(masks, dtype=bool)
    if masks.shape != values.shape:
        raise ValidationError(f"masks shape {masks.shape} does not match {values.shape}")
    counts = masks.sum(axis=1)
    if np.any(counts == 0):
        raise ValidationError("a step's valid mask selects no tokens")
    masked = np.where(masks, values, -1.0)
    order = np.argsort(-masked, axis=1, kind="stable")
    k = np.minimum(b, counts) - 1
    return order[np.arange(values.shape[0]), k]


def _full_masks(values: np.ndarray) -> np.ndarray:
    return np.ones_like(values, dtype=bool)


def resolve_masks(hp: HyperParams, values: np.ndarray, masks) -> np.ndarray:
    if hp.threshold_support == "full-vocabulary" or masks is None:
        return _full_masks(values)
    return np.asarray(masks, dtype=bool)


def necessary_condition(dists, targets, b: int, masks) -> tuple[np.ndarray, bool]:
    """Per-step flags (floored-probability scale) plus their conjunction."""
    values = dists.value if isinstance(dists, ad.Node) else np.asarray(dists, np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    if masks is None:
        masks = _full_masks(values)
    idx = threshold_indices(values, b, masks)
    rows = np.arange(values.shape[0])
    log_beta = np.log(np.maximum(values[rows, idx], PROB_FLOOR))
    log_p = np.log(np.maximum(values[rows, targets], PROB_FLOOR))
    flags = (log_beta - log_p) <= 0.0
    return flags, bool(flags.all())


def beam_aware_regularizer(dists: ad.Node, targets, hp: HyperParams, masks=None):
    """Sum over steps of log sigmoid(margin / xi); every term is < 0.

    Under threshold_gradient="flow" the gradient also runs through the B-th
    token's probability; under "detach" the threshold is a constant.
    Returns (scalar node, per-step records).
    """
    targets = _check_instance(dists, targets)
    tape = dists.tape
    values = dists.value
    masks = resolve_masks(hp, values, masks)
    idx = threshold_indices(values, hp.beam_width, masks)
    rows = np.arange(values.shape[0])

    p_node = ad.select_last_axis(dists, targets)
    log_p = ad.logarithm(p_node, clamp=True)
    if hp.threshold_gradient == "flow":
        beta_node = ad.select_last_axis(dists, idx)
        log_beta = ad.logarithm(beta_node, clamp=True)
    else:
        log_beta = tape.constant(np.log(np.maximum(values[rows, idx], PROB_FLOOR)))
    margin = ad.add(log_beta, ad.multiply(log_p, tape.constant(-1.0)))
    terms = ad.log_sigmoid(ad.multiply(margin, tape.constant(1.0 / hp.xi)))
    reg = ad.reduce_sum(terms)

    records = []
    for t in range(len(targets)):
        lp = float(log_p.value[t])
        lb = float(log_beta.value[t])
        m = float(margin.value[t])
        records.append(StepRecord(token=int(targets[t]), log_p=lp, log_beta=lb,
                                  margin=m, satisfied=m <= 0.0))
    return reg, records


def bear_loss(dists: ad.Node, targets, hp: HyperParams, masks=None) -> LossBreakdown:
    """sft + lam * regularizer. lam == 0 reuses the sft node unchanged, so the
    degenerate case reproduces plain sft bit-exactly."""
    sft_node = sft_loss(dists, targets)
    reg_node, records = beam_aware_regularizer(dists, targets, hp, masks)
    if hp.lam == 0.0:
        total_node = sft_node
    else:
        total_node = ad.add(sft_node, ad.multiply(reg_node, dists.tape.constant(hp.lam)))
    sft_val = sft_node.value.item()
    reg_val = reg_node.value.item()
    return LossBreakdown(sft=sft_val, reg=reg_val, total=sft_val + hp.lam * reg_val,
                         steps=records, total_node=total_node)


def sigma_xi(delta, xi: float):
    """The margin surrogate sigma_xi(delta) = 1 / (1 + exp(-delta / xi))."""
    z = np.asarray(delta, dtype=np.float64) / xi
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out if out.ndim else float(out)


def prefix_log_scores(values: np.ndarray, target) -> np.ndarray:
    """Cumulative log scores of the target's prefixes from its (steps, V) rows,
    with the arithmetic `prefix_objective_reference` records on its tape."""
    n = len(target)
    logs = np.log(np.maximum(values[np.arange(n), np.asarray(target)], PROB_FLOOR))
    return np.matmul(np.tril(np.ones((n, n))), logs.reshape(n, 1)).reshape(n)


def prefix_objective_reference(tape: ad.Tape, model, prompt, target,
                               hp: HyperParams, trie, config,
                               frozen_thresholds: list[float] | None = None,
                               dists: ad.Node | None = None):
    """Prefix-level reference objective: simulate beam search, then penalize
    each positive prefix's margin against the B-th ranked candidate prefix.

    The threshold at step s is the B-th best log score among the union of the
    step's candidate pool and the positive prefix itself (so the threshold is
    always defined); thresholds are detached. The returned scalar is the sum
    over steps of log sigmoid(margin / xi). Also returns the simulated trace
    (None when frozen thresholds are supplied, e.g. by gradient checks).
    `dists` may pass in this instance's already-computed teacher-forced
    distribution rows to avoid a second forward pass.
    """
    from .decode import prefix_thresholds, search  # decode imports this module

    target = list(target)
    if len(target) == 0 or target[-1] != EOS_ID:
        raise ValidationError("targets must end with a single EOS token")

    if dists is None:
        dists = model.batch_forward(tape, [(list(prompt), target)])[0]
    picked = ad.select_last_axis(dists, np.asarray(target, dtype=np.int64))
    step_logs = ad.logarithm(picked, clamp=True)
    lower = tape.constant(np.tril(np.ones((len(target), len(target)))))
    cum = ad.reshape(ad.matmul(lower, ad.reshape(step_logs, (len(target), 1))),
                     (len(target),))  # prefix_log_scores, on the tape

    if frozen_thresholds is None:
        found = search(model, [prompt], trie, config)
        thresholds = prefix_thresholds(found, trie, [target], [cum.value],
                                       hp.beam_width)[0]
        trace = found.results[0][1]
    else:
        trace = None
        thresholds = list(frozen_thresholds)
        if len(thresholds) != len(target):
            raise ValidationError("one frozen threshold per target step is required")

    thr = tape.constant(np.asarray(thresholds))
    margin = ad.add(thr, ad.multiply(cum, tape.constant(-1.0)))
    reg = ad.reduce_sum(ad.log_sigmoid(ad.multiply(margin, tape.constant(1.0 / hp.xi))))
    return reg, trace


def dpo_style_regularizer(positive, negatives, hp: HyperParams):
    """Positive/negative regularizer pair: reg(positive) - sum(reg(negative)).

    Pushes the positive's margins negative (retained by beam search) and the
    negatives' margins positive (pruned). Each argument is a (dists, targets,
    masks) triple; the preference-model base loss is out of scope here.
    """
    if not negatives:
        raise ValidationError("at least one negative sequence is required")
    pos_dists, pos_targets, pos_masks = positive
    pos_reg, _ = beam_aware_regularizer(pos_dists, pos_targets, hp, pos_masks)
    total = pos_reg
    neg_one = pos_reg.tape.constant(-1.0)
    for neg_dists, neg_targets, neg_masks in negatives:
        neg_reg, _ = beam_aware_regularizer(neg_dists, neg_targets, hp, neg_masks)
        total = ad.add(total, ad.multiply(neg_reg, neg_one))
    return total
