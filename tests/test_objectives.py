"""Loss functions: hand-derived values, margin semantics, gradient checks."""

import math

import numpy as np
import pytest

from bearlab import autodiff as ad
from bearlab import catalog as cat
from bearlab import objectives as obj
from bearlab.catalog import BOS_ID, EOS_ID
from bearlab.decode import DecodeConfig
from bearlab.errors import ValidationError
from bearlab.model import ModelConfig, SequenceModel
from per_context import PerContextScorer

LN_POINT_2 = math.log(0.2)            # -1.6094379124341003
LOG_HALF = math.log(0.5)              # -0.6931471805599453
LOG_POINT_6 = math.log(0.6)           # -0.5108256237659907


def dists_node(tape, rows):
    return tape.leaf(np.array(rows, dtype=np.float64))


def hp(**kw):
    defaults = dict(lam=1.0, xi=1.0, beam_width=2)
    defaults.update(kw)
    return obj.HyperParams(**defaults)


# ---------------------------------------------------------------------------
# sft_loss
# ---------------------------------------------------------------------------


def test_sft_perfect_probabilities_give_zero():
    tape = ad.Tape()
    dists = dists_node(tape, [[0, 0, 1e-30, 1.0], [0, 1.0, 0, 0]])
    loss = obj.sft_loss(dists, [3, EOS_ID])
    assert loss.value.item() == 0.0


def test_sft_hand_log_sum():
    tape = ad.Tape()
    dists = dists_node(tape, [[0.1, 0.2, 0.2, 0.5], [0.2, 0.4, 0.2, 0.2]])
    loss = obj.sft_loss(dists, [3, EOS_ID])  # picks 0.5 then 0.4
    assert loss.value.item() == pytest.approx(-LN_POINT_2, abs=1e-12)


def test_sft_rejects_length_mismatch_and_missing_eos():
    tape = ad.Tape()
    dists = dists_node(tape, [[0.5, 0.5]])
    with pytest.raises(ValidationError):
        obj.sft_loss(dists, [0, 1])
    with pytest.raises(ValidationError):
        obj.sft_loss(dists, [0])  # does not end with EOS


def test_sft_single_descent_step_reduces_loss():
    config = ModelConfig(vocab_size=7, embed_dim=4, hidden_dim=4, max_context=10, seed=2)
    model = SequenceModel(config)
    instance = ([BOS_ID, 4, 5], [6, EOS_ID])

    def loss_value():
        tape = ad.Tape()
        node = model.batch_forward(tape, [instance])[0]
        return obj.sft_loss(node, instance[1])

    before = loss_value()
    model.store.zero_grads()
    ad.backward(before)
    lr = 0.1
    for name in model.store.names():
        model.store.set_value(name, model.store.value(name) - lr * model.store.grad(name))
    after = loss_value()
    assert after.value.item() < before.value.item()


# ---------------------------------------------------------------------------
# thresholds and the necessary condition
# ---------------------------------------------------------------------------


def test_threshold_indices_cases():
    values = np.array([[0.5, 0.3, 0.2], [0.4, 0.4, 0.2], [0.5, 0.3, 0.2], [0.5, 0.3, 0.2]])
    masks = np.ones((4, 3), dtype=bool)
    masks[2, 0] = False
    assert obj.threshold_indices(values[:2], 2, masks[:2]).tolist() == [1, 1]  # 0.3; tied 0.4
    assert obj.threshold_indices(values[2:3], 1, masks[2:3]).tolist() == [1]   # masked 0.5
    # fewer valid tokens than B: the smallest masked probability
    assert obj.threshold_indices(values[3:], 5, masks[3:]).tolist() == [2]
    with pytest.raises(ValidationError):
        obj.threshold_indices(np.array([[0.5, 0.5]]), 1, np.zeros((1, 2), dtype=bool))


def test_necessary_condition_rank_boundary():
    dists = np.array([[0.5, 0.3, 0.2]])
    flags, overall = obj.necessary_condition(dists, [1], b=2, masks=None)
    assert flags.tolist() == [True] and overall  # exactly B-th counts
    flags, overall = obj.necessary_condition(dists, [1], b=1, masks=None)
    assert flags.tolist() == [False] and not overall


def test_margin_sign_matches_condition_flag():
    rng = np.random.default_rng(7)
    for _ in range(200):
        v = int(rng.integers(3, 9))
        length = int(rng.integers(1, 5))
        rows = rng.dirichlet(np.ones(v), size=length)
        targets = rng.integers(0, v, size=length)
        targets[-1] = EOS_ID
        b = int(rng.integers(1, v + 1))
        tape = ad.Tape()
        node = dists_node(tape, rows)
        flags, _ = obj.necessary_condition(rows, targets, b, None)
        _, records = obj.beam_aware_regularizer(node, targets, hp(beam_width=b))
        for flag, rec in zip(flags, records):
            assert flag == rec.satisfied
            assert flag == (rec.margin <= 0.0)
            assert rec.margin == rec.log_beta - rec.log_p


# ---------------------------------------------------------------------------
# beam-aware regularizer
# ---------------------------------------------------------------------------


def test_regularizer_zero_margin_is_log_half():
    tape = ad.Tape()
    # target token's probability ties the B-th threshold -> margin 0
    dists = dists_node(tape, [[0.4, 0.4, 0.2]])
    reg, records = obj.beam_aware_regularizer(dists, [EOS_ID], hp(beam_width=2, xi=0.7))
    assert records[0].margin == 0.0
    assert reg.value.item() == pytest.approx(LOG_HALF, abs=1e-12)


def test_regularizer_hand_margin_log_point_six():
    tape = ad.Tape()
    # beta = 0.3, p = 0.2 -> margin ln 1.5 -> sigma = 0.6
    dists = dists_node(tape, [[0.5, 0.2, 0.3]])
    reg, records = obj.beam_aware_regularizer(dists, [EOS_ID], hp(beam_width=2, xi=1.0))
    assert records[0].margin == pytest.approx(math.log(1.5), abs=1e-12)
    assert reg.value.item() == pytest.approx(LOG_POINT_6, abs=1e-12)


def test_regularizer_footnote_limit_at_small_temperature():
    assert obj.sigma_xi(-0.1, 0.01) == pytest.approx(0.0, abs=1e-4)
    assert obj.sigma_xi(0.1, 0.01) == pytest.approx(1.0, abs=1e-4)
    assert obj.sigma_xi(0.0, 0.01) == 0.5


def test_regularizer_terms_strictly_negative():
    rng = np.random.default_rng(11)
    for _ in range(50):
        v = int(rng.integers(3, 8))
        rows = rng.dirichlet(np.ones(v), size=3)
        targets = np.array([int(rng.integers(0, v)), int(rng.integers(0, v)), EOS_ID])
        tape = ad.Tape()
        reg, records = obj.beam_aware_regularizer(
            dists_node(tape, rows), targets, hp(beam_width=2, xi=0.5))
        assert reg.value.item() < 0
        # per-step terms: log sigma of each margin
        for rec in records:
            assert math.log(obj.sigma_xi(rec.margin, 0.5)) < 0


def test_regularizer_monotone_in_target_probability_detach():
    # raising p (beta held fixed) strictly lowers the step's term
    beta = 0.3
    last = None
    for p in (0.05, 0.1, 0.2, 0.29):
        term = math.log(obj.sigma_xi(math.log(beta) - math.log(p), 1.0))
        if last is not None:
            assert term < last
        last = term
    tape = ad.Tape()
    rows = [[0.65, 0.05, 0.3], [0.51, 0.19, 0.3]]  # beta = 0.3 both rows
    reg_lo, _ = obj.beam_aware_regularizer(
        dists_node(tape, [rows[0]]), [EOS_ID], hp(beam_width=2, threshold_gradient="detach"))
    reg_hi, _ = obj.beam_aware_regularizer(
        dists_node(tape, [rows[1]]), [EOS_ID], hp(beam_width=2, threshold_gradient="detach"))
    assert reg_hi.value.item() < reg_lo.value.item()


def test_trie_valid_support_restricts_threshold():
    vocab, items, trie = cat.build_catalog(["ab", "ac", "b"])
    target = items[2].token_ids  # "b": tokens (b, EOS)
    masks = trie.valid_mask_walk(target, len(vocab))
    rows = np.full((2, len(vocab)), 0.01)
    rows[0, vocab.id_of("a")] = 0.8
    rows[0, vocab.id_of("b")] = 0.1
    rows[1, EOS_ID] = 0.9
    tape = ad.Tape()
    node = dists_node(tape, rows)
    # trie-valid: root mask is {a, b}, so with B=2 beta is p(b)=0.1, margin 0
    _, recs = obj.beam_aware_regularizer(node, target, hp(beam_width=2), masks)
    assert recs[0].margin == 0.0
    # full vocabulary: 0.01 fillers push the B-th value above p(b)? no, B=2
    # over the full row still ranks 0.8 then 0.1; use B=3 to see the shift
    _, recs_full = obj.beam_aware_regularizer(
        node, target, hp(beam_width=3, threshold_support="full-vocabulary"), masks)
    assert recs_full[0].log_beta == pytest.approx(math.log(0.01), abs=1e-12)


# ---------------------------------------------------------------------------
# combined objective
# ---------------------------------------------------------------------------


def test_bear_loss_zero_lambda_reproduces_sft_bit_exactly():
    rng = np.random.default_rng(3)
    rows = rng.dirichlet(np.ones(5), size=3)
    targets = [2, 4, EOS_ID]
    tape = ad.Tape()
    node = dists_node(tape, rows)
    breakdown = obj.bear_loss(node, targets, hp(lam=0.0))
    sft = obj.sft_loss(dists_node(ad.Tape(), rows), targets)
    assert breakdown.total == sft.value.item()
    assert breakdown.total_node.value.item() == sft.value.item()


def test_bear_loss_hand_arithmetic():
    tape = ad.Tape()
    rows = [[0.1, 0.2, 0.2, 0.5], [0.2, 0.4, 0.2, 0.2]]
    node = dists_node(tape, rows)
    # second row: p(EOS)=0.4; with B=2 beta = 0.2... construct instead with
    # explicit margins: use a single-step instance for the frozen arithmetic
    tape2 = ad.Tape()
    node2 = dists_node(tape2, [[0.5, 0.2, 0.3]])
    breakdown = obj.bear_loss(node2, [EOS_ID], hp(lam=2.0, beam_width=2))
    assert breakdown.sft == pytest.approx(-math.log(0.2), abs=1e-12)
    assert breakdown.reg == pytest.approx(LOG_POINT_6, abs=1e-12)
    assert breakdown.total == pytest.approx(-math.log(0.2) + 2.0 * LOG_POINT_6, abs=1e-12)
    assert breakdown.total == breakdown.sft + 2.0 * breakdown.reg  # exact identity
    # the spec's worked pair: sft 1.609438, reg -0.510826, lam 2 -> 0.587786
    assert breakdown.total == pytest.approx(0.5877866649021189, abs=1e-9)


def test_breakdown_json_round_trip():
    tape = ad.Tape()
    node = dists_node(tape, [[0.5, 0.2, 0.3]])
    breakdown = obj.bear_loss(node, [EOS_ID], hp())
    payload = breakdown.to_json()
    assert payload["total"] == breakdown.total
    assert payload["steps"][0]["satisfied"] == (payload["steps"][0]["margin"] <= 0)


# ---------------------------------------------------------------------------
# gradient checks through a real model
# ---------------------------------------------------------------------------


def _gradable_world(seed, vocab_size=7):
    config = ModelConfig(vocab_size=vocab_size, embed_dim=3, hidden_dim=3,
                         max_context=12, seed=seed)
    model = SequenceModel(config)
    rng = np.random.default_rng(seed + 100)
    for name in model.store.names():
        shape = model.store.value(name).shape
        model.store.set_value(name, rng.uniform(-0.7, 0.7, size=shape))
    instance = ([BOS_ID, 4, 5], [6, 4, EOS_ID])
    return config, model, instance


def _boundary_gap(values, b):
    """Smallest gap around the B-th rank boundary across steps; finite
    differences only make sense away from rank-crossing kinks."""
    gaps = []
    for row in values:
        s = np.sort(row)[::-1]
        lo = s[b - 1] - s[b] if b < len(s) else np.inf
        hi = s[b - 2] - s[b - 1] if b >= 2 else np.inf
        gaps.append(min(lo, hi))
    return min(gaps)


def test_bear_gradient_matches_finite_differences_flow_mode():
    checked = 0
    seed = 0
    while checked < 5:
        seed += 1
        config, model, instance = _gradable_world(seed)
        probe_tape = ad.Tape()
        values = model.batch_forward(probe_tape, [instance])[0].value
        if _boundary_gap(values, 2) < 1e-3:
            continue

        def fn(tape, store):
            probe = SequenceModel(config, store)
            node = probe.batch_forward(tape, [instance])[0]
            breakdown = obj.bear_loss(node, instance[1], hp(lam=1.5, xi=0.8))
            return breakdown.total_node

        assert ad.grad_check(fn, model.store, step=1e-6) < 1e-4
        checked += 1


def test_bear_detach_mode_ignores_threshold_path():
    config, model, instance = _gradable_world(5)
    tape = ad.Tape()
    node = model.batch_forward(tape, [instance])[0]
    values = node.value.copy()
    idx = obj.threshold_indices(values, 2, np.ones_like(values, dtype=bool))

    model.store.zero_grads()
    reg, _ = obj.beam_aware_regularizer(node, instance[1],
                                        hp(beam_width=2, threshold_gradient="detach"))
    ad.backward(reg)
    detach_grads = {n: model.store.grad(n).copy() for n in model.store.names()}

    # reference: same margins built by hand with constant thresholds
    model.store.zero_grads()
    tape2 = ad.Tape()
    node2 = model.batch_forward(tape2, [instance])[0]
    picked = ad.select_last_axis(node2, np.asarray(instance[1]))
    log_p = ad.logarithm(picked, clamp=True)
    rows = np.arange(values.shape[0])
    log_beta = tape2.constant(np.log(np.maximum(values[rows, idx], 1e-12)))
    margin = ad.add(log_beta, ad.multiply(log_p, tape2.constant(-1.0)))
    ref = ad.reduce_sum(ad.log_sigmoid(margin))
    ad.backward(ref)
    for name in model.store.names():
        np.testing.assert_allclose(detach_grads[name], model.store.grad(name),
                                   rtol=0, atol=1e-14)


def test_dpo_regularizer_cancels_for_identical_sequences():
    rng = np.random.default_rng(9)
    rows = rng.dirichlet(np.ones(6), size=2)
    targets = [4, EOS_ID]
    tape = ad.Tape()
    pos = (dists_node(tape, rows), targets, None)
    neg = (dists_node(tape, rows), targets, None)
    value = obj.dpo_style_regularizer(pos, [neg], hp())
    assert value.value.item() == 0.0


def test_dpo_regularizer_symmetry_at_zero_margins():
    tape = ad.Tape()
    pos = (dists_node(tape, [[0.4, 0.4, 0.2]]), [EOS_ID], None)
    neg = (dists_node(tape, [[0.3, 0.3, 0.4]]), [EOS_ID], None)
    # both margins are exactly zero (B=2 threshold ties the target token)
    value = obj.dpo_style_regularizer(pos, [neg], hp(beam_width=2))
    assert value.value.item() == 0.0


def test_dpo_regularizer_requires_negatives():
    tape = ad.Tape()
    pos = (dists_node(tape, [[0.5, 0.5]]), [EOS_ID], None)
    with pytest.raises(ValidationError):
        obj.dpo_style_regularizer(pos, [], hp())


def test_dpo_gradient_matches_finite_differences():
    # pure-margin losses are exactly logit differences along most output-layer
    # coordinates (the softmax normalizer cancels), so their true gradient is
    # ~0 there; a 1e-3 step keeps the finite-difference noise floor below the
    # 1e-8-floored relative error while staying far from rank boundaries
    config, model, instance = _gradable_world(14)
    negative = ([BOS_ID, 5, 6], [4, 5, EOS_ID])
    probe = ad.Tape()
    nodes = model.batch_forward(probe, [instance, negative])
    assert min(_boundary_gap(nodes[0].value, 2), _boundary_gap(nodes[1].value, 2)) > 5e-3

    def fn(tape, store):
        m = SequenceModel(config, store)
        pos_node, neg_node = m.batch_forward(tape, [instance, negative])
        return obj.dpo_style_regularizer(
            (pos_node, instance[1], None), [(neg_node, negative[1], None)],
            hp(beam_width=2, xi=0.9))

    assert ad.grad_check(fn, model.store, step=1e-3) < 1e-4


def test_flow_mode_margin_gradient_cancels_normalizer():
    # d margin / d out.b[j] = delta(j, beta_idx) - delta(j, target): the
    # shared softmax normalizer cancels, so untouched bias coordinates keep
    # only rounding residue
    config, model, instance = _gradable_world(13)
    tape = ad.Tape()
    node = model.batch_forward(tape, [instance])[0]
    values = node.value
    idx = obj.threshold_indices(values, 2, np.ones_like(values, dtype=bool))
    touched = set(int(i) for i in idx) | set(int(t) for t in instance[1])
    model.store.zero_grads()
    reg, _ = obj.beam_aware_regularizer(node, instance[1], hp(beam_width=2))
    ad.backward(reg)
    bias_grad = model.store.grad("out.b")
    for j in range(config.vocab_size):
        if j not in touched:
            assert abs(bias_grad[j]) < 1e-15


# ---------------------------------------------------------------------------
# prefix-level reference objective
# ---------------------------------------------------------------------------


class TableModelWithForward(PerContextScorer):
    """Table-driven model that also supports the differentiable batch pass."""

    def __init__(self, vocab, tables, prompt_len=1):
        self.vocab_size = len(vocab)
        self.prompt_len = prompt_len
        self._tables = {}
        for prefix, row in tables.items():
            ids = tuple(vocab.id_of(t) for t in prefix)
            self._tables[ids] = {vocab.id_of(t): p for t, p in row.items()}

    def next_token_distribution(self, context):
        prefix = tuple(int(t) for t in context[self.prompt_len:])
        dist = np.zeros(self.vocab_size)
        for tok, p in self._tables[prefix].items():
            dist[tok] = p
        return dist

    def batch_forward(self, tape, instances):
        out = []
        for prompt, target in instances:
            rows = []
            ctx = tuple(prompt)
            for tok in target:
                rows.append(self.next_token_distribution(ctx))
                ctx = ctx + (int(tok),)
            out.append(tape.leaf(np.array(rows)))
        return out


@pytest.fixture
def abc_world():
    vocab, items, trie = cat.build_catalog(["ab", "ac", "b"])
    tables = {
        (): {"a": 0.55, "b": 0.45},
        ("a",): {"b": 0.6, "c": 0.4},
        ("a", "b"): {"<eos>": 1.0},
        ("a", "c"): {"<eos>": 1.0},
        ("b",): {"<eos>": 1.0},
    }
    model = TableModelWithForward(vocab, tables)
    return vocab, items, trie, model


def test_prefix_reference_matches_hand_simulation(abc_world):
    vocab, items, trie, model = abc_world
    positive = next(i for i in items if i.title == "ac")
    tape = ad.Tape()
    value, trace = obj.prefix_objective_reference(
        tape, model, (BOS_ID,), positive.token_ids, hp(beam_width=2, xi=1.0),
        trie, DecodeConfig(beam_width=2))
    # hand simulation:
    # step 1 pool {a:.55, b:.45} U {a} -> threshold log .45, prefix log .55
    # step 2 pool {ab:.33, ac:.22, b_fin:.45} U {ac} -> threshold log .33
    # step 3 pool {abE:.33 (exp), b:.45 (carry)} U {acE:.22} -> threshold log .33
    d1 = math.log(0.45) - math.log(0.55)
    d2 = math.log(0.33) - math.log(0.22)
    d3 = math.log(0.33) - math.log(0.22)
    expected = sum(math.log(obj.sigma_xi(d, 1.0)) for d in (d1, d2, d3))
    assert value.value.item() == pytest.approx(expected, abs=1e-9)
    assert len(trace.steps) == 3


def test_prefix_reference_dominant_positive_keeps_margins_nonpositive(abc_world):
    vocab, items, trie, _ = abc_world
    tables = {
        (): {"a": 0.9, "b": 0.1},
        ("a",): {"b": 0.8, "c": 0.2},
        ("a", "b"): {"<eos>": 1.0},
        ("a", "c"): {"<eos>": 1.0},
        ("b",): {"<eos>": 1.0},
    }
    model = TableModelWithForward(vocab, tables)
    positive = next(i for i in items if i.title == "ab")
    tape = ad.Tape()
    value, _ = obj.prefix_objective_reference(
        tape, model, (BOS_ID,), positive.token_ids, hp(beam_width=2, xi=1.0),
        trie, DecodeConfig(beam_width=2))
    # top-1 positive at every step: every margin <= 0, every term <= log(1/2)
    per_step = value.value.item() / len(positive.token_ids)
    assert per_step <= LOG_HALF + 1e-12


def test_prefix_reference_gradient_with_frozen_thresholds():
    config, model, instance = _gradable_world(21)
    vocab_titles = ["ab", "ac", "b"]
    # thresholds are detached; gradient-check against a frozen copy
    frozen = [-0.4, -1.1, -1.3]

    def fn(tape, store):
        probe = SequenceModel(config, store)
        value, _ = obj.prefix_objective_reference(
            tape, probe, instance[0], instance[1], hp(beam_width=2, xi=1.0),
            trie=None, config=DecodeConfig(beam_width=2),
            frozen_thresholds=frozen)
        return value

    assert ad.grad_check(fn, model.store, step=1e-6) < 1e-4
