"""Training loop, evaluation, checkpointing, and the compare workflow on a
small synthetic dataset (kept tiny so the suite stays fast)."""

import json
import os

import numpy as np
import pytest

from bearlab import autodiff as ad
from bearlab import data as datamod
from bearlab import experiment as exp
from bearlab.decode import DecodeConfig
from bearlab.errors import ValidationError
from bearlab.model import SequenceModel
from bearlab.objectives import HyperParams, sft_loss


def tiny_config(out_dir, **kw):
    defaults = dict(
        dataset=datamod.SyntheticConfig(catalog_size=24, users=60, seq_length=11,
                                        seed=3, prefix_groups=4, genres=3,
                                        title_length=(3, 5)),
        embed_dim=8, hidden_dim=8,
        hyper=HyperParams(lam=1.0, xi=1.0, beam_width=4),
        decode=DecodeConfig(beam_width=4),
        epochs=2, batch_size=16, learning_rate=0.4,
        k_list=(5, 10), seeds=(0,), out_dir=str(out_dir),
    )
    defaults.update(kw)
    return exp.ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    out = tmp_path_factory.mktemp("world")
    config = tiny_config(out)
    exp.generate_data(config, str(out))
    bundle = exp.prepare_dataset(config, str(out))
    return config, bundle, out


def test_prepare_persists_and_reloads(world):
    config, bundle, out = world
    again = exp.load_bundle(config, str(out))
    assert again.vocab.tokens == bundle.vocab.tokens
    assert again.instances == bundle.instances
    splits = {s: len(bundle.split(s)) for s in ("train", "val", "test")}
    n = sum(splits.values())
    assert splits["val"] == n // 10
    assert splits["test"] == n // 10


def test_prepare_requires_generated_files(tmp_path):
    config = tiny_config(tmp_path)
    with pytest.raises(ValidationError, match="gen-data"):
        exp.prepare_dataset(config, str(tmp_path))


def test_train_is_seed_deterministic(world):
    config, bundle, out = world
    a, timing_a = exp.train(config, bundle, seed=7)
    b, _ = exp.train(config, bundle, seed=7)
    c, _ = exp.train(config, bundle, seed=8)
    assert a.store.digest() == b.store.digest()
    assert a.history == b.history
    assert a.store.digest() != c.store.digest()
    assert len(timing_a["epoch_train_seconds"]) == config.epochs


def test_training_reduces_loss(world):
    config, bundle, out = world
    checkpoint, _ = exp.train(tiny_config(out, epochs=4), bundle, seed=0)
    losses = [h["train_loss"] for h in checkpoint.history]
    assert losses[-1] < losses[0]


def test_single_batch_step_matches_hand_computation(world):
    config, bundle, out = world
    seed = 11
    # replicate epoch 1 by hand: same init, same shuffle stream, one batch
    # spanning the whole train split
    seed_seq = np.random.SeedSequence(seed)
    init_seed, shuffle_seed = (int(s) for s in seed_seq.generate_state(2))
    one = tiny_config(out, epochs=1, batch_size=len(bundle.split("train")))
    model_config = exp.derive_model_config(one, bundle, init_seed)
    model = SequenceModel(model_config)
    order = np.random.default_rng(shuffle_seed).permutation(len(bundle.split("train")))
    full_batch = [bundle.split("train")[i] for i in order]
    tape = ad.Tape()
    nodes = model.batch_forward(tape, [(i.prompt, i.target) for i in full_batch])
    parts = [ad.reshape(sft_loss(n, i.target), (1,)) for n, i in zip(nodes, full_batch)]
    loss = ad.multiply(ad.reduce_sum(ad.concatenate(parts, axis=0)),
                       tape.constant(1.0 / len(full_batch)))
    checkpoint, _ = exp.train(one, bundle, seed=seed)
    assert checkpoint.history[0]["train_loss"] == pytest.approx(
        loss.value.item(), abs=1e-12)
    # and one descent step from that point reduces the loss
    model.store.zero_grads()
    ad.backward(loss)
    for name in model.store.names():
        model.store.value(name)[...] -= one.learning_rate * model.store.grad(name)
    tape3 = ad.Tape()
    nodes3 = model.batch_forward(tape3, [(i.prompt, i.target) for i in full_batch])
    parts3 = [ad.reshape(sft_loss(n, i.target), (1,)) for n, i in zip(nodes3, full_batch)]
    after = ad.multiply(ad.reduce_sum(ad.concatenate(parts3, axis=0)),
                        tape3.constant(1.0 / len(full_batch)))
    assert after.value.item() < loss.value.item()


def test_batched_bear_loss_matches_per_instance_ops(world):
    config, bundle, out = world
    hp = HyperParams(lam=0.7, xi=0.9, beam_width=4)
    cfg = tiny_config(out, hyper=hp)
    model = SequenceModel(exp.derive_model_config(cfg, bundle, seed=3))
    batch = bundle.split("train")[:6]
    loss, _ = exp._batch_loss(model, batch, "bear", hp, cfg.decode, bundle, {})
    # oracle: per-instance bear_loss over separate forwards, averaged
    from bearlab.objectives import bear_loss
    totals = []
    for inst in batch:
        tape = ad.Tape()
        node = model.batch_forward(tape, [(inst.prompt, inst.target)])[0]
        masks = bundle.trie.valid_mask_walk(inst.target, len(bundle.vocab))
        totals.append(bear_loss(node, inst.target, hp, masks).total)
    assert loss.value.item() == pytest.approx(float(np.mean(totals)), abs=1e-12)


def test_bear_lambda_zero_reproduces_sft_bit_exactly(world):
    config, bundle, out = world
    sft_ckpt, _ = exp.train(tiny_config(out, objective="sft"), bundle, seed=5)
    zero = tiny_config(out, objective="bear",
                       hyper=HyperParams(lam=0.0, xi=1.0, beam_width=4))
    bear_ckpt, _ = exp.train(zero, bundle, seed=5)
    assert [h["train_loss"] for h in sft_ckpt.history] == \
           [h["train_loss"] for h in bear_ckpt.history]
    assert sft_ckpt.store.digest() == bear_ckpt.store.digest()


@pytest.mark.parametrize("objective", ["bear", "prefix-ref"])
def test_alternative_objectives_train(world, objective):
    config, bundle, out = world
    cfg = tiny_config(out, objective=objective, epochs=1)
    checkpoint, timing = exp.train(cfg, bundle, seed=1)
    assert np.isfinite(checkpoint.history[0]["train_loss"])
    assert checkpoint.objective == objective


def test_checkpoint_round_trip_reproduces_validation_metric(world, tmp_path):
    config, bundle, out = world
    checkpoint, _ = exp.train(config, bundle, seed=2)
    directory = str(tmp_path / "ckpt")
    checkpoint.save(directory)
    loaded = exp.Checkpoint.load(directory)
    assert loaded.store.digest() == checkpoint.store.digest()
    assert loaded.best_val_ndcg() == checkpoint.best_val_ndcg()
    recomputed = exp.validation_ndcg10(loaded.model(), bundle, config.decode,
                                       bundle.split("val"))
    assert recomputed == checkpoint.best_val_ndcg()


def test_checkpoint_save_is_byte_deterministic(world, tmp_path):
    config, bundle, out = world
    dirs = []
    for run in (0, 1):
        ckpt, _ = exp.train(config, bundle, seed=4)
        d = tmp_path / f"run{run}"
        ckpt.save(str(d))
        dirs.append(d)
    for name in ("model.json", "params.json", "params.bin", "optimizer.bin",
                 "training_state.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_evaluate_produces_consistent_report(world):
    config, bundle, out = world
    checkpoint, _ = exp.train(config, bundle, seed=0)
    report = exp.evaluate(checkpoint, bundle, "test", config.k_list, config.decode)
    assert report.n_instances == len(bundle.split("test"))
    for k in config.k_list:
        assert 0.0 <= report.ndcg[k] <= report.hit_ratio[k] <= 1.0
    # identical rerun gives an identical report apart from timing
    again = exp.evaluate(checkpoint, bundle, "test", config.k_list, config.decode)
    a, b = report.to_json(), again.to_json()
    a.pop("timing"), b.pop("timing")
    assert a == b


def test_evaluate_wide_beam_has_zero_pruning(world):
    config, bundle, out = world
    wide = tiny_config(out, decode=DecodeConfig(beam_width=24))
    checkpoint, _ = exp.train(wide, bundle, seed=0)
    # the train split is guaranteed to hold top-k positives after fitting
    report = exp.evaluate(checkpoint, bundle, "train", (5, 10), wide.decode)
    for k in (5, 10):
        assert report.pruning_rate_count[k] > 0
        assert report.pruning_rate[k] == 0.0
    # beam metrics coincide with the exhaustive oracle: every positive that
    # ranks top-k exhaustively is returned at that very rank
    for r in report.per_user:
        assert r.beam_rank == r.exhaustive_rank or r.exhaustive_rank > 24


def test_pruning_rate_non_increasing_in_beam_width(world):
    # fixed evaluation set: the train split, where plenty of positives have
    # top-5 exhaustive ranks after fitting
    config, bundle, out = world
    checkpoint, _ = exp.train(config, bundle, seed=0)
    n_items = len(bundle.items)
    rates = []
    for b in (1, 2, 5, 10, n_items):
        report = exp.evaluate(checkpoint, bundle, "train", (5,),
                              DecodeConfig(beam_width=b))
        rates.append(report.pruning_rate[5])
    assert all(r is not None for r in rates)
    for wider, narrower in zip(rates[1:], rates[:-1]):
        assert wider <= narrower
    assert rates[-1] == 0.0  # beam covers the catalog: nothing can be pruned


def test_evaluate_rejects_vocab_mismatch(world, tmp_path):
    config, bundle, out = world
    checkpoint, _ = exp.train(config, bundle, seed=0)
    other_dir = tmp_path / "other"
    other_cfg = tiny_config(other_dir,
                            dataset=datamod.SyntheticConfig(
                                catalog_size=20, users=60, seq_length=11, seed=9,
                                title_length=(3, 5)))
    exp.generate_data(other_cfg, str(other_dir))
    other_bundle = exp.prepare_dataset(other_cfg, str(other_dir), persist=False)
    with pytest.raises(ValidationError, match="digest"):
        exp.evaluate(checkpoint, other_bundle, "test", (5,), config.decode)


def test_diagnose_user_trace(world):
    config, bundle, out = world
    checkpoint, _ = exp.train(config, bundle, seed=0)
    inst = bundle.split("test")[0]
    trace, found = exp.diagnose_user(checkpoint, bundle, inst.user_id, config.decode)
    assert found.user_id == inst.user_id
    for record in trace.steps:
        assert len(record.survivors) <= config.decode.beam_width
    with pytest.raises(ValidationError):
        exp.diagnose_user(checkpoint, bundle, 10**9, config.decode)


def test_compare_workflow_writes_summary(world, tmp_path):
    config, bundle, out = world
    cfg = tiny_config(tmp_path, epochs=1, seeds=(0, 1),
                      methods=(("sft", "sft", HyperParams(lam=0.0, beam_width=4)),
                               ("bear", "bear", HyperParams(lam=1.0, beam_width=4))))
    reports, rows = exp.compare(cfg, bundle, out_dir=str(tmp_path))
    assert set(reports) == {("sft", 0), ("sft", 1), ("bear", 0), ("bear", 1)}
    assert (tmp_path / "compare" / "comparison.csv").exists()
    payload = json.loads((tmp_path / "compare" / "comparison.json").read_text())
    assert "sft-seed0" in payload["reports"]
    mean_rows = [r for r in rows if r["seed"] == "mean"]
    assert {r["method"] for r in mean_rows} == {"sft", "bear"}
    # comparing a method with itself yields identical metric columns
    twin = tiny_config(tmp_path, epochs=1, seeds=(0,),
                       methods=(("a", "sft", HyperParams(lam=0.0, beam_width=4)),
                                ("b", "sft", HyperParams(lam=0.0, beam_width=4))))
    twin_reports, _ = exp.compare(twin, bundle, out_dir=None)
    ra = twin_reports[("a", 0)].to_json()
    rb = twin_reports[("b", 0)].to_json()
    for payload in (ra, rb):
        payload.pop("timing")
        payload.pop("method")
    assert ra == rb


def test_config_digest_ignores_out_dir(world):
    config, bundle, out = world
    a = exp.config_digest(config)
    b = exp.config_digest(exp.ExperimentConfig(**{**config.__dict__,
                                                  "out_dir": "elsewhere"}))
    c = exp.config_digest(exp.ExperimentConfig(**{**config.__dict__,
                                                  "learning_rate": 0.123}))
    assert a == b
    assert a != c


def test_config_json_round_trip():
    payload = {
        "out_dir": "somewhere",
        "dataset": {"kind": "synthetic", "catalog_size": 50, "users": 100,
                    "seq_length": 11, "seed": 2, "title_length": [3, 6],
                    "tokenization": "character"},
        "model": {"embed_dim": 12, "hidden_dim": 10, "max_context": None},
        "hyper": {"lam": 2.0, "xi": 0.5, "beam_width": 5},
        "decode": {"beam_width": 5},
        "objective": "bear",
        "epochs": 3, "batch_size": 8, "learning_rate": 0.2,
        "k_list": [5], "seeds": [4],
        "methods": [{"name": "sft", "objective": "sft"},
                    {"name": "hot", "objective": "bear", "hyper": {"lam": 3.0}}],
    }
    config = exp.config_from_json(payload)
    assert config.dataset.catalog_size == 50
    assert config.embed_dim == 12
    assert config.hyper.lam == 2.0
    assert config.methods[1][2].lam == 3.0
    assert config.methods[0][2].lam == 2.0  # inherits the base hyper block
    assert config.objective == "bear"
