"""Shows that every check in checks.py can fail.

    python3 bench/selftest.py

Builds a tiny world (30 items, 120 users, two epochs), confirms that each
check passes on the program's real outputs, then feeds it a corrupted copy
and confirms it raises CheckFailed. Exits 1 if any check passes a corrupted
output or fails a clean one. Takes a few seconds.
"""

import copy
import os
import shutil
import sys
import tempfile
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
from bearlab import autodiff, decode  # noqa: E402
from bearlab import data as datamod  # noqa: E402
from bearlab import experiment as exp  # noqa: E402
from bearlab.decode import DecodeConfig, PruningCause  # noqa: E402
from bearlab.objectives import HyperParams  # noqa: E402

RESULTS = []


def expect(name, clean, corrupted):
    """`clean()` must pass and `corrupted()` must raise CheckFailed."""
    try:
        clean()
    except checks.CheckFailed as exc:
        RESULTS.append((name, False, f"clean output rejected: {exc}"))
        return
    try:
        corrupted()
    except checks.CheckFailed as exc:
        RESULTS.append((name, True, str(exc)))
        return
    RESULTS.append((name, False, "corrupted output accepted"))


def tiny_world(out_dir):
    config = exp.ExperimentConfig(
        dataset=datamod.SyntheticConfig(catalog_size=30, users=120, seq_length=11, seed=3,
                                        prefix_groups=4, genres=3, title_length=(3, 6)),
        embed_dim=8, hidden_dim=8, hyper=HyperParams(lam=1.0, beam_width=4),
        decode=DecodeConfig(beam_width=4), epochs=2, batch_size=16, learning_rate=0.4,
        seeds=(0,), out_dir=out_dir)
    exp.generate_data(config, out_dir)
    bundle = exp.prepare_dataset(config, out_dir)
    return config, bundle


def evaluation_checks(config, bundle, checkpoint):
    report = exp.evaluate(checkpoint, bundle, "test", config.k_list, config.decode)
    instances = bundle.split("test")
    params = checks.checkpoint_params(checkpoint)
    model = checkpoint.model()
    i = 0
    inst, result = instances[i], report.per_user[i]
    ranking = decode.exhaustive_rank(model, inst.prompt, bundle.items)

    swapped = list(ranking)
    j = next(j for j in range(len(swapped) - 1) if swapped[j][1] != swapped[j + 1][1])
    swapped[j], swapped[j + 1] = swapped[j + 1], swapped[j]
    expect("oracle ranking is sorted by score",
           lambda: checks.check_ranking(ranking, len(bundle.items)),
           lambda: checks.check_ranking(swapped, len(bundle.items)))
    expect("oracle ranking is a permutation of the catalog",
           lambda: checks.check_ranking(ranking, len(bundle.items)),
           lambda: checks.check_ranking(ranking[:-1], len(bundle.items)))

    perturbed = dict(params)
    first_token = bundle.items[inst.positive_item].token_ids[0]
    perturbed["out.w"] = params["out.w"].copy()
    perturbed["out.w"][0, first_token] += 1e-6
    expect("reference forward reproduces the oracle score",
           lambda: checks.check_oracle_entry(params, inst, bundle.items, ranking, result),
           lambda: checks.check_oracle_entry(perturbed, inst, bundle.items, ranking, result))
    moved = replace(result, exhaustive_rank=result.exhaustive_rank % len(bundle.items) + 1)
    expect("reported exhaustive rank matches the oracle ranking",
           lambda: checks.check_oracle_entry(params, inst, bundle.items, ranking, result),
           lambda: checks.check_oracle_entry(params, inst, bundle.items, ranking, moved))

    # a positive that survived was inside the top B at step 1, where the only
    # parent is the root, so calling it a step-1 violation must be refuted
    k = next(k for k, r in enumerate(report.per_user) if r.cause is PruningCause.SURVIVED)
    v = next(v for v, r in enumerate(report.per_user)
             if r.cause is PruningCause.NECESSARY_VIOLATION)
    fake = replace(report.per_user[k], cause=PruningCause.NECESSARY_VIOLATION,
                   pruned_step=1, beam_rank=None)
    expect("NecessaryViolation is confirmed at the pruned step",
           lambda: checks.check_violation(params, instances[v], bundle.items,
                                          report.per_user[v], config.decode.beam_width),
           lambda: checks.check_violation(params, instances[k], bundle.items, fake,
                                          config.decode.beam_width))

    survivors = [r for r in report.per_user if r.beam_rank is not None]
    worse = list(report.per_user)
    s = worse.index(survivors[0])
    worse[s] = replace(worse[s], beam_rank=worse[s].exhaustive_rank + 1)
    expect("beam rank <= exhaustive rank",
           lambda: checks.check_beam_vs_oracle(report.per_user),
           lambda: checks.check_beam_vs_oracle(worse))
    relabeled = list(report.per_user)
    relabeled[s] = replace(relabeled[s], cause=PruningCause.GLOBAL_PRUNED)
    expect("survival agrees with the cause",
           lambda: checks.check_beam_vs_oracle(report.per_user),
           lambda: checks.check_beam_vs_oracle(relabeled))

    for field, label in (("ndcg", "NDCG@K"), ("hit_ratio", "HR@K"), ("pruning_rate", "PR@K")):
        bad = copy.deepcopy(report)
        values = getattr(bad, field)
        k_bad = next(k for k in bad.k_list if values[k] is not None)
        values[k_bad] += 1e-3
        expect(f"{label} recounted from per-user results",
               lambda: checks.check_report_metrics(report),
               lambda bad=bad: checks.check_report_metrics(bad))

    other = copy.deepcopy(report)
    other.per_user[0] = replace(other.per_user[0], pruned_step=99)
    expect("reports of two same-seed runs agree",
           lambda: checks.check_same(checks.report_fingerprint(report),
                                     checks.report_fingerprint(copy.deepcopy(report)), "report"),
           lambda: checks.check_same(checks.report_fingerprint(report),
                                     checks.report_fingerprint(other), "report"))


def training_checks(config, bundle, out_dir):
    rng = np.random.default_rng(0)
    train_split = bundle.split("train")
    val_split = bundle.split("val")
    batch = [train_split[j] for j in rng.choice(len(train_split), 6, replace=False)]
    trained = {}
    for objective in ("sft", "bear", "prefix-ref"):
        checkpoint, _ = exp.train(config, bundle, 0, objective=objective)
        trained[objective] = checkpoint
        model = checkpoint.model()
        training = checks.training_loss_fn(model, batch, objective, config, bundle)
        reference = checks.reference_loss_fn(model, batch, objective, config, bundle)

        def skewed_backward(loss):
            autodiff.backward(loss)
            grads = {n: model.store.grad(n) for n in model.store.names()}
            name = max(grads, key=lambda n: np.abs(grads[n]).max())
            flat = grads[name].reshape(-1)
            flat[np.argmax(np.abs(flat))] *= 1.01

        expect(f"{objective}: backward agrees with central differences",
               lambda: checks.check_gradients(training, reference, autodiff.backward,
                                              model.store, np.random.default_rng(1)),
               lambda: checks.check_gradients(training, reference, skewed_backward,
                                              model.store, np.random.default_rng(1)))

    wrong = checks.reference_loss_fn(model, batch, "sft", config, bundle)
    expect("training loss equals its per-instance assembly",
           lambda: checks.check_gradients(training, reference, autodiff.backward,
                                          model.store, np.random.default_rng(1)),
           lambda: checks.check_gradients(training, wrong, autodiff.backward,
                                          model.store, np.random.default_rng(1)))

    checkpoint = trained["sft"]
    nan_history = copy.deepcopy(checkpoint.history)
    nan_history[-1]["train_loss"] = float("nan")
    expect("every loss is finite",
           lambda: checks.check_losses_finite(checkpoint),
           lambda: checks.check_losses_finite(replace(checkpoint, history=nan_history)))

    history = copy.deepcopy(checkpoint.history)
    best = checkpoint.epoch
    other_epoch = 1 if best != 1 else 2
    expect("checkpoint epoch is the first argmax of validation",
           lambda: checks.check_best_epoch(checkpoint),
           lambda: checks.check_best_epoch(replace(checkpoint, history=history,
                                                   epoch=other_epoch)))

    model = checkpoint.model()
    finals = [decode.beam_search(model, inst.prompt, bundle.trie, config.decode)[0]
              for inst in val_split]
    # promote a positive that is not first to the top of its beam finals
    n = next(n for n, (f, inst) in enumerate(zip(finals, val_split))
             if f and f[0].item_id != inst.positive_item)
    reordered = list(finals)
    reordered[n] = [replace(finals[n][0], item_id=val_split[n].positive_item)] + finals[n][1:]
    expect("best validation NDCG@10 recounted from beam finals",
           lambda: checks.check_best_ndcg(
               checkpoint, checks.validation_ndcg_from_finals(finals, val_split)),
           lambda: checks.check_best_ndcg(
               checkpoint, checks.validation_ndcg_from_finals(reordered, val_split)))

    expect("model digests of two same-seed runs agree",
           lambda: checks.check_same(checkpoint.store.digest(),
                                     exp.train(config, bundle, 0, objective="sft")[0]
                                     .store.digest(), "digest"),
           lambda: checks.check_same(checkpoint.store.digest(),
                                     trained["bear"].store.digest(), "digest"))
    return checkpoint


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        config, bundle = tiny_world(out_dir)
        checkpoint = training_checks(config, bundle, out_dir)
        evaluation_checks(config, bundle, checkpoint)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    bad = 0
    for name, ok, detail in RESULTS:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        bad += not ok
    print(f"{len(RESULTS) - bad} of {len(RESULTS)} checks fail on corrupted output")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
