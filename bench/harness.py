"""Set-up, timed rounds, checks and metrics of the bearlab benchmark; the
entry point is run.py, which puts `src/` on the import path first."""

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

import checks
import tracer as tracing
from bearlab import autodiff, decode
from bearlab import data as datamod
from bearlab import experiment as exp
from bearlab.decode import PruningCause

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
WORK_ROOT = os.path.join(os.path.dirname(HERE), ".bench_work")

WORKLOADS = {
    # name: objectives trained per round (none: one evaluation per round)
    "train": ("sft", "bear"),
    "evaluate": (),
    "prefix-ref": ("prefix-ref",),
}
EPOCHS = 1
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 5.0     # cheap set-ups repeat more, so that their median settles
FIXTURE_OBJECTIVE = "sft"
EVAL_SAMPLE = 8            # random test instances re-checked against the reference
EVAL_VIOLATIONS = 8        # NecessaryViolation instances re-checked
GRAD_BATCH = 8
RUN_DEADLINE_S = 150.0      # the timed part must end by then; set-ups follow it


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description="bearlab benchmark: train, evaluate and prefix-ref")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--data-seed", type=int, default=None,
                        help="synthetic data seed (default: --seed)")
    parser.add_argument("--run-seed", type=int, default=None,
                        help="training and sampling seed (default: --seed)")
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.data_seed is None:
        args.data_seed = args.seed
    if args.run_seed is None:
        args.run_seed = args.seed
    return args


def make_config(data_seed: int, run_seed: int, out_dir: str):
    return exp.ExperimentConfig(dataset=datamod.SyntheticConfig(seed=data_seed),
                                epochs=EPOCHS, seeds=(run_seed,), out_dir=out_dir)


def eval_workers() -> int:
    """The worker count `experiment.evaluate` will use (BEARLAB_THREADS,
    default all logical cores)."""
    return int(os.environ.get("BEARLAB_THREADS", os.cpu_count() or 1))


# ---------------------------------------------------------------------------
# Set-up (parent process)
# ---------------------------------------------------------------------------


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def set_up(workload: str, args, directory: str) -> tuple[float, str]:
    """One set-up; returns (seconds, fingerprint of what it produced)."""
    config = make_config(args.data_seed, args.run_seed, directory)
    start = time.perf_counter()
    exp.generate_data(config, directory)
    bundle = exp.prepare_dataset(config, directory)
    fixture = ""
    if workload == "evaluate":
        checkpoint, _ = exp.train(config, bundle, args.run_seed, objective=FIXTURE_OBJECTIVE)
        checkpoint.save(os.path.join(directory, "fixture"))
        fixture = checkpoint.store.digest()
    seconds = time.perf_counter() - start
    paths = exp.dataset_paths(directory)
    return seconds, file_digest(paths[k] for k in sorted(paths)) + fixture


# ---------------------------------------------------------------------------
# Timed part (child process)
# ---------------------------------------------------------------------------


def peak_rss_kb() -> int:
    """High-water RSS of this process's own address space. getrusage's
    ru_maxrss would not do: Linux carries the parent's peak across fork and
    exec, and the parent has just trained the evaluate fixture."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def train_round(config, bundle, args, objectives_):
    ops = []
    for objective in objectives_:
        start = time.perf_counter()
        checkpoint, _ = exp.train(config, bundle, args.run_seed, objective=objective)
        ops.append({"objective": objective, "seconds": time.perf_counter() - start,
                    "checkpoint": checkpoint})
    return ops


def evaluate_round(config, bundle, directory):
    start = time.perf_counter()
    checkpoint = exp.Checkpoint.load(os.path.join(directory, "fixture"))
    report = exp.evaluate(checkpoint, bundle, "test", config.k_list, config.decode,
                          method=FIXTURE_OBJECTIVE)
    return [{"seconds": time.perf_counter() - start, "checkpoint": checkpoint,
             "report": report}]


def check_training(config, bundle, args, rounds, directory) -> list[str]:
    notes = []
    rng = np.random.default_rng(args.run_seed)
    train_split = bundle.split("train")
    val_split = bundle.split("val")
    for i, op in enumerate(rounds[0]):
        objective, checkpoint = op["objective"], op["checkpoint"]
        for later in rounds[1:]:
            checks.check_same(later[i]["checkpoint"].store.digest(), checkpoint.store.digest(),
                              f"{objective} model digest")
            checks.check_same(later[i]["checkpoint"].history, checkpoint.history,
                              f"{objective} training history")
        checks.check_losses_finite(checkpoint)
        checks.check_best_epoch(checkpoint)
        saved = os.path.join(directory, f"checkpoint-{objective}")
        checkpoint.save(saved)
        reloaded = exp.Checkpoint.load(saved)
        checks.check_same(reloaded.store.digest(), checkpoint.store.digest(),
                          f"{objective} digest after save and load")
        model = reloaded.model()
        finals = [decode.beam_search(model, inst.prompt, bundle.trie, config.decode)[0]
                  for inst in val_split]
        checks.check_best_ndcg(checkpoint, checks.validation_ndcg_from_finals(finals, val_split))
        batch = [train_split[j] for j in rng.choice(len(train_split), GRAD_BATCH, replace=False)]
        n = checks.check_gradients(
            checks.training_loss_fn(model, batch, objective, config, bundle),
            checks.reference_loss_fn(model, batch, objective, config, bundle),
            autodiff.backward, model.store, rng)
        notes.append(f"{objective}: digest {checkpoint.store.digest()[:12]}, best epoch "
                     f"{checkpoint.epoch}, val NDCG@10 {checkpoint.best_val_ndcg():.6f} "
                     f"recounted from reloaded beam finals, {n} gradient coordinates checked")
    return notes


def check_evaluation(config, bundle, args, rounds) -> list[str]:
    first = rounds[0][0]
    report, checkpoint = first["report"], first["checkpoint"]
    fingerprint = checks.report_fingerprint(report)
    for later in rounds[1:]:
        checks.check_same(checks.report_fingerprint(later[0]["report"]), fingerprint, "report")
    checks.check_beam_vs_oracle(report.per_user)
    checks.check_report_metrics(report)

    instances = bundle.split("test")
    rng = np.random.default_rng(args.run_seed)
    sample = sorted(int(i) for i in rng.choice(len(instances), EVAL_SAMPLE, replace=False))
    violations = [i for i, r in enumerate(report.per_user)
                  if r.cause is PruningCause.NECESSARY_VIOLATION][:EVAL_VIOLATIONS]
    sample = sorted(set(sample) | set(violations))

    params = checks.checkpoint_params(checkpoint)
    model = checkpoint.model()
    for i in sample:
        inst, result = instances[i], report.per_user[i]
        checks.require(result.user_id == inst.user_id
                       and result.positive_item == inst.positive_item,
                       f"per-user result {i} is not test instance {i}")
        ranking = decode.exhaustive_rank(model, inst.prompt, bundle.items)
        checks.check_ranking(ranking, len(bundle.items))
        checks.check_oracle_entry(params, inst, bundle.items, ranking, result)
        if result.cause is PruningCause.NECESSARY_VIOLATION:
            checks.check_violation(params, inst, bundle.items, result,
                                   config.decode.beam_width)

    # a second evaluation of the sampled instances gives the same per-user results
    subset = exp.DatasetBundle(vocab=bundle.vocab, items=bundle.items, trie=bundle.trie,
                               instances=[instances[i] for i in sample],
                               tokenization=bundle.tokenization)
    again = exp.evaluate(checkpoint, subset, "test", config.k_list, config.decode)
    checks.check_same([r.to_json() for r in again.per_user],
                      [report.per_user[i].to_json() for i in sample],
                      "per-user evaluation results")
    return [f"model digest {checkpoint.store.digest()[:12]}, NDCG@10 {report.ndcg[10]:.6f}, "
            f"PR@10 {report.pruning_rate[10]}, {len(sample)} instances re-checked against "
            f"the reference forward, {len(violations)} of them NecessaryViolation"]


def child_main(args) -> None:
    directory = args.child
    config = make_config(args.data_seed, args.run_seed, directory)
    bundle = exp.load_bundle(config, directory)
    objectives_ = WORKLOADS[args.workload]
    n_ops = len(objectives_) if objectives_ else len(bundle.split("test"))
    min_rounds = 2 if (objectives_ or args.trace) else 1
    tracer = tracing.Tracer() if args.trace else None

    rounds, walls, traced = [], [], []
    attempted = failed = n_rounds = 0
    start = time.perf_counter()
    while n_rounds < min_rounds or time.perf_counter() - start < args.seconds:
        is_traced = tracer is not None and n_rounds % 2 == 1
        n_rounds += 1
        gc.collect()  # every round starts from the same heap, whatever the last one left
        if is_traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            ops = (train_round(config, bundle, args, objectives_) if objectives_
                   else evaluate_round(config, bundle, directory))
        except Exception:
            traceback.print_exc()
            ops = None
        finally:
            if is_traced:
                tracer.uninstall()
        wall = time.perf_counter() - t0
        attempted += n_ops
        if ops is None:
            failed += n_ops
            continue
        rounds.append(ops)
        walls.append(wall)
        traced.append(is_traced)
    peak_rss_mb = peak_rss_kb() / 1024.0

    correct, notes = bool(rounds), []
    try:
        if not rounds:
            notes = ["no round completed"]
        elif objectives_:
            notes = check_training(config, bundle, args, rounds, directory)
        else:
            notes = check_evaluation(config, bundle, args, rounds)
    except checks.CheckFailed as exc:
        correct = False
        notes = [f"CHECK FAILED: {exc}"]

    per_round = []
    for ops, wall, is_traced in zip(rounds, walls, traced):
        per_round.append({"wall_s": wall, "traced": is_traced,
                          "ops": [{"objective": op.get("objective", "evaluate"),
                                   "seconds": op["seconds"]} for op in ops]})
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "peak_rss_mb": peak_rss_mb, "rounds": per_round, "notes": notes,
        "train_instances": len(bundle.split("train")) * EPOCHS,
        "test_instances": len(bundle.split("test")),
        "workers": eval_workers(),
    }
    if tracer is not None:
        result["table"] = [[name, parent, *row] for (name, parent), row in tracer.table().items()]
        result["counters"] = tracer.counters()
    with open(os.path.join(directory, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


# ---------------------------------------------------------------------------
# Metrics (parent process)
# ---------------------------------------------------------------------------


def round_throughput(round_, train_instances: int, test_instances: int) -> float:
    seconds = sum(op["seconds"] for op in round_["ops"])
    per_op = test_instances if round_["ops"][0]["objective"] == "evaluate" else train_instances
    return per_op * len(round_["ops"]) / seconds


def end_to_end(result, setup_times) -> tuple[dict, list[str]]:
    rounds = [r for r in result["rounds"] if not r["traced"]]
    rates = [round_throughput(r, result["train_instances"], result["test_instances"])
             for r in rounds]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "instances_per_s": (statistics.median(rates), "instances/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    details = [f"rounds: {len(rounds)} ({', '.join(f'{r:.2f}' for r in rates)} instances/s)",
               f"setup repeats: {', '.join(f'{t:.3f}' for t in setup_times)} s"]
    objectives_ = [op["objective"] for op in rounds[0]["ops"]]
    if objectives_ == ["evaluate"]:
        details.append(f"evaluation workers: {result['workers']}")
    else:
        for i, objective in enumerate(objectives_):
            rate = statistics.median(result["train_instances"] / r["ops"][i]["seconds"]
                                     for r in rounds)
            details.append(f"train_instances_per_s.{objective}: {rate:.4f} instances/s")
    return metrics, details


def per_layer(result, setup_table, setup_repeats: int) -> dict:
    n_traced = sum(r["traced"] for r in result["rounds"])
    table = {(name, parent): row for name, parent, *row in result["table"]
             if name not in tracing.SETUP_LAYERS}
    totals = tracing.layer_totals(table)
    setup_totals = tracing.layer_totals(setup_table)
    metrics = {}
    for name, *_ in tracing.LAYERS:
        source, scale = ((setup_totals, setup_repeats) if name in tracing.SETUP_LAYERS
                         else (totals, n_traced))
        calls, total, own = source.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls / scale, "count")
        metrics[f"{name}.s"] = (total / scale, "s")
        metrics[f"{name}.self_s"] = (own / scale, "s")

    counters = result["counters"]
    backward_calls = totals.get("autodiff.backward", (0,))[0]
    metrics["autodiff.tape_records"] = (
        counters.get("autodiff.tape_records", 0) / backward_calls if backward_calls else 0.0,
        "count")
    metrics["model.step_distributions.rows"] = (
        counters.get("model.step_distributions.rows", 0) / n_traced, "count")
    metrics["decode.beam_search.expansions"] = (
        counters.get("decode.beam_search.expansions", 0) / n_traced, "count")
    # train time outside validation, forward and backward: loss assembly
    # (thresholds, prefix simulation) and the optimizer step
    inner = sum(row[1] for (name, parent), row in table.items()
                if parent == "experiment.train" and name in (
                    "experiment.validation_ndcg10", "model.batch_forward", "autodiff.backward"))
    train_total = totals.get("experiment.train", (0, 0.0))[1]
    metrics["experiment.train.step_s"] = ((train_total - inner) / n_traced, "s")

    traced_walls = [r["wall_s"] for r in result["rounds"] if r["traced"]]
    plain_walls = [r["wall_s"] for r in result["rounds"] if not r["traced"]]
    roots = sum(row[1] for (name, parent), row in table.items() if parent is None)
    metrics["trace.round_s"] = (statistics.median(traced_walls), "s")
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0), "%")
    metrics["trace.uncovered_s"] = ((sum(traced_walls) - roots) / n_traced, "s")
    return metrics


def emit(correct, attempted, failed, metrics, details) -> None:
    for line in details:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child is not None:
        child_main(args)
        return 0

    began = time.perf_counter()
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=WORK_ROOT)
    try:
        setup_tracer = tracing.Tracer(tracing.SETUP_LAYERS) if args.trace else None

        def set_ups(indices):
            if setup_tracer is not None:
                setup_tracer.install()
            try:
                return [set_up(args.workload, args, os.path.join(work, f"setup{i}"))
                        for i in indices]
            finally:
                if setup_tracer is not None:
                    setup_tracer.uninstall()

        # the timed part uses the first set-up; the others run after it, so
        # that the median samples the machine at different moments of the run
        runs = set_ups([0])
        directory = os.path.join(work, "setup0")
        command = [sys.executable, RUN, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--data-seed", str(args.data_seed),
                   "--run-seed", str(args.run_seed), "--child", directory]
        budget = RUN_DEADLINE_S - (time.perf_counter() - began)
        child = subprocess.run(command, stdout=sys.stderr, timeout=max(budget, 1.0))
        if child.returncode != 0:
            print(f"error: timed part exited with {child.returncode}", file=sys.stderr)
            return 2
        with open(os.path.join(directory, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        while len(runs) < SETUP_MIN_REPEATS or sum(t for t, _ in runs) < SETUP_MIN_SECONDS:
            runs += set_ups([len(runs)])
        same_setup = len({fingerprint for _, fingerprint in runs}) == 1

        details = [f"workload: {args.workload}, data seed {args.data_seed}, "
                   f"run seed {args.run_seed}"] + result["notes"]
        if not same_setup:
            details.append("CHECK FAILED: set-ups with the same seeds produced different "
                           "data or fixtures")
        kinds = {r["traced"] for r in result["rounds"]}
        if not kinds or (args.trace and kinds != {False, True}):
            emit(False, result["attempted"], result["failed"], {}, details)
            return 0
        if args.trace:
            metrics = per_layer(result, setup_tracer.table(), len(runs))
        else:
            metrics, more = end_to_end(result, [seconds for seconds, _ in runs])
            details += more
        emit(result["correct"] and same_setup, result["attempted"], result["failed"],
             metrics, details)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
