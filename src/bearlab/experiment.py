"""Experiment orchestration: dataset preparation, the training loop with
best-validation checkpointing, evaluation with pruning diagnostics, and the
multi-seed method comparison.

Everything derives from (config, seed): the model init seed and the epoch
shuffling stream are both spawned from the run seed, so a rerun reproduces
the loss curve, the checkpoint, and the report bytes (wall-clock timing
fields live in separate structures and files).
"""

import csv
import hashlib
import json
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import data as datamod
from .autodiff import ParameterStore
from .catalog import PrefixTrie, Vocabulary, build_catalog, load_catalog_csv
from .decode import (DecodeConfig, beam_search, classify_positive, exhaustive_rank,
                     prefix_thresholds, score_table, search)
from .errors import DivergenceError, ValidationError
from .metrics import (EvalResult, ExperimentReport, aggregate_report,
                      dump_report_csv)
from .model import ModelConfig, SequenceModel
from .objectives import (HyperParams, prefix_log_scores, prefix_objective_reference,
                         threshold_indices)

OBJECTIVES = ("sft", "bear", "prefix-ref")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: datamod.SyntheticConfig
    tokenization: str = "character"
    dataset_kind: str = "synthetic"           # or "csv"
    catalog_csv: str | None = None            # csv kind only
    interactions_csv: str | None = None
    embed_dim: int = 16
    hidden_dim: int = 16
    block: str = "causal-attention"
    blocks: int = 1
    max_context: int | None = None            # None: derived from the data
    hyper: HyperParams = field(default_factory=HyperParams)
    decode: DecodeConfig = field(default_factory=DecodeConfig)
    objective: str = "sft"
    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 0.3
    momentum: float = 0.0
    k_list: tuple = (5, 10)
    seeds: tuple = (0, 1, 2)
    out_dir: str = "out"
    methods: tuple = ()                       # compare: ((name, objective, hyper), ...)

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValidationError(f"objective must be one of {OBJECTIVES}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValidationError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be > 0")
        if not self.seeds:
            raise ValidationError("at least one seed is required")
        if self.dataset_kind not in ("synthetic", "csv"):
            raise ValidationError("dataset_kind must be 'synthetic' or 'csv'")
        if self.dataset_kind == "csv" and not (self.catalog_csv and self.interactions_csv):
            raise ValidationError("csv datasets need catalog_csv and interactions_csv")


def config_from_json(payload: dict) -> ExperimentConfig:
    dataset_payload = dict(payload.get("dataset", {}))
    kind = dataset_payload.pop("kind", "synthetic")
    tokenization = dataset_payload.pop("tokenization", "character")
    catalog_csv = dataset_payload.pop("catalog_csv", None)
    interactions_csv = dataset_payload.pop("interactions_csv", None)
    if "title_length" in dataset_payload:
        dataset_payload["title_length"] = tuple(dataset_payload["title_length"])
    model_payload = payload.get("model", {})
    methods = tuple(
        (m["name"], m.get("objective", m["name"]),
         HyperParams(**{**payload.get("hyper", {}), **m.get("hyper", {})}))
        for m in payload.get("methods", [])
    )
    return ExperimentConfig(
        dataset=datamod.SyntheticConfig(**dataset_payload),
        tokenization=tokenization,
        dataset_kind=kind,
        catalog_csv=catalog_csv,
        interactions_csv=interactions_csv,
        embed_dim=model_payload.get("embed_dim", 16),
        hidden_dim=model_payload.get("hidden_dim", 16),
        block=model_payload.get("block", "causal-attention"),
        blocks=model_payload.get("blocks", 1),
        max_context=model_payload.get("max_context"),
        hyper=HyperParams(**payload.get("hyper", {})),
        decode=DecodeConfig(**payload.get("decode", {})),
        objective=payload.get("objective", "sft"),
        epochs=payload.get("epochs", 10),
        batch_size=payload.get("batch_size", 32),
        learning_rate=payload.get("learning_rate", 0.3),
        momentum=payload.get("momentum", 0.0),
        k_list=tuple(payload.get("k_list", (5, 10))),
        seeds=tuple(payload.get("seeds", (0, 1, 2))),
        out_dir=payload.get("out_dir", "out"),
        methods=methods,
    )


def config_digest(config: ExperimentConfig) -> str:
    """Digest of everything that affects results (the output path does not)."""
    from dataclasses import asdict

    payload = asdict(config)
    payload.pop("out_dir")
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Dataset bundle
# ---------------------------------------------------------------------------


@dataclass
class DatasetBundle:
    vocab: Vocabulary
    items: list
    trie: PrefixTrie
    instances: list
    tokenization: str

    def split(self, name: str) -> list:
        if name not in datamod.SPLITS:
            raise ValidationError(f"unknown split {name!r}")
        return [inst for inst in self.instances if inst.split == name]

    def max_item_length(self) -> int:
        return self.trie.max_item_length()


def dataset_paths(out_dir: str) -> dict:
    return {
        "catalog": os.path.join(out_dir, "catalog.csv"),
        "interactions": os.path.join(out_dir, "interactions.csv"),
        "vocab": os.path.join(out_dir, "dataset", "vocab.json"),
        "instances": os.path.join(out_dir, "dataset", "instances.json"),
    }


def generate_data(config: ExperimentConfig, out_dir: str) -> dict:
    if config.dataset_kind != "synthetic":
        raise ValidationError("gen-data only applies to synthetic datasets")
    paths = dataset_paths(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    datamod.generate_synthetic(config.dataset, paths["catalog"], paths["interactions"])
    return paths


def prepare_dataset(config: ExperimentConfig, out_dir: str,
                    persist: bool = True) -> DatasetBundle:
    """Build vocabulary, trie, and split instances from the raw CSVs."""
    paths = dataset_paths(out_dir)
    if config.dataset_kind == "csv":
        catalog_path = config.catalog_csv
        log_path = config.interactions_csv
    else:
        catalog_path, log_path = paths["catalog"], paths["interactions"]
    if not os.path.exists(catalog_path) or not os.path.exists(log_path):
        raise ValidationError(
            f"dataset files missing under {out_dir}; run gen-data first "
            "(or point catalog_csv/interactions_csv at existing files)"
        )
    titles = load_catalog_csv(catalog_path)
    vocab, items, trie = build_catalog(titles, config.tokenization)
    log = datamod.InteractionLog(datamod.load_interactions_csv(log_path))
    filtered = datamod.five_core_filter(log)
    instances = datamod.make_instances(filtered, items)
    bundle = DatasetBundle(vocab=vocab, items=items, trie=trie,
                           instances=instances, tokenization=config.tokenization)
    if persist:
        os.makedirs(os.path.join(out_dir, "dataset"), exist_ok=True)
        with open(paths["vocab"], "w", encoding="utf-8") as fh:
            json.dump(vocab.to_json(), fh, sort_keys=True)
            fh.write("\n")
        datamod.save_instances(paths["instances"], instances)
    return bundle


def load_bundle(config: ExperimentConfig, out_dir: str) -> DatasetBundle:
    paths = dataset_paths(out_dir)
    if not os.path.exists(paths["instances"]):
        raise ValidationError(f"no prepared dataset under {out_dir}; run prepare first")
    catalog_path = (config.catalog_csv if config.dataset_kind == "csv"
                    else paths["catalog"])
    titles = load_catalog_csv(catalog_path)
    vocab, items, trie = build_catalog(titles, config.tokenization)
    with open(paths["vocab"], "r", encoding="utf-8") as fh:
        stored = Vocabulary.from_json(json.load(fh))
    if stored.tokens != vocab.tokens:
        raise ValidationError("prepared vocabulary does not match the catalog")
    instances = datamod.load_instances(paths["instances"])
    return DatasetBundle(vocab=vocab, items=items, trie=trie,
                         instances=instances, tokenization=config.tokenization)


def derive_model_config(config: ExperimentConfig, bundle: DatasetBundle,
                        seed: int) -> ModelConfig:
    max_context = config.max_context
    if max_context is None:
        max_context = datamod.required_context(bundle.instances,
                                               bundle.max_item_length())
    return ModelConfig(vocab_size=len(bundle.vocab), embed_dim=config.embed_dim,
                       hidden_dim=config.hidden_dim, block=config.block,
                       blocks=config.blocks, max_context=max_context, seed=seed)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    model_config: ModelConfig
    store: ParameterStore
    velocities: dict
    epoch: int
    history: list
    vocab_digest: str
    config_digest: str
    objective: str
    seed: int

    def model(self) -> SequenceModel:
        return SequenceModel(self.model_config, self.store)

    def best_val_ndcg(self) -> float:
        return self.history[self.epoch - 1]["val_ndcg10"]

    def save(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        meta = {"vocab_digest": self.vocab_digest, "config_digest": self.config_digest,
                "objective": self.objective, "seed": self.seed, "epoch": self.epoch}
        SequenceModel(self.model_config, self.store).save(directory, meta=meta)
        vel = ParameterStore()
        for name in self.store.names():
            vel.add(name, self.velocities[name])
        vel.save(os.path.join(directory, "optimizer.json"),
                 os.path.join(directory, "optimizer.bin"))
        with open(os.path.join(directory, "training_state.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"epoch": self.epoch, "history": self.history},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, directory: str) -> "Checkpoint":
        model, meta = SequenceModel.load(directory)
        vel_store = ParameterStore.load(os.path.join(directory, "optimizer.json"),
                                        os.path.join(directory, "optimizer.bin"))
        with open(os.path.join(directory, "training_state.json"), "r",
                  encoding="utf-8") as fh:
            state = json.load(fh)
        velocities = {name: vel_store.value(name) for name in vel_store.names()}
        return cls(model_config=model.config, store=model.store,
                   velocities=velocities, epoch=state["epoch"],
                   history=state["history"], vocab_digest=meta["vocab_digest"],
                   config_digest=meta["config_digest"],
                   objective=meta["objective"], seed=meta["seed"])


def _instance_masks(inst, bundle: DatasetBundle, hp: HyperParams, mask_cache: dict):
    if hp.threshold_support == "full-vocabulary":
        return np.ones((len(inst.target), len(bundle.vocab)), dtype=bool)
    masks = mask_cache.get(inst.positive_item)
    if masks is None:
        masks = bundle.trie.valid_mask_walk(inst.target, len(bundle.vocab))
        mask_cache[inst.positive_item] = masks
    return masks


def _batch_loss(model: SequenceModel, batch, objective: str, hp: HyperParams,
                decode_config: DecodeConfig, bundle: DatasetBundle,
                mask_cache: dict):
    """Mean loss node over one batch of TrainingInstances.

    The per-step rows of the whole batch are concatenated into one (sum(L), V)
    node so the margin arithmetic runs as a handful of vector records instead
    of a per-instance loop; per-instance sums come from one segment matmul.
    With lam == 0 the sft vector is used unchanged, so a zero-weight run
    builds exactly the sft graph.
    """
    tape = ad.Tape()
    nodes = model.batch_forward(tape, [(inst.prompt, inst.target) for inst in batch])
    lengths = [len(inst.target) for inst in batch]
    total_steps = sum(lengths)
    segments = np.zeros((len(batch), total_steps))
    offset = 0
    for row, length in enumerate(lengths):
        segments[row, offset:offset + length] = 1.0
        offset += length
    seg = tape.constant(segments)

    big = ad.concatenate(nodes, axis=0) if len(nodes) > 1 else nodes[0]
    targets_flat = np.concatenate([np.asarray(inst.target) for inst in batch])
    picked = ad.select_last_axis(big, targets_flat)
    step_logs = ad.logarithm(picked, clamp=True)
    col = ad.reshape(step_logs, (total_steps, 1))
    sft_vec = ad.multiply(ad.reshape(ad.matmul(seg, col), (len(batch),)),
                          tape.constant(-1.0))

    if objective == "sft" or (objective == "bear" and hp.lam == 0.0):
        total_vec = sft_vec
    elif objective == "bear":
        masks_flat = np.concatenate(
            [_instance_masks(inst, bundle, hp, mask_cache) for inst in batch], axis=0)
        idx = threshold_indices(big.value, hp.beam_width, masks_flat)
        if hp.threshold_gradient == "flow":
            log_beta = ad.logarithm(ad.select_last_axis(big, idx), clamp=True)
        else:
            rows = np.arange(total_steps)
            log_beta = tape.constant(
                np.log(np.maximum(big.value[rows, idx], ad.PROB_FLOOR)))
        margin = ad.add(log_beta, ad.multiply(step_logs, tape.constant(-1.0)))
        terms = ad.log_sigmoid(ad.multiply(margin, tape.constant(1.0 / hp.xi)))
        reg_vec = ad.reshape(ad.matmul(seg, ad.reshape(terms, (total_steps, 1))),
                             (len(batch),))
        total_vec = ad.add(sft_vec, ad.multiply(reg_vec, tape.constant(hp.lam)))
    else:  # prefix-ref: one lockstep simulation for the batch, then frozen thresholds
        sim_config = replace(decode_config, beam_width=hp.beam_width)
        found = search(model, [inst.prompt for inst in batch], bundle.trie, sim_config)
        thresholds = prefix_thresholds(
            found, bundle.trie, [inst.target for inst in batch],
            [prefix_log_scores(node.value, inst.target) for inst, node in zip(batch, nodes)],
            hp.beam_width)
        regs = []
        for inst, node, frozen in zip(batch, nodes, thresholds):
            reg, _ = prefix_objective_reference(tape, model, inst.prompt,
                                                inst.target, hp, bundle.trie,
                                                sim_config, frozen_thresholds=frozen,
                                                dists=node)
            regs.append(ad.reshape(reg, (1,)))
        reg_vec = ad.concatenate(regs, axis=0) if len(regs) > 1 else regs[0]
        total_vec = ad.add(sft_vec, ad.multiply(reg_vec, tape.constant(hp.lam)))

    loss = ad.multiply(ad.reduce_sum(total_vec), tape.constant(1.0 / len(batch)))
    return loss, tape


def validation_ndcg10(model: SequenceModel, bundle: DatasetBundle,
                      decode_config: DecodeConfig, instances) -> float:
    """Mean NDCG@10 over instances (one lockstep search), finals ranked by raw log prob."""
    if not instances:
        raise ValidationError("validation split is empty")
    found = search(model, [inst.prompt for inst in instances], bundle.trie, decode_config)
    total = 0.0
    for inst, (finals, _) in zip(instances, found.results):
        for rank, hyp in enumerate(finals[:10], start=1):
            if hyp.item_id == inst.positive_item:
                total += 1.0 / np.log2(rank + 1)
                break
    return total / len(instances)


def train(config: ExperimentConfig, bundle: DatasetBundle, seed: int,
          objective: str | None = None, hyper: HyperParams | None = None):
    """Gradient descent over the train split; returns (best-validation
    Checkpoint, timing dict). Timing stays out of the checkpoint so reruns
    are byte-identical."""
    objective = objective or config.objective
    hyper = hyper or config.hyper
    if objective not in OBJECTIVES:
        raise ValidationError(f"objective must be one of {OBJECTIVES}")
    train_split = bundle.split("train")
    val_split = bundle.split("val")
    if not train_split:
        raise ValidationError("train split is empty")

    seed_seq = np.random.SeedSequence(seed)
    init_seed, shuffle_seed = (int(s) for s in seed_seq.generate_state(2))
    model_config = derive_model_config(config, bundle, init_seed)
    model = SequenceModel(model_config)
    shuffle_rng = np.random.default_rng(shuffle_seed)

    velocities = {name: np.zeros_like(model.store.value(name))
                  for name in model.store.names()}
    mask_cache: dict = {}
    digest = config_digest(config)
    vocab_digest = bundle.vocab.digest()

    history = []
    best = None
    epoch_train_seconds = []
    epoch_val_seconds = []
    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(len(train_split))
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(order), config.batch_size):
            batch = [train_split[i] for i in order[start:start + config.batch_size]]
            loss, tape = _batch_loss(model, batch, objective, hyper,
                                     config.decode, bundle, mask_cache)
            value = loss.value.item()
            if not np.isfinite(value):
                raise DivergenceError(epoch, n_batches, value)
            model.store.zero_grads()
            ad.backward(loss)
            for name in model.store.names():
                v = velocities[name]
                v *= config.momentum
                v += model.store.grad(name)
                model.store.value(name)[...] -= config.learning_rate * v
            epoch_loss += value
            n_batches += 1
        train_seconds = time.perf_counter() - t0
        t1 = time.perf_counter()
        val_ndcg = validation_ndcg10(model, bundle, config.decode, val_split)
        epoch_val_seconds.append(time.perf_counter() - t1)
        epoch_train_seconds.append(train_seconds)
        history.append({"epoch": epoch, "train_loss": epoch_loss / max(1, n_batches),
                        "val_ndcg10": val_ndcg})
        if best is None or val_ndcg > best[0]:
            best = (val_ndcg, epoch, model.store.copy(),
                    {n: v.copy() for n, v in velocities.items()})

    _, best_epoch, best_store, best_vel = best
    checkpoint = Checkpoint(model_config=model_config, store=best_store,
                            velocities=best_vel, epoch=best_epoch,
                            history=history, vocab_digest=vocab_digest,
                            config_digest=digest, objective=objective, seed=seed)
    timing = {
        "epoch_train_seconds": epoch_train_seconds,
        "epoch_val_seconds": epoch_val_seconds,
        "epoch_train_seconds_mean": float(np.mean(epoch_train_seconds)),
    }
    return checkpoint, timing


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _eval_one(model, bundle, decode_config, digest, inst) -> EvalResult:
    # one score table shared by the beam and the oracle; constrained beam
    # prefixes are a subset of the trie nodes the oracle scores anyway
    table = score_table(model, inst.prompt, bundle.trie)
    finals, trace = beam_search(model, inst.prompt, bundle.trie, decode_config,
                                table=table)
    ranking = exhaustive_rank(model, inst.prompt, bundle.items, table)
    ex_rank = next(i for i, (item_id, _) in enumerate(ranking, start=1)
                   if item_id == inst.positive_item)
    beam_rank = None
    for rank, hyp in enumerate(finals, start=1):
        if hyp.item_id == inst.positive_item:
            beam_rank = rank
            break
    positive_tokens = bundle.items[inst.positive_item].token_ids
    cause, step = classify_positive(trace, positive_tokens, bundle.trie)
    return EvalResult(user_id=inst.user_id, positive_item=inst.positive_item,
                      exhaustive_rank=ex_rank, beam_rank=beam_rank, cause=cause,
                      pruned_step=step, model_digest=digest)


def evaluate(checkpoint: Checkpoint, bundle: DatasetBundle, split: str,
             k_list, decode_config: DecodeConfig, method: str = "") -> ExperimentReport:
    """Per-instance beam search + exhaustive oracle + cause classification,
    aggregated in instance order. Instances run one at a time, so only one
    score table is alive at once."""
    if checkpoint.vocab_digest != bundle.vocab.digest():
        raise ValidationError("checkpoint vocabulary digest does not match the catalog")
    instances = bundle.split(split)
    if not instances:
        raise ValidationError(f"split {split!r} is empty")
    model = checkpoint.model()
    digest = model.digest()
    t0 = time.perf_counter()
    results = [_eval_one(model, bundle, decode_config, digest, inst)
               for inst in instances]
    report = aggregate_report(results, k_list, method=method or checkpoint.objective,
                              seed=checkpoint.seed,
                              config_digest=checkpoint.config_digest)
    report.timing["eval_seconds"] = time.perf_counter() - t0
    return report


def diagnose_user(checkpoint: Checkpoint, bundle: DatasetBundle, user_id: int,
                  decode_config: DecodeConfig, split: str = "test"):
    """Beam trace for one user's instance, for the diagnose CLI command."""
    candidates = [i for i in bundle.split(split) if i.user_id == user_id]
    if not candidates:
        raise ValidationError(f"user {user_id} has no instance in split {split!r}")
    inst = candidates[0]
    model = checkpoint.model()
    _, trace = beam_search(model, inst.prompt, bundle.trie, decode_config)
    return trace, inst


# ---------------------------------------------------------------------------
# Comparison workflow
# ---------------------------------------------------------------------------

COMPARE_FIELDS = ["method", "seed", "K", "ndcg", "hr", "pr", "prop", "epoch_time_s"]


def run_single(config: ExperimentConfig, bundle: DatasetBundle, method: str,
               objective: str, hyper: HyperParams, seed: int,
               run_dir: str | None = None):
    checkpoint, timing = train(config, bundle, seed, objective=objective,
                               hyper=hyper)
    report = evaluate(checkpoint, bundle, "test", config.k_list, config.decode,
                      method=method)
    report.timing.update(timing)
    report.extras["best_epoch"] = checkpoint.epoch
    report.extras["best_val_ndcg10"] = checkpoint.best_val_ndcg()
    if run_dir is not None:
        os.makedirs(run_dir, exist_ok=True)
        checkpoint.save(os.path.join(run_dir, "checkpoint"))
        with open(os.path.join(run_dir, "timings.json"), "w", encoding="utf-8") as fh:
            json.dump(timing, fh, indent=1, sort_keys=True)
            fh.write("\n")
        report.dump_json(os.path.join(run_dir, "report.json"))
        dump_report_csv(os.path.join(run_dir, "report.csv"), [report])
    return checkpoint, report


def compare(config: ExperimentConfig, bundle: DatasetBundle,
            out_dir: str | None = None):
    """Train and evaluate every configured method across every seed; returns
    (reports keyed by (method, seed), summary rows). Methods share the
    dataset and decode settings by construction."""
    methods = config.methods or ((config.objective, config.objective, config.hyper),)
    reports = {}
    for method, objective, hyper in methods:
        for seed in config.seeds:
            run_dir = (os.path.join(out_dir, "runs", f"{method}-seed{seed}")
                       if out_dir else None)
            _, report = run_single(config, bundle, method, objective, hyper,
                                   seed, run_dir)
            reports[(method, seed)] = report

    rows = []
    for method, objective, hyper in methods:
        per_seed = [reports[(method, seed)] for seed in config.seeds]
        for report in per_seed:
            rows.extend(report.csv_rows())
        for k in sorted(config.k_list):
            ndcg = [r.ndcg[k] for r in per_seed]
            hr = [r.hit_ratio[k] for r in per_seed]
            pr = [r.pruning_rate[k] for r in per_seed if r.pruning_rate[k] is not None]
            prop = [r.violation_prop[k] for r in per_seed
                    if r.violation_prop[k] is not None]
            times = [r.timing.get("epoch_train_seconds_mean") for r in per_seed]
            for stat, fn in (("mean", np.mean), ("std", np.std)):
                rows.append({
                    "method": method, "seed": stat, "K": k,
                    "ndcg": repr(float(fn(ndcg))),
                    "hr": repr(float(fn(hr))),
                    "pr": repr(float(fn(pr))) if pr else "",
                    "prop": repr(float(fn(prop))) if prop else "",
                    "epoch_time_s": repr(float(fn(times))),
                })

    if out_dir is not None:
        os.makedirs(os.path.join(out_dir, "compare"), exist_ok=True)
        csv_path = os.path.join(out_dir, "compare", "comparison.csv")
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=COMPARE_FIELDS)
            writer.writeheader()
            writer.writerows(rows)
        json_path = os.path.join(out_dir, "compare", "comparison.json")
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump({"rows": rows,
                       "reports": {f"{m}-seed{s}": r.to_json()
                                   for (m, s), r in reports.items()}},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    return reports, rows
