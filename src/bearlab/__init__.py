"""bearlab: a desk-scale lab for beam-search-aware fine-tuning of tiny
autoregressive item recommenders.

Train next-item models under plain likelihood (sft), a beam-search-aware
regularized objective (bear), or a prefix-level reference objective
(prefix-ref); decode with trie-constrained beam search; and measure how often
beam search prunes positive items that rank highly by overall probability.
"""

from .autodiff import ParameterStore, Tape, backward, grad_check
from .catalog import PrefixTrie, Vocabulary, build_catalog
from .data import SyntheticConfig, generate_synthetic, make_instances
from .decode import (BeamTrace, DecodeConfig, Hypothesis, PruningCause,
                     beam_search, classify_positive, exhaustive_rank)
from .experiment import (Checkpoint, DatasetBundle, ExperimentConfig, compare,
                         evaluate, prepare_dataset, train)
from .metrics import (EvalResult, ExperimentReport, aggregate_report,
                      hit_ratio_at_k, ndcg_at_k, pruning_rate_at_k,
                      violation_proportion)
from .model import ModelConfig, SequenceModel
from .objectives import (HyperParams, LossBreakdown, bear_loss,
                         beam_aware_regularizer, dpo_style_regularizer,
                         necessary_condition, prefix_objective_reference,
                         sft_loss)

__version__ = "0.1.0"

__all__ = [
    "ParameterStore", "Tape", "backward", "grad_check",
    "PrefixTrie", "Vocabulary", "build_catalog",
    "SyntheticConfig", "generate_synthetic", "make_instances",
    "BeamTrace", "DecodeConfig", "Hypothesis", "PruningCause",
    "beam_search", "classify_positive", "exhaustive_rank",
    "Checkpoint", "DatasetBundle", "ExperimentConfig", "compare",
    "evaluate", "prepare_dataset", "train",
    "EvalResult", "ExperimentReport", "aggregate_report",
    "hit_ratio_at_k", "ndcg_at_k", "pruning_rate_at_k", "violation_proportion",
    "ModelConfig", "SequenceModel",
    "HyperParams", "LossBreakdown", "bear_loss", "beam_aware_regularizer",
    "dpo_style_regularizer", "necessary_condition",
    "prefix_objective_reference", "sft_loss",
]
