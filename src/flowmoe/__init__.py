"""flowmoe: multi-gate mixture-of-experts traffic classification.

Per-task transformer experts over flow features (payload bytes + packet
headers), fused under fixed (one-hot or uniform) or trainable gates with
per-task tower heads, plus convergence and gate-anomaly diagnostics.
"""

__version__ = "0.1.0"

from .data import LabeledDataset, build_dataset, load_labels_csv, write_labels_csv
from .diagnostics import (AnomalyReport, ConvergenceReport, LossTrace,
                          check_convergence, detect_gate_anomaly,
                          estimate_lipschitz, run_tower_gd)
from .evaluation import Metrics, compute_metrics, evaluate, split_dataset
from .expert import (ExpertModel, TrainConfig, expert_predict,
                     expert_representation, load_expert, save_expert,
                     train_expert)
from .fusion import (FusedModel, FusionMode, GateConfig, TaskRelation,
                     TaskSpec, classify, classify_batch,
                     concat_representations, configure_fusion,
                     default_finetune_config, fine_tune, gate_output,
                     load_fused, save_fused, tower_forward)
from .ingest import (ExtractionConfig, Flow, FlowKey, Packet, assemble_flows,
                     extract_features, flows_to_features, read_flow_records,
                     read_pcap, write_flow_records)
from .synth import ClassProfile, GeneratorSpec, generate_dataset

__all__ = [
    "LabeledDataset", "build_dataset", "load_labels_csv", "write_labels_csv",
    "AnomalyReport", "ConvergenceReport", "LossTrace", "check_convergence",
    "detect_gate_anomaly", "estimate_lipschitz", "run_tower_gd", "Metrics",
    "compute_metrics", "evaluate", "split_dataset", "ExpertModel",
    "TrainConfig", "expert_predict", "expert_representation", "load_expert",
    "save_expert", "train_expert", "FusedModel", "FusionMode", "GateConfig",
    "TaskRelation", "TaskSpec", "classify",
    "classify_batch", "concat_representations", "configure_fusion",
    "default_finetune_config", "fine_tune", "gate_output",
    "load_fused", "save_fused", "tower_forward", "ExtractionConfig",
    "Flow", "FlowKey", "Packet", "assemble_flows",
    "extract_features", "flows_to_features", "read_flow_records", "read_pcap",
    "write_flow_records", "ClassProfile", "GeneratorSpec", "generate_dataset",
    "__version__",
]
