"""Gated fusion of frozen experts: gates, towers, fine-tuning, inference.

A fused model holds n frozen experts, one gate and one tower per task, and
the task relations that configured them. Gates are per-task mixing vectors
over expert representations: fixed and uniform over a subset, or, for a
gate holding a linear, an input-conditioned softmax. Towers are fresh
two-layer heads [912 -> 256 -> classes]; only towers and trainable gates
learn during fine-tuning, under one alpha-weighted multi-task loss.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass

import numpy as np

from . import serial
from .data import BOOLEAN, SEED, Key, LabeledDataset, read_ini
from .expert import (ExpertModel, TrainConfig, expert_from_container,
                     expert_representation, params_from_container,
                     reject_unexpected, run_epochs)
# backward is unused here; perfbench's tracer wraps fusion.backward
from .nn import (INPUT_DIM, DropoutStream, ParamSet, Tensor, backward,
                 cross_entropy, encoder_forward, encoder_shapes,
                 gate_linear_shapes, gate_mix, head_forward, head_shapes,
                 init_gate_linear, init_head, seed_streams,
                 softmax_rows, stack_encoders)


# Rows per `gated_chunks` chunk, in which classification, the fine-tune
# pre-mix and tower GD form their gated inputs. On a 2-vCPU Xeon with 1 BLAS
# thread, 480 flows through a two-expert model in 256-row chunks classified
# as fast as in one pass; 128-row chunks cost 6%, 32-row 10%.
CLASSIFY_ROWS = 256
# A (912, 256) tower product of 1 to 4 rows takes numpy's matrix-vector
# path, whose rows differ in the last bits from a larger call's; a tail
# chunk shorter than this joins the previous chunk instead.
MIN_TOWER_ROWS = 5


class FusionMode(enum.Enum):
    MODE_I = "I"           # attribute-independent tasks
    MODE_II = "II"         # category expansion (label union)
    MODE_III = "III"       # category refinement (coarse -> fine)


@dataclass
class GateConfig:
    task_id: str
    subset: tuple               # expert indices S
    n_experts: int
    linear: ParamSet = None     # trainable; None: fixed, uniform over S

    def __post_init__(self):
        self.subset = tuple(int(j) for j in self.subset)
        if not self.subset:
            raise ValueError(f"gate {self.task_id!r}: empty expert subset")
        if any(j < 0 or j >= self.n_experts for j in self.subset):
            raise ValueError(f"gate {self.task_id!r}: subset out of range")
        if len(set(self.subset)) != len(self.subset):
            raise ValueError(f"gate {self.task_id!r}: subset {self.subset} "
                             f"names an expert twice")

    @classmethod
    def trainable(cls, task_id, subset, n_experts):
        return cls(task_id, subset, n_experts, init_gate_linear(len(subset)))


def gate_output(gate: GateConfig, stacked, x=None):
    """Gated input Tensor from `stacked` (n, 912) or (n, B, 912) expert rows.

    Every gate is one `gate_mix` node over its subset's rows, a new array,
    weighing each row 1/|S| (a one-expert gate gives its row bit for bit) or,
    for a trainable gate, by the softmax of its linear over the input Tensor
    `x`. Raises ValueError on a wrong row count or non-finite weights.
    """
    if stacked.shape[0] != gate.n_experts:
        raise ValueError(f"expected {gate.n_experts} expert rows, "
                         f"got {stacked.shape[0]}")
    if gate.linear is None:
        fixed, linear = np.full(len(gate.subset), 1.0 / len(gate.subset)), None
    else:
        fixed, linear = None, (gate.linear["w"], gate.linear["b"])
    try:
        return gate_mix(stacked, gate.subset, fixed, x, linear)
    except ValueError as exc:
        raise ValueError(f"gate {gate.task_id!r}: {exc}") from None


def tower_forward(model, gated, labels=None, dropout_stream=None,
                  dropout_rate=0.0):
    """Each task's tower on its gated input (`gated`: task -> (912,) or
    (B, 912) Tensor or array), in train mode given a `dropout_stream`.

    Returns (logits, losses, total): per-task logits and, given `labels`
    (task -> class indices), per-task cross-entropies and their sum weighted
    by the model's loss weights, added in `gated` order; else ({}, None)."""
    logits, losses, total = {}, {}, None
    for task, x in gated.items():
        logits[task] = head_forward(model.towers[task], x,
                                    train_mode=dropout_stream is not None,
                                    dropout_stream=dropout_stream,
                                    dropout_rate=dropout_rate)
        if labels is None:
            continue
        losses[task] = cross_entropy(logits[task], labels[task])
        weighted = losses[task] * model.loss_weights[task]
        total = weighted if total is None else total + weighted
    return logits, losses, total


@dataclass
class TaskSpec:
    task_id: str
    experts: tuple = ()          # expert indices backing this task's gate
    labels: list = None          # default: taken from the bound expert(s)
    alpha: float = 1.0


@dataclass
class TaskRelation:
    mode: FusionMode
    tasks: list
    nesting: dict = None         # ModeIII: fine label -> coarse label

    def __post_init__(self):
        if self.mode is FusionMode.MODE_II and len(self.tasks) != 1:
            raise ValueError("category expansion fuses into exactly one task")
        if self.mode is FusionMode.MODE_III:
            if len(self.tasks) != 2:
                raise ValueError("category refinement needs (coarse, fine) tasks")
            if not self.nesting:
                raise ValueError("category refinement needs a nesting map")


@dataclass
class FusedModel:
    """Frozen experts, one gate and one tower (head ParamSet) per task, and
    the relations (with every task's resolved labels) from which
    `fusion_structure` derived task order, gates, label maps, loss weights.

    `encoder` is the only copy of the experts' encoder weights, stacked
    (`nn.stack_encoders`); `experts` holds each expert's id, task id and
    label map, with neither encoder nor head.
    """

    experts: list
    task_ids: list
    gates: dict
    towers: dict
    relations: list
    label_maps: dict
    loss_weights: dict
    encoder: ParamSet


def concat_representations(model: FusedModel, x):
    """(n,) + x.shape expert representations, row j = expert j's encoder
    output, from one stacked encoder pass over all n experts.

    The pass runs in blocks of EVAL_ROWS // n rows, so a block holds as
    many row-encodings as one expert's block.
    """
    return expert_representation(model, x)


def gated_chunks(model: FusedModel, X, tasks, cache=None):
    """Yield (row slice, {task: gated input Tensor}) per chunk of
    CLASSIFY_ROWS rows of the (N, 912) X; a tail under MIN_TOWER_ROWS rows
    joins the previous chunk. A chunk is one stacked `concat_representations`
    pass, copied into `cache` ((E, N, 912)) if given, then `gate_output` per
    task, each a new array. It is let go before the next pass, so a consumer
    that drops `gated` after each step holds one.
    """
    bounds = list(range(0, len(X), CLASSIFY_ROWS)) + [len(X)]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] < MIN_TOWER_ROWS:
        del bounds[-2]
    for start, stop in zip(bounds, bounds[1:]):
        rows = slice(start, stop)
        stacked = Tensor(concat_representations(model, X[rows]))
        if cache is not None:
            cache[:, rows] = stacked.data
        gated = {task: gate_output(model.gates[task], stacked,
                                   Tensor(X[rows])) for task in tasks}
        stacked = None
        yield rows, gated
        gated = None


def gated_inputs(model: FusedModel, X, tasks, cache=None):
    """{task: (N, 912) gated input array} for `tasks` over the rows X, filled
    chunk by chunk from `gated_chunks(model, X, tasks, cache)`."""
    out = {task: np.empty((X.shape[0], INPUT_DIM)) for task in tasks}
    for rows, gated in gated_chunks(model, X, tasks, cache):
        for task, tensor in gated.items():
            out[task][rows] = tensor.data
        gated = tensor = None        # let the chunk go before the next pass
    return out


def _union_labels(experts, subset, explicit):
    ordered = []
    for j in subset:
        for name in experts[j].label_map:
            if name not in ordered:
                ordered.append(name)
    if explicit is None:
        return ordered
    explicit = list(explicit)
    missing = [n for n in ordered if n not in explicit]
    if missing:
        raise ValueError(f"inconsistent union map: source labels {missing} "
                         f"missing from the declared union")
    return explicit


def fusion_structure(experts, relations) -> FusedModel:
    """The tower-less FusedModel the relations declare, over a stacked copy
    of the experts' encoders; it keeps no expert heads.

    Mode I: one fixed gate per task, bound to its expert.
    Mode II: one uniform fixed gate over the sources; labels are their union.
    Mode III: trainable gates for both coarse and fine tasks.
    The model's relations carry every task's resolved labels, so a saved
    model is rebuilt through this same step. Its `towers` is empty.
    """
    if not experts:
        raise ValueError("no experts given")
    if isinstance(relations, TaskRelation):
        relations = [relations]
    n = len(experts)
    gates, label_maps, loss_weights = {}, {}, {}

    for relation in relations:
        for spec in relation.tasks:
            task, subset = spec.task_id, tuple(spec.experts)
            if task in gates:
                raise ValueError(f"duplicate task {task!r}")
            if not np.isfinite(spec.alpha):
                raise ValueError(f"task {task!r}: non-finite loss weight")
            if spec.alpha < 0:
                raise ValueError(f"task {task!r}: negative loss weight "
                                 f"{spec.alpha}")
            # the gate checks the subset before any expert is looked up
            if relation.mode is FusionMode.MODE_I:
                if len(subset) != 1:
                    raise ValueError(f"task {task!r}: independent tasks "
                                     f"bind to exactly one expert")
                gates[task] = GateConfig(task, subset, n)
                labels = list(spec.labels or experts[subset[0]].label_map)
            elif relation.mode is FusionMode.MODE_II:
                if len(subset) < 2:
                    raise ValueError(f"task {task!r}: category expansion "
                                     f"needs at least two source experts")
                gates[task] = GateConfig(task, subset, n)
                labels = _union_labels(experts, subset, spec.labels)
            else:
                gates[task] = GateConfig.trainable(
                    task, subset or tuple(range(n)), n)
                labels = list(spec.labels) if spec.labels else None
            label_maps[task] = labels
            loss_weights[task] = spec.alpha

        if relation.mode is FusionMode.MODE_III:
            first, fine = relation.tasks[0], relation.tasks[1].task_id
            coarse = first.task_id
            if label_maps[coarse] is None and first.experts:
                label_maps[coarse] = list(experts[first.experts[0]].label_map)
            if label_maps[coarse] is None:
                raise ValueError(f"task {coarse!r}: no label map available")
            if label_maps[fine] is None:
                label_maps[fine] = list(relation.nesting)
            _check_nesting(label_maps[coarse], label_maps[fine], relation.nesting)
    if not gates:
        raise ValueError("no tasks declared")
    for task, labels in label_maps.items():
        if len(set(labels)) != len(labels):
            raise ValueError(f"task {task!r}: label map {labels} names a "
                             f"label twice")

    resolved = [dataclasses.replace(rel, tasks=[
        dataclasses.replace(spec, labels=list(label_maps[spec.task_id]))
        for spec in rel.tasks]) for rel in relations]
    return FusedModel(
        experts=[ExpertModel(id=e.id, encoder=None, head=None,
                             label_map=list(e.label_map), task_id=e.task_id)
                 for e in experts],
        task_ids=list(gates), gates=gates, towers={}, relations=resolved,
        label_maps=label_maps, loss_weights=loss_weights,
        encoder=stack_encoders([e.encoder for e in experts]))


def configure_fusion(experts, relations, seed=0) -> FusedModel:
    """`fusion_structure` plus fresh towers: one per task, sized to its label
    map, with a zeroed output layer so each starts at the uniform prediction.
    """
    model = fusion_structure(experts, relations)
    tower_seeds = seed_streams(seed, len(model.task_ids))
    for task, tower_seed in zip(model.task_ids, tower_seeds):
        rng = np.random.default_rng(tower_seed)
        model.towers[task] = init_head(rng, len(model.label_maps[task]),
                                       zero_output=True)
    return model


def _check_nesting(coarse_labels, fine_labels, nesting):
    missing = [f for f in fine_labels if f not in nesting]
    bad_parent = [f for f, c in nesting.items() if c not in coarse_labels]
    if missing or bad_parent:
        raise ValueError(
            "non-nested label maps: "
            + (f"fine labels {missing} have no coarse parent; " if missing else "")
            + (f"parents of {bad_parent} are not coarse labels" if bad_parent else ""))


def default_finetune_config(mode: FusionMode, **overrides) -> TrainConfig:
    """Scenario fine-tune defaults (batch 128, seed 0; lr 1e-4 in Mode I,
    else 1e-3), each replaced by a TrainConfig override that is not None."""
    mode_i = mode is FusionMode.MODE_I
    fields = dict(learning_rate=1e-4 if mode_i else 1e-3, batch_size=128,
                  epochs=5 if mode_i else 10, dropout_rate=0.0, seed=0)
    fields.update((k, v) for k, v in overrides.items() if v is not None)
    return TrainConfig(**fields)


def fine_tune(model: FusedModel, data: LabeledDataset, cfg: TrainConfig = None,
              unfreeze_experts=False):
    """Fine-tune towers and trainable gates, and with `unfreeze_experts`
    the model's stacked copy of the experts' encoders too.

    The per-batch loss is the alpha-weighted sum of one cross-entropy per
    task; gradients for task k touch only tower k (and the shared gates /
    experts when trainable). Frozen experts' representations are constant:
    each fixed gate's (N, 912) input is formed once by `gated_inputs`, in
    whose pass the (E, N, 912) representations are cached only for
    trainable gates, which mix per batch. The batches run in `run_epochs`
    over the sets they update. Returns (model, per-epoch rows {"epoch",
    "total", <task>...: mean loss}).
    """
    if cfg is None:
        cfg = default_finetune_config(model.relations[0].mode)
    missing = [t for t in model.task_ids if t not in data.labels]
    if missing:
        raise ValueError(f"dataset lacks labels for task(s) {missing}")
    for task in model.task_ids:
        if list(data.label_maps[task]) != list(model.label_maps[task]):
            raise ValueError(f"task {task!r}: dataset label map does not match "
                             f"the fused model's")

    shuffle_seed, drop_seed = seed_streams(cfg.seed, 2)
    stream = DropoutStream(drop_seed)

    named_sets = {f"tower.{t}": tower for t, tower in model.towers.items()}
    named_sets.update({f"gate.{t}": g.linear for t, g in model.gates.items()
                       if g.linear is not None})
    if unfreeze_experts:
        named_sets["experts"] = model.encoder

    feats = data.features
    m = feats.shape[0]
    premixed, cached = {}, None
    if not unfreeze_experts:
        fixed = [t for t, g in model.gates.items() if g.linear is None]
        if len(fixed) < len(model.gates):
            cached = np.empty((len(model.experts), m, INPUT_DIM))
        premixed = gated_inputs(model, feats, fixed, cached)

    def step(idx):
        x = Tensor(feats[idx])
        if unfreeze_experts:
            reps = encoder_forward(model.encoder, x.data)
        elif cached is not None:
            reps = Tensor(cached[:, idx])
        gated = {task: premixed[task][idx] if task in premixed
                 else gate_output(model.gates[task], reps, x)
                 for task in model.task_ids}
        _logits, losses, total = tower_forward(
            model, gated, {t: data.labels[t][idx] for t in gated},
            dropout_stream=stream, dropout_rate=cfg.dropout_rate)
        return {"total": total} | losses

    return model, list(run_epochs(named_sets, cfg, m, shuffle_seed, step))


@dataclass
class TaskPrediction:
    label_index: int
    label: str
    confidences: np.ndarray


def classify_batch(model: FusedModel, X):
    """Per task, (label indices, class probabilities) for the rows of X.

    Rows go through in `gated_chunks`: per chunk, one stacked pass over all
    experts, the gates (each a new gated array), one `tower_forward` over
    all towers, softmax and argmax, written into arrays allocated once, so
    the transient memory does not grow with the row count.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != INPUT_DIM:
        raise ValueError(f"expected input of length {INPUT_DIM}, "
                         f"got {X.shape[1]}")
    out = {task: (np.empty(X.shape[0], dtype=np.intp),
                  np.empty((X.shape[0], len(model.label_maps[task]))))
           for task in model.task_ids}
    for rows, gated in gated_chunks(model, X, model.task_ids):
        for task, logits in tower_forward(model, gated)[0].items():
            indices, probs = out[task]
            probs[rows] = softmax_rows(logits.data)
            np.argmax(probs[rows], axis=1, out=indices[rows])
        gated = logits = None        # let the chunk go before the next pass
    return out


def classify(model: FusedModel, x):
    """Per-task attribute values for one flow of shape (912,) or (1, 912);
    ties break to the lowest index."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape not in ((INPUT_DIM,), (1, INPUT_DIM)):
        raise ValueError(f"classify takes one flow of shape ({INPUT_DIM},) "
                         f"or (1, {INPUT_DIM}), got {x.shape}; use "
                         f"classify_batch for several flows")
    batch = classify_batch(model, x)
    result = {}
    for task, (indices, probs) in batch.items():
        idx = int(indices[0])
        result[task] = TaskPrediction(label_index=idx,
                                      label=model.label_maps[task][idx],
                                      confidences=probs[0])
    return result


# -- persistence -------------------------------------------------------------

def save_fused(model: FusedModel, path):
    """Header: the relations and each expert's id and label map. Tensors:
    expert encoders (stack slices), trainable-gate linears and towers."""
    header = {
        "kind": "fused",
        "relations": [{"mode": rel.mode.value, "nesting": rel.nesting,
                       "tasks": [{"task_id": t.task_id,
                                  "experts": list(t.experts),
                                  "labels": t.labels, "alpha": t.alpha}
                                 for t in rel.tasks]}
                      for rel in model.relations],
        "experts": [{"id": e.id, "label_map": list(e.label_map)}
                    for e in model.experts],
    }
    shapes = encoder_shapes()
    tensors = [(f"expert{i}.encoder.{n}", t.data[i].reshape(shapes[n]))
               for i in range(len(model.experts))
               for n, t in model.encoder.items()]
    for task, gate in model.gates.items():
        if gate.linear is not None:
            tensors += [(f"gate.{task}.{n}", t.data) for n, t in gate.linear.items()]
    for task, tower in model.towers.items():
        tensors += [(f"tower.{task}.{n}", t.data) for n, t in tower.items()]
    serial.save_container(path, serial.MODEL_MAGIC, header, tensors)


def load_fused(path) -> FusedModel:
    header, tensors = serial.load_container(path, serial.MODEL_MAGIC)
    return fused_from_container(path, header, tensors)


def fused_from_container(path, header, tensors) -> FusedModel:
    """Build a fused model from a parsed model container read from `path`:
    the stored experts and the header's relations go through
    `fusion_structure`, then the stored tensors fill in the trainable gates
    and towers. Every error is a ValueError naming the file."""
    if header.get("kind") != "fused":
        raise ValueError(f"{path}: not a fused model file "
                         f"(kind={header.get('kind')!r})")

    def get(meta, key, kind=str):
        return serial.header_field(path, meta, key, kind)

    tensors = dict(tensors)
    experts = []
    for i, meta in enumerate(get(header, "experts", list)):
        experts.append(ExpertModel(
            id=get(meta, "id"), head=None,
            encoder=params_from_container(path, tensors, f"expert{i}.encoder.",
                                          encoder_shapes()),
            label_map=serial.label_list(path, meta, "label_map")))
    relations = []
    for rel in get(header, "relations", list):
        tasks = []
        for t in get(rel, "tasks", list):
            task, subset = get(t, "task_id"), get(t, "experts", list)
            if not all(type(j) is int for j in subset):
                raise ValueError(f"{path}: task {task!r}: subset holds a "
                                 f"non-integer expert index")
            tasks.append(TaskSpec(task, tuple(subset),
                                  serial.label_list(path, t, "labels"),
                                  get(t, "alpha", (int, float))))
        relations.append((get(rel, "mode"), tasks,
                          get(rel, "nesting", (dict, type(None)))))
    try:
        model = fusion_structure(experts, [
            TaskRelation(FusionMode(mode), tasks, nesting)
            for mode, tasks, nesting in relations])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

    for task, gate in model.gates.items():
        if gate.linear is not None:
            gate.linear = params_from_container(
                path, tensors, f"gate.{task}.",
                gate_linear_shapes(len(gate.subset)))
        model.towers[task] = params_from_container(
            path, tensors, f"tower.{task}.",
            head_shapes(len(model.label_maps[task])))
    reject_unexpected(path, tensors)
    return model


# -- declarative fusion config ------------------------------------------------

_INTEGER, _NUMBER = Key(int, None, "an integer"), Key(float, None, "a number")
_FUSION_SCHEMA = {
    "experts": {"files": Key(str.split)},
    "fusion": {"mode": Key(lambda text: FusionMode(text.upper()),
                           FusionMode.MODE_I, "I, II or III"),
               "seed": SEED, "epochs": _INTEGER,
               "batch_size": _INTEGER, "lr": _NUMBER, "dropout": _NUMBER,
               "unfreeze_experts": BOOLEAN},
    "task:": {"experts": Key(lambda text: tuple(map(int, text.split())), (),
                             "expert indices"),
              "labels": Key(str.split), "alpha": Key(float, 1.0, "a number")},
    "nesting": Key(str),            # fine label -> coarse label
}


def load_fusion_config(path):
    """(expert_paths, relation, options) from an INI fusion config."""
    ini = read_ini(path, _FUSION_SCHEMA)
    expert_paths, fu = ini["experts"]["files"], ini["fusion"]
    if expert_paths is None:
        raise ValueError(f"{path}: missing [experts] files = ...")
    if "task:" in ini:
        raise ValueError(f"{path}: [task:]: no task id; expected [task:<id>]")
    tasks = [TaskSpec(name[5:], **keys) for name, keys in ini.items()
             if name.startswith("task:")]
    if not tasks:
        raise ValueError(f"{path}: no [task:...] sections")
    try:    # the mode's task rules and the fine-tune settings
        relation = TaskRelation(fu["mode"], tasks, ini["nesting"])
        cfg = default_finetune_config(
            fu["mode"], seed=fu["seed"], learning_rate=fu["lr"],
            epochs=fu["epochs"], batch_size=fu["batch_size"],
            dropout_rate=fu["dropout"])
    except ValueError as exc:
        raise ValueError(f"{path}: [fusion] {exc}") from None
    return expert_paths, relation, {"train_config": cfg,
                                    "unfreeze_experts": fu["unfreeze_experts"]}


def load_any_model(path):
    """Open either an expert or a fused model file, returning (kind, model)."""
    header, tensors = serial.load_container(path, serial.MODEL_MAGIC)
    kind = header.get("kind")
    if kind == "expert":
        return "expert", expert_from_container(path, header, tensors)
    if kind == "fused":
        return "fused", fused_from_container(path, header, tensors)
    raise ValueError(f"{path}: unknown model kind {kind!r}")
