"""Per-task expert models: a shared transformer encoder plus a private head.

Experts are trained standalone on one task; fusion later reads only the
encoder, so the classification head never leaves this module's files.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import serial
from .data import LabeledDataset, write_csv
from .nn import (INPUT_DIM, DropoutStream, MultiAdam, ParamSet, backward,
                 cross_entropy, encoder_forward, encoder_shapes, head_forward,
                 head_shapes, init_encoder, init_head, seed_streams,
                 softmax_rows, training)

log = logging.getLogger(__name__)

# Row-encodings per eval-encoder block (E stacked encoders take
# EVAL_ROWS // E rows). The largest intermediate, (32, 24, 152) fp64 =
# 0.9 MiB, fits a 2 MiB per-core L2: on a 2-vCPU Xeon with that L2, 480
# flows x 2 experts at 16/32/64/128 rows took 74.3/69.2/70.2/73.7 ms
# (medians of 21, bitwise-equal outputs). 32 ties 64 within noise and
# halves the pass's transient memory (1.74 against 3.41 MiB traced).
EVAL_ROWS = 32


@dataclass
class TrainConfig:
    """Expert training hyperparameters (defaults: lr 1e-3, dropout 0.2,
    batch 32, 50 epochs)."""

    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 50
    dropout_rate: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning rate must be finite and positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch size must be >= 1")


@dataclass
class ExpertModel:
    """An encoder plus its private head. A fused model's `experts` keep
    only the id, task id and label map, with `encoder` and `head` None:
    the model's stacked encoder holds a copy of each expert's encoder."""

    id: str
    encoder: ParamSet
    head: ParamSet
    label_map: list
    task_id: str = ""


def train_expert(data: LabeledDataset, cfg: TrainConfig, val_data=None,
                 task_id=None, expert_id=None):
    """Train encoder + head with cross-entropy in `run_epochs`; returns
    (model, per-epoch rows {"epoch", "train_loss", "val_loss", "val_acc"}).

    `data` must carry exactly one task unless `task_id` picks one. A task
    whose training split holds fewer than two distinct classes is rejected.
    Each epoch is scored on `val_data` outside the `training` scope of its
    batch loop; if `val_data` is None or has no rows, both scores are NaN.
    """
    if task_id is None:
        if len(data.task_ids) != 1:
            raise ValueError("dataset has several tasks; pass task_id")
        task_id = data.task_ids[0]
    labels = data.labels[task_id]
    label_map = data.label_maps[task_id]
    present = np.unique(labels)
    if present.size < 2:
        raise ValueError(f"degenerate task {task_id!r}: needs >= 2 classes, "
                         f"found {present.size}")
    counts = data.class_counts(task_id)
    if np.any(counts == 0):
        log.warning("task %s: %d declared class(es) without samples",
                    task_id, int((counts == 0).sum()))

    init_seed, shuffle_seed, drop_seed = seed_streams(cfg.seed, 3)
    rng = np.random.default_rng(init_seed)
    encoder = init_encoder(rng)
    head = init_head(rng, len(label_map))
    stream = DropoutStream(drop_seed)
    model = ExpertModel(id=expert_id or task_id, encoder=encoder, head=head,
                        label_map=list(label_map), task_id=task_id)
    feats = data.features

    def step(idx):
        rep = encoder_forward(encoder, feats[idx], train_mode=True,
                              dropout_stream=stream,
                              dropout_rate=cfg.dropout_rate)
        logits = head_forward(head, rep, train_mode=True,
                              dropout_stream=stream,
                              dropout_rate=cfg.dropout_rate)
        return {"train_loss": cross_entropy(logits, labels[idx])}

    trace = []
    for row in run_epochs({"encoder": encoder, "head": head}, cfg,
                          feats.shape[0], shuffle_seed, step):
        row["val_loss"] = row["val_acc"] = float("nan")
        if val_data is not None and val_data.n_samples:
            row["val_loss"], row["val_acc"] = _evaluate_split(
                model, val_data, task_id)
        trace.append(row)
    return model, trace


def run_epochs(named_sets, cfg: TrainConfig, m, shuffle_seed, step):
    """The mini-batch Adam loop of expert training and fine-tuning.

    Each epoch shuffles the m rows with a generator seeded once from
    `shuffle_seed`, and per batch of row indices `idx` calls `step(idx)`
    inside `training` over the ParamSets of `named_sets`. `step` returns
    {name: batch loss}, whose first loss is the one minimized. Yields one
    row per epoch, outside that scope: {"epoch": epoch, name: mean loss,
    ...}. A non-finite mean loss, or a non-finite parameter after the
    epoch's updates, is an ArithmeticError.
    """
    shuffle_rng = np.random.default_rng(shuffle_seed)
    opt = MultiAdam(named_sets)
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(m)
        sums = {}
        # a diverging run ends at the checks below, not in numpy warnings
        with training(*named_sets.values()), \
                np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, m, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                losses = step(idx)
                grads = backward(next(iter(losses.values())),
                                 *named_sets.values())
                opt.apply(dict(zip(named_sets, grads)), cfg.learning_rate)
                sums = {name: sums.get(name, 0.0) + loss.item() * len(idx)
                        for name, loss in losses.items()}
                # drop this step's graph before the next step's forward
                losses = grads = None
        row = {"epoch": epoch} | {name: s / m for name, s in sums.items()}
        if not all(map(math.isfinite, row.values())):
            raise ArithmeticError(f"non-finite training loss at epoch {epoch}")
        if not all(np.isfinite(t.data).all() for params in named_sets.values()
                   for t in params.tensors()):
            raise ArithmeticError(f"non-finite parameters after epoch {epoch}")
        yield row


def _evaluate_split(model, data, task_id):
    labels = data.labels[task_id]
    rep = expert_representation(model, data.features)
    logits = head_forward(model.head, rep)
    loss = cross_entropy(logits, labels).item()
    acc = float((np.argmax(logits.data, axis=1) == labels).mean())
    return loss, acc


def expert_representation(model, x):
    """Encoder output in eval mode: the representation shared into fusion.

    `model.encoder` is an expert's encoder, or a fused model's E stacked
    experts (`nn.stack_encoders`), which prepend the expert axis: (E,) +
    x.shape. Rows go through the encoder in blocks of EVAL_ROWS // E, so
    a block's intermediates ((EVAL_ROWS, 24, 152) fp64 at most) stay in L2
    cache and the transient memory does not grow with the row count.
    The result is bit-identical to one unblocked call, and a stacked pass
    to one pass per expert: every encoder op works row by row, and its
    matmuls are stacked per-row products whose arithmetic does not depend
    on how many rows or experts share the call.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != INPUT_DIM:
        raise ValueError(f"expected input of length {INPUT_DIM}, "
                         f"got {x.shape[-1]}")
    rows = x.reshape(-1, INPUT_DIM)
    # a stacked (E, 1, d, e) weight leads with (E,); a plain one with ()
    lead = model.encoder["attn.q.w"].data.shape[:-3]
    block_rows = max(1, EVAL_ROWS // math.prod(lead))
    out = np.empty(lead + rows.shape)
    for start in range(0, rows.shape[0], block_rows):
        block = slice(start, start + block_rows)
        out[..., block, :] = encoder_forward(model.encoder, rows[block]).data
    return out.reshape(lead + x.shape)


def expert_predict(model: ExpertModel, x):
    """Class probability vector(s) from the full encoder + head forward.

    The head runs on all rows at once: a 1-row block would take numpy's
    matrix-vector path and change the last bit of the result.
    """
    rep = expert_representation(model, x)
    return softmax_rows(head_forward(model.head, rep).data)


def write_loss_trace(path, trace):
    """The per-epoch rows of `train_expert` (epoch,train_loss,val_loss,
    val_acc) or of `fine_tune` (epoch,total,<task>...) as a CSV file; a
    NaN, as an epoch without validation has, is an empty field."""
    write_csv(path, list(trace[0]), (["" if math.isnan(v) else repr(v)
                                      for v in row.values()] for row in trace))


def save_expert(model: ExpertModel, path):
    header = {"kind": "expert", "id": model.id, "task_id": model.task_id,
              "label_map": list(model.label_map)}
    tensors = [(f"encoder.{n}", t.data) for n, t in model.encoder.items()]
    tensors += [(f"head.{n}", t.data) for n, t in model.head.items()]
    serial.save_container(path, serial.MODEL_MAGIC, header, tensors)


def load_expert(path) -> ExpertModel:
    header, tensors = serial.load_container(path, serial.MODEL_MAGIC)
    return expert_from_container(path, header, tensors)


def expert_from_container(path, header, tensors) -> ExpertModel:
    """Build an expert from a parsed model container read from `path`."""
    if header.get("kind") != "expert":
        raise ValueError(f"{path}: not an expert model file "
                         f"(kind={header.get('kind')!r})")

    def get(key, kind=str):
        return serial.header_field(path, header, key, kind)

    label_map = serial.label_list(path, header, "label_map")
    tensors = dict(tensors)
    encoder = params_from_container(path, tensors, "encoder.",
                                    encoder_shapes())
    head = params_from_container(path, tensors, "head.",
                                 head_shapes(len(label_map)))
    reject_unexpected(path, tensors)
    return ExpertModel(id=get("id"), encoder=encoder, head=head,
                       label_map=label_map, task_id=get("task_id"))


def params_from_container(path, tensors, prefix, shapes):
    """ParamSet of `tensors[prefix + name]` for every name of the `shapes`
    schema, popping each from `tensors`; a missing or wrong-shaped tensor is
    a ValueError naming the file."""
    params = ParamSet()
    for name, shape in shapes.items():
        data = tensors.pop(prefix + name, None)
        if data is None:
            raise ValueError(f"{path}: missing tensor {prefix + name!r}")
        if data.shape != shape:
            raise ValueError(f"{path}: tensor {prefix + name!r} has shape "
                             f"{data.shape}, expected {shape}")
        params.add(name, data)
    return params


def reject_unexpected(path, tensors):
    """ValueError naming the file if any tensor is left unclaimed."""
    if tensors:
        raise ValueError(f"{path}: unexpected tensor(s) {sorted(tensors)}")
