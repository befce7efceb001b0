"""Dataset splitting and classification metrics."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, write_csv

log = logging.getLogger(__name__)


def _largest_remainder(total, ratios):
    raw = [total * r for r in ratios]
    base = [int(np.floor(v)) for v in raw]
    leftover = total - sum(base)
    order = sorted(range(len(ratios)), key=lambda i: (-(raw[i] - base[i]), i))
    for i in order[:leftover]:
        base[i] += 1
    return base


def split_dataset(data: LabeledDataset, ratios=(0.75, 0.10, 0.15), seed=0):
    """Disjoint exhaustive shuffled split, stratified where counts allow.

    Strata are the joint label tuples across tasks; when any stratum holds
    fewer than 3 samples the split falls back to unstratified (with a
    warning). Split sizes always hit the largest-remainder targets exactly.
    The seed must be >= 0 (ValueError).
    """
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or not all(map(math.isfinite, ratios)):
        raise ValueError(f"split ratios {ratios} are not three finite "
                         f"numbers")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios {ratios} do not sum to 1")
    if any(r < 0 for r in ratios):
        raise ValueError("negative split ratio")
    if seed < 0:
        raise ValueError(f"split seed must be >= 0, got {seed}")
    m = data.n_samples
    if m == 0:
        raise ValueError("the dataset is empty: it has no rows to split")
    targets = _largest_remainder(m, ratios)
    rng = np.random.default_rng(seed)

    keys = list(zip(*(data.labels[t] for t in sorted(data.labels)))) or [()] * m
    strata: dict = {}
    for i, key in enumerate(keys):
        strata.setdefault(key, []).append(i)
    if min(len(v) for v in strata.values()) < 3 and len(strata) > 1:
        log.warning("stratum with < 3 samples: falling back to an "
                    "unstratified split")
        strata = {(): list(range(m))}

    assigned = [[], [], []]
    for key in sorted(strata):
        idx = np.array(strata[key])
        rng.shuffle(idx)
        counts = _largest_remainder(len(idx), ratios)
        offset = 0
        for s, c in enumerate(counts):
            assigned[s].extend(idx[offset:offset + c].tolist())
            offset += c

    # per-stratum rounding can drift a few samples from the global targets
    for s in range(3):
        while len(assigned[s]) > targets[s]:
            t = min(range(3), key=lambda j: len(assigned[j]) - targets[j])
            assigned[t].append(assigned[s].pop())
    splits = []
    for s in range(3):
        idx = np.array(sorted(assigned[s]), dtype=np.int64)
        splits.append(data.subset(idx))
    return tuple(splits)


@dataclass
class Metrics:
    accuracy: float
    macro_precision: float
    macro_f1: float
    confusion: np.ndarray          # rows = truth, columns = prediction
    class_names: list

    def summary(self):
        return (f"accuracy={self.accuracy:.4f} "
                f"macro_precision={self.macro_precision:.4f} "
                f"macro_f1={self.macro_f1:.4f}")


def compute_metrics(y_true, y_pred, class_names) -> Metrics:
    """Accuracy plus macro precision/F1 over classes present in truth or
    prediction; absent classes are excluded from the macro averages."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.size == 0:
        raise ValueError("empty evaluation set")
    k = len(class_names)
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (y_true, y_pred), 1)
    accuracy = float(np.trace(confusion) / confusion.sum())
    precisions, f1s = [], []
    for c in range(k):
        truth_c = confusion[c].sum()
        pred_c = confusion[:, c].sum()
        if truth_c == 0 and pred_c == 0:
            continue
        tp = confusion[c, c]
        precision = tp / pred_c if pred_c else 0.0
        recall = tp / truth_c if truth_c else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        precisions.append(precision)
        f1s.append(f1)
    return Metrics(accuracy=accuracy,
                   macro_precision=float(np.mean(precisions)),
                   macro_f1=float(np.mean(f1s)),
                   confusion=confusion,
                   class_names=list(class_names))


def evaluate(model, testset: LabeledDataset, tasks=None) -> dict:
    """Metrics of an expert or fused model per task of a labeled set.

    `tasks` lists the task ids to score; by default a fused model's tasks,
    or an expert's own task. The model runs once however many tasks are
    scored. Returns {task_id: Metrics} in the order of `tasks`.
    """
    from .expert import ExpertModel, expert_predict
    from .fusion import FusedModel, classify_batch

    if testset.n_samples == 0:
        raise ValueError("empty evaluation set")
    if isinstance(model, ExpertModel):
        tasks = list(tasks or [model.task_id or testset.task_ids[0]])
    elif isinstance(model, FusedModel):
        tasks = list(tasks or model.task_ids)
        unknown = [t for t in tasks if t not in model.task_ids]
        if unknown:
            raise ValueError(f"fused model has no task(s) {unknown}")
    else:
        raise TypeError(f"cannot evaluate {type(model).__name__}")
    missing = [t for t in tasks if t not in testset.labels]
    if missing:
        raise ValueError(f"test set lacks labels for task(s) {missing}")
    if isinstance(model, ExpertModel):
        pred = np.argmax(expert_predict(model, testset.features), axis=1)
        preds = {t: pred for t in tasks}
    else:
        batch = classify_batch(model, testset.features)
        preds = {t: batch[t][0] for t in tasks}
    return {t: compute_metrics(testset.labels[t], preds[t],
                               testset.label_maps[t]) for t in tasks}


def write_metrics_csv(path, metrics_by_task):
    write_csv(path, ["task_id", "accuracy", "macro_precision", "macro_f1"],
              ([task, repr(m.accuracy), repr(m.macro_precision),
                repr(m.macro_f1)] for task, m in metrics_by_task.items()))


def write_confusion_csv(path, metrics: Metrics):
    write_csv(path, ["true\\pred"] + list(metrics.class_names),
              ([name] + row.tolist()
               for name, row in zip(metrics.class_names, metrics.confusion)))
