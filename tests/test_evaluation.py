"""Split and metric behavior vs naive per-class oracles."""

import numpy as np
import pytest

from flowmoe.data import LabeledDataset
from flowmoe.evaluation import compute_metrics, evaluate, split_dataset
from flowmoe.fusion import (FusionMode, TaskRelation, TaskSpec,
                            configure_fusion)


def _dataset(labels, n_tasks=1):
    labels = np.asarray(labels)
    m = len(labels)
    k = int(labels.max()) + 1
    return LabeledDataset(
        features=np.arange(m, dtype=np.float64).reshape(m, 1),
        labels={"t": labels},
        label_maps={"t": [f"c{i}" for i in range(k)]},
        flow_ids=[f"f{i}" for i in range(m)],
    )


def test_split_sizes_exact():
    ds = _dataset([0] * 500 + [1] * 500)
    tr, va, te = split_dataset(ds, seed=1)
    assert (tr.n_samples, va.n_samples, te.n_samples) == (750, 100, 150)


def test_split_deterministic_and_partition():
    ds = _dataset(np.arange(200) % 3)
    a = split_dataset(ds, seed=9)
    b = split_dataset(ds, seed=9)
    for x, y in zip(a, b):
        assert x.flow_ids == y.flow_ids
    all_ids = sorted(sum((part.flow_ids for part in a), []))
    assert all_ids == sorted(ds.flow_ids)
    assert len(set(all_ids)) == ds.n_samples
    c = split_dataset(ds, seed=10)
    assert c[0].flow_ids != a[0].flow_ids


def test_split_targets_match_oracle_for_random_cases():
    rng = np.random.default_rng(3)
    for _ in range(25):
        m = int(rng.integers(10, 300))
        ds = _dataset(rng.integers(0, 4, size=m))
        ratios = (0.75, 0.10, 0.15)
        parts = split_dataset(ds, ratios, seed=int(rng.integers(1000)))
        # oracle: independent largest-remainder computation
        raw = [m * r for r in ratios]
        base = [int(np.floor(v)) for v in raw]
        rest = m - sum(base)
        order = sorted(range(3), key=lambda i: (-(raw[i] - base[i]), i))
        for i in order[:rest]:
            base[i] += 1
        assert [p.n_samples for p in parts] == base
        assert sorted(sum((p.flow_ids for p in parts), [])) == sorted(ds.flow_ids)


def test_split_stratified_when_possible():
    ds = _dataset([0] * 100 + [1] * 100)
    tr, va, te = split_dataset(ds, seed=5)
    for part, expected in ((tr, 75), (va, 10), (te, 15)):
        counts = np.bincount(part.labels["t"], minlength=2)
        assert abs(counts[0] - expected) <= 1


def test_split_small_class_falls_back(caplog):
    ds = _dataset([0] * 98 + [1] * 2)
    with caplog.at_level("WARNING"):
        parts = split_dataset(ds, seed=0)
    assert "unstratified" in caplog.text
    assert sum(p.n_samples for p in parts) == 100


def test_split_rejects_bad_ratios():
    ds = _dataset([0, 1] * 10)
    with pytest.raises(ValueError):
        split_dataset(ds, ratios=(0.75, 0.10, 0.20))
    for ratios in ((0.5, 0.5), (float("nan"), 0.5, 0.5)):
        with pytest.raises(ValueError, match="not three finite numbers"):
            split_dataset(ds, ratios=ratios)


def test_all_correct_metrics():
    m = compute_metrics([0, 1, 2, 1], [0, 1, 2, 1], ["a", "b", "c"])
    assert m.accuracy == m.macro_precision == m.macro_f1 == 1.0


def test_hand_computed_confusion():
    # confusion [[1,1],[0,2]] -> accuracy 3/4
    m = compute_metrics([0, 0, 1, 1], [0, 1, 1, 1], ["a", "b"])
    assert np.array_equal(m.confusion, [[1, 1], [0, 2]])
    assert m.accuracy == 0.75
    # oracle by hand: precision a = 1/1, b = 2/3; recall a = 1/2, b = 1
    assert np.isclose(m.macro_precision, (1.0 + 2 / 3) / 2)
    f1_a = 2 * 1.0 * 0.5 / 1.5
    f1_b = 2 * (2 / 3) * 1.0 / (2 / 3 + 1.0)
    assert np.isclose(m.macro_f1, (f1_a + f1_b) / 2)


def naive_metrics(y_true, y_pred, k):
    """Per-class loop oracle, no vectorization."""
    correct = sum(1 for t, p in zip(y_true, y_pred) if t == p)
    accuracy = correct / len(y_true)
    precisions, f1s = [], []
    for c in range(k):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        if tp + fp + fn == 0:
            continue
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        precisions.append(prec)
        f1s.append(f1)
    return accuracy, float(np.mean(precisions)), float(np.mean(f1s))


def test_metrics_match_naive_oracle_on_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(5, 60))
        y_true = rng.integers(0, k, size=n)
        y_pred = rng.integers(0, k, size=n)
        m = compute_metrics(y_true, y_pred, [str(i) for i in range(k)])
        acc, prec, f1 = naive_metrics(y_true.tolist(), y_pred.tolist(), k)
        assert np.isclose(m.accuracy, acc)
        assert np.isclose(m.macro_precision, prec)
        assert np.isclose(m.macro_f1, f1)


def test_empty_testset_rejected():
    with pytest.raises(ValueError, match="empty"):
        compute_metrics([], [], ["a"])


def test_split_of_an_empty_dataset_is_rejected():
    empty = LabeledDataset(np.zeros((0, 912)), {"t": np.zeros(0, np.int64)},
                           {"t": ["a", "b"]}, [])
    with pytest.raises(ValueError, match="^the dataset is empty"):
        split_dataset(empty)


def _reordered(data, task):
    """`data` with `task`'s label map reversed and its labels re-indexed to
    it: every row keeps its label name under another index order."""
    names = list(data.label_maps[task])
    index = np.array([names[::-1].index(name) for name in names])
    return LabeledDataset(
        features=data.features,
        labels={**data.labels, task: index[data.labels[task]]},
        label_maps={**data.label_maps, task: names[::-1]},
        flow_ids=data.flow_ids)


@pytest.mark.parametrize("kind", ["expert", "fused"])
def test_evaluate_rejects_a_test_set_under_another_label_map(
        trained_experts, two_task_data, kind):
    model = trained_experts[0] if kind == "expert" else configure_fusion(
        list(trained_experts), TaskRelation(FusionMode.MODE_I, [
            TaskSpec("app", experts=(0,)), TaskSpec("encap", experts=(1,))]),
        seed=1)
    test = two_task_data[2].subset(np.arange(60))
    assert set(evaluate(model, test, ["app"])) == {"app"}
    with pytest.raises(ValueError, match="^task 'app': dataset label map "
                                         "does not match the model's$"):
        evaluate(model, _reordered(test, "app"), ["app"])


def test_evaluate_rejects_a_task_the_expert_lacks(trained_experts,
                                                  two_task_data):
    with pytest.raises(ValueError, match=r"model has no task\(s\) \['encap'\]"):
        evaluate(trained_experts[0], two_task_data[2], ["encap"])
