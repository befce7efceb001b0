"""Parameters are frozen at rest: only a training call's own scope makes
them take a gradient, so loaded and trained models evaluate without
recording a graph."""

import numpy as np
import pytest

import flowmoe.expert as expert_mod
from flowmoe.data import LabeledDataset
from flowmoe.diagnostics import run_tower_gd
from flowmoe.expert import (ExpertModel, TrainConfig, expert_predict,
                            load_expert, save_expert, train_expert)
from flowmoe.fusion import (FusionMode, TaskRelation, TaskSpec,
                            classify_batch, configure_fusion, fine_tune,
                            load_any_model, save_fused)
from flowmoe.nn import INPUT_DIM, ParamSet, Tensor, init_encoder, training

from nn_helpers import frozen


def recorded_graphs(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the number of op results that recorded a
    graph while it ran)."""
    real = Tensor._result
    count = 0

    def counting(data, parents, backward):
        nonlocal count
        out = real(data, parents, backward)
        count += out._backward is not None
        return out

    Tensor._result = staticmethod(counting)
    try:
        return fn(*args, **kwargs), count
    finally:
        Tensor._result = staticmethod(real)


def param_sets(model):
    """Every ParamSet an expert or fused model holds."""
    if isinstance(model, ExpertModel):
        return [p for p in (model.encoder, model.head) if p is not None]
    return ([model.encoder] + [p for e in model.experts for p in param_sets(e)]
            + list(model.towers.values())
            + [g.linear for g in model.gates.values() if g.linear is not None])


def all_frozen(model):
    return all(frozen(p) for p in param_sets(model))


def _experts():
    return [ExpertModel(id=f"e{j}", head=None,
                        label_map=[f"l{j}", f"l{j + 1}"],
                        encoder=init_encoder(np.random.default_rng(j)))
            for j in range(2)]


RELATIONS = {
    "I": TaskRelation(FusionMode.MODE_I, [TaskSpec("t0", experts=(0,)),
                                          TaskSpec("t1", experts=(1,))]),
    "II": TaskRelation(FusionMode.MODE_II, [TaskSpec("u", experts=(0, 1))]),
    "III": TaskRelation(FusionMode.MODE_III,
                        nesting={"a": "l0", "b": "l1", "c": "l0"},
                        tasks=[TaskSpec("coarse", experts=(0,)),
                               TaskSpec("fine")]),
}


def _fused(mode, seed=3):
    model = configure_fusion(_experts(), RELATIONS[mode], seed=seed)
    rng = np.random.default_rng(seed)
    for tower in model.towers.values():     # non-zero outputs
        tower["fc2.w"].data = rng.normal(size=tower["fc2.w"].data.shape) * 0.1
    return model


def _data(model, n=48, seed=0):
    rng = np.random.default_rng(seed)
    return LabeledDataset(
        rng.random((n, INPUT_DIM)),
        {t: rng.integers(0, len(model.label_maps[t]), n)
         for t in model.task_ids},
        {t: list(model.label_maps[t]) for t in model.task_ids},
        list(range(n)))


CFG = TrainConfig(learning_rate=1e-3, batch_size=16, epochs=1,
                  dropout_rate=0.0, seed=1)


def test_training_scope_sets_and_clears_the_flags_also_on_an_error():
    a, b = ParamSet(), ParamSet()
    a.add("w", np.ones((2, 2)))
    b.add("w", np.ones(2))
    assert frozen(a) and frozen(b)
    with training(a):
        assert not frozen(a) and all(t.requires_grad for t in a.tensors())
        assert frozen(b)
    assert frozen(a)
    with pytest.raises(RuntimeError), training(a, b):
        raise RuntimeError("inside the scope")
    assert frozen(a) and frozen(b)


def test_trained_expert_is_frozen_and_its_validation_records_no_graph(
        two_task_data, monkeypatch):
    train = two_task_data[0].subset(np.arange(0, 192, 4)).single_task("encap")
    val = two_task_data[1].single_task("encap")
    counts = []
    real = expert_mod._evaluate_split

    def counted(*args):
        result, n = recorded_graphs(real, *args)
        counts.append(n)
        return result

    monkeypatch.setattr(expert_mod, "_evaluate_split", counted)
    model, trace = train_expert(train, TrainConfig(epochs=2, seed=3),
                                val_data=val)
    assert counts == [0, 0] and all(np.isfinite(s["val_loss"]) for s in trace)
    assert all_frozen(model)


@pytest.mark.parametrize("kind", ["expert", "expert-any", "fused"])
def test_loaded_models_are_frozen_and_evaluate_without_a_graph(
        trained_experts, tmp_path, kind):
    path = tmp_path / "model.snke"
    if kind == "fused":
        # Mode III: a trainable gate's linear is read from the file too
        save_fused(configure_fusion(list(trained_experts), TaskRelation(
            FusionMode.MODE_III, nesting={"video": "plain", "chat": "vpn",
                                          "mail": "plain"},
            tasks=[TaskSpec("encap", experts=(1,)), TaskSpec("app")]),
            seed=3), path)
    else:
        save_expert(trained_experts[0], path)
    model = load_expert(path) if kind == "expert" else load_any_model(path)[1]
    assert all_frozen(model)
    X = np.random.default_rng(1).random((40, INPUT_DIM))
    evaluate = classify_batch if kind == "fused" else expert_predict
    assert recorded_graphs(evaluate, model, X)[1] == 0


@pytest.mark.parametrize("mode, unfreeze", [("I", False), ("II", False),
                                            ("III", False), ("I", True)])
def test_fine_tune_leaves_every_param_set_frozen(mode, unfreeze):
    model = _fused(mode)
    before = model.encoder["ff.1.w"].data.copy()
    fine_tune(model, _data(model), CFG, unfreeze_experts=unfreeze)
    assert all_frozen(model)
    assert unfreeze != np.array_equal(model.encoder["ff.1.w"].data, before)


def test_fine_tune_on_a_non_finite_loss_leaves_the_model_frozen():
    model = _fused("I")
    model.towers["t0"]["fc1.w"].data[0, 0] = np.nan
    with pytest.raises(ArithmeticError, match="epoch 0"):
        fine_tune(model, _data(model), CFG, unfreeze_experts=True)
    assert all_frozen(model)


@pytest.mark.parametrize("alpha", [None, 1e300], ids=["converges",
                                                       "diverges"])
def test_tower_gd_leaves_every_param_set_frozen(alpha):
    model = _fused("I")
    data = _data(model)
    if alpha is None:
        run_tower_gd(model, data, steps=5)
    else:
        with pytest.raises(ArithmeticError):
            run_tower_gd(model, data, steps=3, alpha=alpha)
    assert all_frozen(model)
