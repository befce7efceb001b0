"""Expert training, prediction, persistence, and the freezing contract."""

import numpy as np
import pytest

from flowmoe.data import build_dataset
from flowmoe.expert import (ExpertModel, TrainConfig, expert_predict,
                            expert_representation, load_expert, save_expert,
                            train_expert, write_loss_trace)
from flowmoe.nn import INPUT_DIM, encoder_forward, head_forward

from composed_ops import softmax
from nn_helpers import state_dict


def _bit_equal(a, b):
    """Same parameter names in the same order, with bitwise-equal values."""
    return a.names() == b.names() and all(
        np.array_equal(a[n].data, b[n].data) for n in a.names())


def test_defaults_match_stated_hyperparameters():
    cfg = TrainConfig()
    assert cfg.learning_rate == 1e-3
    assert cfg.dropout_rate == 0.2
    assert cfg.batch_size == 32
    assert cfg.epochs == 50


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(dropout_rate=1.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


def test_degenerate_task_rejected(rng):
    ds = build_dataset([f"f{i}" for i in range(8)],
                       rng.random((8, INPUT_DIM)),
                       {"t": {f"f{i}": "only" for i in range(8)}})
    with pytest.raises(ValueError, match="degenerate task"):
        train_expert(ds, TrainConfig(epochs=1), task_id="t")


def test_training_reaches_high_accuracy(two_task_data):
    train, val, test = two_task_data
    model, trace = train_expert(train.single_task("app"),
                                TrainConfig(epochs=8, seed=3),
                                val_data=val, task_id="app")
    assert len(trace) == 8
    assert all(np.isfinite(s["train_loss"]) for s in trace)
    assert all(np.isfinite(s["val_loss"]) for s in trace)
    preds = np.argmax(expert_predict(model, test.features), axis=1)
    assert (preds == test.labels["app"]).mean() >= 0.95


def test_same_seed_identical_traces(two_task_data):
    train = two_task_data[0].subset(np.arange(96))
    runs = []
    for _ in range(2):
        model, trace = train_expert(train.single_task("encap"),
                                    TrainConfig(epochs=3, seed=7),
                                    task_id="encap")
        runs.append((model, [s["train_loss"] for s in trace]))
    assert runs[0][1] == runs[1][1]
    assert _bit_equal(runs[0][0].encoder, runs[1][0].encoder)
    assert _bit_equal(runs[0][0].head, runs[1][0].head)


def test_training_step_releases_the_previous_steps_graph(two_task_data):
    """A step's activations and closures are let go before the next step's
    forward builds its own graph, so two graphs are never alive at once:
    the peak reads 67.3 batch arrays, and 77.2 when a step's graph lives
    on through the next step's forward."""
    from memtrace import traced_peak

    train = two_task_data[0].subset(np.arange(0, 256, 4)).single_task("encap")
    _, peak = traced_peak(train_expert, train,
                          TrainConfig(epochs=1, batch_size=32, seed=7))
    batch_bytes = 32 * INPUT_DIM * 8            # one (32, 912) array
    assert peak / batch_bytes <= 72


def test_representation_shape_and_purity(trained_experts, two_task_data):
    app, _ = trained_experts
    x = two_task_data[2].features[0]
    rep = expert_representation(app, x)
    assert rep.shape == (INPUT_DIM,)
    assert np.array_equal(rep, expert_representation(app, x))
    with pytest.raises(ValueError):
        expert_representation(app, np.zeros(100))


def test_representation_equals_instrumented_predict(trained_experts,
                                                    two_task_data):
    # oracle: rerun the full predict pipeline capturing the hidden activation
    app, _ = trained_experts
    x = two_task_data[2].features[3]
    hidden = encoder_forward(app.encoder, x[None])
    probs = softmax(head_forward(app.head, hidden)).data
    assert np.array_equal(expert_representation(app, x), hidden.data[0])
    assert np.allclose(expert_predict(app, x), probs[0], atol=0)


def test_blocked_eval_is_bit_identical_to_one_pass(trained_experts,
                                                   two_task_data,
                                                   monkeypatch):
    import flowmoe.expert as expert_mod
    from flowmoe.fusion import (FusionMode, TaskRelation, TaskSpec,
                                classify_batch, configure_fusion)
    app, encap = trained_experts
    n = 2 * expert_mod.EVAL_ROWS + 1          # the tail block holds one row
    x = two_task_data[0].features[:n]
    assert x.shape[0] == n
    fused = configure_fusion(
        [app, encap], TaskRelation(FusionMode.MODE_I,
                                   [TaskSpec("app", experts=(0,)),
                                    TaskSpec("encap", experts=(1,))]))
    rng = np.random.default_rng(3)
    for tower in fused.towers.values():       # zero output layers: randomize
        w = tower["fc2.w"].data
        w[:] = rng.normal(size=w.shape)

    calls = []
    real_forward = expert_mod.encoder_forward

    def counting(params, rows, **kwargs):
        calls.append(rows.shape[0])
        return real_forward(params, rows, **kwargs)

    monkeypatch.setattr(expert_mod, "encoder_forward", counting)
    blocked = (expert_representation(app, x), expert_predict(app, x),
               classify_batch(fused, x))
    assert calls[:3] == [expert_mod.EVAL_ROWS, expert_mod.EVAL_ROWS, 1]
    monkeypatch.setattr(expert_mod, "EVAL_ROWS", n + 1)
    whole = (expert_representation(app, x), expert_predict(app, x),
             classify_batch(fused, x))
    assert np.array_equal(blocked[0], whole[0])
    assert np.array_equal(blocked[1], whole[1])
    for task in ("app", "encap"):
        assert np.array_equal(blocked[2][task][0], whole[2][task][0])
        assert np.array_equal(blocked[2][task][1], whole[2][task][1])


def test_eval_transient_memory_does_not_grow_with_rows(rng):
    import tracemalloc
    from flowmoe.nn import init_encoder, init_head
    model = ExpertModel(id="fresh", encoder=init_encoder(rng),
                        head=init_head(rng, 3), label_map=["a", "b", "c"])
    transient = []
    for n in (128, 1024):
        x = rng.normal(size=(n, INPUT_DIM))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rep = expert_representation(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        transient.append(peak - base - rep.nbytes)
    assert abs(transient[1] - transient[0]) < 1e6, transient


def test_predict_probabilities_sum_to_one(trained_experts, two_task_data):
    app, _ = trained_experts
    probs = expert_predict(app, two_task_data[2].features[:20])
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9


def test_untrained_model_near_uniform_on_zero_input(rng):
    from flowmoe.nn import init_encoder, init_head
    model = ExpertModel(id="fresh", encoder=init_encoder(rng),
                        head=init_head(rng, 3), label_map=["a", "b", "c"])
    probs = expert_predict(model, np.zeros(INPUT_DIM))
    # zero-initialized head bias: logits stay small, so no class dominates
    assert np.all(probs > 0.05) and np.all(probs < 0.9)


def test_freezing_contract(trained_experts, two_task_data):
    from flowmoe.fusion import FusionMode, TaskRelation, TaskSpec, \
        configure_fusion, fine_tune
    app, encap = trained_experts
    before_enc = state_dict(app.encoder)
    before_head = state_dict(app.head)
    rel = TaskRelation(mode=FusionMode.MODE_I,
                       tasks=[TaskSpec("app", experts=(0,)),
                              TaskSpec("encap", experts=(1,))])
    fused = configure_fusion([app, encap], rel, seed=0)
    fine_tune(fused, two_task_data[0].subset(np.arange(64)),
              TrainConfig(learning_rate=1e-3, batch_size=32, epochs=1,
                          dropout_rate=0.0, seed=0))
    assert all(np.array_equal(app.encoder[n].data, a)
               for n, a in before_enc.items())
    assert all(np.array_equal(app.head[n].data, a)
               for n, a in before_head.items())


def test_save_load_round_trip(tmp_path, trained_experts, two_task_data):
    app, _ = trained_experts
    path = tmp_path / "app.snke"
    save_expert(app, path)
    loaded = load_expert(path)
    assert loaded.label_map == app.label_map
    assert loaded.id == app.id
    X = two_task_data[2].features[:10]
    assert np.array_equal(expert_predict(app, X), expert_predict(loaded, X))


def test_truncated_file_rejected(tmp_path, trained_experts):
    app, _ = trained_experts
    path = tmp_path / "app.snke"
    save_expert(app, path)
    blob = path.read_bytes()
    (tmp_path / "cut.snke").write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ValueError, match="truncated"):
        load_expert(tmp_path / "cut.snke")


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.snke"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_expert(path)


def test_loss_trace_csv(tmp_path, two_task_data):
    train = two_task_data[0].subset(np.arange(0, 256, 4))
    _, trace = train_expert(train.single_task("encap"),
                            TrainConfig(epochs=2, seed=1), task_id="encap")
    path = tmp_path / "trace.csv"
    write_loss_trace(path, trace)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,val_acc"
    assert len(lines) == 3


def test_fused_loss_trace_csv(tmp_path, trained_experts, two_task_data):
    from flowmoe.fusion import (FusionMode, TaskRelation, TaskSpec,
                                configure_fusion, fine_tune)
    fused = configure_fusion(list(trained_experts), TaskRelation(
        FusionMode.MODE_I, [TaskSpec("app", experts=(0,)),
                            TaskSpec("encap", experts=(1,))]), seed=1)
    train = two_task_data[0].subset(np.arange(0, 256, 4))
    _, trace = fine_tune(fused, train, TrainConfig(epochs=2, seed=1))
    path = tmp_path / "trace.csv"
    write_loss_trace(path, trace)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,total,app,encap"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]
    assert lines[1].split(",")[1] == repr(trace[0]["total"])
