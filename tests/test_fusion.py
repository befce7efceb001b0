"""Gate contracts, fusion configuration, fine-tuning, and inference."""

import copy
import dataclasses
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import flowmoe
from flowmoe import serial
from flowmoe.expert import (expert_predict, expert_representation,
                            save_expert)
from flowmoe.fusion import (FusionMode, GateConfig, TaskRelation,
                            TaskSpec, classify, classify_batch,
                            concat_representations, configure_fusion, fine_tune,
                            fusion_structure, gate_output, gated_chunks,
                            gated_inputs, load_any_model, load_fusion_config,
                            predict, save_fused, tower_forward)
from flowmoe.expert import ExpertModel, TrainConfig
from flowmoe.nn import (INPUT_DIM, ParamSet, Tensor, backward, cross_entropy,
                        encoder_forward, encoder_shapes, head_forward,
                        init_encoder, init_head, mixing_weights, training)

from composed_gate import composed_gate_output, composed_gate_weights
from composed_ops import softmax
from memtrace import traced_peak
from nn_helpers import frozen, state_dict
from per_expert_oracle import per_expert_representations


def test_gate_default_bit_equal(rng):
    stacked = rng.normal(size=(2, INPUT_DIM))
    gate = GateConfig("t", (1,), 2)
    out = gate_output(gate, Tensor(stacked)).data
    assert np.array_equal(out, stacked[1])


def test_gate_topk_mean(rng):
    stacked = rng.normal(size=(2, INPUT_DIM))
    gate = GateConfig("t", (0, 1), 2)
    out = gate_output(gate, Tensor(stacked)).data
    assert np.max(np.abs(out - stacked.mean(axis=0))) < 1e-12


@pytest.mark.parametrize("subset", [(0, 2), (0, 1, 2), (1,)])
def test_fixed_gate_mix_of_all_rows_slices_to_the_batch_mix(rng, subset):
    # fine_tune mixes a fixed gate once over every row, then slices batches
    stacked = rng.normal(size=(3, 50, INPUT_DIM))
    gate = GateConfig("t", subset, 3)
    full = gate_output(gate, Tensor(stacked)).data
    for idx in (rng.permutation(50)[:17], np.arange(1), np.arange(50)):
        batch = gate_output(gate, Tensor(stacked[:, idx])).data
        assert np.array_equal(full[idx], batch)


def test_gate_topk_subset_weights(rng):
    # a fixed gate weighs its subset's rows 1/|S| and the others nothing:
    # NaN rows outside the subset never reach the mix
    stacked = np.full((4, 3, INPUT_DIM), np.nan)
    stacked[[0, 2]] = rng.normal(size=(2, 3, INPUT_DIM))
    out = gate_output(GateConfig("t", (0, 2), 4), Tensor(stacked)).data
    assert np.array_equal(out, stacked[0] * 0.5 + stacked[2] * 0.5)


@pytest.mark.parametrize("lead", [(), (7,)], ids=["one-input", "batch"])
def test_one_expert_fixed_gate_is_its_expert_row(rng, lead):
    stacked = Tensor(rng.normal(size=(3,) + lead + (INPUT_DIM,)),
                     requires_grad=True)
    out = gate_output(GateConfig("t", (1,), 3), stacked)
    assert np.array_equal(out.data, stacked.data[1])
    assert not np.shares_memory(out.data, stacked.data)
    g = rng.normal(size=out.shape)
    out.backward(g)
    assert np.array_equal(stacked.grad[1], g)
    assert not stacked.grad[[0, 2]].any()


def test_one_expert_gate_gradient_reaches_only_its_expert():
    # unfrozen experts: the stacked encoder's gradient is zero in every
    # parameter of the expert the gate does not read
    model = _fixed_gate_model()
    with training(model.encoder):
        reps = encoder_forward(model.encoder,
                               np.random.default_rng(5).random((3, INPUT_DIM)))
        out = gate_output(model.gates["t1"], reps)
        out.backward(np.random.default_rng(6).normal(size=out.shape))
    assert np.array_equal(out.data, reps.data[1])
    for name, t in model.encoder.items():
        assert not t.grad[0].any(), name
    assert model.encoder["ff.1.w"].grad[1].any()


@pytest.mark.parametrize("make", [
    lambda: GateConfig("t", (0, 0), 2),
    lambda: GateConfig.trainable("t", (1, 0, 1), 3),
], ids=["topk", "trainable"])
def test_gate_rejects_duplicate_experts(make):
    # a repeated index would give top-k weights summing to 1/2
    with pytest.raises(ValueError, match="names an expert twice"):
        make()


def test_gate_trainable_uniform_at_zero_init(rng):
    x = rng.normal(size=INPUT_DIM)
    stacked = rng.normal(size=(3, INPUT_DIM))
    gate = GateConfig.trainable("t", (0, 1, 2), 3)
    weights = mixing_weights(x, gate.linear["w"].data, gate.linear["b"].data)
    assert np.allclose(weights, 1.0 / 3.0)
    assert np.array_equal(weights, composed_gate_weights(gate, Tensor(x)).data)
    out = gate_output(gate, Tensor(stacked), Tensor(x)).data
    assert np.allclose(out, stacked.mean(axis=0), atol=1e-12)


def test_gate_trainable_simplex_support(rng):
    gate = GateConfig.trainable("t", (1, 3), 5)
    gate.linear["w"].data = rng.normal(size=gate.linear["w"].data.shape)
    w, b = gate.linear["w"].data, gate.linear["b"].data
    for _ in range(20):
        x = rng.normal(size=INPUT_DIM)
        weights = mixing_weights(x, w, b)
        assert np.all(weights >= 0)
        assert abs(weights.sum() - 1.0) < 1e-12
        delta = composed_gate_weights(gate, Tensor(x)).data
        assert np.max(np.abs(delta[[1, 3]] - weights)) <= 1e-15
        assert delta[0] == delta[2] == delta[4] == 0.0
        # experts outside the subset weigh nothing: NaN rows never reach
        # the mix, which is the subset's rows under the subset's weights
        stacked = np.full((5, INPUT_DIM), np.nan)
        stacked[[1, 3]] = rng.normal(size=(2, INPUT_DIM))
        out = gate_output(gate, Tensor(stacked), Tensor(x)).data
        assert np.array_equal(out, weights[0] * stacked[1]
                              + weights[1] * stacked[3])


# A NaN gate weight makes every mixing weight NaN; the check must raise
# ValueError, also under `python -O`, which strips `assert` statements.
NAN_GATE_CHECK = """
import numpy as np
from flowmoe.fusion import GateConfig, gate_output
from flowmoe.nn import INPUT_DIM, Tensor
gate = GateConfig.trainable("t", (0, 2), 3)
gate.linear["w"].data[0, 1] = np.nan
try:
    gate_output(gate, Tensor(np.ones((3, INPUT_DIM))), Tensor(np.ones(INPUT_DIM)))
except ValueError as exc:
    print("ValueError:", exc)
"""


def test_gate_output_rejects_non_finite_weights(capsys):
    exec(NAN_GATE_CHECK, {})
    assert "non-finite mixing weights" in capsys.readouterr().out


def test_gate_non_finite_check_survives_python_O():
    src = os.path.dirname(os.path.dirname(flowmoe.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    # the leading `assert False` only passes when -O has stripped it
    child = subprocess.run([sys.executable, "-O", "-c",
                            "assert False\n" + NAN_GATE_CHECK],
                           env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert "non-finite mixing weights" in child.stdout


def test_gate_empty_subset_rejected():
    with pytest.raises(ValueError, match="empty"):
        GateConfig("t", (), 2)


def test_gate_linearity_superposition(rng):
    gate = GateConfig("t", (0, 1, 2), 3)
    a = rng.normal(size=(3, INPUT_DIM))
    b = rng.normal(size=(3, INPUT_DIM))
    lhs = gate_output(gate, Tensor(2.0 * a + 3.0 * b)).data
    rhs = (2.0 * gate_output(gate, Tensor(a)).data
           + 3.0 * gate_output(gate, Tensor(b)).data)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def _gate_cases(rng):
    """Fixed and trainable gates over subsets in and out of expert order."""
    for subset in ((0, 2), (2, 0, 1), (1,)):
        yield GateConfig("t", subset, 3)
        gate = GateConfig.trainable("t", subset, 3)
        k = len(subset)
        gate.linear["w"].data = rng.normal(size=(INPUT_DIM, k)) * 0.05
        gate.linear["b"].data = rng.normal(size=k)
        yield gate


@pytest.mark.parametrize("rows", [None, 9], ids=["one-input", "batch"])
def test_gate_mix_matches_composed_oracle(rng, rows):
    lead = () if rows is None else (rows,)
    for gate in _gate_cases(rng):
        stacked = rng.normal(size=(3,) + lead + (INPUT_DIM,))
        x = rng.random(lead + (INPUT_DIM,))
        out = gate_output(gate, Tensor(stacked), Tensor(x)).data
        ref = composed_gate_output(gate, Tensor(stacked), Tensor(x)).data
        assert out.shape == ref.shape == lead + (INPUT_DIM,)
        assert np.max(np.abs(out - ref)) <= 1e-12, gate
        if gate.linear is not None:
            ref_delta = composed_gate_weights(gate, Tensor(x)).data
            weights = mixing_weights(x, gate.linear["w"].data,
                                     gate.linear["b"].data)
            assert np.max(np.abs(weights - ref_delta[..., list(gate.subset)])
                          ) <= 1e-15


def test_gate_mix_gradients_match_composed_oracle(rng):
    stacked = Tensor(rng.normal(size=(3, 9, INPUT_DIM)), requires_grad=True)
    x = Tensor(rng.random((9, INPUT_DIM)))
    g = rng.normal(size=(9, INPUT_DIM))
    for gate in _gate_cases(rng):
        grads = []
        sets = [] if gate.linear is None else [gate.linear]
        params = [stacked] + [t for ps in sets for t in ps.tensors()]
        for mix in (gate_output, composed_gate_output):
            for t in params:
                t.grad = None
            with training(*sets):
                mix(gate, stacked, x).backward(g)
            grads.append([t.grad for t in params])
        for got, ref in zip(*grads):
            scale = np.max(np.abs(ref))
            np.testing.assert_allclose(got, ref, rtol=1e-10,
                                       atol=1e-12 * scale + 1e-15)


def test_gate_mix_holds_no_expert_stack_sized_array(rng):
    # n = 2 experts, B = 128 rows: the composed mix held the (n, B, 912)
    # product next to its output and more (B, 912) arrays in its backward
    n, rows = 2, 128
    gate = GateConfig.trainable("t", (1, 0), n)
    gate.linear["w"].data = rng.normal(size=(INPUT_DIM, n)) * 0.05
    stacked = Tensor(rng.normal(size=(n, rows, INPUT_DIM)))
    x = Tensor(rng.random((rows, INPUT_DIM)))
    g = rng.normal(size=(rows, INPUT_DIM))

    def forward_and_backward(mix):
        gate.linear.zero_grad()
        with training(gate.linear):
            mix(gate, stacked, x).backward(g)

    array_bytes = rows * INPUT_DIM * 8         # one (B, 912) array
    _, peak = traced_peak(forward_and_backward, gate_output)
    _, composed_peak = traced_peak(forward_and_backward, composed_gate_output)
    assert peak <= 2.5 * array_bytes < composed_peak
    assert all(t.grad is not None for t in gate.linear.tensors())


def _independent(*experts):
    """Tower-less Mode I model with one task per expert, in order."""
    return fusion_structure(list(experts), TaskRelation(
        FusionMode.MODE_I, [TaskSpec(f"t{j}", experts=(j,))
                            for j in range(len(experts))]))


def test_concat_representations_rows(trained_experts, two_task_data, rng):
    app, encap = trained_experts
    x = two_task_data[2].features[:1]
    single = concat_representations(_independent(app), x)
    assert single.shape == (1, 1, INPUT_DIM)
    assert np.array_equal(single[0], expert_representation(app, x))
    stacked = concat_representations(_independent(app, encap), x)
    assert stacked.shape == (2, 1, INPUT_DIM)
    assert np.array_equal(stacked[0], expert_representation(app, x))
    assert np.array_equal(stacked[1], expert_representation(encap, x))
    # permuting experts permutes rows
    swapped = concat_representations(_independent(encap, app), x)
    assert np.array_equal(swapped[0], stacked[1])
    assert np.array_equal(swapped[1], stacked[0])


@pytest.mark.parametrize("rows", [1, 31, 32, 33, 65])
@pytest.mark.parametrize("n_experts", [1, 2, 3])
def test_stacked_pass_matches_per_expert_oracle(n_experts, rows):
    # blocks of EVAL_ROWS // n rows: 32, 16 and 10 rows for 1, 2, 3 experts
    experts = [ExpertModel(id=f"e{j}", head=None, label_map=["a", "b"],
                           encoder=init_encoder(np.random.default_rng(j)))
               for j in range(n_experts)]
    x = np.random.default_rng(rows).random((rows, INPUT_DIM))
    expected = per_expert_representations(experts, x)
    fused = _independent(*experts)
    out = concat_representations(fused, x)
    assert out.shape == (n_experts, rows, INPUT_DIM)
    assert np.array_equal(out, expected)
    assert np.array_equal(concat_representations(fused, x[:1]),
                          expected[:, :1])


def test_single_flow_classify_matches_its_batch_row(trained_experts,
                                                    two_task_data):
    fused = configure_fusion(list(trained_experts), _mode1_relation(), seed=2)
    rng = np.random.default_rng(7)
    for task, tower in fused.towers.items():   # zeroed outputs hide mix-ups
        for t in tower.tensors():
            t.data = rng.normal(scale=0.05, size=t.data.shape)
    X = two_task_data[2].features[:40]
    reps = concat_representations(fused, X)
    batch = classify_batch(fused, X)
    for i in range(len(X)):
        assert np.array_equal(concat_representations(fused, X[i:i + 1]),
                              reps[:, i:i + 1])
        single = classify(fused, X[i])
        for task in fused.task_ids:
            assert single[task].label_index == batch[task][0][i]
            # the towers' 1-row product takes numpy's matrix-vector path,
            # which may round the last bit differently from the batch GEMM
            assert np.allclose(single[task].confidences, batch[task][1][i],
                               rtol=0, atol=1e-15)


def test_classify_fine_tune_and_tower_objective_run_one_stacked_pass(
        trained_experts, two_task_data, monkeypatch):
    import flowmoe.expert as expert_mod
    from flowmoe.diagnostics import TowerObjective
    from flowmoe.expert import TrainConfig
    weights = []
    real = expert_mod.encoder_forward

    def recording(params, x, *args, **kwargs):
        weights.append(params["attn.q.w"].data.shape)
        return real(params, x, *args, **kwargs)

    monkeypatch.setattr(expert_mod, "encoder_forward", recording)
    # one block of the two-expert stack: EVAL_ROWS // 2 rows
    train = two_task_data[0].subset(np.arange(expert_mod.EVAL_ROWS // 2))
    fused = configure_fusion(list(trained_experts), _mode1_relation(), seed=3)
    stacked = (2, 1, 38, 38)
    classify_batch(fused, train.features)
    assert weights == [stacked]
    weights.clear()
    fine_tune(fused, train, TrainConfig(learning_rate=1e-4, batch_size=32,
                                        epochs=1, dropout_rate=0.0, seed=1))
    assert weights == [stacked]
    weights.clear()
    TowerObjective(fused, train)
    assert weights == [stacked]


def test_unfreeze_fine_tune_leaves_the_given_experts_and_other_models(
        trained_experts, two_task_data):
    # each fused model owns a copy of its experts' encoders: training one
    # model's stack reaches neither the caller's experts nor another model
    # built from them
    from flowmoe.expert import TrainConfig
    app, encap = trained_experts
    given = [(state_dict(e.encoder), state_dict(e.head)) for e in (app, encap)]
    first = configure_fusion([app, encap], _mode1_relation(), seed=3)
    # the second model stacks the same experts in the other order
    second = _random_heads(configure_fusion([encap, app], TaskRelation(
        FusionMode.MODE_I, [TaskSpec("encap", experts=(0,)),
                            TaskSpec("app", experts=(1,))]), seed=4), 5)
    X = two_task_data[2].features[:20]
    second_before = classify_batch(second, X)
    trained_before = concat_representations(first, X)
    fine_tune(first, two_task_data[0].subset(np.arange(64)),
              TrainConfig(learning_rate=1e-3, batch_size=32, epochs=1,
                          dropout_rate=0.0, seed=1), unfreeze_experts=True)
    assert not np.array_equal(concat_representations(first, X),
                              trained_before)
    for expert, (enc, head) in zip((app, encap), given):
        assert all(np.array_equal(expert.encoder[n].data, arr)
                   for n, arr in enc.items())
        assert all(np.array_equal(expert.head[n].data, arr)
                   for n, arr in head.items())
    assert np.array_equal(concat_representations(second, X),
                          per_expert_representations([encap, app], X))
    for task, (labels, probs) in classify_batch(second, X).items():
        assert np.array_equal(labels, second_before[task][0])
        assert np.array_equal(probs, second_before[task][1])
    assert all(e.encoder is None and e.head is None
               for model in (first, second) for e in model.experts)


def _stack_slices(model):
    """Each expert of `model` as a standalone encoder, copied out of the
    model's stack slice by slice (as `save_fused` writes them)."""
    shapes = encoder_shapes()
    encoders = []
    for j in range(len(model.experts)):
        enc = ParamSet()
        for name, t in model.encoder.items():
            enc.add(name, t.data[j].reshape(shapes[name]))
        encoders.append(ExpertModel(id=model.experts[j].id, head=None,
                                    label_map=model.experts[j].label_map,
                                    encoder=enc))
    return encoders


def test_shared_experts_classify_from_encoders_trained_by_either_model(
        trained_experts, two_task_data):
    # two models built from the same experts each train and read their own
    # stack: after an unfreeze fine-tune of each, every model classifies
    # from the encoders its own fine-tune left behind
    from flowmoe.expert import TrainConfig
    app, encap = trained_experts
    first = configure_fusion([app, encap], _mode1_relation(), seed=3)
    # the second model stacks the same experts in the other order
    second = configure_fusion([encap, app], TaskRelation(
        FusionMode.MODE_I, [TaskSpec("encap", experts=(0,)),
                            TaskSpec("app", experts=(1,))]), seed=4)
    X = two_task_data[2].features[:20]
    cfg = TrainConfig(learning_rate=1e-3, batch_size=32, epochs=1,
                      dropout_rate=0.0, seed=1)
    for model in (first, second):
        before = per_expert_representations(_stack_slices(model), X)
        fine_tune(model, two_task_data[0].subset(np.arange(64)), cfg,
                  unfreeze_experts=True)
        assert not np.array_equal(
            per_expert_representations(_stack_slices(model), X), before)
    assert not np.array_equal(first.encoder["ff.1.w"].data[0],
                              second.encoder["ff.1.w"].data[1])
    for model in (first, second, first):
        reps = per_expert_representations(_stack_slices(model), X)
        assert np.array_equal(concat_representations(model, X), reps)
        gated = {t: gate_output(model.gates[t], Tensor(reps))
                 for t in model.task_ids}
        logits = tower_forward(model, gated)[0]
        for task, (_labels, probs) in classify_batch(model, X).items():
            assert np.array_equal(probs, softmax(logits[task]).data)


def test_deep_copied_model_reads_its_own_experts():
    experts = [ExpertModel(id=f"e{j}", head=None, label_map=["a", "b"],
                           encoder=init_encoder(np.random.default_rng(j)))
               for j in range(2)]
    original = _independent(*experts)
    clone = copy.deepcopy(original)
    clone.encoder["ff.1.w"].data[0] += 0.1   # in place, as Adam does
    x = np.random.default_rng(1).random((3, INPUT_DIM))
    assert np.array_equal(concat_representations(clone, x),
                          per_expert_representations(_stack_slices(clone), x))
    assert not np.array_equal(concat_representations(clone, x),
                              concat_representations(original, x))
    assert np.array_equal(concat_representations(original, x),
                          per_expert_representations(experts, x))


def _mode1_relation():
    return TaskRelation(mode=FusionMode.MODE_I,
                        tasks=[TaskSpec("app", experts=(0,)),
                               TaskSpec("encap", experts=(1,))])


def test_configure_mode1(trained_experts):
    fused = configure_fusion(list(trained_experts), _mode1_relation(), seed=1)
    assert fused.task_ids == ["app", "encap"]
    assert all(g.linear is None and len(g.subset) == 1
               for g in fused.gates.values())
    assert fused.towers["app"]["fc2.b"].data.size == 3
    assert fused.towers["encap"]["fc2.b"].data.size == 2
    assert frozen(fused.encoder)


def test_configure_mode2_union_count(trained_experts):
    app, encap = trained_experts
    rel = TaskRelation(mode=FusionMode.MODE_II,
                       tasks=[TaskSpec("joint", experts=(0, 1))])
    fused = configure_fusion([app, encap], rel, seed=1)
    union = fused.label_maps["joint"]
    # oracle: union of the two label maps, first-expert order first
    expected = list(app.label_map) + [n for n in encap.label_map
                                      if n not in app.label_map]
    assert union == expected
    assert fused.towers["joint"]["fc2.b"].data.size == len(expected)
    assert fused.gates["joint"].linear is None


def test_configure_mode2_rejects_bad_union(trained_experts):
    rel = TaskRelation(mode=FusionMode.MODE_II,
                       tasks=[TaskSpec("joint", experts=(0, 1),
                                       labels=["video", "chat"])])
    with pytest.raises(ValueError, match="union"):
        configure_fusion(list(trained_experts), rel, seed=1)


def test_configure_mode3_shapes(trained_experts):
    app, encap = trained_experts
    nesting = {"video": "plain", "chat": "vpn", "mail": "plain"}
    rel = TaskRelation(mode=FusionMode.MODE_III, nesting=nesting,
                       tasks=[TaskSpec("encap", experts=(1,),
                                       labels=["plain", "vpn"]),
                              TaskSpec("app", labels=["video", "chat", "mail"])])
    fused = configure_fusion([app, encap], rel, seed=1)
    assert fused.gates["encap"].linear is not None
    assert fused.gates["app"].linear is not None
    assert fused.gates["app"].subset == (0, 1)
    assert fused.towers["encap"]["fc2.b"].data.size == 2
    assert fused.towers["app"]["fc2.b"].data.size == 3


def test_configure_mode3_rejects_non_nested(trained_experts):
    rel = TaskRelation(mode=FusionMode.MODE_III,
                       nesting={"video": "nosuch"},
                       tasks=[TaskSpec("encap", experts=(1,),
                                       labels=["plain", "vpn"]),
                              TaskSpec("app", labels=["video"])])
    with pytest.raises(ValueError, match="non-nested"):
        configure_fusion(list(trained_experts), rel, seed=1)


def test_configure_mode3_rejects_a_nesting_key_that_is_not_a_fine_label(
        trained_experts):
    rel = TaskRelation(mode=FusionMode.MODE_III,
                       nesting={"t0": "plain", "t1": "vpn", "t9": "vpn"},
                       tasks=[TaskSpec("encap", experts=(1,)),
                              TaskSpec("fine", labels=["t0", "t1"])])
    with pytest.raises(ValueError, match=r"^non-nested label maps: nesting "
                                         r"keys \['t9'\] are not fine "
                                         r"labels$"):
        fusion_structure(list(trained_experts), rel)


def test_predict_serves_both_model_kinds(trained_experts, two_task_data):
    X = two_task_data[2].features[:40]
    app = trained_experts[0]
    assert (app.task_ids, app.label_maps) == (["app"], {"app": app.label_map})
    probs = expert_predict(app, X)
    served = predict(app, X)
    assert list(served) == ["app"]
    assert np.array_equal(served["app"][0], np.argmax(probs, axis=1))
    assert np.array_equal(served["app"][1], probs)
    fused = configure_fusion(list(trained_experts), _mode1_relation(), seed=2)
    served, batch = predict(fused, X), classify_batch(fused, X)
    assert list(served) == list(batch) == ["app", "encap"]
    for task, (indices, task_probs) in batch.items():
        assert np.array_equal(served[task][0], indices)
        assert np.array_equal(served[task][1], task_probs)


def test_classify_matches_standalone_path(trained_experts, two_task_data):
    fused = configure_fusion(list(trained_experts), _mode1_relation(), seed=2)
    test = two_task_data[2]
    for i in range(5):
        x = test.features[i:i + 1]
        result = classify(fused, x)
        assert set(result) == {"app", "encap"}
        for task, expert in zip(("app", "encap"), trained_experts):
            rep = expert_representation(expert, x)
            logits = tower_forward(fused, {task: Tensor(rep)})[0][task]
            probs = softmax(logits).data
            assert np.argmax(probs) == result[task].label_index
            assert np.allclose(probs, result[task].confidences, atol=1e-15)
            assert abs(result[task].confidences.sum() - 1.0) < 1e-9


def test_classify_batch_equals_per_sample(trained_experts, two_task_data):
    fused = configure_fusion(list(trained_experts), _mode1_relation(), seed=2)
    X = two_task_data[2].features[:8]
    batch = classify_batch(fused, X)
    for i in range(8):
        single = classify(fused, X[i])
        for task in fused.task_ids:
            assert batch[task][0][i] == single[task].label_index
            assert np.allclose(batch[task][1][i], single[task].confidences,
                               atol=1e-15)


def _random_heads(fused, seed):
    """Random towers and trainable-gate linears (zero-initialized ones hide
    mix-ups and make the gates input-independent)."""
    rng = np.random.default_rng(seed)
    for params in [*fused.towers.values(),
                   *(g.linear for g in fused.gates.values()
                     if g.linear is not None)]:
        for t in params.tensors():
            t.data = rng.normal(scale=0.05, size=t.data.shape)
    return fused


def _recording_tower_rows(monkeypatch):
    """The row count of every `tower_forward` call, as a list."""
    import flowmoe.fusion as fusion
    rows = []
    real = fusion.tower_forward

    def recording(model, gated, *args, **kwargs):
        rows.append(next(iter(gated.values())).shape[0])
        return real(model, gated, *args, **kwargs)

    monkeypatch.setattr(fusion, "tower_forward", recording)
    return rows


@pytest.mark.parametrize("mode", list(FusionMode), ids=lambda m: m.value)
def test_chunked_classify_matches_one_pass(trained_experts, mode,
                                           monkeypatch):
    import flowmoe.fusion as fusion
    fused = _random_heads(configure_fusion(list(trained_experts),
                                           _relation(mode), seed=3), 5)
    X = np.random.default_rng(701).random((701, INPUT_DIM))
    rows = _recording_tower_rows(monkeypatch)
    chunked = classify_batch(fused, X)
    assert rows == [256, 256, 189] and fusion.CLASSIFY_ROWS == 256
    monkeypatch.setattr(fusion, "CLASSIFY_ROWS", len(X))
    whole = classify_batch(fused, X)
    assert rows[3:] == [701]
    for task in fused.task_ids:
        assert np.array_equal(chunked[task][0], whole[task][0])
        if mode is FusionMode.MODE_III:
            # a (912, 2) gate product's bits depend on the call's row count
            assert np.allclose(chunked[task][1], whole[task][1],
                               rtol=0, atol=1e-15)
        else:
            assert np.array_equal(chunked[task][1], whole[task][1])


@pytest.mark.parametrize("n, chunks", [(35, [16, 19]), (36, [16, 20]),
                                       (37, [16, 16, 5]), (3, [3])])
def test_classify_tail_below_five_rows_joins_the_previous_chunk(
        trained_experts, monkeypatch, n, chunks):
    import flowmoe.fusion as fusion
    fused = _random_heads(configure_fusion(list(trained_experts),
                                           _mode1_relation(), seed=3), 5)
    X = np.random.default_rng(n).random((n, INPUT_DIM))
    monkeypatch.setattr(fusion, "CLASSIFY_ROWS", 16)
    rows = _recording_tower_rows(monkeypatch)
    chunked = classify_batch(fused, X)
    assert rows == chunks
    monkeypatch.setattr(fusion, "CLASSIFY_ROWS", n)
    whole = classify_batch(fused, X)
    for task in fused.task_ids:
        assert np.array_equal(chunked[task][0], whole[task][0])
        assert np.array_equal(chunked[task][1], whole[task][1])


def test_classify_of_no_rows_gives_empty_outputs(trained_experts):
    fused = configure_fusion(list(trained_experts), _mode1_relation(), seed=3)
    out = classify_batch(fused, np.zeros((0, INPUT_DIM)))
    for task in fused.task_ids:
        indices, probs = out[task]
        assert indices.shape == (0,)
        assert probs.shape == (0, len(fused.label_maps[task]))


def test_classify_takes_exactly_one_flow(trained_experts, two_task_data):
    fused = configure_fusion(list(trained_experts), _mode1_relation(), seed=3)
    X = two_task_data[2].features
    flat, row = classify(fused, X[0]), classify(fused, X[:1])
    for task in fused.task_ids:
        assert flat[task].label_index == row[task].label_index
        assert np.array_equal(flat[task].confidences, row[task].confidences)
    for bad in (X[:3], X[:0], X[0, :100], X[None, :1]):
        shape = re.escape(str(bad.shape))
        with pytest.raises(ValueError, match=f"got {shape}; use classify_batch"):
            classify(fused, bad)


def test_classify_batch_takes_only_row_batches(trained_experts,
                                               two_task_data):
    fused = configure_fusion(list(trained_experts), _mode1_relation(), seed=3)
    X = two_task_data[2].features
    for bad in (X[0], X[None, :2], X[:2, :100]):
        shape = re.escape(str(bad.shape))
        with pytest.raises(ValueError, match=f"got shape {shape}$"):
            classify_batch(fused, bad)


@pytest.mark.parametrize("mode", list(FusionMode), ids=lambda m: m.value)
def test_eval_gives_the_same_bits_on_trainable_and_frozen_models(
        trained_experts, two_task_data, mode):
    # inside a training scope evaluation records a graph; its outputs
    # must not differ from those of the same model at rest
    X = two_task_data[2].features[:40]
    model = _random_heads(configure_fusion(
        list(trained_experts), _relation(mode), seed=3), 5)
    expert = trained_experts[0]

    def evaluate():
        return (expert_representation(model, X), classify_batch(model, X),
                expert_representation(expert, X), expert_predict(expert, X))

    at_rest = evaluate()
    with training(model.encoder, *model.towers.values(),
                  *(g.linear for g in model.gates.values()
                    if g.linear is not None), expert.encoder, expert.head):
        assert encoder_forward(model.encoder, X[:2]).requires_grad
        scoped = evaluate()
    assert np.array_equal(scoped[0], at_rest[0])
    for task in model.task_ids:
        assert np.array_equal(scoped[1][task][0], at_rest[1][task][0])
        assert np.array_equal(scoped[1][task][1], at_rest[1][task][1])
    assert np.array_equal(scoped[2], at_rest[2])
    assert np.array_equal(scoped[3], at_rest[3])


def test_negative_loss_weight_in_a_fusion_config_is_rejected(
        trained_experts, tmp_path):
    cfg = tmp_path / "fusion.cfg"
    text = ("[experts]\nfiles = a.snke b.snke\n\n[fusion]\nmode = I\n\n"
            "[task:app]\nexperts = 0\nalpha = {}\n\n"
            "[task:encap]\nexperts = 1\n")
    cfg.write_text(text.format("-1"))
    relation = load_fusion_config(cfg)[1]
    with pytest.raises(ValueError,
                       match=r"^task 'app': negative loss weight -1\.0$"):
        configure_fusion(list(trained_experts), relation)
    # a zero weight trains that task's tower not at all, but is allowed
    cfg.write_text(text.format("0"))
    fused = configure_fusion(list(trained_experts),
                             load_fusion_config(cfg)[1])
    assert fused.loss_weights == {"app": 0.0, "encap": 1.0}


@pytest.mark.parametrize("mode", [FusionMode.MODE_I, FusionMode.MODE_III],
                         ids=lambda m: m.value)
def test_classify_transient_memory_does_not_grow_with_rows(trained_experts,
                                                           mode):
    fused = _random_heads(configure_fusion(list(trained_experts),
                                           _relation(mode), seed=3), 5)
    transient = []
    for n in (256, 2048):
        X = np.random.default_rng(n).random((n, INPUT_DIM))
        out, peak = traced_peak(classify_batch, fused, X)
        outputs = sum(a.nbytes for pair in out.values() for a in pair)
        transient.append(peak - outputs)
    # one pass would hold the (2, n, 912) representations: +26 MB at 2,048
    assert abs(transient[1] - transient[0]) < 1e6, transient


def _random_experts(n):
    return [ExpertModel(id=f"e{j}", head=None, label_map=[f"l{j}", f"l{j + 1}"],
                        encoder=init_encoder(np.random.default_rng(j)))
            for j in range(n)]


def _fixed_gate_model():
    """Tower-less model over two random experts with every fixed gate kind:
    one-expert (Mode I) and uniform over both (Mode II)."""
    return fusion_structure(_random_experts(2), [
        TaskRelation(FusionMode.MODE_I, [TaskSpec("t0", experts=(0,)),
                                          TaskSpec("t1", experts=(1,))]),
        TaskRelation(FusionMode.MODE_II, [TaskSpec("union", experts=(0, 1))])])


@pytest.mark.parametrize("n, chunks", [(516, [256, 260]),
                                       (600, [256, 256, 88])])
def test_gated_inputs_match_one_gate_output_over_the_whole_stack(n, chunks):
    # 516 rows leave a 4-row tail, which joins the last chunk
    model = _fixed_gate_model()
    X = np.random.default_rng(n).random((n, INPUT_DIM))
    whole = concat_representations(model, X)
    want = {t: gate_output(g, Tensor(whole)).data
            for t, g in model.gates.items()}
    tasks = model.task_ids
    assert [rows.stop - rows.start
            for rows, _ in gated_chunks(model, X, tasks)] == chunks
    got = gated_inputs(model, X, tasks)
    assert list(got) == tasks
    for task in tasks:
        assert np.array_equal(got[task], want[task]), task


def test_fine_tune_and_tower_objective_memory_does_not_grow_with_rows():
    from flowmoe.data import LabeledDataset
    from flowmoe.diagnostics import TowerObjective
    from flowmoe.expert import TrainConfig
    cfg = TrainConfig(learning_rate=1e-3, batch_size=128, epochs=1,
                      dropout_rate=0.0, seed=1)
    transient = {"fine_tune": [], "TowerObjective": []}
    for n in (300, 1200):
        model = configure_fusion(_random_experts(2), TaskRelation(
            FusionMode.MODE_II, [TaskSpec("u", experts=(0, 1))]), seed=1)
        rng = np.random.default_rng(n)
        data = LabeledDataset(rng.random((n, INPUT_DIM)),
                              {"u": rng.integers(0, 3, n)},
                              {"u": ["l0", "l1", "l2"]}, list(range(n)))
        inputs = n * INPUT_DIM * 8           # the task's (n, 912) input
        _, peak = traced_peak(fine_tune, model, data, cfg)
        transient["fine_tune"].append(peak - inputs)
        _, peak = traced_peak(TowerObjective, model, data)
        transient["TowerObjective"].append(peak - inputs)
    # a whole-n pass held the (2, n, 912) representations: +12.5 MiB for
    # fine_tune and +18.8 MiB for TowerObjective at 1,200 rows
    for name, (small, large) in transient.items():
        assert abs(large - small) < 1e6, (name, small, large)


def test_fine_tune_freezes_experts_and_isolates_tasks(trained_experts,
                                                      two_task_data):
    from flowmoe.expert import TrainConfig
    train = two_task_data[0]
    fused = configure_fusion(list(trained_experts), _mode1_relation(), seed=3)
    before = state_dict(fused.encoder)
    cfg = TrainConfig(learning_rate=1e-4, batch_size=32, epochs=2,
                      dropout_rate=0.0, seed=1)
    fused, trace = fine_tune(fused, train, cfg)
    assert len(trace) == 2
    assert trace[1]["total"] < trace[0]["total"]
    for name, arr in before.items():
        assert np.array_equal(fused.encoder[name].data, arr)

    # task isolation at the literal gradient level
    reps = concat_representations(fused, train.features[:16])
    x = train.features[:16]
    app_tower, enc_tower = fused.towers["app"], fused.towers["encap"]
    gated = gate_output(fused.gates["app"], Tensor(reps), Tensor(x)).data
    with training(app_tower, enc_tower):
        loss = cross_entropy(head_forward(app_tower, Tensor(gated)),
                             train.labels["app"][:16])
        app_grads, enc_grads = backward(loss, app_tower, enc_tower)
    assert set(app_grads) == set(dict(app_tower.items()))
    assert enc_grads == {}


def test_fine_tune_rejects_missing_task(trained_experts, two_task_data):
    train = two_task_data[0]
    fused = configure_fusion(list(trained_experts), _mode1_relation(), seed=3)
    only_app = dataclasses.replace(train, labels={"app": train.labels["app"]},
                                   label_maps={"app": train.label_maps["app"]})
    with pytest.raises(ValueError, match="encap"):
        fine_tune(fused, only_app, TrainConfig(epochs=1))


def test_fine_tune_rejects_non_finite_loss(trained_experts, two_task_data):
    # ReLU passes a NaN on, so a NaN tower weight reaches the loss; the
    # epoch guard must stop the run instead of training on NaN
    from flowmoe.expert import TrainConfig
    train = two_task_data[0].subset(np.arange(64))
    fused = configure_fusion(list(trained_experts), _mode1_relation(), seed=3)
    fused.towers["app"]["fc1.w"].data[0, 0] = np.nan
    cfg = TrainConfig(learning_rate=1e-3, batch_size=32, epochs=2,
                      dropout_rate=0.0, seed=1)
    with pytest.raises(ArithmeticError, match="epoch 0"):
        fine_tune(fused, train, cfg)


def test_fine_tune_unfreeze_experts_updates_encoders(trained_experts,
                                                     two_task_data):
    from flowmoe.expert import TrainConfig
    train = two_task_data[0].subset(np.arange(64))
    fused = configure_fusion(list(trained_experts), _mode1_relation(), seed=3)
    before = state_dict(fused.encoder)
    cfg = TrainConfig(learning_rate=1e-3, batch_size=32, epochs=1,
                      dropout_rate=0.0, seed=1)
    fused, _ = fine_tune(fused, train, cfg, unfreeze_experts=True)
    # every expert's slice of the stack trained
    for j in range(len(trained_experts)):
        assert any(not np.array_equal(fused.encoder[n].data[j], arr[j])
                   for n, arr in before.items())
    # re-locked afterwards
    assert frozen(fused.encoder)


def _relation(mode):
    """Per mode, a relation that leaves some labels to be resolved."""
    if mode is FusionMode.MODE_I:
        return _mode1_relation()
    if mode is FusionMode.MODE_II:
        return TaskRelation(mode, [TaskSpec("joint", experts=(1, 0),
                                            alpha=0.5)])
    return TaskRelation(mode, nesting={"video": "plain", "chat": "vpn",
                                       "mail": "plain"},
                        tasks=[TaskSpec("encap", experts=(1,)),
                               TaskSpec("app", alpha=0.25)])


@pytest.mark.parametrize("mode", list(FusionMode), ids=lambda m: m.value)
def test_multitask_tower_forward_contract(trained_experts, two_task_data, mode):
    fused = configure_fusion(list(trained_experts), _relation(mode), seed=3)
    rng = np.random.default_rng(11)
    for task, alpha in zip(fused.task_ids, (0.5, 0.25)):
        fused.loss_weights[task] = alpha
        for t in fused.towers[task].tensors():   # zeroed outputs hide mix-ups
            t.data = rng.normal(scale=0.05, size=t.data.shape)
    features = two_task_data[2].features[:12]
    stacked = Tensor(concat_representations(fused, features))
    x = Tensor(features)
    gated = {t: gate_output(fused.gates[t], stacked, x) for t in fused.task_ids}
    labels = {t: rng.integers(len(fused.label_maps[t]), size=12)
              for t in fused.task_ids}
    with training(*fused.towers.values()):
        logits, losses, total = tower_forward(fused, gated, labels)
        grads = backward(total, *fused.towers.values())
    assert list(logits) == list(losses) == fused.task_ids

    # oracle: each tower and cross-entropy by hand, alpha-weighted sum in
    # task order
    expected = None
    for task in fused.task_ids:
        z = head_forward(fused.towers[task], gated[task])
        assert np.array_equal(logits[task].data, z.data)
        assert logits[task].shape == (12, len(fused.label_maps[task]))
        ce = cross_entropy(z, labels[task]).item()
        assert losses[task].item() == ce
        term = ce * fused.loss_weights[task]
        expected = term if expected is None else expected + term
    assert total.item() == expected
    assert all(set(g) == set(dict(fused.towers[t].items()))
               for t, g in zip(fused.towers, grads))

    # without labels: logits only
    bare, no_losses, no_total = tower_forward(fused, gated)
    assert no_losses == {} and no_total is None
    assert all(np.array_equal(bare[t].data, logits[t].data) for t in logits)


def test_fine_tune_gd_and_classify_reach_tower_forward(
        trained_experts, two_task_data, monkeypatch):
    import flowmoe.fusion as fusion
    from flowmoe.diagnostics import TowerObjective
    from flowmoe.expert import TrainConfig
    calls = []
    real = fusion.tower_forward

    def recording(model, gated, labels=None, **kwargs):
        calls.append((list(gated), labels is not None,
                      kwargs.get("dropout_stream") is not None))
        return real(model, gated, labels, **kwargs)

    monkeypatch.setattr(fusion, "tower_forward", recording)
    train = two_task_data[0].subset(np.arange(32))
    fused = configure_fusion(list(trained_experts), _mode1_relation(), seed=3)
    tasks = ["app", "encap"]
    fine_tune(fused, train, TrainConfig(learning_rate=1e-4, batch_size=32,
                                        epochs=1, dropout_rate=0.0, seed=1))
    assert calls == [(tasks, True, True)]
    calls.clear()
    TowerObjective(fused, train).loss_and_grad()
    assert calls == [(tasks, True, False)]
    calls.clear()
    classify_batch(fused, train.features[:4])
    assert calls == [(tasks, False, False)]


@pytest.mark.parametrize("mode", list(FusionMode), ids=lambda m: m.value)
def test_fused_round_trip(tmp_path, trained_experts, two_task_data, mode):
    fused = configure_fusion(list(trained_experts), _relation(mode), seed=3)
    rng = np.random.default_rng(7)
    # zero-initialized output layers and gates would hide a mix-up
    for task in fused.task_ids:
        params = [fused.towers[task]]
        if fused.gates[task].linear is not None:
            params.append(fused.gates[task].linear)
        for t in (t for p in params for t in p.tensors()):
            t.data = rng.normal(scale=0.05, size=t.data.shape)
    path = tmp_path / "fused.snke"
    save_fused(fused, path)
    _kind, loaded = load_any_model(path)

    X = two_task_data[2].features[:10]
    a, b = classify_batch(fused, X), classify_batch(loaded, X)
    for task in fused.task_ids:
        assert np.array_equal(a[task][0], b[task][0])
        assert np.array_equal(a[task][1], b[task][1])
    assert loaded.task_ids == fused.task_ids
    assert loaded.label_maps == fused.label_maps
    assert loaded.loss_weights == fused.loss_weights
    assert loaded.relations == fused.relations
    assert ({t: (g.linear is None, g.subset) for t, g in loaded.gates.items()}
            == {t: (g.linear is None, g.subset) for t, g in fused.gates.items()})
    assert all(e.head is None for e in loaded.experts)

    header, tensors = serial.load_container(path, serial.MODEL_MAGIC)
    assert set(header) == {"kind", "relations", "experts", "tensors"}
    assert not [name for name in tensors if ".head." in name]


def test_unfrozen_fine_tune_round_trips_through_a_fused_file(
        tmp_path, trained_experts, two_task_data):
    # the trained stack is what a saved model holds, expert by expert
    from flowmoe.expert import TrainConfig
    fused = configure_fusion(list(trained_experts), _mode1_relation(), seed=3)
    fine_tune(fused, two_task_data[0].subset(np.arange(64)),
              TrainConfig(learning_rate=1e-3, batch_size=32, epochs=1,
                          dropout_rate=0.0, seed=1), unfreeze_experts=True)
    path = tmp_path / "fused.snke"
    save_fused(fused, path)
    _kind, loaded = load_any_model(path)
    for name, t in fused.encoder.items():
        assert np.array_equal(loaded.encoder[name].data, t.data)
    X = two_task_data[2].features[:10]
    a, b = classify_batch(fused, X), classify_batch(loaded, X)
    for task in fused.task_ids:
        assert np.array_equal(a[task][0], b[task][0])
        assert np.array_equal(a[task][1], b[task][1])


def test_loaded_model_is_built_by_the_fusion_structure_step(
        tmp_path, trained_experts, monkeypatch):
    import flowmoe.fusion as fusion
    path = tmp_path / "fused.snke"
    calls = []
    real = fusion.fusion_structure

    def counting(experts, relations):
        calls.append(len(experts))
        return real(experts, relations)

    monkeypatch.setattr(fusion, "fusion_structure", counting)
    save_fused(configure_fusion(list(trained_experts), _relation(
        FusionMode.MODE_III), seed=1), path)
    assert calls == [2]

    def no_draws(*_args, **_kwargs):
        raise AssertionError("a loaded tower must not be initialized")

    monkeypatch.setattr(fusion, "init_head", no_draws)
    load_any_model(path)
    assert calls == [2, 2]


def test_load_any_model_reads_each_file_once(tmp_path, trained_experts,
                                             monkeypatch):
    expert_path = tmp_path / "app.snke"
    save_expert(trained_experts[0], expert_path)
    fused_path = tmp_path / "fused.snke"
    save_fused(configure_fusion(list(trained_experts), _mode1_relation(),
                                seed=1), fused_path)
    calls = []
    original = serial.load_container

    def counting(path, magic):
        calls.append(path)
        return original(path, magic)

    monkeypatch.setattr(serial, "load_container", counting)
    for path, kind in ((expert_path, "expert"), (fused_path, "fused")):
        calls.clear()
        loaded_kind, model = load_any_model(path)
        assert loaded_kind == kind
        assert calls == [path]
    assert model.task_ids == ["app", "encap"]


def test_per_mode_finetune_defaults():
    from flowmoe.fusion import default_finetune_config
    mode1 = default_finetune_config(FusionMode.MODE_I)
    assert (mode1.learning_rate, mode1.batch_size, mode1.epochs) == (1e-4, 128, 5)
    for mode in (FusionMode.MODE_II, FusionMode.MODE_III):
        cfg = default_finetune_config(mode)
        assert (cfg.learning_rate, cfg.batch_size, cfg.epochs) == (1e-3, 128, 10)


def test_fine_tune_tower_dropout_follows_config(tmp_path, trained_experts,
                                                two_task_data, monkeypatch):
    import flowmoe.fusion as fusion
    cfg_path = tmp_path / "fusion.cfg"
    cfg_path.write_text("[experts]\nfiles = a.snke b.snke\n\n"
                        "[fusion]\nmode = I\nepochs = 1\ndropout = 0.3\n\n"
                        "[task:app]\nexperts = 0\n\n[task:encap]\nexperts = 1\n")
    _paths, relation, options = load_fusion_config(cfg_path)
    assert options["train_config"].dropout_rate == 0.3
    rates = []
    real = fusion.head_forward

    def recording(params, x, **kwargs):
        rates.append(kwargs.get("dropout_rate"))
        return real(params, x, **kwargs)

    monkeypatch.setattr(fusion, "head_forward", recording)
    fused = configure_fusion(list(trained_experts), relation)
    fine_tune(fused, two_task_data[0].subset(np.arange(64)),
              options["train_config"])
    assert rates and set(rates) == {0.3}
    # without the key the fine-tune runs without dropout
    cfg_path.write_text(cfg_path.read_text().replace("dropout = 0.3\n", ""))
    assert load_fusion_config(cfg_path)[2]["train_config"].dropout_rate == 0.0


def test_fusion_config_parsing(tmp_path):
    cfg = tmp_path / "fusion.cfg"
    cfg.write_text(
        "[experts]\nfiles = a.snke b.snke\n\n"
        "[fusion]\nmode = III\nseed = 4\nlr = 5e-4\nepochs = 3\n\n"
        "[task:verdict]\nexperts = 0 1\nlabels = benign malicious\n\n"
        "[task:tool]\nlabels = t0 t1\nalpha = 0.5\n\n"
        "[nesting]\nt0 = benign\nt1 = malicious\n"
    )
    paths, relation, options = load_fusion_config(cfg)
    assert paths == ["a.snke", "b.snke"]
    assert relation.mode is FusionMode.MODE_III
    assert relation.tasks[1].alpha == 0.5
    assert relation.nesting == {"t0": "benign", "t1": "malicious"}
    assert options["train_config"].learning_rate == 5e-4
    assert options["train_config"].epochs == 3
    assert options["train_config"].seed == 4
