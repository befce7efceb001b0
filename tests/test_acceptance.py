"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import filecmp
import time

import numpy as np
import pytest

from flowmoe.diagnostics import (LossTrace, check_convergence,
                                 detect_gate_anomaly, estimate_lipschitz,
                                 run_tower_gd)
from flowmoe.evaluation import compute_metrics
from flowmoe.expert import TrainConfig, train_expert
from flowmoe.fusion import (GateConfig, concat_representations, fine_tune,
                            gate_output)
from flowmoe.ingest import ExtractionConfig, Packet, assemble_flows, \
    extract_features
from flowmoe.nn import (INPUT_DIM, DropoutStream, ParamSet, Tensor, add_norm,
                        backward, cross_entropy, dropout, encoder_forward,
                        head_forward, init_encoder, init_gate_linear,
                        init_head, mixing_weights, relu, training)
from flowmoe.synth import GeneratorSpec, generate_dataset

from composed_gate import composed_gate_weights
from composed_ops import select, softmax, transpose, tsum
from gradcheck import check_gradients
from nn_helpers import state_dict
import scenarios
from test_evaluation import naive_metrics
from test_ingest import brute_force_grouping
from test_synth import nearest_centroid_accuracy

SEEDS = (0, 1, 2, 3, 4)


def _criterion(number, name, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {name}: {state}{suffix}")
    assert ok, f"criterion {number} failed: {name}{suffix}"


@pytest.fixture(scope="module")
def mode1_runs():
    return [scenarios.run_mode1(seed) for seed in SEEDS]


def test_criterion_01_gradient_correctness():
    started = time.time()
    rng = np.random.default_rng(42)
    worst = 0.0

    def check(loss_fn, params, coords=12):
        nonlocal worst
        with training(*params):
            all_grads = backward(loss_fn(), *params)
        for ps, grads in zip(params, all_grads):
            err = check_gradients(lambda: loss_fn().item(), ps, grads,
                                  rel_tol=1e-4, max_coords=coords, rng=rng)
            worst = max(worst, err)

    # linear
    lin = ParamSet()
    lin.add("w", rng.normal(size=(9, 5)))
    lin.add("b", rng.normal(size=5))
    x9 = rng.normal(size=(6, 9))
    coef = rng.normal(size=(6, 5))
    check(lambda: tsum((Tensor(x9) @ lin["w"] + lin["b"]) * coef), (lin,))

    # relu
    ps = ParamSet()
    ps.add("x", rng.normal(size=(7, 7)) + 0.1)
    check(lambda: tsum(relu(ps["x"]) * 2.0), (ps,))

    # dropout in eval mode is the identity path
    ev = ParamSet()
    ev.add("x", rng.normal(size=(5, 5)))
    check(lambda: tsum(ev["x"] * ev["x"]), (ev,))
    # and with a fixed mask the train path stays differentiable
    mask = DropoutStream(5).mask((5, 5), 0.8)
    check(lambda: tsum(dropout(ev["x"], mask, 0.8) * 3.0), (ev,))

    # attention sublayer (projections + softmax mixing)
    att = ParamSet()
    for name in ("q", "k", "v"):
        att.add(name, rng.normal(size=(8, 8)) * 0.3)
    tokens = rng.normal(size=(2, 6, 8))
    mix = rng.normal(size=(2, 6, 8))

    def attention_loss():
        t = Tensor(tokens)
        q, k, v = t @ att["q"], t @ att["k"], t @ att["v"]
        scores = (q @ transpose(k, (0, 2, 1))) * (1.0 / np.sqrt(8))
        return tsum((softmax(scores) @ v) * mix)

    check(attention_loss, (att,))

    # layer norm: add_norm with a constant zero sublayer
    ln = ParamSet()
    ln.add("x", rng.normal(size=(4, 10)))
    ln.add("g", rng.normal(size=10))
    ln.add("b", rng.normal(size=10))
    cf = rng.normal(size=(4, 10))
    zero = Tensor(np.zeros((4, 10)))
    check(lambda: tsum(add_norm(ln["x"], zero, ln["g"], ln["b"]) * cf), (ln,))

    # cross-entropy from logits
    sm = ParamSet()
    sm.add("z", rng.normal(size=(8, 4)))
    labels = rng.integers(0, 4, size=8)
    check(lambda: cross_entropy(sm["z"], labels), (sm,))

    # gate linear (softmax mixing of expert rows)
    gate = init_gate_linear(3)
    gate["w"].data = rng.normal(size=gate["w"].data.shape) * 0.02
    gx = rng.random((4, INPUT_DIM))
    stacked = rng.normal(size=(3, 4, INPUT_DIM))
    glabels = rng.integers(0, 2, size=4)
    gtower = init_head(np.random.default_rng(7), 2)

    def gate_loss():
        delta = softmax(Tensor(gx) @ gate["w"] + gate["b"])
        mixed = None
        for j in range(3):
            term = select(delta, j, axis=1).reshape(4, 1) * Tensor(stacked[j])
            mixed = term if mixed is None else mixed + term
        return cross_entropy(head_forward(gtower, mixed), glabels)

    check(gate_loss, (gate, gtower), coords=8)

    # tower (two-layer head) and the full encoder
    tower = init_head(np.random.default_rng(8), 3)
    tx = rng.random((4, INPUT_DIM))
    tlabels = rng.integers(0, 3, size=4)
    check(lambda: cross_entropy(head_forward(tower, tx), tlabels),
          (tower,), coords=8)

    enc = init_encoder(np.random.default_rng(9))
    ex = rng.random((3, INPUT_DIM))
    ecoef = rng.normal(size=(3, INPUT_DIM))
    check(lambda: tsum(encoder_forward(enc, ex) * ecoef), (enc,), coords=4)

    elapsed = time.time() - started
    _criterion(1, "gradient correctness (finite differences)",
               worst < 1e-4 and elapsed < 60.0,
               f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_gate_mode_contracts():
    rng = np.random.default_rng(7)
    n, trials = 3, 1000
    stacked = rng.normal(size=(n, trials, INPUT_DIM))
    inputs = rng.random((trials, INPUT_DIM))

    default_ok = all(
        np.array_equal(
            gate_output(GateConfig("t", (j,), n), Tensor(stacked)).data,
            stacked[j])
        for j in range(n))

    topk = GateConfig("t", (0, 2), n)
    mean = (stacked[0] + stacked[2]) / 2.0
    topk_ok = np.max(np.abs(gate_output(topk, Tensor(stacked)).data
                            - mean)) < 1e-12

    trainable = GateConfig.trainable("t", (0, 2), n)
    trainable.linear["w"].data = rng.normal(
        size=trainable.linear["w"].data.shape)
    weights = mixing_weights(inputs, trainable.linear["w"].data,
                             trainable.linear["b"].data)
    delta = composed_gate_weights(trainable, Tensor(inputs)).data
    # expert 1 is outside the subset: its NaN rows must not reach the mix
    outside = stacked.copy()
    outside[1] = np.nan
    mixed = gate_output(trainable, Tensor(outside), Tensor(inputs)).data
    simplex_ok = (np.all(weights > 0.0)
                  and np.max(np.abs(weights.sum(axis=1) - 1.0)) < 1e-12
                  and np.max(np.abs(delta[:, [0, 2]] - weights)) <= 1e-15
                  and np.all(delta[:, 1] == 0.0)
                  and np.array_equal(mixed, weights[:, :1] * stacked[0]
                                     + weights[:, 1:] * stacked[2]))
    _criterion(2, "gate mode contracts over 1000 inputs",
               default_ok and topk_ok and simplex_ok)


def test_criterion_03_task_isolation(mode1_runs):
    run = mode1_runs[0]
    fused, test = run["fused"], run["test"]
    X = test.features[:32]
    reps = concat_representations(fused, X)

    isolated = True
    towers = list(fused.towers.values())
    for task in fused.task_ids:
        for tower in towers:
            tower.zero_grad()
        gated = gate_output(fused.gates[task], Tensor(reps), Tensor(X)).data
        with training(*towers):
            cross_entropy(head_forward(fused.towers[task], Tensor(gated)),
                          test.labels[task][:32]).backward()
        for other, tower in fused.towers.items():
            grads_present = any(t.grad is not None and np.any(t.grad)
                                for t in tower.tensors())
            if other == task and not grads_present:
                isolated = False
            if other != task and grads_present:
                isolated = False

    # frozen experts bit-identical through a fresh fine-tune: the stacked
    # encoder is the fused model's only copy of their weights
    train = test  # any labeled multi-task data works for this check
    before = state_dict(fused.encoder)
    fine_tune(fused, train, TrainConfig(learning_rate=1e-3, batch_size=32,
                                        epochs=1, dropout_rate=0.0, seed=9))
    frozen_ok = all(np.array_equal(fused.encoder[k].data, v)
                    for k, v in before.items())
    _criterion(3, "task isolation + locked experts", isolated and frozen_ok)


def test_criterion_04_expert_training():
    spec = GeneratorSpec(
        tasks={"app": ["video", "chat", "mail"]},
        class_labels={"c0": {"app": "video"}, "c1": {"app": "chat"},
                      "c2": {"app": "mail"}},
        flows_per_class=200, seed=21, separation=3.0)
    ds = generate_dataset(spec)
    oracle_acc = nearest_centroid_accuracy(ds.features, ds.labels["app"])
    from flowmoe.evaluation import split_dataset
    train, val, test = split_dataset(ds, seed=22)
    started = time.time()
    model, trace = train_expert(train, TrainConfig(seed=23), val_data=val,
                                task_id="app")
    elapsed = time.time() - started
    from flowmoe.evaluation import evaluate
    acc = evaluate(model, test, ["app"])["app"].accuracy
    _criterion(4, "expert training on the separable 3-class set",
               oracle_acc >= 0.99 and len(trace) == 50 and acc >= 0.95
               and elapsed < 600.0,
               f"oracle {oracle_acc:.3f}, test acc {acc:.3f}, {elapsed:.0f}s")


def test_criterion_05_mode1_fusion(mode1_runs):
    gaps = {}
    for task in ("app", "encap"):
        expert_mean = np.mean([r["expert_acc"][task] for r in mode1_runs])
        fused_mean = np.mean([r["fused_acc"][task] for r in mode1_runs])
        gaps[task] = expert_mean - fused_mean
    ok = all(gap <= 0.02 for gap in gaps.values())
    detail = ", ".join(f"{t}: mean gap {g:+.4f}" for t, g in gaps.items())
    _criterion(5, "independent-task fusion within 2 points in <= 5 epochs",
               ok, detail)


def test_criterion_06_mode2_fusion():
    runs = [scenarios.run_mode2(seed) for seed in SEEDS]
    gaps = {}
    for domain in ("domain0", "domain1"):
        expert_mean = np.mean([r["expert_acc"][domain] for r in runs])
        fused_mean = np.mean([r["fused_acc"][domain] for r in runs])
        gaps[domain] = expert_mean - fused_mean
    ok = all(gap <= 0.03 for gap in gaps.values())
    detail = ", ".join(f"{d}: mean gap {g:+.4f}" for d, g in gaps.items())
    _criterion(6, "category-expansion fusion within 3 points per domain",
               ok, detail)


def test_criterion_07_mode3_fusion():
    runs = [scenarios.run_mode3(seed) for seed in SEEDS]
    improvements = [(r["fused_on_new"], r["baseline_on_new"]) for r in runs]
    ok = all(fused > base for fused, base in improvements)
    detail = ", ".join(f"{f:.3f}>{b:.3f}" for f, b in improvements)
    _criterion(7, "refinement fusion beats the stale coarse expert on new "
                  "classes", ok, detail)


def test_criterion_08_convergence_bound(mode1_runs):
    fused = mode1_runs[0]["fused"]
    data = mode1_runs[0]["test"]
    trace, snaps, steps, c_hat, report = run_tower_gd(
        fused, data, steps=150, snapshot_every=10, seed=5)
    gd_ok = (report.verdict == "PASS" and not report.violations
             and report.bound_checked
             and np.all(report.gap[1:] <= report.bound[1:]))

    rng = np.random.default_rng(11)
    quad_ok = True
    for _ in range(20):
        c = float(rng.uniform(0.5, 5.0))
        w0 = float(rng.uniform(0.5, 3.0))
        for mult, expected in ((float(rng.uniform(0.05, 1.0)), "PASS"),
                               (float(rng.uniform(2.05, 3.5)), "VIOLATION")):
            alpha = mult / c
            ws = np.array([w0 * (1 - alpha * c) ** t for t in range(25)])
            losses = 0.5 * c * ws ** 2
            snaps_q = [np.array([w]) for w in ws]
            c_est = estimate_lipschitz(lambda w: c * np.asarray(w), snaps_q)
            rep = check_convergence(LossTrace(losses, alpha), c_hat=c_est,
                                    snapshots=snaps_q,
                                    snapshot_steps=range(len(ws)))
            if rep.verdict != expected:
                quad_ok = False
    _criterion(8, "convergence bound holds on towers + quadratic oracle",
               gd_ok and quad_ok,
               f"alpha={trace.alpha:.4g}, c_hat={c_hat:.4g}, "
               f"verdict={report.verdict}")


def test_criterion_09_anomaly_detector(mode1_runs):
    rising = [2.0, 1.6, 1.3, 1.1, 1.0, 1.15, 1.3, 1.5, 1.8, 2.1]
    constructed = detect_gate_anomaly(rising, {"a": 0.95, "b": 0.40})
    constructed_ok = (constructed.flagged
                      and constructed.loss_increase_epochs[0] == 5
                      and abs(constructed.gap - 0.55) < 1e-12)

    false_flags = 0
    for run in mode1_runs:
        losses = [row["total"] for row in run["trace"]]
        domains = {task: run["fused_acc"][task] for task in ("app", "encap")}
        report = detect_gate_anomaly(losses, domains)
        if report.flagged:
            false_flags += 1
    _criterion(9, "gate anomaly detector (flags constructed, 0/5 healthy)",
               constructed_ok and false_flags == 0,
               f"false flags {false_flags}/5")


def test_criterion_10_ingestion_and_metric_oracles():
    rng = np.random.default_rng(33)
    cfg = ExtractionConfig()
    flows_ok = True
    features_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 100))
        pkts = []
        for _i in range(n):
            a, b = rng.integers(0, 5, size=2)
            payload = bytes(rng.integers(0, 256, size=rng.integers(0, 40),
                                         dtype=np.uint8))
            pkts.append(Packet(float(rng.random()), f"10.0.0.{a}",
                               int(rng.integers(1, 6)), f"10.0.0.{b}",
                               int(rng.integers(1, 6)),
                               ("TCP", "UDP")[int(rng.integers(0, 2))],
                               payload, int(rng.integers(0, 65536))))
        flows = assemble_flows(pkts)
        oracle = brute_force_grouping(pkts)
        if len(flows) != len(oracle):
            flows_ok = False
        if sum(len(f.packets) for f in flows) != n:
            flows_ok = False
        for f in flows:
            key = (f.key.protocol,) + tuple(sorted([f.key.endpoint_a,
                                                    f.key.endpoint_b]))
            if {id(p) for p in f.packets} != {id(p) for p in oracle[key]}:
                flows_ok = False
            row = extract_features(f)
            if row.shape != (cfg.nb + 4 * cfg.npkt,):
                features_ok = False
            if row[:cfg.nb].min() < 0.0 or row[:cfg.nb].max() > 1.0:
                features_ok = False

    metrics_ok = True
    for _ in range(100):
        k = int(rng.integers(2, 6))
        m = int(rng.integers(4, 50))
        y_true = rng.integers(0, k, size=m)
        y_pred = rng.integers(0, k, size=m)
        got = compute_metrics(y_true, y_pred, [str(i) for i in range(k)])
        acc, prec, f1 = naive_metrics(y_true.tolist(), y_pred.tolist(), k)
        if not (np.isclose(got.accuracy, acc)
                and np.isclose(got.macro_precision, prec)
                and np.isclose(got.macro_f1, f1)):
            metrics_ok = False
    _criterion(10, "ingestion + metrics match brute-force oracles",
               flows_ok and features_ok and metrics_ok)


def test_criterion_11_cli_reproducibility(tmp_path):
    from test_cli import _pipeline
    a = _pipeline(tmp_path / "a")
    b = _pipeline(tmp_path / "b")
    mismatched = []
    compared = 0
    for path_a in sorted(a.iterdir()):
        if path_a.name == "run.log" or path_a.suffix == ".cfg":
            continue
        if not filecmp.cmp(path_a, b / path_a.name, shallow=False):
            mismatched.append(path_a.name)
        compared += 1
    _criterion(11, "CLI reruns reproduce artifacts byte-for-byte",
               compared >= 9 and not mismatched,
               f"{compared} files compared" + (f"; mismatch: {mismatched}"
                                               if mismatched else ""))
