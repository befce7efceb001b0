"""Scaled-down fusion scenarios shared by the acceptance suite."""

import numpy as np

from flowmoe.data import build_dataset
from flowmoe.evaluation import evaluate, split_dataset
from flowmoe.expert import TrainConfig, train_expert
from flowmoe.fusion import (FusionMode, TaskRelation, TaskSpec, configure_fusion,
                            fine_tune)
from flowmoe.synth import GeneratorSpec

from synth_data import generate_dataset

EXPERT_EPOCHS = 12


def mode1_setup(seed, flows_per_class=150):
    """Two independent tasks (3-class app, 2-class encapsulation)."""
    classes = {
        "c0": {"app": "video", "encap": "plain"},
        "c1": {"app": "chat", "encap": "vpn"},
        "c2": {"app": "mail", "encap": "plain"},
        "c3": {"app": "video", "encap": "vpn"},
    }
    spec = GeneratorSpec(
        tasks={"app": ["video", "chat", "mail"], "encap": ["plain", "vpn"]},
        class_labels=classes, flows_per_class=flows_per_class, seed=seed,
        separation=3.0)
    train, val, test = split_dataset(generate_dataset(spec), seed=seed + 1000)
    experts = []
    for i, task in enumerate(("app", "encap")):
        model, _ = train_expert(train,
                                TrainConfig(epochs=EXPERT_EPOCHS,
                                            seed=seed * 17 + i),
                                task_id=task)
        experts.append(model)
    relation = TaskRelation(mode=FusionMode.MODE_I,
                            tasks=[TaskSpec("app", experts=(0,)),
                                   TaskSpec("encap", experts=(1,))])
    return train, val, test, experts, relation


def run_mode1(seed, epochs=5, flows_per_class=150):
    train, _val, test, experts, relation = mode1_setup(seed, flows_per_class)
    fused = configure_fusion(experts, relation, seed=seed)
    cfg = TrainConfig(learning_rate=1e-4, batch_size=16, epochs=epochs,
                      dropout_rate=0.0, seed=seed)
    fused, trace = fine_tune(fused, train, cfg)
    expert_acc = {t: evaluate(experts[i], test, [t])[t].accuracy
                  for i, t in enumerate(("app", "encap"))}
    fused_acc = {t: evaluate(fused, test, [t])[t].accuracy
                 for t in ("app", "encap")}
    return {"fused": fused, "trace": trace, "test": test,
            "expert_acc": expert_acc, "fused_acc": fused_acc}


MODE2_APPS_A = ["mail", "video", "chat", "web"]
MODE2_APPS_B = ["voip", "p2p", "stream"]


def _single_task_view(dataset, task, keep_names, label_map):
    names = [dataset.label_maps[task][i] for i in dataset.labels[task]]
    keep = np.array([i for i, n in enumerate(names) if n in keep_names])
    sub = dataset.subset(keep)
    sub_names = [dataset.label_maps[task][i] for i in sub.labels[task]]
    return build_dataset(sub.flow_ids, sub.features,
                         {task: dict(zip(sub.flow_ids, sub_names))},
                         label_maps={task: label_map})


def mode2_setup(seed, flows_per_class=120):
    """One app task whose label set is the union of two disjoint domains."""
    labels = MODE2_APPS_A + MODE2_APPS_B
    spec = GeneratorSpec(tasks={"app": labels},
                         class_labels={f"c_{l}": {"app": l} for l in labels},
                         flows_per_class=flows_per_class, seed=seed,
                         separation=3.0)
    train, val, test = split_dataset(generate_dataset(spec), seed=seed + 2000)
    experts = []
    for i, domain in enumerate((MODE2_APPS_A, MODE2_APPS_B)):
        view = _single_task_view(train, "app", domain, domain)
        model, _ = train_expert(view, TrainConfig(epochs=EXPERT_EPOCHS,
                                                  seed=seed * 23 + i),
                                task_id="app", expert_id=f"domain{i}")
        experts.append(model)
    relation = TaskRelation(mode=FusionMode.MODE_II,
                            tasks=[TaskSpec("app", experts=(0, 1))])
    return train, val, test, experts, relation


def run_mode2(seed, epochs=10, flows_per_class=120):
    train, _val, test, experts, relation = mode2_setup(seed, flows_per_class)
    fused = configure_fusion(experts, relation, seed=seed)
    cfg = TrainConfig(learning_rate=1e-3, batch_size=16, epochs=epochs,
                      dropout_rate=0.0, seed=seed)
    fused, trace = fine_tune(fused, train, cfg)

    union = fused.label_maps["app"]
    from flowmoe.fusion import classify_batch
    preds = classify_batch(fused, test.features)["app"][0]
    expert_acc, fused_acc = {}, {}
    for i, domain in enumerate((MODE2_APPS_A, MODE2_APPS_B)):
        test_view = _single_task_view(test, "app", domain, domain)
        expert_acc[f"domain{i}"] = evaluate(experts[i], test_view,
                                            ["app"])["app"].accuracy
        keep = np.array([j for j, li in enumerate(test.labels["app"])
                         if union[li] in domain])
        fused_acc[f"domain{i}"] = float(
            (preds[keep] == test.labels["app"][keep]).mean())
    return {"fused": fused, "trace": trace, "test": test,
            "expert_acc": expert_acc, "fused_acc": fused_acc}


MODE3_FINE = [f"tool{i}" for i in range(10)]
MODE3_PARENT = {"tool0": "benign", "tool1": "benign", "tool2": "benign",
                "tool3": "malicious", "tool4": "malicious",
                "tool5": "benign", "tool6": "benign",
                "tool7": "malicious", "tool8": "malicious",
                "tool9": "malicious"}
MODE3_OLD, MODE3_NEW = MODE3_FINE[:5], MODE3_FINE[5:]


def mode3_setup(seed, flows_per_class=80):
    """Coarse verdict expert on 5 tools; fine expert on the other 5."""
    spec = GeneratorSpec(
        tasks={"verdict": ["benign", "malicious"], "tool": MODE3_FINE},
        class_labels={f"c_{t}": {"verdict": MODE3_PARENT[t], "tool": t}
                      for t in MODE3_FINE},
        flows_per_class=flows_per_class, seed=seed, separation=3.0,
        nesting=MODE3_PARENT)
    train, val, test = split_dataset(generate_dataset(spec), seed=seed + 3000)

    def fine_names(d):
        return [d.label_maps["tool"][i] for i in d.labels["tool"]]

    old_idx = np.array([i for i, n in enumerate(fine_names(train))
                        if n in MODE3_OLD])
    new_idx = np.array([i for i, n in enumerate(fine_names(train))
                        if n in MODE3_NEW])
    coarse_expert, _ = train_expert(
        train.subset(old_idx),
        TrainConfig(epochs=EXPERT_EPOCHS, seed=seed * 31 + 1),
        task_id="verdict", expert_id="coarse")
    fine_view = _single_task_view(train.subset(new_idx), "tool", MODE3_NEW,
                                  MODE3_NEW)
    fine_expert, _ = train_expert(fine_view,
                                  TrainConfig(epochs=EXPERT_EPOCHS,
                                              seed=seed * 31 + 2),
                                  task_id="tool", expert_id="fine")
    relation = TaskRelation(
        mode=FusionMode.MODE_III, nesting=MODE3_PARENT,
        tasks=[TaskSpec("verdict", experts=(0, 1),
                        labels=["benign", "malicious"]),
               TaskSpec("tool", experts=(0, 1), labels=MODE3_FINE)])
    return train, val, test, [coarse_expert, fine_expert], relation


def run_mode3(seed, epochs=10, flows_per_class=80):
    train, _val, test, experts, relation = mode3_setup(seed, flows_per_class)
    fused = configure_fusion(experts, relation, seed=seed)
    cfg = TrainConfig(learning_rate=1e-3, batch_size=16, epochs=epochs,
                      dropout_rate=0.0, seed=seed)
    fused, trace = fine_tune(fused, train, cfg)

    fine_names = [test.label_maps["tool"][i] for i in test.labels["tool"]]
    new_idx = np.array([i for i, n in enumerate(fine_names) if n in MODE3_NEW])
    new_samples = test.subset(new_idx)
    baseline = evaluate(experts[0], new_samples,
                        ["verdict"])["verdict"].accuracy
    fused_coarse = evaluate(fused, new_samples,
                            ["verdict"])["verdict"].accuracy
    return {"fused": fused, "trace": trace, "test": test,
            "baseline_on_new": baseline, "fused_on_new": fused_coarse}
