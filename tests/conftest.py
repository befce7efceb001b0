"""Shared fixtures: a small two-task dataset and its trained experts."""

import numpy as np
import pytest

from flowmoe.evaluation import split_dataset
from flowmoe.expert import TrainConfig, train_expert
from flowmoe.synth import GeneratorSpec

from synth_data import generate_dataset

TWO_TASK_CLASSES = {
    "c0": {"app": "video", "encap": "plain"},
    "c1": {"app": "chat", "encap": "vpn"},
    "c2": {"app": "mail", "encap": "plain"},
    "c3": {"app": "video", "encap": "vpn"},
}


def two_task_spec(seed=5, flows_per_class=100):
    return GeneratorSpec(
        tasks={"app": ["video", "chat", "mail"], "encap": ["plain", "vpn"]},
        class_labels=TWO_TASK_CLASSES,
        flows_per_class=flows_per_class,
        seed=seed,
        separation=3.0,
    )


@pytest.fixture(scope="session")
def two_task_data():
    ds = generate_dataset(two_task_spec())
    return split_dataset(ds, seed=4)


@pytest.fixture(scope="session")
def trained_experts(two_task_data):
    train, _val, _test = two_task_data
    app, _ = train_expert(train, TrainConfig(epochs=10, seed=11), "app")
    encap, _ = train_expert(train, TrainConfig(epochs=10, seed=12), "encap")
    return app, encap


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
