"""In-memory labeled datasets from a generator spec, for tests that need
features without the `gen` -> `ingest` files."""

from flowmoe.data import LabeledDataset, build_dataset
from flowmoe.ingest import flows_to_features
from flowmoe.synth import GeneratorSpec, generate_flows


def generate_dataset(spec: GeneratorSpec) -> LabeledDataset:
    """The spec's flows as an in-memory labeled feature dataset, with each
    task's label map in the spec's order."""
    flows, names_by_task = generate_flows(spec)
    ids, mat = flows_to_features(flows)
    labels_by_task = {task: dict(zip(ids, names))
                      for task, names in names_by_task.items()}
    return build_dataset(ids, mat, labels_by_task, label_maps=spec.tasks)
