"""Deterministic synthetic flow generator for the three fusion scenarios.

Each generator class owns per-position payload byte means, packet-length
and inter-arrival distributions, and a direction pattern; the separation
factor scales within-class noise down relative to the spread between class
centroids, so classes are separable by construction.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .data import LabeledDataset, build_dataset, write_labels_csv
from .ingest import (TCP, UDP, ExtractionConfig, Flow, FlowKey, Packet,
                     flows_to_features, write_flow_records)


@dataclass
class ClassProfile:
    name: str
    payload_mean: np.ndarray        # per-position byte means, length nb
    payload_sigma: float
    pkt_len_mean: np.ndarray        # per-position mean payload length
    pkt_len_sigma: float
    iat_log_mu: float               # log-normal inter-arrival parameters
    iat_log_sigma: float
    fwd_prob: np.ndarray            # per-position probability of direction 0
    flow_len_range: tuple           # inclusive (min, max) packets per flow
    protocol: str = TCP
    window_mean: float = 16000.0
    window_sigma: float = 500.0

    def __post_init__(self):
        if self.payload_sigma < 0 or self.pkt_len_sigma < 0 or self.iat_log_sigma < 0:
            raise ValueError("negative sigma")
        if np.any(self.fwd_prob < 0) or np.any(self.fwd_prob > 1):
            raise ValueError("fwd_prob outside [0,1]")


@dataclass
class GeneratorSpec:
    tasks: dict                      # task_id -> [label names]
    class_labels: dict               # class name -> {task_id: label}
    flows_per_class: int = 200
    seed: int = 0
    separation: float = 3.0
    nesting: dict | None = None      # fine label -> coarse label (2-task refinement)
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    profiles: dict | None = None     # optional explicit ClassProfile overrides

    def __post_init__(self):
        if self.separation <= 0:
            raise ValueError("separation factor must be positive")
        for cname, assignment in self.class_labels.items():
            for task, label in assignment.items():
                if task not in self.tasks:
                    raise ValueError(f"class {cname!r} labels unknown task {task!r}")
                if label not in self.tasks[task]:
                    raise ValueError(f"class {cname!r}: label {label!r} not "
                                     f"declared for task {task!r}")
            if set(assignment) != set(self.tasks):
                raise ValueError(f"class {cname!r} must label every task")
        if self.nesting is not None:
            self._check_nesting()

    def _check_nesting(self):
        task_ids = list(self.tasks)
        if len(task_ids) != 2:
            raise ValueError("nesting requires exactly two tasks (coarse, fine)")
        coarse, fine = task_ids
        for f_label, c_label in self.nesting.items():
            if f_label not in self.tasks[fine]:
                raise ValueError(f"nesting key {f_label!r} is not a fine label")
            if c_label not in self.tasks[coarse]:
                raise ValueError(f"nesting parent {c_label!r} is not a coarse label")
        for cname, assignment in self.class_labels.items():
            f_label = assignment[fine]
            if f_label not in self.nesting:
                raise ValueError(f"fine label {f_label!r} missing from nesting map")
            if self.nesting[f_label] != assignment[coarse]:
                raise ValueError(f"class {cname!r}: coarse label "
                                 f"{assignment[coarse]!r} does not match nesting "
                                 f"parent {self.nesting[f_label]!r}")

    @classmethod
    def from_config(cls, path) -> "GeneratorSpec":
        cp = configparser.ConfigParser()
        read = cp.read(path)
        if not read:
            raise ValueError(f"cannot read generator config {path}")
        gen = cp["generator"] if "generator" in cp else {}
        tasks = {t: cp["tasks"][t].split() for t in cp["tasks"]}
        class_labels = {}
        for cname in cp["classes"]:
            values = cp["classes"][cname].split()
            if len(values) != len(tasks):
                raise ValueError(f"class {cname!r}: expected one label per task")
            class_labels[cname] = dict(zip(tasks, values))
        nesting = dict(cp["nesting"]) if "nesting" in cp else None
        extraction = ExtractionConfig(nb=int(gen.get("nb", 784)),
                                      npkt=int(gen.get("npkt", 32)))
        return cls(tasks=tasks, class_labels=class_labels,
                   flows_per_class=int(gen.get("flows_per_class", 200)),
                   seed=int(gen.get("seed", 0)),
                   separation=float(gen.get("separation", 3.0)),
                   nesting=nesting, extraction=extraction)


def default_profile(name, class_index, spec) -> ClassProfile:
    """Derive a class profile from the seed; noise shrinks with separation."""
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=spec.seed, spawn_key=(1, class_index)))
    nb = spec.extraction.nb
    max_pkts = spec.extraction.npkt
    sep = spec.separation
    lo = int(rng.integers(4, 9))
    return ClassProfile(
        name=name,
        payload_mean=rng.uniform(30.0, 225.0, size=nb),
        payload_sigma=65.0 / sep,
        pkt_len_mean=rng.uniform(60.0, 1000.0, size=max_pkts),
        pkt_len_sigma=250.0 / sep,
        iat_log_mu=float(rng.uniform(np.log(0.002), np.log(0.2))),
        iat_log_sigma=0.4 / sep,
        fwd_prob=rng.uniform(0.1, 0.9, size=max_pkts),
        flow_len_range=(lo, lo + int(rng.integers(3, 8))),
        protocol=UDP if rng.random() < 0.25 else TCP,
        window_mean=float(rng.uniform(2000.0, 60000.0)),
        window_sigma=1500.0 / sep,
    )


def _synth_flow(profile, rng, flow_index, class_index, cfg) -> Flow:
    lo, hi = profile.flow_len_range
    n = min(int(rng.integers(lo, hi + 1)), profile.pkt_len_mean.size)
    lens = np.clip(np.rint(profile.pkt_len_mean[:n]
                           + rng.normal(0.0, profile.pkt_len_sigma, size=n)),
                   0, 1460).astype(int)
    total = int(lens.sum())
    pos = np.arange(total) % profile.payload_mean.size
    stream = np.clip(np.rint(profile.payload_mean[pos]
                             + rng.normal(0.0, profile.payload_sigma, size=total)),
                     0, 255).astype(np.uint8).tobytes()
    iats = np.exp(rng.normal(profile.iat_log_mu, profile.iat_log_sigma, size=n))
    iats[0] = 0.0
    ts = np.cumsum(iats)
    dirs = (rng.random(n) >= profile.fwd_prob[:n]).astype(int)
    dirs[0] = 0  # the first packet defines the forward endpoint
    windows = np.clip(np.rint(rng.normal(profile.window_mean,
                                         profile.window_sigma, size=n)),
                      0, 65535).astype(int)

    client = (f"10.{(flow_index >> 8) & 255}.{flow_index & 255}.2",
              1024 + (flow_index % 50000))
    server = (f"172.16.{class_index % 250}.1", 443)
    packets = []
    offset = 0
    for i in range(n):
        payload = stream[offset:offset + lens[i]]
        offset += lens[i]
        src, dst = (client, server) if dirs[i] == 0 else (server, client)
        packets.append(Packet(float(ts[i]), src[0], src[1], dst[0], dst[1],
                              profile.protocol, payload,
                              int(windows[i]) if profile.protocol == TCP else 0))
    return Flow(key=FlowKey.of(packets[0]), packets=packets,
                forward_endpoint=client, flow_id=f"f{flow_index:06d}")


def generate_flows(spec: GeneratorSpec):
    """All synthetic flows plus per-task label-name assignments per flow."""
    class_names = list(spec.class_labels)
    flows = []
    names_by_task = {task: [] for task in spec.tasks}
    flow_index = 0
    for ci, cname in enumerate(class_names):
        profile = (spec.profiles or {}).get(cname) or default_profile(cname, ci, spec)
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=spec.seed, spawn_key=(2, ci)))
        for _ in range(spec.flows_per_class):
            flows.append(_synth_flow(profile, rng, flow_index, ci, spec.extraction))
            for task in spec.tasks:
                names_by_task[task].append(spec.class_labels[cname][task])
            flow_index += 1
    return flows, names_by_task


def _dataset_from_flows(spec, flows, names_by_task) -> LabeledDataset:
    ids, mat = flows_to_features(flows, spec.extraction)
    labels_by_task = {task: dict(zip(ids, names))
                      for task, names in names_by_task.items()}
    return build_dataset(ids, mat, labels_by_task, label_maps=spec.tasks)


def generate_dataset(spec: GeneratorSpec) -> LabeledDataset:
    return _dataset_from_flows(spec, *generate_flows(spec))


def emit_files(spec: GeneratorSpec, flows_path, labels_path) -> LabeledDataset:
    """Write the flow-record file + labels CSV and return the dataset."""
    flows, names_by_task = generate_flows(spec)
    write_flow_records(flows, flows_path)
    write_labels_csv(labels_path, [f.flow_id for f in flows], names_by_task)
    return _dataset_from_flows(spec, flows, names_by_task)
