"""Deterministic synthetic flow generator for the three fusion scenarios.

Each generator class owns per-position payload byte means, packet-length
and inter-arrival distributions, and a direction pattern; the separation
factor scales within-class noise down relative to the spread between class
centroids, so classes are separable by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import SEED, Key, read_ini, write_labels_csv
from .ingest import (TCP, UDP, ExtractionConfig, Flow, FlowKey, Packet,
                     write_flow_records)


@dataclass
class ClassProfile:
    name: str
    payload_mean: np.ndarray        # per-position byte means
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


@dataclass
class GeneratorSpec:
    tasks: dict                      # task_id -> [label names]
    class_labels: dict               # class name -> {task_id: label}
    flows_per_class: int = 200
    seed: int = 0
    separation: float = 3.0
    nesting: dict | None = None      # fine label -> coarse label (2-task refinement)

    def __post_init__(self):
        if not (math.isfinite(self.separation) and self.separation > 0):
            raise ValueError(f"separation factor must be finite and > 0, "
                             f"got {self.separation!r}")
        if self.flows_per_class < 1:
            raise ValueError(f"flows_per_class must be >= 1, got "
                             f"{self.flows_per_class!r}")
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
        """Parse the INI generator spec; errors are ValueErrors naming it."""
        ini = read_ini(path, _SPEC_SCHEMA)
        tasks, gen = ini["tasks"], ini["generator"]
        for section in ("tasks", "classes"):
            if not ini[section]:
                raise ValueError(f"{path}: missing or empty [{section}] section")
        for cname, labels in ini["classes"].items():
            if len(labels) != len(tasks):
                raise ValueError(f"{path}: [classes] {cname}: expected one "
                                 f"label per task ({len(tasks)}), got "
                                 f"{len(labels)}")
        try:
            return cls(tasks, {cname: dict(zip(tasks, labels))
                               for cname, labels in ini["classes"].items()},
                       gen["flows_per_class"], gen["seed"], gen["separation"],
                       ini["nesting"])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


_SPEC_SCHEMA = {
    "generator": {
        "flows_per_class": Key(int, 200, "an integer >= 1", lambda n: n >= 1),
        "seed": SEED,
        "separation": Key(float, 3.0, "a finite number > 0",
                          lambda x: math.isfinite(x) and x > 0)},
    "tasks": Key(str.split),
    "classes": Key(str.split),
    "nesting": Key(str),            # fine label -> coarse label
}


def default_profile(name, class_index, spec) -> ClassProfile:
    """Derive a class profile from the seed; noise shrinks with separation."""
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=spec.seed, spawn_key=(1, class_index)))
    nb, max_pkts = ExtractionConfig.nb, ExtractionConfig.npkt
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


def _synth_flow(profile, rng, flow_index, class_index) -> Flow:
    lo, hi = profile.flow_len_range
    n = min(int(rng.integers(lo, hi + 1)), profile.pkt_len_mean.size)
    lens = np.rint(profile.pkt_len_mean[:n]
                   + rng.normal(0.0, profile.pkt_len_sigma, size=n))
    lens = np.clip(lens, 0, 1460, out=lens).astype(int)
    total = int(lens.sum())
    stream = rng.normal(0.0, profile.payload_sigma, size=total)
    stream += np.resize(profile.payload_mean, total)
    stream = np.clip(np.rint(stream, out=stream), 0, 255,
                     out=stream).astype(np.uint8).tobytes()
    iats = np.exp(rng.normal(profile.iat_log_mu, profile.iat_log_sigma, size=n))
    iats[0] = 0.0
    ts = np.cumsum(iats)
    dirs = rng.random(n) >= profile.fwd_prob[:n]
    dirs[0] = False  # the first packet defines the forward endpoint
    windows = np.rint(rng.normal(profile.window_mean, profile.window_sigma,
                                 size=n))
    windows = np.clip(windows, 0, 65535, out=windows).astype(int)
    if profile.protocol != TCP:  # drawn anyway, so later draws do not shift
        windows[:] = 0

    client = (f"10.{(flow_index >> 8) & 255}.{flow_index & 255}.2",
              1024 + (flow_index % 50000))
    server = (f"172.16.{class_index % 250}.1", 443)
    packets = []
    offset = 0
    for t, length, backward, window in zip(ts.tolist(), lens.tolist(),
                                           dirs.tolist(), windows.tolist()):
        src, dst = (server, client) if backward else (client, server)
        packets.append(Packet(t, src[0], src[1], dst[0], dst[1],
                              profile.protocol, stream[offset:offset + length],
                              window))
        offset += length
    return Flow(key=FlowKey.of(packets[0]), packets=packets,
                forward_endpoint=client, flow_id=f"f{flow_index:06d}")


def generate_flows(spec: GeneratorSpec):
    """All synthetic flows plus per-task label-name assignments per flow."""
    class_names = list(spec.class_labels)
    flows = []
    names_by_task = {task: [] for task in spec.tasks}
    flow_index = 0
    for ci, cname in enumerate(class_names):
        profile = default_profile(cname, ci, spec)
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=spec.seed, spawn_key=(2, ci)))
        for _ in range(spec.flows_per_class):
            flows.append(_synth_flow(profile, rng, flow_index, ci))
            for task in spec.tasks:
                names_by_task[task].append(spec.class_labels[cname][task])
            flow_index += 1
    return flows, names_by_task


def emit_files(spec: GeneratorSpec, flows_path, labels_path) -> int:
    """Write the flow-record file + labels CSV and return the flow count."""
    flows, names_by_task = generate_flows(spec)
    write_flow_records(flows, flows_path)
    write_labels_csv(labels_path, [f.flow_id for f in flows], names_by_task)
    return len(flows)
