"""The three benchmark workloads: train, fuse and serve.

Every workload runs real CLI stages in-process through ``flowmoe.cli.run``
on inputs generated from the benchmark seed. A workload has a set-up, done
several times to time it and to check that it is reproducible, and a pass,
run repeatedly for the measured interval. Each CLI call and each
single-flow ``classify`` call is one operation; an operation fails when it
exits non-zero or one of its output checks fails.

Why these three workloads (see README.md for the full table):

* ``train`` exercises the encoder in train mode, the autodiff backward
  sweep and Adam over encoder and head; nothing else does real work.
* ``fuse`` runs the encoder only in eval mode, once per fine-tune, then
  towers, gates and Adam (batch 16 in Mode I, 128 in Modes II/III), plus
  the full-batch tower gradient-descent diagnostic.
* ``serve`` has no backward and no optimizer: pcap and flow-record
  ingest, batch classification and single-flow latency.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import flowmoe.cli
from flowmoe import serial
from flowmoe.data import build_dataset, load_labels_csv, write_labels_csv
from flowmoe.evaluation import split_dataset
from flowmoe.fusion import classify, load_any_model
from flowmoe.ingest import ExtractionConfig
from flowmoe.synth import GeneratorSpec, generate_flows

from . import capture

# Output checks: accuracy floors on the held-out split, and the pcap
# inter-arrival tolerance (two microsecond roundings plus float error).
EXPERT_ACC_FLOOR = 0.9
FUSED_ACC_FLOOR = 0.8
SERVE_ACC_FLOOR = 0.9
IAT_TOLERANCE = 2.5e-6
MIN_SINGLE_CALLS = 1000          # p99 needs ten samples beyond it


@dataclass
class Scale:
    """Input sizes; the benchmark uses the defaults, its tests smaller ones."""

    train_flows_per_class: int = 60
    train_epochs: int = 3
    fuse_flows_per_class: int = 40
    fuse_expert_epochs: int = 3
    fuse_epochs: dict = field(default_factory=lambda: {"I": 3, "II": 10,
                                                       "III": 10})
    towergd_steps: int = 40
    serve_flows_per_class: int = 20
    serve_expert_epochs: int = 2
    single_calls_per_pass: int = 400


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Pass:
    """Operations, stage times and failures of one workload pass."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed_ops: set = set()
        self.reasons: list = []
        self.seconds: dict = {}
        self.values: dict = {}
        self.hashes: dict = {}
        self.latencies_ms: list = []

    def fail(self, op, reason):
        self.failed_ops.add(op)
        self.reasons.append(f"{op}: {reason}")

    @property
    def failed(self):
        return len(self.failed_ops)

    def stage(self, name, argv):
        """Run one CLI stage; returns True when it exited with status 0."""
        self.attempted += 1
        span = self.tracer.span("cli." + name) if self.tracer \
            else contextlib.nullcontext()
        with span:
            start = time.perf_counter()
            status = flowmoe.cli.run([str(a) for a in argv])
            self.seconds[name] = time.perf_counter() - start
        if status != 0:
            self.fail(name, f"exit status {status}")
        return status == 0

    def outputs(self, name, *paths):
        for path in paths:
            self.hashes[(name, Path(path).name)] = sha256(path)


def rate(work_per_pass, passes, stages):
    """Work per second of `stages`: one pass's work over the median of the
    passes' summed stage times.

    Other tenants slow the host in bursts; the median leaves out the
    passes a burst hit.
    """
    return work_per_pass / statistics.median(
        sum(p.seconds[s] for s in stages) for p in passes)


class Workload:
    """Set-up and pass of one workload, and its figures over many passes.

    `setup` fills `items`: for each timed stage, the name of its own
    throughput figure and the items (samples or flows) one pass feeds it.
    """

    def __init__(self, seed, scale):
        self.seed, self.scale = seed, scale
        self.items: dict = {}

    def end_to_end(self, passes):
        """(metrics, details): `items_per_s` over all timed stages and the
        lowest test accuracy; per-stage throughputs go to the details."""
        per_pass = sum(n for _name, n in self.items.values())
        accuracies = [p.values["test_acc_min"] for p in passes
                      if "test_acc_min" in p.values]
        metrics = {
            "items_per_s": rate(per_pass, passes, self.items),
            "test_acc_min": (statistics.median(accuracies)
                             if accuracies else 0.0),
        }
        details = {name: rate(n, passes, [stage])
                   for stage, (name, n) in self.items.items()}
        return metrics, details


def check_repeats(reference, current):
    """Output files whose SHA-256 differs from the first pass of the run."""
    if not reference:
        reference.update(current.hashes)
        return
    for key, digest in current.hashes.items():
        if reference.get(key, digest) != digest:
            current.fail(key[0], f"{key[1]} differs from the first pass")


def gen_config(path, seed, tasks, classes, flows_per_class, nesting=None):
    lines = ["[generator]", f"seed = {seed}",
             f"flows_per_class = {flows_per_class}", "separation = 3.0", "",
             "[tasks]"]
    lines += [f"{t} = {' '.join(labels)}" for t, labels in tasks.items()]
    lines += ["", "[classes]"]
    lines += [f"{c} = {' '.join(labels)}" for c, labels in classes.items()]
    if nesting:
        lines += ["", "[nesting]"] + [f"{f} = {c}" for f, c in nesting.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_accuracies(prefix):
    with open(str(prefix) + ".metrics.csv", newline="",
              encoding="utf-8") as fh:
        return {row["task_id"]: float(row["accuracy"])
                for row in csv.DictReader(fh)}


def train_split_size(features, labels, task, seed):
    ids, feats, _ = serial.load_features(features)
    data = build_dataset(ids, feats, load_labels_csv(labels), tasks=[task])
    return split_dataset(data, seed=seed)[0].n_samples


def generate_inputs(op, work, seed, tasks, classes, flows_per_class,
                    nesting=None):
    """gen + ingest; returns the flow-record, labels and feature paths."""
    cfg = work / "gen.cfg"
    gen_config(cfg, seed, tasks, classes, flows_per_class, nesting)
    flows, labels, feats = (work / "flows.txt", work / "labels.csv",
                            work / "features.snkf")
    generated = op.stage("gen", ["gen", "--spec", cfg, "--out-flows", flows,
                                 "--out-labels", labels])
    if generated and op.stage("ingest", ["ingest", "--input", flows,
                                         "--out", feats]):
        op.outputs("setup", flows, labels, feats)
    return flows, labels, feats


def pretrain_expert(op, name, feats, labels, task, out, epochs, seed,
                    split_seed):
    if op.stage(name, ["train-expert", "--features", feats, "--labels",
                       labels, "--task", task, "--out", out, "--epochs",
                       epochs, "--seed", seed, "--split-seed", split_seed]):
        op.outputs("setup", out)


# -- train -------------------------------------------------------------------

class TrainWorkload(Workload):
    """train-expert on one six-class task, then eval of the expert."""

    name = "train"
    classes = {f"c{i}": [f"app{i}"] for i in range(6)}

    def setup(self, work, op):
        tasks = {"app": [v[0] for v in self.classes.values()]}
        _, self.labels, self.feats = generate_inputs(
            op, work, self.seed, tasks, self.classes,
            self.scale.train_flows_per_class)
        self.work = work
        n_train = train_split_size(self.feats, self.labels, "app", self.seed)
        self.items = {"train_expert": ("train_samples_per_s",
                                       n_train * self.scale.train_epochs)}

    def run_pass(self, op):
        model = self.work / "expert.snke"
        if op.stage("train_expert", [
                "train-expert", "--features", self.feats, "--labels",
                self.labels, "--task", "app", "--out", model, "--epochs",
                self.scale.train_epochs, "--seed", self.seed + 1,
                "--split-seed", self.seed]):
            op.outputs("train_expert", model)
        prefix = self.work / "expert_eval"
        if op.stage("eval", ["eval", "--model", model, "--features",
                             self.feats, "--labels", self.labels, "--part",
                             "test", "--split-seed", self.seed,
                             "--out-prefix", prefix]):
            acc = read_accuracies(prefix)["app"]
            op.values["test_acc_min"] = acc
            if acc < EXPERT_ACC_FLOOR:
                op.fail("eval", f"expert accuracy {acc} < {EXPERT_ACC_FLOOR}")


# -- fuse --------------------------------------------------------------------

TOOLS = [f"tool{i}" for i in range(6)]
TOOL_PARENT = {"tool0": "benign", "tool1": "malicious", "tool2": "benign",
               "tool3": "malicious", "tool4": "benign", "tool5": "malicious"}
DOMAINS = {"A": TOOLS[:3], "B": TOOLS[3:]}


class FuseWorkload(Workload):
    """fuse in Modes I, II and III from pre-trained experts, tower-GD
    convergence on the Mode I model, and eval of each fused model."""

    name = "fuse"

    def setup(self, work, op):
        s = self.seed
        classes = {f"c_{t}": [TOOL_PARENT[t], t] for t in TOOLS}
        tasks = {"verdict": ["benign", "malicious"], "tool": TOOLS}
        _, self.labels, self.feats = generate_inputs(
            op, work, s, tasks, classes, self.scale.fuse_flows_per_class,
            nesting=TOOL_PARENT)
        self.work = work
        epochs = self.scale.fuse_expert_epochs
        experts = {}
        for i, task in enumerate(("verdict", "tool")):
            experts[task] = work / f"{task}.snke"
            pretrain_expert(op, f"train_{task}", self.feats, self.labels,
                            task, experts[task], epochs, s * 10 + i, s)
        for i, (domain, tools) in enumerate(DOMAINS.items()):
            feats, labels = self._domain_files(domain, tools)
            experts[domain] = work / f"tool{domain}.snke"
            pretrain_expert(op, f"train_tool{domain}", feats, labels,
                            "tool", experts[domain], epochs, s * 10 + 2 + i,
                            s)
        self.configs = self._write_configs(experts)
        n_train = train_split_size(self.feats, self.labels, "verdict", s)
        self.items = {f"fuse_{mode}": (f"fuse_{mode}_samples_per_s",
                                       n_train * epochs)
                      for mode, epochs in self.scale.fuse_epochs.items()}

    def _domain_files(self, domain, tools):
        """Feature and label files holding only the flows of `tools`."""
        ids, feats, _ = serial.load_features(self.feats)
        tool_of = load_labels_csv(self.labels)["tool"]
        keep = [i for i, fid in enumerate(ids) if tool_of[fid] in tools]
        kept_ids = [ids[i] for i in keep]
        feats_path = self.work / f"features_{domain}.snkf"
        labels_path = self.work / f"labels_{domain}.csv"
        serial.save_features(feats_path, kept_ids, feats[keep])
        write_labels_csv(labels_path, kept_ids,
                         {"tool": [tool_of[fid] for fid in kept_ids]})
        return feats_path, labels_path

    def _write_configs(self, experts):
        nesting = "\n[nesting]\n" + "".join(
            f"{f} = {c}\n" for f, c in TOOL_PARENT.items())
        specs = {
            # independent tasks, as in the README example: batch 16, lr 1e-4
            "I": (f"{experts['verdict']} {experts['tool']}",
                  "lr = 1e-4\nbatch_size = 16\n",
                  "[task:verdict]\nexperts = 0\n\n[task:tool]\nexperts = 1\n"),
            # category expansion: one union task over the two domain experts
            "II": (f"{experts['A']} {experts['B']}", "",
                   "[task:tool]\nexperts = 0 1\n"),
            # refinement: coarse verdict expert + fine domain-B expert
            "III": (f"{experts['verdict']} {experts['B']}", "",
                    "[task:verdict]\nexperts = 0 1\n"
                    "labels = benign malicious\n\n[task:tool]\n"
                    f"experts = 0 1\nlabels = {' '.join(TOOLS)}\n" + nesting),
        }
        paths = {}
        for mode, (files, extra, tasks) in specs.items():
            paths[mode] = self.work / f"fusion_{mode}.cfg"
            paths[mode].write_text(
                f"[experts]\nfiles = {files}\n\n[fusion]\nmode = {mode}\n"
                f"seed = {self.seed + 5}\n"
                f"epochs = {self.scale.fuse_epochs[mode]}\n{extra}\n{tasks}",
                encoding="utf-8")
        return paths

    def run_pass(self, op):
        accuracies = {}
        for mode, cfg in self.configs.items():
            model = self.work / f"fused_{mode}.snke"
            name = f"fuse_{mode}"
            if not op.stage(name, ["fuse", "--config", cfg, "--features",
                                   self.feats, "--labels", self.labels,
                                   "--split-seed", self.seed, "--out", model]):
                continue
            op.outputs(name, model)
            prefix = self.work / f"fused_{mode}_eval"
            if op.stage("eval", ["eval", "--model", model, "--features",
                                 self.feats, "--labels", self.labels,
                                 "--part", "test", "--split-seed", self.seed,
                                 "--out-prefix", prefix]):
                for task, acc in read_accuracies(prefix).items():
                    accuracies[f"{mode}.{task}"] = acc
        low = {k: a for k, a in accuracies.items() if a < FUSED_ACC_FLOOR}
        if low:
            op.fail("eval", f"fused accuracy below {FUSED_ACC_FLOOR}: {low}")
        if accuracies:
            op.values["test_acc_min"] = min(accuracies.values())

        prefix = self.work / "conv"
        if op.stage("diag_convergence", [
                "diag", "convergence", "--model", self.work / "fused_I.snke",
                "--features", self.feats, "--labels", self.labels,
                "--steps", self.scale.towergd_steps, "--split-seed",
                self.seed, "--out-prefix", prefix]):
            op.outputs("diag_convergence", str(prefix) + ".trace.csv")
            verdict = Path(str(prefix) + ".txt").read_text(
                encoding="utf-8").splitlines()[0]
            if verdict != "verdict: PASS":
                op.fail("diag_convergence", verdict)

    def end_to_end(self, passes):
        metrics, details = super().end_to_end(passes)
        details["towergd_steps_per_s"] = rate(self.scale.towergd_steps,
                                              passes, ["diag_convergence"])
        return metrics, details


# -- serve -------------------------------------------------------------------

SERVE_TASKS = {"app": ["video", "chat", "mail"], "encap": ["plain", "vpn"]}
# Many traffic classes per label: packets per flow are drawn per class, so
# averaging over 24 classes keeps ingest work nearly the same across seeds.
SERVE_CLASSES = {f"c{i}": [SERVE_TASKS["app"][i % 3],
                           SERVE_TASKS["encap"][i // 3 % 2]]
                 for i in range(24)}
SERVE_FUSION_CFG = """\
[experts]
files = {app} {encap}

[fusion]
mode = I
seed = {seed}
lr = 1e-3
epochs = 2
batch_size = 16
dropout = 0.0

[task:app]
experts = 0

[task:encap]
experts = 1
"""


class ServeWorkload(Workload):
    """ingest of an interleaved pcap and of the matching flow records,
    classify with a pre-fused model, eval, and single-flow classify calls
    from one closed-loop client."""

    name = "serve"

    def __init__(self, seed, scale):
        super().__init__(seed, scale)
        self.rng = np.random.default_rng(seed)

    def setup(self, work, op):
        s = self.seed
        flows_txt, self.labels, self.feats = generate_inputs(
            op, work, s, SERVE_TASKS, SERVE_CLASSES,
            self.scale.serve_flows_per_class)
        self.work = work
        self.records = flows_txt
        flows, _ = generate_flows(GeneratorSpec.from_config(work / "gen.cfg"))
        self.pcap = work / "capture.pcap"
        capture.write_flows_pcap(self.pcap, flows, seed=s)
        op.outputs("setup", self.pcap)
        self.record_id = {f.key.as_id(): f.flow_id for f in flows}
        experts = {}
        for i, task in enumerate(SERVE_TASKS):
            experts[task] = work / f"{task}.snke"
            pretrain_expert(op, f"train_{task}", self.feats, self.labels,
                            task, experts[task],
                            self.scale.serve_expert_epochs, s * 10 + i, s)
        cfg = work / "fusion.cfg"
        cfg.write_text(SERVE_FUSION_CFG.format(seed=s + 5, **experts),
                       encoding="utf-8")
        self.model_path = work / "served.snke"
        if op.stage("fuse", ["fuse", "--config", cfg, "--features",
                             self.feats, "--labels", self.labels,
                             "--split-seed", s, "--out", self.model_path]):
            op.outputs("setup", self.model_path)
        _, self.model = load_any_model(self.model_path)
        self.ids, self.features, _ = serial.load_features(self.feats)
        n = len(self.ids)
        self.items = {"ingest_pcap": ("ingest_pcap_flows_per_s", n),
                      "ingest_records": ("ingest_records_flows_per_s", n),
                      "classify": ("classify_flows_per_s", n)}

    def run_pass(self, op):
        pcap_feats = self.work / "pcap.snkf"
        pcap_ok = op.stage("ingest_pcap", ["ingest", "--input", self.pcap,
                                           "--out", pcap_feats])
        if pcap_ok:
            op.outputs("ingest_pcap", pcap_feats)
        records_feats = self.work / "records.snkf"
        if op.stage("ingest_records", ["ingest", "--input", self.records,
                                       "--out", records_feats]):
            op.outputs("ingest_records", records_feats)
            if pcap_ok:
                self._check_pcap_features(op, pcap_feats, records_feats)
        pred = self.work / "pred.csv"
        if op.stage("classify", ["classify", "--model", self.model_path,
                                 "--features", self.feats, "--out", pred]):
            op.outputs("classify", pred)
            self._single_calls(op, pred)
        prefix = self.work / "served_eval"
        if op.stage("eval", ["eval", "--model", self.model_path, "--features",
                             self.feats, "--labels", self.labels, "--part",
                             "test", "--split-seed", self.seed,
                             "--out-prefix", prefix]):
            accuracies = read_accuracies(prefix)
            op.values["test_acc_min"] = min(accuracies.values())
            low = {t: a for t, a in accuracies.items() if a < SERVE_ACC_FLOOR}
            if low:
                op.fail("eval", f"accuracy below {SERVE_ACC_FLOOR}: {low}")

    def _check_pcap_features(self, op, pcap_feats, records_feats):
        """Pcap features must equal the flow-record ones: payload exactly,
        header fields within the capture's timestamp rounding."""
        pcap_ids, pcap_mat, _ = serial.load_features(pcap_feats)
        rec_ids, rec_mat, _ = serial.load_features(records_feats)
        row_of = {fid: i for i, fid in enumerate(rec_ids)}
        if len(pcap_ids) != len(rec_ids):
            op.fail("ingest_pcap", f"{len(pcap_ids)} flows from the pcap, "
                    f"{len(rec_ids)} from the records")
            return
        try:
            order = [row_of[self.record_id[fid]] for fid in pcap_ids]
        except KeyError as exc:
            op.fail("ingest_pcap", f"unexpected flow {exc}")
            return
        rec_mat = rec_mat[order]
        nb = ExtractionConfig().nb
        if not np.array_equal(pcap_mat[:, :nb], rec_mat[:, :nb]):
            op.fail("ingest_pcap", "payload features differ from the records")
        gap = np.max(np.abs(pcap_mat[:, nb:] - rec_mat[:, nb:]))
        if gap > IAT_TOLERANCE:
            op.fail("ingest_pcap", f"header features differ by {gap}")

    def _single_calls(self, op, pred):
        """Closed-loop single-flow classify; each result must match the
        batch prediction row of its flow."""
        with open(pred, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        tasks = self.model.task_ids
        picks = self.rng.integers(0, len(self.ids),
                                  size=self.scale.single_calls_per_pass)
        for i in picks:
            op.attempted += 1
            start = time.perf_counter()
            result = classify(self.model, self.features[i])
            op.latencies_ms.append((time.perf_counter() - start) * 1e3)
            expected = rows[i]
            if expected["flow_id"] != self.ids[i] or any(
                    result[t].label != expected[t] for t in tasks):
                op.fail(f"single{len(op.latencies_ms)}",
                        f"flow {self.ids[i]} disagrees with the batch row")

    def top_up_single_calls(self, passes):
        """Extra single-flow calls until the p99 has ten samples beyond it."""
        pred = self.work / "pred.csv"
        total = sum(len(p.latencies_ms) for p in passes)
        while total < MIN_SINGLE_CALLS:
            self._single_calls(passes[-1], pred)
            total = sum(len(p.latencies_ms) for p in passes)

    def end_to_end(self, passes):
        metrics, details = super().end_to_end(passes)
        latencies = [ms for p in passes for ms in p.latencies_ms]
        details["single_calls"] = len(latencies)
        for q in (50, 99):
            details[f"classify_single_ms_p{q}"] = float(
                np.percentile(latencies, q))
        return metrics, details


WORKLOADS = {w.name: w for w in (TrainWorkload, FuseWorkload, ServeWorkload)}
