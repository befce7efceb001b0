"""Tests of the benchmark itself: tracing, metric names and the capture writer.

They run every workload at a tiny scale, so the accuracy floors may not be
met; only the structure of the results is checked here.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import flowmoe.cli
import flowmoe.diagnostics
import flowmoe.expert
import flowmoe.fusion
import flowmoe.serial
from flowmoe.ingest import assemble_flows, flows_to_features, read_pcap
from flowmoe.nn.optim import MultiAdam
from flowmoe.nn.tensor import Tensor
from flowmoe.synth import GeneratorSpec, generate_flows

from perfbench import capture, run, workloads
from perfbench.tracer import Span, Tracer, self_time

TINY = workloads.Scale(
    train_flows_per_class=6, train_epochs=1, fuse_flows_per_class=6,
    fuse_expert_epochs=1, fuse_epochs={"I": 1, "II": 1, "III": 1},
    towergd_steps=3, serve_flows_per_class=2, serve_expert_epochs=1,
    single_calls_per_pass=5)
WRAPPED_OWNERS = (flowmoe.cli, flowmoe.diagnostics, flowmoe.expert,
                  flowmoe.fusion, flowmoe.serial, Tensor, MultiAdam,
                  flowmoe.diagnostics.TowerObjective)
NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Layers a workload never calls: their metrics must read 0 there.
ABSENT = {
    "train": ("ingest.", "fusion.", "diagnostics.", "cli.fuse",
              "cli.ingest", "cli.classify"),
    "fuse": ("ingest.", "nn.model.encoder_forward.train",
             "expert.train_expert", "expert.steps", "cli.train_expert",
             "cli.ingest"),
    "serve": ("nn.optim.", "nn.tensor.", "nn.model.backward",
              "nn.model.encoder_forward.train", "expert.train_expert",
              "expert.steps", "fusion.fine_tune", "diagnostics."),
}
PRESENT = {
    "train": ("nn.model.encoder_forward.train.s", "nn.model.backward.s",
              "nn.tensor.matmul.calls", "nn.tensor.matmul.flops_computed",
              "nn.tensor.graph_nodes_per_step", "nn.optim.MultiAdam.apply.s",
              "nn.optim.MultiAdam.apply.calls", "nn.optim.params_updated",
              "nn.optim.bytes_computed", "expert.train_expert.s",
              "expert.steps", "expert.expert_predict.s",
              "evaluation.evaluate.s", "data.load_labels_csv.s",
              "cli.train_expert.self_s"),
    "fuse": ("fusion.fine_tune.I.s", "fusion.fine_tune.II.s",
             "fusion.fine_tune.III.s", "fusion.fine_tune.steps",
             "fusion.concat_representations.s", "fusion.gate_output.s",
             "expert.expert_representation.s", "diagnostics.run_tower_gd.s",
             "diagnostics.loss_and_grad.calls", "diagnostics.loss_and_grad.s",
             "diagnostics.estimate_lipschitz.s",
             "diagnostics.check_convergence.s", "serial.save_container.s",
             "serial.bytes_written", "nn.optim.params_updated"),
    "serve": ("ingest.read_pcap.s", "ingest.read_pcap.packets",
              "ingest.read_pcap.packets_skipped", "ingest.assemble_flows.s",
              "ingest.read_flow_records.s", "ingest.flows_to_features.s",
              "ingest.flows_to_features.flows", "serial.load_container.s",
              "serial.bytes_read", "nn.model.encoder_forward.eval.s",
              "nn.model.head_forward.s", "fusion.classify_batch.s",
              "fusion.tower_forward.s", "cli.classify.s",
              "cli.ingest_pcap.self_s", "trace_overhead_s"),
}


def _snapshot():
    return {owner: dict(vars(owner)) for owner in WRAPPED_OWNERS}


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def results(request, tmp_path_factory):
    """(workload, untraced result, traced result, names restored?,
    traced details)."""
    name = request.param
    cls = workloads.WORKLOADS[name]
    plain, _ = run.measure(cls, 3, 0.0, False,
                           tmp_path_factory.mktemp(name + "0"), TINY)
    before = _snapshot()
    traced, details = run.measure(cls, 3, 0.0, True,
                                  tmp_path_factory.mktemp(name + "1"), TINY)
    after = _snapshot()
    restored = all(after[o].keys() == before[o].keys()
                   and all(after[o][k] is v for k, v in before[o].items())
                   for o in WRAPPED_OWNERS)
    return name, plain, traced, restored, details


def test_every_wrapped_name_is_restored_after_a_traced_run(results):
    assert results[3]


def test_restore_also_happens_when_the_traced_code_raises():
    before = _snapshot()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            for owner, attr in ((flowmoe.cli, "read_pcap"),
                                (Tensor, "__matmul__"), (MultiAdam, "apply")):
                assert vars(owner)[attr] is not before[owner][attr]
            raise RuntimeError("boom")
    assert _snapshot() == before


def test_metric_names_and_result_shape(results):
    _name, plain, traced, _, _ = results
    for result in (plain, traced):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        for key, metric in result["metrics"].items():
            assert NAME.fullmatch(key), key
            assert set(metric) == {"value", "unit"}
            assert isinstance(metric["value"], float | int)


def test_every_declared_metric_is_emitted_with_its_unit(results):
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    _name, plain, traced, _, details = results
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[kind]}
        assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    assert details["undeclared_metrics"] == []
    # accuracy may be 0 at this scale; every other metric never is
    assert all(m["value"] > 0 for k, m in plain["metrics"].items()
               if k != "test_acc_min"), plain["metrics"]


def test_per_layer_metrics_are_zero_where_the_layer_never_runs(results):
    name, _plain, traced, _, _ = results
    values = {k: m["value"] for k, m in traced["metrics"].items()}
    for key, value in values.items():
        if key.startswith(ABSENT[name]):
            assert value == 0, key
    missing = {k for k in PRESENT[name]
               if k != "trace_overhead_s" and values[k] <= 0}
    assert not missing


def test_span_self_time_is_never_negative(tmp_path):
    workload = workloads.TrainWorkload(3, TINY)
    workload.setup(tmp_path, workloads.Pass())
    tracer = Tracer()
    with tracer.installed():
        workload.run_pass(workloads.Pass(tracer))
    assert len(tracer.spans) > 10
    assert all(self_time(tracer.spans, i) >= 0.0
               for i in range(len(tracer.spans)))
    # children that overlap each other or outlast their parent
    spans = [Span("cli.x", 0.0, 1.0, -1), Span("a", 0.1, 0.9, 0),
             Span("b", 0.5, 1.2, 0)]
    assert self_time(spans, 0) == pytest.approx(0.1)
    assert self_time([Span("p", 0.0, 1.0, -1), Span("c", -1.0, 2.0, 0)],
                     0) == 0.0


def test_capture_matches_flow_records(tmp_path):
    spec = GeneratorSpec(tasks={"app": ["a", "b"]},
                         class_labels={"c0": {"app": "a"}, "c1": {"app": "b"}},
                         flows_per_class=30, seed=4)
    flows, _ = generate_flows(spec)
    path = tmp_path / "x.pcap"
    n_ip, n_arp = capture.write_flows_pcap(path, flows, seed=1)
    assert n_arp == n_ip // capture.ARP_EVERY > 0
    assert capture.count_records(path) == n_ip + n_arp
    packets = read_pcap(path)
    assert len(packets) == n_ip
    from_pcap = assemble_flows(packets)
    record_id = {f.key.as_id(): f.flow_id for f in flows}
    ids, mat = flows_to_features(from_pcap)
    ref_ids, ref = flows_to_features(flows)
    ref = ref[[ref_ids.index(record_id[i]) for i in ids]]
    assert np.array_equal(mat[:, :784], ref[:, :784])
    assert np.max(np.abs(mat[:, 784:] - ref[:, 784:])) <= \
        workloads.IAT_TOLERANCE
    # the flows interleave: some flow starts before the previous one ends
    firsts = [f.packets[0].timestamp for f in from_pcap]
    lasts = [f.packets[-1].timestamp for f in from_pcap]
    assert any(firsts[i + 1] < lasts[i] for i in range(len(firsts) - 1))
