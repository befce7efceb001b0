"""Spans and counters recorded around the calls into each flowmoe layer.

The tracer wraps, from the outside, the names each calling module bound
when it imported a layer's public functions (``flowmoe.cli.read_pcap``,
``flowmoe.expert.encoder_forward``, ...), plus a few methods on their
classes. Nothing under ``src/`` changes. ``Tracer.installed()`` puts every
wrapper in place and restores each original name on exit, also when the
traced code raises.

Spans are kept in memory: name, start, end and the index of the enclosing
span. Per-layer metrics are derived from them after each workload pass.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from dataclasses import dataclass

import flowmoe.cli
import flowmoe.diagnostics
import flowmoe.expert
import flowmoe.fusion
import flowmoe.serial
from flowmoe.nn.optim import MultiAdam
from flowmoe.nn.tensor import Tensor

from . import capture

ADAM_BYTES_PER_PARAM = 7 * 8     # reads p, g, m, v and writes p, m, v (fp64)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int                  # index into Tracer.spans, -1 at the top


def _train_mode_name(_params, _x, train_mode=False, *_args, **_kwargs):
    return ("nn.model.encoder_forward."
            + ("train" if train_mode else "eval"))


def _fine_tune_name(model, *_args, **_kwargs):
    return f"fusion.fine_tune.{model.relations[0].mode.value}"


def graph_nodes(loss):
    """Nodes the backward sweep visits from `loss` (requires_grad only)."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """Span recorder plus the table of names it wraps."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.pcap_reads: list = []
        self._open: list[int] = []
        self._patches = []       # (owner, attr, original, was_own_attr)

    # -- recording ---------------------------------------------------------

    def add(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), float("nan"),
                               parent))
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace owner.attr by a wrapper that records a span around it.

        `name` is a string or a function of the call's arguments.
        `before(args, kwargs)` and `after(args, kwargs, result)` record
        counts outside the span's interval.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            label = name if isinstance(name, str) else name(*args, **kwargs)
            with tracer.span(label):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        self._patch(owner, attr, original, traced)

    def count_calls(self, owner, attr, on_call):
        """Replace owner.attr by a wrapper that only counts; no span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            on_call(args, result)
            return result

        self._patch(owner, attr, original, counted)

    def _patch(self, owner, attr, original, replacement):
        self._patches.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._patches:
            owner, attr, original, was_own = self._patches.pop()
            if was_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextlib.contextmanager
    def installed(self):
        try:
            self._install()
            yield self
        finally:
            self.restore()

    def _install(self):
        cli, expert = flowmoe.cli, flowmoe.expert
        fusion, diag = flowmoe.fusion, flowmoe.diagnostics

        def count_packets(args, _kwargs, packets):
            self.add("ingest.read_pcap.packets", len(packets))
            self.pcap_reads.append(args[0])   # records counted after the pass

        def count_flows(_args, _kwargs, result):
            self.add("ingest.flows_to_features.flows", len(result[0]))

        self.wrap(cli, "read_pcap", "ingest.read_pcap", after=count_packets)
        self.wrap(cli, "assemble_flows", "ingest.assemble_flows")
        self.wrap(cli, "read_flow_records", "ingest.read_flow_records")
        self.wrap(cli, "flows_to_features", "ingest.flows_to_features",
                  after=count_flows)

        self.wrap(flowmoe.serial, "save_container", "serial.save_container",
                  after=lambda a, _k, _r: self.add("serial.bytes_written",
                                                   os.path.getsize(a[0])))
        self.wrap(flowmoe.serial, "load_container", "serial.load_container",
                  before=lambda a, _k: self.add("serial.bytes_read",
                                                os.path.getsize(a[0])))

        self.wrap(cli, "load_labels_csv", "data.load_labels_csv")
        self.wrap(cli, "build_dataset", "data.build_dataset")
        self.wrap(cli, "split_dataset", "evaluation.split_dataset")
        self.wrap(cli, "evaluate", "evaluation.evaluate")

        def count_graph(args, _kwargs):
            self.add("nn.tensor.graph_nodes", graph_nodes(args[0]))

        for module in (expert, fusion):
            self.wrap(module, "encoder_forward", _train_mode_name)
        for module in (expert, fusion, diag):
            self.wrap(module, "head_forward", "nn.model.head_forward")
            self.wrap(module, "backward", "nn.model.backward",
                      before=count_graph)

        def count_matmul(args, out):
            # 2 flops per multiply-add: output size times the inner dimension
            self.add("nn.tensor.matmul.calls")
            self.add("nn.tensor.matmul.flops",
                     2 * out.data.size * args[0].data.shape[-1])

        self.count_calls(Tensor, "__matmul__", count_matmul)

        def count_adam(args, _kwargs):
            n = sum(g.size for grads in args[1].values()
                    for g in grads.values())
            self.add("nn.optim.params_updated", n)

        self.wrap(MultiAdam, "apply", "nn.optim.MultiAdam.apply",
                  before=count_adam)

        self.wrap(cli, "train_expert", "expert.train_expert")
        self.wrap(fusion, "expert_representation",
                  "expert.expert_representation")
        for module in (cli, expert):
            self.wrap(module, "expert_predict", "expert.expert_predict")

        self.wrap(cli, "fine_tune", _fine_tune_name)
        for module in (cli, fusion):
            self.wrap(module, "classify_batch", "fusion.classify_batch")
        self.wrap(fusion, "concat_representations",
                  "fusion.concat_representations")
        self.wrap(fusion, "gate_output", "fusion.gate_output")
        self.wrap(fusion, "tower_forward", "fusion.tower_forward")

        self.wrap(cli, "run_tower_gd", "diagnostics.run_tower_gd")
        self.wrap(diag.TowerObjective, "loss_and_grad",
                  "diagnostics.loss_and_grad")
        self.wrap(diag, "estimate_lipschitz", "diagnostics.estimate_lipschitz")
        self.wrap(diag, "check_convergence", "diagnostics.check_convergence")


# -- per-pass metrics ---------------------------------------------------------

def self_time(spans, index):
    """Span duration minus the part of it covered by its direct children."""
    span = spans[index]
    covered, cursor = 0.0, span.start
    children = sorted((s.start, s.end) for s in spans if s.parent == index)
    for start, end in children:
        start, end = max(start, cursor), min(end, span.end)
        if end > start:
            covered += end - start
            cursor = end
    return max(span.end - span.start - covered, 0.0)


def _has_ancestor(spans, index, prefix):
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name.startswith(prefix):
            return True
        parent = spans[parent].parent
    return False


def pass_metrics(tracer):
    """Per-layer metrics of one workload pass, from the tracer's record.

    Times are seconds summed over the pass; `cli.<stage>.self_s` is the
    stage's time outside every traced layer. `nn.tensor.*` and
    `nn.optim.params_updated`/`bytes_computed` are per optimizer step
    (one `backward` call); other counts are per pass.
    """
    spans = tracer.spans
    out = {}
    for i, span in enumerate(spans):
        key = span.name + ".s"
        out[key] = out.get(key, 0.0) + (span.end - span.start)
        if span.name.startswith("cli."):
            key = span.name + ".self_s"
            out[key] = out.get(key, 0.0) + self_time(spans, i)

    names = [s.name for s in spans]
    backward = [i for i, n in enumerate(names) if n == "nn.model.backward"]
    adam_calls = names.count("nn.optim.MultiAdam.apply")
    counts = tracer.counts
    if backward:
        steps = len(backward)
        out["nn.tensor.matmul.calls"] = \
            counts["nn.tensor.matmul.calls"] / steps
        out["nn.tensor.matmul.flops_computed"] = \
            counts["nn.tensor.matmul.flops"] / steps
        out["nn.tensor.graph_nodes_per_step"] = \
            counts["nn.tensor.graph_nodes"] / steps
    if adam_calls:
        per_step = counts["nn.optim.params_updated"] / adam_calls
        out["nn.optim.MultiAdam.apply.calls"] = adam_calls
        out["nn.optim.params_updated"] = per_step
        out["nn.optim.bytes_computed"] = per_step * ADAM_BYTES_PER_PARAM
    if "expert.train_expert" in names:
        out["expert.steps"] = sum(
            _has_ancestor(spans, i, "expert.train_expert") for i in backward)
    if any(n.startswith("fusion.fine_tune.") for n in names):
        out["fusion.fine_tune.steps"] = sum(
            _has_ancestor(spans, i, "fusion.fine_tune.") for i in backward)
    if "diagnostics.loss_and_grad" in names:
        out["diagnostics.loss_and_grad.calls"] = \
            names.count("diagnostics.loss_and_grad")
    if tracer.pcap_reads:
        out["ingest.read_pcap.packets_skipped"] = sum(
            capture.count_records(p) for p in tracer.pcap_reads) \
            - counts["ingest.read_pcap.packets"]
    for key in ("ingest.read_pcap.packets", "ingest.flows_to_features.flows",
                "serial.bytes_read", "serial.bytes_written"):
        if key in counts:
            out[key] = counts[key]
    return out
