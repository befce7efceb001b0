"""Command-line interface for the full training/fusion/diagnostics pipeline.

Every run appends a reproducibility line (seed, config hash, versions) to a
log file next to its primary output. Splits are re-derived deterministically
from (labels, split-seed), so each stage is re-runnable from its on-disk
artifacts alone.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import logging
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, serial
from .data import build_dataset, load_labels_csv, write_csv
from .diagnostics import (detect_gate_anomaly, load_domain_accuracies,
                          load_loss_column, run_tower_gd,
                          write_convergence_csv)
from .evaluation import evaluate, split_dataset, write_confusion_csv, \
    write_metrics_csv
from .expert import (TrainConfig, expert_predict, load_expert, save_expert,
                     train_expert, write_loss_trace)
from .fusion import (classify_batch, configure_fusion, fine_tune,
                     load_any_model, load_fusion_config, save_fused)
from .ingest import (flows_to_features, is_pcap, read_flow_records, read_pcap,
                     assemble_flows)
from .synth import GeneratorSpec, emit_files

log = logging.getLogger("flowmoe")

HASH_BLOCK = 1 << 16         # bytes per read when hashing a stage's inputs
# the --split parts in split order, each with the name of the set it is
SPLIT_PARTS = {"train": "training", "val": "validation", "test": "evaluation"}
DEFAULT_SPLIT = "0.75,0.10,0.15"
# gate-anomaly's data flags: unset (None) by default, so that --domains can
# reject them, and these values on the --model path
GATE_ANOMALY_DATA_DEFAULTS = {"part": "test", "split": DEFAULT_SPLIT,
                              "split_seed": 0}


def _sha256_files(paths):
    """SHA-256 (first 16 hex digits) of the files' bytes, concatenated in
    order; None entries are skipped. Each file is read in blocks of
    HASH_BLOCK bytes, so hashing adds no file-sized buffer to a stage."""
    h = hashlib.sha256()
    for p in paths:
        if p is None:
            continue
        with open(p, "rb") as fh:
            while block := fh.read(HASH_BLOCK):
                h.update(block)
    return h.hexdigest()[:16]


def _blas_fields():
    """numpy's bundled OpenBLAS kernel and thread count, or `unknown`."""
    lib = next((ctypes.CDLL(str(p)) for p in Path(np.__file__).parent.parent
                .glob("numpy.libs/libscipy_openblas64_*")), None)
    core = getattr(lib, "scipy_openblas_get_corename64_", None)
    threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    for func, restype in ((core, ctypes.c_char_p), (threads, ctypes.c_int)):
        if func is not None:
            func.argtypes, func.restype = [], restype
    return (f"blas_core={'unknown' if core is None else core().decode()} "
            f"blas_threads={'unknown' if threads is None else threads()}")


def _options_sha256(args):
    """SHA-256 (first 16 hex digits) of the command's parsed options, sorted
    by name, without the subcommand function."""
    options = sorted((k, v) for k, v in vars(args).items() if k != "func")
    return hashlib.sha256(repr(options).encode()).hexdigest()[:16]


def _log_run(args, primary_output, command, seed, config_paths):
    log_path = Path(primary_output).parent / "run.log"
    line = (f"{datetime.now(timezone.utc).isoformat()} cmd={command} "
            f"seed={seed} config_sha256={_sha256_files(config_paths)} "
            f"options_sha256={_options_sha256(args)} "
            f"flowmoe={__version__} numpy={np.__version__} "
            f"python={platform.python_version()} {_blas_fields()}\n")
    log_path.parent.mkdir(parents=True, exist_ok=True)
    with open(log_path, "a", encoding="utf-8") as fh:
        fh.write(line)
    log.info("run recorded: %s", line.strip())


def _require(path, kind="input"):
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{kind} file not found: {p}")
    return p


def _prepare_out(path):
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _parse_ratios(text):
    """The three ratios of a --split value; a ValueError names the flag
    and the text."""
    try:
        parts = tuple(float(x) for x in text.split(","))
    except ValueError:
        parts = ()
    if len(parts) != 3:
        raise ValueError(f"--split {text!r}: expected three comma-separated "
                         f"numbers")
    return parts


def _load_dataset(features_path, labels_path, label_maps=None, tasks=None):
    ids, feats, _header = serial.load_features(_require(features_path))
    labels = load_labels_csv(_require(labels_path))
    return build_dataset(ids, feats, labels, label_maps=label_maps, tasks=tasks)


def _load_parts(args, names, label_maps=None, tasks=None, optional=()):
    """The named parts ("train", "val", "test", or "all" alone for the whole
    set) of the --features/--labels dataset, split by --split/--split-seed;
    a part left empty is a ValueError unless `optional`. Only the parts are
    returned, so the unsplit dataset is let go once they are copied."""
    data = _load_dataset(args.features, args.labels, label_maps=label_maps,
                         tasks=tasks)
    if names == ("all",):
        return (data,)
    parts = dict(zip(SPLIT_PARTS, split_dataset(
        data, _parse_ratios(args.split), seed=args.split_seed)))
    for name in names:
        if parts[name].n_samples == 0 and name not in optional:
            raise ValueError(f"empty {SPLIT_PARTS[name]} set: --split "
                             f"{args.split} leaves no {name} rows")
    return tuple(parts[name] for name in names)


# -- subcommands -------------------------------------------------------------

def cmd_gen(args):
    spec = GeneratorSpec.from_config(_require(args.spec, "generator spec"))
    flows_out = _prepare_out(args.out_flows)
    labels_out = _prepare_out(args.out_labels)
    n_flows = emit_files(spec, flows_out, labels_out)
    log.info("generated %d flows over %d task(s) -> %s, %s",
             n_flows, len(spec.tasks), flows_out, labels_out)
    _log_run(args, flows_out, "gen", spec.seed, [args.spec])
    return 0


def cmd_ingest(args):
    src = _require(args.input)
    if is_pcap(src):
        flows = assemble_flows(read_pcap(src))
    else:
        flows = read_flow_records(src)
    if not flows:
        raise ValueError(f"{src}: no flows found")
    ids, mat = flows_to_features(flows)
    out = _prepare_out(args.out)
    serial.save_features(out, ids, mat)
    log.info("ingested %d flows -> %s", len(ids), out)
    _log_run(args, out, "ingest", "-", [src])
    return 0


def cmd_train_expert(args):
    cfg = TrainConfig(learning_rate=args.lr, batch_size=args.batch_size,
                      epochs=args.epochs, dropout_rate=args.dropout,
                      seed=args.seed)
    train, val, test = _load_parts(args, ("train", "val", "test"),
                                   tasks=[args.task], optional=("val",))
    model, trace = train_expert(train, cfg, val_data=val, task_id=args.task,
                                expert_id=args.expert_id or args.task)
    out = _prepare_out(args.out)
    save_expert(model, out)
    trace_path = args.trace or str(out) + ".loss.csv"
    write_loss_trace(_prepare_out(trace_path), trace)
    test_metrics = evaluate(model, test, [args.task])[args.task]
    log.info("expert %s: %s -> %s", model.id, test_metrics.summary(), out)
    _log_run(args, out, "train-expert", cfg.seed,
             [args.features, args.labels])
    return 0


def cmd_fuse(args):
    config = _require(args.config, "fusion config")
    expert_paths, relation, options = load_fusion_config(config)
    cfg = options["train_config"]
    experts = [load_expert(_require(p, "expert model")) for p in expert_paths]
    try:
        fused = configure_fusion(experts, relation, seed=cfg.seed)
    except ValueError as exc:
        raise ValueError(f"{config}: {exc}") from None
    experts = None      # the fused model holds copies; let the heads go
    train, = _load_parts(args, ("train",), label_maps=fused.label_maps,
                         tasks=fused.task_ids)
    fused, trace = fine_tune(fused, train, cfg,
                             unfreeze_experts=options["unfreeze_experts"])
    out = _prepare_out(args.out)
    save_fused(fused, out)
    trace_path = args.trace or str(out) + ".loss.csv"
    write_loss_trace(_prepare_out(trace_path), trace)
    log.info("fused %d expert(s) into %d task(s) -> %s",
             len(fused.experts), len(fused.task_ids), out)
    _log_run(args, out, "fuse", cfg.seed,
             [args.config, *expert_paths, args.features, args.labels])
    return 0


def cmd_classify(args):
    kind, model = load_any_model(_require(args.model, "model"))
    ids, feats, _ = serial.load_features(_require(args.features))
    if kind == "expert":
        task = model.task_id or "label"
        probs = expert_predict(model, feats)
        batch = {task: (np.argmax(probs, axis=1), probs)}
        label_maps = {task: model.label_map}
    else:
        batch = classify_batch(model, feats)
        label_maps = model.label_maps
    header = ["flow_id"]
    for task in batch:
        header += [task, f"{task}_confidence"]

    def rows():
        for row_i, fid in enumerate(ids):
            row = [fid]
            for task, (indices, probs) in batch.items():
                i = indices[row_i]
                row += [label_maps[task][i], repr(float(probs[row_i, i]))]
            yield row

    out = _prepare_out(args.out)
    write_csv(out, header, rows())
    log.info("classified %d flow(s) -> %s", len(ids), out)
    _log_run(args, out, "classify", "-", [args.model, args.features])
    return 0


def cmd_eval(args):
    kind, model = load_any_model(_require(args.model, "model"))
    if kind == "expert":
        tasks = [args.task or model.task_id]
        maps = {tasks[0]: model.label_map}
    else:
        if args.task and args.task not in model.task_ids:
            raise ValueError(f"--task {args.task!r}: the fused model's tasks "
                             f"are {model.task_ids}")
        tasks = [args.task] if args.task else list(model.task_ids)
        maps = {t: model.label_maps[t] for t in tasks}
    part, = _load_parts(args, (args.part,), label_maps=maps, tasks=tasks)
    metrics = evaluate(model, part, tasks)
    prefix = _prepare_out(args.out_prefix)
    write_metrics_csv(str(prefix) + ".metrics.csv", metrics)
    report_lines = []
    for t, m in metrics.items():
        write_confusion_csv(str(prefix) + f".{t}.confusion.csv", m)
        report_lines.append(f"task {t}: {m.summary()}")
    Path(str(prefix) + ".txt").write_text("\n".join(report_lines) + "\n",
                                          encoding="utf-8")
    for line in report_lines:
        log.info("%s", line)
    _log_run(args, str(prefix) + ".metrics.csv", "eval", args.split_seed,
             [args.model, args.features, args.labels])
    return 0


def cmd_diag_convergence(args):
    kind, model = load_any_model(_require(args.model, "model"))
    if kind != "fused":
        raise ValueError("convergence diagnostics need a fused model")
    part, = _load_parts(args, (args.part,), label_maps=model.label_maps,
                        tasks=model.task_ids)
    trace, _snaps, _steps, c_hat, report = run_tower_gd(
        model, part, steps=args.steps, alpha=args.alpha,
        snapshot_every=args.snapshot_every, seed=args.seed)
    prefix = _prepare_out(args.out_prefix)
    write_convergence_csv(str(prefix) + ".trace.csv", trace, report)
    Path(str(prefix) + ".txt").write_text(report.summary() + "\n",
                                          encoding="utf-8")
    log.info("convergence verdict: %s (alpha=%.5g, c_hat=%.5g)",
             report.verdict, trace.alpha, c_hat)
    _log_run(args, str(prefix) + ".txt", "diag-convergence", args.seed,
             [args.model, args.features, args.labels])
    return 0


def _check_domain_model(model):
    """ValueError unless the model has one task and distinct expert ids."""
    if len(model.task_ids) != 1:
        raise ValueError("per-domain evaluation needs a single-task "
                         "(category expansion) fused model")
    ids = [expert.id for expert in model.experts]
    shared = [i for i in ids if ids.count(i) > 1]
    if shared:
        raise ValueError(f"experts share the id {shared[0]!r}, so their "
                         f"domains cannot be told apart")


def _domain_accuracies_from_model(model, data):
    """Per-source-domain accuracy of a model `_check_domain_model` passed."""
    task = model.task_ids[0]
    union = model.label_maps[task]
    preds = classify_batch(model, data.features)[task][0]
    truth = data.labels[task]
    out = {}
    for expert in model.experts:
        members = {union.index(name) for name in expert.label_map
                   if name in union}
        keep = np.array([i for i, v in enumerate(truth) if int(v) in members])
        if keep.size:
            out[expert.id] = float((preds[keep] == truth[keep]).mean())
    return out


def cmd_diag_gate_anomaly(args):
    losses = load_loss_column(_require(args.trace, "loss trace"), args.column)
    if args.domains:
        mixed = [f"--{name.replace('_', '-')}"
                 for name in ("model", "features", "labels",
                              *GATE_ANOMALY_DATA_DEFAULTS)
                 if getattr(args, name) is not None]
        if mixed:
            raise ValueError(f"{', '.join(mixed)} cannot be combined with "
                             f"--domains")
        domains = load_domain_accuracies(_require(args.domains,
                                                  "domain metrics"))
    else:
        if not (args.model and args.features and args.labels):
            raise ValueError("pass either --domains or --model/--features/"
                             "--labels to compute per-domain accuracy")
        kind, model = load_any_model(_require(args.model, "model"))
        if kind != "fused":
            raise ValueError("gate anomaly diagnostics need a fused model")
        _check_domain_model(model)
        for name, default in GATE_ANOMALY_DATA_DEFAULTS.items():
            if getattr(args, name) is None:
                setattr(args, name, default)
        part, = _load_parts(args, (args.part,), label_maps=model.label_maps,
                            tasks=model.task_ids)
        domains = _domain_accuracies_from_model(model, part)
    report = detect_gate_anomaly(losses, domains, grace_epochs=args.grace,
                                 gap_threshold=args.gap_threshold)
    out = _prepare_out(args.out)
    out.write_text(report.summary() + "\n", encoding="utf-8")
    log.info("gate anomaly flagged: %s", report.flagged)
    inputs = [args.domains] if args.domains else \
        [args.model, args.features, args.labels]
    _log_run(args, out, "diag-gate-anomaly", "-", [args.trace, *inputs])
    return 0


# -- parser -------------------------------------------------------------------

def _add_split_flags(p, split=DEFAULT_SPLIT, split_seed=0):
    p.add_argument("--split", default=split,
                   help=f"train,val,test ratios (default {DEFAULT_SPLIT})")
    p.add_argument("--split-seed", type=int, default=split_seed,
                   help="(default 0)")


@functools.cache
def build_parser():
    """The CLI's argument parser, built once (about 2 ms) and shared by
    every `run` call; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="flowmoe",
        description="Multi-gate mixture-of-experts traffic classification")
    parser.add_argument("--verbose", "-v", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate synthetic labeled flows")
    p.add_argument("--spec", required=True)
    p.add_argument("--out-flows", required=True)
    p.add_argument("--out-labels", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("ingest", help="pcap or flow records -> feature file")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train-expert", help="train one per-task expert")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--expert-id", default=None)
    p.add_argument("--trace", default=None)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--dropout", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    _add_split_flags(p)
    p.set_defaults(func=cmd_train_expert)

    p = sub.add_parser("fuse", help="configure + fine-tune a fused model")
    p.add_argument("--config", required=True,
                   help="fusion config, which declares the whole fusion")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None)
    _add_split_flags(p)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("classify", help="multi-attribute classification CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("eval", help="accuracy / precision / F1 on one part")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--task", default=None)
    p.add_argument("--part", choices=("train", "val", "test", "all"),
                   default="test")
    p.add_argument("--out-prefix", required=True)
    _add_split_flags(p)
    p.set_defaults(func=cmd_eval)

    diag = sub.add_parser("diag", help="convergence / gate-anomaly reports")
    dsub = diag.add_subparsers(dest="diag_command", required=True)

    p = dsub.add_parser("convergence", help="tower-only full-batch GD check")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--steps", type=int, default=150)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--snapshot-every", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--part", choices=("train", "val", "test", "all"),
                   default="train")
    p.add_argument("--out-prefix", required=True)
    _add_split_flags(p)
    p.set_defaults(func=cmd_diag_convergence)

    p = dsub.add_parser("gate-anomaly", help="loss-rise / domain-gap detector")
    p.add_argument("--trace", required=True)
    p.add_argument("--column", default="total")
    p.add_argument("--domains", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--features", default=None)
    p.add_argument("--labels", default=None)
    p.add_argument("--grace", type=int, default=4)
    p.add_argument("--gap-threshold", type=float, default=0.15)
    p.add_argument("--part", choices=("train", "val", "test", "all"),
                   default=None, help="(default test)")
    p.add_argument("--out", required=True)
    _add_split_flags(p, split=None, split_seed=None)
    p.set_defaults(func=cmd_diag_gate_anomaly)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"flowmoe: error: {exc}", file=sys.stderr)
        return 1


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
