"""End-to-end CLI pipelines: exit codes, artifacts, reproducibility."""

import filecmp
import hashlib
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from flowmoe.cli import run
from flowmoe.fusion import load_fusion_config

from memtrace import traced_cli_peak

GEN_CFG = """\
[generator]
seed = 13
flows_per_class = 40
separation = 3.0

[tasks]
app = video chat mail
encap = plain vpn

[classes]
c0 = video plain
c1 = chat vpn
c2 = mail plain
c3 = video vpn
"""

FUSE_CFG = """\
[experts]
files = {app} {encap}

[fusion]
mode = I
seed = 5
lr = 1e-3
epochs = 5
batch_size = 16
dropout = 0.0

[task:app]
experts = 0

[task:encap]
experts = 1
"""


def _pipeline(workdir: Path, seed=13):
    """gen -> ingest -> train two experts -> fuse -> classify -> eval."""
    workdir.mkdir(parents=True, exist_ok=True)
    gen_cfg = workdir / "gen.cfg"
    gen_cfg.write_text(GEN_CFG.replace("seed = 13", f"seed = {seed}"))
    flows = workdir / "flows.txt"
    labels = workdir / "labels.csv"
    assert run(["gen", "--spec", str(gen_cfg), "--out-flows", str(flows),
                "--out-labels", str(labels)]) == 0
    feats = workdir / "features.snkf"
    assert run(["ingest", "--input", str(flows), "--out", str(feats)]) == 0
    experts = {}
    for i, task in enumerate(("app", "encap")):
        out = workdir / f"{task}.snke"
        assert run(["train-expert", "--features", str(feats), "--labels",
                    str(labels), "--task", task, "--out", str(out),
                    "--epochs", "4", "--seed", str(100 + i)]) == 0
        experts[task] = out
    fuse_cfg = workdir / "fusion.cfg"
    fuse_cfg.write_text(FUSE_CFG.format(app=experts["app"],
                                        encap=experts["encap"]))
    fused = workdir / "fused.snke"
    assert run(["fuse", "--config", str(fuse_cfg), "--features", str(feats),
                "--labels", str(labels), "--out", str(fused)]) == 0
    pred = workdir / "pred.csv"
    assert run(["classify", "--model", str(fused), "--features", str(feats),
                "--out", str(pred)]) == 0
    assert run(["eval", "--model", str(fused), "--features", str(feats),
                "--labels", str(labels), "--part", "test",
                "--out-prefix", str(workdir / "metrics")]) == 0
    return workdir


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    return _pipeline(tmp_path_factory.mktemp("pipe"))


def test_pipeline_artifacts_exist(pipeline_dir):
    for name in ("flows.txt", "labels.csv", "features.snkf", "app.snke",
                 "encap.snke", "fused.snke", "fused.snke.loss.csv",
                 "pred.csv", "metrics.metrics.csv", "metrics.txt", "run.log"):
        assert (pipeline_dir / name).exists(), name


def test_classify_csv_has_task_columns(pipeline_dir):
    lines = (pipeline_dir / "pred.csv").read_text().strip().splitlines()
    assert lines[0] == "flow_id,app,app_confidence,encap,encap_confidence"
    assert len(lines) == 1 + 160  # 4 classes x 40 flows


def test_classify_csv_of_an_expert_model(pipeline_dir, tmp_path):
    import csv

    from flowmoe import serial
    from flowmoe.expert import expert_predict, load_expert
    pred = tmp_path / "app.csv"
    assert run(["classify", "--model", str(pipeline_dir / "app.snke"),
                "--features", str(pipeline_dir / "features.snkf"),
                "--out", str(pred)]) == 0
    model = load_expert(pipeline_dir / "app.snke")
    ids, feats, _ = serial.load_features(pipeline_dir / "features.snkf")
    probs = expert_predict(model, feats)
    expected = [["flow_id", "app", "app_confidence"]]
    for fid, p in zip(ids, probs):
        i = int(np.argmax(p))
        expected.append([fid, model.label_map[i], repr(float(p[i]))])
    with open(pred, newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == expected


def test_eval_metrics_reasonable(pipeline_dir):
    rows = (pipeline_dir / "metrics.metrics.csv").read_text().splitlines()
    assert rows[0] == "task_id,accuracy,macro_precision,macro_f1"
    metrics = {r.split(",")[0]: float(r.split(",")[1]) for r in rows[1:]}
    assert set(metrics) == {"app", "encap"}
    assert all(v >= 0.9 for v in metrics.values())


def test_repro_line_in_log(pipeline_dir):
    text = (pipeline_dir / "run.log").read_text()
    assert "cmd=gen" in text and "cmd=fuse" in text
    assert "config_sha256=" in text and "numpy=" in text


def test_rerun_reproduces_artifacts_byte_for_byte(tmp_path):
    a = _pipeline(tmp_path / "a")
    b = _pipeline(tmp_path / "b")
    compared = 0
    for path_a in sorted(a.iterdir()):
        # run.log carries timestamps; *.cfg are inputs embedding tmp paths
        if path_a.name == "run.log" or path_a.suffix == ".cfg":
            continue
        path_b = b / path_a.name
        assert filecmp.cmp(path_a, path_b, shallow=False), path_a.name
        compared += 1
    assert compared >= 9


def test_diag_convergence_command(pipeline_dir, tmp_path):
    out = tmp_path / "conv"
    assert run(["diag", "convergence", "--model",
                str(pipeline_dir / "fused.snke"), "--features",
                str(pipeline_dir / "features.snkf"), "--labels",
                str(pipeline_dir / "labels.csv"), "--steps", "60",
                "--out-prefix", str(out)]) == 0
    report = Path(str(out) + ".txt").read_text()
    assert "verdict: PASS" in report
    trace = Path(str(out) + ".trace.csv").read_text().splitlines()
    assert trace[0] == "step,loss,gap,bound"
    assert len(trace) == 62


def test_diag_gate_anomaly_with_domains_csv(tmp_path):
    trace = tmp_path / "loss.csv"
    rows = ["epoch,total"] + [f"{i},{v}" for i, v in enumerate(
        [2.0, 1.5, 1.2, 1.0, 0.9, 1.1, 1.3, 1.6, 1.9, 2.2])]
    trace.write_text("\n".join(rows) + "\n")
    domains = tmp_path / "domains.csv"
    domains.write_text("domain,accuracy\niptas,0.40\nvpn,0.95\n")
    out = tmp_path / "anomaly.txt"
    assert run(["diag", "gate-anomaly", "--trace", str(trace), "--domains",
                str(domains), "--out", str(out)]) == 0
    text = out.read_text()
    assert "flagged: True" in text
    assert "gap" in text


@pytest.mark.parametrize("flag, value, message", [
    ("--gap-threshold", "nan", "gap_threshold must be finite and >= 0, got nan"),
    ("--gap-threshold", "inf", "gap_threshold must be finite and >= 0, got inf"),
    ("--gap-threshold", "-1",
     "gap_threshold must be finite and >= 0, got -1.0"),
    ("--grace", "-3", "grace_epochs must be >= 0, got -3"),
])
def test_degenerate_gate_anomaly_is_a_cli_error(tmp_path, capsys, flag, value,
                                                message):
    # a 0.89 accuracy gap, flagged at the default threshold
    trace = tmp_path / "loss.csv"
    trace.write_text("epoch,total\n" + "".join(
        f"{i},{v}\n" for i, v in enumerate([2.0, 1.5, 1.2, 1.0, 0.9, 0.8])))
    domains = tmp_path / "domains.csv"
    domains.write_text("domain,accuracy\niptas,0.99\nvpn,0.10\n")
    out = tmp_path / "anomaly.txt"
    rc = run(["diag", "gate-anomaly", "--trace", str(trace), "--domains",
              str(domains), "--out", str(out), flag, value])
    assert rc == 1
    assert _cli_errors(capsys) == [f"flowmoe: error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("split, message", [
    ("nan,0.5,0.5", "split ratios (nan, 0.5, 0.5) are not three finite "
                    "numbers"),
    ("x,0.5,0.5", "--split 'x,0.5,0.5': expected three comma-separated "
                  "numbers"),
    ("0.5,0.5", "--split '0.5,0.5': expected three comma-separated numbers"),
])
def test_bad_split_is_a_cli_error(pipeline_dir, tmp_path, capsys, split,
                                  message):
    out = tmp_path / "e.snke"
    rc = run(["train-expert", "--features", str(pipeline_dir / "features.snkf"),
              "--labels", str(pipeline_dir / "labels.csv"), "--task", "app",
              "--out", str(out), "--epochs", "1", "--split", split])
    assert rc == 1
    assert _cli_errors(capsys) == [f"flowmoe: error: {message}"]
    assert not out.exists()


def test_fuse_with_flags_instead_of_config(pipeline_dir, tmp_path):
    out = tmp_path / "flagged.snke"
    assert run(["fuse", "--mode", "I", "--experts",
                str(pipeline_dir / "app.snke"), str(pipeline_dir / "encap.snke"),
                "--features", str(pipeline_dir / "features.snkf"),
                "--labels", str(pipeline_dir / "labels.csv"),
                "--lr", "1e-3", "--epochs", "3", "--batch-size", "16",
                "--out", str(out)]) == 0
    from flowmoe.fusion import load_fused
    fused = load_fused(out)
    assert fused.task_ids == ["app", "encap"]
    pred = tmp_path / "flagged_pred.csv"
    assert run(["classify", "--model", str(out), "--features",
                str(pipeline_dir / "features.snkf"), "--out", str(pred)]) == 0
    assert pred.read_text().startswith("flow_id,app,")


def test_fuse_rejects_config_and_mode_together(pipeline_dir, tmp_path):
    rc = run(["fuse", "--config", "x.cfg", "--mode", "I",
              "--features", str(pipeline_dir / "features.snkf"),
              "--labels", str(pipeline_dir / "labels.csv"),
              "--out", str(tmp_path / "o.snke")])
    assert rc == 1


def test_eval_expert_model(pipeline_dir, tmp_path):
    prefix = tmp_path / "expert_eval"
    assert run(["eval", "--model", str(pipeline_dir / "app.snke"),
                "--features", str(pipeline_dir / "features.snkf"),
                "--labels", str(pipeline_dir / "labels.csv"),
                "--part", "test", "--out-prefix", str(prefix)]) == 0
    rows = Path(str(prefix) + ".metrics.csv").read_text().splitlines()
    assert rows[1].startswith("app,")
    assert float(rows[1].split(",")[1]) >= 0.9


def test_diag_gate_anomaly_computed_from_model(tmp_path):
    # category-expansion fused model: domains derived from the expert label sets
    import scenarios
    from flowmoe import serial
    from flowmoe.data import write_labels_csv
    from flowmoe.fusion import save_fused

    result = scenarios.run_mode2(0, epochs=6, flows_per_class=40)
    fused, test = result["fused"], result["test"]
    model_path = tmp_path / "union.snke"
    save_fused(fused, model_path)
    feats = tmp_path / "test.snkf"
    serial.save_features(feats, test.flow_ids, test.features)
    labels = tmp_path / "labels.csv"
    names = [test.label_maps["app"][i] for i in test.labels["app"]]
    write_labels_csv(labels, test.flow_ids, {"app": names})
    trace = tmp_path / "trace.csv"
    trace.write_text("epoch,total\n" + "\n".join(
        f"{i},{v}" for i, v in enumerate(np.linspace(1.0, 0.05, 8))) + "\n")
    out = tmp_path / "report.txt"
    assert run(["diag", "gate-anomaly", "--trace", str(trace),
                "--model", str(model_path), "--features", str(feats),
                "--labels", str(labels), "--part", "all",
                "--out", str(out)]) == 0
    text = out.read_text()
    assert "flagged: False" in text
    assert "domain0" in text and "domain1" in text


def test_missing_file_exits_nonzero(tmp_path, capsys):
    rc = run(["ingest", "--input", str(tmp_path / "nope.txt"),
              "--out", str(tmp_path / "o.snkf")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_duplicate_label_row_is_a_cli_error(pipeline_dir, tmp_path, capsys):
    lines = (pipeline_dir / "labels.csv").read_text().splitlines()
    labels = tmp_path / "dup.csv"
    labels.write_text("\n".join(lines + [lines[1]]) + "\n")
    rc = run(["train-expert", "--features", str(pipeline_dir / "features.snkf"),
              "--labels", str(labels), "--task", "app",
              "--out", str(tmp_path / "x.snke"), "--epochs", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"flowmoe: error: {labels}:{len(lines) + 1}: duplicate" in err
    assert not (tmp_path / "x.snke").exists()


def _drop_label_map(header):
    del header["label_map"]


def _string_labels(header):
    header["relations"][0]["tasks"][0]["labels"] = "video chat mail"


@pytest.mark.parametrize("model,damage,key", [
    ("app.snke", _drop_label_map, "label_map"),
    ("fused.snke", _string_labels, "labels"),
])
def test_bad_model_header_field_is_a_cli_error(pipeline_dir, tmp_path, capsys,
                                               model, damage, key):
    from flowmoe import serial
    header, tensors = serial.load_container(pipeline_dir / model,
                                            serial.MODEL_MAGIC)
    damage(header)
    broken = tmp_path / model
    serial.save_container(broken, serial.MODEL_MAGIC, header,
                          [(name, tensors[name]) for name, _ in header["tensors"]])
    rc = run(["classify", "--model", str(broken), "--features",
              str(pipeline_dir / "features.snkf"), "--out",
              str(tmp_path / "pred.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"flowmoe: error: {broken}: header field {key!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("scale", ["0", "nan", "inf", "-1"])
def test_bad_iat_scale_is_a_cli_error(tmp_path, capsys, scale):
    records = tmp_path / "flows.txt"
    records.write_text("f1 tcp 10.0.0.1:1000 10.0.0.2:80 0.0,0,3,100 "
                       "0.5,1,3,100\n")
    out = tmp_path / "o.snkf"
    rc = run(["ingest", "--input", str(records), "--out", str(out),
              "--iat-scale", scale])
    assert rc == 1
    assert _cli_errors(capsys) == [
        f"flowmoe: error: inter-arrival scale must be finite and > 0, "
        f"got {float(scale)!r}"]
    assert not out.exists()


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_non_finite_learning_rate_is_a_cli_error(pipeline_dir, tmp_path,
                                                 capsys, recwarn, lr):
    out = tmp_path / "e.snke"
    rc = run(["train-expert", "--features", str(pipeline_dir / "features.snkf"),
              "--labels", str(pipeline_dir / "labels.csv"), "--task", "app",
              "--out", str(out), "--epochs", "1", "--lr", lr])
    assert rc == 1
    assert _cli_errors(capsys) == [
        "flowmoe: error: learning rate must be finite and positive"]
    assert not out.exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_non_finite_fusion_config_learning_rate_is_a_cli_error(tmp_path,
                                                               capsys):
    cfg = tmp_path / "fusion.cfg"
    cfg.write_text("[experts]\nfiles = a.snke\n\n[fusion]\nmode = I\n"
                   "lr = nan\n\n[task:app]\nexperts = 0\n")
    out = tmp_path / "o.snke"
    rc = run(["fuse", "--config", str(cfg), "--features", "f.snkf",
              "--labels", "l.csv", "--out", str(out)])
    assert rc == 1
    assert _cli_errors(capsys) == [
        f"flowmoe: error: {cfg}: [fusion] learning rate must be finite and "
        f"positive"]
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--alpha", "nan", "alpha must be finite and > 0, got nan"),
    ("--alpha", "inf", "alpha must be finite and > 0, got inf"),
    ("--alpha", "-1", "alpha must be finite and > 0, got -1.0"),
    ("--alpha", "0", "alpha must be finite and > 0, got 0.0"),
    ("--snapshot-every", "0", "snapshot_every must be >= 1, got 0"),
    ("--steps", "-1", "steps must be >= 0, got -1"),
    ("--alpha", "1e300", "non-finite tower loss at GD step 1"),
])
def test_degenerate_tower_gd_is_a_cli_error(pipeline_dir, tmp_path, capsys,
                                            recwarn, flag, value, message):
    out = tmp_path / "conv"
    rc = run(["diag", "convergence", "--model",
              str(pipeline_dir / "fused.snke"), "--features",
              str(pipeline_dir / "features.snkf"), "--labels",
              str(pipeline_dir / "labels.csv"), "--steps", "5", flag, value,
              "--out-prefix", str(out)])
    assert rc == 1
    assert _cli_errors(capsys) == [f"flowmoe: error: {message}"]
    assert not Path(str(out) + ".txt").exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("stage, message", [
    (["fuse", "--mode", "I", "--experts", "{app}", "{encap}", "--epochs", "2"],
     "non-finite parameters after epoch 1"),
    (["train-expert", "--task", "app", "--epochs", "2"],
     "non-finite training loss at epoch 0"),
], ids=["fuse", "train-expert"])
def test_diverged_training_is_a_cli_error(pipeline_dir, tmp_path, capsys,
                                          recwarn, stage, message):
    """An update that overflows the parameters ends the stage with one
    error line and no model, even when the losses of the epoch, each taken
    before its batch's update, were finite."""
    out = tmp_path / "model.snke"
    argv = [arg.format(app=pipeline_dir / "app.snke",
                       encap=pipeline_dir / "encap.snke") for arg in stage]
    rc = run(argv + ["--lr", "1e300",
                     "--features", str(pipeline_dir / "features.snkf"),
                     "--labels", str(pipeline_dir / "labels.csv"),
                     "--out", str(out)])
    assert rc == 1
    assert _cli_errors(capsys) == [f"flowmoe: error: {message}"]
    assert not out.exists()
    assert not Path(str(out) + ".loss.csv").exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_unknown_flag_exits_nonzero():
    assert run(["gen", "--nonsense"]) != 0


def test_pcap_ingest_command(tmp_path):
    # minimal one-packet capture written by hand
    import struct
    frame = (b"\x02" * 6 + b"\x04" * 6 + b"\x08\x00"
             + struct.pack(">BBHHHBBH", 0x45, 0, 20 + 20 + 3, 1, 0, 64, 6, 0)
             + bytes([10, 0, 0, 1]) + bytes([10, 0, 0, 2])
             + struct.pack(">HHIIBBHHH", 1234, 80, 0, 0, 0x50, 0x18, 4096, 0, 0)
             + b"abc")
    blob = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
    blob += struct.pack("<IIII", 7, 0, len(frame), len(frame)) + frame
    cap = tmp_path / "one.pcap"
    cap.write_bytes(blob)
    out = tmp_path / "cap.snkf"
    assert run(["ingest", "--input", str(cap), "--out", str(out)]) == 0
    from flowmoe import serial
    ids, feats, header = serial.load_features(out)
    assert len(ids) == 1
    assert feats.shape == (1, 912)
    assert feats[0, 0] == ord("a") / 255.0


@pytest.mark.parametrize("magic, per_second", [(0xA1B2C3D4, 10**6),
                                                (0xA1B23C4D, 10**9)],
                         ids=["microseconds", "nanoseconds"])
def test_pcap_ingest_reads_each_magic_in_both_byte_orders(tmp_path, magic,
                                                          per_second):
    # one two-packet TCP flow, written little- and big-endian
    import struct
    from flowmoe import serial

    def frame(src, dst, sport, dport, payload):
        return (b"\x02" * 6 + b"\x04" * 6 + b"\x08\x00"
                + struct.pack(">BBHHHBBH", 0x45, 0, 40 + len(payload), 1, 0,
                              64, 6, 0)
                + bytes(src) + bytes(dst)
                + struct.pack(">HHIIBBHHH", sport, dport, 0, 0, 0x50, 0x18,
                              4096, 0, 0) + payload)

    records = [(7, 0, frame([10, 0, 0, 1], [10, 0, 0, 2], 1234, 80, b"abc")),
               (7, per_second // 4,
                frame([10, 0, 0, 2], [10, 0, 0, 1], 80, 1234, b"de"))]
    written = []
    for order in "<>":
        blob = struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, 65535, 1)
        for sec, frac, data in records:
            blob += struct.pack(order + "IIII", sec, frac, len(data),
                                len(data)) + data
        cap = tmp_path / f"cap{len(written)}.pcap"
        cap.write_bytes(blob)
        out = tmp_path / f"cap{len(written)}.snkf"
        assert run(["ingest", "--input", str(cap), "--out", str(out)]) == 0
        _ids, feats, _header = serial.load_features(out)
        assert feats.shape == (1, 912)
        assert feats[0, :5].tolist() == [v / 255.0 for v in b"abcde"]
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_fused_eval_runs_the_experts_once(pipeline_dir, tmp_path, monkeypatch):
    import flowmoe.fusion as fusion
    from flowmoe.cli import _load_dataset
    from flowmoe.evaluation import (compute_metrics, split_dataset,
                                    write_metrics_csv)

    calls = []
    real = fusion.classify_batch

    def counting(model, X):
        calls.append(len(X))
        return real(model, X)

    monkeypatch.setattr(fusion, "classify_batch", counting)
    prefix = tmp_path / "fused_eval"
    assert run(["eval", "--model", str(pipeline_dir / "fused.snke"),
                "--features", str(pipeline_dir / "features.snkf"),
                "--labels", str(pipeline_dir / "labels.csv"),
                "--part", "test", "--out-prefix", str(prefix)]) == 0
    assert len(calls) == 1
    monkeypatch.undo()
    # reference: each task scored from its own classify_batch call
    model = fusion.load_fused(pipeline_dir / "fused.snke")
    assert len(model.task_ids) == 2
    data = _load_dataset(pipeline_dir / "features.snkf",
                         pipeline_dir / "labels.csv",
                         label_maps=model.label_maps, tasks=model.task_ids)
    test = split_dataset(data, (0.75, 0.10, 0.15), seed=0)[2]
    reference = {t: compute_metrics(test.labels[t],
                                    real(model, test.features)[t][0],
                                    test.label_maps[t])
                 for t in model.task_ids}
    write_metrics_csv(tmp_path / "reference.csv", reference)
    got = Path(str(prefix) + ".metrics.csv").read_bytes()
    assert got == (tmp_path / "reference.csv").read_bytes()


def _raw_container(path, magic, header, payload=b"", version=None):
    import json
    import struct

    from flowmoe import serial
    blob = header if isinstance(header, bytes) else json.dumps(header).encode()
    path.write_bytes(magic + struct.pack(
        "<II", serial.FORMAT_VERSION if version is None else version, len(blob))
        + blob + payload)
    return path


ROW = np.zeros(912).tobytes()


@pytest.mark.parametrize("which,header,payload,message", [
    ("model", b"[1, 2]", b"", "header is not a JSON object"),
    ("model", {"kind": "expert", "tensors": 5}, b"", "'tensors' is not a list"),
    ("model", {"kind": "expert", "tensors": [["w"]]}, b"", "bad tensor entry"),
    ("model", {"kind": "expert", "tensors": [[5, [1]]]}, b"",
     "bad tensor entry"),
    ("model", {"kind": "expert", "tensors": [["w", [2.5]]]}, b"",
     "bad tensor entry"),
    ("model", {"kind": "expert", "tensors": [["w", [-1]]]}, b"",
     "bad tensor entry"),
    ("model", {"kind": "expert", "tensors": [["w", []], ["w", []]]},
     bytes(16), "duplicate tensor 'w'"),
    ("features", {"kind": "features", "tensors": [["features", [1, 912]]]},
     ROW, "header field 'flow_ids'"),
    ("features", {"kind": "features", "flow_ids": ["f0", "f1"],
                  "tensors": [["features", [1, 912]]]},
     ROW, "2 flow id(s) for 1 feature row(s)"),
    ("features", {"kind": "features", "flow_ids": ["f0"], "tensors": []},
     b"", "no 2-D 'features' tensor"),
])
def test_malformed_container_header_is_a_cli_error(pipeline_dir, tmp_path,
                                                   capsys, which, header,
                                                   payload, message):
    from flowmoe import serial
    model = pipeline_dir / "app.snke"
    feats = pipeline_dir / "features.snkf"
    if which == "model":
        broken = model = _raw_container(tmp_path / "bad.snke",
                                        serial.MODEL_MAGIC, header, payload)
    else:
        broken = feats = _raw_container(tmp_path / "bad.snkf",
                                        serial.FEATURE_MAGIC, header, payload)
    rc = run(["classify", "--model", str(model), "--features", str(feats),
              "--out", str(tmp_path / "pred.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    errors = [ln for ln in err.splitlines() if ln.startswith("flowmoe: error:")]
    assert len(errors) == 1
    assert errors[0].startswith(f"flowmoe: error: {broken}: ")
    assert message in errors[0]
    assert "Traceback" not in err


def _narrow(name, cols):
    def damage(tensors):
        tensors[name] = tensors[name][:, :cols]
    return damage


def _drop(name):
    def damage(tensors):
        del tensors[name]
    return damage


def _add(name):
    def damage(tensors):
        tensors[name] = np.zeros(3)
    return damage


@pytest.mark.parametrize("model,damage,message", [
    ("app.snke", _narrow("encoder.attn.q.w", 37),
     "tensor 'encoder.attn.q.w' has shape (38, 37), expected (38, 38)"),
    ("app.snke", _drop("head.fc2.b"), "missing tensor 'head.fc2.b'"),
    ("app.snke", _add("head.fc3.w"), "unexpected tensor(s) ['head.fc3.w']"),
    ("fused.snke", _narrow("tower.app.fc2.w", 2),
     "tensor 'tower.app.fc2.w' has shape (256, 2), expected (256, 3)"),
    ("fused.snke", _drop("expert1.encoder.ln2.beta"),
     "missing tensor 'expert1.encoder.ln2.beta'"),
    ("fused.snke", _add("gate.app.w"), "unexpected tensor(s) ['gate.app.w']"),
])
def test_wrong_model_tensors_are_a_cli_error(pipeline_dir, tmp_path, capsys,
                                             model, damage, message):
    from flowmoe import serial
    header, tensors = serial.load_container(pipeline_dir / model,
                                            serial.MODEL_MAGIC)
    damage(tensors)
    broken = tmp_path / model
    serial.save_container(broken, serial.MODEL_MAGIC, header,
                          list(tensors.items()))
    rc = run(["classify", "--model", str(broken), "--features",
              str(pipeline_dir / "features.snkf"), "--out",
              str(tmp_path / "pred.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"flowmoe: error: {broken}: {message}" in err
    assert "Traceback" not in err


def _cli_errors(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return [ln for ln in err.splitlines() if ln.startswith("flowmoe: error:")]


def _v1_file(pipeline_dir, tmp_path, model):
    """`model` rewritten in the version 1 layout: the v2 header plus the
    fields it derived from others, and every expert's head."""
    from flowmoe import serial
    header, tensors = serial.load_container(pipeline_dir / model,
                                            serial.MODEL_MAGIC)
    if header["kind"] == "expert":
        header.update(input_dim=912, n_target=len(header["label_map"]))
    else:
        tasks = [t for rel in header["relations"] for t in rel["tasks"]]
        header.update(
            task_ids=[t["task_id"] for t in tasks],
            label_maps={t["task_id"]: t["labels"] for t in tasks},
            loss_weights={t["task_id"]: t["alpha"] for t in tasks},
            gates=[{"task_id": t["task_id"], "mode": "default",
                    "subset": t["experts"]} for t in tasks],
            towers=[{"task_id": t["task_id"], "n_classes": len(t["labels"]),
                     "dropout_rate": 0.0} for t in tasks])
        for i, (meta, source) in enumerate(zip(header["experts"],
                                               ("app.snke", "encap.snke"))):
            meta.update(input_dim=912, task_id=meta["id"])
            _, expert = serial.load_container(pipeline_dir / source,
                                              serial.MODEL_MAGIC)
            tensors.update({f"expert{i}.{name}": arr
                            for name, arr in expert.items()
                            if name.startswith("head.")})
    header["tensors"] = [[name, list(arr.shape)]
                         for name, arr in tensors.items()]
    payload = b"".join(arr.astype("<f8").tobytes() for arr in tensors.values())
    return _raw_container(tmp_path / model, serial.MODEL_MAGIC, header,
                          payload, version=1)


@pytest.mark.parametrize("model", ["app.snke", "fused.snke"])
def test_version_1_model_file_is_a_cli_error(pipeline_dir, tmp_path, capsys,
                                             model):
    broken = _v1_file(pipeline_dir, tmp_path, model)
    rc = run(["classify", "--model", str(broken), "--features",
              str(pipeline_dir / "features.snkf"), "--out",
              str(tmp_path / "pred.csv")])
    assert rc == 1
    errors = _cli_errors(capsys)
    assert len(errors) == 1
    assert errors[0].startswith(
        f"flowmoe: error: {broken}: unsupported format version 1")


@pytest.mark.parametrize("which,tensor", [("model", "tower.app.fc1.w"),
                                          ("features", "features")])
def test_non_finite_tensor_is_a_cli_error(pipeline_dir, tmp_path, capsys,
                                          which, tensor):
    from flowmoe import serial
    paths = {"model": pipeline_dir / "fused.snke",
             "features": pipeline_dir / "features.snkf"}
    magic = serial.MODEL_MAGIC if which == "model" else serial.FEATURE_MAGIC
    header, tensors = serial.load_container(paths[which], magic)
    tensors[tensor][1, 2] = np.nan
    broken = paths[which] = tmp_path / paths[which].name
    serial.save_container(broken, magic, header, list(tensors.items()))
    rc = run(["classify", "--model", str(paths["model"]), "--features",
              str(paths["features"]), "--out", str(tmp_path / "pred.csv")])
    assert rc == 1
    assert _cli_errors(capsys) == [
        f"flowmoe: error: {broken}: tensor {tensor!r} holds a non-finite value"]
    assert not (tmp_path / "pred.csv").exists()


def test_duplicate_gate_expert_is_a_cli_error(pipeline_dir, tmp_path, capsys):
    cfg = tmp_path / "fusion.cfg"
    cfg.write_text(f"[experts]\nfiles = {pipeline_dir / 'app.snke'} "
                   f"{pipeline_dir / 'encap.snke'}\n\n[fusion]\nmode = II\n\n"
                   f"[task:app]\nexperts = 0 0\n")
    rc = run(["fuse", "--config", str(cfg), "--features",
              str(pipeline_dir / "features.snkf"), "--labels",
              str(pipeline_dir / "labels.csv"), "--out",
              str(tmp_path / "dup.snke")])
    assert rc == 1
    errors = _cli_errors(capsys)
    assert len(errors) == 1
    assert "gate 'app': subset (0, 0) names an expert twice" in errors[0]
    assert not (tmp_path / "dup.snke").exists()


@pytest.mark.parametrize("option,text,message", [
    ("--column", "nope", "trace.csv: no 'nope' column"),
    ("--domains", "name,acc\niptas,0.4\n", "domains.csv: no 'domain' column"),
], ids=["column", "domains"])
def test_gate_anomaly_missing_column_is_a_cli_error(tmp_path, capsys, option,
                                                    text, message):
    trace = tmp_path / "trace.csv"
    trace.write_text("epoch,total\n0,1.0\n1,0.5\n")
    domains = tmp_path / "domains.csv"
    domains.write_text("domain,accuracy\niptas,0.4\n")
    if option == "--domains":
        domains.write_text(text)
        extra = []
    else:
        extra = [option, text]
    rc = run(["diag", "gate-anomaly", "--trace", str(trace), "--domains",
              str(domains), "--out", str(tmp_path / "report.txt")] + extra)
    assert rc == 1
    assert _cli_errors(capsys) == [f"flowmoe: error: {tmp_path}/{message}"]


BAD_ANOMALY_VALUES = [
    ("trace", "epoch,total\n0,2.0\n1,1.5\n2,1.2\n3,1.0\n4,0.9\n5,nan\n"
              "6,1.3\n7,1.6\n", "trace.csv:7: 'total' value 'nan' is not finite"),
    ("trace", "epoch,total\n0,2.0\n1,-inf\n", "trace.csv:3: 'total' value "
                                                "'-inf' is not finite"),
    ("trace", "epoch,total\n0,2.0\n1,\n", "trace.csv:3: bad 'total' value ''"),
    ("domains", "domain,accuracy\nA,0.9\nB,nan\nA,0.3\n",
     "domains.csv:3: 'accuracy' value 'nan' is not finite"),
    ("domains", "domain,accuracy\nA,0.9\nB,0.4\nA,0.3\n",
     "domains.csv:4: domain 'A' repeats line 2"),
    ("domains", "domain,accuracy\nA,0.9\nB,1.5\n",
     "domains.csv:3: accuracy '1.5' is outside [0, 1]"),
    ("domains", "domain,accuracy\nA,-0.1\n",
     "domains.csv:2: accuracy '-0.1' is outside [0, 1]"),
    ("domains", "domain,accuracy\nA\n",
     "domains.csv:2: row has no 'accuracy' value"),
]


@pytest.mark.parametrize("which,text,message", BAD_ANOMALY_VALUES,
                         ids=["nan-loss", "inf-loss", "empty-loss",
                              "nan-accuracy", "duplicate-domain",
                              "accuracy-above-1", "accuracy-below-0",
                              "short-row"])
def test_gate_anomaly_bad_value_names_file_and_line(tmp_path, capsys, which,
                                                    text, message):
    files = {"trace": "epoch,total\n" + "".join(
        f"{i},{v}\n" for i, v in enumerate(np.linspace(2.0, 1.0, 8))),
             "domains": "domain,accuracy\nA,0.9\nB,0.8\n"}
    files[which] = text
    for name, body in files.items():
        (tmp_path / f"{name}.csv").write_text(body)
    out = tmp_path / "report.txt"
    rc = run(["diag", "gate-anomaly", "--trace", str(tmp_path / "trace.csv"),
              "--domains", str(tmp_path / "domains.csv"), "--out", str(out)])
    assert rc == 1
    assert _cli_errors(capsys) == [f"flowmoe: error: {tmp_path}/{message}"]
    assert not out.exists()


BAD_CONFIG_VALUES = [("task:app", "experts", "0 x", "expert indices"),
                     ("task:app", "alpha", "half", "a number"),
                     ("fusion", "seed", "1.5", "an integer"),
                     ("fusion", "epochs", "ten", "an integer"),
                     ("fusion", "lr", "fast", "a number"),
                     ("fusion", "batch_size", "32k", "an integer"),
                     ("fusion", "dropout", "0,2", "a number")]


@pytest.mark.parametrize("section, key, text, expected", BAD_CONFIG_VALUES,
                         ids=[case[1] for case in BAD_CONFIG_VALUES])
def test_bad_fusion_config_value_names_file_section_and_key(
        tmp_path, capsys, section, key, text, expected):
    body = {"fusion": {"mode": "I"}, "task:app": {"experts": "0"}}
    body[section][key] = text
    cfg = tmp_path / "fusion.cfg"
    cfg.write_text("[experts]\nfiles = a.snke\n\n" + "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
        + "\n" for name, items in body.items()))
    rc = run(["fuse", "--config", str(cfg), "--features", "f.snkf",
              "--labels", "l.csv", "--out", str(tmp_path / "o.snke")])
    assert rc == 1
    assert _cli_errors(capsys) == [f"flowmoe: error: {cfg}: [{section}] "
                                   f"{key} = {text!r}: expected {expected}"]


FUSION_CONFIG_TYPOS = [
    ("fusion", "learning_rate", "0.5",
     "[fusion] learning_rate: unknown key; expected one of batch_size, "
     "dropout, epochs, lr, mode, seed, unfreeze_experts"),
    ("fusion", "unfreeze_experts", "maybe",
     "[fusion] unfreeze_experts = 'maybe': expected a boolean (1/0, yes/no, "
     "true/false or on/off)"),
    ("task:app", "alhpa", "3",
     "[task:app] alhpa: unknown key; expected one of alpha, experts, labels"),
    ("experts", "file", "b.snke",
     "[experts] file: unknown key; expected one of files"),
    ("tsak:x", "experts", "0",
     "[tsak:x]: unknown section; expected [experts], [fusion], [task:<id>] "
     "or [nesting]"),
    ("DEFAULT", "seed", "1",
     "[DEFAULT]: unknown section; expected [experts], [fusion], [task:<id>] "
     "or [nesting]"),
]


@pytest.mark.parametrize("section, key, text, message", FUSION_CONFIG_TYPOS,
                         ids=[case[1] for case in FUSION_CONFIG_TYPOS])
def test_fusion_config_typo_is_one_error_naming_file_section_and_key(
        tmp_path, capsys, section, key, text, message):
    # each of these mistakes used to be read as a default value
    body = {"experts": {"files": "a.snke"}, "fusion": {"mode": "I"},
            "task:app": {"experts": "0"}}
    body.setdefault(section, {})[key] = text
    cfg = tmp_path / "fusion.cfg"
    cfg.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
        + "\n" for name, items in body.items()))
    out = tmp_path / "o.snke"
    rc = run(["fuse", "--config", str(cfg), "--features", "f.snkf",
              "--labels", "l.csv", "--out", str(out)])
    assert rc == 1
    assert _cli_errors(capsys) == [f"flowmoe: error: {cfg}: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("text, expected", [
    ("on", True), ("Yes", True), ("1", True), ("true", True),
    ("off", False), ("no", False), ("0", False), ("FALSE", False)])
def test_fusion_config_reads_every_configparser_boolean(tmp_path, text,
                                                        expected):
    cfg = tmp_path / "fusion.cfg"
    cfg.write_text("[experts]\nfiles = a.snke\n\n[fusion]\nmode = I\n"
                   f"unfreeze_experts = {text}\n\n[task:app]\nexperts = 0\n"
                   "\n[nesting]\nany = label\n")
    assert load_fusion_config(cfg)[2]["unfreeze_experts"] is expected


@pytest.mark.parametrize("flag", [["--experts", "a.snke"], ["--task", "t"],
                                  ["--lr", "1e-3"], ["--epochs", "2"],
                                  ["--batch-size", "8"], ["--dropout", "0.0"],
                                  ["--seed", "0"]], ids=lambda f: f[0])
def test_fuse_config_rejects_flags_it_would_ignore(pipeline_dir, tmp_path,
                                                  capsys, flag):
    out = tmp_path / "o.snke"
    rc = run(["fuse", "--config", str(pipeline_dir / "fusion.cfg"),
              "--features", str(pipeline_dir / "features.snkf"),
              "--labels", str(pipeline_dir / "labels.csv"),
              "--out", str(out)] + flag)
    assert rc == 1
    assert _cli_errors(capsys) == [
        f"flowmoe: error: {flag[0]} cannot be combined with --config, "
        f"which declares the whole fusion"]
    assert not out.exists()


def _logged_hash(log_path, command):
    """The config_sha256 of the last run.log line of `command`."""
    lines = [line for line in log_path.read_text().splitlines()
             if f" cmd={command} " in line]
    return lines[-1].split("config_sha256=")[1].split()[0]


def _files_hash(*paths):
    return hashlib.sha256(b"".join(Path(p).read_bytes()
                                   for p in paths)).hexdigest()[:16]


@pytest.mark.parametrize("how", ["config", "mode"])
def test_fuse_logged_hash_covers_every_expert_file(pipeline_dir, tmp_path,
                                                   how):
    for name in ("features.snkf", "labels.csv", "app.snke", "encap.snke"):
        shutil.copy(pipeline_dir / name, tmp_path / name)
    feats, labels = tmp_path / "features.snkf", tmp_path / "labels.csv"
    app, encap = tmp_path / "app.snke", tmp_path / "encap.snke"
    cfg = tmp_path / "fusion.cfg"
    cfg.write_text(FUSE_CFG.format(app=app, encap=encap))
    if how == "config":
        fuse, inputs = ["fuse", "--config", cfg], [cfg, app, encap]
    else:
        fuse, inputs = ["fuse", "--mode", "I", "--experts", app, encap,
                        "--epochs", "1"], [app, encap]
    fuse += ["--features", feats, "--labels", labels,
             "--out", tmp_path / "fused.snke"]
    hashes = []
    for retrain in (False, True):
        if retrain:      # the same file name, a different expert
            assert run(["train-expert", "--features", str(feats),
                        "--labels", str(labels), "--task", "app",
                        "--out", str(app), "--epochs", "1",
                        "--seed", "7"]) == 0
        assert run([str(a) for a in fuse]) == 0
        hashes.append(_logged_hash(tmp_path / "run.log", "fuse"))
        assert hashes[-1] == _files_hash(*inputs, feats, labels)
    assert hashes[0] != hashes[1]


def test_gate_anomaly_logged_hash_covers_model_features_and_labels(
        pipeline_dir, tmp_path):
    # a category-expansion model fused from the pipeline's two experts,
    # labelled with the app labels (all in the union)
    from flowmoe.data import load_labels_csv, write_labels_csv
    from flowmoe.fusion import load_fused
    source = load_labels_csv(pipeline_dir / "labels.csv")
    ids = sorted(source["app"])
    labels = tmp_path / "labels.csv"
    write_labels_csv(labels, ids, {"union": [source["app"][f] for f in ids]})
    model = tmp_path / "union.snke"
    assert run(["fuse", "--mode", "II", "--experts",
                str(pipeline_dir / "app.snke"), str(pipeline_dir / "encap.snke"),
                "--features", str(pipeline_dir / "features.snkf"),
                "--labels", str(labels), "--epochs", "1",
                "--out", str(model)]) == 0
    assert load_fused(model).task_ids == ["union"]
    trace = tmp_path / "trace.csv"
    trace.write_text("epoch,total\n" + "\n".join(
        f"{i},{v}" for i, v in enumerate(np.linspace(1.0, 0.05, 8))) + "\n")
    out = tmp_path / "report.txt"
    assert run(["diag", "gate-anomaly", "--trace", str(trace),
                "--model", str(model),
                "--features", str(pipeline_dir / "features.snkf"),
                "--labels", str(labels), "--part", "all",
                "--out", str(out)]) == 0
    assert _logged_hash(tmp_path / "run.log", "diag-gate-anomaly") == \
        _files_hash(trace, model, pipeline_dir / "features.snkf", labels)


def test_train_expert_with_an_empty_validation_part(pipeline_dir, tmp_path):
    out = tmp_path / "app.snke"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["train-expert",
                    "--features", str(pipeline_dir / "features.snkf"),
                    "--labels", str(pipeline_dir / "labels.csv"),
                    "--task", "app", "--split", "0.9,0,0.1",
                    "--epochs", "2", "--out", str(out)]) == 0
    rows = Path(str(out) + ".loss.csv").read_text().splitlines()
    assert rows[0] == "epoch,train_loss,val_loss,val_acc"
    assert len(rows) == 3
    assert all(row.endswith(",,") for row in rows[1:])


def test_fuse_stage_traced_peak_stays_within_budget(pipeline_dir, tmp_path):
    """The traced peak of the pipeline's fuse stage (two experts, 160
    flows, Mode I), measured at 18.49 MiB. Holding the loaded experts,
    heads included, through fine-tuning adds 3.86 MiB, and the unsplit
    features 1.11 MiB (160 x 912 fp64 values), so either breaks the
    19.0 MiB budget."""
    code, peak = traced_cli_peak([
        "fuse", "--config", pipeline_dir / "fusion.cfg",
        "--features", pipeline_dir / "features.snkf",
        "--labels", pipeline_dir / "labels.csv",
        "--out", tmp_path / "fused.snke"])
    assert code == 0
    assert peak <= 19.0 * 2**20, peak / 2**20


BAD_GEN_SPECS = [
    ("no-classes", GEN_CFG.split("[classes]")[0],
     "missing or empty [classes] section"),
    ("no-tasks", GEN_CFG.replace("[tasks]\napp = video chat mail\n"
                                 "encap = plain vpn\n", ""),
     "missing or empty [tasks] section"),
    ("seed", GEN_CFG.replace("seed = 13", "seed = x"),
     "[generator] seed = 'x': expected an integer >= 0"),
    ("flows_per_class", GEN_CFG.replace("flows_per_class = 40",
                                        "flows_per_class = 0"),
     "[generator] flows_per_class = '0': expected an integer >= 1"),
]


@pytest.mark.parametrize("text, message", [case[1:] for case in BAD_GEN_SPECS],
                         ids=[case[0] for case in BAD_GEN_SPECS])
def test_bad_generator_spec_is_a_cli_error(tmp_path, capsys, text, message):
    spec = tmp_path / "gen.cfg"
    spec.write_text(text)
    flows, labels = tmp_path / "flows.txt", tmp_path / "labels.csv"
    rc = run(["gen", "--spec", str(spec), "--out-flows", str(flows),
              "--out-labels", str(labels)])
    assert rc == 1
    assert _cli_errors(capsys) == [f"flowmoe: error: {spec}: {message}"]
    assert not flows.exists() and not labels.exists()


# Per file kind: its text, its settings section, that section's keys and
# the sections it may hold.
INI_FILES = {
    "gen": (GEN_CFG, "generator", "flows_per_class, nb, npkt, seed, "
            "separation", "[generator], [tasks], [classes] or [nesting]"),
    "fuse": (FUSE_CFG.format(app="a.snke", encap="e.snke"), "fusion",
             "batch_size, dropout, epochs, lr, mode, seed, unfreeze_experts",
             "[experts], [fusion], [task:<id>] or [nesting]")}


def _ini_fault(kind, fault):
    """The file text with `fault`, and the regex the error line must match
    after "flowmoe: error: <path>"."""
    text, section, keys, sections = INI_FILES[kind]
    header = f"[{section}]\n"
    n_lines = text.count("\n")
    return {
        "unknown-section": (text + "\n[extra]\nx = 1\n", re.escape(
            f": [extra]: unknown section; expected {sections}")),
        "unknown-key": (text.replace(header, header + "sede = 4\n"), re.escape(
            f": [{section}] sede: unknown key; expected one of {keys}")),
        "repeated-section": (text + f"\n{header}seed = 2\n",
                             f":{n_lines + 2}: " + re.escape(
                                 f"[{section}]: repeated")),
        "repeated-key": (text.replace(header, header + "seed = 2\n"),
                         r":\d+: " + re.escape(f"[{section}] seed: repeated")),
        "no-header": ("seed = 1\n" + text, re.escape(
            ":1: not a key = value line under a [section] header")),
        "not-utf8": (text.encode() + b"# caf\xe9\n",
                     f":{n_lines + 1}: byte 0xe9 is not utf-8 text"),
        "default-with-keys": ("[DEFAULT]\nseed = 1\n\n" + text, re.escape(
            f": [DEFAULT]: unknown section; expected {sections}")),
    }[fault]


@pytest.mark.parametrize("fault", ["unknown-section", "unknown-key",
                                   "repeated-section", "repeated-key",
                                   "no-header", "not-utf8",
                                   "default-with-keys"])
@pytest.mark.parametrize("kind", ["gen", "fuse"])
def test_ini_fault_is_one_cli_error_naming_the_file(tmp_path, capsys, kind,
                                                    fault):
    text, tail = _ini_fault(kind, fault)
    cfg = tmp_path / f"{kind}.cfg"
    cfg.write_bytes(text.encode() if isinstance(text, str) else text)
    outs = [tmp_path / "a.out", tmp_path / "b.out"]
    if kind == "gen":
        argv = ["gen", "--spec", str(cfg), "--out-flows", str(outs[0]),
                "--out-labels", str(outs[1])]
    else:
        argv = ["fuse", "--config", str(cfg), "--features", "f.snkf",
                "--labels", "l.csv", "--out", str(outs[0])]
    assert run(argv) == 1
    errors = _cli_errors(capsys)
    assert len(errors) == 1, errors
    assert re.fullmatch(re.escape(f"flowmoe: error: {cfg}") + tail,
                        errors[0]), errors[0]
    assert not any(out.exists() for out in outs)


MIXED_CASE_GEN = """\
[generator]
seed = 3
flows_per_class = 12

[tasks]
Verdict = Benign Evil%
Tool = ToolA ToolB To%(x)s

[classes]
C0 = Benign ToolA
C1 = Evil% ToolB
C2 = Evil% To%(x)s

[nesting]
ToolA = Benign
ToolB = Evil%
To%(x)s = Evil%
"""


def test_mixed_case_keys_and_percent_labels_generate_and_fuse(pipeline_dir,
                                                              tmp_path):
    """Keys of [tasks], [classes] and [nesting] keep their case and `%` is
    literal, in a generator spec and in a Mode III fusion config."""
    from flowmoe.data import load_labels_csv
    from flowmoe.fusion import load_fused
    spec = tmp_path / "gen.cfg"
    spec.write_text(MIXED_CASE_GEN)
    flows, labels = tmp_path / "flows.txt", tmp_path / "labels.csv"
    assert run(["gen", "--spec", str(spec), "--out-flows", str(flows),
                "--out-labels", str(labels)]) == 0
    by_task = load_labels_csv(labels)
    assert list(by_task) == ["Verdict", "Tool"]
    assert set(by_task["Tool"].values()) == {"ToolA", "ToolB", "To%(x)s"}
    feats = tmp_path / "features.snkf"
    assert run(["ingest", "--input", str(flows), "--out", str(feats)]) == 0
    cfg = tmp_path / "fusion.cfg"
    cfg.write_text(
        f"[experts]\nfiles = {pipeline_dir / 'app.snke'} "
        f"{pipeline_dir / 'encap.snke'}\n\n[fusion]\nmode = III\nepochs = 1\n\n"
        "[task:Verdict]\nexperts = 0 1\nlabels = Benign Evil%\n\n"
        "[task:Tool]\nexperts = 0 1\nlabels = ToolA ToolB To%(x)s\n\n"
        "[nesting]\n" + MIXED_CASE_GEN.split("[nesting]\n")[1])
    fused = tmp_path / "fused.snke"
    assert run(["fuse", "--config", str(cfg), "--features", str(feats),
                "--labels", str(labels), "--out", str(fused)]) == 0
    model = load_fused(fused)
    assert model.label_maps == {"Verdict": ["Benign", "Evil%"],
                                "Tool": ["ToolA", "ToolB", "To%(x)s"]}
    assert model.relations[0].nesting == {
        "ToolA": "Benign", "ToolB": "Evil%", "To%(x)s": "Evil%"}


def _run_log_fields(path):
    line = path.read_text().splitlines()[-1]
    return dict(field.split("=", 1) for field in line.split()[1:])


def test_run_log_names_the_blas_kernel_and_thread_count(pipeline_dir):
    fields = _run_log_fields(pipeline_dir / "run.log")
    bundled = list((Path(np.__file__).parent.parent / "numpy.libs")
                   .glob("libscipy_openblas64_*"))
    if not bundled:
        pytest.skip("this numpy bundles no scipy-openblas library")
    assert re.fullmatch(r"\w+", fields["blas_core"])
    assert fields["blas_core"] != "unknown"
    assert int(fields["blas_threads"]) >= 1


@pytest.mark.parametrize("missing", ["library", "symbols"])
def test_run_log_blas_fields_read_unknown_without_the_library(
        tmp_path, monkeypatch, missing):
    import flowmoe.cli
    if missing == "library":
        monkeypatch.setattr(np, "__file__",
                            str(tmp_path / "numpy" / "__init__.py"))
    else:
        monkeypatch.setattr(flowmoe.cli.ctypes, "CDLL", lambda path: object())
    spec = tmp_path / "gen.cfg"
    spec.write_text(GEN_CFG)
    assert run(["gen", "--spec", str(spec), "--out-flows",
                str(tmp_path / "flows.txt"), "--out-labels",
                str(tmp_path / "labels.csv")]) == 0
    fields = _run_log_fields(tmp_path / "run.log")
    assert (fields["blas_core"], fields["blas_threads"]) == ("unknown",
                                                             "unknown")


def test_negative_gen_seed_flag_is_a_cli_error(tmp_path, capsys):
    spec = tmp_path / "gen.cfg"
    spec.write_text(GEN_CFG)
    flows = tmp_path / "flows.txt"
    rc = run(["gen", "--spec", str(spec), "--seed", "-1", "--out-flows",
              str(flows), "--out-labels", str(tmp_path / "labels.csv")])
    assert rc == 1
    assert _cli_errors(capsys) == [
        "flowmoe: error: --seed -1: expected an integer >= 0"]
    assert not flows.exists()


def test_gen_builds_no_feature_matrix(tmp_path, monkeypatch):
    import flowmoe.data
    import flowmoe.ingest
    import flowmoe.synth
    calls = []
    for module in (flowmoe.synth, flowmoe.ingest, flowmoe.data):
        for name in ("flows_to_features", "build_dataset"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    lambda *a, _n=name, **k: calls.append(_n))
    spec = tmp_path / "gen.cfg"
    spec.write_text(GEN_CFG)
    assert run(["gen", "--spec", str(spec),
                "--out-flows", str(tmp_path / "flows.txt"),
                "--out-labels", str(tmp_path / "labels.csv")]) == 0
    assert calls == []
    records = (tmp_path / "flows.txt").read_text().splitlines()[1:]
    assert len(records) == 160      # 4 classes x 40 flows


def test_module_form_runs_the_cli(tmp_path):
    spec = tmp_path / "gen.cfg"
    spec.write_text(GEN_CFG.replace("seed = 13", "seed = x"))
    import flowmoe
    src = str(Path(flowmoe.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "flowmoe.cli", "gen", "--spec", str(spec),
         "--out-flows", str(tmp_path / "flows.txt"),
         "--out-labels", str(tmp_path / "labels.csv")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.strip().endswith(
        "[generator] seed = 'x': expected an integer >= 0")


def test_ingest_with_non_default_extraction_matches_oracle(pipeline_dir,
                                                           tmp_path):
    import prep_oracle
    from flowmoe import serial
    from flowmoe.ingest import ExtractionConfig, read_flow_records
    out = tmp_path / "features.snkf"
    assert run(["ingest", "--input", str(pipeline_dir / "flows.txt"),
                "--out", str(out), "--nb", "100", "--npkt", "6",
                "--iat-scale", "0.05"]) == 0
    ids, feats, _ = serial.load_features(out)
    cfg = ExtractionConfig(nb=100, npkt=6,
                           hdr_scales=(1500.0, 65535.0, 0.05, 1.0))
    flows = read_flow_records(pipeline_dir / "flows.txt")
    assert ids == [f.flow_id for f in flows]
    want = np.stack([prep_oracle.extract_features(f, cfg).flat for f in flows])
    assert feats.tobytes() == want.tobytes()


def test_train_expert_without_test_rows_writes_nothing(pipeline_dir, tmp_path,
                                                       capsys):
    out = tmp_path / "app.snke"
    rc = run(["train-expert", "--features", str(pipeline_dir / "features.snkf"),
              "--labels", str(pipeline_dir / "labels.csv"), "--task", "app",
              "--split", "0.9,0.1,0", "--epochs", "1", "--out", str(out)])
    assert rc == 1
    assert _cli_errors(capsys) == [
        "flowmoe: error: empty evaluation set: --split 0.9,0.1,0 leaves no "
        "test rows"]
    assert not out.exists()
    assert not Path(str(out) + ".loss.csv").exists()


EMPTY_PART_STAGES = {
    "train-expert": lambda d, out: [
        "train-expert", "--task", "app", "--epochs", "1", "--out",
        out / "e.snke"],
    "fuse": lambda d, out: [
        "fuse", "--config", d / "fusion.cfg", "--out", out / "fused.snke"],
    "eval": lambda d, out: [
        "eval", "--model", d / "fused.snke", "--out-prefix", out / "m"],
    "diag-convergence": lambda d, out: [
        "diag", "convergence", "--model", d / "fused.snke", "--steps", "3",
        "--out-prefix", out / "conv"],
    "diag-gate-anomaly": lambda d, out: [
        "diag", "gate-anomaly", "--trace", d / "fused.snke.loss.csv",
        "--model", d / "fused.snke", "--out", out / "anomaly.txt"],
}


@pytest.fixture(scope="module")
def single_task_dir(pipeline_dir, tmp_path_factory):
    """A directory holding `fused.snke`, a one-task Mode I model of the
    pipeline's app expert, and its loss trace."""
    d = tmp_path_factory.mktemp("single")
    assert run(["fuse", "--mode", "I",
                "--experts", str(pipeline_dir / "app.snke"),
                "--features", str(pipeline_dir / "features.snkf"),
                "--labels", str(pipeline_dir / "labels.csv"), "--epochs", "1",
                "--out", str(d / "fused.snke")]) == 0
    return d


@pytest.mark.parametrize("stage, split, message", [
    ("train-expert", "0,0.5,0.5", "empty training set: --split 0,0.5,0.5 "
                                  "leaves no train rows"),
    ("fuse", "0,0.5,0.5", "empty training set: --split 0,0.5,0.5 leaves no "
                          "train rows"),
    ("eval", "0.5,0.5,0", "empty evaluation set: --split 0.5,0.5,0 leaves "
                          "no test rows"),
    ("diag-convergence", "0,0.5,0.5", "empty training set: --split "
                                      "0,0.5,0.5 leaves no train rows"),
    ("diag-gate-anomaly", "0.5,0.5,0", "empty evaluation set: --split "
                                       "0.5,0.5,0 leaves no test rows"),
])
def test_empty_split_part_is_one_cli_error(pipeline_dir, tmp_path, capsys,
                                           request, stage, split, message):
    models = pipeline_dir
    if stage == "diag-gate-anomaly":
        # per-domain accuracy needs a one-task model, checked before the data
        models = request.getfixturevalue("single_task_dir")
        capsys.readouterr()
    argv = EMPTY_PART_STAGES[stage](models, tmp_path) + [
        "--features", pipeline_dir / "features.snkf",
        "--labels", pipeline_dir / "labels.csv", "--split", split]
    with warnings.catch_warnings():
        warnings.simplefilter("error")       # no numpy warning first
        rc = run([str(a) for a in argv])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"flowmoe: error: {message}"]
    assert list(tmp_path.iterdir()) == []


def test_gate_anomaly_rejects_experts_that_share_an_id(pipeline_dir, tmp_path,
                                                       capsys):
    from flowmoe.data import load_labels_csv, write_labels_csv
    source = load_labels_csv(pipeline_dir / "labels.csv")
    ids = sorted(source["app"])
    labels = tmp_path / "labels.csv"
    write_labels_csv(labels, ids, {"union": [source["app"][f] for f in ids]})
    app = str(pipeline_dir / "app.snke")
    model = tmp_path / "twice.snke"
    assert run(["fuse", "--mode", "II", "--experts", app, app,
                "--features", str(pipeline_dir / "features.snkf"),
                "--labels", str(labels), "--epochs", "1",
                "--out", str(model)]) == 0
    trace = tmp_path / "trace.csv"
    trace.write_text("epoch,total\n" + "\n".join(
        f"{i},{v}" for i, v in enumerate(np.linspace(1.0, 0.05, 8))) + "\n")
    out = tmp_path / "report.txt"
    capsys.readouterr()
    rc = run(["diag", "gate-anomaly", "--trace", str(trace),
              "--model", str(model),
              "--features", str(pipeline_dir / "features.snkf"),
              "--labels", str(labels), "--part", "all", "--out", str(out)])
    assert rc == 1
    assert _cli_errors(capsys) == [
        "flowmoe: error: experts share the id 'app', so their domains "
        "cannot be told apart"]
    assert not out.exists()


def test_gate_anomaly_checks_the_model_before_reading_data(pipeline_dir,
                                                          tmp_path, capsys):
    out = tmp_path / "report.txt"
    rc = run(["diag", "gate-anomaly",
              "--trace", str(pipeline_dir / "fused.snke.loss.csv"),
              "--model", str(pipeline_dir / "fused.snke"),
              "--features", str(tmp_path / "missing.snkf"),
              "--labels", str(tmp_path / "missing.csv"), "--out", str(out)])
    assert rc == 1
    assert _cli_errors(capsys) == [
        "flowmoe: error: per-domain evaluation needs a single-task "
        "(category expansion) fused model"]
    assert not out.exists()


def test_eval_of_a_task_the_fused_model_lacks_is_one_cli_error(
        pipeline_dir, tmp_path, capsys):
    rc = run(["eval", "--model", str(pipeline_dir / "fused.snke"),
              "--features", str(pipeline_dir / "features.snkf"),
              "--labels", str(pipeline_dir / "labels.csv"),
              "--task", "nosuch", "--out-prefix", str(tmp_path / "m")])
    assert rc == 1
    assert _cli_errors(capsys) == [
        "flowmoe: error: --task 'nosuch': the fused model's tasks are "
        "['app', 'encap']"]
    assert list(tmp_path.iterdir()) == []


def _rewritten_features(pipeline_dir, tmp_path, ids, rows):
    """A copy of the pipeline's feature file with the flow ids `ids` for
    the feature rows `rows` (an index array)."""
    from flowmoe import serial
    flow_ids, feats, _ = serial.load_features(pipeline_dir / "features.snkf")
    out = tmp_path / "features.snkf"
    serial.save_features(out, ids(flow_ids), feats[rows(len(flow_ids))])
    return out, flow_ids


def test_feature_file_with_non_string_flow_ids_is_a_cli_error(
        pipeline_dir, tmp_path, capsys):
    feats, _ = _rewritten_features(pipeline_dir, tmp_path,
                                   lambda ids: [None] * len(ids),
                                   lambda n: np.arange(n))
    pred = tmp_path / "pred.csv"
    rc = run(["classify", "--model", str(pipeline_dir / "fused.snke"),
              "--features", str(feats), "--out", str(pred)])
    assert rc == 1
    assert _cli_errors(capsys) == [
        f"flowmoe: error: {feats}: flow id None is not a string"]
    assert not pred.exists()


def test_feature_file_with_a_repeated_flow_id_is_a_cli_error(
        pipeline_dir, tmp_path, capsys):
    # every flow twice: `eval --part all` would score each flow twice
    feats, ids = _rewritten_features(pipeline_dir, tmp_path,
                                     lambda ids: ids + ids,
                                     lambda n: np.tile(np.arange(n), 2))
    prefix = tmp_path / "m"
    rc = run(["eval", "--model", str(pipeline_dir / "fused.snke"),
              "--features", str(feats),
              "--labels", str(pipeline_dir / "labels.csv"),
              "--part", "all", "--out-prefix", str(prefix)])
    assert rc == 1
    assert _cli_errors(capsys) == [
        f"flowmoe: error: {feats}: flow id {ids[0]!r} is repeated"]
    assert list(tmp_path.iterdir()) == [feats]


def test_train_expert_on_a_feature_file_without_rows_is_a_cli_error(
        pipeline_dir, tmp_path, capsys):
    feats, _ = _rewritten_features(pipeline_dir, tmp_path, lambda ids: [],
                                   lambda n: np.arange(0))
    out = tmp_path / "app.snke"
    rc = run(["train-expert", "--features", str(feats),
              "--labels", str(pipeline_dir / "labels.csv"), "--task", "app",
              "--epochs", "1", "--out", str(out)])
    assert rc == 1
    assert _cli_errors(capsys) == [
        "flowmoe: error: the dataset is empty: it has no rows to split"]
    assert not out.exists()
