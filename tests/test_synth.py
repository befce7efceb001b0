"""Synthetic generator: determinism, separability oracle, nesting, round trip."""

import dataclasses

import numpy as np
import pytest

from flowmoe.data import build_dataset, load_labels_csv
from flowmoe.ingest import (TCP, UDP, ExtractionConfig, flows_to_features,
                            read_flow_records)
from flowmoe.synth import (GeneratorSpec, _synth_flow, default_profile,
                           emit_files, generate_flows)

import prep_oracle
from synth_data import generate_dataset


def nearest_centroid_accuracy(features, labels, train_frac=0.5, seed=0):
    """Brute-force centroid classifier oracle."""
    rng = np.random.default_rng(seed)
    idx = rng.permutation(len(labels))
    cut = int(len(idx) * train_frac)
    tr, te = idx[:cut], idx[cut:]
    classes = np.unique(labels)
    centroids = np.stack([features[tr][labels[tr] == c].mean(axis=0)
                          for c in classes])
    dists = ((features[te][:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    pred = classes[np.argmin(dists, axis=1)]
    return float((pred == labels[te]).mean())


def three_class_spec(seed=0, flows_per_class=60, separation=3.0):
    return GeneratorSpec(
        tasks={"app": ["video", "chat", "mail"]},
        class_labels={"c_video": {"app": "video"},
                      "c_chat": {"app": "chat"},
                      "c_mail": {"app": "mail"}},
        flows_per_class=flows_per_class,
        seed=seed,
        separation=separation,
    )


def test_same_seed_bit_identical():
    a = generate_dataset(three_class_spec(seed=9))
    b = generate_dataset(three_class_spec(seed=9))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels["app"], b.labels["app"])
    c = generate_dataset(three_class_spec(seed=10))
    assert not np.array_equal(a.features, c.features)


def test_centroid_oracle_on_separated_classes():
    ds = generate_dataset(three_class_spec(separation=3.0))
    acc = nearest_centroid_accuracy(ds.features, ds.labels["app"])
    assert acc >= 0.99


def test_feature_invariants_on_every_sample():
    ds = generate_dataset(three_class_spec(flows_per_class=20))
    cfg = ExtractionConfig()
    assert ds.features.shape[1] == cfg.dim
    pay = ds.features[:, :cfg.nb]
    assert np.all(pay >= 0.0) and np.all(pay <= 1.0)
    hdr = ds.features[:, cfg.nb:].reshape(-1, cfg.npkt, 4)
    assert np.all(np.isin(np.round(hdr[:, :, 3], 12), [0.0, 1.0]))


def refinement_spec(seed=0, flows_per_class=10):
    fine = [f"tool{i}" for i in range(4)]
    nesting = {"tool0": "benign", "tool1": "benign",
               "tool2": "malicious", "tool3": "malicious"}
    return GeneratorSpec(
        tasks={"verdict": ["benign", "malicious"], "tool": fine},
        class_labels={f"c{i}": {"verdict": nesting[f"tool{i}"],
                                "tool": f"tool{i}"} for i in range(4)},
        flows_per_class=flows_per_class,
        seed=seed,
        nesting=nesting,
    )


def test_refinement_labels_consistent():
    spec = refinement_spec()
    ds = generate_dataset(spec)
    coarse_map, fine_map = ds.label_maps["verdict"], ds.label_maps["tool"]
    for c_idx, f_idx in zip(ds.labels["verdict"], ds.labels["tool"]):
        assert spec.nesting[fine_map[f_idx]] == coarse_map[c_idx]


def test_inconsistent_nesting_rejected():
    nesting = {"tool0": "malicious", "tool1": "benign",
               "tool2": "malicious", "tool3": "malicious"}
    with pytest.raises(ValueError, match="does not match nesting"):
        GeneratorSpec(
            tasks={"verdict": ["benign", "malicious"],
                   "tool": [f"tool{i}" for i in range(4)]},
            class_labels={"c0": {"verdict": "benign", "tool": "tool0"}},
            nesting=nesting,
        )


def test_round_trip_through_flow_records(tmp_path):
    spec = three_class_spec(flows_per_class=8)
    flows_path = tmp_path / "flows.txt"
    labels_path = tmp_path / "labels.csv"
    assert emit_files(spec, flows_path, labels_path) == 24
    direct = generate_dataset(spec)
    ids, mat = flows_to_features(read_flow_records(flows_path))
    back = build_dataset(ids, mat, load_labels_csv(labels_path),
                         label_maps=spec.tasks)
    assert back.flow_ids == direct.flow_ids
    assert back.features.tobytes() == direct.features.tobytes()
    assert np.array_equal(back.labels["app"], direct.labels["app"])


def _flow_fields(flow):
    """Everything a flow carries, with the types of its numbers."""
    return (flow.flow_id, flow.key, flow.forward_endpoint,
            [(type(p.timestamp), type(p.tcp_window), p) for p in flow.packets])


@pytest.mark.parametrize("protocol", [TCP, UDP])
@pytest.mark.parametrize("n_means, longer", [(16, True), (20000, False)],
                         ids=["stream-longer-than-means",
                              "stream-shorter-than-means"])
def test_synth_flow_matches_oracle(protocol, n_means, longer):
    # byte means cycle when a stream outlasts them, and are cut when not
    profile = default_profile("c", 0, three_class_spec())
    profile = dataclasses.replace(
        profile, protocol=protocol,
        payload_mean=np.resize(profile.payload_mean, n_means))
    rng, oracle_rng = np.random.default_rng(7), np.random.default_rng(7)
    for i in range(20):
        flow = _synth_flow(profile, rng, i, 3)
        want = prep_oracle.synth_flow(profile, oracle_rng, i, 3)
        assert _flow_fields(flow) == _flow_fields(want)
        total = sum(len(p.payload) for p in flow.packets)
        assert (total > profile.payload_mean.size) == longer
    assert rng.random() == oracle_rng.random()      # the same draws


def test_generate_flows_matches_oracle():
    spec = GeneratorSpec(tasks={"app": [f"l{i}" for i in range(6)]},
                         class_labels={f"c{i}": {"app": f"l{i}"}
                                       for i in range(6)},
                         flows_per_class=5, seed=3)
    flows, names = generate_flows(spec)
    want = []
    for ci, cname in enumerate(spec.class_labels):
        profile = default_profile(cname, ci, spec)
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=spec.seed, spawn_key=(2, ci)))
        for _ in range(spec.flows_per_class):
            want.append(prep_oracle.synth_flow(profile, rng, len(want), ci))
    assert {f.key.protocol for f in flows} == {TCP, UDP}
    assert [_flow_fields(f) for f in flows] == [_flow_fields(f) for f in want]
    assert names["app"] == [f"l{i}" for i in range(6) for _ in range(5)]


def test_generator_config_parsing(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(
        "[generator]\nseed = 5\nflows_per_class = 7\nseparation = 2.5\n\n"
        "[tasks]\napp = a b\nencap = plain vpn\n\n"
        "[classes]\nc0 = a plain\nc1 = b vpn\n"
    )
    spec = GeneratorSpec.from_config(cfg)
    assert spec.seed == 5
    assert spec.flows_per_class == 7
    assert spec.tasks == {"app": ["a", "b"], "encap": ["plain", "vpn"]}
    ds = generate_dataset(spec)
    assert ds.n_samples == 14
    assert set(ds.labels) == {"app", "encap"}


GEN_BODY = {"generator": "seed = 1\nflows_per_class = 3\n",
            "tasks": "app = a b\n", "classes": "c0 = a\nc1 = b\n"}


def _write_spec(tmp_path, body):
    path = tmp_path / "gen.cfg"
    path.write_text("".join(f"[{name}]\n{text}\n" for name, text in body.items()
                            if text is not None))
    return path


@pytest.mark.parametrize("section", ["tasks", "classes"])
@pytest.mark.parametrize("text", [None, ""], ids=["missing", "empty"])
def test_generator_config_without_tasks_or_classes(tmp_path, section, text):
    path = _write_spec(tmp_path, {**GEN_BODY, section: text})
    with pytest.raises(ValueError) as info:
        GeneratorSpec.from_config(path)
    assert str(info.value) == f"{path}: missing or empty [{section}] section"


@pytest.mark.parametrize("key, text, expected", [
    ("seed", "x", "an integer >= 0"), ("seed", "-1", "an integer >= 0"),
    ("flows_per_class", "0", "an integer >= 1"),
    ("flows_per_class", "2.5", "an integer >= 1"),
    ("separation", "0", "a finite number > 0"),
    ("separation", "nan", "a finite number > 0")])
def test_generator_config_bad_value_names_file_section_and_key(
        tmp_path, key, text, expected):
    path = _write_spec(tmp_path, {**GEN_BODY,
                                  "generator": f"{key} = {text}\n"})
    with pytest.raises(ValueError) as info:
        GeneratorSpec.from_config(path)
    assert str(info.value) == (f"{path}: [generator] {key} = {text!r}: "
                               f"expected {expected}")


@pytest.mark.parametrize("key", ["nb", "npkt"])
def test_generator_config_layout_key_is_unknown(tmp_path, key):
    # the feature layout is fixed; a spec cannot size it
    path = _write_spec(tmp_path, {**GEN_BODY, "generator": f"{key} = 100\n"})
    with pytest.raises(ValueError) as info:
        GeneratorSpec.from_config(path)
    assert str(info.value) == (f"{path}: [generator] {key}: unknown key; "
                               f"expected one of flows_per_class, seed, "
                               f"separation")


def test_generator_config_rejected_spec_names_file(tmp_path):
    path = _write_spec(tmp_path, {**GEN_BODY, "classes": "c0 = a\nc1 = z\n"})
    with pytest.raises(ValueError) as info:
        GeneratorSpec.from_config(path)
    assert str(info.value) == (f"{path}: class 'c1': label 'z' not declared "
                               f"for task 'app'")


def test_spec_rejects_fewer_than_one_flow_per_class():
    with pytest.raises(ValueError, match="flows_per_class must be >= 1"):
        three_class_spec(flows_per_class=0)
