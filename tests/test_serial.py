"""Model and feature containers: schema checks at load and a loader fuzz."""

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowmoe import serial
from flowmoe.expert import ExpertModel, save_expert
from flowmoe.fusion import (FusionMode, TaskRelation, TaskSpec,
                            configure_fusion, load_any_model, load_expert,
                            save_fused)
from flowmoe.nn import (encoder_shapes, gate_linear_shapes, head_shapes,
                        init_encoder, init_gate_linear, init_head)


def _expert(seed, labels):
    rng = np.random.default_rng(seed)
    return ExpertModel(id=f"e{seed}", encoder=init_encoder(rng),
                       head=init_head(rng, len(labels)), label_map=labels,
                       task_id="verdict")


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    """An expert file and a fused file per mode: Mode III (`fused`,
    trainable gates), Mode I (default gates) and Mode II (uniform gate)."""
    root = tmp_path_factory.mktemp("models")
    expert = _expert(1, ["good", "bad"])
    save_expert(expert, root / "expert.snke")
    relations = {
        "fused": TaskRelation(
            mode=FusionMode.MODE_III,
            tasks=[TaskSpec("verdict", experts=(0,)), TaskSpec("tool")],
            nesting={"x": "good", "y": "bad", "z": "bad"}),
        "fused_I": TaskRelation(FusionMode.MODE_I, [
            TaskSpec("verdict", experts=(0,)), TaskSpec("tool", experts=(1,))]),
        "fused_II": TaskRelation(FusionMode.MODE_II, [
            TaskSpec("tool", experts=(0, 1))]),
    }
    files = {"expert": root / "expert.snke"}
    for name, relation in relations.items():
        n = 1 if relation.mode is FusionMode.MODE_III else 2
        experts = [_expert(2 + j, [["good", "bad"], ["x", "y", "z"]][j])
                   for j in range(n)]
        files[name] = root / f"{name}.snke"
        save_fused(configure_fusion(experts, relation, seed=3), files[name])
    return files


@pytest.mark.parametrize("n", [1, 3, 7])
def test_shape_schemas_match_initializers(n):
    rng = np.random.default_rng(n)
    for shapes, params in ((encoder_shapes(), init_encoder(rng)),
                           (head_shapes(n), init_head(rng, n)),
                           (gate_linear_shapes(n), init_gate_linear(n))):
        assert list(shapes) == list(dict(params.items()))
        assert all(params[k].data.shape == s for k, s in shapes.items())


def test_valid_files_load_bit_for_bit(model_files):
    model = load_expert(model_files["expert"])
    reference = _expert(1, ["good", "bad"])
    for name, t in reference.encoder.items():
        assert np.array_equal(model.encoder[name].data, t.data)
    kind, fused = load_any_model(model_files["fused"])
    assert kind == "fused"
    assert set(dict(fused.gates["tool"].linear.items())) == {"w", "b"}


def _split(path):
    data = path.read_bytes()
    hlen = struct.unpack("<I", data[8:12])[0]
    return data[:8], json.loads(data[12:12 + hlen]), data[12 + hlen:]


def _frame(prefix, header, payload):
    blob = json.dumps(header).encode("utf-8")
    return prefix[:4] + struct.pack("<II", serial.FORMAT_VERSION,
                                    len(blob)) + blob + payload


def _task(header, i):
    return header["relations"][0]["tasks"][i]


def _float_subset(header):
    _task(header, 0)["experts"] = [0.0]


def _ghost_task(header):
    _task(header, 1)["task_id"] = "ghost"


def _string_label_map(header):
    _task(header, 1)["labels"] = "xyz"


def _short_label_map(header):
    # 'z' leaves the nesting too, so only the stored tower disagrees
    _task(header, 1)["labels"] = ["x", "y"]
    del header["relations"][0]["nesting"]["z"]


def _stray_nesting_key(header):
    _task(header, 1)["labels"] = ["x", "y"]


def _duplicate_expert(header):
    _task(header, 0)["experts"] = [0, 0]


def _unknown_mode(header):
    header["relations"][0]["mode"] = "IV"


def _nan_alpha(header):
    _task(header, 0)["alpha"] = float("nan")


def _negative_alpha(header):
    _task(header, 0)["alpha"] = -0.5


def _bool_alpha(header):
    _task(header, 0)["alpha"] = True


def _repeated_label(header):
    _task(header, 1)["labels"] = ["x", "y", "x"]
    del header["relations"][0]["nesting"]["z"]


def _no_relations(header):
    header["relations"] = []


@pytest.mark.parametrize("damage,message", [
    (_float_subset, "subset holds a non-integer expert index"),
    (_ghost_task, "missing tensor 'gate.ghost.w'"),
    (_string_label_map, "a label map is not a list"),
    (_short_label_map, r"tensor 'tower.tool.fc2.w' has shape \(256, 3\), "
                       r"expected \(256, 2\)"),
    (_stray_nesting_key, r"nesting keys \['z'\] are not fine labels"),
    (_duplicate_expert, r"gate 'verdict': subset \(0, 0\) names an expert "
                        r"twice"),
    (_unknown_mode, "'IV' is not a valid FusionMode"),
    (_nan_alpha, "task 'verdict': non-finite loss weight"),
    (_negative_alpha, "task 'verdict': negative loss weight -0.5"),
    (_bool_alpha, "header field 'alpha' is missing or of the wrong type"),
    (_repeated_label, r"task 'tool': label map \['x', 'y', 'x'\] names a "
                      r"label twice"),
    (_no_relations, "no tasks declared"),
])
def test_inconsistent_fused_header_is_rejected(model_files, tmp_path, damage,
                                               message):
    prefix, header, payload = _split(model_files["fused"])
    damage(header)
    broken = tmp_path / "broken.snke"
    broken.write_bytes(_frame(prefix, header, payload))
    with pytest.raises(ValueError, match=f"^{broken}: .*{message}"):
        load_any_model(broken)


def test_fused_expert_records_survive_a_save_load_round_trip(tmp_path):
    # the header stores each expert's id and label map, and the records
    # hold nothing more, so a loaded model's records equal the saved ones
    experts = [_expert(2 + j, labels)
               for j, labels in enumerate((["good", "bad"], ["x", "y"]))]
    fused = configure_fusion(experts, TaskRelation(FusionMode.MODE_I, [
        TaskSpec("t0", experts=(0,)), TaskSpec("t1", experts=(1,))]), seed=3)
    save_fused(fused, tmp_path / "fused.snke")
    assert load_any_model(tmp_path / "fused.snke")[1].experts == fused.experts


JSON = st.recursive(
    st.none() | st.booleans() | st.sampled_from([0, 1, -1, 2, 38, 10 ** 30])
    | st.integers(-5, 10 ** 6) | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=6)


def _mutate_header(data, header):
    """Replace or delete one node anywhere in the header tree."""
    parent, key = None, None
    node = header
    while (isinstance(node, (dict, list)) and node
           and data.draw(st.integers(0, 3)) > 0):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(list(keys)))
        node = parent[key]
    if parent is None:
        return data.draw(JSON)
    if data.draw(st.integers(0, 4)) == 0:
        del parent[key]
    else:
        parent[key] = data.draw(JSON)
    return header


@settings(derandomize=True, database=None, max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_loader_fuzz_raises_only_value_error(model_files, tmp_path, data):
    source = model_files[data.draw(st.sampled_from(sorted(model_files)))]
    prefix, header, payload = _split(source)
    how = data.draw(st.sampled_from(["header", "bytes", "truncate"]))
    if how == "header":
        blob = _frame(prefix, _mutate_header(data, header), payload)
    else:
        blob = bytearray(source.read_bytes())
        end = 12 + struct.unpack("<I", blob[8:12])[0]
        # most positions land in the header and its framing, some in the payload
        pos = data.draw(st.integers(0, end + 64) | st.integers(0, len(blob) - 1))
        if how == "truncate":
            del blob[pos:]
        else:
            for offset, value in enumerate(data.draw(
                    st.lists(st.integers(0, 255), min_size=1, max_size=4))):
                if pos + offset < len(blob):
                    blob[pos + offset] = value
    broken = tmp_path / "broken.snke"
    broken.write_bytes(bytes(blob))
    for load in (lambda p: serial.load_container(p, serial.MODEL_MAGIC),
                 load_any_model):
        try:
            load(broken)
        except ValueError as exc:
            assert str(exc).startswith(f"{broken}: ")


def test_container_tensors_round_trip_bitwise_as_owned_arrays(tmp_path):
    rng = np.random.default_rng(3)
    tensors = [("a", rng.normal(size=(3, 5))), ("empty", np.zeros((0, 4))),
               ("b", np.array([-0.0, 5e-324, 1.7976931348623157e308]))]
    path = tmp_path / "t.snkf"
    serial.save_container(path, serial.FEATURE_MAGIC, {"kind": "x"}, tensors)
    _header, loaded = serial.load_container(path, serial.FEATURE_MAGIC)
    assert list(loaded) == [name for name, _ in tensors]
    for name, arr in tensors:
        got = loaded[name]
        assert got.shape == arr.shape and got.dtype == np.float64
        assert got.tobytes() == arr.tobytes()        # -0.0 and subnormals too
        assert got.flags.writeable       # a copy, not a view of the bytes
    # a payload one byte short is reported at the tensor it cuts
    blob = path.read_bytes()
    path.write_bytes(blob[:-1])
    with pytest.raises(ValueError, match=r"truncated tensor payload at 'b'"):
        serial.load_container(path, serial.FEATURE_MAGIC)
