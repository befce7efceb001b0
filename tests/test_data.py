"""Label CSV parsing: the flow_id,task_id,label format."""

import csv
import io
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowmoe.data import load_labels_csv, write_labels_csv


def test_labels_csv_round_trip(tmp_path):
    path = tmp_path / "labels.csv"
    write_labels_csv(path, ["f1", "f2"], {"app": ["video", "chat"],
                                          "encap": ["vpn", "plain"]})
    assert load_labels_csv(path) == {"app": {"f1": "video", "f2": "chat"},
                                     "encap": {"f1": "vpn", "f2": "plain"}}


def test_labels_csv_rejects_duplicate_pair(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("flow_id,task_id,label\n"
                    "f1,app,video\n"
                    "f1,encap,vpn\n"          # same flow, other task: fine
                    "f2,app,chat\n"
                    "f1,app,mail\n")
    with pytest.raises(ValueError) as exc:
        load_labels_csv(path)
    msg = str(exc.value)
    assert msg.startswith(f"{path}:5: duplicate row")
    assert "'f1'" in msg and "'app'" in msg


def test_labels_csv_names_file_and_line_of_undecodable_byte(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_bytes(b"flow_id,task_id,label\nf1,app,video\nf2,app,ch\xffat\n")
    with pytest.raises(ValueError) as exc:
        load_labels_csv(path)
    assert str(exc.value) == f"{path}:3: byte 0xff is not utf-8 text"


def test_labels_csv_rejects_short_row(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("label,flow_id,task_id\nvideo,f1\n")
    with pytest.raises(ValueError) as exc:
        load_labels_csv(path)
    assert str(exc.value) == f"{path}:2: row has no 'task_id' value"


@pytest.mark.parametrize("row, column", [
    ("f1,app,", "label"), (",app,video", "flow_id"), ("f2,,x", "task_id")])
def test_labels_csv_rejects_empty_value(tmp_path, row, column):
    path = tmp_path / "labels.csv"
    path.write_text(f"flow_id,task_id,label\nf0,app,chat\n{row}\n")
    with pytest.raises(ValueError) as exc:
        load_labels_csv(path)
    assert str(exc.value) == f"{path}:3: empty {column!r} value"


def test_labels_csv_malformed_line_is_a_value_error(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("flow_id,task_id,label\nf1,app," + "v" * 200_000 + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: "
                                         "field larger than field limit"):
        load_labels_csv(path)


# value-level fuzzing: fields drawn from a small pool (so rows repeat) or
# from text with CSV specials; headers that lack a column, reorder or add
# one; rows shorter or longer than the header; a non-UTF-8 byte spliced in
FUZZ_FIELD = st.sampled_from(["f1", "f2", "app", "encap", "video"]) \
    | st.text(alphabet='ab,"\n\r é', max_size=4)
FUZZ_HEADERS = [["flow_id", "task_id", "label"], ["label", "flow_id", "task_id"],
                ["flow_id", "task_id", "label", "note"], ["flow_id", "label"],
                []]
REQUIRED = ("flow_id", "task_id", "label")


@st.composite
def fuzz_labels_csv(draw):
    header = draw(st.sampled_from(FUZZ_HEADERS))
    rows = draw(st.lists(st.lists(FUZZ_FIELD, min_size=1, max_size=4),
                         max_size=6))
    text = io.StringIO()
    csv.writer(text).writerows([header] + rows)
    data = text.getvalue().encode("utf-8")
    corrupt = draw(st.integers(0, 3)) == 0
    if corrupt:
        at = draw(st.integers(0, len(data)))
        bad = draw(st.sampled_from([b"\xff", b"\x80", b"\xed\xa0\x80"]))
        data = data[:at] + bad + data[at:]
    return header, rows, data, corrupt


def _expected_labels(header, rows):
    """Oracle: the mapping a valid file gives, or None if it must fail."""
    if not set(REQUIRED).issubset(header):
        return None
    out = {}
    for row in rows:
        record = dict(zip(header, row))
        if any(not record.get(key) for key in REQUIRED):   # missing or ""
            return None
        assignment = out.setdefault(record["task_id"], {})
        if record["flow_id"] in assignment:
            return None
        assignment[record["flow_id"]] = record["label"]
    return out


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=fuzz_labels_csv())
def test_labels_csv_fuzz_returns_mapping_or_names_the_file(tmp_path, case):
    header, rows, data, corrupt = case
    path = tmp_path / "labels.csv"
    path.write_bytes(data)
    expected = None if corrupt else _expected_labels(header, rows)
    try:
        got = load_labels_csv(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}:"), str(exc)
        assert expected is None, str(exc)
        return
    assert got == expected
