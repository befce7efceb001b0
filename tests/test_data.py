"""Label CSV parsing: the flow_id,task_id,label format."""

import pytest

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
    assert str(path) in msg
    assert "line 5" in msg
    assert "'f1'" in msg and "'app'" in msg
