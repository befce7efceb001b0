"""Labeled flow datasets, the label CSV format, and the one CSV reader,
CSV writer and INI reader."""

from __future__ import annotations

import configparser
import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class LabeledDataset:
    """Feature matrix plus one integer label per declared task per sample."""

    features: np.ndarray                # (m, dim)
    labels: dict                        # task_id -> (m,) int array
    label_maps: dict                    # task_id -> [class names in index order]
    flow_ids: list

    def __post_init__(self):
        m = self.features.shape[0]
        if len(self.flow_ids) != m:
            raise ValueError("flow id count does not match feature rows")
        for task, arr in self.labels.items():
            if arr.shape != (m,):
                raise ValueError(f"task {task!r}: label count mismatch")
            k = len(self.label_maps[task])
            if arr.size and (arr.min() < 0 or arr.max() >= k):
                raise ValueError(f"task {task!r}: label index out of range")

    @property
    def n_samples(self):
        return self.features.shape[0]

    @property
    def task_ids(self):
        return list(self.labels)

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices)
        return LabeledDataset(
            features=self.features[idx],
            labels={t: a[idx] for t, a in self.labels.items()},
            label_maps=dict(self.label_maps),
            flow_ids=[self.flow_ids[i] for i in idx],
        )

    def single_task(self, task_id) -> "LabeledDataset":
        return LabeledDataset(
            features=self.features,
            labels={task_id: self.labels[task_id]},
            label_maps={task_id: self.label_maps[task_id]},
            flow_ids=self.flow_ids,
        )

    def class_counts(self, task_id):
        k = len(self.label_maps[task_id])
        return np.bincount(self.labels[task_id], minlength=k)


def write_labels_csv(path, flow_ids, labels_by_task):
    """labels_by_task: task_id -> list of label names aligned with flow_ids."""
    write_csv(path, ["flow_id", "task_id", "label"],
              ([fid, task, name] for task, names in labels_by_task.items()
               for fid, name in zip(flow_ids, names)))


def write_csv(path, header, rows):
    """The UTF-8 CSV file at `path`: `header`, then each of `rows`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def csv_rows(path, names):
    """(line number, values of the `names` columns) per row of the UTF-8
    CSV file at `path`, whose header names its columns. A missing column,
    a short row, a byte that is not UTF-8 or a malformed line is a
    ValueError naming the file and, past the header, the line."""
    with open(path, newline="", encoding="utf-8",
              errors="surrogateescape") as fh:
        reader = csv.DictReader(text_lines(path, fh, "utf-8"))
        try:
            for name in names:
                if name not in (reader.fieldnames or ()):
                    raise ValueError(f"{path}: no {name!r} column")
            for row in reader:
                values = [row[name] for name in names]
                if None in values:
                    raise ValueError(f"{path}:{reader.line_num}: row has no "
                                     f"{names[values.index(None)]!r} value")
                yield reader.line_num, values
        except csv.Error as exc:    # DictReader.line_num lags on an error
            raise ValueError(f"{path}:{reader.reader.line_num}: "
                             f"{exc}") from None


def text_lines(path, fh, encoding):
    """Lines of `fh`, a text file opened with errors="surrogateescape"; a
    byte that does not decode is a ValueError naming the file and line."""
    for lineno, line in enumerate(fh, 1):
        try:
            if not line.isascii():       # ASCII decodes in every encoding
                line.encode(encoding)
        except UnicodeEncodeError as exc:
            byte = ord(line[exc.start]) - 0xDC00     # surrogate-escaped byte
            raise ValueError(f"{path}:{lineno}: byte 0x{byte:02x} is not "
                             f"{encoding} text") from None
        yield line


@dataclass(frozen=True)
class Key:
    """How `read_ini` converts, checks and defaults one key's text."""

    convert: Callable
    default: object = None
    expected: str = ""
    valid: Callable = lambda value: True

    def read(self, path, section, key, text):
        try:
            value = self.convert(text)
            if self.valid(value):
                return value
        except (ValueError, LookupError):
            pass
        raise ValueError(f"{path}: [{section}] {key} = {text!r}: expected "
                         f"{self.expected}")


BOOLEAN = Key(lambda text: configparser.ConfigParser.BOOLEAN_STATES[
    text.lower()], False, "a boolean (1/0, yes/no, true/false or on/off)")


def read_ini(path, schema):
    """{section: {key: value}} from the UTF-8 INI file at `path`. `schema`
    maps a section to {key: Key}, or to one Key for a section that takes
    any key (None if absent); "task:" covers [task:<id>]. Keys keep their
    case, `%` is literal, any fault is a ValueError starting with `path`."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            cp.read_file(text_lines(path, fh, "utf-8"), source=str(path))
    except OSError as exc:
        raise ValueError(f"{path}: cannot read: {exc.strerror}") from None
    except (configparser.DuplicateSectionError,
            configparser.DuplicateOptionError) as exc:
        key = f" {exc.option}" if hasattr(exc, "option") else ""
        raise ValueError(f"{path}:{exc.lineno}: [{exc.section}]{key}: "
                         f"repeated") from None
    except configparser.ParsingError as exc:    # no header, or no "="
        lineno = getattr(exc, "lineno", None) or exc.errors[0][0]
        raise ValueError(f"{path}:{lineno}: not a key = value line under a "
                         f"[section] header") from None
    out = {name: None if isinstance(spec, Key) else
           {key: how.default for key, how in spec.items()}
           for name, spec in schema.items() if not name.endswith(":")}
    names = [f"[{name}<id>]" if name.endswith(":") else f"[{name}]"
             for name in schema]
    for name in (["DEFAULT"] if cp.defaults() else []) + cp.sections():
        spec = schema.get(name[:name.find(":") + 1] or name)  # task:x -> task:
        if spec is None:
            raise ValueError(f"{path}: [{name}]: unknown section; expected "
                             f"{', '.join(names[:-1])} or {names[-1]}")
        keys = dict.fromkeys(cp[name], spec) if isinstance(spec, Key) else spec
        for key in cp[name]:
            if key not in keys:
                raise ValueError(f"{path}: [{name}] {key}: unknown key; "
                                 f"expected one of {', '.join(sorted(keys))}")
        out[name] = {key: how.read(path, name, key, cp[name][key])
                     if key in cp[name] else how.default
                     for key, how in keys.items()}
    return out


def load_labels_csv(path):
    """Returns task_id -> {flow_id: label_name} from a `csv_rows` file with
    flow_id, task_id and label columns; a second row for the same
    (flow_id, task_id) pair is a ValueError naming the file and line."""
    out = {}
    for line, (fid, task, label) in csv_rows(path, ("flow_id", "task_id",
                                                   "label")):
        assignment = out.setdefault(task, {})
        if fid in assignment:
            raise ValueError(f"{path}:{line}: duplicate row for (flow_id, "
                             f"task_id) = ({fid!r}, {task!r})")
        assignment[fid] = label
    return out


def build_dataset(flow_ids, features, labels_by_task, label_maps=None,
                  tasks=None) -> LabeledDataset:
    """Join features with label assignments into a LabeledDataset.

    When `label_maps` is given the class index order is taken from it
    (samples with labels outside the map are rejected); otherwise maps are
    the sorted distinct names per task. Only `tasks` (default: all in the
    CSV) are kept, and every kept task must label every flow id.
    """
    selected = list(tasks) if tasks is not None else list(labels_by_task)
    maps = {}
    idx_labels = {}
    for task in selected:
        if task not in labels_by_task:
            raise ValueError(f"no labels for task {task!r}")
        assignment = labels_by_task[task]
        missing = [fid for fid in flow_ids if fid not in assignment]
        if missing:
            raise ValueError(f"task {task!r}: {len(missing)} flow(s) unlabeled "
                             f"(first: {missing[0]})")
        if label_maps is not None and task in label_maps:
            names = list(label_maps[task])
        else:
            names = sorted(set(assignment[fid] for fid in flow_ids))
        index = {name: i for i, name in enumerate(names)}
        try:
            idx_labels[task] = np.array([index[assignment[fid]]
                                         for fid in flow_ids], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"task {task!r}: label {exc} not in label map") from exc
        maps[task] = names
    return LabeledDataset(features=np.asarray(features, dtype=np.float64),
                          labels=idx_labels, label_maps=maps,
                          flow_ids=list(flow_ids))
