"""Versioned binary container shared by model and feature files.

Layout: 4-byte magic, uint32 format version, uint32 header length, UTF-8
JSON header, then the raw float64 little-endian tensor payload in the order
declared by header["tensors"] (a list of [name, shape] pairs). Version 2
model files hold no data that follows from other fields; no reader for
version 1 exists, so such a file is rejected like any other unknown version.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .ingest import ExtractionConfig

MODEL_MAGIC = b"SNKE"
FEATURE_MAGIC = b"SNKF"
FORMAT_VERSION = 2


def save_container(path, magic, header, tensors):
    """tensors: ordered list of (name, ndarray); names go into the header."""
    header = dict(header)
    header["tensors"] = [[name, list(arr.shape)] for name, arr in tensors]
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(blob)))
        fh.write(blob)
        for _, arr in tensors:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_container(path, magic):
    """Returns (header, {name: ndarray}); rejects bad magic/version/truncation
    and non-finite tensor values."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12:
        raise ValueError(f"{path}: truncated file")
    if data[:4] != magic:
        raise ValueError(f"{path}: bad magic {data[:4]!r}, expected {magic!r}")
    version, hlen = struct.unpack("<II", data[4:12])
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version} "
                         f"(this flowmoe reads version {FORMAT_VERSION})")
    if len(data) < 12 + hlen:
        raise ValueError(f"{path}: truncated header")
    try:
        header = json.loads(data[12:12 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: corrupt header: {exc}") from exc
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header is not a JSON object")
    entries = header.get("tensors", [])
    if not isinstance(entries, list):
        raise ValueError(f"{path}: header field 'tensors' is not a list")
    offset = 12 + hlen
    tensors = {}
    for entry in entries:
        name, shape = _tensor_entry(path, entry)
        if name in tensors:
            raise ValueError(f"{path}: duplicate tensor {name!r}")
        count = math.prod(shape)
        nbytes = count * 8
        if offset + nbytes > len(data):
            raise ValueError(f"{path}: truncated tensor payload at {name!r}")
        # read in place from the file's bytes: astype makes the one copy
        tensors[name] = np.frombuffer(data, "<f8", count, offset).astype(
            np.float64).reshape(shape)
        if not np.isfinite(tensors[name]).all():
            raise ValueError(f"{path}: tensor {name!r} holds a non-finite "
                             f"value")
        offset += nbytes
    if offset != len(data):
        raise ValueError(f"{path}: {len(data) - offset} trailing byte(s)")
    return header, tensors


def _tensor_entry(path, entry):
    """(name, shape) of one header["tensors"] entry, a [str, [int >= 0, ...]]
    pair, else a ValueError naming the file."""
    if (isinstance(entry, list) and len(entry) == 2
            and isinstance(entry[0], str) and isinstance(entry[1], list)
            and all(type(d) is int and d >= 0 for d in entry[1])):
        return entry[0], tuple(entry[1])
    raise ValueError(f"{path}: bad tensor entry {entry!r:.80}: expected "
                     f"[name, [non-negative int, ...]]")


def header_field(path, header, key, kind=str):
    """header[key] if present and of type `kind`, else a ValueError naming
    the file and the key; JSON true/false is not an int or a float here."""
    value = header.get(key) if isinstance(header, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{path}: header field {key!r} is missing or "
                         f"of the wrong type")
    return value


def label_list(path, header, key):
    """header[key] as a list of label strings, else a ValueError naming the
    file and the key."""
    labels = header.get(key) if isinstance(header, dict) else None
    if not (isinstance(labels, list)
            and all(isinstance(name, str) for name in labels)):
        raise ValueError(f"{path}: header field {key!r}: a label map is not "
                         f"a list of strings")
    return list(labels)


def save_features(path, flow_ids, features):
    features = np.asarray(features, dtype=np.float64)
    header = {"kind": "features", "nb": ExtractionConfig.nb,
              "npkt": ExtractionConfig.npkt,
              "count": features.shape[0], "dim": features.shape[1],
              "flow_ids": list(flow_ids)}
    save_container(path, FEATURE_MAGIC, header, [("features", features)])


def load_features(path):
    """(flow ids, feature matrix, header) of a feature file. A file whose
    header or width says another layout than `ExtractionConfig`'s is a
    ValueError naming the file and both layouts."""
    header, tensors = load_container(path, FEATURE_MAGIC)
    if header.get("kind") != "features":
        raise ValueError(f"{path}: not a feature file")
    flow_ids = header_field(path, header, "flow_ids", list)
    features = tensors.get("features")
    if features is None or features.ndim != 2:
        raise ValueError(f"{path}: no 2-D 'features' tensor")
    if features.shape[0] != len(flow_ids):
        raise ValueError(f"{path}: {len(flow_ids)} flow id(s) for "
                         f"{features.shape[0]} feature row(s)")
    layout = ExtractionConfig
    nb, npkt, width = header.get("nb"), header.get("npkt"), features.shape[1]
    if (nb, npkt, width) != (layout.nb, layout.npkt, layout.dim):
        raise ValueError(f"{path}: features laid out as nb {nb}, npkt {npkt} "
                         f"in {width} columns, not flowmoe's nb {layout.nb}, "
                         f"npkt {layout.npkt} in {layout.dim} columns")
    seen = set()
    for fid in flow_ids:
        if not isinstance(fid, str):
            raise ValueError(f"{path}: flow id {fid!r} is not a string")
        if fid in seen:
            raise ValueError(f"{path}: flow id {fid!r} is repeated")
        seen.add(fid)
    return flow_ids, features, header
