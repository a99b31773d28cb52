"""Versioned binary container for feature sets.

Layout (all numbers little-endian), version 3:
  magic 8s = b"SARLFEAT", version u32, detector-id length u32, id bytes,
  keypoint count u32, descriptor bit length u32, resolution_m f64 (the
  pixel size of the image the keypoints were found on); then per keypoint
  one ``KEYPOINT`` record (x f64, y f64, response f32, angle f32, octave
  i32) followed by the packed descriptor bytes. Files of other versions
  are refused.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ..fileerrors import names_its_file
from .base import KEYPOINT, FeatureSet

MAGIC = b"SARLFEAT"
VERSION = 3


def _records(n_bytes: int) -> np.dtype:
    """One keypoint record and its descriptor bytes."""
    return np.dtype([("keypoint", KEYPOINT), ("descriptor", "u1", (n_bytes,))])


def save_feature_set(fs: FeatureSet, path: str | Path) -> None:
    n_bytes = fs.descriptors.shape[1]
    ident = fs.detector_id.encode()
    records = np.empty(len(fs), _records(n_bytes))
    records["keypoint"] = fs.keypoints
    records["descriptor"] = fs.descriptors
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(ident)))
        fh.write(ident)
        fh.write(struct.pack("<IId", len(fs), n_bytes * 8, fs.resolution_m))
        fh.write(records)


@names_its_file
def load_feature_set(path: str | Path) -> FeatureSet:
    data = Path(path).read_bytes()
    if data[:8] != MAGIC:
        raise ValueError("not a feature-set file (bad magic)")
    try:
        version, id_len = struct.unpack_from("<II", data, 8)
        if version != VERSION:
            raise ValueError(f"unsupported version {version}")
        count, bits, resolution_m = struct.unpack_from("<IId", data, 16 + id_len)
    except struct.error:
        raise ValueError("truncated feature-set header") from None
    detector_id = data[16:16 + id_len].decode()
    pos = 32 + id_len
    if bits % 8:
        raise ValueError(f"descriptor bit length {bits} not a multiple of 8")
    records = _records(bits // 8)
    if len(data) - pos != count * records.itemsize:
        raise ValueError(f"expected {count} records "
                         f"({count * records.itemsize} bytes), found {len(data) - pos}")
    table = np.frombuffer(data, records, count=count, offset=pos)
    return FeatureSet(detector_id, table["keypoint"], table["descriptor"], resolution_m)
