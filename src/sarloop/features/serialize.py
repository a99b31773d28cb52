"""Versioned binary container for feature sets.

Layout (all numbers little-endian), version 2:
  magic 8s = b"SARLFEAT", version u32, detector-id length u32, id bytes,
  keypoint count u32, descriptor bit length u32, resolution_m f64 (the
  pixel size of the image the keypoints were found on); then per keypoint
  x f32, y f32, response f32, angle f32, octave i32, followed by the
  packed descriptor bytes. Version 1 files, which have no resolution_m,
  are refused.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ..fileerrors import names_its_file
from .base import FeatureSet, Keypoint

MAGIC = b"SARLFEAT"
VERSION = 2


def _records(n_bytes: int) -> np.dtype:
    """One keypoint record: x, y, response, angle; octave; descriptor bytes."""
    return np.dtype([("xy_response_angle", "<f4", (4,)), ("octave", "<i4"),
                     ("descriptor", "u1", (n_bytes,))])


def save_feature_set(fs: FeatureSet, path: str | Path) -> None:
    n_bytes = fs.descriptors.shape[1]
    ident = fs.detector_id.encode()
    records = np.empty(len(fs), _records(n_bytes))
    records["xy_response_angle"] = np.reshape(
        [(kp.x_px, kp.y_px, kp.response, kp.angle_rad) for kp in fs.keypoints], (-1, 4))
    records["octave"] = [kp.octave for kp in fs.keypoints]
    records["descriptor"] = fs.descriptors
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(ident)))
        fh.write(ident)
        fh.write(struct.pack("<IId", len(fs), n_bytes * 8, fs.resolution_m))
        fh.write(records.tobytes())


@names_its_file
def load_feature_set(path: str | Path) -> FeatureSet:
    data = Path(path).read_bytes()
    if data[:8] != MAGIC:
        raise ValueError(f"{path}: not a feature-set file (bad magic)")
    try:
        version, id_len = struct.unpack_from("<II", data, 8)
        if version != VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        count, bits, resolution_m = struct.unpack_from("<IId", data, 16 + id_len)
    except struct.error:
        raise ValueError(f"{path}: truncated feature-set header") from None
    detector_id = data[16:16 + id_len].decode()
    pos = 32 + id_len
    if bits % 8:
        raise ValueError(f"{path}: descriptor bit length {bits} not a multiple of 8")
    records = _records(bits // 8)
    if len(data) - pos != count * records.itemsize:
        raise ValueError(f"{path}: expected {count} records "
                         f"({count * records.itemsize} bytes), found {len(data) - pos}")
    table = np.frombuffer(data, records, count=count, offset=pos)
    kps = tuple(Keypoint(*floats, octave) for floats, octave
                in zip(table["xy_response_angle"].tolist(), table["octave"].tolist()))
    return FeatureSet(detector_id, kps, table["descriptor"].copy(), resolution_m)
