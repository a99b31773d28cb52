"""Versioned binary container for feature sets.

Layout (all integers little-endian):
  magic 8s = b"SARLFEAT", version u32, detector-id length u32, id bytes,
  keypoint count u32, descriptor bit length u32; then per keypoint
  x f32, y f32, response f32, angle f32, octave i32, followed by the
  packed descriptor bytes.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ..fileerrors import names_its_file
from .base import FeatureSet, Keypoint

MAGIC = b"SARLFEAT"
VERSION = 1
_KP = struct.Struct("<ffffi")


def save_feature_set(fs: FeatureSet, path: str | Path) -> None:
    n_bytes = fs.descriptors.shape[1]
    ident = fs.detector_id.encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(ident)))
        fh.write(ident)
        fh.write(struct.pack("<II", len(fs.keypoints), n_bytes * 8))
        for kp, desc in zip(fs.keypoints, fs.descriptors):
            fh.write(_KP.pack(kp.x_px, kp.y_px, kp.response, kp.angle_rad, kp.octave))
            fh.write(desc.tobytes())


@names_its_file
def load_feature_set(path: str | Path) -> FeatureSet:
    data = Path(path).read_bytes()
    if data[:8] != MAGIC:
        raise ValueError(f"{path}: not a feature-set file (bad magic)")
    try:
        version, id_len = struct.unpack_from("<II", data, 8)
        count, bits = struct.unpack_from("<II", data, 16 + id_len)
    except struct.error:
        raise ValueError(f"{path}: truncated feature-set header") from None
    if version != VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    detector_id = data[16:16 + id_len].decode()
    pos = 24 + id_len
    if bits % 8:
        raise ValueError(f"{path}: descriptor bit length {bits} not a multiple of 8")
    n_bytes = bits // 8
    record = _KP.size + n_bytes
    if len(data) - pos != count * record:
        raise ValueError(f"{path}: expected {count} records "
                         f"({count * record} bytes), found {len(data) - pos}")
    kps = []
    desc = np.empty((count, n_bytes), dtype=np.uint8)
    for i in range(count):
        x, y, resp, angle, octave = _KP.unpack_from(data, pos)
        pos += _KP.size
        kps.append(Keypoint(x, y, resp, angle, octave))
        desc[i] = np.frombuffer(data, dtype=np.uint8, count=n_bytes, offset=pos)
        pos += n_bytes
    return FeatureSet(detector_id, tuple(kps), desc)
