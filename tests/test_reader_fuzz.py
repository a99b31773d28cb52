"""Fuzzed file readers: a malformed file is a ValueError that names it.

Every reader gets a small valid file, cut at every length and with random
bytes spliced into its header. It must return a value or raise a
``ValueError`` whose message contains the path; any other exception fails.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sarloop import (KEYPOINT, FeatureSet, GrayImage, ImageGrid, RadarConfig, SarImage,
                     ScanLog, load_config, load_scan_log, load_scene, load_trajectory,
                     record_dtype, save_scan_log)
from sarloop.features import load_feature_set, save_feature_set
from sarloop.imgpost import read_pgm, read_sar_dump, write_pgm, write_sar_dump


def _scan_log(path):
    radars = [RadarConfig(1e9, 0.3e9, 0.2e9, mount_angle_rad=m)
              for m in (math.pi / 2, -math.pi / 2)]
    records = np.array([(k, k % 2, (0.1 * k, 0.0, 0.2), np.ones(6)) for k in range(2)],
                       record_dtype(6))
    save_scan_log(ScanLog(radars, records), path)


def _sar_dump(path):
    z = np.arange(6).reshape(2, 3) * (1 - 1j)
    write_sar_dump(SarImage(ImageGrid(3, 2, 0.01, origin_m=(0.5, -0.25)), z, 3), path)


def _pgm(path):
    write_pgm(GrayImage(np.arange(6, dtype=np.uint8).reshape(2, 3), 0.01), path,
              origin_m=(0.5, -0.25))


def _feature_set(path):
    kps = [((1.0, 2.0), 3.0, 0.5, 0), ((4.0, 5.0), 6.0, -0.5, 1)]
    save_feature_set(FeatureSet("orb", kps, np.arange(16, dtype=np.uint8).reshape(2, 8), 0.01),
                     path)


def _scene(path):
    path.write_text("0.25 -0.5 1.0\n1.5 0.75 2.5\n")


def _trajectory(path):
    path.write_text("0.0 0.0 0.0\n1.5 0.25 0.5\n")


def _config(path):
    # keys whose values only steer matching: no mutation can make the
    # validation step synthesize an oversized pulse
    path.write_text("snr_db=12\nseed=5\ndetectors=orb,brisk\nratio=0.7\n")


def _header_end(data, marker, extra=0):
    return data.index(marker) + extra if marker in data else len(data)


# reader, writer of a valid file, end of the header in that file's bytes
READERS = {
    "scanlog": (load_scan_log, _scan_log, lambda d: _header_end(d, b"\n\n", 2)),
    "sar_dump": (read_sar_dump, _sar_dump, lambda d: _header_end(d, b"\n", 1)),
    "pgm": (read_pgm, _pgm, lambda d: _header_end(d, b"\n255\n", 5)),
    "feature_set": (load_feature_set, _feature_set, lambda d: 35),
    "scene": (load_scene, _scene, len),
    "trajectory": (load_trajectory, _trajectory, len),
    "config": (load_config, _config, len),
}


def reads_or_names_the_file(reader, path):
    try:
        reader(path)
    except ValueError as exc:
        assert str(path) in str(exc), f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("name", sorted(READERS))
def test_truncation_at_every_length(tmp_path, name):
    reader, write, _ = READERS[name]
    valid = tmp_path / "valid"
    write(valid)
    data = valid.read_bytes()
    reader(valid)
    path = tmp_path / "cut"
    for length in range(len(data)):
        path.write_bytes(data[:length])
        reads_or_names_the_file(reader, path)


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_random_header_bytes(tmp_path, name, data):
    reader, write, header_end = READERS[name]
    valid = tmp_path / "valid"
    write(valid)
    original = valid.read_bytes()
    start = data.draw(st.integers(0, header_end(original)), label="start")
    cut = data.draw(st.integers(0, 4), label="cut")
    splice = data.draw(st.binary(max_size=12), label="splice")
    path = tmp_path / "mutated"
    path.write_bytes(original[:start] + splice + original[start + cut:])
    reads_or_names_the_file(reader, path)


def test_a_feature_file_of_zero_bit_descriptors_is_refused(tmp_path):
    # the valid file's keypoints, with descriptor bit length 0 and no
    # descriptor bytes: every pair of keypoints would match at distance 0
    valid = tmp_path / "valid"
    _feature_set(valid)
    data = valid.read_bytes()
    bits_at, records_at = 16 + len("orb") + 4, 35
    records = np.frombuffer(data, [("keypoint", KEYPOINT), ("descriptor", "u1", (8,))],
                            offset=records_at)
    path = tmp_path / "zero_bits"
    path.write_bytes(data[:bits_at] + struct.pack("<I", 0) + data[bits_at + 4:records_at]
                     + np.ascontiguousarray(records["keypoint"]).tobytes())
    with pytest.raises(ValueError, match="at least 1 byte wide") as err:
        load_feature_set(path)
    assert str(path) in str(err.value)
