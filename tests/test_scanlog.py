"""Scan-log binary format: round trips and corruption diagnostics."""

import math
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from sarloop import ScanLog, load_scan_log, record_dtype, render_scene, save_scan_log

def two_radar_records(n, sample_count=24):
    """``n`` records alternating between radars 0 and 1, two per pose."""
    records = np.zeros(n, record_dtype(sample_count))
    records["timestamp_s"] = np.arange(n) // 2
    records["radar_index"] = np.arange(n) % 2
    records["pose"] = np.arange(n)[:, None] * (0.1, -0.05, 0.2)
    records["samples"] = np.random.default_rng(41).normal(size=(n, sample_count))
    return records


@pytest.fixture
def log(side_radars):
    return ScanLog(side_radars, two_radar_records(4))


def assert_logs_equal(a, b):
    assert a.radars == b.radars
    assert a.records.dtype == b.records.dtype
    assert a.records.tobytes() == b.records.tobytes()


def test_round_trip(log, tmp_path):
    path = tmp_path / "scan.bin"
    save_scan_log(log, path)
    assert_logs_equal(load_scan_log(path), log)
    assert len(load_scan_log(path)) == len(log) == 4


def test_resave_is_byte_identical(log, tmp_path):
    first = tmp_path / "a.bin"
    second = tmp_path / "b.bin"
    save_scan_log(log, first)
    save_scan_log(load_scan_log(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_a_log_over_a_strided_view_saves_the_bytes_of_its_copy(side_radars, tmp_path):
    records = two_radar_records(8)
    save_scan_log(ScanLog(side_radars, records[::2]), tmp_path / "view.bin")
    save_scan_log(ScanLog(side_radars, records[::2].copy()), tmp_path / "copy.bin")
    assert (tmp_path / "view.bin").read_bytes() == (tmp_path / "copy.bin").read_bytes()
    assert load_scan_log(tmp_path / "view.bin").records.tobytes() == records[::2].tobytes()


def test_empty_log_is_valid(side_radars, tmp_path):
    for sample_count in (0, 24):
        empty = ScanLog(side_radars, np.empty(0, record_dtype(sample_count)))
        assert empty.sample_count == sample_count
        assert len(empty) == 0
        path = tmp_path / "empty.bin"
        save_scan_log(empty, path)
        assert_logs_equal(load_scan_log(path), empty)


def test_truncated_file_names_the_bad_record(log, tmp_path):
    path = tmp_path / "scan.bin"
    save_scan_log(log, path)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(ValueError, match="record 3 truncated"):
        load_scan_log(path)


def record_field_offset(data, record, field_bytes_in):
    sep = data.find(b"\n\n") + 2
    record_size = struct.calcsize("<dIddd") + 4 * 24
    return sep + record * record_size + field_bytes_in


def test_nan_pose_names_the_bad_record(log, tmp_path):
    path = tmp_path / "scan.bin"
    save_scan_log(log, path)
    data = bytearray(path.read_bytes())
    off = record_field_offset(data, 1, 12)  # x_m sits after timestamp+index
    data[off:off + 8] = struct.pack("<d", math.nan)
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="record 1: non-finite timestamp or pose"):
        load_scan_log(path)


def test_nan_sample_names_the_bad_record(log, tmp_path):
    path = tmp_path / "scan.bin"
    save_scan_log(log, path)
    data = bytearray(path.read_bytes())
    off = record_field_offset(data, 2, struct.calcsize("<dIddd") + 4 * 5)
    data[off:off + 4] = struct.pack("<f", math.inf)
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="record 2: non-finite samples"):
        load_scan_log(path)


@pytest.mark.parametrize("bad, reason", [
    ({3: "pose", 7: "pose"}, "non-finite timestamp or pose"),
    ({3: "samples", 7: "samples"}, "non-finite samples"),
    ({3: "samples", 7: "pose"}, "non-finite samples"),
    ({7: "samples", 3: "pose"}, "non-finite timestamp or pose")])
def test_the_first_of_several_bad_records_is_named(side_radars, tmp_path, bad, reason):
    path = tmp_path / "scan.bin"
    save_scan_log(ScanLog(side_radars, two_radar_records(10)), path)
    data = bytearray(path.read_bytes())
    for record, field in bad.items():
        if field == "pose":
            off = record_field_offset(data, record, 20)  # y_m
            data[off:off + 8] = struct.pack("<d", math.nan)
        else:
            off = record_field_offset(data, record, struct.calcsize("<dIddd") + 4 * 17)
            data[off:off + 4] = struct.pack("<f", math.nan)
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=re.escape(f"{path}: record 3: {reason}")):
        load_scan_log(path)


def test_out_of_range_radar_index_is_caught(log, tmp_path):
    path = tmp_path / "scan.bin"
    save_scan_log(log, path)
    data = bytearray(path.read_bytes())
    off = record_field_offset(data, 0, 8)
    data[off:off + 4] = struct.pack("<I", 9)
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="radar_index 9 out of range"):
        load_scan_log(path)


def test_header_errors(log, tmp_path):
    path = tmp_path / "scan.bin"
    save_scan_log(log, path)
    data = path.read_bytes()

    missing = tmp_path / "missing.bin"
    lines = data.split(b"\n")
    missing.write_bytes(b"\n".join(l for l in lines if not l.startswith(b"bandwidth")))
    with pytest.raises(ValueError, match="missing key"):
        load_scan_log(missing)

    noblank = tmp_path / "noblank.bin"
    noblank.write_bytes(data.split(b"\n\n")[0])
    with pytest.raises(ValueError, match="blank line"):
        load_scan_log(noblank)

    notlog = tmp_path / "notlog.bin"
    notlog.write_bytes(data.replace(b"format=sarloop-scanlog", b"format=elsewise!!"))
    with pytest.raises(ValueError, match="not a scan log"):
        load_scan_log(notlog)

    badver = tmp_path / "badver.bin"
    badver.write_bytes(data.replace(b"version=1", b"version=9"))
    with pytest.raises(ValueError, match="version"):
        load_scan_log(badver)


def test_log_validation(side_radars):
    records = two_radar_records(6)
    records["radar_index"][4] = 5
    with pytest.raises(ValueError, match="record 4: radar_index 5 out of range"):
        ScanLog(side_radars, records)
    records = two_radar_records(6)
    records["samples"][2, 0] = np.inf
    with pytest.raises(ValueError, match="record 2: non-finite samples"):
        ScanLog(side_radars, records)
    none = np.empty(0, record_dtype(24))
    with pytest.raises(ValueError, match="at least one radar"):
        ScanLog((), none)
    # the header holds one radar description, so only the mounts may differ
    with pytest.raises(ValueError, match="differ only in mount"):
        ScanLog((side_radars[0], replace(side_radars[1], range_max_m=2.0)), none)
    # records are one 1-D array of the file's record layout
    f8_samples = np.zeros(2, [("timestamp_s", "<f8"), ("radar_index", "<u4"),
                              ("pose", "<f8", (3,)), ("samples", "<f8", (4,))])
    for bad in ((), np.zeros((2, 2), record_dtype(4)), f8_samples,
                np.zeros(2, [("samples", "<f4", (4,))])):
        with pytest.raises(ValueError, match="record_dtype"):
            ScanLog(side_radars, bad)


def test_log_from_simulation_layout(side_radars, small_grid, tmp_path):
    poses = [(0.1 * k, 0.0, 0.0) for k in range(3)]
    scene = [(0.5, 0.6, 1.0)]
    log, _ = render_scene(scene, poses, side_radars, small_grid)
    assert log.records["timestamp_s"].tolist() == [0.0, 0.0, 1.0, 1.0, 2.0, 2.0]
    assert log.records["radar_index"].tolist() == [0, 1, 0, 1, 0, 1]
    assert log.radars == side_radars
    path = tmp_path / "scan.bin"
    save_scan_log(log, path)
    assert_logs_equal(load_scan_log(path), log)
    with pytest.raises(ValueError, match="at least one radar"):
        render_scene(scene, poses, (), small_grid)

    # the index follows each record's own radar, not a fixed side
    right_first = side_radars[::-1]
    swapped, _ = render_scene(scene, poses, right_first, small_grid)
    assert swapped.radars == right_first
    assert swapped.records["radar_index"].tolist() == [0, 1, 0, 1, 0, 1]
    assert swapped.records["samples"][0::2].tobytes() == log.records["samples"][1::2].tobytes()
    assert swapped.records["samples"][1::2].tobytes() == log.records["samples"][0::2].tobytes()


@pytest.mark.parametrize("old, new, records", [
    (b"sample_count=24", b"sample_count=two", True),
    (b"sample_count=24", b"sample_count=0", True),
    (b"sample_count=0", b"sample_count=-9", False),
    (b"radar_count=2", b"radar_count=0", True),
    (b"radar_count=2", b"radar_count=0", False),
    (b"range_min_m=0.4", b"range_min_m=3.5", True),
    (b"format=", b"\xff\xfeformat=", True),
    (b"mount_0_rad=", b"mount_0_rad=nan#", True)])
def test_header_value_errors_name_the_file(log, tmp_path, old, new, records):
    path = tmp_path / "scan.bin"
    save_scan_log(log if records else ScanLog(log.radars, np.empty(0, record_dtype(0))), path)
    data = path.read_bytes()
    assert old in data
    path.write_bytes(data.replace(old, new, 1))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_scan_log(path)
