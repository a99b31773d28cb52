"""Scan-log binary format: round trips and corruption diagnostics."""

import math
import re
import struct

import numpy as np
import pytest

from sarloop import Pose2, RawScan, ScanLog, ScanRecord, load_scan_log, save_scan_log
from sarloop.scanlog import log_from_simulation

MOUNTS = (math.pi / 2, -math.pi / 2)


@pytest.fixture
def log(table1):
    rng = np.random.default_rng(41)
    records = tuple(
        ScanRecord(float(k // 2), k % 2,
                   Pose2(0.1 * k, -0.05 * k, 0.2 * k),
                   rng.normal(size=24).astype(np.float32))
        for k in range(4))
    return ScanLog(table1, MOUNTS, records)


def assert_logs_equal(a, b):
    assert a.config == b.config
    assert a.mounts_rad == b.mounts_rad
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.timestamp_s == rb.timestamp_s
        assert ra.radar_index == rb.radar_index
        assert ra.pose == rb.pose
        assert np.array_equal(ra.samples, rb.samples)


def test_round_trip(log, tmp_path):
    path = tmp_path / "scan.bin"
    save_scan_log(log, path)
    assert_logs_equal(load_scan_log(path), log)


def test_resave_is_byte_identical(log, tmp_path):
    first = tmp_path / "a.bin"
    second = tmp_path / "b.bin"
    save_scan_log(log, first)
    save_scan_log(load_scan_log(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_empty_log_is_valid(table1, tmp_path):
    empty = ScanLog(table1, MOUNTS, ())
    assert empty.sample_count == 0
    path = tmp_path / "empty.bin"
    save_scan_log(empty, path)
    back = load_scan_log(path)
    assert back.records == ()
    assert back.mounts_rad == MOUNTS


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


def test_log_validation(table1):
    rec24 = ScanRecord(0.0, 0, Pose2(0, 0, 0), np.zeros(24, np.float32))
    rec30 = ScanRecord(1.0, 1, Pose2(0, 0, 0), np.zeros(30, np.float32))
    with pytest.raises(ValueError, match="inconsistent sample counts"):
        ScanLog(table1, MOUNTS, (rec24, rec30))
    with pytest.raises(ValueError, match="radar_index 5"):
        ScanLog(table1, MOUNTS,
                (ScanRecord(0.0, 5, Pose2(0, 0, 0), np.zeros(24, np.float32)),))
    with pytest.raises(ValueError, match="mount"):
        ScanLog(table1, (), ())
    with pytest.raises(ValueError):
        ScanRecord(0.0, -1, Pose2(0, 0, 0), np.zeros(4, np.float32))


def test_log_from_simulation_layout(table1):
    poses = [Pose2(0.1 * k, 0.0, 0.0) for k in range(3)]
    scans = [RawScan(np.full(16, float(k)), poses[k // 2], table1) for k in range(6)]
    log = log_from_simulation(scans, table1, MOUNTS)
    assert [r.timestamp_s for r in log.records] == [0.0, 0.0, 1.0, 1.0, 2.0, 2.0]
    assert [r.radar_index for r in log.records] == [0, 1, 0, 1, 0, 1]
    assert log.config.mount_angle_rad == 0.0
    with pytest.raises(ValueError, match="multiple"):
        log_from_simulation(scans[:5], table1, MOUNTS)


def test_to_raw_scans_applies_the_mounts(table1, log):
    scans = log.to_raw_scans()
    assert len(scans) == 4
    for scan, rec in zip(scans, log.records):
        assert scan.config.mount_angle_rad == MOUNTS[rec.radar_index]
        assert scan.config == log.config_for(rec.radar_index)
        assert scan.pose == rec.pose
        assert np.array_equal(scan.samples, rec.samples.astype(np.float64))
    for i, mount in enumerate(MOUNTS):
        assert log.config_for(i).mount_angle_rad == mount


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
    save_scan_log(log if records else ScanLog(log.config, MOUNTS, ()), path)
    data = path.read_bytes()
    assert old in data
    path.write_bytes(data.replace(old, new, 1))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_scan_log(path)
