"""Binary acquisition log pairing odometry poses with raw radar samples.

The file starts with a human-readable ASCII header (one ``key=value`` per
line, terminated by a blank line) describing the radar and record layout,
followed by fixed-size little-endian records:

    timestamp f64 | radar_index u32 | x f64 | y f64 | theta f64 |
    samples f32 * sample_count

Record poses carry the robot heading. The header holds one radar
description plus one mount angle per radar, so the radars may differ only
in mount; ``to_raw_scans`` gives every scan the config of the radar that
fired it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .fileerrors import names_its_file
from .geometry import Pose2
from .radar import RadarConfig, RawScan

FORMAT_NAME = "sarloop-scanlog"
VERSION = 1
_FIXED = struct.Struct("<dIddd")


@dataclass(frozen=True)
class ScanRecord:
    timestamp_s: float
    radar_index: int
    pose: Pose2
    samples: np.ndarray  # float32, shape (sample_count,)

    def __post_init__(self):
        samples = np.ascontiguousarray(np.asarray(self.samples, dtype=np.float32))
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
        object.__setattr__(self, "samples", samples)
        if self.radar_index < 0:
            raise ValueError(f"radar_index must be >= 0, got {self.radar_index}")


@dataclass(frozen=True)
class ScanLog:
    """The radars, which differ only in mount, plus the ordered records."""

    radars: tuple[RadarConfig, ...]
    records: tuple[ScanRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "radars", tuple(self.radars))
        object.__setattr__(self, "records", tuple(self.records))
        if not self.radars:
            raise ValueError("need at least one radar")
        unmounted = {replace(r, mount_angle_rad=0.0) for r in self.radars}
        if len(unmounted) > 1:
            raise ValueError(f"the radars of one log may differ only in mount, got {self.radars}")
        lengths = {len(r.samples) for r in self.records}
        if len(lengths) > 1:
            raise ValueError(f"inconsistent sample counts across records: {sorted(lengths)}")
        for i, r in enumerate(self.records):
            if r.radar_index >= len(self.radars):
                raise ValueError(
                    f"record {i}: radar_index {r.radar_index} out of range "
                    f"(log has {len(self.radars)} radars)")

    @property
    def sample_count(self) -> int:
        return len(self.records[0].samples) if self.records else 0

    def to_raw_scans(self) -> list[RawScan]:
        """Per-record raw scans, each with the config of the radar that fired it."""
        return [RawScan(r.samples.astype(np.float64), r.pose, self.radars[r.radar_index])
                for r in self.records]


def save_scan_log(log: ScanLog, path: str | Path) -> None:
    cfg = log.radars[0]
    header = [
        f"format={FORMAT_NAME}",
        f"version={VERSION}",
        f"radar_count={len(log.radars)}",
        f"sample_count={log.sample_count}",
        f"sample_rate_hz={cfg.sample_rate_hz!r}",
        f"center_freq_hz={cfg.center_freq_hz!r}",
        f"bandwidth_hz={cfg.bandwidth_hz!r}",
        f"pulse_amplitude_v={cfg.pulse_amplitude_v!r}",
        f"beamwidth_rad={cfg.beamwidth_rad!r}",
        f"range_min_m={cfg.range_min_m!r}",
        f"range_max_m={cfg.range_max_m!r}",
    ]
    header += [f"mount_{i}_rad={r.mount_angle_rad!r}" for i, r in enumerate(log.radars)]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n\n").encode())
        for r in log.records:
            fh.write(_FIXED.pack(r.timestamp_s, r.radar_index,
                                 r.pose.x_m, r.pose.y_m, r.pose.theta_rad))
            fh.write(r.samples.astype("<f4").tobytes())


@names_its_file
def load_scan_log(path: str | Path) -> ScanLog:
    """Parse and validate a scan log.

    Raises with the offending record index on truncation or non-finite
    values so bad captures are easy to locate. ``sample_count`` must be
    positive unless the log holds no records.
    """
    data = Path(path).read_bytes()
    sep = data.find(b"\n\n")
    if sep < 0:
        raise ValueError(f"{path}: missing blank line terminating the header")
    fields: dict[str, str] = {}
    for line in data[:sep].decode().splitlines():
        if "=" not in line:
            raise ValueError(f"{path}: malformed header line {line!r}")
        key, value = line.split("=", 1)
        fields[key.strip()] = value.strip()

    try:
        if fields["format"] != FORMAT_NAME:
            raise ValueError(f"{path}: not a scan log (format={fields['format']!r})")
        if int(fields["version"]) != VERSION:
            raise ValueError(f"{path}: unsupported version {fields['version']}")
        radar_count = int(fields["radar_count"])
        sample_count = int(fields["sample_count"])
        config = RadarConfig(
            sample_rate_hz=float(fields["sample_rate_hz"]),
            center_freq_hz=float(fields["center_freq_hz"]),
            bandwidth_hz=float(fields["bandwidth_hz"]),
            pulse_amplitude_v=float(fields["pulse_amplitude_v"]),
            beamwidth_rad=float(fields["beamwidth_rad"]),
            range_min_m=float(fields["range_min_m"]),
            range_max_m=float(fields["range_max_m"]),
        )
        radars = tuple(replace(config, mount_angle_rad=float(fields[f"mount_{i}_rad"]))
                       for i in range(radar_count))
    except KeyError as exc:
        raise ValueError(f"{path}: header missing key {exc}") from None

    record_size = _FIXED.size + 4 * sample_count
    payload = data[sep + 2:]
    if sample_count < (1 if payload else 0):
        raise ValueError(f"sample_count must be >= 1, got {sample_count}")
    if len(payload) % record_size:
        raise ValueError(
            f"{path}: record {len(payload) // record_size} truncated "
            f"({len(payload) % record_size} trailing bytes, record size {record_size})")
    records = []
    for i in range(len(payload) // record_size):
        off = i * record_size
        ts, radar_index, x, y, theta = _FIXED.unpack_from(payload, off)
        if not all(np.isfinite(v) for v in (ts, x, y, theta)):
            raise ValueError(f"{path}: record {i}: non-finite timestamp or pose")
        if radar_index >= radar_count:
            raise ValueError(f"{path}: record {i}: radar_index {radar_index} "
                             f"out of range (radar_count {radar_count})")
        samples = np.frombuffer(payload, dtype="<f4", count=sample_count,
                                offset=off + _FIXED.size)
        if not np.all(np.isfinite(samples)):
            raise ValueError(f"{path}: record {i}: non-finite samples")
        records.append(ScanRecord(ts, radar_index, Pose2(x, y, theta), samples.copy()))
    return ScanLog(radars, tuple(records))


def log_from_simulation(scans: Sequence[RawScan], radars: Sequence[RadarConfig]) -> ScanLog:
    """Wrap simulator output (pose-major, radar-minor order) in a ScanLog.

    Each record's radar index is the position of its scan's config in
    ``radars``. Timestamps are the pose indices in seconds, giving
    deterministic bytes.
    """
    radars = tuple(radars)
    if not radars:
        raise ValueError("need at least one radar")
    if len(scans) % len(radars):
        raise ValueError(f"{len(scans)} scans is not a multiple of {len(radars)} radars")
    records = []
    for k, s in enumerate(scans):
        if s.config not in radars:
            raise ValueError(f"scan {k}: its radar {s.config} is not one of the log's radars")
        records.append(ScanRecord(float(k // len(radars)), radars.index(s.config), s.pose,
                                  np.asarray(s.samples, dtype=np.float32)))
    return ScanLog(radars, tuple(records))
