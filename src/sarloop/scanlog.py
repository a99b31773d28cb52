"""Binary acquisition log pairing odometry poses with raw radar samples.

The file starts with a human-readable ASCII header (one ``key=value`` per
line, terminated by a blank line) describing the radar and record layout,
followed by fixed-size little-endian records, ``record_dtype(sample_count)``:

    timestamp f64 | radar_index u32 | x f64 | y f64 | theta f64 |
    samples f32 * sample_count

A ``ScanLog`` holds the records as that same numpy array, so saving writes
its buffer and loading is one ``frombuffer``; it is also the only in-memory
form of a scan set, from ``render_scene`` to ``build_sar``. Record poses
carry the robot heading: the ``pose`` column is a pose table of ``x_m, y_m,
theta_rad`` rows, which the imager uses as logged. A record's radar index
names the radar that fired it. The header holds one radar description plus
one mount angle per radar, so the radars may differ only in mount, and
``radars[0]`` fixes the pulse of every scan.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .fileerrors import names_its_file
from .radar import RadarConfig

FORMAT_NAME = "sarloop-scanlog"
VERSION = 1
# The header describes one radar by its config fields; mounts follow per radar.
_RADAR_KEYS = tuple(f.name for f in fields(RadarConfig) if f.name != "mount_angle_rad")


def record_dtype(sample_count: int) -> np.dtype:
    """One scan record: timestamp, radar index, robot pose (x, y, theta) and
    ``sample_count`` raw samples, packed as in the file."""
    return np.dtype([("timestamp_s", "<f8"), ("radar_index", "<u4"), ("pose", "<f8", (3,)),
                     ("samples", "<f4", (sample_count,))])


_FIELDS = record_dtype(0).names


@dataclass(frozen=True)
class ScanLog:
    """The radars, which differ only in mount, plus the ordered records: a
    1-D ``record_dtype(sample_count)`` array.

    Every timestamp, pose and sample must be finite and every radar index
    name one of the radars; an error names the first record that fails.
    """

    radars: tuple[RadarConfig, ...]
    records: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "radars", tuple(self.radars))
        if not self.radars:
            raise ValueError("need at least one radar")
        unmounted = {replace(r, mount_angle_rad=0.0) for r in self.radars}
        if len(unmounted) > 1:
            raise ValueError(f"the radars of one log may differ only in mount, got {self.radars}")
        r = self.records
        if not (isinstance(r, np.ndarray) and r.ndim == 1 and r.dtype.names == _FIELDS
                and r.dtype == record_dtype(self.sample_count)):
            raise ValueError(f"records must be a 1-D record_dtype array, "
                             f"got {getattr(r, 'dtype', type(r))}")
        failed = np.stack([
            ~(np.isfinite(r["timestamp_s"]) & np.isfinite(r["pose"]).all(axis=1)),
            r["radar_index"] >= len(self.radars),
            ~np.isfinite(r["samples"]).all(axis=1)])
        if failed.any():
            i = int(failed.any(axis=0).argmax())
            problem = ("non-finite timestamp or pose",
                       f"radar_index {r['radar_index'][i]} out of range "
                       f"(log has {len(self.radars)} radars)",
                       "non-finite samples")[int(failed[:, i].argmax())]
            raise ValueError(f"record {i}: {problem}")

    @property
    def sample_count(self) -> int:
        return self.records.dtype["samples"].shape[0]

    def __len__(self) -> int:
        return len(self.records)


def save_scan_log(log: ScanLog, path: str | Path) -> None:
    header = [f"format={FORMAT_NAME}", f"version={VERSION}",
              f"radar_count={len(log.radars)}", f"sample_count={log.sample_count}"]
    header += [f"{key}={getattr(log.radars[0], key)!r}" for key in _RADAR_KEYS]
    header += [f"mount_{i}_rad={r.mount_angle_rad!r}" for i, r in enumerate(log.radars)]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n\n").encode())
        fh.write(np.ascontiguousarray(log.records))


@names_its_file
def load_scan_log(path: str | Path) -> ScanLog:
    """Parse and validate a scan log.

    Raises with the offending record index on truncation, non-finite
    values or a radar index out of range, so bad captures are easy to
    locate. ``sample_count`` must be positive unless the log holds no
    records.
    """
    data = Path(path).read_bytes()
    sep = data.find(b"\n\n")
    if sep < 0:
        raise ValueError("missing blank line terminating the header")
    header: dict[str, str] = {}
    for line in data[:sep].decode().splitlines():
        if "=" not in line:
            raise ValueError(f"malformed header line {line!r}")
        key, value = line.split("=", 1)
        header[key.strip()] = value.strip()

    try:
        if header["format"] != FORMAT_NAME:
            raise ValueError(f"not a scan log (format={header['format']!r})")
        if int(header["version"]) != VERSION:
            raise ValueError(f"unsupported version {header['version']}")
        radar_count = int(header["radar_count"])
        sample_count = int(header["sample_count"])
        config = RadarConfig(**{key: float(header[key]) for key in _RADAR_KEYS})
        radars = tuple(replace(config, mount_angle_rad=float(header[f"mount_{i}_rad"]))
                       for i in range(radar_count))
    except KeyError as exc:
        raise ValueError(f"header missing key {exc}") from None

    payload_len = len(data) - (sep + 2)
    if sample_count < (1 if payload_len else 0):
        raise ValueError(f"sample_count must be >= 1, got {sample_count}")
    record = record_dtype(sample_count)
    if payload_len % record.itemsize:
        raise ValueError(
            f"record {payload_len // record.itemsize} truncated "
            f"({payload_len % record.itemsize} trailing bytes, record size {record.itemsize})")
    return ScanLog(radars, np.frombuffer(data, record, offset=sep + 2))
