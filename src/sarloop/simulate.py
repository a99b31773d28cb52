"""Synthetic trajectories and radar echoes from point-scatterer scenes.

Stands in for a real acquisition run: a robot path is sampled at a fixed
scan spacing, and at each robot pose every radar fires once. A radar's echo
is built from pulse replicas of the scatterers inside its FOV.

Convention used throughout the package: every radar fires from the robot
pose, whose ``theta_rad`` is the robot heading; the scan's ``config`` carries
the radar's mount, so its boresight is ``theta_rad + config.mount_angle_rad``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .backprojection import ImageGrid, in_fov
from .fileerrors import names_its_file
from .geometry import Pose2
from .radar import RadarConfig, RawScan, SPEED_OF_LIGHT, pulse_value, range_bin_spacing

# Extra bins past range_max so pulse tails near the far edge are not clipped.
_EXTRA_TAIL_BINS = 64


@dataclass(frozen=True)
class Scatterer:
    """Point reflector with a non-negative radar cross-section."""

    x_m: float
    y_m: float
    rcs: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.x_m) and math.isfinite(self.y_m)):
            raise ValueError(f"scatterer position must be finite, got {self}")
        if not (math.isfinite(self.rcs) and self.rcs >= 0):
            raise ValueError(f"rcs must be >= 0, got {self.rcs}")


@dataclass(frozen=True)
class TrajectorySpec:
    """Piecewise-linear robot path sampled every ``scan_spacing_m``.

    Waypoint headings are ignored; the heading at each sample comes from the
    segment being traversed.
    """

    waypoints: tuple[Pose2, ...]
    scan_spacing_m: float

    def __post_init__(self):
        object.__setattr__(self, "waypoints", tuple(self.waypoints))
        if len(self.waypoints) < 2:
            raise ValueError("need at least 2 waypoints")
        if self.scan_spacing_m <= 0:
            raise ValueError(f"scan_spacing_m must be positive, got {self.scan_spacing_m}")


def generate_trajectory(spec: TrajectorySpec) -> list[Pose2]:
    """Robot poses at arc lengths 0, s, 2s, ... along the piecewise-linear path.

    A sample falling exactly on a corner takes the outgoing segment's heading.
    """
    pts = np.array([[w.x_m, w.y_m] for w in spec.waypoints], dtype=np.float64)
    seg = np.diff(pts, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    total = float(seg_len.sum())
    if total == 0.0:
        raise ValueError("degenerate path: zero total length")
    cum = np.concatenate(([0.0], np.cumsum(seg_len)))
    headings = np.arctan2(seg[:, 1], seg[:, 0])

    n_steps = int(math.floor(total / spec.scan_spacing_m + 1e-9))
    s_values = np.minimum(np.arange(n_steps + 1) * spec.scan_spacing_m, total)

    out = []
    for s in s_values:
        idx = int(np.searchsorted(cum, s, side="right")) - 1
        idx = min(idx, len(seg_len) - 1)
        while seg_len[idx] == 0.0 and idx + 1 < len(seg_len):
            idx += 1
        pos = pts[idx] + (s - cum[idx]) / seg_len[idx] * seg[idx]
        # + 0.0 turns a -0.0 coordinate into 0.0, the bytes scan logs hold.
        out.append(Pose2(float(pos[0] + 0.0), float(pos[1] + 0.0), float(headings[idx])))
    return out


def default_bin_count(config: RadarConfig) -> int:
    """Bin count covering range_max plus headroom for pulse tails."""
    return int(math.ceil(config.range_max_m / range_bin_spacing(config))) + _EXTRA_TAIL_BINS


def simulate_echo(scene: Sequence[Scatterer], pose: Pose2, config: RadarConfig,
                  n_bins: int) -> RawScan:
    """Noiseless raw echo of the radar ``config`` fired at ``pose``: the
    replicas of the scatterers in its FOV.

    Each visible scatterer contributes the transmitted pulse delayed by its
    two-way travel time, scaled by sqrt(rcs) / R^2 (two-way spreading on
    voltage). Scatterers outside the FOV cone contribute nothing.
    """
    if n_bins * range_bin_spacing(config) < config.range_max_m:
        raise ValueError(
            f"{n_bins} bins cover only {n_bins * range_bin_spacing(config):.3f} m, "
            f"less than range_max {config.range_max_m:g} m")

    t = np.arange(n_bins, dtype=np.float64) / config.sample_rate_hz
    samples = np.zeros(n_bins, dtype=np.float64)
    for sc in scene:
        if not bool(in_fov(pose, config, sc.x_m, sc.y_m)):
            continue
        rng_m = math.hypot(sc.x_m - pose.x_m, sc.y_m - pose.y_m)
        delay = 2.0 * rng_m / SPEED_OF_LIGHT
        samples += (math.sqrt(sc.rcs) / rng_m ** 2) * pulse_value(config, t - delay)
    return RawScan(samples, pose, config)


def render_scene(scene: Sequence[Scatterer], poses: Sequence[Pose2],
                 radars: Sequence[RadarConfig], grid: ImageGrid, snr_db: float = math.inf,
                 rng: np.random.Generator | None = None) -> tuple[list[RawScan], np.ndarray]:
    """Full forward simulation over robot poses plus the truth occupancy grid.

    Returns one RawScan per (pose, radar) in pose-major, radar-minor order:
    at each robot pose every radar of ``radars`` fires, and its scan carries
    that radar's config. Each echo is rendered once; Gaussian noise sized by
    ``noise_std_for_snr(echoes, snr_db)`` is then added in scan order from
    ``rng`` (the default infinite SNR adds none). The truth grid marks the
    cell nearest each scatterer.
    """
    if not radars:
        raise ValueError("need at least one radar")
    n_bins = max(map(default_bin_count, radars))
    scans = [simulate_echo(scene, robot, radar, n_bins) for robot in poses for radar in radars]
    noise_std = noise_std_for_snr(scans, snr_db)
    if noise_std > 0:
        if rng is None:
            raise ValueError("noise requested but no rng supplied "
                             "(pass a seeded Generator)")
        scans = [replace(s, samples=s.samples + rng.normal(0.0, noise_std, size=n_bins))
                 for s in scans]

    truth = np.zeros((grid.height_px, grid.width_px), dtype=bool)
    ox, oy = grid.origin_m
    for sc in scene:
        col = int(math.floor((sc.x_m - ox) / grid.resolution_m + 0.5))
        row = int(math.floor((sc.y_m - oy) / grid.resolution_m + 0.5))
        if 0 <= row < grid.height_px and 0 <= col < grid.width_px:
            truth[row, col] = True
    return scans, truth


def noise_std_for_snr(scans: Sequence[RawScan], snr_db: float) -> float:
    """Noise sigma putting the strongest clean echo sample at snr_db above it.

    SNR here is peak signal amplitude over noise standard deviation in dB.
    An infinite snr_db (or silent scans) gives 0, i.e. no noise.
    """
    if not scans:
        raise ValueError("no scans to measure")
    if math.isinf(snr_db):
        return 0.0
    peak = max(float(np.max(np.abs(s.samples))) for s in scans)
    return peak / 10.0 ** (snr_db / 20.0)


def _load_rows(path, columns: str, make) -> list:
    """``make(a, b, c)`` for each line of three numbers (``#`` comments)."""
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            a, b, c = (float(p) for p in body.split())
            rows.append(make(a, b, c))
        except ValueError as exc:
            raise ValueError(
                f"{path}:{lineno}: expected '{columns}', got {line!r} ({exc})") from None
    return rows


@names_its_file
def load_scene(path: str | Path) -> list[Scatterer]:
    """Read a scene file: one ``x_m y_m rcs`` line per scatterer."""
    return _load_rows(path, "x_m y_m rcs", Scatterer)


@names_its_file
def load_trajectory(path: str | Path) -> list[Pose2]:
    """Read a waypoint file: one ``x_m y_m theta_rad`` line per waypoint."""
    return _load_rows(path, "x_m y_m theta_rad", Pose2)
