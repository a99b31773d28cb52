"""Synthetic trajectories and radar echoes from point-scatterer scenes.

Stands in for a real acquisition run: a robot path is sampled at a fixed
scan spacing, and at each robot pose every radar fires once. A scene is a
float64 ``(n, 3)`` table of ``x_m, y_m, rcs`` rows and a trajectory one of
``x_m, y_m, theta_rad`` rows, each checked where it is made; a radar's echo
sums, in one pass and in scene order, a pulse replica per scatterer in its
FOV at the range of its FOV test. ``render_scene`` returns the run as a
``ScanLog``, the form the scan log file stores.

Convention used throughout the package: every radar fires from the robot
pose, whose ``theta_rad`` is the robot heading; a record's radar carries its
mount, so its boresight is ``theta_rad + mount_angle_rad``.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .backprojection import ImageGrid, _sector
from .fileerrors import names_its_file
from .geometry import wrap_angle
from .radar import RadarConfig, SPEED_OF_LIGHT, pulse_value, range_bin_spacing
from .scanlog import ScanLog, record_dtype

# Extra bins past range_max so pulse tails near the far edge are not clipped.
_EXTRA_TAIL_BINS = 64


def _table(rows, columns: str, valid, rule: str, where) -> np.ndarray:
    """``rows`` as a float64 ``(n, 3)`` table of ``columns`` (a list of rows is
    converted); the first row that ``valid`` fails is refused, named ``where(k)``."""
    table = np.asarray(rows, dtype=np.float64)
    if table.shape == (0,):
        table = table.reshape(0, 3)
    if table.ndim != 2 or table.shape[1] != 3:
        raise ValueError(f"expected (n, 3) rows of {columns}, got shape {table.shape}")
    bad = np.flatnonzero(~valid(table))
    if bad.size:
        raise ValueError(f"{where(int(bad[0]))}: {rule}, got {table[bad[0]].tolist()}")
    return table


def _scene_table(scene, where=lambda k: f"scatterer {k}") -> np.ndarray:
    return _table(scene, "x_m, y_m, rcs", lambda t: np.isfinite(t).all(1) & (t[:, 2] >= 0),
                  "position must be finite and rcs >= 0", where)


def _pose_table(poses, where) -> np.ndarray:
    return _table(poses, "x_m, y_m, theta_rad", lambda t: np.isfinite(t).all(1),
                  "pose must be finite", where)


def generate_trajectory(waypoints, scan_spacing_m: float) -> np.ndarray:
    """A pose table every ``scan_spacing_m`` of arc length, from 0, along the
    piecewise-linear path through the ``waypoints`` rows (a non-finite one is
    refused by its index). Each pose takes the heading of its segment (the
    outgoing one on a corner), wrapped; waypoint headings are ignored."""
    if len(waypoints) < 2:
        raise ValueError(f"need at least 2 waypoints, got {len(waypoints)}")
    if not scan_spacing_m > 0:
        raise ValueError(f"scan_spacing_m must be positive, got {scan_spacing_m}")
    pts = _pose_table(waypoints, lambda k: f"waypoint {k}")[:, :2]
    # A repeated waypoint would add a zero-length segment: drop it.
    pts = pts[np.concatenate(([True], np.any(pts[1:] != pts[:-1], axis=1)))]
    with np.errstate(over="ignore"):  # a path past the float range is refused below
        seg = np.diff(pts, axis=0)
        seg_len = np.hypot(seg[:, 0], seg[:, 1])
        total = float(seg_len.sum())
    if total == 0.0:
        raise ValueError("degenerate path: zero total length")
    steps = total / scan_spacing_m + 1e-9
    # numpy caps an array at intp-max bytes, and the (n, 2) float64 positions take 16 a scan.
    if not steps < np.iinfo(np.intp).max // 16:
        raise ValueError(f"scan_spacing_m={scan_spacing_m:g} on a {total:g} m path gives "
                         f"{steps + 1:.3g} scans, more than an array can hold")

    cum = np.concatenate(([0.0], np.cumsum(seg_len)))
    s = np.minimum(np.arange(math.floor(steps) + 1) * scan_spacing_m, total)
    idx = np.minimum(np.searchsorted(cum, s, side="right") - 1, len(seg_len) - 1)
    # + 0.0 turns a -0.0 coordinate into 0.0, the bytes scan logs hold.
    pos = pts[idx] + ((s - cum[idx]) / seg_len[idx])[:, np.newaxis] * seg[idx] + 0.0
    # arctan2 gives -pi along -x from a -0.0 y: wrap_angle keeps pi, as in (-pi, pi].
    headings = [wrap_angle(h) for h in np.arctan2(seg[:, 1], seg[:, 0]).tolist()]
    return np.column_stack((pos, np.take(headings, idx)))


def default_bin_count(config: RadarConfig) -> int:
    """Bin count covering range_max plus headroom for pulse tails."""
    return int(math.ceil(config.range_max_m / range_bin_spacing(config))) + _EXTRA_TAIL_BINS


def simulate_echo(scene, pose, config: RadarConfig) -> np.ndarray:
    """Noiseless raw echo of the radar ``config`` fired at the pose row ``pose``
    over ``default_bin_count(config)`` bins, rendered in one pass: each scatterer
    in the FOV, at the range R that its FOV test (the imager's sector) takes,
    adds the pulse delayed by its two-way travel time and scaled by
    sqrt(rcs) / R^2 (two-way spreading on voltage), in scene order from +0.0.
    """
    return _echo(_scene_table(scene), pose, config)


def _echo(table: np.ndarray, pose, config: RadarConfig) -> np.ndarray:
    """``simulate_echo`` of a scene table that ``_scene_table`` has checked."""
    with np.errstate(over="ignore", invalid="ignore"):  # as in in_fov: a far point is unlit
        rng_m, lit = _sector(pose, config, table[:, 0], table[:, 1])
    rng_m = rng_m[lit]
    amplitude = np.sqrt(table[lit, 2]) / (rng_m * rng_m)
    delay = 2.0 * rng_m / SPEED_OF_LIGHT
    t = np.arange(default_bin_count(config), dtype=np.float64) / config.sample_rate_hz
    replicas = amplitude[:, np.newaxis] * pulse_value(config, t - delay[:, np.newaxis])
    # Axis 0 of a C-ordered table is summed row after row, not pairwise.
    return replicas.sum(axis=0, initial=0.0)


def render_scene(scene, poses: np.ndarray, radars: Sequence[RadarConfig],
                 grid: ImageGrid, snr_db: float = math.inf,
                 rng: np.random.Generator | None = None) -> tuple[ScanLog, np.ndarray]:
    """Full forward simulation over a pose table plus the truth occupancy grid.

    Returns a ``ScanLog`` of ``radars`` with one record per (pose, radar) in
    pose-major, radar-minor order: at each robot pose every radar fires, and
    its record names that radar and carries the pose index as its timestamp
    in seconds. The clean ``(n_scans, n_bins)`` echo table is rendered once;
    Gaussian noise sized by ``noise_std_for_snr(echoes, snr_db)`` is then
    added in one draw from ``rng`` (the default infinite SNR adds none), and
    the result is stored as the records' f32 samples. Noise past the f32
    range is refused. The truth grid marks the cell nearest each scatterer
    on the grid; one off it is not marked.
    """
    table = _scene_table(scene)
    # An empty log refuses no radars, or radars that differ beyond mount, before any echo.
    radars = ScanLog(radars, np.zeros(0, record_dtype(0))).radars
    echoes = np.array([_echo(table, pose, radar)
                       for pose in np.asarray(poses).tolist() for radar in radars])
    noise_std = noise_std_for_snr(echoes, snr_db)
    if noise_std > 0:
        if rng is None:
            raise ValueError("noise requested but no rng supplied "
                             "(pass a seeded Generator)")
        echoes = echoes + rng.normal(0.0, noise_std, size=echoes.shape)
    records = np.empty(len(echoes), record_dtype(echoes.shape[1]))
    records["timestamp_s"] = np.arange(len(echoes)) // len(radars)
    records["radar_index"] = np.arange(len(echoes)) % len(radars)
    records["pose"] = np.repeat(poses, len(radars), axis=0)
    with np.errstate(over="ignore"):  # an overflow is refused below
        records["samples"] = echoes
    if not np.isfinite(records["samples"]).all():
        raise ValueError(f"snr_db={snr_db:g} gives noise sigma {noise_std:g}: echo "
                         f"samples pass the f32 range of a scan log")
    log = ScanLog(radars, records)

    truth = np.zeros((grid.height_px, grid.width_px), dtype=bool)
    ox, oy = grid.origin_m
    with np.errstate(over="ignore"):  # a far scatterer's cell index is inf: off the grid
        col = np.floor((table[:, 0] - ox) / grid.resolution_m + 0.5)
        row = np.floor((table[:, 1] - oy) / grid.resolution_m + 0.5)
    on = (row >= 0) & (row < grid.height_px) & (col >= 0) & (col < grid.width_px)
    truth[row[on].astype(np.intp), col[on].astype(np.intp)] = True
    return log, truth


def noise_std_for_snr(echoes, snr_db: float) -> float:
    """Noise sigma putting the strongest sample of the clean echoes (any
    array of them) at snr_db above it.

    SNR here is peak signal amplitude over noise standard deviation in dB.
    An snr_db of +inf, or one whose amplitude ratio passes the float range,
    gives 0, i.e. no noise (as do silent scans); one too low for a finite
    sigma is refused.
    """
    if not np.size(echoes):
        raise ValueError("no echoes to measure")
    peak = float(np.max(np.abs(echoes)))
    try:
        ratio = 10.0 ** (snr_db / 20.0)
    except OverflowError:  # past the float range: inf, as for snr_db = inf
        ratio = math.inf
    if not (ratio > 0.0 and math.isfinite(peak / ratio)):
        raise ValueError(f"snr_db={snr_db:g} gives no finite noise sigma")
    return peak / ratio


def _load_table(path, columns: str, check) -> np.ndarray:
    """``check(rows, where)`` of the rows of a file of ``columns`` lines (``#``
    comments), where ``where`` names a row by its line."""
    rows = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            a, b, c = (float(p) for p in body.split())
            rows[lineno] = (a, b, c)
        except ValueError as exc:
            raise ValueError(
                f"{path}:{lineno}: expected '{columns}', got {line!r} ({exc})") from None
    return check(list(rows.values()), lambda k: f"{path}:{list(rows)[k]}")


@names_its_file
def load_scene(path: str | Path) -> np.ndarray:
    """Read a scene file, one ``x_m y_m rcs`` line per scatterer, as an
    ``(n, 3)`` table; a bad row is named by its line."""
    return _load_table(path, "x_m y_m rcs", _scene_table)


@names_its_file
def load_trajectory(path: str | Path) -> np.ndarray:
    """Read a waypoint file, one ``x_m y_m theta_rad`` line per waypoint, as
    a pose table; a non-finite row is named by its line, and at least two
    distinct positions are needed."""
    waypoints = _load_table(path, "x_m y_m theta_rad", _pose_table)
    if not (waypoints[:, :2] != waypoints[:1, :2]).any():
        raise ValueError(f"need at least 2 distinct waypoint positions, "
                         f"got {len(waypoints)} waypoints")
    return waypoints
