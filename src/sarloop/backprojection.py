"""SAR image formation by back-projection.

Each compressed scan is spread onto the pixels whose centers lie in its
field of view: the exact annular sector of ``in_fov`` (range window + beam
cone around the boresight), the predicate the simulator also uses. Only the
sector's bounding window is evaluated, in blocks of ``BLOCK_ROWS`` rows that
take each pixel's range once for the sector test and the bin. A scan's blocks
cover disjoint rows and run on one thread per usable core (the affinity mask
where the OS has one); the next scan starts when all are done, so each pixel
sums its scans in scan order and the image's bytes do not depend on the
thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from .geometry import Pose2, wrap_angle
from .radar import CompressedScan, RadarConfig, range_bin_spacing

BLOCK_ROWS = 64  # rows per unit of work: few enough that its temporaries stay in cache


@dataclass(frozen=True)
class ImageGrid:
    """Pixel grid of the SAR image.

    Pixel (row, col) has its center at world coordinates
    ``(origin_m[0] + col * resolution_m, origin_m[1] + row * resolution_m)``;
    arrays over the grid are indexed ``[row, col]``.
    """

    width_px: int
    height_px: int
    resolution_m: float
    origin_m: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not (self.resolution_m > 0 and math.isfinite(self.resolution_m)):
            raise ValueError(f"resolution_m must be positive, got {self.resolution_m}")
        if self.width_px < 1 or self.height_px < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.width_px}x{self.height_px}")
        origin = (float(self.origin_m[0]), float(self.origin_m[1]))
        if not all(map(math.isfinite, origin)):
            raise ValueError(f"origin_m must be finite, got {origin}")
        object.__setattr__(self, "origin_m", origin)

    def x_coords(self) -> np.ndarray:
        return self.origin_m[0] + np.arange(self.width_px) * self.resolution_m

    def y_coords(self) -> np.ndarray:
        return self.origin_m[1] + np.arange(self.height_px) * self.resolution_m


@dataclass(frozen=True)
class SarImage:
    """Complex pixel accumulator plus the number of scans summed into it."""

    grid: ImageGrid
    pixels: np.ndarray
    scan_count: int

    def __post_init__(self):
        pixels = np.asarray(self.pixels, dtype=np.complex128)
        if pixels.shape != (self.grid.height_px, self.grid.width_px):
            raise ValueError(
                f"pixel array shape {pixels.shape} does not match grid "
                f"{self.grid.height_px}x{self.grid.width_px}")
        if self.scan_count < 1:
            raise ValueError(f"scan_count must be >= 1, got {self.scan_count}")
        object.__setattr__(self, "pixels", pixels)


def in_fov(radar: Pose2, config: RadarConfig, x, y):
    """Direct FOV predicate on world points (vectorized).

    True where range is within [range_min, range_max] and the bearing off
    boresight (robot heading + mount angle) is within half the beamwidth,
    tested as ``along-boresight >= range * cos(beamwidth / 2)`` (beamwidth < pi).
    """
    dx = np.asarray(x, dtype=np.float64) - radar.x_m
    dy = np.asarray(y, dtype=np.float64) - radar.y_m
    return _sector(radar, config, dx, dy, np.hypot(dx, dy))


def _sector(radar: Pose2, config: RadarConfig, dx, dy, rng) -> np.ndarray:
    """``in_fov`` on offsets from the radar and their precomputed range."""
    boresight = radar.theta_rad + config.mount_angle_rad
    along = dx * math.cos(boresight) + dy * math.sin(boresight)
    return ((rng >= config.range_min_m) & (rng <= config.range_max_m)
            & (along >= rng * math.cos(config.beamwidth_rad / 2.0)))


def fov_window(radar: Pose2, config: RadarConfig, grid: ImageGrid) -> tuple[slice, slice]:
    """Row and column slices of the grid holding every pixel inside the FOV.

    The sector's bounding box comes from its four corners plus the far-arc
    point on each axis direction inside the beam; it is padded by one pixel
    (float slack of ``in_fov``) and clipped to the grid.
    """
    half = config.beamwidth_rad / 2.0
    boresight = radar.theta_rad + config.mount_angle_rad
    points = [(r, boresight + s * half) for r in (config.range_min_m, config.range_max_m)
              for s in (-1.0, 1.0)]
    points += [(config.range_max_m, axis) for axis in (0.0, math.pi / 2, math.pi, -math.pi / 2)
               if abs(wrap_angle(axis - boresight)) <= half]
    xs = [radar.x_m + r * math.cos(a) for r, a in points]
    ys = [radar.y_m + r * math.sin(a) for r, a in points]

    def span(lo: float, hi: float, origin: float, size: int) -> slice:
        start = min(size, max(0, math.floor((lo - origin) / grid.resolution_m) - 1))
        stop = max(start, min(size, math.ceil((hi - origin) / grid.resolution_m) + 2))
        return slice(start, stop)

    return (span(min(ys), max(ys), grid.origin_m[1], grid.height_px),
            span(min(xs), max(xs), grid.origin_m[0], grid.width_px))


def fov_mask(radar: Pose2, config: RadarConfig, grid: ImageGrid,
             rows: slice, cols: slice) -> np.ndarray:
    """``in_fov`` at the pixel centers of the grid window ``[rows, cols]``."""
    return in_fov(radar, config, grid.x_coords()[cols][np.newaxis, :],
                  grid.y_coords()[rows][:, np.newaxis])


def _add_block(total: np.ndarray, xs: np.ndarray, ys: np.ndarray, scan: CompressedScan,
               padded: np.ndarray, cols: slice, rows: slice) -> None:
    """Add a scan into ``total[rows, cols]``; pixels outside the FOV read ``padded[-1] == 0``."""
    dx = xs[cols][np.newaxis, :] - scan.pose.x_m
    dy = ys[rows][:, np.newaxis] - scan.pose.y_m
    rng = np.hypot(dx, dy)
    # rng / spacing + 0.5 > 0, so truncation is the floor of the rounded bin.
    idx = (rng / range_bin_spacing(scan.config) + 0.5).astype(np.intp)
    idx[~_sector(scan.pose, scan.config, dx, dy, rng) | (idx > scan.bins.size)] = scan.bins.size
    total[rows, cols] += padded[idx]


def build_sar(scans: Iterable[CompressedScan], grid: ImageGrid) -> SarImage:
    """Back-project and sum a scan stream (constant memory in scans).

    Each scan is imaged with its own radar, ``scan.config``: every pixel
    inside its FOV receives the bin at its rounded range index; pixels
    mapping past the last bin receive nothing.
    """
    total = np.zeros((grid.height_px, grid.width_px), dtype=np.complex128)
    xs, ys = grid.x_coords(), grid.y_coords()
    count = 0
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(cores) as pool:
        for scan in scans:
            rows, cols = fov_window(scan.pose, scan.config, grid)
            add = partial(_add_block, total, xs, ys, scan, np.append(scan.bins, 0), cols)
            # Blocks cover disjoint rows; the next scan waits for all of them.
            list(pool.map(add, (slice(r, min(r + BLOCK_ROWS, rows.stop))
                                for r in range(rows.start, rows.stop, BLOCK_ROWS))))
            count += 1
    if count == 0:
        raise ValueError("no scans to back-project")
    return SarImage(grid, total, scan_count=count)


def derive_grid(poses: Sequence[Pose2], config: RadarConfig, resolution_m: float) -> ImageGrid:
    """Grid covering the trajectory bounding box padded by the max range."""
    if not poses:
        raise ValueError("no poses to derive a grid from")
    xs = [p.x_m for p in poses]
    ys = [p.y_m for p in poses]
    pad = config.range_max_m
    x_lo, x_hi = min(xs) - pad, max(xs) + pad
    y_lo, y_hi = min(ys) - pad, max(ys) + pad
    width = int(math.ceil((x_hi - x_lo) / resolution_m)) + 1
    height = int(math.ceil((y_hi - y_lo) / resolution_m)) + 1
    return ImageGrid(width, height, resolution_m, origin_m=(x_lo, y_lo))
