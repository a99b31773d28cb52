"""SAR image formation by back-projection.

Each compressed scan is spread onto the pixels inside its field-of-view
polygon (range window + beam cone around the boresight); the image is the
coherent sum of these per-scan layers over all poses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import Pose2
from .radar import CompressedScan, RadarConfig, range_bin_spacing

# Arc step used when turning the FOV cone into a polygon. At 2 degrees the
# chord sagitta is below half a pixel for 5 mm pixels out to 3 m range.
FOV_ARC_STEP_RAD = math.radians(2.0)


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
        if self.resolution_m <= 0:
            raise ValueError(f"resolution_m must be positive, got {self.resolution_m}")
        if self.width_px < 1 or self.height_px < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.width_px}x{self.height_px}")
        object.__setattr__(self, "origin_m", (float(self.origin_m[0]), float(self.origin_m[1])))

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
        object.__setattr__(self, "pixels", pixels)


def in_fov(radar: Pose2, config: RadarConfig, x, y):
    """Direct FOV predicate on world points (vectorized).

    True where range is within [range_min, range_max] and the bearing off
    boresight (robot heading + mount angle) is within half the beamwidth.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    dx = x - radar.x_m
    dy = y - radar.y_m
    rng = np.hypot(dx, dy)
    boresight = radar.theta_rad + config.mount_angle_rad
    bearing = np.arctan2(dy, dx) - boresight
    bearing = np.mod(bearing + math.pi, 2.0 * math.pi) - math.pi
    return ((rng >= config.range_min_m) & (rng <= config.range_max_m)
            & (np.abs(bearing) <= config.beamwidth_rad / 2.0))


def fov_polygon(radar: Pose2, config: RadarConfig,
                arc_step_rad: float = FOV_ARC_STEP_RAD) -> tuple[np.ndarray, np.ndarray]:
    """Closed polygon outlining the FOV annular sector (arcs chorded)."""
    half = config.beamwidth_rad / 2.0
    boresight = radar.theta_rad + config.mount_angle_rad
    n_arc = max(1, int(math.ceil(config.beamwidth_rad / arc_step_rad)))
    angles = boresight + np.linspace(-half, half, n_arc + 1)
    cos_a, sin_a = np.cos(angles), np.sin(angles)
    xs = np.concatenate([radar.x_m + config.range_max_m * cos_a,
                         radar.x_m + config.range_min_m * cos_a[::-1]])
    ys = np.concatenate([radar.y_m + config.range_max_m * sin_a,
                         radar.y_m + config.range_min_m * sin_a[::-1]])
    return xs, ys


def rasterize_polygon(poly_x: np.ndarray, poly_y: np.ndarray, grid: ImageGrid) -> np.ndarray:
    """Scanline-fill a closed polygon over the grid's pixel centers."""
    res = grid.resolution_m
    ox, oy = grid.origin_m
    mask = np.zeros((grid.height_px, grid.width_px), dtype=bool)

    x0 = np.asarray(poly_x, dtype=np.float64)
    y0 = np.asarray(poly_y, dtype=np.float64)
    x1 = np.roll(x0, -1)
    y1 = np.roll(y0, -1)

    rows_parts = []
    cross_parts = []
    for ex0, ey0, ex1, ey1 in zip(x0, y0, x1, y1):
        if ey0 == ey1:
            continue
        ylo, yhi = (ey0, ey1) if ey0 < ey1 else (ey1, ey0)
        # half-open [ylo, yhi) so a scanline through a shared vertex is
        # counted once per monotone chain
        r_lo = max(0, math.ceil((ylo - oy) / res))
        r_hi = min(grid.height_px - 1, math.ceil((yhi - oy) / res) - 1)
        if r_hi < r_lo:
            continue
        rows = np.arange(r_lo, r_hi + 1)
        yc = oy + rows * res
        rows_parts.append(rows)
        cross_parts.append(ex0 + (yc - ey0) * (ex1 - ex0) / (ey1 - ey0))

    if not rows_parts:
        return mask
    rows = np.concatenate(rows_parts)
    crossings = np.concatenate(cross_parts)
    order = np.lexsort((crossings, rows))
    rows = rows[order]
    crossings = crossings[order]

    group_bounds = np.flatnonzero(np.diff(rows)) + 1
    starts = np.concatenate(([0], group_bounds))
    ends = np.concatenate((group_bounds, [rows.size]))
    for s, e in zip(starts, ends):
        row = rows[s]
        xs = crossings[s:e]
        for k in range(0, xs.size - 1, 2):
            c_lo = max(0, math.ceil((xs[k] - ox) / res))
            c_hi = min(grid.width_px - 1, math.ceil((xs[k + 1] - ox) / res) - 1)
            if c_hi >= c_lo:
                mask[row, c_lo:c_hi + 1] = True
    return mask


def fov_mask(radar: Pose2, config: RadarConfig, grid: ImageGrid) -> np.ndarray:
    """Boolean mask of grid pixels inside the radar's FOV polygon."""
    return rasterize_polygon(*fov_polygon(radar, config), grid)


def backproject_scan(scan: CompressedScan, config: RadarConfig, grid: ImageGrid) -> SarImage:
    """Spread one compressed scan onto its FOV pixels.

    Every masked pixel receives the bin at its rounded range index; pixels
    outside the FOV (or mapping past the last bin) stay zero.
    """
    pixels = np.zeros((grid.height_px, grid.width_px), dtype=np.complex128)
    mask = fov_mask(scan.pose, config, grid)
    rows, cols = np.nonzero(mask)
    if rows.size:
        dd = range_bin_spacing(config)
        x = grid.origin_m[0] + cols * grid.resolution_m
        y = grid.origin_m[1] + rows * grid.resolution_m
        rng = np.hypot(x - scan.pose.x_m, y - scan.pose.y_m)
        bins = np.floor(rng / dd + 0.5).astype(np.int64)
        valid = bins < scan.bins.size
        pixels[rows[valid], cols[valid]] = scan.bins[bins[valid]]
    return SarImage(grid, pixels, scan_count=1)


def build_sar(scans: Iterable[CompressedScan], config: RadarConfig | Sequence[RadarConfig],
              grid: ImageGrid) -> SarImage:
    """Back-project and sum a scan stream (constant memory in scans).

    ``config`` may be a single RadarConfig or one per scan (dual-radar
    streams interleave scans with different mount angles).
    """
    total = np.zeros((grid.height_px, grid.width_px), dtype=np.complex128)
    count = 0
    configs = config if not isinstance(config, RadarConfig) else None
    for i, scan in enumerate(scans):
        cfg = configs[i] if configs is not None else config
        total += backproject_scan(scan, cfg, grid).pixels
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
