"""SAR image formation by back-projection.

The scans are a scan log's records plus their compressed bins, one table
row per record: each row is imaged at its record's pose row with the radar
its radar index names, spread onto the pixels whose centers lie in that radar's
field of view: the exact annular sector of ``in_fov`` (range window + beam
cone around the boresight) on the IEEE-exact range ``sqrt(dy * dy + dx * dx)``:
the simulator lights a scatterer by the same test on the same range. On each
block of ``BLOCK_ROWS`` rows, only the column span the sector can reach there
is evaluated, taking each pixel's range once for the sector test and the bin.
The grid's row blocks are the tasks, run on one thread per usable core (the
affinity mask where the OS has one): a task alone writes its rows and adds
every scan that reaches them in scan order, so the image's bytes do not
depend on the thread count. ``sar_bands`` yields each block as a complex128
band once it is summed, so a caller that writes bands as they come never
holds the whole grid (``sarloop backproject``); ``build_sar`` gathers them
into one image.
"""

from __future__ import annotations

import math
import mmap
import os
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .radar import RadarConfig, range_bin_spacing
from .scanlog import ScanLog

# Rows per band, the unit of work: its buffer is width x 64 x 16 bytes (2 MB on a
# 2,000 px wide grid), and a scan's temporaries over a block of its span are smaller.
BLOCK_ROWS = 64


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
    """Complex pixels plus the number of scans summed into them: complex64 or
    complex128 as given, any other array cast to complex128."""

    grid: ImageGrid
    pixels: np.ndarray
    scan_count: int

    def __post_init__(self):
        pixels = np.asarray(self.pixels)
        if pixels.dtype not in (np.complex64, np.complex128):
            pixels = pixels.astype(np.complex128)
        if pixels.shape != (self.grid.height_px, self.grid.width_px):
            raise ValueError(
                f"pixel array shape {pixels.shape} does not match grid "
                f"{self.grid.height_px}x{self.grid.width_px}")
        if self.scan_count < 1:
            raise ValueError(f"scan_count must be >= 1, got {self.scan_count}")
        object.__setattr__(self, "pixels", pixels)


def in_fov(pose, config: RadarConfig, x, y):
    """Direct FOV predicate on world points (vectorized) at the pose row ``pose``.

    True where range is within [range_min, range_max] and the bearing off
    boresight (robot heading + mount angle) is within half the beamwidth,
    tested as ``along-boresight >= range * cos(beamwidth / 2)`` (beamwidth < pi).
    A finite point so far off that its offset or range overflows is outside.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an inf offset or range: outside
        return _sector(pose, config, np.asarray(x, dtype=np.float64),
                       np.asarray(y, dtype=np.float64))[1]


def _sector(pose, config: RadarConfig, x, y) -> tuple[np.ndarray, np.ndarray]:
    """IEEE-exact range of world points from the radar (a libm ``hypot`` is not) and
    ``in_fov``; the caller guards against an offset or range that overflows."""
    px, py, heading = pose
    dx, dy = x - px, y - py
    rng = np.sqrt(dy * dy + dx * dx)
    boresight = heading + config.mount_angle_rad
    along = dx * math.cos(boresight) + dy * math.sin(boresight)
    return rng, ((rng >= config.range_min_m) & (rng <= config.range_max_m)
                 & (along >= rng * math.cos(config.beamwidth_rad / 2.0)))


def block_spans(pose, config: RadarConfig, grid: ImageGrid) -> tuple[slice, np.ndarray]:
    """The rows the FOV sector at the pose row ``pose`` reaches (the beam's
    extent along y at the near and the far radius), and on each row block they
    meet (row ``k``: block ``rows.start // BLOCK_ROWS + k``) the column span
    ``[start, stop)`` of the far disk ∩ the beam cone (beamwidth < pi: two
    half-planes through the radar) on its rows, less an end inside the near
    disk. Each bound is moved out by a pixel and clipped to the grid: a
    superset of ``in_fov``."""
    px, py, heading = pose
    res, height = grid.resolution_m, grid.height_px
    boresight, half = heading + config.mount_angle_rad, config.beamwidth_rad / 2.0
    # The largest and smallest sine over the beam: +-1 where it holds the +y or -y axis.
    edges = (math.sin(boresight - half), math.sin(boresight + half))
    top = 1.0 if math.sin(boresight) >= math.cos(half) else max(edges)
    bottom = -1.0 if -math.sin(boresight) >= math.cos(half) else min(edges)
    y0, radii = py - grid.origin_m[1], (config.range_min_m, config.range_max_m)
    first = min(height, max(0, math.ceil((y0 + min(r * bottom for r in radii)) / res - 1)))
    last = math.floor((y0 + max(r * top for r in radii)) / res + 1)
    rows = slice(first, max(first, min(height, last + 1)))
    dy = grid.y_coords()[rows] - py
    hi = np.sqrt(np.maximum((config.range_max_m + res) ** 2 - dy * dy, 0.0))
    lo = -hi
    for side in (-1.0, 1.0):
        # The cone lies on the side nx * dx + ny * dy >= 0 of this beam edge.
        edge = boresight + side * half
        nx, ny = side * math.sin(edge), -side * math.cos(edge)
        if abs(nx) > 1e-12:  # an edge along the rows bounds no column
            bound = (-res - ny * dy) / nx
            lo, hi = (np.maximum(lo, bound), hi) if nx > 0 else (lo, np.minimum(hi, bound))
    # An end inside the near disk, shrunk by a pixel, moves to that disk's edge.
    near = np.sqrt(np.maximum(max(config.range_min_m - res, 0.0) ** 2 - dy * dy, 0.0))
    lo, hi = np.where(abs(lo) < near, near, lo), np.where(abs(hi) < near, -near, hi)
    start = np.ceil((px + lo - grid.origin_m[0]) / res)
    stop = np.floor((px + hi - grid.origin_m[0]) / res) + 1
    # Each block's first row in ``rows``; no rows meet no block.
    cuts = np.arange(-(rows.start % BLOCK_ROWS), dy.size, BLOCK_ROWS).clip(0)[:dy.size]
    spans = np.stack([np.minimum.reduceat(start, cuts), np.maximum.reduceat(stop, cuts)], 1)
    return rows, np.clip(spans, 0, grid.width_px).astype(np.intp)


def sar_bands(log: ScanLog, bins: np.ndarray, grid: ImageGrid) -> Iterator[np.ndarray]:
    """The image of ``build_sar`` as complex128 bands of ``BLOCK_ROWS`` rows (the
    last one shorter unless the height is a multiple of it), from the top row down.

    The arguments are checked at the call; the bands are computed by a pool of
    one thread per usable core, ahead of the caller, and each is yielded once all
    the bands above it are. A band is the transposed view of a ``width x rows``
    buffer of its own, on an anonymous mapping that goes back to the OS when the
    band is freed: a heap block freed by a pool thread can stay in its arena.
    """
    if not len(log):
        raise ValueError("no scans to back-project")
    if np.ndim(bins) != 2 or len(bins) != len(log):
        raise ValueError(f"need one row of bins per scan: {len(log)} scans, "
                         f"bins of shape {np.shape(bins)}")
    n_bins = np.shape(bins)[1]
    # Bin n_bins of each row is 0: pixels outside the FOV or past the last bin read it.
    padded = np.zeros((len(log), n_bins + 1), dtype=np.complex128)
    padded[:, :n_bins] = bins
    radars = [log.radars[index] for index in log.records["radar_index"].tolist()]
    work = [(pose, radar, *block_spans(pose, radar, grid), row)
            for pose, radar, row in zip(log.records["pose"].tolist(), radars, padded)]
    xs, ys = grid.x_coords()[:, np.newaxis], grid.y_coords()

    def band(start: int) -> np.ndarray:
        stop = min(start + BLOCK_ROWS, grid.height_px)
        # Column-major, so that a scan's column span over the band's rows is one
        # contiguous run; this task alone writes it, adding the scans in scan order.
        total = np.frombuffer(mmap.mmap(-1, 16 * grid.width_px * (stop - start)),
                              np.complex128).reshape(grid.width_px, stop - start)
        for pose, radar, rows, spans, row in work:
            lo, hi = max(start, rows.start), min(stop, rows.stop)
            if lo >= hi:
                continue
            cols = slice(*spans[start // BLOCK_ROWS - rows.start // BLOCK_ROWS])
            rng, inside = _sector(pose, radar, xs[cols], ys[lo:hi])
            # rng / spacing + 0.5 > 0, so truncation is the floor of the rounded bin.
            idx = np.add(np.divide(rng, range_bin_spacing(radar), out=rng), 0.5,
                         out=np.empty(rng.shape, np.intp), casting="unsafe")
            np.copyto(idx, n_bins, where=~inside)
            total[cols, lo - start:hi - start] += np.take(row, idx, mode="clip")
        return total.T

    def bands() -> Iterator[np.ndarray]:
        cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count())
        with ThreadPoolExecutor(cores) as pool:
            # map submits every band at once: a caller that writes or copies a band
            # keeps up with the pool, and holding it to a band per thread stalled it.
            # Closing this generator cancels the bands not yet started.
            yield from pool.map(band, range(0, grid.height_px, BLOCK_ROWS))

    return bands()


def build_sar(log: ScanLog, bins: np.ndarray, grid: ImageGrid) -> SarImage:
    """Back-project the scans of ``log`` and sum them in scan order, in complex128.

    ``bins`` holds one row of compressed bins per record (``compress_scan``
    of the log's samples). Each scan is imaged at its record's pose with the
    radar its ``radar_index`` names: every pixel inside that radar's FOV
    receives the bin at its rounded range index; pixels mapping past the
    last bin receive nothing. The image is the ``sar_bands`` of the scans.
    """
    bands = sar_bands(log, bins, grid)
    total = np.empty((grid.height_px, grid.width_px), dtype=np.complex128)
    for start, band in zip(range(0, grid.height_px, BLOCK_ROWS), bands):
        total[start:start + BLOCK_ROWS] = band
    return SarImage(grid, total, scan_count=len(log))


def derive_grid(poses: np.ndarray, config: RadarConfig, resolution_m: float) -> ImageGrid:
    """Grid covering a pose table's bounding box padded by the max range."""
    if not len(poses):
        raise ValueError("no poses to derive a grid from")
    pad = config.range_max_m
    # Python floats: an extent past the float range is inf, and refused below.
    (x_lo, y_lo, _), (x_hi, y_hi, _) = np.min(poses, 0).tolist(), np.max(poses, 0).tolist()
    x_lo, x_hi, y_lo, y_hi = x_lo - pad, x_hi + pad, y_lo - pad, y_hi + pad
    cols, rows = (x_hi - x_lo) / resolution_m, (y_hi - y_lo) / resolution_m
    # numpy caps an array at intp-max bytes, and the complex128 image takes 16 a pixel.
    if not (cols + 1) * (rows + 1) <= np.iinfo(np.intp).max // 16:
        raise ValueError(f"grid_resolution_m={resolution_m!r} over a {x_hi - x_lo:g} x "
                         f"{y_hi - y_lo:g} m extent gives {(cols + 1) * (rows + 1):.3g} "
                         "pixels, more than an array can hold")
    width, height = int(math.ceil(cols)) + 1, int(math.ceil(rows)) + 1
    return ImageGrid(width, height, resolution_m, origin_m=(x_lo, y_lo))
