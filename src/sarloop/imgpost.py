"""Post-processing of complex SAR images into feature-ready 8-bit maps.

Pipeline: positive_image (real + magnitude, kills negative fringes) ->
gaussian_blur -> quantize to 8 bits. Also holds the occupancy-map accuracy
metric and the image file formats (binary PGM and raw float dumps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .backprojection import ImageGrid, SarImage
from .fileerrors import names_its_file


@dataclass(frozen=True)
class GrayImage:
    """Real-valued or 8-bit image with a physical pixel size."""

    pixels: np.ndarray
    resolution_m: float

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.ndim != 2:
            raise ValueError(f"pixels must be 2-D, got shape {px.shape}")
        if px.dtype != np.uint8:
            px = np.asarray(px, dtype=np.float64)
            if not np.all(np.isfinite(px)):
                raise ValueError("pixels must be finite")
        object.__setattr__(self, "pixels", px)
        if not (self.resolution_m > 0 and math.isfinite(self.resolution_m)):
            raise ValueError(f"resolution_m must be positive, got {self.resolution_m}")

    @property
    def width_px(self) -> int:
        return self.pixels.shape[1]

    @property
    def height_px(self) -> int:
        return self.pixels.shape[0]

    @property
    def is_8bit(self) -> bool:
        return self.pixels.dtype == np.uint8


def positive_image(sar: SarImage) -> GrayImage:
    """Re(p) + |p| per pixel: non-negative, doubles in-phase responses.

    Negative-real pixels map to zero, so interference fringes around bright
    scatterers are suppressed instead of ringing.
    """
    px = sar.pixels
    out = np.real(px) + np.abs(px)
    return GrayImage(out, sar.grid.resolution_m)


def gaussian_blur(img: GrayImage, sigma_px: float = 1.0) -> GrayImage:
    """Separable Gaussian smoothing with reflected edges.

    Kernel radius is ceil(3*sigma); sigma 0 returns the image unchanged.
    """
    if sigma_px < 0:
        raise ValueError(f"sigma_px must be >= 0, got {sigma_px}")
    if sigma_px == 0:
        return img
    src = np.asarray(img.pixels, dtype=np.float64)
    out = ndimage.gaussian_filter(src, sigma_px, mode="reflect",
                                  radius=int(math.ceil(3.0 * sigma_px)))
    return GrayImage(out, img.resolution_m)


def quantize(img: GrayImage) -> GrayImage:
    """Affine rescale to 8 bits: min -> 0, max -> 255, round half up.

    A constant image has no contrast to stretch and quantizes to all zeros.
    """
    px = np.asarray(img.pixels, dtype=np.float64)
    lo = float(px.min())
    hi = float(px.max())
    if hi == lo:
        levels = np.zeros(px.shape, dtype=np.uint8)
    else:
        scaled = (px - lo) * (255.0 / (hi - lo))
        levels = np.floor(scaled + 0.5).astype(np.uint8)
    return GrayImage(levels, img.resolution_m)


def otsu_threshold(img: GrayImage) -> int:
    """Histogram split maximizing between-class variance.

    Returns the level t in [0, 254] such that pixels > t form the
    foreground; first maximizer wins on ties.
    """
    if not img.is_8bit:
        raise ValueError("otsu_threshold needs an 8-bit image (quantize first)")
    hist = np.bincount(img.pixels.ravel(), minlength=256).astype(np.float64)
    total = hist.sum()
    levels = np.arange(256, dtype=np.float64)
    w0 = np.cumsum(hist)
    mass0 = np.cumsum(hist * levels)
    w1 = total - w0
    mass_total = mass0[-1]
    with np.errstate(invalid="ignore", divide="ignore"):
        mu0 = mass0 / w0
        mu1 = (mass_total - mass0) / w1
        between = w0 * w1 * (mu0 - mu1) ** 2
    between = np.nan_to_num(between[:-1], nan=-1.0)
    return int(np.argmax(between))


def occupancy_from_image(img: GrayImage) -> np.ndarray:
    """Binarize an 8-bit image: occupied where pixel > its Otsu threshold."""
    return img.pixels > otsu_threshold(img)


def cellwise_difference(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of cells where two binary grids disagree, in [0, 1]."""
    a = np.asarray(predicted, dtype=bool)
    b = np.asarray(truth, dtype=bool)
    if a.shape != b.shape:
        raise ValueError(f"grid shapes differ: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ValueError("empty grids")
    return float(np.count_nonzero(a != b)) / a.size


# --------------------------------------------------------------------------
# File formats


def write_pgm(img: GrayImage, path, origin_m: tuple[float, float] | None = None) -> None:
    """Binary PGM (P5, maxval 255); pixel size rides along as a comment.

    Row 0 is written first, matching the array layout. The optional origin
    comment preserves world placement for occupancy comparisons.
    """
    if not img.is_8bit:
        raise ValueError("PGM export needs an 8-bit image (quantize first)")
    header = ["P5", f"# resolution_m {img.resolution_m!r}"]
    if origin_m is not None:
        header.append(f"# origin_m {float(origin_m[0])!r} {float(origin_m[1])!r}")
    header.append(f"{img.width_px} {img.height_px}")
    header.append("255")
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode())
        fh.write(img.pixels.tobytes())


@names_its_file
def read_pgm(path) -> tuple[GrayImage, tuple[float, float] | None]:
    """Read a P5 PGM, recovering resolution/origin comments when present."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary (P5) PGM")
    resolution = 1.0
    origin = None
    tokens: list[bytes] = []
    pos = 2
    while len(tokens) < 3:
        if pos >= len(data):
            raise ValueError(f"{path}: truncated PGM header")
        ch = data[pos:pos + 1]
        if ch == b"#":
            eol = data.find(b"\n", pos)
            eol = len(data) if eol < 0 else eol
            comment = data[pos + 1:eol].split()
            if comment[:1] == [b"resolution_m"] and len(comment) == 2:
                resolution = float(comment[1])
            elif comment[:1] == [b"origin_m"] and len(comment) == 3:
                origin = (float(comment[1]), float(comment[2]))
            pos = eol + 1
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end:end + 1].isspace():
                end += 1
            tokens.append(data[pos:end])
            pos = end
    width, height = _header_size(tokens)
    maxval = int(tokens[2])
    if origin is not None and not all(map(math.isfinite, origin)):
        raise ValueError(f"non-finite origin {origin}")
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    raster = data[pos:pos + width * height]
    if len(raster) != width * height:
        raise ValueError(f"{path}: raster truncated "
                         f"({len(raster)} of {width * height} bytes)")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    return GrayImage(pixels.copy(), resolution), origin


def write_float_dump(img: GrayImage, path) -> None:
    """Raw analysis dump: ASCII `width height resolution_m` line, then
    row-major little-endian float32 pixels."""
    with open(path, "wb") as fh:
        fh.write(f"{img.width_px} {img.height_px} {img.resolution_m!r}\n".encode())
        fh.write(np.asarray(img.pixels, dtype="<f4").tobytes())


def _header_size(header: list[bytes]) -> tuple[int, int]:
    """Width and height from a file header; both must be positive integers."""
    try:
        width, height = int(header[0]), int(header[1])
    except ValueError:
        width = height = 0
    if width < 1 or height < 1:
        raise ValueError(f"width and height must be positive integers, "
                         f"got {header[0].decode(errors='replace')} "
                         f"{header[1].decode(errors='replace')}")
    return width, height


@names_its_file
def read_float_dump(path) -> GrayImage:
    with open(path, "rb") as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError(f"{path}: expected 'width height resolution_m' header")
        width, height = _header_size(header)
        resolution = float(header[2])
        payload = fh.read()
    expect = width * height * 4
    if len(payload) != expect:
        raise ValueError(f"{path}: payload is {len(payload)} bytes, expected {expect}")
    pixels = np.frombuffer(payload, dtype="<f4").reshape(height, width)
    return GrayImage(pixels.astype(np.float64), resolution)


def write_sar_dump(sar: SarImage, path) -> None:
    """Complex SAR intermediate: ASCII header `width height resolution_m
    origin_x_m origin_y_m scan_count`, then row-major little-endian
    complex64 (re, im interleaved)."""
    grid = sar.grid
    with open(path, "wb") as fh:
        fh.write(f"{grid.width_px} {grid.height_px} {grid.resolution_m!r} "
                 f"{grid.origin_m[0]!r} {grid.origin_m[1]!r} {sar.scan_count}\n".encode())
        fh.write(np.asarray(sar.pixels, dtype="<c8").tobytes())


@names_its_file
def read_sar_dump(path) -> SarImage:
    with open(path, "rb") as fh:
        header = fh.readline().split()
        if len(header) != 6:
            raise ValueError(
                f"{path}: expected 'width height resolution_m ox oy scan_count' header")
        width, height = _header_size(header)
        resolution = float(header[2])
        origin = (float(header[3]), float(header[4]))
        scan_count = int(header[5])
        payload = fh.read()
    expect = width * height * 8
    if len(payload) != expect:
        raise ValueError(f"{path}: payload is {len(payload)} bytes, expected {expect}")
    if not np.all(np.isfinite(np.frombuffer(payload, dtype="<f4"))):
        raise ValueError(f"{path}: non-finite pixel values")
    pixels = np.frombuffer(payload, dtype="<c8").reshape(height, width)
    grid = ImageGrid(width, height, resolution, origin)
    return SarImage(grid, pixels.astype(np.complex128), scan_count)
