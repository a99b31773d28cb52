"""Post-processing of complex SAR images into feature-ready 8-bit maps.

Pipeline: positive_image (real + magnitude, kills negative fringes) ->
gaussian_blur -> quantize to 8 bits. Also holds the occupancy-map accuracy
metric and the image file formats (binary PGM and the complex SAR dump).
A dump is read in one call, from a file or a pipe, as a view of the complex64
pixels it stores, and no step makes a full-grid copy it does not need: complex
pixels are widened and written in bands of ``BAND_ROWS`` rows, and
``quantize`` scales and floors one copy of the pixels in place.
A PGM is read in one pass, its header matched by one pattern and its pixels
a view of the file's bytes, and written from the pixels' own buffer.

Smoothing (``gaussian_blur`` here, and the descriptors' point smoothing) is
``symmetric_sum``: it gives ``scipy.ndimage``'s bytes for an odd-length
symmetric kernel with ``mode="reflect"``, because it sums in the order
``ndimage.correlate1d`` sums such a kernel. That order is the center sample
times its weight, then ``(left + right) * weight`` pair by pair, outer pair first.
"""

from __future__ import annotations

import math
import os
import re
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backprojection import ImageGrid, SarImage
from .fileerrors import names_its_file

BAND_ROWS = 64  # rows widened or written at a time: few enough that a band stays in cache
BLUR_ROWS = 16  # rows blurred at a time, through a buffer made once per image

# Netpbm's P5 header: whitespace and "#" comment lines may precede width, height and maxval,
# each a token that ends at whitespace, and one whitespace byte ends it unless the file ends.
_PGM_HEADER = re.compile(rb"P5" + rb"((?:\s|#[^\n]*\n)*)([^\s#]\S*)(?!\S)" * 3 + rb"\s?")


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
    scatterers are suppressed instead of ringing. Pixels are widened to complex128
    ``BAND_ROWS`` rows at a time: complex64 ones give their complex128 copy's bits.
    """
    out = np.empty(sar.pixels.shape, dtype=np.float64)
    for start in range(0, len(out), BAND_ROWS):
        band = sar.pixels[start:start + BAND_ROWS].astype(np.complex128, copy=False)
        np.add(band.real, np.abs(band), out=out[start:start + BAND_ROWS])
    return GrayImage(out, sar.grid.resolution_m)


def _check_blur_radius(sigma_px: float, shape: tuple[int, ...]) -> None:
    """Refuse a kernel radius longer than the longer side of an image of ``shape``."""
    side = max(shape)
    if not 3.0 * sigma_px <= side:  # compared as floats, so 1e308 cannot overflow
        raise ValueError(f"blur_sigma_px={sigma_px!r} gives a kernel radius (3 sigma) "
                         f"longer than the image's longer side ({side} px)")


def reflect_index(index, n: int) -> np.ndarray:
    """Where ``index`` falls on an axis of ``n`` samples extended by half-sample
    reflection (``d c b a | a b c d | d c b a``), at any distance: ndimage's
    ``mode="reflect"``."""
    m = np.mod(index, 2 * n)
    return np.where(m < n, m, 2 * n - 1 - m)


def symmetric_sum(taps: np.ndarray, weights: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Weighted sum over the leading axis of the 2r + 1 ``taps`` with the
    symmetric ``weights``, summed as ``ndimage.correlate1d`` sums a symmetric
    kernel: the center tap times its weight, then ``(left + right) * weight``
    pair by pair, outer pair first.

    ``weights`` is one kernel, or a ``(2r + 1, ...)`` table whose trailing shape
    broadcasts against a tap: one kernel per output sample. In a table, a NaN
    pair of weights (a shorter kernel's padding) adds -0.0, which leaves every
    sum as it is. All r pair terms are formed at once.
    """
    r = len(taps) // 2
    w = weights.reshape(len(weights), *[1] * (taps.ndim - weights.ndim), *weights.shape[1:])
    out = np.multiply(taps[r], w[r], out=out)
    pairs = np.add(taps[:r], taps[2 * r:r:-1])
    pairs *= w[:r]
    if weights.ndim > 1:
        np.copyto(pairs, -0.0, where=np.isnan(w[:r]))
    for term in pairs:
        out += term
    return out


def shifted(ext: np.ndarray, r: int, axis: int) -> np.ndarray:
    """The 2r + 1 views of the C-contiguous ``ext`` shifted by 0..2r along
    ``axis``, each 2r shorter there: the taps of a correlation of ``ext``
    extended by r at both ends."""
    shape = list(ext.shape)
    shape[axis] -= 2 * r
    return np.ndarray((2 * r + 1, *shape), ext.dtype, ext, 0,
                      (ext.strides[axis], *ext.strides))


def gaussian_blur(img: GrayImage, sigma_px: float = 1.0) -> GrayImage:
    """Separable Gaussian smoothing with reflected edges: the bytes of
    ``ndimage.gaussian_filter(pixels, sigma_px, mode="reflect", radius=r)``.

    Kernel radius r is ceil(3*sigma), and a radius longer than the image's
    longer side is refused before any filtering. A sigma of at most 1e-15 (0
    included) returns the image unchanged, as ndimage leaves such an axis. Each
    band of ``BLUR_ROWS`` output rows is summed by ``symmetric_sum`` down the
    columns into a buffer made once per image, then along the rows.
    """
    if sigma_px < 0:
        raise ValueError(f"sigma_px must be >= 0, got {sigma_px}")
    if sigma_px <= 1e-15:
        return img
    _check_blur_radius(sigma_px, img.pixels.shape)
    src = np.ascontiguousarray(img.pixels, dtype=np.float64)
    h, w = src.shape
    r = int(math.ceil(3.0 * sigma_px))
    x = np.arange(-r, r + 1)
    kernel = np.exp(-0.5 / (sigma_px * sigma_px) * x ** 2)  # ndimage's Gaussian weights
    kernel = kernel / kernel.sum()
    left, right = reflect_index(np.arange(-r, 0), w) + r, reflect_index(np.arange(w, w + r), w) + r
    out = np.empty((h, w), dtype=np.float64)
    down = np.empty((BLUR_ROWS, w + 2 * r))  # a band summed down the columns, rows extended
    for start in range(0, h, BLUR_ROWS):
        stop = min(start + BLUR_ROWS, h)
        n = stop - start
        if start >= r and stop + r <= h:
            rows = src[start - r:stop + r]
        else:
            rows = src[reflect_index(np.arange(start - r, stop + r), h)]
        band = down[:n]
        symmetric_sum(shifted(rows, r, 0), kernel, band[:, r:r + w])
        band[:, :r], band[:, r + w:] = band[:, left], band[:, right]
        symmetric_sum(shifted(band, r, 1), kernel, out[start:stop])
    return GrayImage(out, img.resolution_m)


def quantize(img: GrayImage) -> GrayImage:
    """Affine rescale to 8 bits: min -> 0, max -> 255, round half up.

    A constant image has no contrast to stretch and quantizes to all zeros.
    """
    px = np.asarray(img.pixels, dtype=np.float64)
    lo, hi = float(px.min()), float(px.max())
    if hi == lo:
        levels = np.zeros(px.shape, dtype=np.uint8)
    else:
        scaled = np.subtract(px, lo)
        scaled *= 255.0 / (hi - lo)
        scaled += 0.5
        levels = np.floor(scaled, out=scaled).astype(np.uint8)
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
    header = f"P5\n# resolution_m {img.resolution_m!r}\n"
    if origin_m is not None:
        header += f"# origin_m {float(origin_m[0])!r} {float(origin_m[1])!r}\n"
    with open(path, "wb") as fh:
        fh.write(f"{header}{img.width_px} {img.height_px}\n255\n".encode())
        fh.write(np.ascontiguousarray(img.pixels))


@names_its_file
def read_pgm(path) -> tuple[GrayImage, tuple[float, float] | None]:
    """Read a P5 PGM with its ``# resolution_m`` comment and, when present,
    its ``# origin_m`` comment; a file without a pixel size is refused. The file
    is read once, and the pixels are a writable view of its bytes."""
    with open(path, "rb") as fh:
        data = bytearray(os.fstat(fh.fileno()).st_size)
        del data[fh.readinto(data):]  # less is read if the file shrinks meanwhile
        data += fh.read()  # a pipe has no size, and a file may grow meanwhile
    if not data.startswith(b"P5"):
        raise ValueError("not a binary (P5) PGM")
    header = _PGM_HEADER.match(data)
    if header is None:
        raise ValueError("truncated PGM header")
    resolution = origin = None
    for comment in re.findall(rb"#(.*)", b"".join(header.group(1, 3, 5))):
        words = comment.split()
        if words[:1] == [b"resolution_m"] and len(words) == 2:
            resolution = float(words[1])
        elif words[:1] == [b"origin_m"] and len(words) == 3:
            origin = (float(words[1]), float(words[2]))
    width, height = _header_size(header.group(2, 4))
    maxval = int(header[6])
    if origin is not None and not all(map(math.isfinite, origin)):
        raise ValueError(f"non-finite origin {origin}")
    if maxval != 255:
        raise ValueError(f"unsupported maxval {maxval}")
    if resolution is None:
        raise ValueError("no '# resolution_m' comment, so the pixel size is unknown")
    start, count = header.end(), width * height
    if len(data) - start < count:
        raise ValueError(f"raster truncated ({len(data) - start} of {count} bytes)")
    pixels = np.frombuffer(data, np.uint8, count, start).reshape(height, width)
    return GrayImage(pixels, resolution), origin


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


def write_sar_dump(sar: SarImage, path) -> None:
    """Complex SAR intermediate: ASCII header `width height resolution_m
    origin_x_m origin_y_m scan_count`, then row-major little-endian
    complex64 (re, im interleaved), written ``BAND_ROWS`` rows at a time
    by ``write_sar_bands``."""
    bands = (sar.pixels[start:start + BAND_ROWS]
             for start in range(0, sar.grid.height_px, BAND_ROWS))
    write_sar_bands(sar.grid, sar.scan_count, bands, path)


def write_sar_bands(grid: ImageGrid, scan_count: int, bands: Iterable[np.ndarray],
                    path) -> None:
    """The ``write_sar_dump`` file of an image that ``bands`` gives as row bands,
    from the top row down, each cast to complex64 (and C order) as it is written."""
    with open(path, "wb") as fh:
        fh.write(f"{grid.width_px} {grid.height_px} {grid.resolution_m!r} "
                 f"{grid.origin_m[0]!r} {grid.origin_m[1]!r} {scan_count}\n".encode())
        for band in bands:
            fh.write(np.ascontiguousarray(band, dtype="<c8"))


@names_its_file
def read_sar_dump(path) -> SarImage:
    """The ``SarImage`` of a ``write_sar_dump`` file or pipe, read in one call: its
    complex64 pixels are a read-only view of the file's bytes, and a payload of the
    wrong length is refused with no pixel allocated for the header's claim."""
    data = Path(path).read_bytes()
    start = data.find(b"\n") + 1 or len(data)  # no newline: the whole file is the header
    header = data[:start].split()
    if len(header) != 6:
        raise ValueError("expected 'width height resolution_m ox oy scan_count' header")
    width, height = _header_size(header)
    resolution = float(header[2])
    origin = (float(header[3]), float(header[4]))
    scan_count = int(header[5])
    size, expect = len(data) - start, width * height * 8
    if size != expect:
        raise ValueError(f"payload is {size} bytes, expected {expect}")
    pixels = np.frombuffer(data, "<c8", width * height, start).reshape(height, width)
    if not np.isfinite(pixels.view("<f4")).all():
        raise ValueError("non-finite pixel values")
    grid = ImageGrid(width, height, resolution, origin)
    return SarImage(grid, pixels, scan_count)
