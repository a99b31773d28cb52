"""Post-processing of complex SAR images into feature-ready 8-bit maps.

Pipeline: positive_image (real + magnitude, kills negative fringes) ->
gaussian_blur -> quantize to 8 bits. Also holds the occupancy-map accuracy
metric and the image file formats (binary PGM and the complex SAR dump).
Each step also works on row bands, from the top row down, which is how
``sarloop post`` runs it: ``sar_dump_bands`` reads a dump in sequence, from a
file or a pipe, ``BAND_ROWS`` rows at a time; ``positive_pixels`` widens a band
to complex128; ``blur_bands`` blurs the rows as they arrive, holding only r
halo rows on either side; and ``quantize_bands`` scales the blurred bands in
place. So ``post`` holds one float64 grid and its 8-bit map, and no complex one.
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
import stat
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .backprojection import ImageGrid, SarImage
from .fileerrors import names_its_file, naming

BAND_ROWS = 16  # rows read, widened, blurred or written at a time: a band stays in cache
# bytes of pair terms a smoothing sum forms at a time: few enough to stay in cache, with
# a descriptor's per-point table (about 100 KB) still one chunk
PAIR_BYTES = 1 << 18

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
    scatterers are suppressed instead of ringing.
    """
    return GrayImage(positive_pixels(sar.pixels), sar.grid.resolution_m)


def positive_pixels(pixels: np.ndarray) -> np.ndarray:
    """``positive_image`` of complex pixels, widened to complex128 ``BAND_ROWS`` rows
    at a time: complex64 ones give the bits of their complex128 copy without that copy."""
    out = np.empty(pixels.shape, dtype=np.float64)
    for start in range(0, len(out), BAND_ROWS):
        band = pixels[start:start + BAND_ROWS].astype(np.complex128, copy=False)
        np.add(band.real, np.abs(band), out=out[start:start + BAND_ROWS])
    return out


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
    sum as it is. Pair terms are formed ``PAIR_BYTES`` at a time, at least one.
    """
    r = len(taps) // 2
    w = weights.reshape(len(weights), *[1] * (taps.ndim - weights.ndim), *weights.shape[1:])
    out = np.multiply(taps[r], w[r], out=out)
    step = max(1, PAIR_BYTES // max(out.nbytes, 1))
    for lo in range(0, r, step):
        hi = min(lo + step, r)
        pairs = np.add(taps[lo:hi], taps[2 * r - lo:2 * r - hi:-1])
        pairs *= w[lo:hi]
        if weights.ndim > 1:
            np.copyto(pairs, -0.0, where=np.isnan(w[lo:hi]))
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
    included) returns the image unchanged, as ndimage leaves such an axis.
    """
    if 0 <= sigma_px <= 1e-15:
        return img
    src = np.ascontiguousarray(img.pixels, dtype=np.float64)
    out = np.empty(src.shape)
    for _ in blur_bands([src], src.shape, sigma_px, out):
        pass
    return GrayImage(out, img.resolution_m)


def blur_bands(bands: Iterable[np.ndarray], shape: tuple[int, int], sigma_px: float,
               out: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """``gaussian_blur`` of the float64 image of ``shape`` that ``bands`` gives as
    C-contiguous row bands, from the top row down, yielded ``BAND_ROWS`` rows at a
    time (views of ``out`` if given). Bands are read as their rows are needed, and
    rows are let go once no later band reads them. Each band is summed down the
    columns into a buffer made once per image, then along the rows. A sigma of at
    most 1e-15 yields ``bands`` as they are."""
    if sigma_px < 0:
        raise ValueError(f"sigma_px must be >= 0, got {sigma_px}")
    if sigma_px <= 1e-15:
        yield from bands
        return
    _check_blur_radius(sigma_px, shape)
    h, w = shape
    r = int(math.ceil(3.0 * sigma_px))
    x = np.arange(-r, r + 1)
    kernel = np.exp(-0.5 / (sigma_px * sigma_px) * x ** 2)  # ndimage's Gaussian weights
    kernel = kernel / kernel.sum()
    left, right = reflect_index(np.arange(-r, 0), w) + r, reflect_index(np.arange(w, w + r), w) + r
    bands, held, first = iter(bands), np.empty((0, w)), 0  # held[i] is row first + i
    for start in range(0, h, BAND_ROWS):
        stop = min(start + BAND_ROWS, h)
        low = max(start - r, 0)  # the top row that this band or a later one reads
        while first + len(held) < min(stop + r, h):
            kept = held[low - first:]
            held = np.concatenate([kept, next(bands)]) if len(kept) else next(bands)
            first = low
        if start == 0:  # made once a band has arrived: a bad input is refused before it
            down = np.empty((BAND_ROWS, w + 2 * r))  # a band summed down the columns, rows extended
        if start >= r and stop + r <= h:
            rows = held[start - r - first:stop + r - first]
        else:
            rows = held[reflect_index(np.arange(start - r, stop + r), h) - first]
        summed = down[:stop - start]
        symmetric_sum(shifted(rows, r, 0), kernel, summed[:, r:r + w])
        summed[:, :r], summed[:, r + w:] = summed[:, left], summed[:, right]
        yield symmetric_sum(shifted(summed, r, 1), kernel,
                            np.empty((stop - start, w)) if out is None else out[start:stop])


def quantize(img: GrayImage) -> GrayImage:
    """Affine rescale to 8 bits: ``quantize_bands`` of a float64 copy of the pixels."""
    return GrayImage(quantize_bands([np.array(img.pixels, dtype=np.float64)]), img.resolution_m)


def quantize_bands(bands: list[np.ndarray]) -> np.ndarray:
    """The 8-bit levels of the float64 image held as row ``bands``, which are scaled
    in place: min -> 0, max -> 255, round half up. A constant image has no contrast
    to stretch and quantizes to all zeros."""
    lo, hi = min(float(b.min()) for b in bands), max(float(b.max()) for b in bands)
    if hi == lo:
        return np.zeros((sum(map(len, bands)), bands[0].shape[1]), dtype=np.uint8)
    for band in bands:
        band -= lo
        band *= 255.0 / (hi - lo)
        band += 0.5
        np.floor(band, out=band)
    return np.concatenate(bands, dtype=np.uint8, casting="unsafe")


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


def read_sar_dump(path) -> SarImage:
    """The ``SarImage`` of a ``write_sar_dump`` file or pipe: the complex64 bands
    of ``sar_dump_bands`` gathered into one grid."""
    bands = sar_dump_bands(path)
    grid, scan_count = next(bands)
    return SarImage(grid, np.concatenate(list(bands)), scan_count)


def sar_dump_bands(path) -> Iterator:
    """A ``write_sar_dump`` file or pipe read in sequence: its ``(grid, scan_count)``,
    then its complex64 pixels as bands of ``BAND_ROWS`` rows, from the top row
    down, each refused as it is read if a part is not finite. A payload of the
    wrong length is refused before anything the size of the header's claim is made:
    a file's by its size, a pipe's at the band where it ends or, if it is too long,
    by counting the rest before the last band is yielded."""
    with naming(path), open(path, "rb") as fh:
        header = fh.readline().split()  # no newline: the whole file is the header
        if len(header) != 6:
            raise ValueError("expected 'width height resolution_m ox oy scan_count' header")
        width, height = _header_size(header)
        grid = ImageGrid(width, height, float(header[2]), (float(header[3]), float(header[4])))
        scan_count = int(header[5])
        if scan_count < 1:
            raise ValueError(f"scan_count must be >= 1, got {scan_count}")
        expect, row_bytes = width * height * 8, width * 8
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode) and info.st_size - fh.tell() != expect:
            raise ValueError(f"payload is {info.st_size - fh.tell()} bytes, expected {expect}")
        yield grid, scan_count
        for start in range(0, height, BAND_ROWS):
            done, end = start * row_bytes, min(start + BAND_ROWS, height) * row_bytes
            want = end - done
            data = fh.read(min(want, 1 << 20))  # a wide band comes in 1 MB reads, so
            if len(data) == 1 << 20 < want:      # only the bytes that arrived are held
                data = bytearray(data)
                while len(data) < want and (more := fh.read(min(want - len(data), 1 << 20))):
                    data += more
            size = done + len(data)
            if end == expect:  # the last band, yielded only once the payload has ended
                size += sum(map(len, iter(lambda: fh.read(1 << 16), b"")))
            if size != end:
                raise ValueError(f"payload is {size} bytes, expected {expect}")
            band = np.frombuffer(data, "<c8").reshape(-1, width)
            if not np.isfinite(band.view("<f4")).all():
                raise ValueError("non-finite pixel values")
            yield band
