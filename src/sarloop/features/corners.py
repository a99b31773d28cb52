"""Segment-test corner detection on a bilinear image pyramid.

Detection front end shared by both descriptors: a pixel is a corner when
an arc of at least 9 contiguous pixels on its radius-3 Bresenham circle is
uniformly brighter (or darker) than the center by more than the threshold.
The corner score is the largest threshold that still passes, which makes
``score > threshold`` and the segment test the same predicate. A radar map
is mostly flat background, where no 7x7 window holds that contrast, so only
the ``TILE_PX`` tiles of a level whose windows read base pixels that span
the threshold are resampled, tested and suppressed: the corners, and the
pixels that descriptors read around them, keep a whole-level run's bits.
Both detectors share the keypoint loop, ``describe_keypoints``, and inside
a ``SharedFrontEnds`` scope one pyramid and corner list per image.
Descriptors read their samples through ``smoothed_at``, which sums each
sample the way ``ndimage.convolve1d`` sums a symmetric kernel.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..imgpost import GrayImage, reflect_index, shifted, symmetric_sum
from .base import DetectorConfig, FeatureSet, require_min_size

if TYPE_CHECKING:
    from ..runconfig import RunConfig

# Radius-3 circle, 16 pixels, starting at the top and walking clockwise so
# list adjacency equals geometric adjacency (rows grow downward).
CIRCLE_OFFSETS = (
    (-3, 0), (-3, 1), (-2, 2), (-1, 3), (0, 3), (1, 3), (2, 2), (3, 1),
    (3, 0), (3, -1), (2, -2), (1, -3), (0, -3), (-1, -3), (-2, -2), (-3, -1),
)
ARC_LENGTH = 9
SEGMENT_ROWS = 64  # rows segment-tested at a time
SCALE_STEP = 1.2
TILE_PX = 32  # a level is segment-tested in these tiles, each whole or not at all
BASE_TILE_PX = 8  # the base's extrema are taken once per tile of this side
READ_REACH_PX = 21  # farthest level pixel from its corner that a describe reads


def axis_taps(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per output index of a pixel-center-aligned bilinear resize along one
    axis: the two input indices it reads and the float32 weight of the second."""
    pos = np.clip((np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5, 0, n_in - 1)
    lo = np.floor(pos).astype(np.intp)
    return lo, np.minimum(lo + 1, n_in - 1), (pos - lo).astype(np.float32)


def resample_block(src: np.ndarray, rows: tuple, cols: tuple) -> np.ndarray:
    """The float32 bilinear resample of ``src`` at ascending ``axis_taps`` rows x
    cols: columns on each input row they reach, then rows. Each output pixel
    takes the same float32 operations in any block, so blocks tile a resize."""
    (r0, r1, fr), (c0, c1, fc) = rows, cols
    band = src[r0[0]:r1[-1] + 1]
    across = band[:, c0].astype(np.float32) * (1 - fc) + band[:, c1].astype(np.float32) * fc
    return across[r0 - r0[0]] * (1 - fr[:, None]) + across[r1 - r0[0]] * fr[:, None]


def _over_footprints(ext: np.ndarray, taps: tuple, reduce) -> np.ndarray:
    """``reduce`` (``np.minimum`` or ``np.maximum``) of the base tiles' ``ext`` over
    those that each level tile's 7x7 windows read, given the level's ``axis_taps``."""
    for axis, (lo, hi, _) in enumerate(taps):
        starts = np.arange(0, len(lo), TILE_PX)
        first = lo[np.maximum(starts - 3, 0)] // BASE_TILE_PX
        last = hi[np.minimum(starts + TILE_PX + 2, len(lo) - 1)] // BASE_TILE_PX
        out = np.take(ext, first, axis)
        for step in range(1, int((last - first).max()) + 1):
            reduce(out, np.take(ext, np.minimum(first + step, last), axis), out=out)
        ext = out
    return ext


def _tile_runs(tiles: np.ndarray) -> list[tuple[int, int, int, int]]:
    """``(y0, y1, x0, x1)`` of each run of set tiles along a row of the
    ``TILE_PX`` grid ``tiles``; y1 and x1 may pass the level's edge."""
    edges = np.diff(np.pad(tiles, ((0, 0), (1, 1))).view(np.int8), axis=1)
    (rows, starts), (_, stops) = np.nonzero(edges == 1), np.nonzero(edges == -1)
    return [(a * TILE_PX, a * TILE_PX + TILE_PX, x0 * TILE_PX, x1 * TILE_PX)
            for a, x0, x1 in zip(rows.tolist(), starts.tolist(), stops.tolist())]


def build_pyramid(pixels: np.ndarray, n_octaves: int, threshold: float) -> list[tuple]:
    """Octave images at scales 1.2**-k, each resampled from the base, kept only
    around the ``TILE_PX`` tiles where a segment test at ``threshold`` can fire.
    No level after the base has a short side under 7 px.

    A resampled pixel is a float32 convex combination of base pixels, so a tile
    can fire only if the ``BASE_TILE_PX`` base tiles that its 7x7 windows read
    span the threshold, less a margin for rounding. Each level is its shape and,
    per run of such tiles along a tile row, ``(run, top, left, block)``: the
    run's ``(y0, y1, x0, x1)`` and the level's pixels within ``READ_REACH_PX``
    of it, from (top, left), with the bits of a whole-level resize. On level 0
    they are views of 8-bit ``pixels``, or of float ones cast to float32.
    """
    base = pixels if pixels.dtype == np.uint8 else pixels.astype(np.float32)
    h, w = base.shape
    b = BASE_TILE_PX
    padded = np.pad(base, ((0, -h % b), (0, -w % b)), mode="edge")  # edges add no extremes
    padded = padded.reshape(len(padded) // b, b, -1)
    lo, hi = (ext(ext(padded, axis=1).reshape(len(padded), -1, b), axis=2).astype(np.float64)
              for ext in (np.min, np.max))
    # Two resampling passes and a contrast, rounded in float32 like the threshold,
    # stretch a span by under 2**-20 of (largest |pixel| + threshold). Skipping
    # spans short by 2**-10 of that skips 8-bit spans short by one level or more.
    margin = 2.0 ** -10 * (threshold + max(-lo.min(), hi.max()))
    levels = []
    for k in range(n_octaves):
        s = SCALE_STEP ** k
        oh, ow = round(h / s), round(w / s)
        if k and min(oh, ow) < 7:
            break
        taps = axis_taps(h, oh), axis_taps(w, ow)
        can_fire = (_over_footprints(hi, taps, np.maximum)
                    - _over_footprints(lo, taps, np.minimum)) >= threshold - margin
        blocks = []
        for run in _tile_runs(can_fire):
            ys = slice(max(run[0] - READ_REACH_PX, 0), run[1] + READ_REACH_PX)
            xs = slice(max(run[2] - READ_REACH_PX, 0), run[3] + READ_REACH_PX)
            block = resample_block(base, [t[ys] for t in taps[0]],
                                   [t[xs] for t in taps[1]]) if k else base[ys, xs]
            blocks.append((run, ys.start, xs.start, block))
        levels.append(((oh, ow), blocks))
    return levels


def segment_test_scores(pixels: np.ndarray, threshold: float) -> np.ndarray:
    """Corner score per pixel (0 where the segment test fails).

    The score is max over the 16 candidate 9-long arcs of the arc's weakest
    contrast against the center, evaluated for the brighter and darker cases
    separately; a pixel is a corner exactly when the score exceeds the
    threshold. All 16 arcs' weakest contrasts are one running minimum over
    the 16 contrasts of the circle shifted by 0 to 8 places, wrapping around.
    Any 9-long arc covers at least 2 of the 4 compass pixels (circle indices
    0, 4, 8, 12), so only pixels where 2 compass contrasts pass the threshold
    with one sign are scored. Rows are tested ``SEGMENT_ROWS`` at a time, each
    band read with the circle's 3 rows on either side.
    """
    img = np.asarray(pixels, dtype=np.float32)
    h, w = img.shape
    scores = np.zeros((h, w), dtype=np.float32)
    if h < 7 or w < 7:
        return scores
    offsets = np.asarray(CIRCLE_OFFSETS)
    for top in range(3, h - 3, SEGMENT_ROWS):
        band = img[top - 3:min(top + SEGMENT_ROWS, h - 3) + 3]
        center = band[3:-3, 3:w - 3]
        brighter = np.zeros(center.shape, dtype=np.uint8)
        darker = np.zeros(center.shape, dtype=np.uint8)
        for dr, dc in CIRCLE_OFFSETS[::4]:
            d = band[3 + dr:len(band) - 3 + dr, 3 + dc:w - 3 + dc] - center
            brighter += d > threshold
            darker += d < -threshold
        rows, cols = (i + 3 for i in np.nonzero((brighter >= 2) | (darker >= 2)))
        deltas = band[rows + offsets[:, :1], cols + offsets[:, 1:]] - band[rows, cols]
        ring = np.concatenate([deltas, deltas[:ARC_LENGTH - 1]])
        signed = np.stack([ring, -ring])  # (sign, circle index, pixel), wrapped by 8
        weakest = signed[:, :len(deltas)].copy()  # (sign, start, pixel), a running minimum
        for step in range(1, ARC_LENGTH):
            np.minimum(weakest, signed[:, step:step + len(deltas)], out=weakest)
        score = weakest.max(axis=(0, 1))
        score[score <= threshold] = 0.0
        scores[rows + top - 3, cols] = score
    return scores


def steered_pixels(px: np.ndarray, py: np.ndarray, x: float, y: float,
                   angle: float) -> tuple[np.ndarray, np.ndarray]:
    """The pixels ``(sy, sx)`` of pattern offsets ``(px, py)`` rotated by ``angle``
    about the keypoint (x, y), each coordinate rounded half up."""
    c, s = math.cos(angle), math.sin(angle)
    return (np.floor(s * px + c * py + y + 0.5).astype(np.intp),
            np.floor(c * px - s * py + x + 0.5).astype(np.intp))


def smoothed_at(level: np.ndarray, kernel: np.ndarray, sy: np.ndarray,
                sx: np.ndarray) -> np.ndarray:
    """``level`` smoothed by ``kernel`` down the columns then along the rows,
    with reflected edges, evaluated only at the points (sy, sx) of the level.

    ``kernel`` is one kernel for every point, which smooths the points' bounding
    box padded by its radius r, or a ``(2r + 1, n_points)`` table of one kernel
    per point, each centered and padded with NaN to the longest, which sums
    only each point's own (2r + 1)**2 pixels. Either way ``symmetric_sum`` adds
    them, so each value has the bits of two reflect-mode ``ndimage.convolve1d``
    passes over the whole level. That holds only for a kernel of odd length
    that equals its reverse; any other is refused. Sums are float64; with
    integer weights they are exact only on an integer-valued level, i.e. level
    0 of an integer image, where a uniform brightness offset then shifts every
    response equally. Resampled levels round.
    """
    taps = np.asarray(kernel, dtype=np.float64)
    same = taps == taps[::-1]
    if taps.ndim > 1:
        same |= np.isnan(taps)  # a table pads its shorter kernels with NaN
    if len(taps) % 2 == 0 or not same.all():
        raise ValueError("smoothing kernels must have odd length and equal their reverse")
    r = len(taps) // 2
    h, w = level.shape
    r0, r1 = int(sy.min()) - r, int(sy.max()) + r + 1
    c0, c1 = int(sx.min()) - r, int(sx.max()) + r + 1
    if 0 <= r0 and r1 <= h and 0 <= c0 and c1 <= w:  # the points' box, padded by r
        window = level[r0:r1, c0:c1]
    else:  # a box past an edge reads reflected pixels
        window = level[np.ix_(reflect_index(np.arange(r0, r1), h),
                              reflect_index(np.arange(c0, c1), w))]
    ys, xs = sy - (r0 + r), sx - (c0 + r)
    if taps.ndim == 1:  # one kernel: smooth the whole box
        window = window.astype(np.float64, order="C")
        down = symmetric_sum(shifted(window, r, 0), taps)
        return symmetric_sum(shifted(down, r, 1), taps)[ys, xs]
    # one kernel per point: sum each point's own (2r + 1)**2 pixels, no more
    k = 2 * r + 1
    # blocks[i, j]: the k x k pixels from (i, j), a view made by the ndarray
    # constructor and not by as_strided, which goes through an __array_interface__
    # dict whose keys numpy interns anew per call: at a call per keypoint, the
    # interpreter's interned-string table filled with dead entries and was rebuilt
    # (a fresh 0.9 MB block) every few dozen images.
    box = np.ascontiguousarray(window)
    blocks = np.ndarray((box.shape[0] - 2 * r, box.shape[1] - 2 * r, k, k), box.dtype, box,
                        strides=box.strides * 2)
    # patch[p, a, b] is point p's pixel at offset (a - r, b - r); taps lead in (a, b, p)
    patch = np.array(blocks[ys.ravel(), xs.ravel()].transpose(1, 2, 0), np.float64, order="C")
    return symmetric_sum(symmetric_sum(patch, taps), taps).reshape(np.shape(sy))


def detect_corners(levels: list[tuple], run: RunConfig) -> list[tuple]:
    """Segment-test the blocks of each octave at ``run.corner_threshold``,
    suppress, rank, and keep the ``run.target_keypoints`` strongest.

    A block's run is tested as one window, read 4 px beyond it so that the run
    and its 1 px ring score as in the whole level. Each corner is ``(score,
    octave, row, col, block)`` at the integer pixel of its level where the test
    fired, with the index of its block; the strongest come first, ties broken
    by octave, row and col.
    """
    found = []
    for octave, ((h, w), blocks) in enumerate(levels):
        for index, ((y0, y1, x0, x1), top, left, block) in enumerate(blocks):
            y, x = max(y0 - 4, 0), max(x0 - 4, 0)
            scores = segment_test_scores(block[y - top:y1 + 4 - top, x - left:x1 + 4 - left],
                                         run.corner_threshold)
            # only pixels 3 px inside the level can score
            r0, r1, c0, c1 = max(y0, 3) - y, min(y1, h - 3) - y, max(x0, 3) - x, min(x1, w - 3) - x
            center = scores[r0:r1, c0:c1]
            best = np.maximum.reduce([scores[r0 + dr:r1 + dr, c0 + dc:c1 + dc]
                                      for dr in (-1, 0, 1) for dc in (-1, 0, 1)])
            rows, cols = np.nonzero((center > 0) & (center == best))
            found += zip(center[rows, cols].tolist(), [octave] * len(rows),
                         (rows + r0 + y).tolist(), (cols + c0 + x).tolist(), [index] * len(rows))
    found.sort(key=lambda corner: (-corner[0], *corner[1:]))
    return found[:run.target_keypoints]


_SCOPES: list[dict] = []  # front ends of each open SharedFrontEnds, innermost last


class SharedFrontEnds:
    """Until left, ``describe_keypoints`` shares each image's front end."""

    def __enter__(self):
        _SCOPES.append({})

    def __exit__(self, *exc):
        _SCOPES.pop()


def describe_keypoints(img: GrayImage, cfg: DetectorConfig, detector_id: str,
                       margin_px: int, descriptor_bits: int, describe) -> FeatureSet:
    """Describe the image's ranked corners, each on its own pyramid level.

    The pyramid depth, threshold and cap are ``cfg.run``'s front-end keys;
    in a ``SharedFrontEnds`` scope, detectors whose run configs agree on them
    share one pyramid and corner list. Corners closer than ``margin_px`` to
    their level's edge are dropped; ``describe(block, col, row)`` returns the
    angle and packed descriptor of each other corner from its level's block,
    at its pixel (col, row) of the block. Each keypoint row holds that pixel
    of the level scaled up to the base image, the corner score, the angle and
    the octave.
    """
    require_min_size(img.pixels.shape)
    memo = _SCOPES[-1] if _SCOPES else {}
    run = cfg.run
    key = (id(img.pixels), run.corner_threshold, run.n_octaves, run.target_keypoints)
    if key not in memo:  # one per (threshold, octaves, cap); holding the pixels keeps their id
        levels = build_pyramid(img.pixels, run.n_octaves, run.corner_threshold)
        memo[key] = img.pixels, levels, detect_corners(levels, run)
    _, levels, corners = memo[key]
    kept, descs = [], []
    for score, octave, row, col, index in corners:
        (h, w), blocks = levels[octave]
        if not (margin_px <= col <= w - 1 - margin_px and margin_px <= row <= h - 1 - margin_px):
            continue
        _, top, left, block = blocks[index]  # holds every pixel a describe reads
        angle, bits = describe(block, col - left, row - top)
        scale = SCALE_STEP ** octave
        kept.append(((col * scale, row * scale), score, angle, octave))
        descs.append(bits)
    desc = np.vstack(descs) if descs else np.empty((0, descriptor_bits // 8), np.uint8)
    return FeatureSet(detector_id, kept, desc, img.resolution_m)


def orientation_centroid(pixels: np.ndarray, x: float, y: float, radius_px: int) -> float:
    """Dominant direction from intensity moments on a circular patch at (x, y).

    Returns atan2(m01, m10); a patch with zero first moments (radially
    symmetric or empty) reports angle 0. The radius is clamped so the disc
    stays inside the image.
    """
    h, w = pixels.shape
    cx = int(math.floor(x + 0.5))
    cy = int(math.floor(y + 0.5))
    r = min(radius_px, cx, cy, w - 1 - cx, h - 1 - cy)
    if r < 1:
        return 0.0
    dy, dx = np.mgrid[-r:r + 1, -r:r + 1]
    disc = (dx * dx + dy * dy) <= r * r
    patch = pixels[cy - r:cy + r + 1, cx - r:cx + r + 1].astype(np.float64)
    m10 = float((patch * dx)[disc].sum())
    m01 = float((patch * dy)[disc].sum())
    if m10 == 0.0 and m01 == 0.0:
        return 0.0
    return math.atan2(m01, m10)

