"""Segment-test corner detection on a bilinear image pyramid.

Detection front end shared by both descriptors: a pixel is a corner when
an arc of at least 9 contiguous pixels on its radius-3 Bresenham circle is
uniformly brighter (or darker) than the center by more than the threshold.
The corner score is the largest threshold that still passes, which makes
``score > threshold`` and the segment test the same predicate. Each level is
tested in bands of ``SEGMENT_ROWS`` rows, so a level allocates its score array
and temporaries the size of a band. Both detectors also share the keypoint
loop, ``describe_keypoints``, and inside a ``SharedFrontEnds`` scope one
pyramid and corner list per image.
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


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resample with pixel-center alignment; output is float32."""
    src = np.asarray(img, dtype=np.float32)
    in_h, in_w = src.shape
    rows = np.clip((np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5, 0, in_h - 1)
    cols = np.clip((np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5, 0, in_w - 1)
    r0 = np.floor(rows).astype(np.intp)
    c0 = np.floor(cols).astype(np.intp)
    r1 = np.minimum(r0 + 1, in_h - 1)
    c1 = np.minimum(c0 + 1, in_w - 1)
    fr = (rows - r0).astype(np.float32)[:, None]
    fc = (cols - c0).astype(np.float32)[None, :]
    # Columns on every input row, then rows: the four-corner form's float32 ops.
    across = src[:, c0] * (1 - fc) + src[:, c1] * fc
    return across[r0] * (1 - fr) + across[r1] * fr


def build_pyramid(pixels: np.ndarray, n_octaves: int) -> list[np.ndarray]:
    """Octave images at scales 1.2**-k, each resampled from the base; no level
    after the base has a short side under the segment test's 7 px."""
    base = np.asarray(pixels, dtype=np.float32)
    levels = [base]
    h, w = base.shape
    for k in range(1, n_octaves):
        s = SCALE_STEP ** k
        oh, ow = round(h / s), round(w / s)
        if min(oh, ow) < 7:
            break
        levels.append(bilinear_resize(base, oh, ow))
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


def _nms_peaks(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row/col indices of 3x3 local maxima among positive scores. Neighbours
    are clipped to the image, as zero padding never beats a positive score."""
    rows, cols = np.nonzero(scores > 0)
    dr, dc = np.mgrid[-1:2, -1:2].reshape(2, 1, 9)
    h, w = scores.shape
    around = scores[np.clip(rows[:, None] + dr, 0, h - 1), np.clip(cols[:, None] + dc, 0, w - 1)]
    keep = scores[rows, cols] == around.max(axis=1)
    return rows[keep], cols[keep]


def detect_on_levels(levels: list[np.ndarray],
                     run: RunConfig) -> list[tuple[float, int, int, int]]:
    """Run the segment test per octave at ``run.corner_threshold``, suppress,
    rank, and keep the ``run.target_keypoints`` strongest.

    Each corner is ``(score, octave, row, col)`` at the integer pixel of its
    level where the test fired; the strongest come first, ties broken by
    octave, row and col.
    """
    found = []
    for octave, img in enumerate(levels):
        scores = segment_test_scores(img, run.corner_threshold)
        rows, cols = _nms_peaks(scores)
        found += zip(scores[rows, cols].tolist(), [octave] * len(rows),
                     rows.tolist(), cols.tolist())
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
    their level's edge are dropped; ``describe(level, col, row)`` returns the
    angle and packed descriptor of each other corner at its level pixel. Each
    keypoint row holds that pixel scaled up to the base image, the corner
    score, the angle and the octave.
    """
    require_min_size(img.pixels.shape)
    memo = _SCOPES[-1] if _SCOPES else {}
    run = cfg.run
    key = (id(img.pixels), run.corner_threshold, run.n_octaves, run.target_keypoints)
    if key not in memo:  # one per (threshold, octaves, cap); holding the pixels keeps their id
        levels = build_pyramid(img.pixels, run.n_octaves)
        memo[key] = img.pixels, levels, detect_on_levels(levels, run)
    _, levels, corners = memo[key]
    kept, descs = [], []
    for score, octave, row, col in corners:
        level = levels[octave]
        h, w = level.shape
        if not (margin_px <= col <= w - 1 - margin_px and margin_px <= row <= h - 1 - margin_px):
            continue
        angle, bits = describe(level, col, row)
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

