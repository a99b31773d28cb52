"""Segment-test corner detection on a bilinear image pyramid.

Detection front end shared by both descriptors: a pixel is a corner when
an arc of at least 9 contiguous pixels on its radius-3 Bresenham circle is
uniformly brighter (or darker) than the center by more than the threshold.
The corner score is the largest threshold that still passes, which makes
``score > threshold`` and the segment test the same predicate. Both
detectors also share the keypoint loop, ``describe_keypoints``, and inside a
``SharedFrontEnds`` scope one pyramid and corner list per image.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np
from scipy import ndimage

from ..imgpost import GrayImage
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
    threshold. Any 9-long arc covers at least 2 of the 4 compass pixels
    (circle indices 0, 4, 8, 12), so only pixels where 2 compass contrasts
    pass the threshold with one sign are scored.
    """
    img = np.asarray(pixels, dtype=np.float32)
    h, w = img.shape
    scores = np.zeros((h, w), dtype=np.float32)
    if h < 7 or w < 7:
        return scores
    center = img[3:h - 3, 3:w - 3]
    brighter = np.zeros(center.shape, dtype=np.uint8)
    darker = np.zeros(center.shape, dtype=np.uint8)
    for dr, dc in CIRCLE_OFFSETS[::4]:
        d = img[3 + dr:h - 3 + dr, 3 + dc:w - 3 + dc] - center
        brighter += d > threshold
        darker += d < -threshold
    rows, cols = (i + 3 for i in np.nonzero((brighter >= 2) | (darker >= 2)))
    offsets = np.asarray(CIRCLE_OFFSETS)
    deltas = img[rows + offsets[:, :1], cols + offsets[:, 1:]] - img[rows, cols]
    ring = np.concatenate([deltas, deltas[:ARC_LENGTH - 1]])
    # (sign, start, pixel, step): both signs' arcs from all 16 starts.
    arcs = np.lib.stride_tricks.sliding_window_view(
        np.stack([ring, -ring]), ARC_LENGTH, axis=1)
    score = arcs.min(axis=-1).max(axis=(0, 1))
    score[score <= threshold] = 0.0
    scores[rows, cols] = score
    return scores


def smoothed_at(level: np.ndarray, kernel: np.ndarray, sy: np.ndarray,
                sx: np.ndarray) -> np.ndarray:
    """``level`` smoothed by ``kernel`` along rows then columns, at (sy, sx).

    The two reflect-mode ``ndimage.convolve1d`` passes run only on the
    points' bounding box padded by the kernel radius and clipped to the
    level (points must lie inside it). Each box pixel reads the same inputs
    in the same order as on the full image, and a clipped side is the image
    edge, so the values equal full-image smoothing bit for bit. Sums are
    float64; with integer weights they are exact only on an integer-valued
    level, i.e. level 0 of an integer image, where a uniform brightness
    offset then shifts every response equally. Resampled levels round.
    """
    r = len(kernel) // 2
    h, w = level.shape
    r0, r1 = max(int(sy.min()) - r, 0), min(int(sy.max()) + r + 1, h)
    c0, c1 = max(int(sx.min()) - r, 0), min(int(sx.max()) + r + 1, w)
    window = np.asarray(level[r0:r1, c0:c1], dtype=np.float64)
    rows = ndimage.convolve1d(window, kernel, axis=0, mode="reflect")
    smoothed = ndimage.convolve1d(rows, kernel, axis=1, mode="reflect")
    return smoothed[sy - r0, sx - c0]


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
    require_min_size(img.pixels)
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

