"""Oriented binary descriptor from pairwise intensity comparisons.

256 bits per keypoint: the frozen point-pair pattern is steered by the
keypoint's orientation, both points of each pair are read from a 5x5
box-smoothed image, and the bit is set when the first point is darker
than the second. On level 0 of an integer image the box sums are exact,
so a uniform brightness offset leaves every bit unchanged; resampled
levels round their sums, so the exactness does not carry over to them.
"""

from __future__ import annotations

import math

import numpy as np

from ..imgpost import GrayImage
from .base import (DetectorConfig, FeatureSet, Keypoint, register_detector,
                   require_min_size)
from .corners import (build_pyramid, detect_on_levels, level_coords,
                      orientation_centroid, smoothed_at, with_angle)
from .patterns import PAIR_PATTERN

DESCRIPTOR_BITS = 256
# Pattern offsets reach 13px, times sqrt(2) under rotation, plus the box
# smoothing radius: keypoints closer than this to an edge are dropped.
BORDER_MARGIN_PX = 21
ORIENTATION_RADIUS_PX = 15

_PATTERN = np.asarray(PAIR_PATTERN, dtype=np.float64)  # (256, 4): x1 y1 x2 y2
# 5x5 box as a sum, not a mean: comparisons only care about order.
_BOX = np.ones(5, dtype=np.int64)


def _describe_at(level: np.ndarray, x: float, y: float, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    px = _PATTERN[:, (0, 2)]
    py = _PATTERN[:, (1, 3)]
    sx = np.floor(c * px - s * py + x + 0.5).astype(np.intp)
    sy = np.floor(s * px + c * py + y + 0.5).astype(np.intp)
    vals = smoothed_at(level, _BOX, sy, sx)
    return np.packbits(vals[:, 0] < vals[:, 1])


def _in_margin(x: float, y: float, shape: tuple[int, int]) -> bool:
    h, w = shape
    return (BORDER_MARGIN_PX <= x <= w - 1 - BORDER_MARGIN_PX
            and BORDER_MARGIN_PX <= y <= h - 1 - BORDER_MARGIN_PX)


@register_detector("orb")
def detect_orb(img: GrayImage, cfg: DetectorConfig) -> FeatureSet:
    """Segment-test corners + centroid orientation + steered pair pattern."""
    require_min_size(img.pixels)
    levels = build_pyramid(img.pixels, cfg.n_octaves)
    kept, rows = [], []
    for kp in detect_on_levels(levels, cfg):
        lx, ly = level_coords(kp)
        level = levels[kp.octave]
        if not _in_margin(lx, ly, level.shape):
            continue
        angle = orientation_centroid(level, Keypoint(lx, ly, kp.response),
                                     ORIENTATION_RADIUS_PX)
        kept.append(with_angle(kp, angle))
        rows.append(_describe_at(level, lx, ly, angle))
    desc = np.vstack(rows) if rows else np.empty((0, DESCRIPTOR_BITS // 8), np.uint8)
    return FeatureSet("orb", tuple(kept), desc)
