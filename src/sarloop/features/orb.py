"""Oriented binary descriptor from pairwise intensity comparisons.

256 bits per keypoint: the frozen point-pair pattern is steered by the
keypoint's orientation, both points of each pair are read from a 5x5
box-smoothed image, and the bit is set when the first point is darker
than the second. On level 0 of an integer image the box sums are exact,
so a uniform brightness offset leaves every bit unchanged; resampled
levels round their sums, so the exactness does not carry over to them.
"""

from __future__ import annotations

import numpy as np

from ..imgpost import GrayImage
from .base import DetectorConfig, FeatureSet, register_detector
from .corners import describe_keypoints, orientation_centroid, smoothed_at, steered_pixels
from .patterns import PAIR_PATTERN

DESCRIPTOR_BITS = 256
# Pattern offsets reach 13px, times sqrt(2) under rotation, plus the box
# smoothing radius: keypoints closer than this to an edge are dropped.
BORDER_MARGIN_PX = 21
ORIENTATION_RADIUS_PX = 15

_PATTERN = np.asarray(PAIR_PATTERN, dtype=np.float64)  # (256, 4): x1 y1 x2 y2
# 5x5 box as a sum, not a mean: comparisons only care about order.
_BOX = np.ones(5, dtype=np.int64)


def _describe(level: np.ndarray, x: float, y: float) -> tuple[float, np.ndarray]:
    angle = orientation_centroid(level, x, y, ORIENTATION_RADIUS_PX)
    sy, sx = steered_pixels(_PATTERN[:, (0, 2)], _PATTERN[:, (1, 3)], x, y, angle)
    vals = smoothed_at(level, _BOX, sy, sx)
    return angle, np.packbits(vals[:, 0] < vals[:, 1])


@register_detector("orb")
def detect_orb(img: GrayImage, cfg: DetectorConfig) -> FeatureSet:
    """Segment-test corners + centroid orientation + steered pair pattern."""
    return describe_keypoints(img, cfg, "orb", BORDER_MARGIN_PX, DESCRIPTOR_BITS, _describe)
