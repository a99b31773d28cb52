"""Oriented binary descriptor from pairwise intensity comparisons.

256 bits per keypoint: the frozen point-pair pattern is steered by the
keypoint's orientation, both points of each pair are read from a 5x5
box-smoothed image, and the bit is set when the first point is darker
than the second. On level 0 of an integer image the box sums are exact,
so a uniform brightness offset leaves every bit unchanged; resampled
levels round their sums, so the exactness does not carry over to them.
The orientation is the intensity centroid's angle on a fixed 15 px disc,
always whole: keypoints sit 21 px inside their level, and each block holds
the 21 px around its tiles (``READ_REACH_PX``). A disc that left it raises.
"""

from __future__ import annotations

import math

import numpy as np

from ..imgpost import GrayImage
from .base import DetectorConfig, FeatureSet, register_detector
from .corners import describe_keypoints, smoothed_at, steered_pixels
from .patterns import PAIR_PATTERN

DESCRIPTOR_BITS = 256
# Pattern offsets reach 13px, times sqrt(2) under rotation, plus the box
# smoothing radius: keypoints closer than this to an edge are dropped.
BORDER_MARGIN_PX = 21
ORIENTATION_RADIUS_PX = 15

_OFFSETS = np.mgrid[-ORIENTATION_RADIUS_PX:ORIENTATION_RADIUS_PX + 1,
                    -ORIENTATION_RADIUS_PX:ORIENTATION_RADIUS_PX + 1]  # (dy, dx) planes
_DISC = (_OFFSETS ** 2).sum(axis=0) <= ORIENTATION_RADIUS_PX ** 2
_DISC_DY, _DISC_DX = _OFFSETS[:, _DISC].astype(np.float64)  # row-major over the disc

_PATTERN = np.asarray(PAIR_PATTERN, dtype=np.float64)  # (256, 4): x1 y1 x2 y2
# 5x5 box as a sum, not a mean: comparisons only care about order.
_BOX = np.ones(5, dtype=np.int64)


def _orientation(level: np.ndarray, x: float, y: float) -> float:
    """atan2(m01, m10) of the intensity moments on the disc about the pixel
    nearest (x, y), or 0 where both are zero. The disc must lie in ``level``."""
    cx, cy, r = math.floor(x + 0.5), math.floor(y + 0.5), ORIENTATION_RADIUS_PX
    patch = level[max(cy - r, 0):cy + r + 1, max(cx - r, 0):cx + r + 1]
    if patch.shape != _DISC.shape:
        raise ValueError(f"the orientation disc at ({cx}, {cy}) leaves its {level.shape} array")
    disc = patch[_DISC]
    m10, m01 = (disc * _DISC_DX).sum(), (disc * _DISC_DY).sum()
    if m10 == 0.0 and m01 == 0.0:
        return 0.0
    return math.atan2(m01, m10)


def _describe(level: np.ndarray, x: float, y: float) -> tuple[float, np.ndarray]:
    angle = _orientation(level, x, y)
    sy, sx = steered_pixels(_PATTERN[:, (0, 2)], _PATTERN[:, (1, 3)], x, y, angle)
    vals = smoothed_at(level, _BOX, sy, sx)
    return angle, np.packbits(vals[:, 0] < vals[:, 1])


@register_detector("orb")
def detect_orb(img: GrayImage, cfg: DetectorConfig) -> FeatureSet:
    """Segment-test corners + centroid orientation + steered pair pattern."""
    return describe_keypoints(img, cfg, "orb", BORDER_MARGIN_PX, DESCRIPTOR_BITS, _describe)
