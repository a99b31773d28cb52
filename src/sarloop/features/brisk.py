"""Concentric-ring binary descriptor with per-ring smoothing.

60 sampling points (center + 4 rings) are read from the image smoothed
by a Gaussian proportional to the ring radius, so outer points average
over wider support; the smoothing is evaluated only at those points.
Long-distance point pairs vote for the keypoint's orientation via their
intensity gradients; the 512 shortest pairs, rotated by that orientation,
produce the descriptor bits.
"""

from __future__ import annotations

import math

import numpy as np

from ..imgpost import GrayImage
from .base import DetectorConfig, FeatureSet, register_detector
from .corners import describe_keypoints, smoothed_at
from .patterns import ring_pairs, ring_points

DESCRIPTOR_BITS = 512
# Outermost ring radius 10.8 px, invariant under rotation, plus rounding.
BORDER_MARGIN_PX = 12

_POINTS, _SIGMAS = ring_points()
_SHORT_PAIRS, _LONG_PAIRS = ring_pairs()
_UNIQUE_SIGMAS, _SIGMA_INDEX = np.unique(_SIGMAS, return_inverse=True)
_LONG_VEC = _POINTS[_LONG_PAIRS[:, 1]] - _POINTS[_LONG_PAIRS[:, 0]]
_LONG_NORM_SQ = np.sum(_LONG_VEC ** 2, axis=1)


_KERNEL_SCALE = 1 << 16


def _gauss_kernel_fp(sigma: float) -> np.ndarray:
    """Fixed-point separable Gaussian weights (radius 3*sigma).

    The center weight absorbs the rounding residue so every kernel sums to
    exactly _KERNEL_SCALE, so all point responses share one gain (see
    ``smoothed_at`` for when their sums are exact).
    """
    r = int(math.ceil(3.0 * sigma))
    x = np.arange(-r, r + 1, dtype=np.float64)
    k = np.exp(-(x * x) / (2.0 * sigma * sigma))
    ki = np.rint(k / k.sum() * _KERNEL_SCALE).astype(np.int64)
    ki[r] += _KERNEL_SCALE - ki.sum()
    return ki


_KERNELS = [_gauss_kernel_fp(float(s)) for s in _UNIQUE_SIGMAS]


def _smooth_boxes(level: np.ndarray, x: float, y: float) -> np.ndarray:
    """Per sigma, the level smoothed on the pixels within BORDER_MARGIN_PX
    of the rounded (x, y), where the pattern lands at any angle."""
    cx, cy, r = math.floor(x + 0.5), math.floor(y + 0.5), BORDER_MARGIN_PX
    ys, xs = np.mgrid[cy - r:cy + r + 1, cx - r:cx + r + 1]
    return np.stack([smoothed_at(level, kernel, ys, xs) for kernel in _KERNELS])


def _sample(boxes: np.ndarray, x: float, y: float, angle: float) -> np.ndarray:
    """All 60 responses around (x, y) from its ``_smooth_boxes``, pattern rotated by angle."""
    c, s = math.cos(angle), math.sin(angle)
    sx = np.floor(c * _POINTS[:, 0] - s * _POINTS[:, 1] + x + 0.5).astype(np.intp)
    sy = np.floor(s * _POINTS[:, 0] + c * _POINTS[:, 1] + y + 0.5).astype(np.intp)
    r = BORDER_MARGIN_PX
    return boxes[_SIGMA_INDEX, sy - math.floor(y + 0.5) + r, sx - math.floor(x + 0.5) + r]


def _orientation(values: np.ndarray) -> float:
    """Gradient direction summed over the long-distance pairs."""
    dv = values[_LONG_PAIRS[:, 1]] - values[_LONG_PAIRS[:, 0]]
    g = (dv / _LONG_NORM_SQ) @ _LONG_VEC
    if g[0] == 0.0 and g[1] == 0.0:
        return 0.0
    return math.atan2(g[1], g[0])


def _describe(level: np.ndarray, x: float, y: float) -> tuple[float, np.ndarray]:
    boxes = _smooth_boxes(level, x, y)
    angle = _orientation(_sample(boxes, x, y, 0.0))
    vals = _sample(boxes, x, y, angle)
    return angle, np.packbits(vals[_SHORT_PAIRS[:, 1]] > vals[_SHORT_PAIRS[:, 0]])


@register_detector("brisk")
def detect_brisk(img: GrayImage, cfg: DetectorConfig) -> FeatureSet:
    """Segment-test corners + long-pair orientation + ring comparisons."""
    return describe_keypoints(img, cfg, "brisk", BORDER_MARGIN_PX, DESCRIPTOR_BITS, _describe)
