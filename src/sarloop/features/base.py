"""The keypoint record, feature sets, and the detector registry, whose
detectors run on a ``DetectorConfig``: an id plus the ``RunConfig`` it runs under."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..imgpost import GrayImage

if TYPE_CHECKING:
    from ..runconfig import RunConfig

MIN_IMAGE_SIDE_PX = 32

# One detected feature: its (x, y) in base-image pixels, corner response,
# orientation in radians and pyramid octave. Feature files store it as is.
KEYPOINT = np.dtype([("xy", "<f8", (2,)), ("response", "<f4"), ("angle", "<f4"),
                     ("octave", "<i4")])


@dataclass(frozen=True)
class DetectorConfig:
    """A detector id and the run config it runs under; ``run`` holds the
    front-end keys ``corner_threshold``, ``n_octaves`` and ``target_keypoints``."""

    detector_id: str
    run: RunConfig


@dataclass(frozen=True)
class FeatureSet:
    """Keypoints plus their packed binary descriptors, on an image whose
    pixels are ``resolution_m`` wide.

    keypoints is a 1-D array of ``KEYPOINT`` records (a list of
    ``((x, y), response, angle, octave)`` rows is converted); descriptors
    is a (len(keypoints), bits/8) uint8 array; bit k of a descriptor is bit
    (7 - k % 8) of byte k // 8 (numpy packbits order); a non-empty set
    needs at least one byte. Descriptors from different detector_ids, or of
    different widths, are never comparable.
    """

    detector_id: str
    keypoints: np.ndarray
    descriptors: np.ndarray
    resolution_m: float

    def __post_init__(self):
        if not (self.resolution_m > 0 and math.isfinite(self.resolution_m)):
            raise ValueError(f"resolution_m must be positive, got {self.resolution_m}")
        kps = np.ascontiguousarray(self.keypoints, KEYPOINT)
        if kps.ndim != 1:
            raise ValueError(f"keypoints must be 1-D, got shape {kps.shape}")
        bad = np.flatnonzero(~np.isfinite(kps["xy"]).all(axis=1) | (kps["octave"] < 0))
        if bad.size:
            raise ValueError(f"keypoint {bad[0]}: position must be finite and octave "
                             f">= 0, got {kps[bad[0]]}")
        desc = np.ascontiguousarray(self.descriptors, dtype=np.uint8)
        if desc.ndim != 2:
            raise ValueError(f"descriptors must be 2-D, got shape {desc.shape}")
        if desc.shape[0] != len(kps):
            raise ValueError(f"{len(kps)} keypoints but {desc.shape[0]} descriptors")
        if len(kps) and desc.shape[1] == 0:
            raise ValueError("descriptors must be at least 1 byte wide, got 0")
        object.__setattr__(self, "keypoints", kps)
        object.__setattr__(self, "descriptors", desc)

    def __len__(self) -> int:
        return len(self.keypoints)

    @property
    def descriptor_bits(self) -> int:
        return self.descriptors.shape[1] * 8


Detect = Callable[[GrayImage, DetectorConfig], FeatureSet]

_DETECTORS: dict[str, Detect] = {}


def register_detector(name: str):
    """Decorator adding an ``(img, cfg) -> FeatureSet`` function under ``name``."""

    def wrap(detect: Detect) -> Detect:
        if name in _DETECTORS:
            raise ValueError(f"detector {name!r} already registered")
        _DETECTORS[name] = detect
        return detect

    return wrap


def registered_detectors() -> list[str]:
    """Ids of the registered detectors, sorted."""
    return sorted(_DETECTORS)


def detect_and_describe(img: GrayImage, cfg: DetectorConfig) -> FeatureSet:
    """Run the registered detector named by ``cfg.detector_id``."""
    try:
        detect = _DETECTORS[cfg.detector_id]
    except KeyError:
        known = ", ".join(registered_detectors()) or "none"
        raise KeyError(f"unknown detector {cfg.detector_id!r} "
                       f"(registered: {known})") from None
    return detect(img, cfg)


def require_min_size(pixels: np.ndarray) -> None:
    h, w = pixels.shape
    if h < MIN_IMAGE_SIDE_PX or w < MIN_IMAGE_SIDE_PX:
        raise ValueError(
            f"image {w}x{h} too small for detection (need >= "
            f"{MIN_IMAGE_SIDE_PX}x{MIN_IMAGE_SIDE_PX})")
