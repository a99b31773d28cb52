"""Keypoint detection and binary description for 8-bit SAR images."""

from . import brisk, orb  # noqa: F401  (registers the native detectors)
from .base import (DetectorConfig, FeatureSet, Keypoint, detect_and_describe,
                   register_detector)
from .corners import detect_corners, orientation_centroid
from .serialize import load_feature_set, save_feature_set

__all__ = [
    "DetectorConfig",
    "FeatureSet",
    "Keypoint",
    "detect_and_describe",
    "detect_corners",
    "load_feature_set",
    "orientation_centroid",
    "register_detector",
    "save_feature_set",
]
