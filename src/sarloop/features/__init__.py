"""Keypoint detection and binary description for 8-bit SAR images."""

from . import brisk, orb  # noqa: F401  (registers the native detectors)
from .base import (DetectorConfig, FeatureSet, Keypoint, detect_and_describe,
                   register_detector)
from .serialize import load_feature_set, save_feature_set

__all__ = [
    "DetectorConfig",
    "FeatureSet",
    "Keypoint",
    "detect_and_describe",
    "load_feature_set",
    "register_detector",
    "save_feature_set",
]
