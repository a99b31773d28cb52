"""Angle wrapping for the headings of pose tables and for loop-closure rotations."""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Wrap an angle to the interval (-pi, pi]; one already in it is kept."""
    if -math.pi < theta <= math.pi:
        return float(theta)
    wrapped = math.fmod(theta + math.pi, TWO_PI)
    return wrapped - math.pi if wrapped > 0.0 else wrapped + TWO_PI - math.pi
