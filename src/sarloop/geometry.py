"""Planar poses and angle helpers shared by the imaging and simulation code."""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Wrap an angle to the interval (-pi, pi]; one already in it is kept."""
    if -math.pi < theta <= math.pi:
        return float(theta)
    wrapped = math.fmod(theta + math.pi, TWO_PI)
    return wrapped - math.pi if wrapped > 0.0 else wrapped + TWO_PI - math.pi


@dataclass(frozen=True)
class Pose2:
    """Planar pose of a radar phase center in the image/world frame.

    ``theta_rad`` is normalized to (-pi, pi] on construction. All fields
    must be finite.
    """

    x_m: float
    y_m: float
    theta_rad: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.x_m) and math.isfinite(self.y_m)
                and math.isfinite(self.theta_rad)):
            raise ValueError(f"pose fields must be finite, got {self}")
        object.__setattr__(self, "theta_rad", wrap_angle(self.theta_rad))
