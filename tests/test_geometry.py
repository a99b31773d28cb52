import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sarloop.geometry import wrap_angle


def test_wrap_angle_fixed_points():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)  # interval is (-pi, pi]
    assert wrap_angle(2 * math.pi) == pytest.approx(0.0, abs=1e-12)
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)


def test_wrap_angle_range_and_periodicity():
    rng = np.random.default_rng(3)
    for theta in rng.uniform(-50, 50, size=200):
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi
        assert math.cos(w) == pytest.approx(math.cos(theta), abs=1e-9)
        assert math.sin(w) == pytest.approx(math.sin(theta), abs=1e-9)


@given(st.floats(-math.pi, math.pi, exclude_min=True))
def test_an_angle_in_range_is_returned_unchanged(theta):
    assert wrap_angle(theta) == theta


def test_pose_keeps_the_heading_it_was_given():
    assert wrap_angle(0.1) == 0.1  # read 0.10000000000000009
    assert wrap_angle(0.05235987755982988) == 0.05235987755982988
    assert wrap_angle(-math.pi) == math.pi  # -pi still maps to pi
    assert wrap_angle(math.pi) == math.pi

