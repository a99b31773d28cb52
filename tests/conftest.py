"""Shared fixtures: radar setup and the reference 5-scatterer reconstruction.

The reconstruction is expensive enough (60 poses, two radars, 400x400 px)
that it is built once per session and reused by the feature, matching, and
acceptance tests.
"""

import math
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.random import default_rng

from sarloop import (GrayImage, ImageGrid, RadarConfig, build_sar, compress_scan,
                     gaussian_blur, generate_trajectory, positive_image, quantize,
                     render_scene)
from sarloop.features import base as feature_base

SIDE_MOUNTS = (math.pi / 2.0, -math.pi / 2.0)

# 2 m x 2 m scene: every scatterer is 0.45..0.95 m off the path so it sits
# inside the 0.4..3.0 m range band of one of the two side-looking radars.
FIVE_SCATTERERS = ((0.20, 0.70), (0.60, -0.55), (0.75, 0.90),
                   (1.10, -0.75), (1.40, 0.60))


@pytest.fixture(scope="session")
def table1():
    return RadarConfig(sample_rate_hz=23.328e9, center_freq_hz=7.29e9,
                       bandwidth_hz=2.0e9)


@pytest.fixture(scope="session")
def side_radars(table1):
    """The Table 1 radar on the left and on the right side of the robot."""
    return tuple(replace(table1, mount_angle_rad=m) for m in SIDE_MOUNTS)


@pytest.fixture(scope="session")
def small_grid():
    return ImageGrid(120, 120, 0.02, origin_m=(-0.2, -1.2))


def reconstruct(scene, n_poses, noise_seed, grid, radars, snr_db=20.0):
    """Straight 1.5 m two-radar run: simulate, compress, back-project, post.

    The scan log's f32 samples are imaged, as ``sarloop backproject`` does."""
    poses = generate_trajectory(((0.0, 0.0, 0.0), (1.5, 0.0, 0.0)),
                                scan_spacing_m=1.5 / (n_poses - 1))
    log, truth = render_scene(scene, poses, radars, grid, snr_db=snr_db,
                              rng=default_rng(noise_seed))
    sar = build_sar(log, compress_scan(log.records["samples"], log.radars[0]), grid)
    image = quantize(gaussian_blur(positive_image(sar), 1.0))
    return SimpleNamespace(sar=sar, image=image, truth=truth, grid=grid)


@pytest.fixture(scope="session")
def reconstruct_fn(side_radars):
    def build(scene, n_poses=40, noise_seed=0, snr_db=20.0):
        grid = ImageGrid(400, 400, 0.005, origin_m=(-0.25, -1.0))
        return reconstruct(scene, n_poses, noise_seed, grid, side_radars, snr_db)
    return build


@pytest.fixture(scope="session")
def five_scatterer(side_radars):
    """The reference scene at SNR 20 dB, timed for the runtime budget check."""
    scene = [(x, y, 1.0) for x, y in FIVE_SCATTERERS]
    grid = ImageGrid(400, 400, 0.005, origin_m=(-0.25, -1.0))
    t0 = time.perf_counter()
    run = reconstruct(scene, 60, 42, grid, side_radars)
    run.elapsed_s = time.perf_counter() - t0
    run.scene = scene
    return run


@pytest.fixture
def detector_calls(monkeypatch):
    """Detector ids in the order the registered detectors get called."""
    calls = []

    def spy(name, detect):
        def counted(img, cfg):
            calls.append(name)
            return detect(img, cfg)
        return counted

    monkeypatch.setattr(feature_base, "_DETECTORS",
                        {n: spy(n, f) for n, f in feature_base._DETECTORS.items()})
    return calls
