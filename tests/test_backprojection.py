"""FOV geometry, the FOV window, and image summation."""

import dataclasses
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarloop import (CompressedScan, ImageGrid, Pose2, RadarConfig, SarImage,
                     build_sar, derive_grid, in_fov)
from sarloop.backprojection import BLOCK_ROWS, fov_mask, fov_window
from sarloop.cli import main
from sarloop.radar import compress_scan, range_bin_spacing
from sarloop.runconfig import load_config
from sarloop.scanlog import load_scan_log

DEMO = Path(__file__).resolve().parent.parent / "demo"

# coarse-grid config so annulus oracles stay cheap: bin spacing ~0.15 m
COARSE = RadarConfig(1e9, 0.3e9, 0.2e9)


def full_grid_mask(pose, config, grid):
    """``in_fov`` at every pixel center of the grid."""
    xs, ys = np.meshgrid(grid.x_coords(), grid.y_coords())
    return in_fov(pose, config, xs, ys)


def oracle_layer(scan, grid):
    """Per-pixel full-grid back-projection of one scan with its own radar.

    A pixel whose center is in the FOV receives the bin at its rounded
    range index; bins past the end of the scan leave it zero.
    """
    xs, ys = np.meshgrid(grid.x_coords(), grid.y_coords())
    rng = np.hypot(xs - scan.pose.x_m, ys - scan.pose.y_m)
    bins = np.floor(rng / range_bin_spacing(scan.config) + 0.5).astype(np.int64)
    paint = full_grid_mask(scan.pose, scan.config, grid) & (bins < scan.bins.size)
    layer = np.zeros((grid.height_px, grid.width_px), dtype=np.complex128)
    layer[paint] = scan.bins[bins[paint]]
    return layer


def scatter_oracle(scans, grid):
    """Back-projection as a scatter-add: mask each window, find its in-FOV
    pixels, take their range again, and add the bins into a flat image."""
    total = np.zeros(grid.height_px * grid.width_px, dtype=np.complex128)
    for scan in scans:
        cfg = scan.config
        rows, cols = fov_window(scan.pose, cfg, grid)
        r, c = np.nonzero(fov_mask(scan.pose, cfg, grid, rows, cols))
        r += rows.start
        c += cols.start
        rng = np.hypot(grid.x_coords()[c] - scan.pose.x_m, grid.y_coords()[r] - scan.pose.y_m)
        bins = np.floor(rng / range_bin_spacing(cfg) + 0.5).astype(np.int64)
        valid = bins < scan.bins.size
        total[(r * grid.width_px + c)[valid]] += scan.bins[bins[valid]]
    return total.reshape(grid.height_px, grid.width_px)


def test_in_fov_examples(table1):
    radar = Pose2(0.0, 0.0, 0.0)
    assert in_fov(radar, table1, 1.0, 0.0)          # boresight, 1.0 m
    assert not in_fov(radar, table1, 0.2, 0.0)      # below min range
    assert not in_fov(radar, table1, 3.5, 0.0)      # beyond max range
    off40 = (math.cos(math.radians(40)), math.sin(math.radians(40)))
    assert not in_fov(radar, table1, *off40)        # past the 30 deg half-beam
    off20 = (math.cos(math.radians(20)), math.sin(math.radians(20)))
    assert in_fov(radar, table1, *off20)


def test_in_fov_uses_heading_plus_mount(table1):
    # heading pi/4 with mount pi/4 puts the boresight on +y
    cfg = dataclasses.replace(table1, mount_angle_rad=math.pi / 4)
    radar = Pose2(0.0, 0.0, math.pi / 4)
    assert in_fov(radar, cfg, 0.0, 1.0)
    assert not in_fov(radar, cfg, 1.0, 0.0)


# boresights exactly on the axes, where the window takes a far-arc point
AXIS_ANGLES = (0.0, math.pi / 2, -math.pi / 2, math.pi)
headings = st.one_of(st.sampled_from(AXIS_ANGLES), st.floats(-math.pi, math.pi))
beamwidths = st.one_of(st.just(math.nextafter(math.pi, 0.0)),
                       st.floats(0.01, math.nextafter(math.pi, 0.0)))


@st.composite
def scenes(draw):
    """A radar config, a pose and a small grid that may clip its FOV."""
    r_min = draw(st.floats(0.05, 0.6))
    config = RadarConfig(1e9, 0.3e9, 0.2e9, beamwidth_rad=draw(beamwidths),
                         range_min_m=r_min, range_max_m=r_min + draw(st.floats(0.05, 0.9)),
                         mount_angle_rad=draw(st.sampled_from((0.0, math.pi / 2))))
    heading = draw(headings) - config.mount_angle_rad
    pose = Pose2(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)), heading)
    res = draw(st.sampled_from((0.02, 0.05, 0.1)))
    grid = ImageGrid(draw(st.integers(1, 60)), draw(st.integers(1, 60)), res,
                     origin_m=(draw(st.floats(-1.5, 0.5)), draw(st.floats(-1.5, 0.5))))
    return config, pose, grid


@settings(max_examples=300, deadline=None)
@given(scenes())
def test_fov_window_covers_every_in_fov_pixel(scene):
    config, pose, grid = scene
    rows, cols = fov_window(pose, config, grid)
    assert 0 <= rows.start <= rows.stop <= grid.height_px
    assert 0 <= cols.start <= cols.stop <= grid.width_px
    inside = np.zeros((grid.height_px, grid.width_px), dtype=bool)
    inside[rows, cols] = True
    assert not (full_grid_mask(pose, config, grid) & ~inside).any()
    assert np.array_equal(fov_mask(pose, config, grid, rows, cols),
                          full_grid_mask(pose, config, grid)[rows, cols])


def test_fov_window_is_the_sector_box_padded_by_one_pixel(table1):
    # boresight +x: x spans [r_min cos 30deg, r_max], y spans +-r_max sin 30deg
    grid = ImageGrid(800, 800, 0.01, origin_m=(-4.0, -4.0))
    rows, cols = fov_window(Pose2(0.0, 0.0, 0.0), table1, grid)
    half_y = table1.range_max_m * math.sin(math.radians(30))
    for span, lo, hi in ((cols, table1.range_min_m * math.cos(math.radians(30)),
                          table1.range_max_m), (rows, -half_y, half_y)):
        lo_px, hi_px = (lo + 4.0) / 0.01, (hi + 4.0) / 0.01
        assert lo_px - 2 - 1e-6 <= span.start <= lo_px - 1 + 1e-6
        assert hi_px + 1 - 1e-6 <= span.stop - 1 <= hi_px + 2 + 1e-6


@settings(max_examples=100, deadline=None)
@given(scenes(), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_single_scan_matches_full_grid_oracle(scene, n_bins, seed):
    config, pose, grid = scene
    rng = np.random.default_rng(seed)
    scan = CompressedScan(rng.normal(size=n_bins) + 1j * rng.normal(size=n_bins), pose, config)
    assert np.array_equal(build_sar([scan], grid).pixels, oracle_layer(scan, grid))


def test_backproject_zero_scan_is_zero():
    grid = ImageGrid(40, 40, 0.05, origin_m=(-1.0, -1.0))
    scan = CompressedScan(np.zeros(64, dtype=complex), Pose2(0, 0, 0), COARSE)
    out = build_sar([scan], grid)
    assert np.all(out.pixels == 0)
    assert out.scan_count == 1


def test_single_bin_scan_paints_the_masked_annulus():
    grid = ImageGrid(50, 50, 0.05, origin_m=(-1.25, -1.25))
    pose = Pose2(0.0, 0.0, 0.0)
    dd = range_bin_spacing(COARSE)
    hot_bin = 8
    bins = np.zeros(40, dtype=complex)
    bins[hot_bin] = 2.0 - 1.0j
    out = build_sar([CompressedScan(bins, pose, COARSE)], grid)

    painted = 0
    for r in range(grid.height_px):
        for c in range(grid.width_px):
            x = grid.origin_m[0] + c * grid.resolution_m
            y = grid.origin_m[1] + r * grid.resolution_m
            rho = math.hypot(x - pose.x_m, y - pose.y_m)
            expect = 0.0
            if in_fov(pose, COARSE, x, y) and math.floor(rho / dd + 0.5) == hot_bin:
                expect = 2.0 - 1.0j
                painted += 1
            assert out.pixels[r, c] == expect, (r, c)
    assert painted > 0


def test_bins_past_scan_end_contribute_zero():
    grid = ImageGrid(50, 50, 0.05, origin_m=(-1.25, -1.25))
    pose = Pose2(0.0, 0.0, 0.0)
    short = CompressedScan(np.full(4, 1.0 + 0j), pose, COARSE)  # covers only ~0.6 m
    out = build_sar([short], grid)
    assert np.all(np.isfinite(out.pixels))
    # pixels beyond the last bin stay zero even though they are in the FOV
    assert full_grid_mask(pose, COARSE, grid).sum() > np.count_nonzero(out.pixels)
    assert np.array_equal(out.pixels, oracle_layer(short, grid))


def _random_scans(n, pose_spread=0.5, n_bins=40, seed=0):
    rng = np.random.default_rng(seed)
    scans = []
    for k in range(n):
        bins = rng.normal(size=n_bins) + 1j * rng.normal(size=n_bins)
        pose = Pose2(rng.uniform(-pose_spread, pose_spread),
                     rng.uniform(-pose_spread, pose_spread),
                     rng.uniform(-math.pi, math.pi))
        scans.append(CompressedScan(bins, pose, COARSE))
    return scans


def test_build_sar_matches_explicit_sum():
    grid = ImageGrid(30, 30, 0.1, origin_m=(-1.5, -1.5))
    scans = _random_scans(6, seed=3)
    total = build_sar(scans, grid)
    explicit = np.zeros((30, 30), dtype=complex)
    for s in scans:
        explicit += oracle_layer(s, grid)
    assert np.array_equal(total.pixels, explicit)
    assert total.scan_count == 6

    single = build_sar(scans[:1], grid)
    assert np.array_equal(single.pixels, oracle_layer(scans[0], grid))
    with pytest.raises(ValueError):
        build_sar([], grid)


def test_scan_order_permutation_is_harmless():
    grid = ImageGrid(30, 30, 0.1, origin_m=(-1.5, -1.5))
    scans = _random_scans(8, seed=4)
    forward = build_sar(scans, grid).pixels
    backward = build_sar(scans[::-1], grid).pixels
    scale = np.max(np.abs(forward))
    assert np.allclose(forward, backward, rtol=1e-6, atol=1e-6 * scale)


def test_per_scan_energy_bound():
    grid = ImageGrid(40, 40, 0.05, origin_m=(-1.0, -1.0))
    for scan in _random_scans(5, n_bins=30, seed=6):
        part = build_sar([scan], grid)
        masked = int(full_grid_mask(scan.pose, COARSE, grid).sum())
        assert np.sum(np.abs(part.pixels)) <= masked * np.max(np.abs(scan.bins)) + 1e-9


def test_side_mounted_radars_illuminate_disjoint_half_planes(table1):
    grid = ImageGrid(120, 120, 0.05, origin_m=(-3.0, -3.0))
    pose = Pose2(0.0, 0.0, 0.0)  # heading +x
    up = full_grid_mask(pose, dataclasses.replace(table1, mount_angle_rad=math.pi / 2), grid)
    down = full_grid_mask(pose, dataclasses.replace(table1, mount_angle_rad=-math.pi / 2),
                          grid)
    assert up.any() and down.any()
    assert not (up & down).any()
    # and they land on the expected sides of the path
    ys = grid.origin_m[1] + np.arange(grid.height_px) * grid.resolution_m
    assert ys[np.nonzero(up)[0]].min() > 0
    assert ys[np.nonzero(down)[0]].max() < 0


def test_derive_grid_covers_trajectory_padded_by_range(table1):
    poses = [Pose2(0, 0, 0), Pose2(1.5, 0.25, 0)]
    grid = derive_grid(poses, table1, 0.01)
    assert grid.resolution_m == 0.01
    assert grid.origin_m[0] == pytest.approx(-3.0)
    assert grid.origin_m[1] == pytest.approx(-3.0)
    assert grid.x_coords()[-1] >= 1.5 + 3.0
    assert grid.y_coords()[-1] >= 0.25 + 3.0
    with pytest.raises(ValueError):
        derive_grid([], table1, 0.01)


def test_grid_validation():
    with pytest.raises(ValueError):
        ImageGrid(0, 10, 0.1)
    with pytest.raises(ValueError):
        ImageGrid(10, 10, 0.0)
    for origin in ((math.nan, 0.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match="origin"):
            ImageGrid(10, 10, 0.1, origin_m=origin)
    with pytest.raises(ValueError):
        SarImage(ImageGrid(4, 4, 0.1), np.zeros((3, 4), complex), 1)


@pytest.fixture(scope="module")
def demo_scans(tmp_path_factory):
    """The bundled demo's compressed scans (both mounts) and its grid."""
    out = tmp_path_factory.mktemp("demo")
    assert main(["simulate", "--scene", str(DEMO / "scene.txt"),
                 "--trajectory", str(DEMO / "trajectory.txt"), "--out", str(out)]) == 0
    cfg = load_config(None, [])
    log = load_scan_log(out / "scanlog.bin")
    scans = [compress_scan(raw, cfg.pulse()) for raw in log.to_raw_scans()]
    grid = derive_grid([s.pose for s in scans], log.config, cfg.grid_resolution_m)
    return scans, grid


def test_demo_map_equals_the_scatter_oracle(demo_scans):
    scans, grid = demo_scans
    assert len(scans) == 122
    assert len({s.config.mount_angle_rad for s in scans}) == 2
    assert grid.height_px % BLOCK_ROWS
    sar = build_sar(scans, grid)
    assert sar.pixels.tobytes() == scatter_oracle(scans, grid).tobytes()


@st.composite
def block_scenes(draw):
    """Scans whose windows span several row blocks of a grid whose height is
    not a multiple of BLOCK_ROWS; the first scan sits on the grid's bottom
    edge looking along it, so its window is clipped there."""
    height = draw(st.integers(2 * BLOCK_ROWS + 1, 5 * BLOCK_ROWS).filter(
        lambda h: h % BLOCK_ROWS))
    grid = ImageGrid(draw(st.integers(1, 120)), height, 0.01,
                     origin_m=(draw(st.floats(-1.0, 0.0)), draw(st.floats(-1.0, 0.0))))
    scans = []
    for k in range(draw(st.integers(1, 4))):
        r_min = draw(st.floats(0.05, 0.5))
        config = RadarConfig(1e9, 0.3e9, 0.2e9, beamwidth_rad=draw(
            st.floats(1.0, math.nextafter(math.pi, 0.0))), range_min_m=r_min,
            range_max_m=r_min + draw(st.floats(1.0, 2.0)))
        if k == 0:
            y, heading = grid.origin_m[1], draw(st.sampled_from((0.0, math.pi)))
        else:
            y, heading = draw(st.floats(-1.0, 2.0)), draw(headings)
        pose = Pose2(draw(st.floats(-1.0, 1.0)), y, heading)
        n_bins = draw(st.integers(1, 20))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        scans.append(CompressedScan(rng.normal(size=n_bins) + 1j * rng.normal(size=n_bins),
                                    pose, config))
    return scans, grid


@settings(max_examples=60, deadline=None)
@given(block_scenes())
def test_row_blocks_match_the_scatter_oracle(scene):
    scans, grid = scene
    rows, _ = fov_window(scans[0].pose, scans[0].config, grid)
    assert rows.start == 0
    assert np.array_equal(build_sar(scans, grid).pixels, scatter_oracle(scans, grid))


def test_repeated_and_streamed_calls_give_the_same_bytes():
    grid = ImageGrid(150, 3 * BLOCK_ROWS + 5, 0.02, origin_m=(-1.5, -2.0))
    scans = _random_scans(8, pose_spread=1.0, seed=9)
    first = build_sar(scans, grid).pixels.tobytes()
    for _ in range(2):
        assert build_sar(scans, grid).pixels.tobytes() == first
    assert build_sar((s for s in scans), grid).pixels.tobytes() == first


def test_more_threads_than_cores_give_the_same_bytes(monkeypatch):
    # Every scan's window is the same single block of the grid, so blocks of
    # different scans run concurrently or out of scan order would lose
    # updates or round differently.
    grid = ImageGrid(300, BLOCK_ROWS - 3, 0.01, origin_m=(0.0, -0.3))
    rng = np.random.default_rng(10)
    scans = [CompressedScan(rng.normal(size=40) + 1j * rng.normal(size=40),
                            Pose2(rng.uniform(-0.1, 0.1), 0.0, 0.0), COARSE)
             for _ in range(48)]
    expect = scatter_oracle(scans, grid).tobytes()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(1) as runner:
            sar = runner.submit(build_sar, scans, grid).result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert sar.pixels.tobytes() == expect
