"""FOV geometry, polygon rasterization, and image summation."""

import math

import numpy as np
import pytest

from sarloop import (CompressedScan, ImageGrid, Pose2, RadarConfig, SarImage,
                     backproject_scan, build_sar, derive_grid, fov_mask,
                     fov_polygon, in_fov)
from sarloop.backprojection import rasterize_polygon
from sarloop.radar import range_bin_spacing

# coarse-grid config so annulus oracles stay cheap: bin spacing ~0.15 m
COARSE = RadarConfig(1e9, 0.3e9, 0.2e9)


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
    import dataclasses
    cfg = dataclasses.replace(table1, mount_angle_rad=math.pi / 4)
    radar = Pose2(0.0, 0.0, math.pi / 4)
    assert in_fov(radar, cfg, 0.0, 1.0)
    assert not in_fov(radar, cfg, 1.0, 0.0)


def test_rectangle_scanline_fill_is_exact():
    # axis-aligned rectangle placed so no edge passes through a pixel center:
    # the filled set must be exactly the centers strictly inside
    grid = ImageGrid(8, 6, 0.1)
    poly_x = np.array([0.05, 0.45, 0.45, 0.05])
    poly_y = np.array([0.15, 0.15, 0.35, 0.35])
    mask = rasterize_polygon(poly_x, poly_y, grid)
    expected = np.zeros((6, 8), dtype=bool)
    expected[2:4, 1:5] = True  # centers x in {0.1..0.4}, y in {0.2, 0.3}
    assert np.array_equal(mask, expected)


def test_mask_agrees_with_predicate_off_boundary(table1):
    radar = Pose2(0.1, -0.2, 0.6)
    grid = ImageGrid(200, 200, 0.02, origin_m=(-2.0 + radar.x_m, -2.0 + radar.y_m))
    mask = fov_mask(radar, table1, grid)

    rng = np.random.default_rng(12)
    rows = rng.integers(0, grid.height_px, size=1000)
    cols = rng.integers(0, grid.width_px, size=1000)
    xs = grid.origin_m[0] + cols * grid.resolution_m
    ys = grid.origin_m[1] + rows * grid.resolution_m
    direct = in_fov(radar, table1, xs, ys)

    # disagreements are allowed only within one pixel diagonal of the
    # sector boundary (chord approximation + scanline quantization)
    diag = grid.resolution_m * math.sqrt(2.0)
    boresight = radar.theta_rad + table1.mount_angle_rad
    for r, c, x, y, want in zip(rows, cols, xs, ys, direct):
        if mask[r, c] == want:
            continue
        rho = math.hypot(x - radar.x_m, y - radar.y_m)
        bearing = abs(_wrap(math.atan2(y - radar.y_m, x - radar.x_m) - boresight))
        boundary_dist = min(abs(rho - table1.range_min_m),
                            abs(rho - table1.range_max_m),
                            rho * abs(table1.beamwidth_rad / 2 - bearing))
        assert boundary_dist <= diag, (
            f"mask/predicate disagree {boundary_dist:.4f} m from the boundary "
            f"at ({x:.3f}, {y:.3f})")


def _wrap(a):
    return (a + math.pi) % (2 * math.pi) - math.pi


def test_backproject_zero_scan_is_zero():
    grid = ImageGrid(40, 40, 0.05, origin_m=(-1.0, -1.0))
    scan = CompressedScan(np.zeros(64, dtype=complex), Pose2(0, 0, 0))
    out = backproject_scan(scan, COARSE, grid)
    assert np.all(out.pixels == 0)
    assert out.scan_count == 1


def test_single_bin_scan_paints_the_masked_annulus():
    grid = ImageGrid(50, 50, 0.05, origin_m=(-1.25, -1.25))
    pose = Pose2(0.0, 0.0, 0.0)
    dd = range_bin_spacing(COARSE)
    hot_bin = 8
    bins = np.zeros(40, dtype=complex)
    bins[hot_bin] = 2.0 - 1.0j
    out = backproject_scan(CompressedScan(bins, pose), COARSE, grid)

    mask = fov_mask(pose, COARSE, grid)
    for r in range(grid.height_px):
        for c in range(grid.width_px):
            x = grid.origin_m[0] + c * grid.resolution_m
            y = grid.origin_m[1] + r * grid.resolution_m
            rho = math.hypot(x - pose.x_m, y - pose.y_m)
            expect = 0.0
            if mask[r, c] and math.floor(rho / dd + 0.5) == hot_bin:
                expect = 2.0 - 1.0j
            assert out.pixels[r, c] == expect, (r, c)


def test_bins_past_scan_end_contribute_zero():
    grid = ImageGrid(50, 50, 0.05, origin_m=(-1.25, -1.25))
    pose = Pose2(0.0, 0.0, 0.0)
    short = CompressedScan(np.full(4, 1.0 + 0j), pose)  # covers only ~0.6 m
    out = backproject_scan(short, COARSE, grid)
    assert np.all(np.isfinite(out.pixels))
    # pixels beyond the last bin stay zero even though they are masked
    mask = fov_mask(pose, COARSE, grid)
    assert mask.sum() > np.count_nonzero(out.pixels)


def _random_scans(n, pose_spread=0.5, n_bins=40, seed=0):
    rng = np.random.default_rng(seed)
    scans = []
    for k in range(n):
        bins = rng.normal(size=n_bins) + 1j * rng.normal(size=n_bins)
        pose = Pose2(rng.uniform(-pose_spread, pose_spread),
                     rng.uniform(-pose_spread, pose_spread),
                     rng.uniform(-math.pi, math.pi))
        scans.append(CompressedScan(bins, pose))
    return scans


def test_build_sar_matches_explicit_sum():
    grid = ImageGrid(30, 30, 0.1, origin_m=(-1.5, -1.5))
    scans = _random_scans(6, seed=3)
    total = build_sar(scans, COARSE, grid)
    explicit = np.zeros((30, 30), dtype=complex)
    for s in scans:
        explicit += backproject_scan(s, COARSE, grid).pixels
    assert np.array_equal(total.pixels, explicit)
    assert total.scan_count == 6

    single = build_sar(scans[:1], COARSE, grid)
    assert np.array_equal(single.pixels,
                          backproject_scan(scans[0], COARSE, grid).pixels)
    with pytest.raises(ValueError):
        build_sar([], COARSE, grid)


def test_scan_order_permutation_is_harmless():
    grid = ImageGrid(30, 30, 0.1, origin_m=(-1.5, -1.5))
    scans = _random_scans(8, seed=4)
    forward = build_sar(scans, COARSE, grid).pixels
    backward = build_sar(scans[::-1], COARSE, grid).pixels
    scale = np.max(np.abs(forward))
    assert np.allclose(forward, backward, rtol=1e-6, atol=1e-6 * scale)


def test_per_scan_energy_bound():
    grid = ImageGrid(40, 40, 0.05, origin_m=(-1.0, -1.0))
    for scan in _random_scans(5, n_bins=30, seed=6):
        part = backproject_scan(scan, COARSE, grid)
        masked = int(fov_mask(scan.pose, COARSE, grid).sum())
        assert np.sum(np.abs(part.pixels)) <= masked * np.max(np.abs(scan.bins)) + 1e-9


def test_side_mounted_radars_illuminate_disjoint_half_planes(table1):
    import dataclasses
    grid = ImageGrid(120, 120, 0.05, origin_m=(-3.0, -3.0))
    pose = Pose2(0.0, 0.0, 0.0)  # heading +x
    up = fov_mask(pose, dataclasses.replace(table1, mount_angle_rad=math.pi / 2), grid)
    down = fov_mask(pose, dataclasses.replace(table1, mount_angle_rad=-math.pi / 2), grid)
    assert up.any() and down.any()
    assert not (up & down).any()
    # and they land on the expected sides of the path
    ys = grid.origin_m[1] + np.arange(grid.height_px) * grid.resolution_m
    assert ys[np.nonzero(up)[0]].min() > 0
    assert ys[np.nonzero(down)[0]].max() < 0


def test_fov_polygon_is_closed_ring(table1):
    xs, ys = fov_polygon(Pose2(0.3, -0.1, 0.2), table1)
    assert len(xs) == len(ys) >= 8
    rho = np.hypot(xs - 0.3, ys + 0.1)
    assert rho.min() == pytest.approx(table1.range_min_m, rel=1e-9)
    assert rho.max() == pytest.approx(table1.range_max_m, rel=1e-9)


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
    with pytest.raises(ValueError):
        SarImage(ImageGrid(4, 4, 0.1), np.zeros((3, 4), complex), 1)
