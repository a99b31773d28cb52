"""FOV geometry, the row-block spans, and image summation."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sarloop import (ImageGrid, RadarConfig, SarImage, ScanLog, build_sar, derive_grid, in_fov,
                     record_dtype, save_scan_log)
from sarloop import backprojection
from sarloop.backprojection import BLOCK_ROWS, block_spans, sar_bands
from sarloop.cli import main
from sarloop.imgpost import write_sar_dump
from sarloop.radar import compress_scan, range_bin_spacing
from sarloop.runconfig import load_config
from sarloop.scanlog import load_scan_log
from sarloop.simulate import generate_trajectory, load_trajectory

DEMO = Path(__file__).resolve().parent.parent / "demo"

# coarse-grid config so annulus oracles stay cheap: bin spacing ~0.15 m
COARSE = RadarConfig(1e9, 0.3e9, 0.2e9)


def full_grid_mask(pose, config, grid):
    """``in_fov`` at every pixel center of the grid."""
    return in_fov(pose, config, grid.x_coords()[np.newaxis, :], grid.y_coords()[:, np.newaxis])


def make_log(poses, radars, radar_index=0):
    """A scan log of one record per ``x_m, y_m, theta_rad`` pose row, record k
    fired by ``radars[radar_index[k]]``. Its samples are a zero placeholder:
    ``build_sar`` reads the poses and radar indices, and takes the bins as a
    table."""
    records = np.zeros(len(poses), record_dtype(1))
    records["pose"] = poses
    records["radar_index"] = radar_index
    return ScanLog(tuple(radars), records)


def random_bins(rng, n_scans, n_bins):
    return rng.normal(size=(n_scans, n_bins)) + 1j * rng.normal(size=(n_scans, n_bins))


def scans_of(log, bins):
    """(pose row, radar, bins row) per record."""
    return [(pose, log.radars[index], row) for pose, index, row
            in zip(log.records["pose"].tolist(), log.records["radar_index"].tolist(), bins)]


def oracle_layers(log, bins, grid):
    """Per-pixel full-grid back-projection of each scan with its own radar.

    A pixel whose center is in the FOV receives the bin at its rounded
    range index; bins past the end of the scan leave it zero.
    """
    xs, ys = np.meshgrid(grid.x_coords(), grid.y_coords())
    layers = []
    for pose, radar, row in scans_of(log, bins):
        rng = np.hypot(xs - pose[0], ys - pose[1])
        index = np.floor(rng / range_bin_spacing(radar) + 0.5).astype(np.int64)
        paint = full_grid_mask(pose, radar, grid) & (index < row.size)
        layer = np.zeros((grid.height_px, grid.width_px), dtype=np.complex128)
        layer[paint] = row[index[paint]]
        layers.append(layer)
    return layers


def scatter_oracle(log, bins, grid):
    """Back-projection as a scatter-add: find each scan's in-FOV pixels over the
    whole grid, take their range again, and add the bins into a flat image."""
    total = np.zeros(grid.height_px * grid.width_px, dtype=np.complex128)
    for pose, cfg, row in scans_of(log, bins):
        r, c = np.nonzero(full_grid_mask(pose, cfg, grid))
        rng = np.hypot(grid.x_coords()[c] - pose[0], grid.y_coords()[r] - pose[1])
        index = np.floor(rng / range_bin_spacing(cfg) + 0.5).astype(np.int64)
        valid = index < row.size
        total[(r * grid.width_px + c)[valid]] += row[index[valid]]
    return total.reshape(grid.height_px, grid.width_px)


def test_in_fov_examples(table1):
    radar = (0.0, 0.0, 0.0)
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
    radar = (0.0, 0.0, math.pi / 4)
    assert in_fov(radar, cfg, 0.0, 1.0)
    assert not in_fov(radar, cfg, 1.0, 0.0)


@pytest.mark.parametrize("radar, x, y", [
    ((0.0, 0.0, 0.0), 1e200, 0.0), ((0.0, 0.0, 0.0), 1.7e308, 0.0),
    ((0.0, 0.0, 0.0), -1.7e308, 1.7e308),
    ((-1e308, 1e308, 0.7), 1.7e308, -1.7e308)])  # offsets +inf, -inf: along is nan
def test_a_point_whose_range_overflows_is_outside(table1, radar, x, y):
    # A finite offset past ~1.3e154 m squares to inf; pytest turns the
    # overflow RuntimeWarning into an error (pyproject.toml), so none may escape.
    assert not in_fov(radar, table1, x, y)
    # and beside a point in the beam, in one array
    assert in_fov((0.0, 0.0, 0.0), table1, np.array([x, 1.0]),
                  np.array([y, 0.0])).tolist() == [False, True]


def test_the_imager_paints_exactly_what_in_fov_accepts_at_the_range_edge():
    # np.hypot and sqrt(dy * dy + dx * dx) differ by an ulp at some pixels.
    # With range_max_m on the smaller of the two at one of them, an imager
    # and an in_fov that took different range expressions would disagree there.
    grid = ImageGrid(60, 60, 0.02, origin_m=(0.3, -0.6))
    pose = (0.0123, -0.0071, 0.0)
    dx = grid.x_coords()[np.newaxis, :] - pose[0]
    dy = grid.y_coords()[:, np.newaxis] - pose[1]
    exact, libm = np.sqrt(dy * dy + dx * dx), np.hypot(dx, dy)
    # well inside the beam cone and past range_min
    r, c = np.argwhere((exact < libm) & (2.0 * np.abs(dy) < dx) & (exact > 0.5))[0]
    radar = dataclasses.replace(COARSE, range_max_m=float(exact[r, c]))
    painted = build_sar(make_log([pose], [radar]), np.ones((1, 40), complex), grid).pixels != 0
    assert painted[r, c]
    assert np.array_equal(painted, full_grid_mask(pose, radar, grid))


# boresights exactly on the axes, where the rows reach the far arc
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
    pose = (draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)), heading)
    res = draw(st.sampled_from((0.02, 0.05, 0.1)))
    grid = ImageGrid(draw(st.integers(1, 60)), draw(st.integers(1, 60)), res,
                     origin_m=(draw(st.floats(-1.5, 0.5)), draw(st.floats(-1.5, 0.5))))
    return config, pose, grid


@settings(max_examples=300, deadline=None)
@given(scenes())
def test_block_spans_rows_hold_every_in_fov_pixel(scene):
    config, pose, grid = scene
    rows, spans = block_spans(pose, config, grid)
    assert 0 <= rows.start <= rows.stop <= grid.height_px
    assert ((0 <= spans) & (spans <= grid.width_px)).all()
    r, _ = np.nonzero(full_grid_mask(pose, config, grid))
    assert ((rows.start <= r) & (r < rows.stop)).all()


@pytest.mark.parametrize("heading, y_lo, y_hi", [
    (0.0, -3.0 * math.sin(math.radians(30)), 3.0 * math.sin(math.radians(30))),
    # the beam holds the +y axis: from the near corner at 40 deg up to the far arc
    (math.radians(70), 0.4 * math.sin(math.radians(40)), 3.0),
    # it holds the -y axis: from the far arc up to the near corner at -40 deg
    (math.radians(-70), -3.0, -0.4 * math.sin(math.radians(40)))],
    ids=["boresight+x", "holds+y", "holds-y"])
def test_block_spans_rows_are_the_sector_extent_padded_by_one_pixel(table1, heading,
                                                                     y_lo, y_hi):
    assert (table1.range_min_m, table1.range_max_m) == (0.4, 3.0)
    assert table1.beamwidth_rad == pytest.approx(math.radians(60))
    grid = ImageGrid(800, 800, 0.01, origin_m=(-4.0, -4.0))
    rows, _ = block_spans((0.0, 0.0, heading), table1, grid)
    lo_px, hi_px = (y_lo + 4.0) / 0.01, (y_hi + 4.0) / 0.01
    assert lo_px - 1 - 1e-6 <= rows.start <= lo_px + 1e-6
    assert hi_px - 1e-6 <= rows.stop - 1 <= hi_px + 1 + 1e-6


@pytest.mark.parametrize("heading, span", [(0.0, (35, 58)), (math.pi, (7, 30))],
                         ids=["boresight+x", "boresight-x"])
def test_block_spans_trim_the_near_disk_from_either_end(heading, span):
    # One row through the radar, on a grid of 1/8 m pixels, where every bound
    # is exact: the far disk grown by a pixel reaches 3.125 m, and the end the
    # beam cone leaves inside the near disk moves to 0.5 - 0.125 m.
    config = dataclasses.replace(COARSE, range_min_m=0.5, range_max_m=3.0)
    rows, spans = block_spans((0.0, 0.0, heading), config,
                              ImageGrid(64, 1, 0.125, origin_m=(-4.0, 0.0)))
    assert rows == slice(0, 1)
    assert spans.tolist() == [list(span)]


def assert_spans_cover_the_sector(pose, config, grid):
    """Every pixel ``in_fov`` accepts lies in its row block's column span."""
    rows, spans = block_spans(pose, config, grid)
    first = rows.start // BLOCK_ROWS
    blocks = -(-rows.stop // BLOCK_ROWS) - first if rows.stop > rows.start else 0
    assert spans.shape == (blocks, 2)
    r, c = np.nonzero(full_grid_mask(pose, config, grid))
    start, stop = spans[r // BLOCK_ROWS - first].T
    assert ((start <= c) & (c < stop)).all()


@settings(max_examples=300, deadline=None)
@given(scenes(), st.sampled_from((None, -1.0, 1.0)), st.sampled_from(AXIS_ANGLES))
@example((RadarConfig(1e9, 0.3e9, 0.2e9, beamwidth_rad=0.5, range_min_m=0.05, range_max_m=0.55),
          (0.0, 0.0, 0.0), ImageGrid(1, 4, 0.02)), -1.0, math.pi / 2)  # pixels on the edge
def test_block_spans_cover_every_in_fov_pixel(scene, edge, axis):
    # pytest turns RuntimeWarning into an error (pyproject.toml), so a divide
    # by zero or the sqrt of a negative fails here too.
    config, pose, grid = scene
    if edge is not None:  # a beam edge on an axis, where a half-plane bounds no column
        boresight = axis + edge * config.beamwidth_rad / 2.0
        pose = (pose[0], pose[1], boresight - config.mount_angle_rad)
    assert_spans_cover_the_sector(pose, config, grid)


@settings(max_examples=100, deadline=None)
@given(scenes(), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_single_scan_matches_full_grid_oracle(scene, n_bins, seed):
    config, pose, grid = scene
    log, bins = make_log([pose], [config]), random_bins(np.random.default_rng(seed), 1, n_bins)
    [layer] = oracle_layers(log, bins, grid)
    assert np.array_equal(build_sar(log, bins, grid).pixels, layer)


def test_backproject_zero_scan_is_zero():
    grid = ImageGrid(40, 40, 0.05, origin_m=(-1.0, -1.0))
    out = build_sar(make_log([(0, 0, 0)], [COARSE]), np.zeros((1, 64), complex), grid)
    assert np.all(out.pixels == 0)
    assert out.scan_count == 1


def test_single_bin_scan_paints_the_masked_annulus():
    grid = ImageGrid(50, 50, 0.05, origin_m=(-1.25, -1.25))
    pose = (0.0, 0.0, 0.0)
    dd = range_bin_spacing(COARSE)
    hot_bin = 8
    bins = np.zeros((1, 40), dtype=complex)
    bins[0, hot_bin] = 2.0 - 1.0j
    out = build_sar(make_log([pose], [COARSE]), bins, grid)

    painted = 0
    for r in range(grid.height_px):
        for c in range(grid.width_px):
            x = grid.origin_m[0] + c * grid.resolution_m
            y = grid.origin_m[1] + r * grid.resolution_m
            rho = math.hypot(x - pose[0], y - pose[1])
            expect = 0.0
            if in_fov(pose, COARSE, x, y) and math.floor(rho / dd + 0.5) == hot_bin:
                expect = 2.0 - 1.0j
                painted += 1
            assert out.pixels[r, c] == expect, (r, c)
    assert painted > 0


def test_bins_past_scan_end_contribute_zero():
    grid = ImageGrid(50, 50, 0.05, origin_m=(-1.25, -1.25))
    pose = (0.0, 0.0, 0.0)
    short = np.full((1, 4), 1.0 + 0j)  # covers only ~0.6 m
    log = make_log([pose], [COARSE])
    out = build_sar(log, short, grid)
    assert np.all(np.isfinite(out.pixels))
    # pixels beyond the last bin stay zero even though they are in the FOV
    assert full_grid_mask(pose, COARSE, grid).sum() > np.count_nonzero(out.pixels)
    assert np.array_equal(out.pixels, oracle_layers(log, short, grid)[0])


def _random_scans(n, pose_spread=0.5, n_bins=40, seed=0):
    """A log of ``n`` COARSE scans at random poses and its random bins."""
    rng = np.random.default_rng(seed)
    bins = random_bins(rng, n, n_bins)
    poses = [(rng.uniform(-pose_spread, pose_spread), rng.uniform(-pose_spread, pose_spread),
              rng.uniform(-math.pi, math.pi)) for _ in range(n)]
    return make_log(poses, [COARSE]), bins


def test_build_sar_matches_explicit_sum():
    grid = ImageGrid(30, 30, 0.1, origin_m=(-1.5, -1.5))
    log, bins = _random_scans(6, seed=3)
    total = build_sar(log, bins, grid)
    assert np.array_equal(total.pixels, sum(oracle_layers(log, bins, grid)))
    assert total.scan_count == 6

    single = build_sar(ScanLog(log.radars, log.records[:1]), bins[:1], grid)
    assert np.array_equal(single.pixels, oracle_layers(log, bins, grid)[0])
    with pytest.raises(ValueError, match="no scans"):
        build_sar(ScanLog(log.radars, log.records[:0]), bins[:0], grid)
    # one row of bins per record, no more and no fewer
    for rows in (bins[:5], np.vstack([bins, bins[:1]]), bins[0]):
        with pytest.raises(ValueError, match="one row of bins per scan"):
            build_sar(log, rows, grid)


def test_scan_order_permutation_is_harmless():
    grid = ImageGrid(30, 30, 0.1, origin_m=(-1.5, -1.5))
    log, bins = _random_scans(8, seed=4)
    forward = build_sar(log, bins, grid).pixels
    backward = build_sar(ScanLog(log.radars, log.records[::-1]), bins[::-1], grid).pixels
    scale = np.max(np.abs(forward))
    assert np.allclose(forward, backward, rtol=1e-6, atol=1e-6 * scale)


def test_per_scan_energy_bound():
    grid = ImageGrid(40, 40, 0.05, origin_m=(-1.0, -1.0))
    log, bins = _random_scans(5, n_bins=30, seed=6)
    for k, (pose, _, row) in enumerate(scans_of(log, bins)):
        part = build_sar(ScanLog(log.radars, log.records[k:k + 1]), bins[k:k + 1], grid)
        masked = int(full_grid_mask(pose, COARSE, grid).sum())
        assert np.sum(np.abs(part.pixels)) <= masked * np.max(np.abs(row)) + 1e-9


def test_build_sar_takes_each_scans_radar_from_its_record():
    # Two radars that differ only in mount: a record's radar_index picks the
    # one whose FOV its scan paints.
    grid = ImageGrid(120, 120, 0.05, origin_m=(-3.0, -3.0))
    radars = tuple(dataclasses.replace(COARSE, mount_angle_rad=m)
                   for m in (math.pi / 2, -math.pi / 2))
    pose = (0.0, 0.0, 0.0)
    bins = np.ones((1, 30), complex)  # 30 bins reach past range_max
    for index in (0, 1):
        painted = build_sar(make_log([pose], radars, [index]), bins, grid).pixels != 0
        assert painted.any()
        assert np.array_equal(painted, full_grid_mask(pose, radars[index], grid))


def test_side_mounted_radars_illuminate_disjoint_half_planes(table1):
    grid = ImageGrid(120, 120, 0.05, origin_m=(-3.0, -3.0))
    pose = (0.0, 0.0, 0.0)  # heading +x
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
    poses = [(0, 0, 0), (1.5, 0.25, 0)]
    grid = derive_grid(poses, table1, 0.01)
    assert grid.resolution_m == 0.01
    assert grid.origin_m[0] == pytest.approx(-3.0)
    assert grid.origin_m[1] == pytest.approx(-3.0)
    assert grid.x_coords()[-1] >= 1.5 + 3.0
    assert grid.y_coords()[-1] >= 0.25 + 3.0
    with pytest.raises(ValueError):
        derive_grid([], table1, 0.01)


@pytest.mark.parametrize("poses, resolution_m, message", [
    ([(0, 0, 0), (1.5, 0.25, 0)], 1e-320,
     "grid_resolution_m=1e-320 over a 7.5 x 6.25 m extent gives inf pixels"),
    ([(0, 0, 0), (1.5, 0.25, 0)], 1e-9,
     "grid_resolution_m=1e-09 over a 7.5 x 6.25 m extent gives 4.69e+19 pixels"),
    ([(0, 0, 0), (1e308, 0, 0)], 0.01,
     "grid_resolution_m=0.01 over a 1e+308 x 6 m extent gives inf pixels")],
    ids=["subnormal", "past-the-byte-cap", "far-pose"])
def test_derive_grid_refuses_a_grid_no_array_can_hold(table1, poses, resolution_m, message):
    # refused by name before anything is allocated, not by math.ceil's
    # OverflowError or numpy's size errors
    with pytest.raises(ValueError, match=re.escape(message + ", more than an array can hold")):
        derive_grid(poses, table1, resolution_m)


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
    """The bundled demo's scan log (both mounts), its compressed bins and its grid."""
    out = tmp_path_factory.mktemp("demo")
    assert main(["simulate", "--scene", str(DEMO / "scene.txt"),
                 "--trajectory", str(DEMO / "trajectory.txt"), "--out", str(out)]) == 0
    cfg = load_config(None, [])
    log = load_scan_log(out / "scanlog.bin")
    bins = compress_scan(log.records["samples"], log.radars[0])
    grid = derive_grid(log.records["pose"], log.radars[0], cfg.grid_resolution_m)
    return log, bins, grid


def test_demo_map_equals_the_scatter_oracle(demo_scans):
    log, bins, grid = demo_scans
    assert len(log) == 122
    assert len({radar.mount_angle_rad for _, radar, _ in scans_of(log, bins)}) == 2
    assert grid.height_px % BLOCK_ROWS
    sar = build_sar(log, bins, grid)
    assert sar.pixels.tobytes() == scatter_oracle(log, bins, grid).tobytes()


def test_first_demo_scans_equal_the_scatter_oracle_at_the_default_grid(demo_scans):
    # The oracle takes its bins from np.hypot ranges, which differ from the
    # imager's by an ulp at some in-FOV pixels: no bin or verdict may move.
    log, bins, grid = demo_scans
    first = ScanLog(log.radars, log.records[:20])
    assert grid.resolution_m == 0.005
    assert (build_sar(first, bins[:20], grid).pixels.tobytes()
            == scatter_oracle(first, bins[:20], grid).tobytes())
    differ = 0
    for pose, radar, _ in scans_of(first, bins):
        r, c = np.nonzero(full_grid_mask(pose, radar, grid))
        dx, dy = grid.x_coords()[c] - pose[0], grid.y_coords()[r] - pose[1]
        differ += np.count_nonzero(np.sqrt(dy * dy + dx * dx) != np.hypot(dx, dy))
    assert differ > 0


def test_block_spans_clip_the_demo_windows(demo_scans):
    # The spans must skip most out-of-sector pixels of each scan's window (the
    # bounding box of its in-FOV pixels), and come close to the exact
    # per-block hull of those pixels.
    log, bins, grid = demo_scans
    window = spanned = hull = 0
    for pose, radar, _ in scans_of(log, bins):
        mask = full_grid_mask(pose, radar, grid)
        r, c = np.nonzero(mask.any(axis=1))[0], np.nonzero(mask.any(axis=0))[0]
        window += (r[-1] - r[0] + 1) * (c[-1] - c[0] + 1)
        rows, spans = block_spans(pose, radar, grid)
        first = rows.start // BLOCK_ROWS
        for k, (start, stop) in enumerate(spans):
            block = mask[max(rows.start, (first + k) * BLOCK_ROWS):
                         min(rows.stop, (first + k + 1) * BLOCK_ROWS)]
            spanned += len(block) * max(0, stop - start)
            inside = np.nonzero(block.any(axis=0))[0]
            hull += len(block) * (inside[-1] - inside[0] + 1 if inside.size else 0)
    assert spanned <= 0.70 * window
    assert spanned <= 1.02 * hull


def test_rotated_demo_path_equals_the_scatter_oracle(side_radars):
    # The demo path turned by 20 deg: with the side radars' 60 deg beams, no
    # boresight or beam edge lies on an axis (at 30 deg, edges would be at 90).
    turn = math.radians(20.0)
    path = generate_trajectory(load_trajectory(DEMO / "trajectory.txt"),
                               load_config(None, []).scan_spacing_m)
    poses = [(x * math.cos(turn) - y * math.sin(turn),
              x * math.sin(turn) + y * math.cos(turn), theta + turn)
             for x, y, theta in path[::6].tolist()]
    for pose in poses:
        for radar in side_radars:
            for edge in (-1.0, 1.0):
                angle = pose[2] + radar.mount_angle_rad + edge * radar.beamwidth_rad / 2
                assert abs(math.remainder(angle, math.pi / 2)) > 0.1
    log = make_log([pose for pose in poses for _ in side_radars], side_radars,
                   [0, 1] * len(poses))
    bins = random_bins(np.random.default_rng(12), len(log), 500)
    assert len(log) == 22
    grid = derive_grid(poses, side_radars[0], 0.005)
    assert (build_sar(log, bins, grid).pixels.tobytes()
            == scatter_oracle(log, bins, grid).tobytes())


@st.composite
def block_scenes(draw):
    """A log whose scans' rows span several row blocks of a grid whose
    height is not a multiple of BLOCK_ROWS, and its bins; the first scan sits
    on the grid's bottom edge looking along it, so its rows are clipped
    there. The log's radars differ only in mount, as a scan log's do."""
    height = draw(st.integers(2 * BLOCK_ROWS + 1, 5 * BLOCK_ROWS).filter(
        lambda h: h % BLOCK_ROWS))
    grid = ImageGrid(draw(st.integers(1, 120)), height, 0.01,
                     origin_m=(draw(st.floats(-1.0, 0.0)), draw(st.floats(-1.0, 0.0))))
    r_min = draw(st.floats(0.05, 0.5))
    config = RadarConfig(1e9, 0.3e9, 0.2e9, beamwidth_rad=draw(
        st.floats(1.0, math.nextafter(math.pi, 0.0))), range_min_m=r_min,
        range_max_m=r_min + draw(st.floats(1.0, 2.0)))
    radars = (config, dataclasses.replace(config, mount_angle_rad=draw(headings)))
    poses, index = [], []
    for k in range(draw(st.integers(1, 4))):
        if k == 0:
            y, heading = grid.origin_m[1], draw(st.sampled_from((0.0, math.pi)))
        else:
            y, heading = draw(st.floats(-1.0, 2.0)), draw(headings)
        poses.append((draw(st.floats(-1.0, 1.0)), y, heading))
        index.append(draw(st.sampled_from((0, 1))) if k else 0)
    bins = random_bins(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                       len(poses), draw(st.integers(1, 20)))
    return make_log(poses, radars, index), bins, grid


@settings(max_examples=60, deadline=None)
@given(block_scenes())
def test_row_blocks_match_the_scatter_oracle(scene):
    log, bins, grid = scene
    scans = scans_of(log, bins)
    rows, _ = block_spans(*scans[0][:2], grid)
    assert rows.start == 0
    assert np.array_equal(build_sar(log, bins, grid).pixels, scatter_oracle(log, bins, grid))
    for pose, radar, _ in scans:
        assert_spans_cover_the_sector(pose, radar, grid)


def test_repeated_and_streamed_calls_give_the_same_bytes(tmp_path):
    grid = ImageGrid(150, 3 * BLOCK_ROWS + 5, 0.02, origin_m=(-1.5, -2.0))
    log, bins = _random_scans(8, pose_spread=1.0, seed=9)
    first = build_sar(log, bins, grid).pixels.tobytes()
    for _ in range(2):
        assert build_sar(log, bins, grid).pixels.tobytes() == first
    # streamed in from a file: read-only records over its bytes, and a
    # column-major bins table
    save_scan_log(log, tmp_path / "scanlog.bin")
    streamed = load_scan_log(tmp_path / "scanlog.bin")
    assert not streamed.records.flags.writeable
    assert build_sar(streamed, np.asfortranarray(bins), grid).pixels.tobytes() == first


@pytest.mark.parametrize("threads", ["one", "all"])
def test_backproject_streams_the_bytes_of_the_library_image(tmp_path, monkeypatch, threads):
    # Two poses 6 m apart along y: the grid's 841 rows are 13 bands and 9 rows,
    # and the bands between the poses' reach hold no scan.
    (tmp_path / "scene.txt").write_text("0.6 0.2 1.0\n-0.5 6.3 1.2\n")
    (tmp_path / "traj.txt").write_text("0 0 0\n0 6 0\n")
    settings = [f"{key}={value}" for key, value in
                (("range_max_m", 1.2), ("grid_resolution_m", 0.01), ("scan_spacing_m", 6))]
    argv = [a for setting in settings for a in ("--set", setting)]
    out = tmp_path / "m"
    assert main(["simulate", "--scene", str(tmp_path / "scene.txt"),
                 "--trajectory", str(tmp_path / "traj.txt"), "--out", str(out), *argv]) == 0
    log = load_scan_log(out / "scanlog.bin")
    bins = compress_scan(log.records["samples"], log.radars[0])
    grid = derive_grid(log.records["pose"], log.radars[0], load_config(None, settings)
                       .grid_resolution_m)
    assert grid.height_px == 841 and grid.height_px % BLOCK_ROWS
    reached = set()
    for pose, radar, _ in scans_of(log, bins):
        rows, spans = block_spans(pose, radar, grid)
        reached.update(range(rows.start // BLOCK_ROWS, rows.start // BLOCK_ROWS + len(spans)))
    assert len(log) == 4 and len(reached) < 14
    write_sar_dump(build_sar(log, bins, grid), tmp_path / "library.cpx")
    if threads == "one":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main(["backproject", "--scanlog", str(out / "scanlog.bin"), "--out", str(out),
                 *argv]) == 0
    assert (out / "sar.cpx").read_bytes() == (tmp_path / "library.cpx").read_bytes()
    assert sorted(p.name for p in out.iterdir()) == ["sar.cpx", "scanlog.bin", "truth.pgm"]


def test_more_threads_than_cores_give_the_same_bytes(monkeypatch):
    # Every scan's rows are all the rows of a grid of several row blocks
    # (the last one partial), so rows written by two tasks, or scans added
    # out of scan order, would lose updates or round differently.
    grid = ImageGrid(300, 4 * BLOCK_ROWS + 13, 0.005, origin_m=(0.0, -0.67))
    rng = np.random.default_rng(10)
    bins = random_bins(rng, 48, 40)
    log = make_log([(x, 0.0, 0.0) for x in rng.uniform(-0.1, 0.1, 48)], [COARSE])
    assert all(block_spans(pose, radar, grid)[0] == slice(0, grid.height_px)
               for pose, radar, _ in scans_of(log, bins))
    expect = scatter_oracle(log, bins, grid).tobytes()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(1) as runner:
            sar = runner.submit(build_sar, log, bins, grid).result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert sar.pixels.tobytes() == expect


def strip_scans(n_bands: int):
    """Eleven scans from 100 m below a 1024 px wide grid of ``n_bands`` bands, each
    with a 0.6 degree beam up the grid: a strip of about 105 columns over every
    row. Side by side, 1 m apart, the strips cover every pixel, so each band's
    buffer is written over every page, while a scan's temporaries over a band
    stay a tenth of the band. Every pixel lies past the last bin and adds 0."""
    grid = ImageGrid(1024, n_bands * BLOCK_ROWS, 0.01)
    radar = dataclasses.replace(COARSE, beamwidth_rad=math.radians(0.6), range_min_m=50.0,
                                range_max_m=150.0)
    log = make_log([(float(x), -100.0, math.pi / 2) for x in range(11)], [radar])
    return log, np.ones((len(log), 8), dtype=np.complex128), grid


def test_strip_scans_cover_every_pixel_of_every_band():
    log, bins, grid = strip_scans(2)
    cover = np.zeros((grid.height_px, grid.width_px), dtype=bool)
    for pose, radar, _ in scans_of(log, bins):
        rows, spans = block_spans(pose, radar, grid)
        assert rows == slice(0, grid.height_px) and (spans[:, 1] - spans[:, 0] < 128).all()
        for k, (lo, hi) in enumerate(spans):
            cover[k * BLOCK_ROWS:(k + 1) * BLOCK_ROWS, lo:hi] = True
    assert cover.all()


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc")
@pytest.mark.parametrize("threads", [1, 2])
def test_a_slow_reader_holds_at_most_two_bands_more_than_the_pool(threads):
    # A reader that sleeps on each of 24 bands of 1 MB, in a child process with
    # ``threads`` usable cores: ``threads + 2`` buffers are alive at most, the band
    # it holds and the one it asks for included. Bound: VmHWM growth of
    # ``threads + 2`` bands, plus 1 MB per pool thread for the temporaries of its
    # scans (a tenth of a band) and its stack.
    code = ("import os, sys, time\n"
            "os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))\n"
            "from test_backprojection import sar_bands, strip_scans\n"
            "def peak():\n"
            "    with open('/proc/self/status') as status:\n"
            "        return next(int(line.split()[1]) for line in status\n"
            "                    if line.startswith('VmHWM:'))\n"
            "bands = sar_bands(*strip_scans(24))\n"
            "before = peak()\n"
            "for band in bands:\n"
            "    time.sleep(0.02)\n"
            "print(band.nbytes, 1024 * (peak() - before))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(backprojection.__file__).parents[1]), str(Path(__file__).parent)])}
    done = subprocess.run([sys.executable, "-c", code, str(threads)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    band_bytes, grown = map(int, done.stdout.split())
    assert band_bytes == 1024 * BLOCK_ROWS * 16
    assert grown <= (threads + 2) * band_bytes + threads * 2**20, grown / band_bytes


def test_closing_after_the_first_band_starts_no_further_band(monkeypatch):
    # Two pool threads and 24 bands, each summed slowly: while the reader holds
    # the first band, only the two summed ahead of it (one per pool thread) may
    # start, and once the generator is closed, none.
    started = []
    sector = backprojection._sector

    def slow_sector(pose, config, x, y):
        started.append(float(y[0]))
        time.sleep(0.002)
        return sector(pose, config, x, y)

    monkeypatch.setattr(backprojection, "_sector", slow_sector)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    log, bins, grid = strip_scans(24)
    bands = sar_bands(log, bins, grid)
    next(bands)
    time.sleep(0.3)
    bands.close()
    bands_started = {round(y / grid.resolution_m) // BLOCK_ROWS for y in started}
    assert {0} <= bands_started <= {0, 1, 2}
    count = len(started)
    time.sleep(0.2)
    # a band started before the close is summed whole; none starts after it
    assert len(started) == count == len(bands_started) * len(log)
