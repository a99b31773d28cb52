"""Forward simulation: trajectory sampling, echo synthesis, scene files."""

import math
import re

import numpy as np
import pytest

from sarloop import (Pose2, Scatterer, TrajectorySpec, compress_scan,
                     default_pulse_half_duration, generate_trajectory,
                     load_scene, load_trajectory, noise_std_for_snr,
                     render_scene, save_scene, save_trajectory, simulate_echo,
                     synthesize_pulse)
from sarloop.radar import range_bin_spacing
from sarloop.simulate import default_bin_count


def straight_spec(length_m=1.0, spacing_m=0.1, **kw):
    return TrajectorySpec((Pose2(0, 0, 0), Pose2(length_m, 0, 0)), spacing_m, **kw)


def test_straight_path_sampling():
    samples = generate_trajectory(straight_spec())
    assert len(samples) == 11
    xs = [robot.x_m for robot, _ in samples]
    assert xs == pytest.approx(np.arange(11) * 0.1)
    assert all(robot.y_m == 0 and robot.theta_rad == 0 for robot, _ in samples)


def test_mount_angle_bakes_into_radar_heading():
    spec = straight_spec(radar_mounts=(math.pi / 2,))
    for robot, radars in generate_trajectory(spec):
        assert len(radars) == 1
        assert radars[0].theta_rad == pytest.approx(math.pi / 2)
        assert (radars[0].x_m, radars[0].y_m) == (robot.x_m, robot.y_m)


def test_corner_heading_switches_to_outgoing_segment():
    spec = TrajectorySpec((Pose2(0, 0, 0), Pose2(1, 0, 0), Pose2(1, 1, 0)), 0.25,
                          radar_mounts=(0.0,))
    samples = generate_trajectory(spec)
    assert len(samples) == 9  # arc lengths 0.0 .. 2.0
    for k, (robot, _) in enumerate(samples):
        want = 0.0 if k < 4 else math.pi / 2  # the s=1.0 sample sits on the corner
        assert robot.theta_rad == pytest.approx(want)


def test_lever_arm_rotates_with_heading():
    spec = TrajectorySpec((Pose2(0, 0, 0), Pose2(0, 1, 0)), 0.5,
                          radar_mounts=(0.0,), lever_arm_m=(0.1, 0.05))
    robot, radars = generate_trajectory(spec)[0]
    # heading +pi/2: x' = -ly, y' = +lx
    assert radars[0].x_m == pytest.approx(-0.05)
    assert radars[0].y_m == pytest.approx(0.1)


def test_trajectory_rejections():
    with pytest.raises(ValueError, match="degenerate"):
        generate_trajectory(TrajectorySpec((Pose2(0, 0, 0), Pose2(0, 0, 0)), 0.1))
    with pytest.raises(ValueError):
        TrajectorySpec((Pose2(0, 0, 0),), 0.1)
    with pytest.raises(ValueError):
        TrajectorySpec((Pose2(0, 0, 0), Pose2(1, 0, 0)), 0.0)
    with pytest.raises(ValueError):
        TrajectorySpec((Pose2(0, 0, 0), Pose2(1, 0, 0)), 0.1, radar_mounts=())
    with pytest.raises(ValueError, match="rng"):
        generate_trajectory(straight_spec(odo_step_std_m=0.01))


def test_empty_scene_echo_is_silent(table1):
    scan = simulate_echo([], Pose2(0, 0, 0), table1, default_bin_count(table1))
    assert np.all(scan.samples == 0)


def test_scatterer_outside_beam_contributes_nothing(table1):
    off = math.radians(40)  # past the 30 deg half-beam
    scene = [Scatterer(math.cos(off), math.sin(off), 1.0)]
    scan = simulate_echo(scene, Pose2(0, 0, 0), table1, default_bin_count(table1))
    assert np.all(scan.samples == 0)


def test_scatterer_at_one_meter_compresses_to_bin_156(table1):
    scan = simulate_echo([Scatterer(1.0, 0.0, 1.0)], Pose2(0, 0, 0), table1,
                         default_bin_count(table1))
    pulse = synthesize_pulse(table1, default_pulse_half_duration(table1))
    compressed = compress_scan(scan, pulse)
    assert int(np.argmax(np.abs(compressed.bins))) == 156
    assert math.floor(1.0 / range_bin_spacing(table1) + 0.5) == 156


def test_echoes_superpose_exactly(table1):
    pose = Pose2(0, 0, 0)
    n = default_bin_count(table1)
    parts = [Scatterer(0.8, 0.1, 1.0), Scatterer(1.3, -0.2, 0.7),
             Scatterer(2.1, 0.4, 1.4)]
    combined = simulate_echo(parts, pose, table1, n)
    sum_of_parts = sum(simulate_echo([s], pose, table1, n).samples for s in parts)
    assert np.array_equal(combined.samples, sum_of_parts)


def test_doubling_rcs_scales_amplitude_by_sqrt2(table1):
    pose = Pose2(0, 0, 0)
    n = default_bin_count(table1)
    one = simulate_echo([Scatterer(1.0, 0.0, 1.0)], pose, table1, n).samples
    two = simulate_echo([Scatterer(1.0, 0.0, 2.0)], pose, table1, n).samples
    assert np.any(one != 0)
    # atol absorbs subnormal tails at the envelope's underflow edge
    assert np.allclose(two, math.sqrt(2.0) * one, rtol=1e-12, atol=1e-300)


def test_echo_error_paths(table1, small_grid):
    with pytest.raises(ValueError, match="less than range_max"):
        simulate_echo([], Pose2(0, 0, 0), table1, 100)
    with pytest.raises(ValueError, match="rng"):
        render_scene([Scatterer(0.5, 0.6, 1.0)], straight_spec(), table1,
                     small_grid, snr_db=20.0)
    with pytest.raises(ValueError):
        Scatterer(0.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        Scatterer(math.nan, 0.0, 1.0)


def test_render_scene_scan_layout(table1, small_grid):
    scene = [Scatterer(0.5, 0.6, 1.0)]
    spec = straight_spec(radar_mounts=(math.pi / 2, -math.pi / 2))
    scans, truth = render_scene(scene, spec, table1, small_grid)
    assert len(scans) == 22  # 11 poses x 2 radars
    assert all(s.pose.theta_rad == 0.0 for s in scans)  # robot heading, not boresight
    # only the +y-looking radar sees the scatterer
    up = np.array([np.abs(s.samples).max() for s in scans[0::2]])
    down = np.array([np.abs(s.samples).max() for s in scans[1::2]])
    assert up.max() > 0
    assert np.all(down == 0)


def test_render_scene_truth_grid_marks_nearest_cells(table1, small_grid):
    scene = [Scatterer(0.5, 0.6, 1.0), Scatterer(0.514, 0.6, 1.0),
             Scatterer(9.0, 9.0, 1.0)]  # third lands off-grid
    scans, truth = render_scene(scene, straight_spec(), table1, small_grid)
    rows, cols = np.nonzero(truth)
    got = {(int(r), int(c)) for r, c in zip(rows, cols)}
    res, (ox, oy) = small_grid.resolution_m, small_grid.origin_m
    want = {(round((0.6 - oy) / res), round((0.5 - ox) / res)),
            (round((0.6 - oy) / res), round((0.514 - ox) / res))}
    assert got == want


def test_render_scene_noise_is_reproducible(table1, small_grid):
    scene = [Scatterer(0.5, 0.6, 1.0)]
    spec = straight_spec()
    a, _ = render_scene(scene, spec, table1, small_grid, snr_db=20.0,
                        rng=np.random.default_rng(7))
    b, _ = render_scene(scene, spec, table1, small_grid, snr_db=20.0,
                        rng=np.random.default_rng(7))
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.samples, sb.samples)
    # noise is sized from the clean echoes and drawn in scan order
    clean, _ = render_scene(scene, spec, table1, small_grid)
    std = noise_std_for_snr(clean, 20.0)
    rng = np.random.default_rng(7)
    for sa, sc in zip(a, clean):
        want = sc.samples + rng.normal(0.0, std, size=sc.samples.size)
        assert np.array_equal(sa.samples, want)


def test_noise_std_for_snr(table1, small_grid):
    scans, _ = render_scene([Scatterer(0.5, 0.6, 1.0)], straight_spec(),
                            table1, small_grid)
    peak = max(np.abs(s.samples).max() for s in scans)
    assert noise_std_for_snr(scans, 20.0) == pytest.approx(peak / 10.0)
    assert noise_std_for_snr(scans, math.inf) == 0.0
    with pytest.raises(ValueError):
        noise_std_for_snr([], 10.0)


def test_scene_and_trajectory_files_round_trip(tmp_path):
    scene = [Scatterer(0.25, -0.5, 1.0), Scatterer(1.5, 0.75, 2.5)]
    path = tmp_path / "scene.txt"
    save_scene(scene, path)
    assert load_scene(path) == scene

    poses = [Pose2(0, 0, 0), Pose2(1.5, 0.25, math.pi / 2)]
    tpath = tmp_path / "traj.txt"
    save_trajectory(poses, tpath)
    assert load_trajectory(tpath) == poses

    commented = tmp_path / "commented.txt"
    commented.write_text("# a scatterer\n0.25 -0.5 1.0\n\n1.5 0.75 2.5\n")
    assert load_scene(commented) == scene
    bad = tmp_path / "bad.txt"
    bad.write_text("0.25 -0.5\n")
    with pytest.raises(ValueError, match="bad.txt:1"):
        load_scene(bad)


@pytest.mark.parametrize("load", [load_scene, load_trajectory])
def test_non_numeric_fields_name_the_file_and_line(tmp_path, load):
    path = tmp_path / "bad.txt"
    path.write_text("0.25 -0.5 1.0\n0.5 abc 1.0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2")):
        load(path)
    path.write_bytes(b"0.25 -0.5 \xff\n")
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load(path)
