"""Forward simulation: trajectory sampling, echo synthesis, scene files."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sarloop import (compress_scan, generate_trajectory, in_fov, load_scene, load_trajectory,
                     render_scene, simulate_echo)
import sarloop.simulate
from sarloop.radar import SPEED_OF_LIGHT, pulse_value, range_bin_spacing
from sarloop.simulate import default_bin_count, noise_std_for_snr


def straight_poses():
    """Robot poses every 0.1 m along a 1 m path on the x axis."""
    return generate_trajectory(((0, 0, 0), (1, 0, 0)), 0.1)


def test_straight_path_sampling():
    samples = straight_poses()
    assert samples.dtype == np.float64 and samples.shape == (11, 3)
    assert samples[:, 0].tolist() == pytest.approx(np.arange(11) * 0.1)
    assert (samples[:, 1:] == 0).all()


def test_each_mount_fires_from_the_robot_pose(table1, small_grid):
    robots = straight_poses()
    log, _ = render_scene([], robots, [replace(table1, mount_angle_rad=math.pi / 2)],
                          small_grid)
    assert len(log) == len(robots)
    assert np.array_equal(log.records["pose"], robots)
    for index in log.records["radar_index"]:
        assert log.radars[index].mount_angle_rad == pytest.approx(math.pi / 2)


def test_corner_heading_switches_to_outgoing_segment():
    samples = generate_trajectory(((0, 0, 0), (1, 0, 0), (1, 1, 0)), 0.25)
    assert len(samples) == 9  # arc lengths 0.0 .. 2.0
    for k, heading in enumerate(samples[:, 2].tolist()):
        want = 0.0 if k < 4 else math.pi / 2  # the s=1.0 sample sits on the corner
        assert heading == pytest.approx(want)
    # arctan2 gives -pi along -x from a -0.0 y: the heading is wrapped to pi
    assert generate_trajectory(((1, 0, 0), (0, -0.0, 0)), 0.5)[:, 2].tolist() == [math.pi] * 3


@pytest.mark.parametrize("repeat", [1, 2])
def test_repeated_waypoints_add_no_samples(repeat):
    # A path ending on (or passing through) a repeated waypoint is the same
    # path as without the repeat; only the repeat's heading differs.
    plain = ((0, 0, 0), (1, 0, 0), (1, 1, 0))
    for doubled in (plain + ((1, 1, 2.0),) * repeat,
                    plain[:2] + ((1, 0, 2.0),) * repeat + plain[2:]):
        assert np.array_equal(generate_trajectory(doubled, 0.25),
                              generate_trajectory(plain, 0.25))
    ending = ((0, 0, 0), (1, 0, 0), (1, 0, 0))
    assert np.array_equal(generate_trajectory(ending, 0.25),
                          [(k * 0.25, 0.0, 0.0) for k in range(5)])


def test_trajectory_rejections():
    with pytest.raises(ValueError, match="degenerate"):
        generate_trajectory(((0, 0, 0), (0, 0, 0)), 0.1)
    with pytest.raises(ValueError, match="at least 2 waypoints"):
        generate_trajectory(((0, 0, 0),), 0.1)
    for spacing in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError, match="scan_spacing_m must be positive"):
            generate_trajectory(((0, 0, 0), (1, 0, 0)), spacing)
    # more scans than an array can hold: refused before any is made, with
    # no warning for a path longer than the float range
    for xs, spacing in (((0.0, 1e300), 0.025), ((0.0, 1.0), 1e-300), ((0.0, 3.0), 1e-18),
                        ((-1.7e308, 1.7e308), 1.0), ((0.0, 1.5e308, 0.0), 1.0)):
        with pytest.raises(ValueError, match="scan_spacing_m=.* m path gives .* scans"):
            generate_trajectory([(x, 0, 0) for x in xs], spacing)
    # a non-finite waypoint is refused by the index of the first one
    for bad in ((math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0.0, 0.0, -math.inf)):
        with pytest.raises(ValueError, match=r"^waypoint 2: pose must be finite"):
            generate_trajectory([(0, 0, 0), (1, 0, 0), bad, (2, 0, 0), bad], 0.1)


def test_empty_scene_echo_is_silent(table1):
    echo = simulate_echo([], (0, 0, 0), table1)
    assert np.all(echo == 0)


def test_scatterer_outside_beam_contributes_nothing(table1):
    off = math.radians(40)  # past the 30 deg half-beam
    scene = [(math.cos(off), math.sin(off), 1.0)]
    echo = simulate_echo(scene, (0, 0, 0), table1)
    assert np.all(echo == 0)


def test_scatterer_at_one_meter_compresses_to_bin_156(table1):
    echo = simulate_echo([(1.0, 0.0, 1.0)], (0, 0, 0), table1)
    assert int(np.argmax(np.abs(compress_scan(echo, table1)))) == 156
    assert math.floor(1.0 / range_bin_spacing(table1) + 0.5) == 156


def test_echoes_superpose_exactly(table1):
    pose = (0, 0, 0)
    parts = [(0.8, 0.1, 1.0), (1.3, -0.2, 0.7), (2.1, 0.4, 1.4)]
    combined = simulate_echo(parts, pose, table1)
    sum_of_parts = sum(simulate_echo([s], pose, table1) for s in parts)
    assert np.array_equal(combined, sum_of_parts)


def test_doubling_rcs_scales_amplitude_by_sqrt2(table1):
    pose = (0, 0, 0)
    one = simulate_echo([(1.0, 0.0, 1.0)], pose, table1)
    two = simulate_echo([(1.0, 0.0, 2.0)], pose, table1)
    assert np.any(one != 0)
    # atol absorbs subnormal tails at the envelope's underflow edge
    assert np.allclose(two, math.sqrt(2.0) * one, rtol=1e-12, atol=1e-300)


def test_echo_error_paths(side_radars, small_grid):
    with pytest.raises(ValueError, match="rng"):
        render_scene([(0.5, 0.6, 1.0)], straight_poses(), side_radars,
                     small_grid, snr_db=20.0)
    with pytest.raises(ValueError, match="at least one radar"):
        render_scene([], straight_poses(), (), small_grid)


def test_radars_that_differ_beyond_mount_are_refused(side_radars, small_grid):
    # A scan log's header describes one radar plus a mount per radar.
    radars = (side_radars[0], replace(side_radars[1], range_max_m=2.0))
    with pytest.raises(ValueError, match="may differ only in mount"):
        render_scene([(0.5, 0.6, 1.0)], straight_poses(), radars, small_grid)


@pytest.mark.parametrize("bad", [(0.0, 0.0, -1.0), (math.nan, 0.0, 1.0), (0.0, math.inf, 1.0),
                                 (0.0, 0.0, math.inf), (0.0, 0.0, math.nan)])
def test_the_first_bad_scatterer_is_named(table1, side_radars, small_grid, bad):
    scene = [(0.5, 0.6, 1.0)] * 2 + [bad, (0.5, 0.6, 1.0), bad]
    with pytest.raises(ValueError, match=r"^scatterer 2: position must be finite and rcs >= 0"):
        simulate_echo(scene, (0, 0, 0), table1)
    with pytest.raises(ValueError, match=r"^scatterer 2: "):
        render_scene(np.array(scene), straight_poses(), side_radars, small_grid)


@pytest.mark.parametrize("scene", [[1.0, 2.0, 3.0], [(1.0, 2.0)], np.zeros((2, 3, 1))],
                         ids=["flat", "two-columns", "3-d"])
def test_a_scene_is_a_table_of_three_columns(table1, scene):
    with pytest.raises(ValueError, match="rows of x_m, y_m, rcs"):
        simulate_echo(scene, (0, 0, 0), table1)


def test_a_row_list_and_its_table_render_the_same(table1):
    rows = [(0.8, 0.1, 1.0), (1.3, -0.2, 0.7)]
    a = simulate_echo(rows, (0, 0, 0), table1)
    b = simulate_echo(np.array(rows), (0, 0, 0), table1)
    assert a.tobytes() == b.tobytes()
    assert np.any(a != 0)


def test_render_scene_scan_layout(side_radars, small_grid):
    scene = [(0.5, 0.6, 1.0)]
    log, truth = render_scene(scene, straight_poses(), side_radars, small_grid)
    assert len(log) == 22  # 11 poses x 2 radars
    assert log.radars == side_radars
    # pose-major, radar-minor; a record's timestamp is its pose index in seconds
    assert log.records["timestamp_s"].tolist() == [float(k // 2) for k in range(22)]
    assert log.records["radar_index"].tolist() == [0, 1] * 11
    assert (log.records["pose"][:, 2] == 0.0).all()  # robot heading, not boresight
    # only the +y-looking radar sees the scatterer
    up = np.abs(log.records["samples"][0::2]).max(axis=1)
    down = np.abs(log.records["samples"][1::2]).max(axis=1)
    assert up.max() > 0
    assert np.all(down == 0)


def test_render_scene_checks_its_scene_once(side_radars, small_grid, monkeypatch):
    # one check of the table for the whole render, and each scan is simulate_echo's
    check, calls = sarloop.simulate._scene_table, []
    monkeypatch.setattr(sarloop.simulate, "_scene_table",
                        lambda *args: calls.append(args) or check(*args))
    scene = [(0.5, 0.6, 1.0), (0.4, -0.5, 2.0)]
    log, _ = render_scene(scene, straight_poses(), side_radars, small_grid)
    assert len(calls) == 1
    echoes = [simulate_echo(scene, robot, radar)
              for robot in straight_poses() for radar in side_radars]
    assert np.array_equal(log.records["samples"], np.array(echoes, np.float32))


def test_render_scene_truth_grid_marks_nearest_cells(side_radars, small_grid):
    scene = [(0.5, 0.6, 1.0), (0.514, 0.6, 1.0), (9.0, 9.0, 1.0),  # third lands off-grid
             (1e308, 0.0, 1.0), (-1.7e308, 1.7e308, 1.0)]  # far off: not marked, no warning
    _, truth = render_scene(scene, straight_poses(), side_radars, small_grid)
    rows, cols = np.nonzero(truth)
    got = {(int(r), int(c)) for r, c in zip(rows, cols)}
    res, (ox, oy) = small_grid.resolution_m, small_grid.origin_m
    want = {(round((0.6 - oy) / res), round((0.5 - ox) / res)),
            (round((0.6 - oy) / res), round((0.514 - ox) / res))}
    assert got == want


def test_render_scene_noise_is_reproducible(side_radars, small_grid):
    scene = [(0.5, 0.6, 1.0)]
    poses = straight_poses()
    a, _ = render_scene(scene, poses, side_radars, small_grid, snr_db=20.0,
                        rng=np.random.default_rng(7))
    b, _ = render_scene(scene, poses, side_radars, small_grid, snr_db=20.0,
                        rng=np.random.default_rng(7))
    assert a.records.tobytes() == b.records.tobytes()
    # noise is sized from the clean echoes and drawn in scan order: one draw
    # over the table gives the stream of one draw per scan
    clean = np.array([simulate_echo(scene, robot, radar)
                      for robot in poses for radar in side_radars])
    std = noise_std_for_snr(clean, 20.0)
    rng = np.random.default_rng(7)
    for samples, echo in zip(a.records["samples"], clean):
        want = echo + rng.normal(0.0, std, size=echo.shape)
        assert samples.tobytes() == want.astype(np.float32).tobytes()


def test_noise_std_for_snr(side_radars, small_grid):
    log, _ = render_scene([(0.5, 0.6, 1.0)], straight_poses(), side_radars, small_grid)
    echoes = log.records["samples"]
    peak = float(np.abs(echoes).max())
    assert noise_std_for_snr(echoes, 20.0) == pytest.approx(peak / 10.0)
    assert noise_std_for_snr(echoes, math.inf) == 0.0
    for empty in ([], np.empty((0, 8))):
        with pytest.raises(ValueError, match="no echoes"):
            noise_std_for_snr(empty, 10.0)


def test_an_snr_past_the_float_range_adds_no_noise(side_radars, small_grid):
    # 10 ** (snr_db / 20) overflows a float: the noise sigma is peak / inf = 0
    scene, poses = [(0.5, 0.6, 1.0)], straight_poses()
    clean, _ = render_scene(scene, poses, side_radars, small_grid, snr_db=math.inf)
    assert noise_std_for_snr(clean.records["samples"], 1e6) == 0.0
    loud, _ = render_scene(scene, poses, side_radars, small_grid, snr_db=1e6,
                           rng=np.random.default_rng(1))
    assert clean.records.tobytes() == loud.records.tobytes()


@pytest.mark.parametrize("snr_db", [-1e6, -math.inf, math.nan])
def test_an_snr_without_a_finite_noise_sigma_is_refused(side_radars, small_grid, snr_db):
    log, _ = render_scene([(0.5, 0.6, 1.0)], straight_poses(), side_radars, small_grid)
    with pytest.raises(ValueError, match="snr_db=.* gives no finite noise sigma"):
        noise_std_for_snr(log.records["samples"], snr_db)


def test_scene_and_trajectory_files_round_trip(tmp_path):
    scene = np.array([(0.25, -0.5, 1.0), (1.5, 0.75, 2.5)])
    path = tmp_path / "scene.txt"
    path.write_text("".join(f"{x!r} {y!r} {rcs!r}\n" for x, y, rcs in scene.tolist()))
    loaded = load_scene(path)
    assert loaded.dtype == np.float64 and np.array_equal(loaded, scene)

    poses = np.array([(0, 0, 0), (1.5, 0.25, math.pi / 2)])
    tpath = tmp_path / "traj.txt"
    tpath.write_text("".join(f"{x!r} {y!r} {theta!r}\n" for x, y, theta in poses.tolist()))
    loaded = load_trajectory(tpath)
    assert loaded.dtype == np.float64 and np.array_equal(loaded, poses)

    commented = tmp_path / "commented.txt"
    commented.write_text("# a scatterer\n0.25 -0.5 1.0\n\n1.5 0.75 2.5\n")
    assert np.array_equal(load_scene(commented), scene)
    empty = tmp_path / "empty.txt"
    empty.write_text("# no scatterers\n")
    assert load_scene(empty).shape == (0, 3)
    bad = tmp_path / "bad.txt"
    bad.write_text("0.25 -0.5\n")
    with pytest.raises(ValueError, match="bad.txt:1"):
        load_scene(bad)


@pytest.mark.parametrize("text", ["", "# no rows\n", "0.5 0.25 0\n",
                                  "0.5 0.25 0\n0.5 0.25 1.0\n0.5 0.25 -1.0\n"],
                         ids=["empty", "comments-only", "one-waypoint", "one-position"])
def test_a_trajectory_without_two_distinct_positions_names_the_file(tmp_path, text):
    path = tmp_path / "still.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: need at least 2 distinct")):
        load_trajectory(path)


@pytest.mark.parametrize("load", [load_scene, load_trajectory])
def test_non_numeric_fields_name_the_file_and_line(tmp_path, load):
    path = tmp_path / "bad.txt"
    path.write_text("0.25 -0.5 1.0\n0.5 abc 1.0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2")):
        load(path)
    path.write_bytes(b"0.25 -0.5 \xff\n")
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load(path)
    for bad in ("inf 0.5 1.0", "0.5 -0.5 nan"):  # not finite: refused by its line
        path.write_text(f"0.25 -0.5 1.0\n\n{bad}\n0.5 nan 1.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: ") + ".* must be finite"):
            load(path)


@pytest.mark.parametrize("row, line", [("0.3 nan 1.0", 4), ("0.3 0.2 -1.0", 4),
                                       ("inf 0.2 1.0", 4)])
def test_a_bad_scatterer_in_a_scene_file_names_its_line(tmp_path, row, line):
    path = tmp_path / "scene.txt"
    path.write_text(f"0.1 0.2 1.0\n\n# a comment\n{row}\n0.5 0.5 -2.0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: position must be finite")):
        load_scene(path)


# The per-scatterer loop that the one-pass render replaced: the oracle for
# its bytes, noise and truth grid included.
def reference_echo(scene, pose, config, n_bins):
    t = np.arange(n_bins, dtype=np.float64) / config.sample_rate_hz
    samples = np.zeros(n_bins, dtype=np.float64)
    for x, y, rcs in scene:
        if not bool(in_fov(pose, config, x, y)):
            continue
        dx, dy = x - pose[0], y - pose[1]
        rng_m = math.sqrt(dy * dy + dx * dx)
        delay = 2.0 * rng_m / SPEED_OF_LIGHT
        samples += (math.sqrt(rcs) / (rng_m * rng_m)) * pulse_value(config, t - delay)
    return samples


def reference_render(scene, poses, radars, grid, snr_db, rng):
    n_bins = max(map(default_bin_count, radars))
    echoes = [reference_echo(scene, robot, radar, n_bins) for robot in poses for radar in radars]
    noise_std = 0.0 if math.isinf(snr_db) else (
        max(float(np.max(np.abs(e))) for e in echoes) / 10.0 ** (snr_db / 20.0))
    if noise_std > 0:
        echoes = [e + rng.normal(0.0, noise_std, size=n_bins) for e in echoes]
    truth = np.zeros((grid.height_px, grid.width_px), dtype=bool)
    ox, oy = grid.origin_m
    for x, y, _ in scene:
        col = int(math.floor((x - ox) / grid.resolution_m + 0.5))
        row = int(math.floor((y - oy) / grid.resolution_m + 0.5))
        if 0 <= row < grid.height_px and 0 <= col < grid.width_px:
            truth[row, col] = True
    return echoes, truth


def polar(pose, radar, r, off, rcs):
    """The scatterer at range r and bearing off boresight of the radar at pose."""
    x, y, heading = pose
    bearing = heading + radar.mount_angle_rad + off
    return (x + r * math.cos(bearing), y + r * math.sin(bearing), rcs)


@st.composite
def scenes(draw, poses, radars):
    """Up to 16 scatterers near the radars, some in the FOV, some on its range
    or beam edges, some behind it or past its range, some with rcs 0, plus
    repeats of drawn rows, shuffled."""
    radar = radars[0]
    ranges = st.one_of(st.floats(0.0, 3.6),
                       st.sampled_from([radar.range_min_m, radar.range_max_m]))
    bearings = st.one_of(st.floats(-math.pi, math.pi),
                         st.sampled_from([-radar.beamwidth_rad / 2, radar.beamwidth_rad / 2]))
    rcs = st.one_of(st.just(0.0), st.floats(0.0, 4.0))
    rows = draw(st.lists(st.builds(polar, st.sampled_from(list(poses)), st.sampled_from(radars),
                                   ranges, bearings, rcs), max_size=16))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    return draw(st.permutations(rows))


FORWARD = (0.0, 0.0, 0.0)
# Where math.hypot differs from the sector's range in the last bit.
HYPOT_EDGE = [(0.75, -0.26, 1.0), (1.27, 0.3, 0.5)]
# Twelve overlapping replicas, whose sum in scene order differs from a pairwise one.
OVERLAPPING = [(1.0 + 0.003 * k, 0.01 * k - 0.05, 0.5 + 0.1 * k) for k in range(12)]
# Behind the radar, at a range inside its bins.
BEHIND = [(-1.0, 0.0, 1.0), (0.9, 0.0, 1.0)]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(data=None, scene=[])
@example(data=None, scene=HYPOT_EDGE)
@example(data=None, scene=OVERLAPPING)
@example(data=None, scene=BEHIND)
@given(data=st.data(), scene=st.none())
def test_one_pass_echo_equals_the_per_scatterer_loop(table1, data, scene):
    if scene is None:
        scene = data.draw(scenes([FORWARD], [table1]))
    got = simulate_echo(scene, FORWARD, table1)
    want = reference_echo(scene, FORWARD, table1, default_bin_count(table1))
    assert got.tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), snr_db=st.sampled_from([20.0, 3.0, math.inf]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_noisy_render_equals_the_per_scatterer_loop(side_radars, small_grid, data, snr_db,
                                                    seed):
    poses = straight_poses()[::5]
    scene = data.draw(scenes(poses, side_radars))
    log, truth = render_scene(scene, poses, side_radars, small_grid, snr_db=snr_db,
                              rng=np.random.default_rng(seed))
    echoes, want = reference_render(scene, poses, side_radars, small_grid, snr_db,
                                    np.random.default_rng(seed))
    assert log.records["samples"].tobytes() == np.array(echoes, dtype=np.float32).tobytes()
    assert truth.tobytes() == want.tobytes()
