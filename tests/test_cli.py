"""End-to-end command-line behavior, run in-process via main()."""

import math
import tracemalloc

import numpy as np
import pytest

from sarloop import (FeatureSet, GrayImage, ImageGrid, SarImage, ScanLog, build_sar,
                     compress_scan, derive_grid, generate_trajectory, load_config,
                     load_scan_log, load_scene, load_trajectory, render_scene, save_scan_log)
from sarloop.cli import main
from sarloop.features import save_feature_set
from sarloop.imgpost import read_pgm, write_pgm, write_sar_dump

DEMO = "demo"
FAST = ["--set", "range_max_m=1.2", "--set", "grid_resolution_m=0.01",
        "--set", "scan_spacing_m=0.05"]


@pytest.fixture
def small_scene(tmp_path):
    scene = tmp_path / "scene.txt"
    scene.write_text("0.2 0.6 1.0\n0.35 -0.5 1.2\n")
    traj = tmp_path / "traj.txt"
    traj.write_text("0 0 0\n0.5 0 0\n")
    return scene, traj


def run(*argv):
    return main([str(a) for a in argv])


def stage_commands(small_scene, out, match_out):
    """Each stage command on the small scene, in chain order, handing files in ``out``."""
    scene, traj = small_scene
    images = ("--image-a", out / "image.pgm", "--image-b", out / "image.pgm")
    return [("simulate", "--scene", scene, "--trajectory", traj, "--out", out),
            ("backproject", "--scanlog", out / "scanlog.bin", "--out", out),
            ("post", "--sar", out / "sar.cpx", "--out", out),
            ("match", *images, "--out", match_out),
            ("loopclose", *images, "--out", out)]


def test_pipeline_on_a_small_scene(small_scene, tmp_path, capsys):
    scene, traj = small_scene
    out = tmp_path / "run"
    rc = run("pipeline", "--scene", scene, "--trajectory", traj,
             "--out", out, *FAST)
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "loop accepted" in captured.out
    for name in ("scanlog.bin", "truth.pgm", "sar.cpx", "image.pgm",
                 "features_orb_a.bin", "features_brisk_b.bin", "loopclose.tsv"):
        assert (out / name).exists(), name
    assert not (out / "image.f32").exists()  # post writes the 8-bit image only
    table = (out / "loopclose.tsv").read_text().splitlines()
    assert table[0].startswith("# detector_id\t")
    assert table[-1].startswith("fused\t")


def test_featureless_map_rejects_the_loop(small_scene, tmp_path, capsys):
    # no 8-bit contrast passes a segment-test threshold of 300: no keypoints
    scene, traj = small_scene
    out = tmp_path / "run"
    rc = run("pipeline", "--scene", scene, "--trajectory", traj,
             "--out", out, *FAST, "--set", "corner_threshold=300")
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "loop rejected (reasons: match count)" in captured.out
    rows = [line.split("\t") for line in
            (out / "loopclose.tsv").read_text().splitlines()[1:]]
    assert [row[:5] for row in rows] == [[det, "0", "0", "0", "0"]
                                         for det in ("orb", "brisk")]


def test_self_pair_detects_once_and_writes_equal_feature_files(
        small_scene, tmp_path, detector_calls):
    scene, traj = small_scene
    out = tmp_path / "run"
    assert run("pipeline", "--scene", scene, "--trajectory", traj,
               "--out", out, *FAST) == 0
    assert [c.detector_id for c in detector_calls] == ["orb", "brisk"]
    for det in ("orb", "brisk"):
        assert ((out / f"features_{det}_a.bin").read_bytes()
                == (out / f"features_{det}_b.bin").read_bytes())


def test_bundled_demo_pipeline_accepts_its_own_map(tmp_path, capsys):
    rc = run("pipeline", "--scene", f"{DEMO}/scene.txt",
             "--trajectory", f"{DEMO}/trajectory.txt", "--out", tmp_path / "demo")
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "loop accepted" in captured.out
    assert (tmp_path / "demo" / "image.pgm").stat().st_size > 0


def test_simulate_is_reproducible(small_scene, tmp_path):
    scene, traj = small_scene
    for d in ("a", "b"):
        rc = run("simulate", "--scene", scene, "--trajectory", traj,
                 "--out", tmp_path / d, "--seed", 7, *FAST)
        assert rc == 0
    assert ((tmp_path / "a" / "scanlog.bin").read_bytes()
            == (tmp_path / "b" / "scanlog.bin").read_bytes())


def test_a_far_scatterer_is_simulated_but_not_marked(small_scene, tmp_path, capsys):
    # finite, but its truth cell index overflows to inf; RuntimeWarnings are errors
    _, traj = small_scene
    scene = tmp_path / "far.txt"
    scene.write_text("0.2 0.6 1.0\n1e308 0 1\n-1.7e308 1.7e308 2\n0.35 -0.5 1.2\n")
    out = tmp_path / "o"
    assert run("simulate", "--scene", scene, "--trajectory", traj, "--out", out, *FAST) == 0
    assert "Traceback" not in capsys.readouterr().err
    truth, (ox, oy) = read_pgm(out / "truth.pgm")
    res = truth.resolution_m
    want = {(math.floor((y - oy) / res + 0.5), math.floor((x - ox) / res + 0.5))
            for x, y in ((0.2, 0.6), (0.35, -0.5))}
    assert {(int(r), int(c)) for r, c in zip(*np.nonzero(truth.pixels))} == want


def test_an_snr_past_the_float_range_simulates_without_noise(small_scene, tmp_path):
    scene, traj = small_scene
    for snr in ("1e6", "inf"):
        assert run("simulate", "--scene", scene, "--trajectory", traj,
                   "--out", tmp_path / snr, *FAST, "--set", f"snr_db={snr}") == 0
    for name in ("scanlog.bin", "truth.pgm"):
        assert (tmp_path / "1e6" / name).read_bytes() == (tmp_path / "inf" / name).read_bytes()


def test_an_snr_too_low_for_a_finite_noise_sigma_is_refused(small_scene, tmp_path, capsys):
    # -1e6: no finite sigma; -800: a finite sigma whose noise passes the f32
    # range of the scan log (a numpy overflow warning would fail the test)
    scene, traj = small_scene
    for snr_db in ("-1e6", "-800"):
        out = tmp_path / snr_db
        rc = run("simulate", "--scene", scene, "--trajectory", traj, "--out", out, *FAST,
                 "--set", f"snr_db={snr_db}")
        err = capsys.readouterr().err
        assert rc == 1
        assert not out.exists()
        assert "snr_db" in err and "Traceback" not in err


def test_stage_composition_matches_the_pipeline(small_scene, tmp_path):
    scene, traj = small_scene
    piped = tmp_path / "piped"
    staged = tmp_path / "staged"
    assert run("pipeline", "--scene", scene, "--trajectory", traj,
               "--out", piped, *FAST) == 0
    assert run("simulate", "--scene", scene, "--trajectory", traj,
               "--out", staged, *FAST) == 0
    assert run("backproject", "--scanlog", staged / "scanlog.bin",
               "--out", staged, *FAST) == 0
    assert run("post", "--sar", staged / "sar.cpx", "--out", staged, *FAST) == 0
    assert run("loopclose", "--image-a", staged / "image.pgm",
               "--image-b", staged / "image.pgm", "--out", staged, *FAST) == 0
    for name in ("scanlog.bin", "truth.pgm", "sar.cpx", "image.pgm", "loopclose.tsv"):
        assert ((piped / name).read_bytes() == (staged / name).read_bytes()), name


def test_the_library_path_gives_the_cli_bytes(small_scene, tmp_path):
    # render_scene's log is the scan log that simulate writes, and build_sar
    # on its compressed samples is the image that backproject writes.
    scene, traj = small_scene
    out = tmp_path / "cli"
    assert run("simulate", "--scene", scene, "--trajectory", traj, "--out", out,
               "--seed", 3, *FAST) == 0
    assert run("backproject", "--scanlog", out / "scanlog.bin", "--out", out, *FAST) == 0

    cfg = load_config(None, FAST[1::2] + ["seed=3"])
    radars = cfg.radars()
    poses = generate_trajectory(load_trajectory(traj), cfg.scan_spacing_m)
    grid = derive_grid(poses, radars[0], cfg.grid_resolution_m)
    log, _ = render_scene(load_scene(scene), poses, radars, grid, snr_db=cfg.snr_db,
                          rng=np.random.default_rng(cfg.seed))
    save_scan_log(log, tmp_path / "scanlog.bin")
    assert (tmp_path / "scanlog.bin").read_bytes() == (out / "scanlog.bin").read_bytes()
    write_sar_dump(build_sar(log, compress_scan(log.records["samples"], log.radars[0]), grid),
                   tmp_path / "sar.cpx")
    assert (tmp_path / "sar.cpx").read_bytes() == (out / "sar.cpx").read_bytes()


def test_existing_outputs_are_refused_without_overwrite(small_scene, tmp_path,
                                                        capsys):
    for command in stage_commands(small_scene, tmp_path / "out", tmp_path / "match"):
        args = (*command, *FAST)
        assert run(*args) == 0, command[0]
        capsys.readouterr()
        assert run(*args) == 1, command[0]
        assert "refusing to overwrite" in capsys.readouterr().err, command[0]
        assert run(*args, "--overwrite") == 0, command[0]


@pytest.mark.parametrize("name", ["scanlog.bin", "image.pgm", "features_brisk_b.bin",
                                  "loopclose.tsv"])
def test_pipeline_refuses_an_existing_output_before_any_stage(small_scene, tmp_path,
                                                              capsys, name):
    scene, traj = small_scene
    out = tmp_path / "o"
    out.mkdir()
    (out / name).write_bytes(b"kept")
    rc = run("pipeline", "--scene", scene, "--trajectory", traj, "--out", out, *FAST)
    err = capsys.readouterr().err
    assert rc == 1
    assert "refusing to overwrite" in err and str(out / name) in err
    assert [p.name for p in out.iterdir()] == [name]
    assert (out / name).read_bytes() == b"kept"


def test_each_command_resolves_its_config_once(small_scene, tmp_path, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return load_config(*args)

    monkeypatch.setattr("sarloop.cli.load_config", counted)
    scene, traj = small_scene
    pipeline = ("pipeline", "--scene", scene, "--trajectory", traj, "--out", tmp_path / "p")
    for command in [pipeline, *stage_commands(small_scene, tmp_path / "s", tmp_path / "m")]:
        calls.clear()
        assert run(*command, *FAST) == 0, command[0]
        assert len(calls) == 1, command[0]


def test_backproject_rejects_an_empty_log(table1, tmp_path, capsys):
    from sarloop import ScanLog, record_dtype, save_scan_log
    log_path = tmp_path / "empty.bin"
    save_scan_log(ScanLog((table1,), np.empty(0, record_dtype(0))), log_path)
    rc = run("backproject", "--scanlog", log_path, "--out", tmp_path / "o")
    assert rc == 1
    assert "no records" in capsys.readouterr().err


def test_out_of_memory_is_one_error_line(small_scene, tmp_path, capsys, monkeypatch):
    scene, traj = small_scene
    assert run("simulate", "--scene", scene, "--trajectory", traj,
               "--out", tmp_path / "m", *FAST) == 0
    capsys.readouterr()
    message = "Unable to allocate 3.58 TiB for an array with shape (1401401, 351351)"

    def no_memory(*args):
        raise MemoryError(message)

    monkeypatch.setattr("sarloop.cli.build_sar", no_memory)
    out = tmp_path / "o"
    rc = run("backproject", "--scanlog", tmp_path / "m" / "scanlog.bin", "--out", out)
    assert rc == 1
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"
    assert not out.exists()


def test_backproject_rejects_garbage_input(tmp_path, capsys):
    bad = tmp_path / "junk.bin"
    bad.write_bytes(b"\x00\x01\x02 no header here")
    rc = run("backproject", "--scanlog", bad, "--out", tmp_path / "o")
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_match_refuses_mixed_detector_features(tmp_path, capsys):
    rng = np.random.default_rng(51)
    kps = [((float(i), float(i)), 1.0, 0.0, 0) for i in range(5)]
    fa = FeatureSet("orb", kps, rng.integers(0, 256, (5, 32)).astype(np.uint8), 0.005)
    fb = FeatureSet("brisk", kps, rng.integers(0, 256, (5, 64)).astype(np.uint8), 0.005)
    save_feature_set(fa, tmp_path / "a.bin")
    save_feature_set(fb, tmp_path / "b.bin")
    rc = run("match", "--features-a", tmp_path / "a.bin",
             "--features-b", tmp_path / "b.bin", "--out", tmp_path / "o")
    err = capsys.readouterr().err
    assert rc == 1
    assert "orb" in err and "brisk" in err


def test_match_refuses_descriptors_of_different_widths(tmp_path, capsys):
    # one detector id, 256 bits against 512: refused, naming both widths
    rng = np.random.default_rng(53)
    kps = [((float(i), float(i)), 1.0, 0.0, 0) for i in range(5)]
    for name, n_bytes in (("a.bin", 32), ("b.bin", 64)):
        desc = rng.integers(0, 256, (5, n_bytes)).astype(np.uint8)
        save_feature_set(FeatureSet("orb", kps, desc, 0.005), tmp_path / name)
    out = tmp_path / "o"
    rc = run("match", "--features-a", tmp_path / "a.bin",
             "--features-b", tmp_path / "b.bin", "--out", out)
    err = capsys.readouterr().err
    assert rc == 1
    assert "descriptor widths differ: 256 vs 512 bits" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_match_refuses_images_and_features_together(tmp_path, capsys):
    rng = np.random.default_rng(54)
    write_pgm(GrayImage(rng.integers(0, 256, (48, 48)).astype(np.uint8), 0.005),
              tmp_path / "a.pgm")
    kps = [((float(i), float(i)), 1.0, 0.0, 0) for i in range(5)]
    save_feature_set(FeatureSet("orb", kps, rng.integers(0, 256, (5, 32)).astype(np.uint8),
                                0.005), tmp_path / "a.bin")
    out = tmp_path / "o"
    rc = run("match", "--image-a", tmp_path / "a.pgm", "--image-b", tmp_path / "a.pgm",
             "--features-a", tmp_path / "a.bin", "--features-b", tmp_path / "a.bin",
             "--out", out)
    assert rc == 1
    assert "not both" in capsys.readouterr().err
    assert not out.exists()


def test_match_reports_a_truncated_feature_file(tmp_path, capsys):
    bad = tmp_path / "short.bin"
    bad.write_bytes(b"SARLFEAT\x01\x00")  # valid magic, cut inside the header
    rc = run("match", "--features-a", bad, "--features-b", bad,
             "--out", tmp_path / "o")
    err = capsys.readouterr().err
    assert rc == 1
    assert str(bad) in err
    assert "Traceback" not in err


def test_match_needs_images_or_features(tmp_path, capsys):
    assert run("match", "--out", tmp_path / "o") == 1
    assert "image" in capsys.readouterr().err
    assert run("match", "--features-a", tmp_path / "only.bin",
               "--out", tmp_path / "o") == 1
    assert "together" in capsys.readouterr().err


def submap(scene, waypoints, out):
    """simulate -> backproject -> post of one pass; returns its image path."""
    traj = out.with_suffix(".txt")
    traj.write_text(waypoints)
    assert run("simulate", "--scene", scene, "--trajectory", traj, "--out", out, *FAST) == 0
    assert run("backproject", "--scanlog", out / "scanlog.bin", "--out", out, *FAST) == 0
    assert run("post", "--sar", out / "sar.cpx", "--out", out, *FAST) == 0
    return out / "image.pgm"


def test_match_on_saved_features_reproduces_the_loopclose_rows(tmp_path):
    # Two passes along one scene on grids 30 mm and 20 mm apart, so the
    # fitted translations are far from zero: a feature file that lost its
    # pixel size would scale them wrongly.
    scene = tmp_path / "scene.txt"
    scene.write_text("0.2 0.6 1.0\n0.35 -0.5 1.2\n0.45 0.7 1.0\n0.1 -0.65 0.8\n")
    a = submap(scene, "0 0 0\n0.5 0 0\n", tmp_path / "a")
    b = submap(scene, "0.03 0.02 0\n0.53 0.02 0\n", tmp_path / "b")
    pair = tmp_path / "pair"
    assert run("loopclose", "--image-a", a, "--image-b", b, "--out", pair) == 0
    rows = [line.split("\t") for line in (pair / "loopclose.tsv").read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["orb", "brisk"]
    for k, row in enumerate(rows):
        assert abs(float(row[6])) > 10.0  # tx_mm
        out = tmp_path / f"match_{row[0]}"
        # loopclose seeds detector k's RANSAC with seed + k
        assert run("match", "--features-a", pair / f"features_{row[0]}_a.bin",
                   "--features-b", pair / f"features_{row[0]}_b.bin", "--out", out,
                   "--seed", k) == 0
        [matched] = [line.split("\t") for line in
                     (out / "matches.tsv").read_text().splitlines()[1:]]
        assert matched[:9] == row[:9]


def test_post_memory_per_pixel(tmp_path):
    # the stored complex64 grid (8 B/px), one float64 grid (8 B/px) and a band
    # or a scratch grid at a time: no complex128 or second float64 copy
    rng = np.random.default_rng(4)
    height, width = 500, 1200
    z = rng.normal(size=(height, width)) + 1j * rng.normal(size=(height, width))
    dump = tmp_path / "sar.cpx"
    write_sar_dump(SarImage(ImageGrid(width, height, 0.01), z, 1), dump)
    del z
    tracemalloc.start()
    try:
        assert run("post", "--sar", dump, "--out", tmp_path / "o") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28 * width * height


@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_post_names_a_sar_dump_with_a_non_finite_pixel(tmp_path, capsys, part, value):
    z = np.ones((6, 5), np.complex128)
    if part == "real":
        z[2, 3] = complex(value, 1.0)
    else:
        z[2, 3] = complex(1.0, value)
    dump = tmp_path / "bad.cpx"
    write_sar_dump(SarImage(ImageGrid(5, 6, 0.01), z, 1), dump)
    out = tmp_path / "o"
    rc = run("post", "--sar", dump, "--out", out)
    err = capsys.readouterr().err
    assert rc == 1
    assert f"error: {dump}: non-finite" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["1e308", "40.0"])
def test_post_names_a_blur_wider_than_the_map(tmp_path, capsys, sigma):
    # a kernel radius, ceil(3 sigma), past the map's 12 px side is refused before
    # any filtering: 1e308 cannot overflow, and no map is blurred for minutes
    dump = tmp_path / "sar.cpx"
    write_sar_dump(SarImage(ImageGrid(12, 9, 0.01), np.ones((9, 12)), 1), dump)
    out = tmp_path / "o"
    rc = run("post", "--sar", dump, "--out", out, "--set", f"blur_sigma_px={sigma}")
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("error:") == 1 and "Traceback" not in err
    assert f"error: blur_sigma_px={float(sigma)!r} gives a kernel radius" in err
    assert not out.exists()


def test_pipeline_names_a_blur_wider_than_the_map(small_scene, tmp_path, capsys):
    # refused by simulate on the grid it derives, before any stage writes
    scene, traj = small_scene
    out = tmp_path / "o"
    rc = run("pipeline", "--scene", scene, "--trajectory", traj, "--out", out, *FAST,
             "--set", "blur_sigma_px=1e308")
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("error:") == 1 and "blur_sigma_px=1e+308" in err
    assert not out.exists()


def test_loopclose_rejects_mismatched_resolutions(tmp_path, capsys):
    rng = np.random.default_rng(52)
    px = rng.integers(0, 256, (48, 48)).astype(np.uint8)
    write_pgm(GrayImage(px, 0.01), tmp_path / "a.pgm")
    write_pgm(GrayImage(px, 0.02), tmp_path / "b.pgm")
    rc = run("loopclose", "--image-a", tmp_path / "a.pgm",
             "--image-b", tmp_path / "b.pgm", "--out", tmp_path / "o")
    assert rc == 1
    assert "resolutions differ" in capsys.readouterr().err


def test_config_file_and_env_var_feed_the_run(small_scene, tmp_path,
                                              monkeypatch):
    scene, traj = small_scene
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=123\nrange_max_m=1.2\ngrid_resolution_m=0.01\n"
                   "scan_spacing_m=0.05\n")

    assert run("simulate", "--scene", scene, "--trajectory", traj,
               "--out", tmp_path / "flagged", "--seed", 123, *FAST) == 0
    monkeypatch.setenv("SARLOOP_CONFIG", str(cfg))
    assert run("simulate", "--scene", scene, "--trajectory", traj,
               "--out", tmp_path / "from_env") == 0
    assert ((tmp_path / "flagged" / "scanlog.bin").read_bytes()
            == (tmp_path / "from_env" / "scanlog.bin").read_bytes())

    # an empty SARLOOP_CONFIG counts as unset
    monkeypatch.setenv("SARLOOP_CONFIG", "")
    assert run("simulate", "--scene", scene, "--trajectory", traj,
               "--out", tmp_path / "empty_env", "--seed", 123, *FAST) == 0
    assert ((tmp_path / "flagged" / "scanlog.bin").read_bytes()
            == (tmp_path / "empty_env" / "scanlog.bin").read_bytes())
    monkeypatch.setenv("SARLOOP_CONFIG", str(cfg))

    # a --set override beats the env config
    assert run("simulate", "--scene", scene, "--trajectory", traj,
               "--out", tmp_path / "shorter", "--set", "scan_spacing_m=0.1") == 0
    assert ((tmp_path / "shorter" / "scanlog.bin").stat().st_size
            < (tmp_path / "from_env" / "scanlog.bin").stat().st_size)


def test_unknown_config_key_is_reported(small_scene, tmp_path, capsys):
    scene, traj = small_scene
    rc = run("simulate", "--scene", scene, "--trajectory", traj,
             "--out", tmp_path / "o", "--set", "range_maxm=2")
    assert rc == 1
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("setting", [
    "grid_resolution_m=nan", "scan_spacing_m=nan", "snr_db=nan", "snr_db=-inf",
    "mounts_deg=90,nan", "ratio=1.5", "ratio=0", "blur_sigma_px=-1", "ransac_iters=0",
    "ransac_inlier_px=0", "ransac_inlier_px=-1", "min_good_matches=-3",
    "scale_tol=-0.1", "translation_tol_mm=-1", "rotation_tol_deg=-1", "seed=-1",
    "ransac_min_inliers=-1", "ransac_min_inliers=0", "ransac_min_inliers=1",
    "beamwidth_deg=200", "beamwidth_deg=0", "range_min_m=5", "range_max_m=0.1",
    "center_freq_hz=12e9", "bandwidth_hz=2e10", "center_freq_hz=-1", "bandwidth_hz=0",
    "pulse_amplitude_v=0"])
def test_non_finite_config_values_name_the_key(small_scene, tmp_path, capsys, setting):
    """Non-finite and out-of-range values fail at load, before any stage runs."""
    scene, traj = small_scene
    rc = run("simulate", "--scene", scene, "--trajectory", traj,
             "--out", tmp_path / "o", *FAST, "--set", setting)
    err = capsys.readouterr().err
    assert rc == 1
    assert not (tmp_path / "o").exists()
    assert setting.split("=")[0] in err
    assert "Traceback" not in err


@pytest.mark.parametrize("detectors", ["orb,orb", "orb,foo", "orb", "orb,brisk,orb"])
def test_pipeline_checks_detectors_before_any_stage(small_scene, tmp_path, capsys,
                                                    detectors):
    scene, traj = small_scene
    out = tmp_path / "o"
    rc = run("pipeline", "--scene", scene, "--trajectory", traj, "--out", out,
             *FAST, "--set", f"detectors={detectors}")
    err = capsys.readouterr().err
    assert rc == 1
    assert not out.exists()
    assert "detectors" in err and "Traceback" not in err
    if detectors != "orb":  # a repeated or unknown id: the registered ids are listed
        assert "(brisk, orb)" in err


@pytest.mark.parametrize("setting, named", [
    ("mounts_deg=90,90", "mounts_deg"),
    ("TRAJECTORY", "need at least 2 distinct waypoint positions"),
    ("FAR", "scan_spacing_m=0.05 on a 1e+300 m path gives"),
    ("scan_spacing_m=1e-300", "scan_spacing_m=1e-300 on a "),
    ("scan_spacing_m=1e-19", "scan_spacing_m=1e-19 on a "),
    ("grid_resolution_m=1e-300", "grid_resolution_m=1e-300 over a 2.9 x 2.4 m extent"),
    ("grid_resolution_m=1e-320", "grid_resolution_m=1e-320 over a 2.9 x 2.4 m extent"),
    ("FAR-GRID", "grid_resolution_m=0.01 over a 1e+308 x 2.4 m extent")],
    ids=["repeated-mounts", "still-trajectory", "far-waypoint", "tiny-spacing",
         "spacing-past-the-byte-cap", "tiny-grid", "subnormal-grid", "far-grid"])
def test_simulate_names_what_would_have_made_a_bad_log(small_scene, tmp_path, capsys,
                                                      setting, named):
    # repeated mounts: every record would name the first radar; a path that
    # does not move: the error names the trajectory file; a path of more
    # scans, or a grid of more pixels, than an array can hold: the error
    # names the spacing or the resolution, refused before any scan is made
    scene, traj = small_scene
    if setting == "TRAJECTORY":
        traj = tmp_path / "still.txt"
        traj.write_text("0.1 0.2 0\n0.1 0.2 0\n")
        named = f"{traj}: {named}"
    if setting == "FAR":
        traj = tmp_path / "far.txt"
        traj.write_text("0 0 0\n1e300 0 0\n")
    if setting == "FAR-GRID":
        traj = tmp_path / "far.txt"
        traj.write_text("0 0 0\n1e308 0 0\n")
        setting = "scan_spacing_m=1e307"
    out = tmp_path / "o"
    argv = ("--set", setting) if "=" in setting else ()
    rc = run("simulate", "--scene", scene, "--trajectory", traj, "--out", out, *FAST, *argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert not out.exists()
    assert named in err and "Traceback" not in err


def test_backproject_names_the_resolution_of_a_grid_no_array_can_hold(small_scene, tmp_path,
                                                                    capsys):
    scene, traj = small_scene
    assert run("simulate", "--scene", scene, "--trajectory", traj, "--out", tmp_path, *FAST) == 0
    log = load_scan_log(tmp_path / "scanlog.bin")
    records = log.records.copy()
    records["pose"][-1] = (1e308, 0.0, 0.0)
    save_scan_log(ScanLog(log.radars, records), tmp_path / "far.bin")
    rc = run("backproject", "--scanlog", tmp_path / "far.bin", "--out", tmp_path / "o", *FAST)
    err = capsys.readouterr().err
    assert rc == 1
    assert not (tmp_path / "o").exists()
    assert "grid_resolution_m=0.01 over a 1e+308 x 2.4 m extent" in err
    assert "Traceback" not in err


def test_backproject_takes_the_radar_from_the_log(small_scene, tmp_path):
    scene, traj = small_scene
    rate = ["--set", "sample_rate_hz=30e9"]
    assert run("simulate", "--scene", scene, "--trajectory", traj,
               "--out", tmp_path, *FAST, *rate) == 0
    log = tmp_path / "scanlog.bin"
    assert run("backproject", "--scanlog", log, "--out", tmp_path / "default", *FAST) == 0
    assert run("backproject", "--scanlog", log, "--out", tmp_path / "matching",
               *FAST, *rate) == 0
    assert ((tmp_path / "default" / "sar.cpx").read_bytes()
            == (tmp_path / "matching" / "sar.cpx").read_bytes())


@pytest.mark.parametrize("argv", [
    ("simulate", "--scene", "MISSING", "--trajectory", f"{DEMO}/trajectory.txt"),
    ("simulate", "--scene", f"{DEMO}/scene.txt", "--trajectory", "MISSING"),
    ("backproject", "--scanlog", "MISSING"),
    ("post", "--sar", "MISSING"),
    ("match", "--image-a", "MISSING", "--image-b", "MISSING"),
    ("match", "--features-a", "MISSING", "--features-b", "MISSING"),
    ("loopclose", "--image-a", "MISSING", "--image-b", "MISSING"),
    ("pipeline", "--scene", "MISSING", "--trajectory", f"{DEMO}/trajectory.txt"),
], ids=lambda argv: f"{argv[0]}-{argv[argv.index('MISSING') - 1].lstrip('-')}")
def test_a_missing_input_leaves_no_output_directory(argv, tmp_path, capsys):
    out = tmp_path / "out"
    missing = tmp_path / "missing.input"
    rc = run(*(missing if a == "MISSING" else a for a in argv), "--out", out)
    err = capsys.readouterr().err
    assert rc == 1
    assert not out.exists()
    assert "error:" in err and "Traceback" not in err
