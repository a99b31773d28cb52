"""Run configuration parsing, validation, and object builders."""

import math
import re
from dataclasses import replace

import pytest

from sarloop import (MatchReport, RunConfig, SimilarityTransform, detect_and_match, load_config,
                     validate_loop)


def test_defaults_validate_and_mirror_the_radar_setup():
    cfg = RunConfig()
    left, right = cfg.radars()
    for radar in (left, right):
        assert radar.sample_rate_hz == 23.328e9
        assert radar.center_freq_hz == 7.29e9
        assert radar.bandwidth_hz == 2.0e9
        assert radar.beamwidth_rad == pytest.approx(math.radians(60))
        assert (radar.range_min_m, radar.range_max_m) == (0.4, 3.0)
    assert left.mount_angle_rad == pytest.approx(math.pi / 2)
    assert right.mount_angle_rad == pytest.approx(-math.pi / 2)


def test_empty_text_is_the_default_config(config_from_text):
    assert config_from_text("") == RunConfig()
    assert config_from_text("# only a comment\n\n") == RunConfig()


def test_parse_overrides_and_comments(config_from_text):
    cfg = config_from_text(
        "snr_db = 14      # low-noise run\n"
        "detectors=brisk , orb\n"
        "mounts_deg = 0, 180\n")
    assert cfg.snr_db == 14.0
    assert cfg.detectors == ("brisk", "orb")
    assert cfg.mounts_deg == (0.0, 180.0)
    assert cfg.ratio == 0.75  # untouched keys keep their defaults


def test_parse_errors(config_from_text):
    with pytest.raises(ValueError, match="unknown config key"):
        config_from_text("sampl_rate_hz=1e9\n")
    with pytest.raises(ValueError, match="known keys"):
        config_from_text("bogus=1\n")
    with pytest.raises(ValueError, match="line 2"):
        config_from_text("snr_db=10\nnot a pair\n")
    with pytest.raises(ValueError):
        config_from_text("seed=1.5\n")


def test_validate_rejects_bad_values(config_from_text):
    with pytest.raises(ValueError, match="grid_resolution_m"):
        config_from_text("grid_resolution_m=0\n")
    with pytest.raises(ValueError, match="scan_spacing_m"):
        config_from_text("scan_spacing_m=-0.1\n")
    with pytest.raises(ValueError):  # radar invariant: fs too low for fc+bw
        config_from_text("sample_rate_hz=1e9\n")
    with pytest.raises(ValueError, match="mounts_deg"):
        config_from_text("mounts_deg=\n")


@pytest.mark.parametrize("mounts", ["90,90", "90,-90,90", "0,-0"])
def test_repeated_mounts_are_refused(config_from_text, mounts):
    # a scan log tells its radars apart by mount alone
    with pytest.raises(ValueError, match="mounts_deg must name at least one radar, each at"):
        config_from_text(f"mounts_deg={mounts}\n")


def test_infinite_snr_stays_valid_and_means_no_noise(config_from_text):
    assert config_from_text("snr_db=inf\n").snr_db == math.inf


def test_load_config_merges_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("snr_db=12\nseed=5\n")
    cfg = load_config(path, ["seed=9", "blur_sigma_px=2.0"])
    assert cfg.snr_db == 12.0
    assert cfg.seed == 9  # override wins over the file
    assert cfg.blur_sigma_px == 2.0
    assert load_config(None) == RunConfig()
    with pytest.raises(ValueError, match="key=value"):
        load_config(None, ["seed"])


def test_overrides_merge_before_the_check():
    # range_min_m=3.5 alone is past range_max_m's default of 3.0: only the
    # merged config is checked, so either order is accepted
    for overrides in (["range_min_m=3.5", "range_max_m=5.0"],
                      ["range_max_m=5.0", "range_min_m=3.5"]):
        cfg = load_config(None, overrides)
        assert (cfg.range_min_m, cfg.range_max_m) == (3.5, 5.0), overrides
    assert load_config(None, ["seed=4", "seed=5"]).seed == 5  # the later one wins
    # an unknown key or an unparsable value is refused on its own, even if overridden
    with pytest.raises(ValueError, match="^seed: cannot parse"):
        load_config(None, ["seed=x", "seed=5"])
    with pytest.raises(ValueError, match="^unknown config key 'bogus'"):
        load_config(None, ["bogus=1", "seed=5"])


def test_a_file_and_its_overrides_merge_before_the_check(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("range_min_m=3.5\n")
    cfg = load_config(path, ["range_max_m=5.0"])
    assert (cfg.range_min_m, cfg.range_max_m) == (3.5, 5.0)
    # the file alone is refused, naming it; overrides that are refused alone are not
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: need 0 < range_min_m < "
                       "range_max_m, got range_min_m=3.5, range_max_m=3.0$"):
        load_config(path)
    with pytest.raises(ValueError, match="^need 0 < range_min_m < range_max_m"):
        load_config(path, ["range_max_m=3.2", "range_min_m=4.0"])


@pytest.mark.parametrize("key, value, text", [
    ("ransac_iters", 0, "0"),
    ("ratio", 1.5, "1.5"),
    ("ransac_min_inliers", 1, "1"),
    ("detectors", ("orb", "orb"), "orb,orb"),
], ids=["ransac_iters", "ratio", "ransac_min_inliers", "detectors"])
def test_a_config_built_in_code_is_checked_like_set(key, value, text):
    with pytest.raises(ValueError, match=f"^{key} must be") as built:
        RunConfig(**{key: value})
    with pytest.raises(ValueError) as replaced:
        replace(RunConfig(), **{key: value})
    with pytest.raises(ValueError) as loaded:
        load_config(None, [f"{key}={text}"])
    assert str(built.value) == str(replaced.value) == str(loaded.value)


@pytest.mark.parametrize("key, value", [("ransac_iters", 2.5), ("seed", True),
                                        ("n_octaves", 2.0), ("min_good_matches", "20")])
def test_an_int_key_refuses_other_types(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be an int, got {re.escape(repr(value))}$"):
        RunConfig(**{key: value})
    with pytest.raises(ValueError, match=f"^{key} must be an int"):
        replace(RunConfig(), **{key: value})


def test_detector_configs_take_the_front_end_keys(config_from_text, five_scatterer,
                                                 detector_calls):
    cfg = config_from_text("corner_threshold=11\nn_octaves=2\ntarget_keypoints=50\n")
    img = five_scatterer.image
    detect_and_match(img, img, cfg)
    assert [d.detector_id for d in detector_calls] == ["orb", "brisk"]
    assert all(d.run is cfg for d in detector_calls)
    assert all(d.run.corner_threshold == 11 and d.run.n_octaves == 2
               and d.run.target_keypoints == 50 for d in detector_calls)


def _verdict(cfg, tx_mm=0.0, ty_mm=0.0, rot_deg=0.0):
    """validate_loop on two 40-inlier reports that differ by the given offset."""
    ra = MatchReport("orb", 300, 300, 40, 40, SimilarityTransform(1.0, 0.0, 0.0, 0.0))
    rb = MatchReport("brisk", 300, 300, 40, 40, SimilarityTransform(
        1.0, tx_mm / 1000.0, ty_mm / 1000.0, math.radians(rot_deg)))
    return validate_loop(ra, rb, cfg)


def test_validate_loop_converts_the_config_tolerances(config_from_text):
    cfg = config_from_text("translation_tol_mm=250\nrotation_tol_deg=5\n")
    for offset in ({"tx_mm": 249}, {"ty_mm": -249}, {"rot_deg": 4.9}, {"rot_deg": -4.9}):
        assert _verdict(cfg, **offset).accepted, offset
    for offset, reason in (({"tx_mm": 251}, "translation"), ({"ty_mm": -251}, "translation"),
                           ({"rot_deg": 5.1}, "rotation"), ({"rot_deg": -5.1}, "rotation")):
        assert _verdict(cfg, **offset).reasons == (reason,), offset


@pytest.mark.parametrize("text, key", [("snr_db=abc\n", "snr_db"), ("seed=1.5\n", "seed"),
                                       ("mounts_deg=90,left\n", "mounts_deg"),
                                       ("grid_resolution_m=-1\n", "grid_resolution_m")])
def test_load_config_names_the_file_and_the_key(tmp_path, text, key):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(str(path))) as err:
        load_config(path)
    assert key in str(err.value)
