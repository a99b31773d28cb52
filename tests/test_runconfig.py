"""Run configuration parsing, validation, and object builders."""

import math
import re

import pytest

from sarloop import RunConfig, load_config
from sarloop.runconfig import parse_config_text


def test_defaults_validate_and_mirror_the_radar_setup():
    cfg = RunConfig().validate()
    radar = cfg.radar_config()
    assert radar.sample_rate_hz == 23.328e9
    assert radar.center_freq_hz == 7.29e9
    assert radar.bandwidth_hz == 2.0e9
    assert radar.beamwidth_rad == pytest.approx(math.radians(60))
    assert (radar.range_min_m, radar.range_max_m) == (0.4, 3.0)
    assert cfg.mounts_rad() == pytest.approx((math.pi / 2, -math.pi / 2))


def test_empty_text_is_the_default_config():
    assert parse_config_text("") == RunConfig()
    assert parse_config_text("# only a comment\n\n") == RunConfig()


def test_parse_overrides_and_comments():
    cfg = parse_config_text(
        "snr_db = 14      # low-noise run\n"
        "detectors=brisk , orb\n"
        "mounts_deg = 0, 180\n")
    assert cfg.snr_db == 14.0
    assert cfg.detectors == ("brisk", "orb")
    assert cfg.mounts_deg == (0.0, 180.0)
    assert cfg.ratio == 0.75  # untouched keys keep their defaults


def test_parse_errors():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config_text("sampl_rate_hz=1e9\n")
    with pytest.raises(ValueError, match="known keys"):
        parse_config_text("bogus=1\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_config_text("snr_db=10\nnot a pair\n")
    with pytest.raises(ValueError):
        parse_config_text("seed=1.5\n")


def test_validate_rejects_bad_values():
    with pytest.raises(ValueError, match="grid_resolution_m"):
        parse_config_text("grid_resolution_m=0\n")
    with pytest.raises(ValueError, match="scan_spacing_m"):
        parse_config_text("scan_spacing_m=-0.1\n")
    with pytest.raises(ValueError):  # radar invariant: fs too low for fc+bw
        parse_config_text("sample_rate_hz=1e9\n")


def test_infinite_snr_stays_valid_and_means_no_noise():
    assert parse_config_text("snr_db=inf\n").snr_db == math.inf


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


def test_builders_convert_units():
    cfg = parse_config_text(
        "translation_tol_mm=250\nrotation_tol_deg=5\nmin_good_matches=7\n"
        "ransac_iters=500\nransac_inlier_px=2.5\nransac_min_inliers=4\n"
        "corner_threshold=11\nn_octaves=2\ntarget_keypoints=50\n")
    th = cfg.thresholds()
    assert th.translation_tol_m == pytest.approx(0.25)
    assert th.rotation_tol_rad == pytest.approx(math.radians(5))
    assert th.min_good_matches == 7
    assert cfg.ransac_config().n_iters == 500
    assert cfg.ransac_config().inlier_threshold_px == 2.5
    assert cfg.ransac_config().min_inliers == 4
    dets = cfg.detector_configs()
    assert [d.detector_id for d in dets] == ["orb", "brisk"]
    assert all(d.corner_threshold == 11 and d.n_octaves == 2
               and d.target_keypoints == 50 for d in dets)


def test_pulse_builder_derives_duration_when_unset():
    auto = RunConfig().pulse()
    assert len(auto) % 2 == 1  # symmetric sample grid about t = 0
    fixed = parse_config_text("pulse_half_duration_s=1.2e-9\n").pulse()
    assert len(fixed) > len(auto)
    assert fixed.sample_rate_hz == 23.328e9


@pytest.mark.parametrize("text, key", [("snr_db=abc\n", "snr_db"), ("seed=1.5\n", "seed"),
                                       ("mounts_deg=90,left\n", "mounts_deg"),
                                       ("grid_resolution_m=-1\n", "grid_resolution_m")])
def test_load_config_names_the_file_and_the_key(tmp_path, text, key):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(str(path))) as err:
        load_config(path)
    assert key in str(err.value)
