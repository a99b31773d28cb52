"""End-to-end acceptance checks for the imaging and loop-closure pipeline.

Each test states one externally visible guarantee of the package; run with
``pytest -v`` to get a one-line verdict per guarantee.
"""

import math

import numpy as np
import pytest
from scipy import ndimage

from sarloop import (GrayImage, ImageGrid, MatchReport, RunConfig,
                     SarImage, SimilarityTransform,
                     compress_scan, detect_and_match, positive_image,
                     radar_pulse, validate_loop)
from sarloop.geometry import wrap_angle
from sarloop.imgpost import cellwise_difference, occupancy_from_image
from sarloop.loopclose import estimate_similarity_ransac, fuse_transform, knn_match
from sarloop.radar import pulse_value, range_bin_spacing
from sarloop.simulate import default_bin_count


def test_01_five_point_scene_localizes_every_scatterer_within_one_pixel(
        five_scatterer):
    pos = positive_image(five_scatterer.sar).pixels
    for row, col in np.argwhere(five_scatterer.truth):
        window = pos[row - 5:row + 6, col - 5:col + 6]
        dr, dc = np.unravel_index(np.argmax(window), window.shape)
        err_px = math.hypot(dr - 5, dc - 5)
        assert err_px <= 1.0, (
            f"peak {err_px:.2f} px from the target at ({col}, {row})")
    assert five_scatterer.elapsed_s <= 60.0, (
        f"reconstruction took {five_scatterer.elapsed_s:.1f} s")


def test_02_range_bin_spacing_matches_the_radar_clock(table1):
    assert range_bin_spacing(table1) == pytest.approx(6.4256e-3, abs=1e-7)


def delay_crb_bins(pulse_samples: np.ndarray, sigma: float) -> float:
    """Cramer-Rao bound (std, in bins) on the delay of a known pulse of
    unknown carrier phase in white noise of std sigma: sigma / (2 pi B sqrt(E)),
    with E the pulse energy and B its RMS envelope bandwidth in cycles/sample
    (the spectral spread about the centroid; Van Trees, 1968, Part I)."""
    power = np.abs(np.fft.rfft(pulse_samples, 64 * len(pulse_samples))) ** 2
    freqs = np.fft.rfftfreq(64 * len(pulse_samples))
    centroid = np.sum(freqs * power) / np.sum(power)
    rms_bw = math.sqrt(np.sum((freqs - centroid) ** 2 * power) / np.sum(power))
    energy = float(np.sum(pulse_samples ** 2))
    return sigma / (2.0 * math.pi * rms_bw * math.sqrt(energy))


def test_03_matched_filter_recovers_randomized_delays_at_low_snr(table1):
    # 100 noisy single-echo scans at 10 dB peak-amplitude SNR. A single pulse
    # at this SNR locates its echo only to about one bin: the envelope
    # peak's Cramer-Rao std is ~0.99 bin, and even the Bayes-optimal
    # estimator (known pulse, amplitude and sign) lands within one bin in
    # only ~94 % of scans. So the bound is 4 CRB stds (4 bins, ~2.6 cm, a
    # third of the c/2B range resolution), and those peaks must be unbiased.
    n_bins = default_bin_count(table1)
    pulse = radar_pulse(table1)
    t = np.arange(n_bins) / table1.sample_rate_hz
    rng = np.random.default_rng(20260814)
    snr_db = 10.0
    errors = []
    for _ in range(100):
        true_bin = int(rng.integers(50, n_bins - 50))
        clean = pulse_value(table1, t - true_bin / table1.sample_rate_hz)
        sigma = np.max(np.abs(clean)) / 10.0 ** (snr_db / 20.0)
        samples = clean + rng.normal(0.0, sigma, n_bins)
        peak = int(np.argmax(np.abs(compress_scan(samples, table1))))
        errors.append(peak - true_bin)
    # sigma is the same in every trial: true_bin is an integer, so each
    # clean peak is the pulse amplitude
    tol = math.ceil(4.0 * delay_crb_bins(pulse, sigma))
    errors = np.array(errors)
    near = errors[np.abs(errors) <= tol]
    assert near.size >= 99, (
        f"only {near.size}/100 delays recovered within {tol} bins")
    assert abs(near.mean()) <= 0.5, (
        f"delay estimates biased by {near.mean():+.2f} bins")


def test_04_feature_enhancement_keeps_positive_energy_exact():
    rng = np.random.default_rng(64)
    z = (rng.normal(size=1000) + 1j * rng.normal(size=1000)).reshape(25, 40)
    out = positive_image(SarImage(ImageGrid(40, 25, 0.005), z, 1)).pixels
    want = z.real + np.abs(z)
    scale = np.abs(want).max()
    assert np.all(np.abs(out - want) <= 1e-12 * scale)
    assert np.all(out >= 0)


def warp_similarity(img: GrayImage, scale: float, rot_rad: float,
                    tx_px: float, ty_px: float) -> GrayImage:
    """Resample img under p' = scale * R(rot) * p + t (x right, y down)."""
    c, s = math.cos(rot_rad), math.sin(rot_rad)
    fwd = scale * np.array([[c, s], [-s, c]])  # row/col order
    shift = np.array([ty_px, tx_px])
    inv = np.linalg.inv(fwd)
    pixels = ndimage.affine_transform(img.pixels.astype(np.float64), inv,
                                      -inv @ shift, order=1, mode="constant")
    return GrayImage(pixels, img.resolution_m)


def test_05_known_warp_is_recovered_by_both_detectors(five_scatterer):
    img = five_scatterer.image
    rot = math.radians(5.0)
    tx_px, ty_px = 30.0, -20.0
    warped = warp_similarity(img, 1.0, rot, tx_px, ty_px)
    reports = [report for _, _, report in detect_and_match(img, warped, RunConfig(seed=5))]
    res = img.resolution_m
    for r in reports:
        t = r.transform
        assert t is not None, f"{r.detector_id}: no transform fitted"
        assert abs(t.scale - 1.0) <= 0.02, f"{r.detector_id}: scale {t.scale}"
        assert abs(math.degrees(t.rot_rad) - 5.0) <= 0.5, (
            f"{r.detector_id}: rotation {math.degrees(t.rot_rad):.2f} deg")
        assert abs(t.tx_m / res - tx_px) <= 2.0, (
            f"{r.detector_id}: tx {t.tx_m / res:.2f} px")
        assert abs(t.ty_m / res - ty_px) <= 2.0, (
            f"{r.detector_id}: ty {t.ty_m / res:.2f} px")
        assert r.good_matches / r.total_matches >= 0.34, (
            f"{r.detector_id}: good fraction {r.good_matches / r.total_matches:.2f}")


def test_06_loop_decisions_discriminate_self_from_disjoint_pairs(
        reconstruct_fn):
    pairs = []
    for i in range(10):
        rng = np.random.default_rng(1000 + i)
        n = int(rng.integers(8, 13))
        scene = [(rng.uniform(0.0, 1.5),
                  rng.choice([-1.0, 1.0]) * rng.uniform(0.45, 0.95),
                  rng.uniform(0.6, 1.5))
                 for _ in range(n)]
        pairs.append((reconstruct_fn(scene, noise_seed=2000 + i).image,
                      reconstruct_fn(scene, noise_seed=3000 + i).image))

    def verdict(img_a, img_b, seed):
        return validate_loop(*(report for _, _, report in detect_and_match(
            img_a, img_b, RunConfig(seed=seed))))

    accepted_self, false_positives = 0, 0
    for i, (img_a, img_b) in enumerate(pairs):
        same = verdict(img_a, img_b, i)
        accepted_self += same.accepted
        foreign = pairs[(i + 1) % 10][1]
        cross = verdict(img_a, foreign, i)
        false_positives += cross.accepted
    assert accepted_self == 10, f"only {accepted_self}/10 revisits accepted"
    assert false_positives == 0, f"{false_positives} disjoint pairs accepted"


# Reference match records from a hardware corridor-mapping run: six revisit
# events (both detectors agreed) and six non-revisit events (implausible
# fits). Keypoint counts with good-match percentages; transforms as
# (scale, tx, ty, rot_deg) -- millimeters for revisits, meters otherwise.
REVISIT_EVENTS = (
    (("akaze", 200, 200, 75.7, (1.00, 25.1, -36.7, -0.63)),
     ("orb", 200, 200, 66.1, (1.00, 27.3, -47.4, -0.66))),
    (("akaze", 195, 168, 64.0, (1.00, 15.3, -34.8, -0.28)),
     ("orb", 200, 198, 47.4, (0.99, 53.3, -20.4, -1.51))),
    (("akaze", 170, 150, 78.5, (1.00, 39.02, -30.02, -0.81)),
     ("orb", 200, 192, 62.9, (1.01, 5.03, -31.7, -0.12))),
    (("akaze", 200, 186, 79.2, (0.99, 34.1, -11.6, -0.62)),
     ("orb", 200, 200, 54.8, (1.00, 24.5, -18.6, -0.51))),
    (("akaze", 200, 200, 80.8, (0.99, 8.7, -0.78, -0.22)),
     ("orb", 200, 200, 42.3, (1.00, 28.4, -6.36, -0.57))),
    (("akaze", 200, 154, 62.5, (1.00, -28.4, -5.2, 0.22)),
     ("orb", 200, 182, 82.1, (0.99, -6.83, 23.4, 0.18))),
)

NON_REVISIT_EVENTS = (
    ((("akaze", 14, 5, (1.16, -1.7, 0.27, 20.59)),
      ("orb", 23, 7, (1.13, -1.67, 0.39, 21.21))),
     ("match count", "scale", "translation")),
    ((("akaze", 5, 0, None),
      ("orb", 25, 8, (0.05, 0.14, 4.13, 7.11))),
     ("match count", "scale")),
    ((("akaze", 11, 4, (0.92, -0.13, 0.17, -4.44)),
      ("orb", 20, 10, None)),          # degenerate scale-0 fit, no transform
     ("match count", "scale")),
    ((("akaze", 17, 8, None),          # degenerate scale-0 fit, no transform
      ("orb", 19, 7, (0.94, 1.13, 2.50, -26.78))),
     ("match count", "scale")),
    ((("akaze", 8, 4, (1.05, 1.88, 6.67, 173.88)),
      ("orb", 25, 6, (1.2142, 1.14, -0.80, -25.83))),
     ("match count", "scale", "translation", "rotation")),
    ((("akaze", 9, 3, (0.11, 1.36, 1.59, -109.76)),
      ("orb", 24, 10, (1.1361, 3.39, 6.37, -170.4))),
     ("match count", "scale", "translation", "rotation")),
)


def revisit_report(row):
    detector, kp_a, kp_b, pct, (scale, tx_mm, ty_mm, rot_deg) = row
    total = min(kp_a, kp_b)
    good = round(pct / 100.0 * total)
    t = SimilarityTransform(scale, tx_mm / 1000.0, ty_mm / 1000.0,
                            math.radians(rot_deg))
    return MatchReport(detector, kp_a, kp_b, total, good, t)


def non_revisit_report(row):
    detector, total, good, tform = row
    t = None
    if tform is not None:
        scale, tx_m, ty_m, rot_deg = tform
        t = SimilarityTransform(scale, tx_m, ty_m, math.radians(rot_deg))
    return MatchReport(detector, 200, 200, total, good, t)


def test_07_recorded_event_fixtures_validate_as_observed():
    for pair in REVISIT_EVENTS:
        decision = validate_loop(*map(revisit_report, pair))
        assert decision.accepted, f"revisit rejected: {decision.reasons}"
        assert decision.reasons == ()
        assert decision.fused_transform.scale == 1.0
    for rows, want_reasons in NON_REVISIT_EVENTS:
        decision = validate_loop(*map(non_revisit_report, rows))
        assert not decision.accepted
        assert decision.reasons == want_reasons


def test_08_transform_fusion_is_exact_and_symmetric():
    ta = SimilarityTransform(1.0, 0.020, 0.004, 0.02)
    tb = SimilarityTransform(1.0, 0.040, -0.008, -0.01)
    same = fuse_transform(ta, 12, ta, 12)
    for field in ("scale", "tx_m", "ty_m", "rot_rad"):
        assert abs(getattr(same, field) - getattr(ta, field)) <= 1e-12
    assert fuse_transform(ta, 9, tb, 0) == ta
    fused = fuse_transform(ta, 30, tb, 10)
    assert abs(fused.tx_m - 0.025) <= 1e-12

    rng = np.random.default_rng(88)
    for _ in range(100):
        ta = SimilarityTransform(rng.uniform(0.9, 1.1), rng.uniform(-1, 1),
                                 rng.uniform(-1, 1),
                                 rng.uniform(-math.pi, math.pi))
        tb = SimilarityTransform(rng.uniform(0.9, 1.1), rng.uniform(-1, 1),
                                 rng.uniform(-1, 1),
                                 rng.uniform(-math.pi, math.pi))
        na, nb = int(rng.integers(0, 40)), int(rng.integers(1, 40))
        ab = fuse_transform(ta, na, tb, nb)
        ba = fuse_transform(tb, nb, ta, na)
        assert abs(ab.scale - ba.scale) <= 1e-12
        assert abs(ab.tx_m - ba.tx_m) <= 1e-12
        assert abs(ab.ty_m - ba.ty_m) <= 1e-12
        assert abs(wrap_angle(ab.rot_rad - ba.rot_rad)) <= 1e-12


def test_09_reconstructed_occupancy_stays_within_the_error_budget(
        five_scatterer):
    occupancy = occupancy_from_image(five_scatterer.image)
    err = cellwise_difference(occupancy, five_scatterer.truth)
    assert err <= 0.15, f"cell-wise map error {err:.3f}"


def test_10_matcher_cores_agree_with_reference_oracles():
    from test_loopclose import feature_set, similarity_apply

    rng = np.random.default_rng(101)
    a = feature_set(rng.integers(0, 256, size=(50, 32)))
    b = feature_set(rng.integers(0, 256, size=(50, 32)))
    nearest, got = knn_match(a, b)
    assert len(nearest) == 50
    for i in range(50):
        dists = [sum((int(x) ^ int(y)).bit_count()
                     for x, y in zip(a.descriptors[i], b.descriptors[j]))
                 for j in range(50)]
        best = min(range(50), key=lambda j: (dists[j], j))
        second = min(dists[:best] + dists[best + 1:])
        assert (nearest[i], got[i, 0], got[i, 1]) == (best, dists[best], second)

    truth = SimilarityTransform(0.97, 8.0, -15.0, 0.6)
    src = rng.uniform(0, 100, size=(10, 2))
    dst = similarity_apply(truth, src)
    t, inliers = estimate_similarity_ransac(src, dst, RunConfig(seed=6), resolution_m=1.0)
    assert inliers.all()
    assert abs(t.scale - truth.scale) <= 1e-9
    assert abs(t.tx_m - truth.tx_m) <= 1e-9
    assert abs(t.ty_m - truth.ty_m) <= 1e-9
    assert abs(wrap_angle(t.rot_rad - truth.rot_rad)) <= 1e-9
