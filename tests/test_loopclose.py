"""Descriptor matching, robust fitting, and the dual-detector verdict."""

import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from sarloop import (DetectorConfig, FeatureSet, GrayImage, LoopDecision, MatchReport,
                     RunConfig, SimilarityTransform, detect_and_match, validate_loop)
from sarloop.features import base as feature_base
from sarloop.features import (corners, detect_and_describe, load_feature_set,
                              register_detector, save_feature_set)
from sarloop.geometry import wrap_angle
from sarloop.loopclose import (REPORT_COLUMNS, estimate_similarity_ransac, format_report_table,
                               fuse_transform, hamming_distances, knn_match,
                               match_feature_sets, ratio_test, write_report_table)


def feature_set(desc, detector_id="orb", coords=None, resolution_m=1.0):
    desc = np.asarray(desc, dtype=np.uint8)
    if coords is None:
        coords = [(float(i), float(i)) for i in range(desc.shape[0])]
    kps = [(xy, 1.0, 0.0, 0) for xy in coords]
    return FeatureSet(detector_id, kps, desc, resolution_m)


def test_hamming_distances_known_bytes():
    a = np.array([[0b11110000, 0b00001111], [0xFF, 0xFF]], dtype=np.uint8)
    b = np.array([[0, 0], [0b11110000, 0b00001111]], dtype=np.uint8)
    got = hamming_distances(a, b)
    assert got.tolist() == [[8, 0], [16, 8]]


def test_knn_match_agrees_with_exhaustive_search():
    # descriptor widths in bytes, two of them not a multiple of 8
    rng = np.random.default_rng(31)
    for width in (1, 3, 32, 64):
        a = feature_set(rng.integers(0, 256, size=(50, width)))
        b = feature_set(rng.integers(0, 256, size=(40, width)))
        nearest, got = knn_match(a, b)
        assert nearest.shape == (50,) and got.shape == (50, 2)
        for i in range(50):
            dists = [sum((int(x) ^ int(y)).bit_count()
                         for x, y in zip(a.descriptors[i], b.descriptors[j]))
                     for j in range(40)]
            best = min(range(40), key=lambda j: (dists[j], j))
            second = min(dists[:best] + dists[best + 1:])
            assert nearest[i] == best, width
            assert (got[i, 0], got[i, 1]) == (dists[best], second), width


def test_knn_ties_pick_the_lower_index():
    a = feature_set([[7, 7]])
    b = feature_set([[9, 9], [7, 7], [7, 7]])  # two perfect candidates
    nearest, dists = knn_match(a, b)
    assert nearest.tolist() == [1]
    assert dists.tolist() == [[0, 0]]


def test_knn_match_rejections():
    a = feature_set(np.zeros((3, 32)), "orb")
    with pytest.raises(ValueError, match="detector mismatch"):
        knn_match(a, feature_set(np.zeros((3, 32)), "brisk"))
    with pytest.raises(ValueError, match="at least 2"):
        knn_match(a, feature_set(np.zeros((1, 32)), "orb"))
    nearest, dists = knn_match(feature_set(np.zeros((0, 32)), "orb"), a)
    assert nearest.shape == (0,) and dists.shape == (0, 2)


@pytest.mark.parametrize("n_b", [0, 1, 3])
def test_descriptors_of_different_widths_are_refused(n_b):
    # one detector id, 256 against 512 bits: not comparable, even when b
    # is too small to match
    a = feature_set(np.zeros((3, 32)))
    b = feature_set(np.zeros((n_b, 64)))
    with pytest.raises(ValueError, match="descriptor widths differ: 256 vs 512 bits"):
        match_feature_sets(a, b)
    if n_b >= 2:
        with pytest.raises(ValueError, match="256 vs 512"):
            knn_match(a, b)


def test_a_non_empty_set_needs_descriptor_bytes():
    with pytest.raises(ValueError, match="at least 1 byte wide"):
        feature_set(np.zeros((2, 0)))
    assert len(feature_set(np.zeros((0, 0)))) == 0


def test_ratio_test_boundary_is_strict():
    dists = np.array([[2, 4],      # 2 < 0.75 * 4
                      [3, 4],      # 3 == 0.75 * 4: ambiguous, dropped
                      [0, 0]])     # two perfect candidates, exact kept
    assert ratio_test(dists, 0.75).tolist() == [True, False, True]
    assert ratio_test(dists, 0.9).tolist() == [True, True, True]
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError, match="ratio"):
            ratio_test(dists, bad)


def test_ratio_test_output_is_a_stable_subset():
    rng = np.random.default_rng(32)
    second = rng.integers(1, 60, size=50)
    dists = np.column_stack([rng.integers(0, second + 1), second])
    keep = ratio_test(dists, 0.75)
    assert keep.dtype == bool and keep.shape == (50,)
    assert keep.tolist() == [int(d) < 0.75 * int(s) for d, s in dists]
    assert ratio_test(dists[keep], 0.75).all()  # idempotent


def similarity_apply(t, xy):
    z = xy[:, 0] + 1j * xy[:, 1]
    w = t.scale * np.exp(1j * t.rot_rad) * z + complex(t.tx_m, t.ty_m)
    return np.column_stack([w.real, w.imag])


def test_ransac_recovers_a_clean_transform_exactly():
    rng = np.random.default_rng(33)
    src = rng.uniform(0, 200, size=(12, 2))
    truth = SimilarityTransform(1.02, 14.0, -6.0, 0.3)
    dst = similarity_apply(truth, src)
    t, inliers = estimate_similarity_ransac(src, dst, RunConfig(seed=1), resolution_m=1.0)
    assert inliers.all()
    assert t.scale == pytest.approx(truth.scale, abs=1e-9)
    assert t.tx_m == pytest.approx(truth.tx_m, abs=1e-9)
    assert t.ty_m == pytest.approx(truth.ty_m, abs=1e-9)
    assert t.rot_rad == pytest.approx(truth.rot_rad, abs=1e-9)

    same, _ = estimate_similarity_ransac(src, dst, RunConfig(seed=1), resolution_m=1.0)
    assert same == t  # deterministic for a fixed seed

    ident, _ = estimate_similarity_ransac(src, src, RunConfig(seed=2), resolution_m=1.0)
    assert ident.scale == pytest.approx(1.0, abs=1e-12)
    assert abs(ident.tx_m) < 1e-9 and abs(ident.ty_m) < 1e-9


def test_ransac_translation_scales_with_resolution():
    src = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    dst = src + [20.0, -8.0]
    t, _ = estimate_similarity_ransac(src, dst, RunConfig(seed=3), resolution_m=0.005)
    assert t.tx_m == pytest.approx(0.1, abs=1e-9)
    assert t.ty_m == pytest.approx(-0.04, abs=1e-9)
    assert t.scale == pytest.approx(1.0, abs=1e-12)


def test_ransac_survives_half_outliers():
    rng = np.random.default_rng(34)
    truth = SimilarityTransform(1.0, -12.0, 25.0, -0.4)
    hits = 0
    for trial in range(100):
        src = rng.uniform(0, 300, size=(20, 2))
        dst = similarity_apply(truth, src)
        dst[10:] = rng.uniform(0, 300, size=(10, 2))  # 50% outliers
        t, inliers = estimate_similarity_ransac(src, dst, RunConfig(seed=trial), resolution_m=1.0)
        if (t is not None and inliers[:10].all()
                and abs(t.scale - truth.scale) < 1e-2
                and abs(t.tx_m - truth.tx_m) < 1.0
                and abs(t.ty_m - truth.ty_m) < 1.0
                and abs(wrap_angle(t.rot_rad - truth.rot_rad)) < 1e-2):
            hits += 1
    assert hits >= 99


def test_ransac_refuses_degenerate_input():
    pts = np.zeros((5, 2))
    t, inliers = estimate_similarity_ransac(pts, pts, RunConfig(seed=4), resolution_m=1.0)
    assert t is None
    assert not inliers.any()
    with pytest.raises(ValueError, match="at least 2"):
        estimate_similarity_ransac(np.zeros((1, 2)), np.zeros((1, 2)), RunConfig(),
                                   resolution_m=1.0)
    with pytest.raises(ValueError, match="\\(n, 2\\)"):
        estimate_similarity_ransac(np.zeros((3, 3)), np.zeros((3, 3)), RunConfig(),
                                   resolution_m=1.0)


def test_match_feature_sets_pairs_coordinates_by_descriptor():
    # b holds a's descriptors shuffled, each keypoint moved by (20, -8) px
    rng = np.random.default_rng(35)
    desc = rng.integers(0, 256, size=(8, 32))
    xy = rng.uniform(0, 200, size=(8, 2))
    perm = rng.permutation(8)
    a = feature_set(desc, coords=xy, resolution_m=0.005)
    b = feature_set(desc[perm], coords=xy[perm] + [20.0, -8.0], resolution_m=0.005)
    report = match_feature_sets(a, b)
    assert (report.total_matches, report.good_matches) == (8, 8)
    t = report.transform
    assert t.scale == pytest.approx(1.0, abs=1e-12)
    assert t.tx_m == pytest.approx(0.1, abs=1e-9)
    assert t.ty_m == pytest.approx(-0.04, abs=1e-9)


def test_match_feature_sets_with_no_survivors():
    # every query ties its two nearest neighbors, so nothing is unambiguous
    a = feature_set(np.full((3, 32), 0x55))
    b = feature_set(np.full((4, 32), 0xAA))
    report = match_feature_sets(a, b)
    assert (report.total_matches, report.good_matches) == (0, 0)
    assert report.transform is None
    assert (report.n_keypoints_a, report.n_keypoints_b) == (3, 4)


@pytest.mark.parametrize("n_b", [0, 1])
def test_match_feature_sets_against_fewer_than_two_keypoints(n_b):
    a = feature_set(np.zeros((3, 32)))
    report = match_feature_sets(a, feature_set(np.zeros((n_b, 32))))
    assert (report.n_keypoints_a, report.n_keypoints_b) == (3, n_b)
    assert (report.total_matches, report.good_matches) == (0, 0)
    assert report.transform is None
    with pytest.raises(ValueError, match="detector mismatch"):
        match_feature_sets(a, feature_set(np.zeros((n_b, 32)), "brisk"))


@pytest.mark.parametrize("n_b", [0, 1, 3])
def test_match_feature_sets_refuses_different_pixel_sizes(n_b):
    # checked before anything else, even when b is too small to match
    a = feature_set(np.zeros((3, 32)), resolution_m=0.005)
    b = feature_set(np.zeros((n_b, 32)), resolution_m=0.01)
    with pytest.raises(ValueError, match="resolutions differ: 0.005 vs 0.01"):
        match_feature_sets(a, b)


@pytest.mark.parametrize("seed, detector_id", [(0, "orb"), (1, "brisk")])
def test_a_refit_from_saved_feature_sets_is_exact(five_scatterer, tmp_path, seed,
                                                   detector_id):
    # A pair shifted by (7, -3) px: scaled-up octave positions such as
    # 57 * 1.2 = 68.39999999999999 are off the f32 grid, and the refit sees
    # them only if the file keeps every bit of x/y.
    img = five_scatterer.image
    shifted = GrayImage(np.roll(img.pixels, (-3, 7), axis=(0, 1)), img.resolution_m)
    cfg = DetectorConfig(detector_id, RunConfig())
    fa, fb = detect_and_describe(img, cfg), detect_and_describe(shifted, cfg)
    best, dists = knn_match(fa, fb)
    cfg = RunConfig(seed=seed)
    keep = ratio_test(dists, cfg.ratio)
    _, inliers = estimate_similarity_ransac(fa.keypoints["xy"][keep],
                                            fb.keypoints["xy"][best[keep]], cfg,
                                            resolution_m=img.resolution_m)
    assert fa.keypoints["octave"][keep][inliers].max() >= 1
    assert fb.keypoints["octave"][best[keep]][inliers].max() >= 1

    in_memory = match_feature_sets(fa, fb, cfg)
    save_feature_set(fa, tmp_path / "a.bin")
    save_feature_set(fb, tmp_path / "b.bin")
    refit = match_feature_sets(load_feature_set(tmp_path / "a.bin"),
                               load_feature_set(tmp_path / "b.bin"), cfg)
    assert in_memory.good_matches >= 20
    assert refit == in_memory


def test_fuse_transform_examples():
    ta = SimilarityTransform(1.0, 1.0, 2.0, 0.1)
    tb = SimilarityTransform(1.0, 3.0, 4.0, 0.3)
    fused = fuse_transform(ta, 10, tb, 30)
    assert fused.scale == pytest.approx(1.0)
    assert fused.tx_m == pytest.approx(2.5)
    assert fused.ty_m == pytest.approx(3.5)
    assert fused.rot_rad == pytest.approx(0.25)
    assert fuse_transform(ta, 7, tb, 0) == ta  # zero weight drops out exactly
    assert fuse_transform(ta, 0, tb, 7) == tb


def test_fuse_transform_takes_the_short_way_around():
    ta = SimilarityTransform(1.0, 0.0, 0.0, math.pi - 0.1)
    tb = SimilarityTransform(1.0, 0.0, 0.0, -math.pi + 0.1)
    fused = fuse_transform(ta, 5, tb, 5)
    assert abs(wrap_angle(fused.rot_rad - math.pi)) < 1e-12


def test_fuse_transform_weight_errors():
    t = SimilarityTransform(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="non-negative"):
        fuse_transform(t, -1, t, 5)
    with pytest.raises(ValueError, match="positive"):
        fuse_transform(t, 0, t, 0)


def test_fuse_transform_is_symmetric():
    rng = np.random.default_rng(35)
    for _ in range(100):
        ta = SimilarityTransform(rng.uniform(0.9, 1.1), rng.uniform(-2, 2),
                                 rng.uniform(-2, 2), rng.uniform(-math.pi, math.pi))
        tb = SimilarityTransform(rng.uniform(0.9, 1.1), rng.uniform(-2, 2),
                                 rng.uniform(-2, 2), rng.uniform(-math.pi, math.pi))
        na, nb = int(rng.integers(1, 50)), int(rng.integers(1, 50))
        ab = fuse_transform(ta, na, tb, nb)
        ba = fuse_transform(tb, nb, ta, na)
        assert ab.scale == pytest.approx(ba.scale, abs=1e-12)
        assert ab.tx_m == pytest.approx(ba.tx_m, abs=1e-12)
        assert ab.ty_m == pytest.approx(ba.ty_m, abs=1e-12)
        assert abs(wrap_angle(ab.rot_rad - ba.rot_rad)) < 1e-12


def report(detector_id, good, transform, total=None, kp=300):
    total = good if total is None else total
    return MatchReport(detector_id, kp, kp, total, good, transform)


def near_identity(**kw):
    base = dict(scale=1.0, tx_m=0.02, ty_m=-0.01, rot_rad=0.01)
    base.update(kw)
    return SimilarityTransform(**base)


def test_validate_loop_accepts_agreeing_detectors():
    ra = report("orb", 40, near_identity())
    rb = report("brisk", 60, near_identity(tx_m=0.05, rot_rad=0.02))
    decision = validate_loop(ra, rb)
    assert decision.accepted
    assert decision.reasons == ()
    assert decision.fused_transform.scale == 1.0  # pinned exactly
    assert decision.fused_transform.tx_m == pytest.approx(0.038)
    assert decision.reports == (ra, rb)


def test_validate_loop_requires_distinct_detectors():
    ra = report("orb", 40, near_identity())
    with pytest.raises(ValueError, match="distinct"):
        validate_loop(ra, report("orb", 40, near_identity()))


def test_validate_loop_names_each_failure():
    ok = near_identity()
    cases = [
        (report("orb", 5, ok), report("brisk", 40, ok), ("match count",)),
        (report("orb", 40, near_identity(scale=1.08)), report("brisk", 40, ok),
         ("scale",)),
        (report("orb", 40, near_identity(tx_m=0.5)), report("brisk", 40, ok),
         ("translation",)),
        (report("orb", 40, near_identity(rot_rad=0.2)), report("brisk", 40, ok),
         ("rotation",)),
        (report("orb", 40, None, total=40), report("brisk", 40, ok),
         ("match count",)),
    ]
    for ra, rb, want in cases:
        decision = validate_loop(ra, rb)
        assert not decision.accepted
        assert decision.fused_transform is None
        assert decision.reasons == want


def test_validate_loop_reports_failures_in_a_fixed_order():
    ra = report("orb", 5, SimilarityTransform(1.2, 0.5, 0.0, 0.0))
    rb = report("brisk", 40, SimilarityTransform(0.8, 0.0, 0.0, 0.2))
    decision = validate_loop(ra, rb)
    assert decision.reasons == ("match count", "scale", "translation", "rotation")


def test_validate_loop_custom_thresholds():
    loose = RunConfig(min_good_matches=3, scale_tol=0.3, translation_tol_mm=1000.0,
                      rotation_tol_deg=30.0)
    ra = report("orb", 5, near_identity(scale=1.2))
    rb = report("brisk", 4, near_identity(tx_m=0.6))
    assert validate_loop(ra, rb, loose).accepted


def test_report_table_layout(tmp_path):
    ra = report("orb", 40, near_identity())
    rb = report("brisk", 0, None, total=8)
    decision = validate_loop(ra, report("brisk", 60, near_identity()))
    text = format_report_table([ra, rb])
    lines = text.splitlines()
    assert lines[0] == "# " + "\t".join(REPORT_COLUMNS)
    assert len(lines) == 3
    assert lines[1].split("\t")[0] == "orb"
    assert lines[2].split("\t")[5:9] == ["nan"] * 4  # no transform fitted
    assert all(line.split("\t")[-2:] == ["-", "-"] for line in lines[1:])

    accepted = format_report_table(decision.reports, decision)
    rows = accepted.splitlines()
    assert rows[-1].startswith("fused\t")
    assert rows[-1].split("\t")[4] == "100"  # good counts add up
    assert all(r.split("\t")[-2] == "accepted" for r in rows[1:])

    path = tmp_path / "report.tsv"
    write_report_table(path, decision.reports, decision)
    assert path.read_text() == accepted


def test_detect_and_match_requires_matching_resolution(five_scatterer, detector_calls):
    from sarloop import DetectorConfig, GrayImage
    img = five_scatterer.image
    other = GrayImage(img.pixels, img.resolution_m * 2)
    with pytest.raises(ValueError, match="resolutions differ"):
        detect_and_match(img, other, RunConfig(detectors=("orb",)))
    assert detector_calls == []  # refused before any detection


def test_detect_and_match_self_pair_is_a_clean_identity(five_scatterer):
    from sarloop import DetectorConfig
    img = five_scatterer.image
    reports = [report for _, _, report in detect_and_match(img, img, RunConfig(seed=9))]
    assert [r.detector_id for r in reports] == ["orb", "brisk"]
    for r in reports:
        assert r.good_matches >= 20
        assert r.transform.scale == pytest.approx(1.0, abs=1e-6)
        assert abs(r.transform.tx_m) < 1e-6 and abs(r.transform.ty_m) < 1e-6
        assert abs(r.transform.rot_rad) < 1e-6
    decision = validate_loop(*reports)
    assert decision.accepted and decision.reasons == ()


def test_identical_pixels_are_detected_once_per_detector(five_scatterer,
                                                         detector_calls):
    from sarloop import DetectorConfig, GrayImage
    img = five_scatterer.image
    copy = GrayImage(img.pixels.copy(), img.resolution_m)
    matched = detect_and_match(img, copy, RunConfig(seed=9))
    assert [c.detector_id for c in detector_calls] == ["orb", "brisk"]
    for k, (fa, fb, report) in enumerate(matched):
        assert fb is fa
        assert report == match_feature_sets(fa, fa, RunConfig(seed=9 + k))


def test_different_pixels_are_detected_per_image(five_scatterer, detector_calls):
    from sarloop import DetectorConfig, GrayImage
    img = five_scatterer.image
    shifted = GrayImage(np.roll(img.pixels, 3, axis=1), img.resolution_m)
    assert shifted.pixels.shape == img.pixels.shape
    detect_and_match(img, shifted)
    # image by image
    assert [c.detector_id for c in detector_calls] == ["orb", "brisk", "orb", "brisk"]


@pytest.fixture
def pyramids(monkeypatch):
    """Per ``build_pyramid`` call: weak references to the levels it built,
    and how many levels of earlier calls were still alive when it began."""
    built, alive = [], []
    build = corners.build_pyramid

    def counted(pixels, n_octaves):
        alive.append(sum(ref() is not None for refs in built for ref in refs))
        levels = build(pixels, n_octaves)
        built.append([weakref.ref(level) for level in levels])
        return levels

    monkeypatch.setattr(corners, "build_pyramid", counted)
    return built, alive


def shifted_pair(five_scatterer):
    img = five_scatterer.image
    return img, GrayImage(np.roll(img.pixels, 3, axis=1), img.resolution_m)


def test_native_detectors_share_one_pyramid_per_image(five_scatterer, pyramids):
    built, alive = pyramids
    img, shifted = shifted_pair(five_scatterer)
    detect_and_match(img, shifted)
    assert len(built) == 2  # one per image, for both detectors
    assert alive == [0, 0]  # image A's pyramid was gone before image B's began
    assert all(ref() is None for refs in built for ref in refs)
    assert corners._SCOPES == []  # nothing outlives the call

    built.clear()
    detect_and_match(img, img)
    assert len(built) == 1

    built.clear()
    run = RunConfig()
    for name in run.detectors:
        detect_and_describe(img, DetectorConfig(name, run))
    assert len(built) == 2  # outside detect_and_match, each call builds its own


@pytest.mark.parametrize("brisk_cfg", [
    DetectorConfig("brisk", RunConfig()),
    DetectorConfig("brisk", RunConfig(corner_threshold=20)),
    DetectorConfig("brisk", RunConfig(target_keypoints=150)),
], ids=["shared", "threshold", "cap"])
def test_shared_front_ends_describe_the_same_bytes(five_scatterer, pyramids, brisk_cfg):
    built, _ = pyramids
    img, shifted = shifted_pair(five_scatterer)
    cfgs = [DetectorConfig("orb", RunConfig()), brisk_cfg]
    scoped = []
    for image in (img, shifted):
        with corners.SharedFrontEnds():
            scoped.append([detect_and_describe(image, cfg) for cfg in cfgs])
    # A front end per image and per distinct (threshold, octaves, cap).
    assert len(built) == (2 if brisk_cfg.run == RunConfig() else 4)
    for cfg, fa, fb in zip(cfgs, *scoped):
        for got, want in ((fa, detect_and_describe(img, cfg)),
                          (fb, detect_and_describe(shifted, cfg))):
            assert (got.detector_id, got.resolution_m) == (want.detector_id, want.resolution_m)
            assert got.keypoints.tobytes() == want.keypoints.tobytes()
            assert got.descriptors.tobytes() == want.descriptors.tobytes()
    if brisk_cfg.run == RunConfig():  # the default run config's detectors
        for (fa, fb, _), want_a, want_b in zip(detect_and_match(img, shifted), *scoped):
            for got, want in ((fa, want_a), (fb, want_b)):
                assert got.keypoints.tobytes() == want.keypoints.tobytes()
                assert got.descriptors.tobytes() == want.descriptors.tobytes()


def test_a_registered_detector_runs_beside_orb(five_scatterer, monkeypatch):
    monkeypatch.setattr(feature_base, "_DETECTORS", dict(feature_base._DETECTORS))
    calls = []

    @register_detector("rows")
    def detect_rows(img, cfg):
        """Eight pixels of the image row at each point of a coarse grid."""
        calls.append((img, cfg))
        ys, xs = np.mgrid[20:380:30, 20:380:30].reshape(2, -1)
        desc = img.pixels[ys[:, None], xs[:, None] + np.arange(-4, 4)].astype(np.uint8)
        kps = [((float(x), float(y)), 1.0, 0.0, 0) for x, y in zip(xs, ys)]
        return FeatureSet(cfg.detector_id, kps, desc, img.resolution_m)

    img, shifted = shifted_pair(five_scatterer)
    cfg = RunConfig(detectors=("orb", "rows"), seed=4)
    rows_cfg = DetectorConfig("rows", cfg)
    (oa, ob, orb_report), (ra, rb, _) = detect_and_match(img, shifted, cfg)
    assert len(calls) == 2
    assert calls[0][0] is img and calls[1][0] is shifted
    assert calls[0][1] == rows_cfg and calls[1][1] == rows_cfg
    assert calls[0][1].run is cfg and calls[1][1].run is cfg
    assert ra.descriptors.tobytes() == detect_rows(img, rows_cfg).descriptors.tobytes()
    assert rb.descriptors.tobytes() == detect_rows(shifted, rows_cfg).descriptors.tobytes()
    (alone_a, alone_b, alone_report), = detect_and_match(
        img, shifted, replace(cfg, detectors=("orb",)))
    assert orb_report == alone_report
    assert oa.descriptors.tobytes() == alone_a.descriptors.tobytes()
    assert ob.keypoints.tobytes() == alone_b.keypoints.tobytes()


def test_a_detector_may_describe_another_image_inside_the_scope(five_scatterer,
                                                                 monkeypatch):
    monkeypatch.setattr(feature_base, "_DETECTORS", dict(feature_base._DETECTORS))

    @register_detector("orb_mirrored")
    def detect_mirrored(img, cfg):
        """ORB on the image mirrored left to right."""
        mirrored = GrayImage(img.pixels[:, ::-1], img.resolution_m)
        fs = detect_and_describe(mirrored, DetectorConfig("orb", cfg.run))
        return FeatureSet(cfg.detector_id, fs.keypoints, fs.descriptors, fs.resolution_m)

    img, shifted = shifted_pair(five_scatterer)
    _, (fa, fb, _) = detect_and_match(img, shifted,
                                      RunConfig(detectors=("orb", "orb_mirrored")))
    for got, source in ((fa, img), (fb, shifted)):
        want = detect_mirrored(source, DetectorConfig("orb_mirrored", RunConfig()))
        assert got.keypoints.tobytes() == want.keypoints.tobytes()
        assert got.descriptors.tobytes() == want.descriptors.tobytes()
