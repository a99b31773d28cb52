"""Corner detection, binary descriptors, and the detector registry."""

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from sarloop import (KEYPOINT, DetectorConfig, FeatureSet, GrayImage, RunConfig,
                     detect_and_describe, load_config, register_detector)
from sarloop.features import base as feature_base
from sarloop.features import brisk, corners, load_feature_set, orb, save_feature_set
from sarloop.features.corners import (ARC_LENGTH, CIRCLE_OFFSETS, READ_REACH_PX, SCALE_STEP,
                                      SEGMENT_ROWS, TILE_PX, axis_taps, build_pyramid,
                                      detect_corners, orientation_centroid, resample_block,
                                      segment_test_scores, smoothed_at)

RES = 0.005


def gray(px):
    return GrayImage(np.asarray(px), RES)


def det(detector_id, **front_end):
    """``detector_id`` under the default run config with the given keys changed."""
    return DetectorConfig(detector_id, RunConfig(**front_end))


def pyramid_corners(img, cfg):
    """Segment-test corners over the full pyramid as (score, octave, row,
    col), strongest first."""
    levels = build_pyramid(img.pixels, cfg.run.n_octaves, cfg.run.corner_threshold)
    return [corner[:4] for corner in detect_corners(levels, cfg.run)]


# ------------------------------------------------- the dense front end, as an oracle

def bilinear_resize(img, out_h, out_w):
    """The whole-level resize: ``resample_block`` at every output row and column."""
    h, w = np.shape(img)
    return resample_block(np.asarray(img, np.float32), axis_taps(h, out_h), axis_taps(w, out_w))


def dense_pyramid(pixels, n_octaves):
    """Every level whole, each resampled from the float32 base as the
    four-corner form does it."""
    base = np.asarray(pixels, dtype=np.float32)
    levels = [base]
    h, w = base.shape
    for k in range(1, n_octaves):
        oh, ow = round(h / SCALE_STEP ** k), round(w / SCALE_STEP ** k)
        if min(oh, ow) < 7:
            break
        levels.append(reference_resize(base, oh, ow))
    return levels


def dense_nms_peaks(scores):
    """Row/col indices of 3x3 local maxima among positive scores. Neighbours
    are clipped to the image, as zero padding never beats a positive score."""
    rows, cols = np.nonzero(scores > 0)
    dr, dc = np.mgrid[-1:2, -1:2].reshape(2, 1, 9)
    h, w = scores.shape
    around = scores[np.clip(rows[:, None] + dr, 0, h - 1), np.clip(cols[:, None] + dc, 0, w - 1)]
    keep = scores[rows, cols] == around.max(axis=1)
    return rows[keep], cols[keep]


def dense_corners(levels, run):
    """Whole-level segment test, suppression and ranking of every level."""
    found = []
    for octave, img in enumerate(levels):
        scores = segment_test_scores(img, run.corner_threshold)
        rows, cols = dense_nms_peaks(scores)
        found += zip(scores[rows, cols].tolist(), [octave] * len(rows),
                     rows.tolist(), cols.tolist())
    found.sort(key=lambda corner: (-corner[0], *corner[1:]))
    return found[:run.target_keypoints]


def random_u8(shape, seed, lo=0, hi=200):
    return np.random.default_rng(seed).integers(lo, hi, size=shape).astype(np.uint8)


def hamming(a, b):
    return int(np.unpackbits(np.bitwise_xor(a, b)).sum())


# ---------------------------------------------------------------- corners

def test_circle_offsets_trace_the_radius3_ring_clockwise():
    assert CIRCLE_OFFSETS == (
        (-3, 0), (-3, 1), (-2, 2), (-1, 3), (0, 3), (1, 3), (2, 2), (3, 1),
        (3, 0), (3, -1), (2, -2), (1, -3), (0, -3), (-1, -3), (-2, -2), (-3, -1))
    assert ARC_LENGTH == 9


def segment_test_oracle(img, threshold):
    """Per-pixel segment test: every 9-arc, both signs, no pruning."""
    h, w = img.shape
    want = np.zeros((h, w), dtype=np.float32)
    for r in range(3, h - 3):
        for c in range(3, w - 3):
            deltas = [img[r + dr, c + dc] - img[r, c] for dr, dc in CIRCLE_OFFSETS]
            score = -np.inf
            for sign in (1.0, -1.0):
                d = [sign * v for v in deltas]
                for start in range(16):
                    arc = min(d[(start + k) % 16] for k in range(ARC_LENGTH))
                    score = max(score, arc)
            if score > threshold:
                want[r, c] = score
    return want


def test_segment_test_matches_per_pixel_oracle():
    img = random_u8((40, 40), seed=11, hi=256).astype(np.float32)
    threshold = 12.0
    got = segment_test_scores(img, threshold)
    want = segment_test_oracle(img, threshold)
    assert np.array_equal(got, want)
    assert np.all(got[:3] == 0) and np.all(got[:, -3:] == 0)


def test_segment_test_bands_match_the_oracle_at_every_seam():
    # rows are tested in bands of SEGMENT_ROWS from row 3: a corner on each row either
    # side of every seam, and one in the final, partial band, each in its own columns
    h, w = 3 + 3 * SEGMENT_ROWS + 23 + 3, 14
    img = random_u8((h, w), seed=12, hi=8).astype(np.float32) + 100
    seams = [3 + k * SEGMENT_ROWS for k in (1, 2, 3)]
    planted = [(row, 3 + 7 * (row % 2)) for seam in seams for row in (seam - 1, seam)]
    planted.append((h - 5, 6))
    for r, c in planted:
        for dr, dc in CIRCLE_OFFSETS[2:14]:
            img[r + dr, c + dc] = 160
    got = segment_test_scores(img, 20.0)
    assert got.tobytes() == segment_test_oracle(img, 20.0).tobytes()
    assert all(got[r, c] > 0 for r, c in planted)


sides = st.integers(1, 40)
thresholds = st.one_of(st.integers(1, 60).map(float),
                       st.floats(0.25, 60.0).map(lambda t: round(t, 3)))


@st.composite
def random_or_plateau_images(draw):
    h, w = draw(sides), draw(sides)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.integers(0, 256, (h, w)).astype(np.float32)
    levels = draw(st.lists(st.integers(0, 255), min_size=1, max_size=3))
    return np.asarray(levels, np.float32)[rng.integers(0, len(levels), (h, w))]


@settings(max_examples=150, deadline=None)
@given(random_or_plateau_images(), thresholds)
def test_segment_test_matches_the_oracle_on_random_and_plateau_images(img, threshold):
    got = segment_test_scores(img, threshold)
    assert got.dtype == np.float32
    assert got.tobytes() == segment_test_oracle(img, threshold).tobytes()


@settings(max_examples=150, deadline=None)
@given(st.integers(7, 16), st.integers(7, 16), st.integers(0, 15).filter(lambda s: s % 4),
       st.integers(ARC_LENGTH - 1, ARC_LENGTH + 2), st.sampled_from((1.0, -1.0)),
       thresholds, st.sampled_from((0.5, 1.0, 1.001, 2.0)), st.data())
def test_arcs_lighting_two_compass_pixels_are_scored(h, w, start, length, sign,
                                                      threshold, gain, data):
    # A 9-arc starting off a compass index covers exactly 2 of the 4 compass
    # pixels: the least evidence the pruning rule admits.
    r = data.draw(st.integers(3, h - 4))
    c = data.draw(st.integers(3, w - 4))
    floor = np.float32(100.0)
    img = np.full((h, w), floor, np.float32)
    for k in range(start, start + length):
        dr, dc = CIRCLE_OFFSETS[k % 16]
        img[r + dr, c + dc] = floor + sign * threshold * gain
    got = segment_test_scores(img, threshold)
    assert got.tobytes() == segment_test_oracle(img, threshold).tobytes()
    assert sum(1 for k in range(start, start + ARC_LENGTH) if k % 4 == 0) == 2
    dr, dc = CIRCLE_OFFSETS[start]
    contrast = abs(img[r + dr, c + dc] - floor)
    assert (got[r, c] > 0) == (length >= ARC_LENGTH and contrast > threshold)


def test_raising_the_threshold_only_zeroes_weak_scores():
    img = random_u8((48, 48), seed=12, hi=256)
    lo = segment_test_scores(img, 8.0)
    hi = segment_test_scores(img, 25.0)
    assert np.array_equal(hi, np.where(lo > 25.0, lo, 0.0))


def test_constant_image_yields_no_corners():
    kps = pyramid_corners(gray(np.full((48, 48), 90, np.uint8)),
                          det("orb"))
    assert kps == []


def test_bright_square_corners_are_localized():
    px = np.full((64, 64), 30, np.uint8)
    px[20:41, 16:37] = 220
    kps = pyramid_corners(gray(px), det("orb", n_octaves=1))
    corners = {(16, 20), (36, 20), (16, 40), (36, 40)}
    for cx, cy in corners:
        d = min(math.hypot(c - cx, r - cy) for _, _, r, c in kps)
        assert d <= 2.0, f"no corner near ({cx}, {cy})"


def test_single_octave_keypoints_are_the_3x3_score_maxima():
    img = random_u8((64, 64), seed=13, hi=256)
    threshold = 15
    kps = pyramid_corners(gray(img),
                          det("orb", corner_threshold=threshold, n_octaves=1,
                              target_keypoints=10_000))
    assert len(kps) > 20
    scores = segment_test_scores(img, threshold)
    got = {(r, c) for _, _, r, c in kps}
    for r, c in got:  # every keypoint tops its own neighborhood
        assert scores[r, c] > 0
        assert scores[r, c] == scores[r - 1:r + 2, c - 1:c + 2].max()
    for r in range(1, 63):  # and every strict local max is reported
        for c in range(1, 63):
            window = scores[r - 1:r + 2, c - 1:c + 2]
            if scores[r, c] > 0 and np.sum(window == window.max()) == 1 \
                    and scores[r, c] == window.max():
                assert (r, c) in got


def test_keypoints_rank_strongest_first_and_cap():
    img = gray(random_u8((64, 64), seed=14, hi=256))
    full = pyramid_corners(img, det("orb", target_keypoints=10_000))
    top = pyramid_corners(img, det("orb", target_keypoints=5))
    assert top == full[:5]
    assert full == sorted(full, key=lambda k: (-k[0], k[1], k[2], k[3]))
    assert len({k[0] for k in full}) < len(full)  # the ties are exercised


def test_pyramid_shapes_shrink_by_the_scale_step():
    levels = build_pyramid(np.zeros((100, 80), np.float32), 4, 15)
    assert [shape for shape, _ in levels] == [
        (100, 80),
        (round(100 / SCALE_STEP), round(80 / SCALE_STEP)),
        (round(100 / SCALE_STEP ** 2), round(80 / SCALE_STEP ** 2)),
        (round(100 / SCALE_STEP ** 3), round(80 / SCALE_STEP ** 3))]


def test_bilinear_resize_basics():
    src = random_u8((20, 30), seed=15).astype(np.float32)
    assert np.array_equal(bilinear_resize(src, 20, 30), src)
    assert np.allclose(bilinear_resize(np.full((10, 10), 6.0), 7, 7), 6.0)
    ramp = np.tile(np.arange(40, dtype=np.float32), (8, 1))
    out = bilinear_resize(ramp, 8, 30)
    expect = np.clip((np.arange(30) + 0.5) * (40 / 30) - 0.5, 0, 39)
    assert np.allclose(out, np.tile(expect, (8, 1)), atol=1e-4)


def reference_resize(img, out_h, out_w):
    """``bilinear_resize`` as four ``np.ix_`` corner gathers: the form the
    separable resize must reproduce bit for bit."""
    src = np.asarray(img, dtype=np.float32)
    in_h, in_w = src.shape
    rows = np.clip((np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5, 0, in_h - 1)
    cols = np.clip((np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5, 0, in_w - 1)
    r0 = np.floor(rows).astype(np.intp)
    c0 = np.floor(cols).astype(np.intp)
    r1 = np.minimum(r0 + 1, in_h - 1)
    c1 = np.minimum(c0 + 1, in_w - 1)
    fr = (rows - r0).astype(np.float32)[:, None]
    fc = (cols - c0).astype(np.float32)[None, :]
    top = src[np.ix_(r0, c0)] * (1 - fc) + src[np.ix_(r0, c1)] * fc
    bot = src[np.ix_(r1, c0)] * (1 - fc) + src[np.ix_(r1, c1)] * fc
    return top * (1 - fr) + bot * fr


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 60), st.integers(1, 60),
       st.integers(0, 2**32 - 1), st.booleans())
def test_separable_resize_equals_the_four_corner_form(in_h, in_w, out_h, out_w, seed,
                                                      integer):
    rng = np.random.default_rng(seed)
    src = (rng.integers(0, 256, (in_h, in_w)).astype(np.uint8) if integer
           else rng.normal(0.0, 1e3, (in_h, in_w)))
    got = bilinear_resize(src, out_h, out_w)
    want = reference_resize(src, out_h, out_w)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # any block of the resize, computed alone, has the bits of the whole one's
    (y0, y1), (x0, x1) = np.sort(rng.integers(0, [[out_h], [out_w]], (2, 2)), axis=1)
    ys, xs = slice(y0, y1 + 1), slice(x0, x1 + 1)
    block = resample_block(src, [t[ys] for t in axis_taps(in_h, out_h)],
                           [t[xs] for t in axis_taps(in_w, out_w)])
    assert block.tobytes() == want[ys, xs].tobytes()


def reference_nms(scores):
    """``dense_nms_peaks`` as a zero-padded 3x3 maximum filter over the whole map."""
    local_max = ndimage.maximum_filter(scores, size=3, mode="constant", cval=0.0)
    return np.nonzero((scores > 0) & (scores == local_max))


@st.composite
def score_maps(draw):
    """Sparse score maps with plateaus of equal scores and positives on the border."""
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from((2, 3, 50)))  # few levels: many equal neighbours
    scores = rng.integers(0, levels, (h, w)).astype(np.float32)
    scores[rng.random((h, w)) < draw(st.floats(0.0, 1.0))] = 0.0
    if draw(st.booleans()):
        scores[[0, -1], :] = scores.max(initial=0.0) + 1.0  # border rows peak
    if draw(st.booleans()):
        scores = -scores  # negative scores are never peaks
    return scores


@settings(max_examples=300, deadline=None)
@given(score_maps())
def test_candidate_nms_equals_the_maximum_filter(scores):
    got, want = dense_nms_peaks(scores), reference_nms(scores)
    assert [a.dtype for a in got] == [a.dtype for a in want]
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


def test_nms_keeps_every_pixel_of_an_equal_plateau_and_a_border_peak():
    scores = np.zeros((5, 6), np.float32)
    scores[2, 2:4] = 7.0   # two equal neighbours are both maxima
    scores[0, 5] = 3.0     # a corner pixel next to nothing higher
    scores[4, 0] = scores[3, 1] = 1.0
    scores[4, 1] = 2.0     # beats both its neighbours
    rows, cols = dense_nms_peaks(scores)
    assert list(zip(rows.tolist(), cols.tolist())) == [(0, 5), (2, 2), (2, 3), (4, 1)]


def test_orientation_follows_the_intensity_gradient():
    ramp_x = np.tile(np.arange(41, dtype=float), (41, 1))
    at = (20, 20, orb.ORIENTATION_RADIUS_PX)
    assert orientation_centroid(ramp_x, *at) == pytest.approx(0.0, abs=0.1)
    assert orientation_centroid(ramp_x.T, *at) == pytest.approx(math.pi / 2, abs=0.1)
    assert orientation_centroid(-ramp_x, *at) == pytest.approx(math.pi, abs=0.1)
    # symmetric integer patch: moments cancel exactly, angle defined as 0
    dy, dx = np.mgrid[-20:21, -20:21]
    blob = np.round(200 * np.exp(-(dx ** 2 + dy ** 2) / 50.0))
    assert orientation_centroid(blob, *at) == 0.0
    assert orientation_centroid(np.full((41, 41), 9.0), *at) == 0.0


# ------------------------------------------ the tiled front end against the dense oracle

def tile_seam_map(h, w, seed):
    """A dark floor with bright and dim squares whose edges lie on tile seams,
    in the last partial tile and a few px from a seam, plus sparse speckle. The
    dim square starts on a seam and covers its first tile and more, so only
    the tiles before the seam show the contrast at its corner."""
    rng = np.random.default_rng(seed)
    px = np.full((h, w), 3, np.uint8)
    px[rng.random((h, w)) < 0.01] = 9
    for y0, x0, side, value in ((0, 0, TILE_PX, 60), (2 * TILE_PX, TILE_PX, TILE_PX + 16, 25),
                                (TILE_PX - 5, 2 * TILE_PX + 3, 12, 200),
                                (h - 10, w - 10, 8, 90), (h // 2, 5, 9, 18)):
        px[y0:y0 + side, x0:x0 + side] = value
    return px


def staircase(h, w, tread, rise):
    """Terraces ``tread`` px deep along both axes, each ``rise`` levels above the
    last: quiet alone, but a few adjacent tiles together span more."""
    y, x = np.mgrid[:h, :w]
    return ((y // tread + x // tread) * rise % 256).astype(np.uint8)


@st.composite
def front_end_images(draw):
    """8-bit or float images of the kinds a tile test could get wrong, with the
    front-end keys to run on them."""
    h, w = draw(st.integers(33, 140)), draw(st.integers(33, 140))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(("random", "plateau", "seams", "staircase")))
    if kind == "random":
        px = rng.integers(0, draw(st.sampled_from((8, 40, 256))), (h, w)).astype(np.uint8)
    elif kind == "plateau":
        levels = np.asarray(draw(st.lists(st.integers(0, 255), min_size=1, max_size=3)))
        cell = draw(st.sampled_from((1, 4, 8, 13)))
        px = levels[rng.integers(0, len(levels), (-(-h // cell), -(-w // cell)))]
        px = px.repeat(cell, 0).repeat(cell, 1)[:h, :w].astype(np.uint8)
    elif kind == "seams":
        px = tile_seam_map(h, w, seed)
    else:
        px = staircase(h, w, draw(st.integers(1, 12)), draw(st.integers(1, 20)))
    if draw(st.booleans()):
        px = 255 - px  # quiet tiles at 250 and up: a skipped pixel read as 0 shows
    if draw(st.booleans()):  # a float image, as GrayImage keeps it
        px = px * draw(st.sampled_from((1.0, 0.37, 1e-3, 1e3))) + draw(st.sampled_from((0.0, -7.25)))
    threshold = draw(st.one_of(st.sampled_from((1, 15, 255)), st.integers(2, 60)))
    if px.dtype != np.uint8:
        threshold = max(1, round(threshold * float(np.ptp(px)) / 255))
    run = RunConfig(corner_threshold=threshold, n_octaves=draw(st.integers(1, 5)),
                    target_keypoints=10_000)
    return GrayImage(px, RES).pixels, run


@settings(max_examples=120, deadline=None)
@given(front_end_images())
def test_tiled_front_end_equals_the_dense_oracle(case):
    pixels, run = case
    levels = build_pyramid(pixels, run.n_octaves, run.corner_threshold)
    dense = dense_pyramid(pixels, run.n_octaves)
    got = detect_corners(levels, run)
    assert [corner[:4] for corner in got] == dense_corners(dense, run)
    assert [shape for shape, _ in levels] == [lv.shape for lv in dense]
    assert all(np.shares_memory(block, pixels) == (pixels.dtype == np.uint8)
               for *_, block in levels[0][1])  # level 0 is the 8-bit pixels, not a copy
    for _, octave, row, col, index in got:  # every pixel a describe can read
        _, top, left, block = levels[octave][1][index]
        ys = slice(max(row - READ_REACH_PX, 0), row + READ_REACH_PX + 1)
        xs = slice(max(col - READ_REACH_PX, 0), col + READ_REACH_PX + 1)
        near = np.asarray(block[ys.start - top:ys.stop - top, xs.start - left:xs.stop - left],
                          np.float32)
        assert near.tobytes() == dense[octave][ys, xs].tobytes()


@pytest.fixture
def dense_front_end(monkeypatch):
    """Makes ``describe_keypoints`` run the dense oracle instead of the tiled front end."""
    def pyramid(pixels, n_octaves, _):  # each level one whole block
        return [(lv.shape, [((0, 0, 0, 0), 0, 0, lv)]) for lv in dense_pyramid(pixels, n_octaves)]

    def detect(levels, run):
        return [(*c, 0) for c in dense_corners([blocks[0][3] for _, blocks in levels], run)]

    def use():
        monkeypatch.setattr(corners, "build_pyramid", pyramid)
        monkeypatch.setattr(corners, "detect_corners", detect)
    return use


@pytest.mark.parametrize("kind", ["map", "negative", "seams", "staircase"])
def test_tiled_front_end_describes_the_dense_oracles_bytes(five_scatterer, dense_front_end,
                                                           kind):
    px = five_scatterer.image.pixels
    px = {"map": px, "negative": 255 - px, "seams": tile_seam_map(150, 170, 3),
          "staircase": staircase(120, 150, 3, 6)}[kind]
    cfgs = [det(name, corner_threshold=t, target_keypoints=cap)
            for name in ("orb", "brisk") for t, cap in ((1, 150), (15, 500))]
    tiled = [detect_and_describe(gray(px), cfg) for cfg in cfgs]
    dense_front_end()
    for cfg, got in zip(cfgs, tiled):
        want = detect_and_describe(gray(px), cfg)
        assert got.keypoints.tobytes() == want.keypoints.tobytes()
        assert got.descriptors.tobytes() == want.descriptors.tobytes()
    assert all(len(fs) for fs in tiled)


@pytest.mark.parametrize("detector", [orb, brisk], ids=["orb", "brisk"])
def test_describes_read_only_within_the_read_reach(detector):
    level = np.random.default_rng(6).integers(0, 256, (70, 70)).astype(np.float32)
    lo, hi = detector.BORDER_MARGIN_PX, 69 - detector.BORDER_MARGIN_PX
    for row, col in ((lo, lo), (lo, hi), (hi, 35), (35, 35), (40, hi)):
        blind = np.full_like(level, np.nan)
        ys = slice(max(row - READ_REACH_PX, 0), row + READ_REACH_PX + 1)
        xs = slice(max(col - READ_REACH_PX, 0), col + READ_REACH_PX + 1)
        blind[ys, xs] = level[ys, xs]
        angle, bits = detector._describe(level, col, row)
        assert detector._describe(blind, col, row)[0] == angle
        assert detector._describe(blind, col, row)[1].tobytes() == bits.tobytes()


# ------------------------------------------------------------- descriptors

@st.composite
def resampled_levels_and_samples(draw):
    """A non-integer bilinear pyramid level and sample points touching its edges."""
    h, w = draw(st.integers(8, 70)), draw(st.integers(8, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    level = dense_pyramid(rng.integers(0, 256, (h, w)).astype(np.uint8),
                          draw(st.integers(2, 4)))[-1]
    lh, lw = level.shape
    rows = st.one_of(st.sampled_from((0, lh - 1)), st.integers(0, lh - 1))
    cols = st.one_of(st.sampled_from((0, lw - 1)), st.integers(0, lw - 1))
    points = draw(st.lists(st.tuples(rows, cols), min_size=1, max_size=12))
    sy, sx = np.array(points, dtype=np.intp).T
    return level, sy, sx


SMOOTHING_KERNELS = [*brisk._KERNELS, orb._BOX]


@pytest.mark.parametrize("kernel",
                         [[1, 2], [1, 2, 3], [[1, 1], [2, 2], [3, 1]], [1.0, 2.0, np.nan]],
                         ids=["even", "asymmetric", "asymmetric-table", "nan-one-side"])
def test_smoothed_at_refuses_a_kernel_whose_sums_it_cannot_reproduce(kernel):
    level = np.arange(100, dtype=np.float32).reshape(10, 10)
    with pytest.raises(ValueError, match="odd length and equal their reverse"):
        smoothed_at(level, np.asarray(kernel), np.array([4, 5]), np.array([5, 4]))


def test_a_kernel_table_equals_each_points_own_kernel_on_signed_zeros():
    """A shorter kernel's NaN padding adds nothing, not even to the sign of a zero
    sum: on a level of -0.0 and negative pixels each point gets ndimage's bits."""
    rng = np.random.default_rng(5)
    level = -rng.integers(0, 3, (12, 13)).astype(np.float32) * 0.0  # +0.0 and -0.0
    level[rng.random(level.shape) < 0.2] = -1.5
    kernels = [np.array([1.0, 4.0, 1.0]), brisk._KERNELS[2], np.array([2.0])]
    r = max(len(k) for k in kernels) // 2
    which = np.arange(30) % len(kernels)
    table = np.full((2 * r + 1, len(which)), np.nan)
    for point, k in enumerate(which):
        half = len(kernels[k]) // 2
        table[r - half:r + half + 1, point] = kernels[k]
    sy, sx = rng.integers(0, 12, len(which)), rng.integers(0, 13, len(which))
    got = smoothed_at(level, table, sy, sx)
    for point, k in enumerate(which):
        full = ndimage.convolve1d(level.astype(np.float64), kernels[k], axis=0, mode="reflect")
        full = ndimage.convolve1d(full, kernels[k], axis=1, mode="reflect")
        assert got[point].tobytes() == full[sy[point], sx[point]].tobytes()
    assert np.signbit(got).any()


@settings(max_examples=150, deadline=None)
@given(resampled_levels_and_samples())
def test_windowed_smoothing_equals_full_image_smoothing(sample):
    level, sy, sx = sample
    assert not np.array_equal(level, np.round(level))
    for kernel in SMOOTHING_KERNELS:
        full = ndimage.convolve1d(level.astype(np.float64), kernel, axis=0,
                                  mode="reflect")
        full = ndimage.convolve1d(full, kernel, axis=1, mode="reflect")
        got = smoothed_at(level, kernel, sy, sx)
        assert got.dtype == np.float64
        assert got.tobytes() == full[sy, sx].tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.floats(-math.pi, math.pi))
def test_brisk_samples_equal_per_point_smoothing(seed, fx, fy, angle):
    """One smoothing per sigma serves the pattern at any angle."""
    level = np.random.default_rng(seed).integers(0, 256, (30, 31)).astype(np.float32)
    x, y = brisk.BORDER_MARGIN_PX + 5 * fx, brisk.BORDER_MARGIN_PX + 5 * fy
    got = brisk._sample(level, x, y, angle)
    c, s = math.cos(angle), math.sin(angle)
    px, py = brisk._POINTS.T
    sx = np.floor(c * px - s * py + x + 0.5).astype(np.intp)
    sy = np.floor(s * px + c * py + y + 0.5).astype(np.intp)
    for idx, kernel in enumerate(brisk._KERNELS):
        sel = brisk._SIGMA_INDEX == idx
        assert got[sel].tobytes() == smoothed_at(level, kernel, sy[sel], sx[sel]).tobytes()


def rot90_ccw_coords(x, y, side):
    """Where pixel (x, y) lands after np.rot90 of a side x side image."""
    return y, side - 1 - x


def quarter_turn_distances(detector_id, base):
    side = base.shape[0]
    cfg = det(detector_id, n_octaves=1, target_keypoints=10_000)
    fa = detect_and_describe(gray(base), cfg)
    fb = detect_and_describe(gray(np.rot90(base)), cfg)
    index_b = {(x, y): i for i, (x, y) in enumerate(fb.keypoints["xy"].tolist())}
    dists = []
    for i, (x, y) in enumerate(fa.keypoints["xy"].tolist()):
        j = index_b.get(rot90_ccw_coords(x, y, side))
        if j is not None:
            dists.append(hamming(fa.descriptors[i], fb.descriptors[j]))
    assert len(dists) >= 0.9 * max(len(fa), len(fb), 1)
    return np.array(dists)


def blob_scene(side=96, seed=21, n_blobs=25):
    """Sparse bright blobs on a dark floor, like an enhanced radar map."""
    rng = np.random.default_rng(seed)
    img = np.zeros((side, side))
    rows, cols = rng.integers(8, side - 8, size=(2, n_blobs))
    img[rows, cols] = rng.uniform(80, 255, size=n_blobs)
    y, x = np.mgrid[-4:5, -4:5]
    kern = np.exp(-(x * x + y * y) / 4.0)
    out = np.zeros_like(img)
    for r, c in zip(rows, cols):
        out[r - 4:r + 5, c - 4:c + 5] += img[r, c] * kern
    return (out / out.max() * 255).astype(np.uint8)


def test_orb_descriptors_are_exact_under_quarter_turns():
    # centroid angles and steered box sums both map exactly through rot90
    dists = quarter_turn_distances("orb", random_u8((96, 96), seed=21, hi=256))
    assert dists.max() <= 16  # of 256 bits; bit-exact in practice


def test_brisk_descriptors_are_stable_under_quarter_turns():
    # ring sampling interpolates, so allow a small flipped-bit budget
    dists = quarter_turn_distances("brisk", blob_scene())
    assert np.median(dists) <= 64  # of 512 bits
    assert np.percentile(dists, 90) <= 128


@pytest.mark.parametrize("detector_id", ["orb", "brisk"])
def test_descriptors_ignore_global_brightness(detector_id):
    base = random_u8((64, 64), seed=22, hi=200)
    cfg = det(detector_id, n_octaves=1, target_keypoints=10_000)
    fa = detect_and_describe(gray(base), cfg)
    fb = detect_and_describe(gray(base + 40), cfg)
    assert np.array_equal(fa.keypoints, fb.keypoints)
    assert np.array_equal(fa.descriptors, fb.descriptors)
    assert len(fa) > 10


@pytest.mark.parametrize("detector_id", ["orb", "brisk"])
def test_detection_is_deterministic(detector_id):
    img = gray(random_u8((64, 64), seed=23, hi=256))
    cfg = det(detector_id)
    a = detect_and_describe(img, cfg)
    b = detect_and_describe(img, cfg)
    assert np.array_equal(a.keypoints, b.keypoints)
    assert np.array_equal(a.descriptors, b.descriptors)


def test_pyramid_stops_before_a_level_too_small_for_the_segment_test():
    img = gray(random_u8((64, 80), seed=28, hi=256))
    levels = build_pyramid(img.pixels, 5000, 15)
    assert min(levels[-1][0]) >= 7
    assert round(64 / SCALE_STEP ** len(levels)) < 7
    assert ([shape for shape, _ in build_pyramid(img.pixels, len(levels), 15)]
            == [shape for shape, _ in levels])
    deep = detect_and_describe(img, det("brisk", n_octaves=5000))
    capped = detect_and_describe(img, det("brisk", n_octaves=len(levels)))
    assert np.array_equal(deep.keypoints, capped.keypoints)
    assert np.array_equal(deep.descriptors, capped.descriptors)


def border_survivors(img, cfg, margin_px):
    """(x, y, octave) of the uncapped 3x3 score maxima of every level that
    clear the descriptor margin on their level, strongest first."""
    found = []
    for octave, level in enumerate(dense_pyramid(img.pixels, cfg.run.n_octaves)):
        scores = segment_test_scores(level, cfg.run.corner_threshold)
        h, w = level.shape
        rows, cols = dense_nms_peaks(scores)
        for r, c in zip(rows.tolist(), cols.tolist()):
            if margin_px <= c <= w - 1 - margin_px and margin_px <= r <= h - 1 - margin_px:
                found.append((-float(scores[r, c]), octave, r, c))
    assert len(found) <= cfg.run.target_keypoints
    return [(c * SCALE_STEP ** o, r * SCALE_STEP ** o, o) for _, o, r, c in sorted(found)]


def test_orb_drops_only_border_keypoints():
    img = gray(random_u8((64, 64), seed=24, hi=256))
    cfg = det("orb", n_octaves=2, target_keypoints=10_000)
    fs = detect_and_describe(img, cfg)
    want = border_survivors(img, cfg, orb.BORDER_MARGIN_PX)  # 21 px
    assert 0 < len(want) < len(pyramid_corners(img, cfg))
    assert [(*xy, octave) for xy, octave in
            zip(fs.keypoints["xy"].tolist(), fs.keypoints["octave"].tolist())] == want
    assert fs.descriptors.shape == (len(want), 32)
    assert fs.descriptors.dtype == np.uint8


def test_brisk_drops_border_keypoints_and_sets_angles():
    img = gray(random_u8((64, 64), seed=25, hi=256))
    cfg = det("brisk", n_octaves=2, target_keypoints=10_000)
    fs = detect_and_describe(img, cfg)
    want = border_survivors(img, cfg, brisk.BORDER_MARGIN_PX)  # 12 px
    assert [(*xy, octave) for xy, octave in
            zip(fs.keypoints["xy"].tolist(), fs.keypoints["octave"].tolist())] == want
    assert fs.descriptors.shape == (len(want), 64)
    angles = fs.keypoints["angle"]
    assert np.all((-np.float32(math.pi) <= angles) & (angles <= np.float32(math.pi)))
    assert len(set(angles.tolist())) > 1  # orientation is computed per keypoint


def test_scatterer_map_keypoints_land_on_the_targets(five_scatterer):
    truth_rc = np.argwhere(five_scatterer.truth)
    for detector_id, tol_px in (("orb", 5.0), ("brisk", 5.0)):
        fs = detect_and_describe(five_scatterer.image, det(detector_id))
        assert len(fs) >= 100
        for row, col in truth_rc:
            d = np.hypot(*(fs.keypoints["xy"] - (col, row)).T).min()
            assert d <= tol_px, f"{detector_id}: nearest kp {d:.2f} px from target"


# ----------------------------------------------------- registry and files

def test_registry_lookup_and_errors(monkeypatch):
    monkeypatch.setattr(feature_base, "_DETECTORS", dict(feature_base._DETECTORS))
    img = gray(random_u8((64, 64), seed=27, hi=256))
    assert detect_and_describe(img, det("orb")).detector_id == "orb"
    with pytest.raises(KeyError, match="brisk"):
        detect_and_describe(img, det("surf"))
    with pytest.raises(ValueError, match="already registered"):
        register_detector("orb")(lambda img, cfg: None)

    @register_detector("empty")
    def detect_nothing(img, cfg):
        return FeatureSet(cfg.detector_id, [], np.zeros((0, 8), np.uint8), img.resolution_m)

    fs = detect_and_describe(img, det("empty"))
    assert (fs.detector_id, len(fs)) == ("empty", 0)


def test_small_images_are_rejected():
    img = gray(np.zeros((16, 16), np.uint8))
    with pytest.raises(ValueError, match="too small"):
        detect_and_describe(img, det("orb"))


def test_detector_config_validation():
    # A detector's front-end keys are its run config's, refused as --set refuses them.
    for text, message in (("corner_threshold=0", "corner_threshold must be > 0, got 0"),
                          ("n_octaves=0", "n_octaves must be >= 1, got 0"),
                          ("target_keypoints=0", "target_keypoints must be >= 1, got 0")):
        key, value = text.split("=")
        with pytest.raises(ValueError, match=f"^{message}$"):
            det("orb", **{key: int(value)})
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_config(None, [text])
    for key in ("n_octaves", "target_keypoints"):
        with pytest.raises(ValueError, match=f"^{key} must be an int, got 2.5$"):
            det("orb", **{key: 2.5})


def test_feature_set_validation():
    one = [((0.0, 0.0), 1.0, 0.0, 0)]
    with pytest.raises(ValueError, match="descriptors"):
        FeatureSet("orb", one, np.zeros((2, 32), np.uint8), RES)
    for bad in (0.0, -RES, math.nan, math.inf):
        with pytest.raises(ValueError, match="resolution_m"):
            FeatureSet("orb", [], np.zeros((0, 32), np.uint8), bad)
    # every keypoint is checked, and the first bad one is named
    for x, octave in ((math.nan, 0), (math.inf, 0), (1.0, -1)):
        kps = one * 3 + [((x, 2.0), 1.0, 0.0, octave)] + one
        with pytest.raises(ValueError, match="keypoint 3: position must be finite"):
            FeatureSet("orb", kps, np.zeros((5, 32), np.uint8), RES)
    fs = FeatureSet("orb", one, np.zeros((1, 32), np.uint8), RES)
    assert fs.descriptor_bits == 256
    assert len(fs) == 1
    assert fs.keypoints.dtype == KEYPOINT


def test_brisk_keeps_a_corner_exactly_on_its_level_margin():
    # Level 3 is 869 px wide, so column 869 - 1 - 12 = 856 is the last one
    # BRISK's 12 px margin admits. Scaling it up to the base image and back
    # gives 856.0000000000001, which a float round trip would drop.
    px = np.zeros((1201, 1501), np.uint8)
    px[600:640, 1440:1480] = 200
    cfg = det("brisk", target_keypoints=10_000)
    levels = build_pyramid(px, cfg.run.n_octaves, cfg.run.corner_threshold)
    assert levels[3][0][1] == 869
    margin_cols = {c for _, o, _, c, _ in detect_corners(levels, cfg.run)
                   if o == 3 and c >= 854}
    assert margin_cols >= {854, 855, 856}
    fs = detect_and_describe(gray(px), cfg)
    kept = {round(x / SCALE_STEP ** 3) for x in fs.keypoints["xy"][fs.keypoints["octave"] == 3, 0]}
    assert {854, 855, 856} <= kept
    assert max(kept) == 856


def test_feature_file_round_trip(tmp_path):
    img = gray(random_u8((64, 64), seed=26, hi=256))
    fs = detect_and_describe(img, det("brisk"))
    assert len(fs) > 0
    path = tmp_path / "feat.bin"
    save_feature_set(fs, path)
    back = load_feature_set(path)
    assert back.detector_id == fs.detector_id
    assert back.resolution_m == RES
    assert np.array_equal(back.descriptors, fs.descriptors)
    assert back.keypoints.tobytes() == fs.keypoints.tobytes()

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTAFEAT" + bytes(64))
    with pytest.raises(ValueError, match="magic"):
        load_feature_set(bad)
    trunc = tmp_path / "trunc.bin"
    trunc.write_bytes(path.read_bytes()[:-7])
    with pytest.raises(ValueError):
        load_feature_set(trunc)
    for size in (10, 20):  # cut inside the header
        trunc.write_bytes(path.read_bytes()[:size])
        with pytest.raises(ValueError, match="trunc.bin: truncated"):
            load_feature_set(trunc)


def feature_file(ident=b"orb", x=1.0, octave=0, resolution_m=RES, version=3):
    """Bytes of a one-keypoint feature file with a 32-byte descriptor, laid
    out as ``version`` lays it out."""
    sizes = struct.pack("<II", 1, 256)
    if version >= 2:
        sizes += struct.pack("<d", resolution_m)
    keypoint = (struct.pack("<ddffi", x, 2.0, 1.0, 0.0, octave) if version == 3
                else struct.pack("<ffffi", x, 2.0, 1.0, 0.0, octave))
    return (b"SARLFEAT" + struct.pack("<II", version, len(ident)) + ident + sizes
            + keypoint + bytes(32))


@pytest.mark.parametrize("content", [feature_file(ident=b"\xff\xfe"),
                                     feature_file(x=math.nan), feature_file(octave=-1),
                                     feature_file(resolution_m=0.0),
                                     feature_file(resolution_m=-RES),
                                     feature_file(resolution_m=math.nan),
                                     feature_file(resolution_m=math.inf),
                                     feature_file(version=1), feature_file(version=2)],
                         ids=["non-utf8-id", "nan-x", "negative-octave", "zero-resolution",
                              "negative-resolution", "nan-resolution", "inf-resolution",
                              "version-1", "version-2"])
def test_feature_file_errors_name_the_file(tmp_path, content):
    path = tmp_path / "bad.bin"
    path.write_bytes(content)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_feature_set(path)
    path.write_bytes(feature_file())
    assert load_feature_set(path).keypoints["xy"].tolist() == [[1.0, 2.0]]


def test_feature_file_records_keep_their_layout(tmp_path):
    # x/y are f64, so a position off the f32 grid comes back exactly
    rows = [((1.5, -2.25), 3.0, 0.5, 0), ((4.0 * 1.2 ** 3, 0.1), 6.0, -0.5, 3)]
    desc = np.arange(64, dtype=np.uint8).reshape(2, 32)
    path = tmp_path / "two.bin"
    save_feature_set(FeatureSet("orb", rows, desc, 0.0125), path)
    header = (b"SARLFEAT" + struct.pack("<II", 3, 3) + b"orb"
              + struct.pack("<IId", 2, 256, 0.0125))
    records = b"".join(struct.pack("<ddffi", x, y, response, angle, octave) + row.tobytes()
                       for ((x, y), response, angle, octave), row in zip(rows, desc))
    assert path.read_bytes() == header + records
    back = load_feature_set(path)
    assert back.keypoints["xy"].tolist() == [list(xy) for xy, *_ in rows]
    assert back.keypoints["octave"].tolist() == [0, 3]
    assert np.array_equal(back.descriptors, desc)


def test_feature_writer_gives_views_the_bytes_of_their_copies(tmp_path):
    kps = np.zeros(4, KEYPOINT)
    kps["xy"] = np.arange(8).reshape(4, 2) * 1.5
    kps["response"] = np.arange(4)
    desc = np.arange(128, dtype=np.uint8).reshape(4, 32)
    save_feature_set(FeatureSet("orb", kps[::-2], desc[::-2], RES), tmp_path / "view.bin")
    save_feature_set(FeatureSet("orb", kps[::-2].copy(), desc[::-2].copy(), RES),
                     tmp_path / "copy.bin")
    assert (tmp_path / "view.bin").read_bytes() == (tmp_path / "copy.bin").read_bytes()
    # a loaded set's arrays view its file's bytes; saving it again gives them back
    save_feature_set(load_feature_set(tmp_path / "view.bin"), tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == (tmp_path / "view.bin").read_bytes()
