"""Image enhancement chain and the on-disk image formats."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from sarloop import GrayImage, ImageGrid, SarImage, gaussian_blur, positive_image, quantize
from sarloop.imgpost import (BAND_ROWS, cellwise_difference, occupancy_from_image,
                             otsu_threshold, read_pgm, read_sar_dump, write_pgm,
                             write_sar_dump)


def gray(arr, res=0.01):
    return GrayImage(np.asarray(arr), res)


def sar_of(arr, dtype=complex):
    arr = np.asarray(arr, dtype=dtype)
    return SarImage(ImageGrid(arr.shape[1], arr.shape[0], 0.01), arr, 1)


def test_positive_image_examples():
    out = positive_image(sar_of([[5.0, -3.0], [3.0 + 4.0j, 0.0]]))
    assert out.pixels[0, 0] == 10.0   # re + abs doubles positive reals
    assert out.pixels[0, 1] == 0.0    # negative reals cancel
    assert out.pixels[1, 0] == 8.0    # 3 + |3+4i|
    assert out.pixels[1, 1] == 0.0
    assert np.all(out.pixels >= 0)
    assert out.resolution_m == 0.01


def test_positive_image_nonnegative_on_random_field():
    rng = np.random.default_rng(5)
    z = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    assert np.all(positive_image(sar_of(z)).pixels >= 0)


def test_positive_image_of_complex64_gives_the_bits_of_its_complex128_copy():
    # rows that end mid-band, so the last band is a short one
    rng = np.random.default_rng(9)
    shape = (2 * BAND_ROWS + 7, 13)
    z = (rng.normal(size=shape) + 1j * rng.normal(size=shape)).astype(np.complex64)
    wide = z.astype(np.complex128)
    out = positive_image(sar_of(z, np.complex64)).pixels
    assert out.dtype == np.float64
    assert np.array_equal(out, np.real(wide) + np.abs(wide))


def test_sar_image_keeps_complex64_and_widens_other_arrays():
    z = np.ones((3, 4), np.complex64)
    assert sar_of(z, np.complex64).pixels is z
    real = SarImage(ImageGrid(4, 3, 0.01), np.ones((3, 4)), 1).pixels
    assert real.dtype == np.complex128


def test_blur_identity_and_constants():
    rng = np.random.default_rng(1)
    img = gray(rng.uniform(size=(20, 20)))
    assert np.array_equal(gaussian_blur(img, 0.0).pixels, img.pixels)
    flat = gray(np.full((16, 16), 3.5))
    assert np.allclose(gaussian_blur(flat, 2.0).pixels, 3.5)
    with pytest.raises(ValueError):
        gaussian_blur(img, -1.0)


def test_blur_wider_than_the_image_is_refused():
    # the kernel radius, ceil(3 sigma), may reach the longer side but not pass it
    img = gray(np.ones((4, 6)))
    assert np.allclose(gaussian_blur(img, 2.0).pixels, 1.0)
    for sigma in (2.01, 1e308, math.inf):
        with pytest.raises(ValueError, match=r"kernel radius .* longer side \(6 px\)"):
            gaussian_blur(img, sigma)


def test_blur_impulse_matches_sampled_kernel():
    # centered impulse response == the normalized truncated Gaussian kernel
    n, sigma = 31, 1.0
    img = np.zeros((n, n))
    img[n // 2, n // 2] = 1.0
    out = gaussian_blur(gray(img), sigma).pixels

    radius = math.ceil(3 * sigma)
    ax = np.arange(-radius, radius + 1, dtype=float)
    k1 = np.exp(-ax ** 2 / (2 * sigma ** 2))
    k1 /= k1.sum()
    k2 = np.outer(k1, k1)
    window = out[n // 2 - radius:n // 2 + radius + 1,
                 n // 2 - radius:n // 2 + radius + 1]
    assert np.allclose(window, k2, atol=1e-12)
    assert out[n // 2, n // 2] == pytest.approx(1.0 / (2 * math.pi * sigma ** 2), rel=0.02)
    assert out.sum() == pytest.approx(1.0, abs=1e-6)  # reflect padding keeps mass


def test_quantize_examples():
    out = quantize(gray([[0.0, 1.0, 2.0]]))
    assert out.pixels.dtype == np.uint8
    assert list(out.pixels[0]) == [0, 128, 255]
    assert np.all(quantize(gray(np.full((4, 4), 7.0))).pixels == 0)


def test_quantize_is_monotone():
    rng = np.random.default_rng(2)
    vals = rng.uniform(-5, 5, size=(1, 64))
    q = quantize(gray(vals)).pixels[0]
    order = np.argsort(vals[0])
    assert np.all(np.diff(q[order].astype(int)) >= 0)


def brute_force_otsu(pixels):
    """Maximize between-class variance over thresholds 0..254; first argmax."""
    hist = np.bincount(pixels.ravel(), minlength=256).astype(float)
    total = hist.sum()
    best_t, best_v = 0, -1.0
    for t in range(255):
        w0 = hist[:t + 1].sum()
        w1 = total - w0
        if w0 == 0 or w1 == 0:
            continue
        mu0 = (np.arange(t + 1) * hist[:t + 1]).sum() / w0
        mu1 = (np.arange(t + 1, 256) * hist[t + 1:]).sum() / w1
        v = w0 * w1 * (mu0 - mu1) ** 2
        if v > best_v:
            best_t, best_v = t, v
    return best_t


def test_otsu_matches_brute_force_on_random_images():
    rng = np.random.default_rng(3)
    for _ in range(10):
        lo, hi = sorted(rng.integers(0, 256, size=2))
        px = rng.integers(lo, hi + 1, size=(30, 30)).astype(np.uint8)
        assert otsu_threshold(gray(px)) == brute_force_otsu(px)


def test_otsu_splits_a_bimodal_image():
    px = np.full((20, 20), 40, dtype=np.uint8)
    px[5:9, 5:9] = 210
    t = otsu_threshold(gray(px))
    assert 40 <= t < 210
    occ = occupancy_from_image(gray(px))
    assert np.array_equal(occ, px > t)
    with pytest.raises(ValueError, match="8-bit"):
        otsu_threshold(gray(px.astype(np.float64)))


def test_occupancy_threshold_handling():
    # Otsu splits {0, 40} from {200}
    px = np.array([[0, 40, 200]], dtype=np.uint8)
    assert list(occupancy_from_image(gray(px))[0]) == [False, False, True]
    with pytest.raises(ValueError, match="8-bit"):
        occupancy_from_image(gray(px.astype(float)))


def test_cellwise_difference_examples():
    a = np.zeros((10, 10), dtype=bool)
    assert cellwise_difference(a, a) == 0.0
    assert cellwise_difference(a, ~a) == 1.0
    b = a.copy()
    b[0, :3] = True
    assert cellwise_difference(a, b) == pytest.approx(0.03)
    # mixed-count example: 1397 mismatches out of 16800 cells
    truth = np.zeros((120, 140), dtype=bool)
    pred = truth.copy()
    pred.ravel()[:1397] = True
    assert cellwise_difference(pred, truth) == pytest.approx(1397 / 16800)
    with pytest.raises(ValueError, match="differ"):
        cellwise_difference(a, np.zeros((10, 11), dtype=bool))
    with pytest.raises(ValueError):
        cellwise_difference(np.zeros((0, 0)), np.zeros((0, 0)))


def test_gray_image_validation():
    with pytest.raises(ValueError):
        GrayImage(np.zeros(5), 0.01)
    with pytest.raises(ValueError):
        GrayImage(np.zeros((2, 2)), 0.0)
    with pytest.raises(ValueError):
        GrayImage(np.array([[np.nan, 0.0]]), 0.01)


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    img = gray(rng.integers(0, 256, size=(17, 23)).astype(np.uint8), res=0.025)
    path = tmp_path / "map.pgm"
    write_pgm(img, path, origin_m=(-0.5, 1.25))
    back, origin = read_pgm(path)
    assert np.array_equal(back.pixels, img.pixels)
    assert back.resolution_m == img.resolution_m
    assert origin == (-0.5, 1.25)
    assert path.read_bytes().startswith(b"P5")

    with pytest.raises(ValueError, match="8-bit"):
        write_pgm(gray(np.zeros((2, 2))), tmp_path / "bad.pgm")
    trunc = tmp_path / "trunc.pgm"
    trunc.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(ValueError, match="truncated"):
        read_pgm(trunc)
    notpgm = tmp_path / "not.pgm"
    notpgm.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(ValueError, match="P5"):
        read_pgm(notpgm)


@pytest.mark.parametrize("comments", [b"", b"# origin_m 0.5 -0.25\n"],
                         ids=["bare", "origin-only"])
def test_pgm_without_a_pixel_size_is_refused(tmp_path, comments):
    # with no pixel size, pixel shifts would be reported as meters
    path = tmp_path / "plain.pgm"
    path.write_bytes(b"P5\n" + comments + b"3 2\n255\n" + bytes(range(6)))
    with pytest.raises(ValueError, match=re.escape(f"{path}: no '# resolution_m' comment")):
        read_pgm(path)


RASTER = bytes(range(6))


@pytest.mark.parametrize("content, expect", [
    (b"P5 # written by another tool\n# resolution_m 0.01\n3 2\n255\n" + RASTER,
     (0.01, None)),
    (b"P5\n# resolution_m 0.01\n3\n# origin_m 0.5 -0.25\n2\n# maxval next\n255\n" + RASTER,
     (0.01, (0.5, -0.25))),
    (b"P5\t# resolution_m 0.01\r\n3\t2\r\n255\r" + RASTER, (0.01, None)),
    (b"P5\n# resolution_m 0.02\n# resolution_m 0.01\n3 2\n255\n" + RASTER, (0.01, None)),
    (b"P5\n# resolution_m 0.01\n3 2\n255\n" + RASTER + b"\n# trailing\n", (0.01, None)),
    (b"P5\n# resolution_m 0.01\n3 2\n# runs to the end of the file", "truncated PGM header"),
    (b"P5\n# resolution_m 0.0x1\n# resolution_m 0.01\n3 2\n255\n" + RASTER,
     "could not convert string to float: b'0.0x1'"),
    (b"P5\n# resolution_m 0.01\n3 2\n255", "raster truncated (0 of 6 bytes)"),
    (b"P5\n# resolution_m 0.01\n3 2#4\n255\n" + RASTER, "width and height must be"),
], ids=["comment-on-the-p5-line", "comment-between-every-token", "tabs-and-cr",
        "later-comment-wins", "bytes-after-the-raster", "comment-to-the-end",
        "malformed-size-before-a-valid-one", "maxval-at-the-end", "token-holding-a-hash"])
def test_pgm_header_grammar(tmp_path, content, expect):
    # Netpbm's P5 header, as other tools may write it
    path = tmp_path / "other.pgm"
    path.write_bytes(content)
    if isinstance(expect, str):
        with pytest.raises(ValueError, match=re.escape(f"{path}: {expect}")):
            read_pgm(path)
        return
    img, origin = read_pgm(path)
    assert (img.resolution_m, origin) == expect
    assert img.pixels.tolist() == [[0, 1, 2], [3, 4, 5]]


def test_pgm_writer_gives_a_strided_view_the_bytes_of_its_copy(tmp_path):
    px = np.random.default_rng(6).integers(0, 256, (5, 7), dtype=np.uint8)
    write_pgm(gray(px[:, ::-1]), tmp_path / "view.pgm")
    write_pgm(gray(px[:, ::-1].copy()), tmp_path / "copy.pgm")
    assert (tmp_path / "view.pgm").read_bytes() == (tmp_path / "copy.pgm").read_bytes()
    assert np.array_equal(read_pgm(tmp_path / "view.pgm")[0].pixels, px[:, ::-1])


def test_pgm_origin_comment_is_optional(tmp_path):
    path = tmp_path / "plain.pgm"
    path.write_bytes(b"P5\n# resolution_m 0.01\n3 2\n255\n" + bytes(range(6)))
    img, origin = read_pgm(path)
    assert (img.pixels.shape, img.resolution_m, origin) == ((2, 3), 0.01, None)


def test_sar_dump_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    z = rng.normal(size=(8, 11)) + 1j * rng.normal(size=(8, 11))
    sar = SarImage(ImageGrid(11, 8, 0.01, origin_m=(0.25, -0.75)), z, 42)
    path = tmp_path / "sar.cpx"
    write_sar_dump(sar, path)
    back = read_sar_dump(path)
    assert np.array_equal(back.pixels, z.astype(np.complex64))
    assert back.grid == sar.grid
    assert back.scan_count == 42


def traced_peak(call):
    """``call()``'s return value and the peak bytes that tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        value = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return value, peak


def test_sar_dump_writer_allocates_a_band_not_a_grid(tmp_path):
    # a complex128 image is written as complex64 bands, with no copy of the grid
    rng = np.random.default_rng(3)
    height, width = 500, 1200
    z = rng.normal(size=(height, width)) + 1j * rng.normal(size=(height, width))
    sar = SarImage(ImageGrid(width, height, 0.01), z, 1)
    _, peak = traced_peak(lambda: write_sar_dump(sar, tmp_path / "sar.cpx"))
    assert peak <= 4 * width * height
    assert np.array_equal(read_sar_dump(tmp_path / "sar.cpx").pixels, z.astype(np.complex64))


def test_pgm_reader_holds_one_copy_of_the_raster_and_the_writer_none(tmp_path):
    # the file is read once and the pixels view its bytes; the writer writes
    # the pixels' own buffer
    height, width = 1200, 1500
    img = gray(np.random.default_rng(5).integers(0, 256, (height, width), dtype=np.uint8))
    path = tmp_path / "big.pgm"
    _, written = traced_peak(lambda: write_pgm(img, path, origin_m=(0.5, -0.25)))
    (back, origin), read = traced_peak(lambda: read_pgm(path))
    assert written <= 0.25 * width * height
    assert read <= 1.5 * width * height
    assert np.array_equal(back.pixels, img.pixels) and origin == (0.5, -0.25)
    assert back.pixels.flags.writeable
    back.pixels[0, 0] ^= 1


def test_sar_dump_size_is_checked_before_any_pixel_is_allocated(tmp_path):
    path = tmp_path / "huge.cpx"
    path.write_bytes(b"100000 100000 0.01 0.0 0.0 1\n" + bytes(64))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: payload is 64 bytes, expected 80000000000")):
            read_sar_dump(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sar_dump_with_trailing_bytes_reports_its_payload_length(tmp_path):
    path = tmp_path / "long.cpx"
    path.write_bytes(b"4 2 0.01 0.0 0.0 1\n" + bytes(4 * 2 * 8 + 3))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: payload is 67 bytes, expected 64")):
        read_sar_dump(path)


@pytest.mark.parametrize("size", [b"-2 -2", b"4 0", b"2 1.5", b"x 2"])
def test_sar_dump_rejects_bad_sizes(tmp_path, size):
    path = tmp_path / "bad.cpx"
    path.write_bytes(size + b" 0.01 0.0 0.0 1\n" + bytes(32))
    with pytest.raises(ValueError, match="bad.cpx: width and height"):
        read_sar_dump(path)


def names(path):
    """Expect a ValueError whose message contains ``path``."""
    return pytest.raises(ValueError, match=re.escape(str(path)))


@pytest.mark.parametrize("header", [b"4 2 abc 0.0 0.0 1", b"4 2 0.01 0.0 0.0 x",
                                    b"4 2 -0.01 0.0 0.0 1", b"4 2 0.01 nan 0.0 1",
                                    b"4 2 0.01 0.0 0.0 0"])
def test_sar_dump_names_the_file_on_a_bad_header(tmp_path, header):
    path = tmp_path / "bad.cpx"
    path.write_bytes(header + b"\n" + bytes(4 * 2 * 8))
    with names(path):
        read_sar_dump(path)


@pytest.mark.parametrize("header", [b"P5\nab 2\n255\n", b"P5\n-2 -2\n255\n",
                                    b"P5\n# resolution_m xyz\n2 2\n255\n",
                                    b"P5\n# resolution_m -1\n2 2\n255\n",
                                    b"P5\n# origin_m nan 0.0\n2 2\n255\n",
                                    b"P5\n0 5\n255\n", b"P5\n2 2\nmax\n"])
def test_pgm_names_the_file_on_a_bad_header(tmp_path, header):
    path = tmp_path / "bad.pgm"
    path.write_bytes(header + bytes(4))
    with names(path):
        read_pgm(path)
