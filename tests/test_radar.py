"""Pulse synthesis, matched filtering, and range-bin arithmetic.

Oracles are deliberately independent of the implementation: the spectrum
checks use a hand-rolled DFT, the matched-filter alignment check uses a
direct sliding-dot-product correlation, and ``scipy.signal`` and
``scipy.fft`` (test-only oracles) pin the FFT arithmetic bit for bit.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy import fft as sp_fft
from scipy import signal


from sarloop import RadarConfig
from sarloop.radar import (SPEED_OF_LIGHT, _fast_length, analytic_signal, compress_scan,
                           matched_filter, pulse_value, radar_pulse,
                           range_bin_spacing)


@pytest.fixture()
def pulse(table1):
    return radar_pulse(table1)


def naive_dft_magnitude(samples, freqs_hz, fs_hz):
    """Plain O(n*m) DFT evaluated at arbitrary frequencies."""
    n = np.arange(len(samples))
    out = []
    for f in freqs_hz:
        phasor = np.exp(-2j * math.pi * f * n / fs_hz)
        out.append(abs(np.dot(samples, phasor)))
    return np.array(out)


# --- radar_pulse -------------------------------------------------------------


def test_pulse_peak_amplitude_is_one_volt(pulse):
    mid = len(pulse) // 2
    assert pulse[mid] == pytest.approx(1.0)
    assert np.max(np.abs(pulse)) == pytest.approx(1.0)


def test_pulse_is_time_symmetric(table1, pulse):
    # odd length, with t = 0 the middle sample
    assert len(pulse) % 2 == 1
    half = len(pulse) // 2
    t = np.arange(-half, half + 1) / table1.sample_rate_hz
    assert pulse.tobytes() == pulse_value(table1, t).tobytes()
    assert np.allclose(pulse, pulse[::-1], atol=1e-12)


def test_pulse_spans_the_envelope_above_1e_4_of_peak(table1, pulse):
    # envelope exp(-a t^2), with its spectrum -6 dB wide at bandwidth_hz
    a = (math.pi * table1.bandwidth_hz) ** 2 / (4.0 * math.log(10 ** (6 / 20)))
    half = len(pulse) // 2
    edge = np.array([half, half + 1]) / table1.sample_rate_hz
    inside, outside = np.exp(-a * edge ** 2)
    assert inside >= 1e-4 > outside


def test_pulse_spectrum_peaks_at_center_frequency(table1, pulse):
    # one-FFT-bin tolerance at this sample count
    df = table1.sample_rate_hz / len(pulse)
    freqs = np.arange(0.0, table1.sample_rate_hz / 2, df / 4)
    mags = naive_dft_magnitude(pulse, freqs, table1.sample_rate_hz)
    f_peak = freqs[int(np.argmax(mags))]
    assert abs(f_peak - table1.center_freq_hz) <= df


def test_pulse_fractional_bandwidth(table1, pulse):
    # -6 dB full width of the envelope spectrum over fc, to 5 %
    mid = len(pulse) // 2
    t = (np.arange(len(pulse)) - mid) / table1.sample_rate_hz
    envelope = pulse * np.cos(2 * math.pi * table1.center_freq_hz * t)
    # demodulating the cosine leaves envelope*(1+cos(4 pi fc t))/2; low
    # frequencies carry the envelope spectrum
    freqs = np.linspace(0.0, 3e9, 1201)
    mags = naive_dft_magnitude(envelope, freqs, table1.sample_rate_hz)
    ref = mags[0] * 10 ** (-6 / 20)
    above = freqs[mags >= ref]
    frac_bw = 2 * above.max() / table1.center_freq_hz
    expected = table1.bandwidth_hz / table1.center_freq_hz
    assert frac_bw == pytest.approx(expected, rel=0.05)


def test_config_invariants():
    with pytest.raises(ValueError):  # undersampled
        RadarConfig(1e9, 7.29e9, 2e9)
    with pytest.raises(ValueError, match=r"^need 0 < range_min_m < range_max_m, got "
                       r"range_min_m=3\.0, range_max_m=0\.4$"):  # min range above max
        RadarConfig(23.328e9, 7.29e9, 2e9, range_min_m=3.0, range_max_m=0.4)
    with pytest.raises(ValueError):  # no beam
        RadarConfig(23.328e9, 7.29e9, 2e9, beamwidth_rad=0.0)


# --- matched_filter ----------------------------------------------------------


def test_autocorrelation_peak_is_pulse_energy(table1, pulse):
    out = matched_filter(pulse, pulse)
    peak_idx = int(np.argmax(out))
    # the pulse as received is centered on its own middle sample
    assert peak_idx == len(pulse) // 2
    assert out[peak_idx] == pytest.approx(float(np.sum(pulse ** 2)))


def test_delayed_echo_peaks_at_delay_bin(table1, pulse):
    delay = 100
    n = 512
    t = (np.arange(n) - delay) / table1.sample_rate_hz
    received = pulse_value(table1, t)
    out = matched_filter(received, pulse)
    assert int(np.argmax(out)) == delay

    # independent oracle: correlation by explicit sliding dot product,
    # pulse center aligned on each output sample
    half = len(pulse) // 2
    padded = np.zeros(n + 2 * half)
    padded[half:half + n] = received
    oracle = np.array([np.dot(padded[k:k + len(pulse)], pulse)
                       for k in range(n)])
    assert np.allclose(out, oracle, rtol=1e-9, atol=1e-9)


def test_matched_filter_zeros_and_linearity(pulse):
    assert np.all(matched_filter(np.zeros(64), pulse) == 0.0)

    rng = np.random.default_rng(5)
    x = rng.normal(size=256)
    y = rng.normal(size=256)
    lhs = matched_filter(2.5 * x - 0.5 * y, pulse)
    rhs = (2.5 * matched_filter(x, pulse) - 0.5 * matched_filter(y, pulse))
    assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9 * np.max(np.abs(rhs)))


# --- analytic_signal ---------------------------------------------------------


def test_analytic_real_part_is_input():
    rng = np.random.default_rng(8)
    x = rng.normal(size=300)
    z = analytic_signal(x)
    assert np.array_equal(np.real(z), x)


def test_analytic_of_cosine_has_unit_envelope(table1):
    fs = table1.sample_rate_hz
    f = fs / 16
    t = np.arange(1024) / fs
    z = analytic_signal(np.cos(2 * math.pi * f * t))
    interior = np.abs(z)[32:-32]
    assert np.allclose(interior, 1.0, atol=1e-2)


def test_analytic_spectrum_one_sided():
    rng = np.random.default_rng(9)
    n = 256
    z = analytic_signal(rng.normal(size=n))
    spectrum = np.fft.fft(z)
    negative = spectrum[n // 2 + 1:]
    assert np.max(np.abs(negative)) < 1e-9 * np.max(np.abs(spectrum))


def test_analytic_of_zeros_is_zeros():
    z = analytic_signal(np.zeros(50))
    assert np.all(z == 0)


def test_complex_scan_input_rejected(table1):
    for shape in (8, (3, 8)):
        with pytest.raises(ValueError, match="complex"):
            compress_scan(np.ones(shape, dtype=np.complex128), table1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_scan_samples_rejected(table1, bad):
    samples = np.zeros((3, 8), dtype=np.float32)
    samples[2, 3] = bad
    for scans in (samples[2], samples):
        with pytest.raises(ValueError, match="finite"):
            compress_scan(scans, table1)


@pytest.mark.parametrize("shape", [0, (0, 8), (3, 0), (2, 3, 8)])
def test_empty_or_higher_dimensional_scan_samples_rejected(table1, shape):
    with pytest.raises(ValueError, match="non-empty scan or table of scans"):
        compress_scan(np.zeros(shape), table1)


# --- range bins --------------------------------------------------------------


def test_bin_spacing_table1_value(table1):
    assert range_bin_spacing(table1) == pytest.approx(6.4256e-3, abs=1e-7)


def test_bin_spacing_forced_cases():
    cfg = RadarConfig(SPEED_OF_LIGHT / 2, 5e7, 2e7)
    assert range_bin_spacing(cfg) == pytest.approx(1.0)
    doubled = RadarConfig(SPEED_OF_LIGHT, 5e7, 2e7)
    assert range_bin_spacing(doubled) == range_bin_spacing(cfg) / 2


def test_bin_spacing_identity(table1):
    assert (range_bin_spacing(table1) * 2 * table1.sample_rate_hz
            == pytest.approx(SPEED_OF_LIGHT, rel=1e-12))


def test_compress_scan_keeps_pose_and_length(table1):
    rng = np.random.default_rng(2)
    for radar in (table1, dataclasses.replace(table1, sample_rate_hz=30e9)):
        samples = rng.normal(size=400)
        bins = compress_scan(samples, radar)
        # matched-filtered with the pulse of the given radar
        assert bins.tobytes() == analytic_signal(matched_filter(
            samples, radar_pulse(radar))).tobytes()
        assert bins.shape == (400,)
        assert np.iscomplexobj(bins)
        # a table is compressed row by row: each row equals its one-row call,
        # bit for bit, and f32 samples (a scan log's) are widened first
        table = rng.normal(size=(7, 531)).astype(np.float32)  # odd: the default bin count
        rows = compress_scan(table, radar)
        assert rows.shape == (7, 531) and rows.dtype == np.complex128
        for row, scan in zip(rows, table):
            assert row.tobytes() == compress_scan(scan, radar).tobytes()
            assert row.tobytes() == compress_scan(scan.astype(np.float64), radar).tobytes()


def test_fast_length_equals_scipy_next_fast_len():
    got = [_fast_length(n) for n in range(1, 20_001)]
    assert got == [sp_fft.next_fast_len(n, real=True) for n in range(1, 20_001)]


@pytest.mark.parametrize("n_received", [2, 7, 64, 257, 1000, 1001])
@pytest.mark.parametrize("n_pulse", [None, 2, 16, 33])
def test_fft_rebuild_equals_scipy_signal_bit_for_bit(pulse, n_received, n_pulse):
    """fftconvolve and hilbert as oracles; None is the Table 1 radar's pulse.

    Lengths start at 2: with a one-sample side fftconvolve multiplies
    directly instead of going through the FFT, which rounds differently.
    """
    rng = np.random.default_rng(n_received * 100 + (n_pulse or 0))
    if n_pulse is not None:
        pulse = rng.normal(size=n_pulse)
    received = rng.normal(size=n_received)
    full = signal.fftconvolve(received, pulse[::-1], mode="full")
    start = len(pulse) - 1 - len(pulse) // 2
    filtered = matched_filter(received, pulse)
    assert filtered.tobytes() == full[start:start + n_received].tobytes()
    for w in (received, filtered):
        expect = w + 1j * np.imag(signal.hilbert(w))
        assert analytic_signal(w).tobytes() == expect.tobytes()
