"""Radar pulse model and range compression.

Defines the radar parameter set and the transmitted Gaussian-envelope
pulse, and turns raw echoes into complex range-compressed bins.
``compress_scan(samples, config)`` correlates each row of samples with
``radar_pulse(config)``, the pulse over the span where its envelope is above
1e-4 of its peak, and takes the analytic signal: one call covers one scan or
a scan log's whole ``(n_scans, n_bins)`` samples table. The radars of a log
differ only in mount, so its header fixes the pulse.

The transforms are numpy's pocketfft, called as ``scipy.fft`` calls it: the
correlation is ``irfft(rfft(a, m) * rfft(b, m), m)`` at the 5-smooth length
``m`` that ``scipy.fft.next_fast_len(n, real=True)`` picks, and the analytic
signal inverts with ``ifft`` the one-sided spectrum built from ``rfft``, so the
bins are those of ``scipy.signal.fftconvolve`` and ``hilbert`` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy import fft  # numpy loads its fft module on first use; load it with ours

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Fractional bandwidth of the Gaussian envelope is defined at this level
# (dB, amplitude spectrum) below the spectral peak.
_BW_REF_DB = -6.0


@dataclass(frozen=True)
class RadarConfig:
    """Pulse and antenna parameters of one UWB radar.

    ``mount_angle_rad`` is the boresight direction relative to the robot
    heading (side-mounted radars use +pi/2 / -pi/2).
    """

    sample_rate_hz: float
    center_freq_hz: float
    bandwidth_hz: float
    pulse_amplitude_v: float = 1.0
    beamwidth_rad: float = math.radians(60.0)
    range_min_m: float = 0.4
    range_max_m: float = 3.0
    mount_angle_rad: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, vars(self).values())):
            raise ValueError(f"radar parameters must be finite, got {self}")
        if self.sample_rate_hz <= 2.0 * (self.center_freq_hz + self.bandwidth_hz / 2.0):
            raise ValueError(
                "need sample_rate_hz > 2 * (center_freq_hz + bandwidth_hz / 2), got "
                f"sample_rate_hz={self.sample_rate_hz!r}, center_freq_hz="
                f"{self.center_freq_hz!r}, bandwidth_hz={self.bandwidth_hz!r}")
        if not (0.0 < self.range_min_m < self.range_max_m):
            raise ValueError(f"need 0 < range_min_m < range_max_m, got range_min_m="
                             f"{self.range_min_m!r}, range_max_m={self.range_max_m!r}")
        if not (0.0 < self.beamwidth_rad < math.pi):
            raise ValueError(f"beamwidth_rad must be in (0, pi), got {self.beamwidth_rad}")
        if self.center_freq_hz <= 0 or self.bandwidth_hz <= 0:
            raise ValueError("center_freq_hz and bandwidth_hz must be positive")
        if self.pulse_amplitude_v <= 0:
            raise ValueError("pulse_amplitude_v must be positive")


def _envelope_coefficient(config: RadarConfig) -> float:
    """Decay coefficient a of the Gaussian envelope exp(-a t^2)."""
    frac_bw = config.bandwidth_hz / config.center_freq_hz
    ref = 10.0 ** (_BW_REF_DB / 20.0)
    return -((math.pi * config.center_freq_hz * frac_bw) ** 2) / (4.0 * math.log(ref))


def pulse_value(config: RadarConfig, t: np.ndarray) -> np.ndarray:
    """Evaluate the transmitted pulse s(t) at arbitrary times.

    Gaussian-envelope cosine at the center frequency; the envelope's
    fractional bandwidth equals bandwidth_hz / center_freq_hz at the
    -6 dB level of the envelope spectrum. Peak amplitude is
    ``pulse_amplitude_v`` at t = 0.
    """
    t = np.asarray(t, dtype=np.float64)
    a = _envelope_coefficient(config)
    return config.pulse_amplitude_v * np.exp(-a * t * t) * np.cos(
        2.0 * math.pi * config.center_freq_hz * t)


def radar_pulse(config: RadarConfig) -> np.ndarray:
    """The transmitted pulse sampled at ``config.sample_rate_hz``.

    The samples run from -n to +n sample periods, so the middle sample is
    t = 0 and equals ``pulse_amplitude_v``; n is the last sample at which
    the envelope is still above 1e-4 of its peak.
    """
    a = _envelope_coefficient(config)
    n = int(math.floor(math.sqrt(math.log(1.0 / 1e-4) / a) * config.sample_rate_hz))
    return pulse_value(config, np.arange(-n, n + 1, dtype=np.float64) / config.sample_rate_hz)


def _fast_length(n: int) -> int:
    """The smallest 5-smooth length (2**a * 3**b * 5**c) of at least ``n``, where
    a real FFT is fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # the least p35 * 2**k >= n
            best = min(best, p35 << ((n - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def matched_filter(received: np.ndarray, pulse: np.ndarray) -> np.ndarray:
    """Range-compress echoes along their last axis by correlating them with
    the transmitted pulse.

    The pulse's middle sample (``len(pulse) // 2``) is its t = 0, so output
    sample k is the same time as received sample k, and a point echo whose
    pulse replica is centered at two-way delay tau peaks at index
    round(tau * fs). The output has the shape of ``received``.
    """
    length = received.shape[-1]
    n = length + len(pulse) - 1
    m = _fast_length(n)
    full = fft.irfft(fft.rfft(received, m) * fft.rfft(pulse[::-1], m), m)[..., :n]
    start = len(pulse) - 1 - len(pulse) // 2
    return full[..., start:start + length]


def analytic_signal(x: np.ndarray) -> np.ndarray:
    """Complex sequences, along the last axis, with no negative-frequency
    content.

    The real part equals the input exactly; the imaginary part is the
    discrete Hilbert transform (frequency-domain construction). The
    magnitude is the signal envelope. The negative half of the spectrum is
    zero and the positive half (``rfft``) is doubled in place, as
    ``scipy.signal.hilbert`` weights it.
    """
    n = x.shape[-1]
    spectrum = np.zeros(x.shape[:-1] + (n,), dtype=np.complex128)
    spectrum[..., :n // 2 + 1] = fft.rfft(x)
    spectrum[..., 1:(n + 1) // 2] *= 2.0
    return x + 1j * np.imag(fft.ifft(spectrum))


def range_bin_spacing(config: RadarConfig) -> float:
    """One-way range covered by one sample period: c / (2 fs)."""
    return SPEED_OF_LIGHT / (2.0 * config.sample_rate_hz)


def compress_scan(samples, config: RadarConfig) -> np.ndarray:
    """Complex analytic bins of raw echo samples matched-filtered with the
    pulse of ``config`` (``radar_pulse``), along the last axis: one scan of
    ``n_bins`` samples, or an ``(n_scans, n_bins)`` table, each row alone.

    Bin ``k`` is one-way range ``k * range_bin_spacing(config)``. Samples
    must be real (radar ADC output), finite and not empty.
    """
    if np.iscomplexobj(samples):
        raise ValueError("complex input scans are not supported (radar ADC output is real)")
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim not in (1, 2) or samples.size == 0:
        raise ValueError(f"scan samples must be a non-empty scan or table of scans, "
                         f"got shape {samples.shape}")
    if not np.isfinite(samples).all():
        raise ValueError("scan samples must be finite")
    return analytic_signal(matched_filter(samples, radar_pulse(config)))
