"""Radar pulse model and range compression.

Defines the radar parameter set, synthesizes the transmitted
Gaussian-envelope pulse, and turns raw echo series into complex
range-compressed scans (matched filter + analytic signal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft

from .geometry import Pose2

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
                "sample_rate_hz must exceed twice the highest pulse frequency "
                f"(fs={self.sample_rate_hz:g}, fc={self.center_freq_hz:g}, "
                f"bw={self.bandwidth_hz:g})")
        if not (0.0 < self.range_min_m < self.range_max_m):
            raise ValueError(
                f"need 0 < range_min < range_max, got [{self.range_min_m}, {self.range_max_m}]")
        if not (0.0 < self.beamwidth_rad < math.pi):
            raise ValueError(f"beamwidth_rad must be in (0, pi), got {self.beamwidth_rad}")
        if self.center_freq_hz <= 0 or self.bandwidth_hz <= 0:
            raise ValueError("center_freq_hz and bandwidth_hz must be positive")
        if self.pulse_amplitude_v <= 0:
            raise ValueError("pulse_amplitude_v must be positive")


@dataclass(frozen=True)
class Waveform:
    """Real-valued sample sequence with a time origin.

    ``samples[i]`` is the value at time ``t0_s + i / sample_rate_hz``.
    """

    samples: np.ndarray
    t0_s: float
    sample_rate_hz: float

    def __post_init__(self):
        if np.iscomplexobj(self.samples):
            raise ValueError("complex input scans are not supported (radar ADC output is real)")
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class RawScan:
    """One raw echo series: the robot pose it was acquired at and the radar
    that fired it (``config.mount_angle_rad`` is that radar's mount)."""

    samples: np.ndarray
    pose: Pose2
    config: RadarConfig

    def __post_init__(self):
        if np.iscomplexobj(self.samples):
            raise ValueError("complex input scans are not supported (radar ADC output is real)")
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("scan samples must be a non-empty 1-D sequence")
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class CompressedScan:
    """Range-compressed echo: complex analytic samples indexed by range bin.

    Bin ``k`` corresponds to one-way range ``k * range_bin_spacing(config)``.
    The bin count equals the raw-scan sample count; ``pose`` and ``config``
    are the raw scan's.
    """

    bins: np.ndarray
    pose: Pose2
    config: RadarConfig

    def __post_init__(self):
        bins = np.asarray(self.bins, dtype=np.complex128)
        if bins.ndim != 1 or bins.size == 0:
            raise ValueError("bins must be a non-empty 1-D sequence")
        object.__setattr__(self, "bins", bins)


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


def synthesize_pulse(config: RadarConfig, half_duration_s: float) -> Waveform:
    """Sample the transmitted pulse on [-half_duration, +half_duration].

    The sample grid is centered on t = 0 (which is always included, so the
    peak sample equals ``pulse_amplitude_v``). Rejects durations too short
    for the envelope to decay below 1e-3 of its peak at the edges.
    """
    if half_duration_s <= 0:
        raise ValueError(f"half_duration_s must be positive, got {half_duration_s}")
    a = _envelope_coefficient(config)
    min_half = math.sqrt(math.log(1e3) / a)
    if half_duration_s < min_half:
        raise ValueError(
            f"half_duration_s={half_duration_s:g} too short: envelope only decays to "
            f"{math.exp(-a * half_duration_s ** 2):.2e} of peak at the edge "
            f"(need <= 1e-3, i.e. at least {min_half:.3e} s)")
    n = int(math.floor(half_duration_s * config.sample_rate_hz))
    t = np.arange(-n, n + 1, dtype=np.float64) / config.sample_rate_hz
    return Waveform(pulse_value(config, t), t0_s=-n / config.sample_rate_hz,
                    sample_rate_hz=config.sample_rate_hz)


def default_pulse_half_duration(config: RadarConfig, edge_ratio: float = 1e-4) -> float:
    """Half duration at which the pulse envelope has decayed to edge_ratio."""
    if not 0 < edge_ratio < 1:
        raise ValueError(f"edge_ratio must be in (0, 1), got {edge_ratio}")
    a = _envelope_coefficient(config)
    return math.sqrt(math.log(1.0 / edge_ratio) / a)


def matched_filter(received: Waveform, pulse: Waveform) -> Waveform:
    """Range-compress an echo by correlating it with the transmitted pulse.

    Output sample k corresponds to the same time as received sample k, so a
    point echo whose pulse replica is centered at two-way delay tau peaks at
    index round(tau * fs) (for received.t0_s = 0). Output length equals the
    received length.
    """
    if received.sample_rate_hz != pulse.sample_rate_hz:
        raise ValueError(
            f"sample-rate mismatch: received {received.sample_rate_hz:g} Hz, "
            f"pulse {pulse.sample_rate_hz:g} Hz")
    # Correlate against the pulse, aligned on the pulse's own t=0 sample.
    center = int(round(-pulse.t0_s * pulse.sample_rate_hz))
    n = len(received) + len(pulse) - 1
    m = sp_fft.next_fast_len(n, real=True)
    full = sp_fft.irfft(sp_fft.rfft(received.samples, m) * sp_fft.rfft(pulse.samples[::-1], m),
                        m)[:n]
    start = len(pulse) - 1 - center
    out = full[start:start + len(received)]
    return Waveform(out, t0_s=received.t0_s, sample_rate_hz=received.sample_rate_hz)


def analytic_signal(w: Waveform) -> np.ndarray:
    """Complex sequence with no negative-frequency content.

    The real part equals the input exactly; the imaginary part is the
    discrete Hilbert transform (frequency-domain construction). The
    magnitude is the signal envelope.
    """
    spectrum = sp_fft.fft(w.samples)
    spectrum[1:(len(w) + 1) // 2] *= 2.0
    spectrum[len(w) // 2 + 1:] = 0.0
    return w.samples + 1j * np.imag(sp_fft.ifft(spectrum))


def range_bin_spacing(config: RadarConfig) -> float:
    """One-way range covered by one sample period: c / (2 fs)."""
    return SPEED_OF_LIGHT / (2.0 * config.sample_rate_hz)


def compress_scan(scan: RawScan) -> CompressedScan:
    """Matched-filter a raw scan with its radar's pulse and convert it to
    complex analytic bins."""
    pulse = synthesize_pulse(scan.config, default_pulse_half_duration(scan.config))
    filtered = matched_filter(
        Waveform(scan.samples, t0_s=0.0, sample_rate_hz=pulse.sample_rate_hz), pulse)
    return CompressedScan(analytic_signal(filtered), scan.pose, scan.config)
