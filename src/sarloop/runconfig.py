"""Flat key=value run configuration with a documented default for every key.

An empty file (or no file) is a valid configuration. Keys mirror the CLI
``--set key=value`` overrides. Angles are degrees and translations are
millimeters here, matching the reporting convention; ``radars()`` and
``validate_loop`` convert them to radians/meters. A ``RunConfig`` checks
itself when built, in code or from ``--set``, and is the one config of the
loop stages in ``loopclose``; its front-end defaults are ``DetectorConfig``'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .features import DetectorConfig
from .features.base import registered_detectors
from .fileerrors import names_its_file
from .radar import RadarConfig


@dataclass(frozen=True)
class RunConfig:
    # radar
    sample_rate_hz: float = 23.328e9
    center_freq_hz: float = 7.29e9
    bandwidth_hz: float = 2.0e9
    pulse_amplitude_v: float = 1.0
    beamwidth_deg: float = 60.0
    range_min_m: float = 0.4
    range_max_m: float = 3.0
    mounts_deg: tuple[float, ...] = (90.0, -90.0)
    # simulation
    scan_spacing_m: float = 0.025
    snr_db: float = 20.0
    # imaging
    grid_resolution_m: float = 0.005
    blur_sigma_px: float = 1.0
    # detection & matching
    detectors: tuple[str, ...] = ("orb", "brisk")
    corner_threshold: int = DetectorConfig.corner_threshold
    n_octaves: int = DetectorConfig.n_octaves
    target_keypoints: int = DetectorConfig.target_keypoints
    ratio: float = 0.75
    ransac_iters: int = 2000
    ransac_inlier_px: float = 3.0
    ransac_min_inliers: int = 3
    # loop validation
    min_good_matches: int = 20
    scale_tol: float = 0.05
    translation_tol_mm: float = 100.0
    rotation_tol_deg: float = 2.0
    seed: int = 0

    def __post_init__(self):
        """Reject a bad value, naming its key, before any stage runs.

        Runs on every construction, ``dataclasses.replace`` included. Every
        float key and each mount angle must be finite, except
        ``snr_db=inf``, which means no noise; the keys in ``_RANGES`` must
        pass its tests, in order (each int key is an ``int``, not a ``bool``);
        ``mounts_deg`` must be distinct angles (a scan log tells its radars
        apart by mount) and ``detectors`` distinct registered ids.
        """
        for key in [f.name for f in fields(self) if f.type == "float"] + ["mounts_deg"]:
            value = getattr(self, key)
            values = value if key == "mounts_deg" else (value,)
            if not all(map(math.isfinite, values)) and (key, value) != ("snr_db", math.inf):
                raise ValueError(f"{key} must be finite, got {value}")
        for allowed, holds, keys in _RANGES:
            for key in keys:
                if not holds(getattr(self, key)):
                    raise ValueError(f"{key} must be {allowed}, got {getattr(self, key)!r}")
        if not self.mounts_deg or len(set(self.mounts_deg)) < len(self.mounts_deg):
            raise ValueError(f"mounts_deg must name at least one radar, each at its own "
                             f"angle, got {','.join(map(str, self.mounts_deg))}")
        known = registered_detectors()
        if len(set(self.detectors)) < len(self.detectors) or not set(self.detectors) <= set(known):
            raise ValueError(f"detectors must be distinct ids of registered detectors "
                             f"({', '.join(known)}), got {','.join(self.detectors)}")
        self.radars()
        self.detector_configs()

    # ---- builders -------------------------------------------------------

    def radars(self) -> tuple[RadarConfig, ...]:
        """One radar per ``mounts_deg`` entry, in that order."""
        return tuple(RadarConfig(self.sample_rate_hz, self.center_freq_hz, self.bandwidth_hz,
                                 self.pulse_amplitude_v, math.radians(self.beamwidth_deg),
                                 self.range_min_m, self.range_max_m, math.radians(mount))
                     for mount in self.mounts_deg)

    def detector_configs(self) -> list[DetectorConfig]:
        return [DetectorConfig(name, self.corner_threshold, self.n_octaves,
                               self.target_keypoints) for name in self.detectors]


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}

# (what is allowed, its test, the keys it holds for), checked in this order
_RANGES = (
    ("an int", lambda v: type(v) is int, [k for k, t in _FIELD_TYPES.items() if t == "int"]),
    ("> 0", lambda v: v > 0, ("scan_spacing_m", "grid_resolution_m", "ransac_inlier_px")),
    ("in (0, 180)", lambda v: 0 < v < 180, ("beamwidth_deg",)),
    (">= 0", lambda v: v >= 0, ("blur_sigma_px", "min_good_matches", "scale_tol",
                                "translation_tol_mm", "rotation_tol_deg", "seed")),
    (">= 1", lambda v: v >= 1, ("ransac_iters",)),
    # a similarity fit needs 2 correspondences
    (">= 2", lambda v: v >= 2, ("ransac_min_inliers",)),
    ("in (0, 1)", lambda v: 0 < v < 1, ("ratio",)),
)


def _parse_value(key: str, raw: str):
    if key not in _FIELD_TYPES:
        known = ", ".join(sorted(_FIELD_TYPES))
        raise ValueError(f"unknown config key {key!r} (known keys: {known})")
    kind = _FIELD_TYPES[key]
    if key == "detectors":
        return tuple(p.strip() for p in raw.split(",") if p.strip())
    try:
        if key == "mounts_deg":
            return tuple(float(p) for p in raw.split(",") if p.strip())
        return {"float": float, "int": int}[kind](raw)
    except ValueError:
        raise ValueError(f"{key}: cannot parse {raw!r} as {kind}") from None


def _parse_lines(text: str) -> dict:
    """The values of ``key=value`` lines by key; a later line wins."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        values[key] = _parse_value(key, raw)
    return values


def parse_config_text(text: str) -> RunConfig:
    return RunConfig(**_parse_lines(text))


@names_its_file
def _read_config_file(path: str | Path) -> dict:
    return _parse_lines(Path(path).read_text())


def load_config(path: str | Path | None,
                overrides: list[str] | None = None) -> RunConfig:
    """Config from an optional file plus ``key=value`` override strings, merged
    in order (later ones win) and then checked once. A refusal names the file
    when the overrides alone would be accepted."""
    from_file = _read_config_file(path) if path is not None else {}
    overridden = {}
    for item in overrides or []:
        if "=" not in item:
            raise ValueError(f"override must be key=value, got {item!r}")
        overridden.update(_parse_lines(item))
    try:
        return RunConfig(**{**from_file, **overridden})
    except ValueError as exc:
        if path is None:
            raise
        try:
            RunConfig(**overridden)
        except ValueError:
            raise exc from None
        raise ValueError(f"{path}: {exc}") from exc
