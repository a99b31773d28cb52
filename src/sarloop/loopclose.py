"""Feature matching, similarity estimation, and loop-closure validation.

Two binary descriptors of segment-test keypoints, found once per image,
match a candidate image pair; each yields good-match counts and a 4-DOF
similarity (scale, rotation, translation). A loop closure is confirmed only
when both agree: enough inliers each, scales near 1, and mutually
consistent transforms. Confirmed transforms are fused by inlier weighting.
Every stage reads its settings (ratio, RANSAC, agreement thresholds and
seed) from one ``RunConfig``, the CLI's, defaulting to ``RunConfig()``.

Transforms are held in meters/radians internally; the tab-separated report
format mirrors the millimeters/degrees convention used for presentation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .features import DetectorConfig, FeatureSet, detect_and_describe
from .features.corners import SharedFrontEnds
from .geometry import wrap_angle
from .imgpost import GrayImage
from .runconfig import RunConfig

_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                          axis=1).sum(1).astype(np.uint16)


@dataclass(frozen=True)
class SimilarityTransform:
    """4-DOF planar map: p' = scale * R(rot) * p + t, metric units."""

    scale: float
    tx_m: float
    ty_m: float
    rot_rad: float

    def __post_init__(self):
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class MatchReport:
    """Outcome of one detector's pipeline on an image pair."""

    detector_id: str
    n_keypoints_a: int
    n_keypoints_b: int
    total_matches: int
    good_matches: int
    transform: SimilarityTransform | None

    def __post_init__(self):
        if self.good_matches > self.total_matches:
            raise ValueError(f"good {self.good_matches} > total {self.total_matches}")


@dataclass(frozen=True)
class LoopDecision:
    accepted: bool
    fused_transform: SimilarityTransform | None
    reports: tuple[MatchReport, ...]
    reasons: tuple[str, ...]


def hamming_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise Hamming distance matrix between packed descriptor rows."""
    xor = a[:, None, :] ^ b[None, :, :]
    return _POPCOUNT[xor].sum(axis=2, dtype=np.int32)


def _comparable(a: FeatureSet, b: FeatureSet) -> None:
    """Refuse two feature sets whose descriptors cannot be compared."""
    if a.detector_id != b.detector_id:
        raise ValueError(
            f"detector mismatch: {a.detector_id!r} vs {b.detector_id!r}")
    if a.descriptor_bits != b.descriptor_bits:
        raise ValueError(f"descriptor widths differ: {a.descriptor_bits} vs "
                         f"{b.descriptor_bits} bits")


def knn_match(a: FeatureSet, b: FeatureSet) -> tuple[np.ndarray, np.ndarray]:
    """Two nearest neighbors in b for every descriptor in a.

    Returns ``(best, dists)``: ``best[i]`` is the index in b nearest to
    descriptor i of a, and ``dists[i]`` holds the best and second-best
    Hamming distances. Distance ties pick the lower index in b (argmin
    keeps the first hit).
    """
    _comparable(a, b)
    if len(b) < 2:
        raise ValueError(f"need at least 2 descriptors to match against, got {len(b)}")
    dists = hamming_distances(a.descriptors, b.descriptors)
    rows = np.arange(len(a))
    best = dists.argmin(axis=1)
    best_d = dists[rows, best]
    dists[rows, best] = np.iinfo(np.int32).max
    second_d = dists.min(axis=1)
    return best, np.column_stack([best_d, second_d])


def ratio_test(dists: np.ndarray, ratio: float) -> np.ndarray:
    """Mask of unambiguous matches: best distance strictly below ratio * second.

    ``dists`` is knn_match's (n, 2) array of best and second-best distances.
    A zero second distance means the two best candidates are equally
    perfect, so only an exact (distance 0) match survives.
    """
    if not 0 < ratio < 1:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    d = np.asarray(dists)
    return np.where(d[:, 1] == 0, d[:, 0] == 0, d[:, 0] < ratio * d[:, 1])


def estimate_similarity_ransac(src_xy: np.ndarray, dst_xy: np.ndarray, cfg: RunConfig,
                               *, resolution_m: float,
                               ) -> tuple[SimilarityTransform | None, np.ndarray]:
    """RANSAC similarity fit from pixel correspondences src -> dst.

    ``cfg.ransac_iters`` two-point minimal samples propose (scale,
    rotation, translation); the proposal with most inliers within
    ``cfg.ransac_inlier_px`` wins and is refit by least squares over its
    inliers. Returns (transform, inlier mask); transform is None when no
    proposal reaches ``cfg.ransac_min_inliers``. Deterministic for a given
    ``cfg.seed``. Translation is converted to meters via resolution_m.
    """
    src = np.asarray(src_xy, dtype=np.float64)
    dst = np.asarray(dst_xy, dtype=np.float64)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 2:
        raise ValueError(f"correspondence arrays must both be (n, 2), "
                         f"got {src.shape} and {dst.shape}")
    n = src.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 correspondences, got {n}")

    z = src[:, 0] + 1j * src[:, 1]
    w = dst[:, 0] + 1j * dst[:, 1]
    rng = np.random.default_rng(cfg.seed)
    idx = rng.integers(0, n, size=(cfg.ransac_iters, 2))
    z1, z2 = z[idx[:, 0]], z[idx[:, 1]]
    w1, w2 = w[idx[:, 0]], w[idx[:, 1]]
    dz = z2 - z1
    valid = dz != 0
    a = np.divide(w2 - w1, dz, out=np.zeros_like(dz), where=valid)
    valid &= a != 0
    b = w1 - a * z1
    err = np.abs(a[:, None] * z[None, :] + b[:, None] - w[None, :])
    inlier = err <= cfg.ransac_inlier_px
    counts = np.where(valid, inlier.sum(axis=1), 0)
    best = int(counts.argmax())
    if counts[best] < cfg.ransac_min_inliers:
        return None, np.zeros(n, dtype=bool)

    mask = inlier[best]
    zc, wc = z[mask], w[mask]
    zm, wm = zc.mean(), wc.mean()
    denom = float(np.sum(np.abs(zc - zm) ** 2))
    a_fit = np.sum((wc - wm) * np.conj(zc - zm)) / denom if denom > 0 else a[best]
    if a_fit == 0:
        a_fit = a[best]
    b_fit = wm - a_fit * zm
    final = np.abs(a_fit * z + b_fit - w) <= cfg.ransac_inlier_px
    transform = SimilarityTransform(
        scale=float(np.abs(a_fit)),
        tx_m=float(b_fit.real) * resolution_m,
        ty_m=float(b_fit.imag) * resolution_m,
        rot_rad=float(np.angle(a_fit)),
    )
    return transform, final


def _same_resolution(a, b) -> None:
    """Refuse two images or feature sets of different pixel sizes."""
    if a.resolution_m != b.resolution_m:
        raise ValueError(f"image resolutions differ: {a.resolution_m} vs {b.resolution_m}")


def match_feature_sets(a: FeatureSet, b: FeatureSet,
                       cfg: RunConfig = RunConfig()) -> MatchReport:
    """KNN + ratio test + RANSAC between two feature sets.

    Both sets must share a pixel size, which converts the translation to
    meters, and comparable descriptors. Fewer than two keypoints in b leave
    nothing to ratio-test against, so the report has no matches and no
    transform.
    """
    _same_resolution(a, b)
    _comparable(a, b)
    if len(b) < 2:
        return MatchReport(a.detector_id, len(a), len(b), 0, 0, None)
    best, dists = knn_match(a, b)
    keep = ratio_test(dists, cfg.ratio)
    n_kept = int(np.count_nonzero(keep))
    if n_kept < 2:
        return MatchReport(a.detector_id, len(a), len(b), n_kept, 0, None)
    src = a.keypoints["xy"][keep]
    dst = b.keypoints["xy"][best[keep]]
    transform, inliers = estimate_similarity_ransac(src, dst, cfg,
                                                    resolution_m=a.resolution_m)
    good = int(inliers.sum()) if transform is not None else 0
    return MatchReport(a.detector_id, len(a), len(b), n_kept, good, transform)


def detect_and_match(img_a: GrayImage, img_b: GrayImage, cfg: RunConfig = RunConfig(),
                     ) -> list[tuple[FeatureSet, FeatureSet, MatchReport]]:
    """Per detector in ``cfg.detectors``: both images' features and their
    MatchReport, the k-th matched with seed ``cfg.seed + k``.

    Each detector runs as ``DetectorConfig(name, cfg)`` and reads its
    front-end keys from ``cfg`` itself. Both images must share a pixel size,
    checked before detecting. All detectors describe an image in one
    ``SharedFrontEnds`` scope before the next image starts; an image equal
    to the other is detected once.
    """
    _same_resolution(img_a, img_b)
    det_cfgs = [DetectorConfig(name, cfg) for name in cfg.detectors]
    sets = []
    for img in [img_a] if np.array_equal(img_a.pixels, img_b.pixels) else [img_a, img_b]:
        with SharedFrontEnds():
            sets.append([detect_and_describe(img, dc) for dc in det_cfgs])
    return [(fa, fb, match_feature_sets(fa, fb, replace(cfg, seed=cfg.seed + k)))
            for k, (fa, fb) in enumerate(zip(sets[0], sets[-1]))]


def fuse_transform(ta: SimilarityTransform, na: int,
                   tb: SimilarityTransform, nb: int) -> SimilarityTransform:
    """Count-weighted mean of two transform estimates.

    Translations and scale average linearly; rotation averages along the
    shorter arc of the circle. A zero-weight side drops out exactly.
    """
    if na < 0 or nb < 0:
        raise ValueError(f"weights must be non-negative, got {na}, {nb}")
    if na + nb == 0:
        raise ValueError("at least one weight must be positive")
    if nb == 0:
        return ta
    if na == 0:
        return tb
    total = na + nb
    d = wrap_angle(tb.rot_rad - ta.rot_rad)
    return SimilarityTransform(
        scale=(na * ta.scale + nb * tb.scale) / total,
        tx_m=(na * ta.tx_m + nb * tb.tx_m) / total,
        ty_m=(na * ta.ty_m + nb * tb.ty_m) / total,
        rot_rad=wrap_angle(ta.rot_rad + (nb / total) * d),
    )


def validate_loop(report_a: MatchReport, report_b: MatchReport,
                  cfg: RunConfig = RunConfig()) -> LoopDecision:
    """Dual-detector loop-closure decision.

    Accepts only when both detectors found ``cfg.min_good_matches`` RANSAC
    inliers, both scales are within ``cfg.scale_tol`` of 1, and the two
    transforms agree within ``cfg.translation_tol_mm`` along each axis and
    ``cfg.rotation_tol_deg``. On acceptance the fused transform is the
    count-weighted mean with scale pinned back to exactly 1 (it already
    passed the near-1 check). Rejections carry the named failed criteria.
    """
    if report_a.detector_id == report_b.detector_id:
        raise ValueError(
            f"need two distinct detectors, both reports are {report_a.detector_id!r}")
    reasons: list[str] = []
    if (report_a.good_matches < cfg.min_good_matches
            or report_b.good_matches < cfg.min_good_matches
            or report_a.transform is None or report_b.transform is None):
        reasons.append("match count")

    present = [r.transform for r in (report_a, report_b) if r.transform is not None]
    lo, hi = 1.0 - cfg.scale_tol, 1.0 + cfg.scale_tol
    if any(not lo <= t.scale <= hi for t in present):
        reasons.append("scale")
    if report_a.transform is not None and report_b.transform is not None:
        ta, tb = report_a.transform, report_b.transform
        tol_m = cfg.translation_tol_mm / 1000.0
        if abs(ta.tx_m - tb.tx_m) > tol_m or abs(ta.ty_m - tb.ty_m) > tol_m:
            reasons.append("translation")
        if abs(wrap_angle(ta.rot_rad - tb.rot_rad)) > math.radians(cfg.rotation_tol_deg):
            reasons.append("rotation")

    if reasons:
        return LoopDecision(False, None, (report_a, report_b), tuple(reasons))
    fused = fuse_transform(report_a.transform, report_a.good_matches,
                           report_b.transform, report_b.good_matches)
    fused = SimilarityTransform(1.0, fused.tx_m, fused.ty_m, fused.rot_rad)
    return LoopDecision(True, fused, (report_a, report_b), ())


# --------------------------------------------------------------------------
# Report file format

REPORT_COLUMNS = ("detector_id", "kp_a", "kp_b", "total_matches", "good_matches",
                  "scale", "tx_mm", "ty_mm", "rot_deg", "decision", "reasons")


def _report_line(r: MatchReport, decision: str, reasons: str) -> str:
    if r.transform is None:
        cells = ["nan", "nan", "nan", "nan"]
    else:
        t = r.transform
        cells = [f"{t.scale:.6f}", f"{t.tx_m * 1000.0:.3f}",
                 f"{t.ty_m * 1000.0:.3f}", f"{math.degrees(t.rot_rad):.4f}"]
    return "\t".join([r.detector_id, str(r.n_keypoints_a), str(r.n_keypoints_b),
                      str(r.total_matches), str(r.good_matches), *cells,
                      decision, reasons])


def format_report_table(reports: Sequence[MatchReport],
                        decision: LoopDecision | None = None) -> str:
    """Tab-separated match records, one per line, stable column order.

    With a decision, every row carries the verdict and failure reasons, and
    an accepted decision appends a ``fused`` row whose counts are the sums
    of the per-detector counts.
    """
    verdict = "-"
    reasons = "-"
    if decision is not None:
        verdict = "accepted" if decision.accepted else "rejected"
        reasons = ",".join(decision.reasons) or "-"
    lines = ["# " + "\t".join(REPORT_COLUMNS)]
    lines += [_report_line(r, verdict, reasons) for r in reports]
    if decision is not None and decision.accepted:
        fused = MatchReport(
            "fused",
            sum(r.n_keypoints_a for r in reports),
            sum(r.n_keypoints_b for r in reports),
            sum(r.total_matches for r in reports),
            sum(r.good_matches for r in reports),
            decision.fused_transform)
        lines.append(_report_line(fused, verdict, reasons))
    return "\n".join(lines) + "\n"


def write_report_table(path, reports: Sequence[MatchReport],
                       decision: LoopDecision | None = None) -> None:
    with open(path, "w") as fh:
        fh.write(format_report_table(reports, decision))
