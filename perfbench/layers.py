"""Which sarloop functions the benchmark wraps, and the per-layer metrics.

Layers are sarloop's modules; ``features`` covers ``corners``, ``orb``,
``brisk`` and ``serialize``. ``runconfig`` and ``geometry`` cost too little
to measure, so their time stays in the caller's self time.

A layer's time is the sum of the self times of its spans: a span's duration
minus the part its child spans cover. So every second of a traced command
lands in exactly one layer (or in the tracer's own count-taking time).
"""

from __future__ import annotations

import os

from tracer import Tracer, self_times


def _file_bytes(args, kwargs, result) -> dict:
    """Size of the file a reader or writer was given (first path argument)."""
    for value in list(args) + list(kwargs.values()):
        if isinstance(value, (str, os.PathLike)) and os.path.isfile(value):
            return {"bytes": os.path.getsize(value)}
    return {}


def _scans(args, kwargs, result) -> dict:
    return {"scans": len(result[0])}


def _grid(args, kwargs, result) -> dict:
    return {"grid_px": result.grid.width_px * result.grid.height_px,
            "scans": result.scan_count}


def _fov(args, kwargs, result) -> dict:
    import numpy as np
    return {"fov_px": int(np.count_nonzero(result)), "grid_px": int(result.size)}


def _corner(args, kwargs, result) -> dict:
    import numpy as np
    return {"px": int(result.size), "nonzero": int(np.count_nonzero(result))}


def _features(args, kwargs, result) -> dict:
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return {"detector": cfg.detector_id, "keypoints": len(result)}


def _match(args, kwargs, result) -> dict:
    # knn_match yields one candidate per query descriptor of image A.
    return {"candidates": result.n_keypoints_a, "survivors": result.total_matches,
            "inliers": result.good_matches}


# (target, layer, count hook). CLI command spans come first: the untraced
# run wraps only those, to time the map and verdict stages inside
# ``sarloop pipeline``.
COMMANDS = [(f"sarloop.cli:{name}", "cli", None) for name in
             ("cmd_simulate", "cmd_backproject", "cmd_post", "cmd_loopclose")]
TARGETS = COMMANDS + [
    ("sarloop.cli:main", "cli", None),
    ("sarloop.cli:cmd_pipeline", "cli", None),
    ("sarloop.simulate:load_scene", "simulate", None),
    ("sarloop.simulate:load_trajectory", "simulate", None),
    ("sarloop.simulate:render_scene", "simulate", _scans),
    ("sarloop.simulate:noise_std_for_snr", "simulate", None),
    ("sarloop.radar:compress_scan", "radar", None),
    ("sarloop.scanlog:log_from_simulation", "scanlog", None),
    ("sarloop.scanlog:save_scan_log", "scanlog", _file_bytes),
    ("sarloop.scanlog:load_scan_log", "scanlog", _file_bytes),
    ("sarloop.scanlog:ScanLog.to_raw_scans", "scanlog", None),
    ("sarloop.backprojection:derive_grid", "backprojection", None),
    ("sarloop.backprojection:build_sar", "backprojection", _grid),
    ("sarloop.backprojection:fov_mask", "backprojection", _fov),
    ("sarloop.imgpost:positive_image", "imgpost", None),
    ("sarloop.imgpost:gaussian_blur", "imgpost", None),
    ("sarloop.imgpost:quantize", "imgpost", None),
    ("sarloop.imgpost:write_sar_dump", "imgpost", _file_bytes),
    ("sarloop.imgpost:read_sar_dump", "imgpost", _file_bytes),
    ("sarloop.imgpost:write_float_dump", "imgpost", _file_bytes),
    ("sarloop.imgpost:write_pgm", "imgpost", _file_bytes),
    ("sarloop.imgpost:read_pgm", "imgpost", _file_bytes),
    ("sarloop.features:detect_and_describe", "features", _features),
    ("sarloop.features.corners:build_pyramid", "features", None),
    ("sarloop.features.corners:segment_test_scores", "features", _corner),
    ("sarloop.features.serialize:save_feature_set", "features", _file_bytes),
    ("sarloop.features.serialize:load_feature_set", "features", _file_bytes),
    ("sarloop.loopclose:match_feature_sets", "loopclose", _match),
    ("sarloop.loopclose:knn_match", "loopclose", None),
    ("sarloop.loopclose:ratio_test", "loopclose", None),
    ("sarloop.loopclose:estimate_similarity_ransac", "loopclose", None),
    ("sarloop.loopclose:validate_loop", "loopclose", None),
    ("sarloop.loopclose:write_report_table", "loopclose", None),
]

ENHANCE = {"imgpost.positive_image", "imgpost.gaussian_blur", "imgpost.quantize"}
DETECTORS = ("orb", "brisk")


def install(tracer: Tracer, full: bool) -> None:
    for target, layer, count in (TARGETS if full else COMMANDS):
        tracer.wrap(target, layer, count)


def command_seconds(spans: list[dict], *names: str) -> float:
    """Wall time inside the named CLI command functions."""
    wanted = {f"cli.{n}" for n in names}
    return sum(s["end"] - s["start"] for s in spans if s["name"] in wanted)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer self times, work counts and useful-work ratios of one run."""
    own = self_times(spans)

    def seconds(pred) -> float:
        return sum(own[s["id"]] for s in spans if pred(s))

    def count(key: str, pred) -> float:
        return sum(s["counts"].get(key, 0) for s in spans if pred(s))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def layer(name):
        return lambda s: s["layer"] == name

    def named(*names):
        return lambda s: s["name"] in names

    def detector(det):
        return lambda s: (s["name"] == "features.detect_and_describe"
                          and s["counts"].get("detector") == det)

    fov = named("backprojection.fov_mask")
    corners = named("features.segment_test_scores")
    matches = named("loopclose.match_feature_sets")
    m = {
        "simulate.s": seconds(layer("simulate")),
        "simulate.scans": count("scans", named("simulate.render_scene")),
        "radar.compress_s": seconds(layer("radar")),
        "scanlog.io_s": seconds(layer("scanlog")),
        "scanlog.bytes": count("bytes", layer("scanlog")),
        "backprojection.s": seconds(layer("backprojection")),
        "backprojection.grid_px": count("grid_px", named("backprojection.build_sar")),
        "backprojection.fov_fill": ratio(count("fov_px", fov), count("grid_px", fov)),
        "imgpost.enhance_s": seconds(lambda s: s["name"] in ENHANCE),
        "imgpost.io_s": seconds(lambda s: s["layer"] == "imgpost"
                                and s["name"] not in ENHANCE),
        "imgpost.bytes": count("bytes", layer("imgpost")),
        "features.s": seconds(layer("features")),
        "features.pyramid_s": seconds(named("features.build_pyramid")),
        "features.segment_test_s": seconds(corners),
        "features.segment_test_px": count("px", corners),
        "features.corner_fill": ratio(count("nonzero", corners), count("px", corners)),
        "features.detect_calls": sum(1 for s in spans
                                     if s["name"] == "features.detect_and_describe"),
        "features.serialize_s": seconds(named("features.save_feature_set",
                                              "features.load_feature_set")),
        "loopclose.s": seconds(layer("loopclose")),
        "loopclose.knn_s": seconds(named("loopclose.knn_match")),
        "loopclose.ransac_s": seconds(named("loopclose.estimate_similarity_ransac")),
        "loopclose.ratio_survivors": ratio(count("survivors", matches),
                                           count("candidates", matches)),
        "loopclose.inlier_ratio": ratio(count("inliers", matches),
                                        count("survivors", matches)),
        "cli.self_s": seconds(layer("cli")),
        "trace.count_s": sum(s["hook_s"] for s in spans),
    }
    for det in DETECTORS:
        m[f"features.describe_s.{det}"] = seconds(detector(det))
        m[f"features.keypoints.{det}"] = count("keypoints", detector(det))
    return m
