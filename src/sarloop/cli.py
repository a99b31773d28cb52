"""Command-line frontend chaining the processing stages.

Stages and their file hand-offs:

    simulate    scene + waypoints -> scanlog.bin, truth.pgm
    backproject scanlog.bin      -> sar.cpx (complex image dump)
    post        sar.cpx          -> image.pgm
    match       two images       -> features_*.bin, matches.tsv
    loopclose   two images       -> features_*.bin, loopclose.tsv
    pipeline    all of the above against the bundled stage outputs

``simulate`` saves the ``ScanLog`` that ``render_scene`` returns, and
``backproject`` loads it, range-compresses its samples as one table and
images them, so the library path gives the same bytes. ``backproject``
writes each row band of the image as ``sar_bands`` yields it, so it never
holds the whole complex grid, and its dump appears under its name only once
complete. Every command is
deterministic for fixed inputs, config, and seed; outputs are refused if they
already exist unless --overwrite is given, and ``pipeline`` refuses any of its
outputs before its first stage runs. ``main`` resolves the run config once
per command and hands it to the command, so ``pipeline`` runs all four
stages with one config. A default config file may be named in the
SARLOOP_CONFIG environment variable; an empty one counts as unset.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys
from pathlib import Path

import numpy as np

from . import imgpost
from .backprojection import derive_grid, sar_bands
from .features import load_feature_set, save_feature_set
from .features.base import require_min_size
from .loopclose import (detect_and_match, match_feature_sets, validate_loop,
                        write_report_table)
from .radar import compress_scan
from .runconfig import RunConfig, load_config
from .scanlog import load_scan_log, save_scan_log
from .simulate import generate_trajectory, load_scene, load_trajectory, render_scene

PROG = "sarloop"


def _outputs(args, *names: str) -> list[Path]:
    """The named outputs in --out; existing ones are refused without --overwrite."""
    paths = [Path(args.out) / name for name in names]
    clashes = [str(p) for p in paths if p.exists()]
    if clashes and not args.overwrite:
        raise ValueError("refusing to overwrite existing outputs "
                         f"(pass --overwrite): {', '.join(clashes)}")
    return paths


def _make_out(args) -> list[Path]:
    """Make --out, once the command's inputs are loaded and its outputs
    computed: a command that fails before it writes leaves no directory.
    Returns the directories it made, deepest first."""
    out = Path(args.out)
    made = list(itertools.takewhile(lambda d: not d.exists(), (out, *out.parents)))
    out.mkdir(parents=True, exist_ok=True)
    return made


def _feature_names(cfg: RunConfig) -> list[str]:
    """The feature files of a two-image match: A then B for each detector."""
    return [f"features_{det}_{side}.bin" for det in cfg.detectors for side in "ab"]


def cmd_simulate(args, cfg: RunConfig) -> int:
    log_path, truth_path = _outputs(args, "scanlog.bin", "truth.pgm")

    scene = load_scene(args.scene)
    poses = generate_trajectory(load_trajectory(args.trajectory), cfg.scan_spacing_m)
    radars = cfg.radars()
    grid = derive_grid(poses, radars[0], cfg.grid_resolution_m)
    # post blurs a map of this grid and pipeline detects on it: a kernel wider than the
    # grid, or in pipeline a grid too small to detect on, is refused before any output
    imgpost._check_blur_radius(cfg.blur_sigma_px, (grid.height_px, grid.width_px))
    if args.command == "pipeline":
        require_min_size((grid.height_px, grid.width_px))
    log, truth = render_scene(scene, poses, radars, grid, snr_db=cfg.snr_db,
                              rng=np.random.default_rng(cfg.seed))
    _make_out(args)
    save_scan_log(log, log_path)
    imgpost.write_pgm(
        imgpost.GrayImage(truth.astype(np.uint8) * 255, grid.resolution_m),
        truth_path, origin_m=grid.origin_m)
    print(f"wrote {log_path} ({len(log)} scans) and {truth_path}")
    return 0


def cmd_backproject(args, cfg: RunConfig) -> int:
    [sar_path] = _outputs(args, "sar.cpx")

    log = load_scan_log(args.scanlog)
    if len(log) == 0:
        raise ValueError(f"{args.scanlog}: scan log has no records")
    # The scans are focused with the radars the log's header gives them, not
    # with the run config's radar keys.
    bins = compress_scan(log.records["samples"], log.radars[0])
    grid = derive_grid(log.records["pose"], log.radars[0], cfg.grid_resolution_m)
    # Each band is written as it is summed, so the grid is never held whole. The
    # dump appears only complete: it is renamed from a temporary name at the end,
    # and a failure removes that file and any directory made for it.
    with contextlib.closing(sar_bands(log, bins, grid)) as summed:
        bands = itertools.chain([next(summed)], summed)  # computed before --out is made
        made = _make_out(args)
        part = sar_path.with_name(f".{sar_path.name}.{os.getpid()}.part")
        try:
            imgpost.write_sar_bands(grid, len(log), bands, part)
            os.replace(part, sar_path)
        except BaseException:
            part.unlink(missing_ok=True)
            for directory in made:
                directory.rmdir()
            raise
    print(f"wrote {sar_path} ({grid.width_px}x{grid.height_px} px, {len(log)} scans)")
    return 0


def cmd_post(args, cfg: RunConfig) -> int:
    [pgm_path] = _outputs(args, "image.pgm")

    # Each band is made positive and blurred as it is read, and the blurred map is held
    # as its bands: no complex grid, and no grid before a pipe's payload has arrived.
    with contextlib.closing(imgpost.sar_dump_bands(args.sar)) as dump:
        grid, _ = next(dump)
        blurred = list(imgpost.blur_bands(map(imgpost.positive_pixels, dump),
                                          (grid.height_px, grid.width_px), cfg.blur_sigma_px))
    levels = imgpost.GrayImage(imgpost.quantize_bands(blurred), grid.resolution_m)
    _make_out(args)
    imgpost.write_pgm(levels, pgm_path, origin_m=grid.origin_m)
    print(f"wrote {pgm_path}")
    return 0


def _match_images(args, cfg: RunConfig, with_decision: bool) -> int:
    img_a, _ = imgpost.read_pgm(args.image_a)
    img_b, _ = imgpost.read_pgm(args.image_b)
    *feature_paths, table = _outputs(
        args, *_feature_names(cfg), "loopclose.tsv" if with_decision else "matches.tsv")

    matched = detect_and_match(img_a, img_b, cfg)
    _make_out(args)
    for k, (fa, fb, _) in enumerate(matched):
        save_feature_set(fa, feature_paths[2 * k])
        save_feature_set(fb, feature_paths[2 * k + 1])
    reports = [report for _, _, report in matched]

    decision = None
    if with_decision:
        decision = validate_loop(reports[0], reports[1], cfg)
        verdict = "accepted" if decision.accepted else "rejected"
        detail = "" if decision.accepted else f" (reasons: {', '.join(decision.reasons)})"
        print(f"loop {verdict}{detail}")
    write_report_table(table, reports, decision)
    print(f"wrote {table}")
    return 0


def cmd_match(args, cfg: RunConfig) -> int:
    if args.features_a or args.features_b:
        if args.image_a or args.image_b:
            raise ValueError("match takes --image-a/--image-b or --features-a/--features-b, "
                             "not both")
        if not (args.features_a and args.features_b):
            raise ValueError("--features-a and --features-b must be given together")
        [table] = _outputs(args, "matches.tsv")
        fa = load_feature_set(args.features_a)
        fb = load_feature_set(args.features_b)
        report = match_feature_sets(fa, fb, cfg)
        _make_out(args)
        write_report_table(table, [report])
        print(f"wrote {table}")
        return 0
    if not (args.image_a and args.image_b):
        raise ValueError("need --image-a/--image-b or --features-a/--features-b")
    return _match_images(args, cfg, with_decision=False)


def cmd_loopclose(args, cfg: RunConfig) -> int:
    return _match_images(args, cfg, with_decision=True)


def cmd_pipeline(args, cfg: RunConfig) -> int:
    # every output is refused before the first stage writes any
    log_path, _, sar_path, image_path, *_ = _outputs(
        args, "scanlog.bin", "truth.pgm", "sar.cpx", "image.pgm",
        *_feature_names(cfg), "loopclose.tsv")
    ns = argparse.Namespace(**vars(args), scanlog=log_path, sar=sar_path,
                            image_a=image_path, image_b=image_path)
    cmd_simulate(ns, cfg)
    cmd_backproject(ns, cfg)
    cmd_post(ns, cfg)
    return cmd_loopclose(ns, cfg)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="run-config file "
                        "(default: $SARLOOP_CONFIG if set)")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--overwrite", action="store_true",
                        help="replace existing outputs")

    parser = argparse.ArgumentParser(
        prog=PROG, description="UWB radar SAR imaging and loop-closure toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="render a scene into a scan log plus truth map")
    p.add_argument("--scene", required=True, help="scatterer file: x_m y_m rcs")
    p.add_argument("--trajectory", required=True,
                   help="waypoint file: x_m y_m theta_rad")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("backproject", parents=[common],
                       help="scan log -> complex SAR image dump")
    p.add_argument("--scanlog", required=True)
    p.set_defaults(func=cmd_backproject)

    p = sub.add_parser("post", parents=[common],
                       help="complex SAR dump -> 8-bit PGM")
    p.add_argument("--sar", required=True)
    p.set_defaults(func=cmd_post)

    p = sub.add_parser("match", parents=[common],
                       help="match two images or two feature sets")
    p.add_argument("--image-a")
    p.add_argument("--image-b")
    p.add_argument("--features-a")
    p.add_argument("--features-b")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("loopclose", parents=[common],
                       help="dual-detector loop decision on two images")
    p.add_argument("--image-a", required=True)
    p.add_argument("--image-b", required=True)
    p.set_defaults(func=cmd_loopclose)

    p = sub.add_parser("pipeline", parents=[common],
                       help="simulate -> backproject -> post -> self loopclose")
    p.add_argument("--scene", required=True)
    p.add_argument("--trajectory", required=True)
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the one run config of this command, from --config or SARLOOP_CONFIG
        # (empty: unset), then every --set and --seed
        config_path = args.config or os.environ.get("SARLOOP_CONFIG") or None
        seed = [] if args.seed is None else [f"seed={args.seed}"]
        cfg = load_config(config_path, (args.set or []) + seed)
        if args.command in ("loopclose", "pipeline") and len(cfg.detectors) != 2:
            raise ValueError("loop validation needs two detectors "
                             f"(configured: {', '.join(cfg.detectors) or 'none'})")
        return args.func(args, cfg)
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        cause = "out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"error: {cause}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
