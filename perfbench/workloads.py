"""Benchmark workloads: seeded inputs and the CLI command chain of each.

Every input the program sees is a text file in the README's scene
(``x_m y_m rcs``) or trajectory (``x_m y_m theta_rad``) format, written into
a per-run directory; the program additionally gets ``--seed``. The same
workload and seed always give the same input bytes.

- ``demo-self``: the shipped demo through ``sarloop pipeline`` (a submap
  matched against itself). Features dominate; the only workload where both
  loopclose images are identical.
- ``survey-map``: a seeded ~40-scatterer scene along an L-shaped path (4 m,
  then 2 m), through ``simulate``, ``backproject`` and ``post``.
  Back-projection dominates; the feature layers do no work.
- ``revisit-pair``: the demo scene driven along the demo path and again
  along that path moved by a fixed rigid offset; each pass is mapped on its
  own grid, then ``loopclose`` runs pass A against pass B. Two distinct
  images, so matching keeps only a minority of its candidates.
"""

from __future__ import annotations

import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

DEMO_SCENE = Path("demo/scene.txt")
DEMO_TRAJECTORY = Path("demo/trajectory.txt")

# L-shaped survey: 4 m along +x, then 2 m along +y.
SURVEY_WAYPOINTS = ((0.0, 0.0), (4.0, 0.0), (4.0, 2.0))
SURVEY_SCATTERERS = 40
# Scatterers sit 0.5-2.5 m to either side of a leg, inside the 0.4-3.0 m
# range window, and at least 0.2 m from a leg's ends along it.
SURVEY_SIDE_M = (0.5, 2.5)
SURVEY_END_MARGIN_M = 0.2
SURVEY_RCS = (0.5, 1.5)

# Pass B of revisit-pair: the demo path rotated by 3 degrees about the
# origin, then shifted by (0.10 m, -0.05 m). Fixed, not drawn from the seed.
REVISIT_OFFSET = (0.10, -0.05, math.radians(3.0))

# Harness smoke check only: a three-point scene on a short path with a
# coarse grid and short range, so the whole chain runs in about a second.
TINY_SCENE = ((0.10, 0.45, 1.0), (0.25, -0.40, 1.0), (0.35, 0.55, 0.8))
TINY_WAYPOINTS = ((0.0, 0.0), (0.4, 0.0))
TINY_SETTINGS = ("range_max_m=1.0", "grid_resolution_m=0.01",
                 "target_keypoints=60", "min_good_matches=5")

WORKLOADS = ("demo-self", "survey-map", "revisit-pair")


@dataclass(frozen=True)
class Chain:
    """What one iteration of a workload runs and where it leaves its outputs."""

    commands: tuple[tuple[str, ...], ...]  # CLI argv per call, without --seed
    submaps: tuple[str, ...]               # dirs holding truth.pgm and image.pgm
    loop_table: str | None                 # loopclose.tsv, None without a verdict
    self_loop: bool                        # image matched against itself


def read_points(path: Path) -> list[tuple[float, float, float]]:
    rows = []
    for line in path.read_text().splitlines():
        body = line.split("#", 1)[0].split()
        if body:
            rows.append(tuple(float(v) for v in body))
    return rows


def write_points(path: Path, header: str, rows) -> None:
    lines = [f"# {header}"] + [" ".join(f"{v:.6f}" for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def survey_scene(seed: int) -> list[tuple[float, float, float]]:
    """~40 scatterers split over the two legs, alternating sides."""
    rng = random.Random(seed)
    per_leg = SURVEY_SCATTERERS // 2
    scene = []
    for (x0, y0), (x1, y1) in zip(SURVEY_WAYPOINTS, SURVEY_WAYPOINTS[1:]):
        length = math.hypot(x1 - x0, y1 - y0)
        ux, uy = (x1 - x0) / length, (y1 - y0) / length
        for k in range(per_leg):
            along = rng.uniform(SURVEY_END_MARGIN_M, length - SURVEY_END_MARGIN_M)
            side = (1.0 if k % 2 == 0 else -1.0) * rng.uniform(*SURVEY_SIDE_M)
            scene.append((x0 + along * ux - side * uy, y0 + along * uy + side * ux,
                          rng.uniform(*SURVEY_RCS)))
    return scene


def path_with_headings(points) -> list[tuple[float, float, float]]:
    """Waypoints with each heading taken from the segment leaving it."""
    headings = [math.atan2(yb - ya, xb - xa)
                for (xa, ya), (xb, yb) in zip(points, points[1:])]
    return [(x, y, h) for (x, y), h in zip(points, headings + headings[-1:])]


def offset_path(rows, offset) -> list[tuple[float, float, float]]:
    """Apply the rigid transform (tx, ty, rot) to every waypoint."""
    tx, ty, rot = offset
    c, s = math.cos(rot), math.sin(rot)
    return [(c * x - s * y + tx, s * x + c * y + ty, theta + rot) for x, y, theta in rows]


def write_inputs(workload: str, seed: int, root: Path, dest: Path) -> dict[str, Path]:
    """Write the workload's scene and trajectory files into ``dest``."""
    dest.mkdir(parents=True, exist_ok=True)
    paths = {"scene": dest / "scene.txt", "trajectory": dest / "trajectory.txt"}
    if workload in ("demo-self", "revisit-pair"):
        shutil.copyfile(root / DEMO_SCENE, paths["scene"])
        shutil.copyfile(root / DEMO_TRAJECTORY, paths["trajectory"])
        if workload == "revisit-pair":
            paths["trajectory_b"] = dest / "trajectory_b.txt"
            tx, ty, rot = REVISIT_OFFSET
            write_points(paths["trajectory_b"],
                         f"demo path moved by ({tx} m, {ty} m, {math.degrees(rot):g} deg)",
                         offset_path(read_points(paths["trajectory"]), REVISIT_OFFSET))
    elif workload == "survey-map":
        write_points(paths["scene"], f"survey-map scene, seed {seed}", survey_scene(seed))
        write_points(paths["trajectory"], "L-shaped survey path",
                     path_with_headings(SURVEY_WAYPOINTS))
    elif workload == "tiny":
        write_points(paths["scene"], "tiny smoke scene", TINY_SCENE)
        write_points(paths["trajectory"], "tiny smoke path",
                     path_with_headings(TINY_WAYPOINTS))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return paths


def chain(workload: str, inputs: dict[str, Path], out: Path) -> Chain:
    """The CLI calls of one iteration, writing below ``out``."""
    scene, trajectory = str(inputs["scene"]), str(inputs["trajectory"])
    if workload in ("demo-self", "tiny"):
        o = str(out / "self")
        settings = TINY_SETTINGS if workload == "tiny" else ()
        command = (("pipeline", "--scene", scene, "--trajectory", trajectory, "--out", o)
                   + tuple(a for setting in settings for a in ("--set", setting)))
        return Chain((command,), (o,), f"{o}/loopclose.tsv", True)
    if workload == "survey-map":
        o = str(out / "map")
        return Chain(map_commands(scene, trajectory, o), (o,), None, False)
    if workload == "revisit-pair":
        a, b, pair = str(out / "pass_a"), str(out / "pass_b"), str(out / "pair")
        commands = (map_commands(scene, trajectory, a)
                    + map_commands(scene, str(inputs["trajectory_b"]), b)
                    + (("loopclose", "--image-a", f"{a}/image.pgm",
                        "--image-b", f"{b}/image.pgm", "--out", pair),))
        return Chain(commands, (a, b), f"{pair}/loopclose.tsv", False)
    raise ValueError(f"unknown workload {workload!r}")


def map_commands(scene: str, trajectory: str, out: str) -> tuple[tuple[str, ...], ...]:
    """simulate -> backproject -> post for one submap."""
    return (("simulate", "--scene", scene, "--trajectory", trajectory, "--out", out),
            ("backproject", "--scanlog", f"{out}/scanlog.bin", "--out", out),
            ("post", "--sar", f"{out}/sar.cpx", "--out", out))
