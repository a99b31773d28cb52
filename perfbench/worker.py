"""The process that runs one workload's command chain, repeatedly.

Usage: ``python3 perfbench/worker.py SPEC.json`` where the spec (written by
``run.py``) names the source tree, the workload and its input files, the
seed, whether to trace, the time budget, and where to write the result JSON.

The process first times ``import sarloop, sarloop.cli`` plus building the
CLI parser (what every ``sarloop`` call pays before doing work). It then
runs the workload's command chain one call at a time through
``sarloop.cli.main``, as many times as fit in the budget (at least once),
and reports each chain's wall time and the process's peak RSS. Output
digests and map and loop quality are taken after each timed chain and
after the RSS is read, so they move neither.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import layers
import workloads
from tracer import Tracer


def digests(root: Path) -> dict[str, str]:
    """sha256 of every file below ``root``, keyed by relative path."""
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[path.relative_to(root).as_posix()] = h.hexdigest()
    return out


def map_quality(submaps: list[str]) -> dict:
    """Cell-wise occupancy error of each map against its truth raster (Otsu)."""
    from sarloop import imgpost
    wrong = cells = 0
    per_map = {}
    for d in submaps:
        image, _ = imgpost.read_pgm(Path(d) / "image.pgm")
        truth, _ = imgpost.read_pgm(Path(d) / "truth.pgm")
        err = imgpost.cellwise_difference(imgpost.occupancy_from_image(image),
                                          truth.pixels > 0)
        per_map[Path(d).name] = err
        wrong += err * truth.pixels.size
        cells += truth.pixels.size
    return {"map_err": wrong / cells, "per_map": per_map}


def loop_quality(table: str) -> dict:
    """Verdict and match counts from a loopclose.tsv, located by column name."""
    lines = Path(table).read_text().splitlines()
    columns = lines[0].lstrip("# ").split("\t")
    rows = [dict(zip(columns, line.split("\t"))) for line in lines[1:] if line]
    detectors = [r for r in rows if r["detector_id"] != "fused"]
    fused = [r for r in rows if r["detector_id"] == "fused"]
    transform = None
    if fused:
        transform = {k: float(fused[0][k]) for k in ("scale", "tx_mm", "ty_mm", "rot_deg")}
    return {"accepted": int(bool(rows) and rows[0]["decision"] == "accepted"),
            "reasons": rows[0]["reasons"] if rows else "",
            "inliers": sum(int(r["good_matches"]) for r in detectors),
            "fused_transform": transform,
            "rows": rows}


def run_iteration(spec: dict, k: int) -> dict:
    """Run the command chain once; quality is read after the timed part."""
    from sarloop import cli
    out = Path(spec["out"]) / f"iter{k}"
    plan = workloads.chain(spec["workload"],
                           {name: Path(p) for name, p in spec["inputs"].items()}, out)
    tracer = Tracer(f"{spec['run_id']}-i{k}")
    layers.install(tracer, full=spec["trace"])
    commands = []
    start = time.perf_counter()
    for args in plan.commands:
        t = time.perf_counter()
        try:
            rc = cli.main(list(args) + ["--seed", str(spec["seed"])])
        except Exception:  # a crash is a failed command, not a harness error
            rc = traceback.format_exc(limit=-3)
        commands.append({"argv": args, "rc": rc, "s": time.perf_counter() - t})
        if rc != 0:
            break
    pipeline_s = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.unwrap()

    spans = [dataclasses.asdict(s) for s in tracer.spans]
    it = {"pipeline_s": pipeline_s, "rss_mb": rss_mb,
          "map_s": layers.command_seconds(spans, "cmd_backproject", "cmd_post"),
          "verdict_s": layers.command_seconds(spans, "cmd_loopclose"),
          "commands": commands, "n_commands": len(plan.commands),
          "self_loop": plan.self_loop, "missing_spans": tracer.missing,
          "digests": digests(out)}
    if spec["trace"]:
        it["layers"] = layers.layer_metrics(spans)
        it["spans"] = spans
    if all(c["rc"] == 0 for c in commands) and len(commands) == len(plan.commands):
        it["map"] = map_quality(plan.submaps)
        if plan.loop_table:
            it["loop"] = loop_quality(plan.loop_table)
    shutil.rmtree(out, ignore_errors=True)
    return it


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    import sarloop
    import sarloop.cli
    sarloop.cli.build_parser()
    result = {"setup_s": time.perf_counter() - t0}
    if spec.get("setup_only"):
        Path(spec["result"]).write_text(json.dumps(result))
        return 0

    import numpy
    import scipy

    result["versions"] = {"python": platform.python_version(),
                          "numpy": numpy.__version__, "scipy": scipy.__version__,
                          "sarloop": getattr(sarloop, "__version__", "unknown")}
    # Start another iteration only while it is expected to end within the
    # budget, so a run measures for about --seconds on any machine.
    iterations = []
    start = time.perf_counter()
    while True:
        iterations.append(run_iteration(spec, len(iterations)))
        elapsed = time.perf_counter() - start
        if ("map" not in iterations[-1]
                or elapsed + elapsed / len(iterations) > spec["budget_s"]):
            break
    result.update(trace=spec["trace"], iterations=iterations,
                  peak_rss_mb=max(it["rss_mb"] for it in iterations))
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
