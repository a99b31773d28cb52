"""sarloop benchmark: end-to-end and per-layer metrics for three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload demo-self --seed 1 --seconds 35 --trace 0

A run is a closed loop with one client: one worker process (``worker.py``)
imports sarloop, then runs the workload's CLI command chain through
``sarloop.cli.main``, one call at a time, repeating the chain while the next
repetition is expected to end within ``--seconds`` (at least once). The
medians over the repetitions are reported. Set-up (``import sarloop`` plus
the CLI parser) is timed in the worker and in extra import-only processes.
BLAS/OpenMP thread pools are capped at the number of usable cores.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json; only
the CLI command functions are timed (to split map and verdict time inside
``sarloop pipeline``). ``--trace 1`` splits the time between an untraced
worker and a traced one, where every public function at a module boundary
is wrapped (see ``layers.py``), and reports the per-layer metrics plus the
tracing overhead (traced minus untraced ``pipeline_s``).

Every run checks its outputs: each CLI call exits 0, every output file
hashes the same in every repetition (traced ones included), and demo-self is
accepted with the identity transform. Failed commands and failed checks are
the ``failed`` count of the result. The last stdout line is the result JSON;
the full record (metadata, digests, spans) goes to
``.perfbench/results/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# Set-up is a ~1.3 s import; three samples give a usable median.
MIN_SETUP_SAMPLES = 3
# Workers are killed past this, so a run always ends within 180 s.
RUN_LIMIT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
IDENTITY = {"scale": 1.0, "tx_mm": 0.0, "ty_mm": 0.0, "rot_deg": 0.0}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    caps = str(len(os.sched_getaffinity(0)))
    env.update({var: caps for var in THREAD_VARS})
    env.pop("SARLOOP_CONFIG", None)  # the program gets only the generated inputs
    return env


def run_worker(spec: dict, path: Path, env: dict, timeout: float) -> dict:
    """Run one worker; a crash or timeout comes back as {"error": ...}."""
    spec = dict(spec, result=str(path.with_suffix(".result.json")))
    path.write_text(json.dumps(spec))
    if timeout <= 0:
        return {"error": "no time left in the run for another worker"}
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(path)],
                              env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(Path(spec["result"]).read_text())


def source_info() -> dict:
    files = sorted(SRC.rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        h.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_commit": commit or "unknown", "src_sha256": h.hexdigest(),
            "src_lines": lines}


def measure(args, env: dict, work: Path) -> dict:
    """One untraced worker (plus a traced one with --trace 1) and setup samples."""
    started = time.perf_counter()
    inputs = workloads.write_inputs(args.workload, args.seed, ROOT, work / "inputs")
    modes = (False, True) if args.trace else (False,)
    workers = []
    for trace in modes:
        name = "traced" if trace else "untraced"
        spec = {"src": str(SRC), "workload": args.workload, "seed": args.seed,
                "inputs": {k: str(v) for k, v in inputs.items()}, "trace": trace,
                "out": str(work / name), "budget_s": args.seconds / len(modes),
                "run_id": f"{args.workload}-s{args.seed}-{name}"}
        workers.append(run_worker(spec, work / f"{name}.json", env,
                                  RUN_LIMIT_S - (time.perf_counter() - started)))
    setup = [w["setup_s"] for w in workers if "setup_s" in w]
    while len(setup) < MIN_SETUP_SAMPLES:
        res = run_worker({"src": str(SRC), "setup_only": True},
                         work / f"setup{len(setup)}.json", env,
                         RUN_LIMIT_S - (time.perf_counter() - started))
        if "error" in res:
            workers.append(res)
            break
        setup.append(res["setup_s"])
    return {"workers": workers, "setup": setup}


def complete(it: dict) -> bool:
    return "map" in it


def check(raw: dict) -> tuple[int, int, list[str]]:
    """Count attempted and failed operations: CLI calls plus output checks."""
    attempted = failed = 0
    problems = []
    reference = None
    for w in raw["workers"]:
        if "error" in w:
            attempted += 1
            failed += 1
            problems.append(w["error"])
            continue
        for i, it in enumerate(w["iterations"]):
            where = f"{'traced' if w['trace'] else 'untraced'} iteration {i}"
            attempted += it["n_commands"]
            if not complete(it):
                failed += it["n_commands"] - len(it["commands"]) + 1
                problems += [f"{where}: {c['argv'][0]} -> {c['rc']}"
                             for c in it["commands"] if c["rc"] != 0]
                continue
            if reference is None:
                reference = it["digests"]
            else:
                attempted += 1
                if it["digests"] != reference:
                    failed += 1
                    changed = sorted(k for k in set(reference) | set(it["digests"])
                                     if reference.get(k) != it["digests"].get(k))
                    problems.append(f"{where}: outputs differ from the first "
                                    f"iteration: {', '.join(changed)}")
            if it["self_loop"]:
                attempted += 1
                loop = it.get("loop", {})
                if not (loop.get("accepted") == 1
                        and loop.get("fused_transform") == IDENTITY):
                    failed += 1
                    problems.append(f"{where}: self loop not accepted with the "
                                    f"identity transform: {loop.get('reasons')}, "
                                    f"{loop.get('fused_transform')}")
    return attempted, failed, problems


def summarize(raw: dict) -> dict:
    """Medians of the end-to-end metrics and, when traced, the per-layer ones."""
    done = [w for w in raw["workers"] if "iterations" in w
            and all(complete(it) for it in w["iterations"])]
    plain = [it for w in done if not w["trace"] for it in w["iterations"]]
    traced = [it for w in done if w["trace"] for it in w["iterations"]]
    if not plain:
        return {}
    loop = plain[0].get("loop", {})
    m = {"pipeline_s": statistics.median([it["pipeline_s"] for it in plain]),
         "map_s": statistics.median([it["map_s"] for it in plain]),
         "verdict_s": statistics.median([it["verdict_s"] for it in plain]),
         "setup_s": statistics.median(raw["setup"]),
         "peak_rss_mb": next(w["peak_rss_mb"] for w in done if not w["trace"]),
         "map_err": plain[0]["map"]["map_err"],
         "loop_inliers": loop.get("inliers", 0),
         "loop_accepted": loop.get("accepted", 0)}
    if traced:
        m.update({k: statistics.median([it["layers"][k] for it in traced])
                  for k in traced[0]["layers"]})
        m["trace.pipeline_s"] = statistics.median([it["pipeline_s"] for it in traced])
        m["trace.overhead_s"] = m["trace.pipeline_s"] - m["pipeline_s"]
    return m


LAYER_TIMES = ("simulate.s", "radar.compress_s", "scanlog.io_s", "backprojection.s",
               "imgpost.enhance_s", "imgpost.io_s", "features.s", "loopclose.s",
               "cli.self_s")


def report(args, raw, metrics, attempted, failed, problems, bench, meta) -> dict:
    """Print the human-readable lines; return the result-line object."""
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    counts = {t: sum(len(w["iterations"]) for w in raw["workers"]
                     if w.get("trace") is t) for t in (False, True)}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{counts[False]} untraced and {counts[True]} traced iterations, "
          f"{len(raw['setup'])} setup samples")
    units = {e["name"]: (e["unit"], e["better"]) for e in
             bench["end_to_end"] + bench["per_layer"]}
    for name, value in metrics.items():
        unit, better = units.get(name, ("s", "lower"))
        print(f"  {name:28s} {value:14.6f} {unit:9s} ({better} is better)")
    print(f"  {'error_rate':28s} {failed / attempted:14.6f} fraction  "
          f"({failed} failed of {attempted} attempted)")
    for p in problems:
        print(f"  FAILED: {p}")
    if args.trace and "trace.overhead_s" in metrics:
        ranked = sorted(LAYER_TIMES, key=lambda k: -metrics[k])
        print("  layer self times, largest first: "
              + ", ".join(f"{k}={metrics[k]:.3f}" for k in ranked))
        print(f"  features.s (all features.* self times) {metrics['features.s']:.3f} s"
              f" vs backprojection.s {metrics['backprojection.s']:.3f} s")
        accounted = sum(metrics[k] for k in LAYER_TIMES)
        print(f"  self times along the chain sum to {accounted:.3f} s, plus "
              f"{metrics['trace.count_s']:.3f} s taking counts; untraced "
              f"pipeline_s {metrics['pipeline_s']:.3f} s, traced "
              f"{metrics['trace.pipeline_s']:.3f} s, tracing overhead "
              f"{metrics['trace.overhead_s']:.3f} s")
    iterations = [it for w in raw["workers"] for it in w.get("iterations", [])]
    missing = sorted({t for it in iterations for t in it["missing_spans"]})
    if missing:
        print(f"  missing spans (reported as 0): {', '.join(missing)}")
    digests = next((it["digests"] for it in iterations if complete(it)), {})
    for path, digest in digests.items():
        print(f"  sha256 {digest}  {path}")
    print(f"  metadata {json.dumps(meta, sort_keys=True)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]}
                        for e in wanted}}


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (SRC / "sarloop" / "cli.py", ROOT / workloads.DEMO_SCENE,
                           ROOT / workloads.DEMO_TRAJECTORY) if not p.is_file()]
    if missing:
        print("error: not a sarloop checkout, missing "
              + ", ".join(str(p) for p in missing), file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    compileall.compile_dir(SRC, quiet=1)
    work = STATE / "work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = worker_env()
    try:
        raw = measure(args, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed, problems = check(raw)
    metrics = summarize(raw)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    if any(e["name"] not in metrics for e in wanted):
        print("error: no complete iteration to measure", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    versions = next((w["versions"] for w in raw["workers"] if "versions" in w), {})
    meta = dict(source_info(), nproc=len(os.sched_getaffinity(0)),
                cpu_count=os.cpu_count(), thread_caps={v: env[v] for v in THREAD_VARS},
                **versions)
    result = report(args, raw, metrics, attempted, failed, problems, bench, meta)
    out = STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"args": vars(args), "metadata": meta, "metrics": metrics,
                               "error_rate": failed / attempted, "problems": problems,
                               "workers": raw["workers"], "setup": raw["setup"],
                               "result": result}, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
