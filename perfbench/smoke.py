"""Fast self-check of the benchmark harness (about ten seconds).

Usage (from the repository root): ``python3 perfbench/smoke.py``

Runs a tiny generated scene (three scatterers, 0.4 m path, 1 cm grid)
through ``sarloop pipeline`` once untraced and once traced, using the same
code paths as ``run.py``, and checks that:

- the tracer reports a renamed or removed target as missing, not as an error;
- every CLI call exits 0 and the traced outputs hash equal to the untraced;
- spans carry name, layer, start, end, parent and run id, and the self times
  of one traced command add up to its wall time;
- every per-layer metric in BENCHMARK.json is produced, and the result line
  has exactly the keys correct, attempted, failed and metrics;
- ``run.py`` exits non-zero, printing no result, outside a sarloop checkout.

Exits 1 and lists what failed if any check does not hold.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile

import run
import tracer as tracing

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_missing_target() -> None:
    t = tracing.Tracer("smoke")
    found = t.wrap("json:no_such_function", "json")
    expect(not found and t.missing == ["json:no_such_function"],
           "a missing target is listed, not raised")
    expect(t.wrap("json:dumps", "json") and json.dumps(1) == "1" and len(t.spans) == 1,
           "a wrapped function records one span per call")
    t.unwrap()
    json.dumps(2)
    expect(len(t.spans) == 1, "unwrap restores the original function")


def check_tiny_run(bench: dict) -> None:
    args = argparse.Namespace(workload="tiny", seed=3, seconds=0, trace=1)
    run.MIN_SETUP_SAMPLES = 2
    run.STATE.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix="smoke-", dir=run.STATE)
    try:
        raw = run.measure(args, run.worker_env(), run.Path(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed, problems = run.check(raw)
    expect(failed == 0 and attempted >= 3,
           f"tiny run: {attempted} operations attempted, {failed} failed {problems}")
    runs = [(w.get("trace"), len(w.get("iterations", []))) for w in raw["workers"]]
    expect(runs == [(False, 1), (True, 1)], f"one untraced and one traced iteration {runs}")
    traced = [it for w in raw["workers"] if w.get("trace") for it in w["iterations"]]
    if failed or not traced:
        return
    spans = traced[0]["spans"]
    expect(bool(spans) and all({"name", "layer", "start", "end", "parent", "run_id"} <= set(s)
                               for s in spans), f"{len(spans)} spans with all fields")
    expect(not traced[0]["missing_spans"], f"no missing spans {traced[0]['missing_spans']}")
    roots = [s for s in spans if s["parent"] is None]
    own = tracing.self_times(spans)
    total = sum(own.values()) + sum(s["hook_s"] for s in spans if s["parent"] is not None)
    wall = sum(s["end"] - s["start"] for s in roots)
    expect(len(roots) == 1 and abs(total - wall) < 1e-6,
           f"self times sum to the command's wall time ({total:.6f} vs {wall:.6f} s)")
    metrics = run.summarize(raw)
    names = [e["name"] for e in bench["per_layer"] + bench["end_to_end"]]
    expect(all(n in metrics for n in names),
           f"every benchmark metric produced {[n for n in names if n not in metrics]}")
    expect(metrics["features.detect_calls"] == 4 and metrics["backprojection.s"] > 0,
           "traced layers did work")
    result = run.report(args, raw, metrics, attempted, failed, problems, bench, {})
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}
           and [*result["metrics"]] == [e["name"] for e in bench["per_layer"]],
           "result line has its four keys and the per-layer metrics")


def check_outside_checkout() -> None:
    with tempfile.TemporaryDirectory(prefix="bare-", dir=run.STATE) as bare:
        shutil.copytree(run.BENCH, f"{bare}/{run.BENCH.name}",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, f"{run.BENCH.name}/run.py", "--workload",
                               "demo-self", "--seed", "1", "--seconds", "1"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"outside a checkout: exit {proc.returncode}, no result printed")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_missing_target()
    check_tiny_run(bench)
    check_outside_checkout()
    print(f"smoke: {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
