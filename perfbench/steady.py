"""Run-to-run spread of the benchmark, one run per seed.

Usage (from the repository root):

    python3 perfbench/steady.py --workload survey-map --seeds 1-10

Runs ``run.py`` once per seed with BENCHMARK.json's ``run_seconds`` and
prints, per metric, the median, the quartiles (``statistics.quantiles``,
n=4) and the spread: (Q3 - Q1) / median. For end-to-end metrics it also
shows the bound, and flags a spread above a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {e["name"]: e["bound"] for e in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = f" bound {bound:.2f}" + (" ABOVE A THIRD" if spread > bound / 3 else "")
        print(f"{name:28s} median {med:12.5f} q1 {q1:12.5f} q3 {q3:12.5f} "
              f"spread {spread:7.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
