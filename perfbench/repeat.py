"""Run the benchmark once per seed and report each metric's spread.

The spread is the distance between the first and third quartile of the
runs' values (``statistics.quantiles(values, n=4)``) as a share of their
median, and is compared with the metric's bound in ``BENCHMARK.json``:

    python3 perfbench/repeat.py --workload spiral --seeds 1-10 [--trace 0]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    values: dict = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(ROOT / spec["command"][1]), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(done.stdout, done.stderr, sep="\n")
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()),
              flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for name, vals in values.items():
        line = f"{name:40s} median {statistics.median(vals):.6g}"
        if len(vals) >= 2 and bounds.get(name):
            s = spread(vals)
            line += f"  spread {s:.4f}  bound {bounds[name]}  bound/3 {bounds[name] / 3:.4f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
