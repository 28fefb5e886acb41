#!/usr/bin/env python3
"""Run the benchmark over a seed set and record each metric's median and quartiles.

For every workload ``BENCHMARK.json`` declares, runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once per seed, one run at a time, from the root of this checkout, with
``T`` the run length ``BENCHMARK.json`` names. It then writes
``BENCH_<pr>.json`` in the current directory: for each workload, each
end-to-end metric's median and quartiles over the seeds, and each
seed's ``attempted`` and ``failed`` counts. The file also names the
Python version and the processor, since the figures hold only for the
machine that produced them.

    python3 scripts/bench_medians.py --pr 12
    python3 scripts/bench_medians.py --pr 12 --seeds 1 2 3
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def spread(values: list[float]) -> dict[str, float]:
    """Median and quartiles (the inclusive method; one value is all three)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """The JSON object on the last line of one untraced benchmark run."""
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        command = " ".join(argv[1:])
        raise SystemExit(f"bench_medians: {command} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def processor() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def summarize(workload: str, seeds: list[int], seconds: float, names: list[str]) -> dict:
    runs = []
    for seed in seeds:
        result = run_once(workload, seed, seconds)
        runs.append(result)
        print(f"{workload} seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              f"ops_per_s {result['metrics']['ops_per_s']['value']:.4g}", file=sys.stderr)
    metrics = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        metrics[name] = {"unit": runs[0]["metrics"][name]["unit"], **spread(values)}
    per_seed = [
        {"seed": seed, "attempted": r["attempted"], "failed": r["failed"], "correct": r["correct"]}
        for seed, r in zip(seeds, runs)
    ]
    return {"metrics": metrics, "per_seed": per_seed}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="benchmark medians and quartiles over seeds")
    parser.add_argument("--pr", type=int, required=True, help="number in the name BENCH_<pr>.json")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    names = [m["name"] for m in spec["end_to_end"]]
    report = {
        "pr": args.pr,
        "command": f"perfbench/run.py --seconds {seconds:g} --trace 0",
        "seeds": args.seeds,
        "python": platform.python_version(),
        "processor": processor(),
        "cpus": os.cpu_count(),
        "workloads": {
            workload["name"]: summarize(workload["name"], args.seeds, seconds, names)
            for workload in spec["workloads"]
        },
    }
    Path(f"BENCH_{args.pr}.json").write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
