#!/usr/bin/env python3
"""Compare the benchmark of the working tree with a git revision's, over a seed set.

``git archive`` exports ``REV``, and the files of the working tree that
git tracks or would track are copied, each into a temporary directory
of its own, neither holding a ``__pycache__``. Each is then compiled
once (``python -m compileall`` of its ``src/`` and ``perfbench/``), so
that ``setup_s`` times reading the bytecode on both sides rather than
compiling the source, which would charge every added line to the
change. For every workload ``BENCHMARK.json`` declares, and every seed,
it then runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each, one run at a time, with ``T`` the run length
``BENCHMARK.json`` names and ``PYTHONDONTWRITEBYTECODE=1`` so that no
run adds to either cache; the side that goes first alternates from
seed to seed. It writes ``BENCH_<pr>.json`` in the current directory:
each seed's pair of runs and, per end-to-end metric, each side's median
and quartiles, the number of pairs each side won, by the direction
``BENCHMARK.json`` gives the metric (a tie counts for neither), and
``sign_p``, the exact two-sided sign-test p of that split with the ties
dropped: the chance of a split at least as uneven if either side were
as likely to win. The file also names the Python version and the
processor, since the figures hold only for the machine that produced
them.

    python3 scripts/bench_medians.py --pr 27 --against main
    python3 scripts/bench_medians.py --pr 27 --against main --seeds 1 2 3

A change whose tree names a workload that ``REV`` lacks is compared
with itself: commit it and run ``--against HEAD``, an A/A run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> dict[str, float]:
    """Median and quartiles (the inclusive method; one value is all three)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def sign_test_p(wins: int, losses: int) -> float:
    """The exact two-sided sign-test p of ``wins`` against ``losses``, ties already dropped."""
    pairs = wins + losses
    tail = sum(math.comb(pairs, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**pairs)


def run_once(workload: str, seed: int, seconds: float, root: Path) -> dict:
    """The JSON object on the last line of one untraced benchmark run in the checkout at ``root``."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, env=env)
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


def git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, **kwargs)


def export(rev: Optional[str], dest: Path) -> None:
    """Write ``rev``'s files, or the working tree's, to ``dest``; no ``__pycache__`` goes along."""
    dest.mkdir()
    if rev is not None:
        subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", rev).stdout, check=True)
        return
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").stdout
    for name in listed.decode().split("\0"):
        source = ROOT / name
        if name and "__pycache__" not in Path(name).parts and source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def compile_export(root: Path) -> None:
    """Write the bytecode of ``root``'s library and benchmark, before any run there."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=root, check=True)


def compare(workload: str, seeds: list[int], seconds: float, metrics: list[dict],
            roots: dict[str, Path]) -> dict:
    """Pairs of runs of ``workload``, one per seed, and each metric's spread and wins per side."""
    pairs = []
    for index, seed in enumerate(seeds):
        order = list(roots) if index % 2 == 0 else list(reversed(roots))
        runs = {side: run_once(workload, seed, seconds, roots[side]) for side in order}
        pairs.append({"seed": seed, "first": order[0], **runs})
        print(f"{workload} seed {seed}: ops_per_s " + " ".join(
            f"{side} {runs[side]['metrics']['ops_per_s']['value']:.4g}" for side in roots
        ), file=sys.stderr)
    summary = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {side: [pair[side]["metrics"][name]["value"] for pair in pairs] for side in roots}
        base, change = values.values()
        won = {
            "base": sum(sign * (b - c) > 0 for b, c in zip(base, change)),
            "change": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
        }
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **{side: spread(values[side]) for side in roots},
            "won": won,
            "sign_p": sign_test_p(won["base"], won["change"]),
        }
    return {"metrics": summary, "pairs": pairs}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="benchmark medians and quartiles over seeds")
    parser.add_argument("--pr", type=int, required=True, help="number in the name BENCH_<pr>.json")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--against", metavar="REV", required=True,
                        help="compare the working tree against this git revision")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    commit = git("rev-parse", "--verify", f"{args.against}^{{commit}}", text=True).stdout
    report = {
        "pr": args.pr,
        "command": f"perfbench/run.py --seconds {seconds:g} --trace 0",
        "seeds": args.seeds,
        "python": platform.python_version(),
        "processor": processor(),
        "cpus": os.cpu_count(),
        "against": {"rev": args.against, "commit": commit.strip()},
    }
    with tempfile.TemporaryDirectory(prefix="bench_medians_") as scratch:
        roots = {"base": Path(scratch) / "base", "change": Path(scratch) / "change"}
        export(args.against, roots["base"])
        export(None, roots["change"])
        for root in roots.values():
            compile_export(root)
        report["workloads"] = {
            workload: compare(workload, args.seeds, seconds, spec["end_to_end"], roots)
            for workload in workloads
        }
    Path(f"BENCH_{args.pr}.json").write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
