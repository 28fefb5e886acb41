"""Smoke test of the benchmark driver: one short run of one workload on one seed."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_driver():
    spec = importlib.util.spec_from_file_location("bench_medians", ROOT / "scripts" / "bench_medians.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_seed_one_workload(tmp_path, monkeypatch):
    driver = load_driver()
    # One real run, short, stands in for every run main() asks for.
    result = driver.run_once("increment-run", 3, 0.1)
    asked = []

    def canned(workload, seed, seconds):
        asked.append((workload, seed, seconds))
        return result

    monkeypatch.setattr(driver, "run_once", canned)
    monkeypatch.chdir(tmp_path)
    assert driver.main(["--pr", "0", "--seeds", "3"]) == 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [w["name"] for w in spec["workloads"]]
    assert asked == [(name, 3, spec["run_seconds"]) for name in declared]
    report = json.loads((tmp_path / "BENCH_0.json").read_text())
    assert report["seeds"] == [3] and list(report["workloads"]) == declared
    workload = report["workloads"]["increment-run"]
    assert list(workload["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    for name, metric in workload["metrics"].items():
        assert metric["q1"] == metric["median"] == metric["q3"] == result["metrics"][name]["value"] > 0
    (run,) = workload["per_seed"]
    assert run["seed"] == 3 and run["attempted"] >= 1 and run["failed"] == 0 and run["correct"]
