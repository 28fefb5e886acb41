"""Smoke tests of the benchmark driver: one short real run stands in for every run it asks for."""

import importlib.util
import json
import pathlib
import shutil
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_driver():
    spec = importlib.util.spec_from_file_location("bench_medians", ROOT / "scripts" / "bench_medians.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def one_commit_repository(dest: pathlib.Path) -> pathlib.Path:
    """A git repository at ``dest`` whose one commit holds this tree's library, benchmark and programs."""
    for name in ("src", "perfbench", "programs", "scripts"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", dest)
    author = ["-c", "user.name=bench", "-c", "user.email=bench@localhost"]
    for args in (["init", "-q"], ["add", "-A"], [*author, "commit", "-q", "-m", "tree"]):
        subprocess.run(["git", *args], cwd=dest, check=True, capture_output=True)
    return dest


def test_against_head_runs_each_seed_on_both_exports(tmp_path, monkeypatch):
    """``--against HEAD``: both exports run each seed, first in turn; one real run stands in for all.

    The real run is a short increment-run, from the export that the
    first run asked for, which is ``HEAD``'s. Each export holds the
    bytecode of every module of its library and benchmark, compiled
    from its own sources, and none of the tests or scripts. The driver
    runs in a repository of its own, one commit of this tree, so the
    test needs no git checkout around it.
    """
    driver = load_driver()
    monkeypatch.setattr(driver, "ROOT", one_commit_repository(tmp_path / "repo"))
    asked, real = [], {}
    run_once = driver.run_once

    def run_in_export(workload, seed, seconds, root):
        for source in [*root.glob("src/wordtree/*.py"), *root.glob("perfbench/*.py")]:
            compiled = pathlib.Path(importlib.util.cache_from_source(str(source))).read_bytes()
            assert int.from_bytes(compiled[12:16], "little") == source.stat().st_size  # this file
        assert not list(root.glob("tests/__pycache__")) + list(root.glob("scripts/__pycache__"))
        asked.append((workload, seed, root.name))
        if not real:
            base, change = root.parent / "base", root.parent / "change"
            for name in ("src/wordtree/graph.py", "perfbench/run.py"):
                committed = driver.git("show", f"HEAD:{name}").stdout
                assert (base / name).read_bytes() == committed
                assert (change / name).read_bytes() == (ROOT / name).read_bytes()
            real.update(run_once("increment-run", seed, 0.1, root))
        return real

    monkeypatch.setattr(driver, "run_once", run_in_export)
    monkeypatch.chdir(tmp_path)
    assert driver.main(["--pr", "0", "--seeds", "3", "4", "--against", "HEAD"]) == 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [w["name"] for w in spec["workloads"]]
    assert asked == [
        (name, seed, side)
        for name in declared
        for seed, order in ((3, ("base", "change")), (4, ("change", "base")))
        for side in order
    ]
    report = json.loads((tmp_path / "BENCH_0.json").read_text())
    head = driver.git("rev-parse", "HEAD", text=True).stdout.strip()
    assert report["against"] == {"rev": "HEAD", "commit": head}
    assert list(report["workloads"]) == declared
    workload = report["workloads"]["increment-run"]
    assert [(p["seed"], p["first"]) for p in workload["pairs"]] == [(3, "base"), (4, "change")]
    assert all(p["base"] == p["change"] == real for p in workload["pairs"])
    assert list(workload["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    for name, metric in workload["metrics"].items():
        value = real["metrics"][name]["value"]
        for side in ("base", "change"):
            assert metric[side] == {"median": value, "q1": value, "q3": value}
        assert metric["won"] == {"base": 0, "change": 0}  # ties count for neither side
        assert metric["sign_p"] == 1.0
    assert real["failed"] == 0 and real["correct"]


def test_against_is_required(capsys):
    with pytest.raises(SystemExit) as usage:
        load_driver().main(["--pr", "0"])
    assert usage.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        "error: the following arguments are required: --against"
    )


def test_pairs_are_won_by_the_better_side_of_each_metric(monkeypatch):
    driver = load_driver()
    values = {"base": 1.0, "change": 2.0}

    def canned(workload, seed, seconds, root):
        value = values[root.name] + seed / 100
        return {"metrics": {m: {"value": value} for m in ("ops_per_s", "latency_p50_ms")}}

    monkeypatch.setattr(driver, "run_once", canned)
    metrics = [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher"},
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower"},
    ]
    roots = {side: pathlib.Path(side) for side in ("base", "change")}
    summary = driver.compare("w", [1, 2, 3], 1.0, metrics, roots)["metrics"]
    assert summary["ops_per_s"]["won"] == {"base": 0, "change": 3}
    assert summary["latency_p50_ms"]["won"] == {"base": 3, "change": 0}
    assert summary["ops_per_s"]["sign_p"] == summary["latency_p50_ms"]["sign_p"] == 2 / 8
    assert summary["ops_per_s"]["change"] == pytest.approx({"median": 2.02, "q1": 2.015, "q3": 2.025})


@pytest.mark.parametrize(
    "wins, losses, p",
    [(10, 0, 2 / 1024), (0, 10, 2 / 1024), (9, 1, 22 / 1024), (5, 5, 1.0), (0, 0, 1.0)],
    ids=["10-0", "0-10", "9-1", "5-5", "all ties"],
)
def test_sign_test_p_is_exact_and_two_sided(wins, losses, p):
    assert load_driver().sign_test_p(wins, losses) == p
