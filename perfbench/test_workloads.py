"""Tests of the benchmark's own inputs and references.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

import json
import random
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import pytest  # noqa: E402

import wordtree  # noqa: E402
from wordtree.graph import LabeledGraph  # noqa: E402

import workloads as w  # noqa: E402

ORACLE = json.loads((ROOT / "tests" / "data" / "expected_runs.json").read_text())


def start_index(start, cells):
    return {"first": 0, "last": len(cells) - 1}.get(start, start)


@pytest.mark.parametrize("case", ORACLE["cases"], ids=lambda c: f"{c['tape']}@{c['start']}")
def test_increment_reference_matches_oracle(case):
    cells = case["tape"].split()
    final, steps = w.increment_reference(cells, start_index(case["start"], cells))
    assert " ".join(final) == case["final_tape"]
    assert steps == case["steps"]


def test_increment_cases_add_one():
    for case in next(w.increment_rounds(7)):
        digits = case.tape.split()[:-1]
        value = int("".join("1" if d == "one" else "0" for d in digits), 2)
        bits = format(value + 1, "b").zfill(len(digits))
        expected = ["one" if b == "1" else "zero" for b in bits] + ["point"]
        assert case.expected_tape == " ".join(expected)


@pytest.mark.parametrize(
    "fixture, codes",
    [
        ("increment.tgl", set()),
        ("duplicate_label.tgl", {"L1"}),
        ("missing_target.tgl", {"L2"}),
        ("next_cycle.tgl", {"C2"}),
    ],
)
def test_verdict_on_fixtures(fixture, codes):
    result = wordtree.check_program((ROOT / "programs" / fixture).read_text())
    assert w.diagnostic_codes(result.diagnostics) == codes


@pytest.mark.parametrize("defect", [None, *w.DEFECT_CODES])
@pytest.mark.parametrize("size", [10, 60, 400])
def test_generated_programs_carry_exactly_the_injected_defect(defect, size):
    rng = random.Random(size)
    for _ in range(3):
        program = w.make_program(rng, size, defect)
        result = wordtree.check_program(program.text)
        assert w.diagnostic_codes(result.diagnostics) == program.expected_codes, program.text


@pytest.mark.parametrize("seed", range(5))
def test_generated_programs_use_every_statement_kind(seed):
    text = w.make_program(random.Random(seed), 10).text
    for pattern in (
        r"print '",
        r"move left",
        r"move right",
        r"\{",
        r"then go to",
        r"(^|: )go to",  # unconditional
        r"lb[a-z]+:",  # label
        r";\n;|; \}|:\.",  # empty statement
    ):
        assert re.search(pattern, text, re.M), pattern


def test_rounds_follow_the_seed():
    for rounds in (w.check_corpus_rounds, w.increment_rounds, w.schema_rounds):
        assert next(rounds(5)) == next(rounds(5))
        assert next(rounds(5)) != next(rounds(6))


def test_check_round_mix():
    batch = next(w.check_corpus_rounds(2))
    assert len(batch) == w.CHECK_ROUND
    assert sum(1 for p in batch if p.nest_depth) == 1
    for code in w.DEFECT_CODES:
        assert sum(1 for p in batch if p.defect == code) == 4
    assert all(10 <= p.statements for p in batch)


def test_uni_labeled():
    g = LabeledGraph()
    a, b, c = g.add_node("a"), g.add_node("b"), g.add_node("c")
    g.add_arrow(a, "x", b)
    g.add_arrow(a, "y", c)
    assert w.uni_labeled(g)
    g.add_arrow(b, "z", c)
    g.add_arrow(b, "z", a)
    assert not w.uni_labeled(g)


def test_declared_words():
    assert w.declared_words("tape-alphabet is one, zero;\nprint 'one'.") == ["one", "zero"]


@pytest.mark.parametrize("workload", ["check-corpus", "increment-run", "schema-grow"])
def test_untraced_run_prints_end_to_end_metrics(workload, capsys):
    import run

    assert run.main(["--workload", workload, "--seconds", "0.1", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    for name in run.E2E_UNITS:  # all seven, by name and unit, in the report
        assert any(line.split()[:1] == [name] and run.E2E_UNITS[name] in line for line in lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_traced_run_writes_spans(tmp_path, capsys):
    import run

    spans = tmp_path / "spans.jsonl"
    argv = ["--workload", "schema-grow", "--seconds", "0.3", "--trace", "1", "--spans", str(spans)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert 0.9 <= metrics["trace.self_coverage"] <= 1.0001
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    assert len(records) == metrics["trace.spans"]
    for index, span in enumerate(records):
        assert span["start"] <= span["end"]
        if span["parent"] >= 0:
            parent = records[span["parent"]]
            assert span["parent"] < index and parent["op"] == span["op"]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]


def test_corpus_depends_on_seed_and_seconds_alone():
    import run

    workload = run.workloads_table()["check-corpus"]
    first = [[p.text for p in batch] for batch in run.corpus(workload, 5, 3, 0.85)]
    again = [[p.text for p in batch] for batch in run.corpus(workload, 5, 3, 0.85)]
    assert len(first) == 3 and first == again
    assert len(list(run.corpus(workload, 5, 0.1, 0.85))) == 1


def test_scaled_latencies_use_the_nearest_calibrations(monkeypatch):
    import run

    monkeypatch.setattr(run, "CALIBRATION_WINDOW", 2)
    kernel = run.REFERENCE_KERNEL_S
    calibrations = [(0, kernel), (1, 2 * kernel), (2, 2 * kernel), (3, kernel / 2)]
    p = run.Pass([1.0, 2.0, 3.0], [w.Outcome()] * 3, [0] * 3, 1, calibrations)
    assert p.speeds() == pytest.approx([1 / 1.5, 1 / 2.0, 1 / 1.25])
    assert p.scaled_latencies() == pytest.approx([1 / 1.5, 1.0, 3 / 1.25])
    assert run.kernel_seconds() > 0
