import functools
import importlib.util
import itertools
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "programs"


@functools.cache
def bench_workloads():
    """The benchmark's ``perfbench/workloads.py``, loaded once per session."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up while it loads
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads


@functools.cache
def corpus_texts(rounds: int = 2) -> tuple[str, ...]:
    """The programs of the first ``rounds`` seed-1 ``check-corpus`` rounds, deep ones included."""
    batches = itertools.islice(bench_workloads().check_corpus_rounds(1), rounds)
    return tuple(program.text for batch in batches for program in batch)


class Counted(list):
    """A graph container that adds the weight of every entry it hands out to ``read[0]``."""

    def __init__(self, entries, read: list, weight) -> None:
        super().__init__(entries)
        self.read, self.weight = read, weight

    def __getitem__(self, index):
        found = super().__getitem__(index)
        self.read[0] += sum(map(self.weight, found)) if type(index) is slice else self.weight(found)
        return found

    def __iter__(self):
        for entry in super().__iter__():
            self.read[0] += self.weight(entry)
            yield entry


def count_graph_reads(g, read: list) -> None:
    """Swap ``g``'s columns and per-node indexes for containers that count what is read.

    A label, an arrow end, or a node's out-arrow index counts 1; a
    node's in-arrow id list counts the ids a scan of it may read. The
    in-arrow index is built first, as a run's deep copy has it built.
    """
    for name in ("_nodes", "_src", "_label", "_dst", "_out"):
        setattr(g, name, Counted(getattr(g, name), read, lambda entry: 1))
    g._in = Counted(g._ins(), read, len)


@pytest.fixture(scope="session")
def increment_text() -> str:
    return (PROGRAMS / "increment.tgl").read_text()


@pytest.fixture(scope="session")
def program_path():
    def lookup(name: str) -> pathlib.Path:
        return PROGRAMS / name

    return lookup


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion test."""
    passed, doomed = set(), set()
    for status, reports in terminalreporter.stats.items():
        for report in reports:
            nodeid = getattr(report, "nodeid", "") or ""
            match = re.search(r"test_criterion_0*(\d+)", nodeid)
            if not match:
                continue
            number = int(match.group(1))
            when = getattr(report, "when", "call")
            if status == "passed" and when == "call":
                passed.add(number)
            elif status in ("failed", "error", "skipped"):
                doomed.add(number)
    shown = sorted(passed | doomed)
    if shown:
        terminalreporter.write_sep("=", "acceptance criteria")
        for number in shown:
            verdict = "PASS" if number in passed and number not in doomed else "FAIL"
            terminalreporter.write_line(f"CRITERION {number}: {verdict}")
