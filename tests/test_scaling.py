"""Scaling contracts by counting: what a stage reads of the graph grows at most linearly.

Each stage runs on a program of n and of 8n words, and the graph column
reads it makes (``conftest.count_graph_reads``) are counted, not timed.
The count at 8n may be at most 8 times the count at n, plus ``SLACK``
reads of fixed cost; a stage that compared each usage with every
definition would read about 64 times as much.
"""

import itertools

import pytest

from wordtree.frontend import parse_text
from wordtree.semantics import (
    ALPHABET,
    LABELS,
    check_alphabet,
    check_labels,
    classify,
    link_is_declared_at,
    require,
)

from conftest import count_graph_reads

N = 32
SLACK = 16


def words(n: int) -> list[str]:
    """``n`` distinct lowercase words, none of them a Turingol keyword."""
    pairs = itertools.product("abcdefghijklmnopqrstuvwxyz", repeat=2)
    return ["w" + "".join(pair) for pair in itertools.islice(pairs, n)]


def alphabet_program(n: int) -> str:
    """``n`` tape words, each declared once and printed once."""
    names = words(n)
    prints = ";\n".join(f"print '{w}'" for w in names)
    return f"tape-alphabet is {', '.join(names)};\n{prints}."


def label_program(n: int) -> str:
    """``n`` labels, each on a go to that names it."""
    return "tape-alphabet is a;\n" + ";\n".join(f"{w}: go to {w}" for w in words(n)) + "."


def reads(text: str, stage) -> int:
    """The graph column reads of ``stage(tree, points)`` on the classified tree of ``text``."""
    tree = parse_text(text)
    points = classify(tree)
    read = [0]
    count_graph_reads(tree.graph, read)
    stage(tree, points)
    return read[0]


def build_control_refusal(tree, points):
    """What ``build_control`` asks before it wires a go to."""
    require(tree, points, LABELS, "build control arrows")


def link_refusal(tree, points):
    """What ``link_is_declared_at`` asks before it links a usage."""
    require(tree, points, ALPHABET, "link usages to declarations")


STAGES = [
    (alphabet_program, check_alphabet),
    (alphabet_program, link_refusal),
    (alphabet_program, link_is_declared_at),
    (label_program, check_labels),
    (label_program, build_control_refusal),
]


@pytest.mark.parametrize("program, stage", STAGES, ids=[stage.__name__ for _, stage in STAGES])
def test_requirement_stages_read_linearly(program, stage):
    small, large = reads(program(N), stage), reads(program(8 * N), stage)
    assert 0 < small and large <= 8 * small + SLACK, (small, large)
