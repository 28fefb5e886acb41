"""Scaling contracts by counting: what a stage reads of the graph grows at most linearly.

Each stage runs on a program of n and of 8n words, and the graph column
reads it makes (``conftest.count_graph_reads``) are counted, not timed.
The count at 8n may be at most 8 times the count at n, plus ``SLACK``
reads of fixed cost; a stage that compared each usage with every
definition would read about 64 times as much.
"""

import itertools

import pytest

from wordtree.executor import initialize
from wordtree.frontend import parse_text
from wordtree.pipeline import check_program, make_executable
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


def printing_program(statements: int) -> str:
    """``statements`` prints of one declared word."""
    return "tape-alphabet is one;\n" + ";\n".join(["print 'one'"] * statements) + "."


def nesting_program(depth: int) -> str:
    """``depth`` braces, each inside the one before, around one print."""
    return "tape-alphabet is one;\n" + "{" * depth + "print 'one'" + "}" * depth + "."


@pytest.mark.parametrize("program", [printing_program, nesting_program])
def test_classify_reads_linearly(program):
    """``classify``, its tree test included, on a ';' chain and on '{' nesting."""
    counts = []
    for size in (N, 8 * N):
        tree = parse_text(program(size))
        read = [0]
        count_graph_reads(tree.graph, read)
        classify(tree)
        counts.append(read[0])
    small, large = counts
    assert 0 < small and large <= 8 * small + SLACK, (small, large)


def mount_reads(statements: int, cells: int) -> int:
    """The graph column reads of ``initialize`` mounting ``cells`` cells beside a checked program.

    The program's in-arrow index is built first, as the first mount of a
    kept program builds it once for every later run.
    """
    result = check_program(printing_program(statements))
    instructions = make_executable(result)
    result.tree.graph._ins()
    read = [0]
    count_graph_reads(result.tree.graph, read)
    initialize(result.tree, ["one"] * cells, "last", instructions)
    return read[0]


def test_the_mount_reads_by_the_tape_not_by_the_program():
    """A mount reads the program a fixed number of times, and the tape linearly.

    From 32 to 256 cells the reads grow at most 8 times plus ``SLACK``;
    from a 10-statement to a 2 000-statement program they do not grow,
    so no per-node copy of the program comes back into a run. The
    program's columns are copied as references, one list concatenation
    each, which reads no entry through the counting containers.
    """
    small, large = mount_reads(10, N), mount_reads(10, 8 * N)
    assert large <= 8 * small + SLACK, (small, large)
    assert mount_reads(2000, N) == small
