"""The word tape: external data for a program.

A tape is a finite chain of word-labeled nodes whose chain arrows are
labeled by the empty word. Cells hold whole words, not letters, and the
chain can grow at either end on demand. The text format is whitespace
separated tokens, with ``\"\"`` standing for a cell labeled by the empty
word (whitespace cannot carry an empty token).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .graph import TAPE, LabeledGraph

_CELL_TOKEN = re.compile(r"[a-z]+(-[a-z]+)*\Z")
EMPTY_TOKEN = '""'


@dataclass
class Tape:
    """A chain of cells stored as tape-kind arrows in a LabeledGraph."""

    graph: LabeledGraph = field(default_factory=LabeledGraph)
    root: int = 0  # leftmost cell

    def cells(self) -> list[int]:
        """Node ids left to right."""
        out = [self.root]
        node = self.root
        while True:
            step = [a.dst for _, a in self.graph.out_arrows(node, kinds=(TAPE,)) if a.label == ""]
            if not step:
                return out
            node = step[0]
            out.append(node)

    def labels(self) -> list[str]:
        return [self.graph.node_label(n) for n in self.cells()]

    @property
    def last(self) -> int:
        return self.cells()[-1]


def parse_tape(text: str) -> Tape:
    """Build a tape from whitespace-separated cell tokens, leftmost first."""
    tokens = text.split()
    if not tokens:
        raise ValueError("a tape needs at least one cell")
    g = LabeledGraph()
    previous = None
    root = None
    for token in tokens:
        if token == EMPTY_TOKEN:
            word = ""
        elif _CELL_TOKEN.match(token):
            word = token
        else:
            raise ValueError(f"illegal tape token {token!r}")
        node = g.add_node(word)
        if previous is None:
            root = node
        else:
            g.add_arrow(previous, "", node, kind=TAPE)
        previous = node
    assert root is not None
    return Tape(g, root)


def expand_left(t: Tape) -> int:
    """Grow the chain by one empty-labeled cell on the left; returns its id."""
    node = t.graph.add_node("")
    t.graph.add_arrow(node, "", t.root, kind=TAPE)
    t.root = node
    return node


def expand_right(t: Tape) -> int:
    """Grow the chain by one empty-labeled cell on the right; returns its id."""
    node = t.graph.add_node("")
    t.graph.add_arrow(t.last, "", node, kind=TAPE)
    return node


def render_tape(t: Tape) -> str:
    """Inverse of parse_tape: left-to-right tokens, empty labels as ``\"\"``."""
    return " ".join(label if label else EMPTY_TOKEN for label in t.labels())


def chain_text(g: LabeledGraph, cell: int) -> str:
    """Render the chain containing ``cell`` inside a larger graph.

    Follows empty-labeled tape-kind arrows from ``cell`` leftwards to
    the chain head and then rightwards to the end. Each walk ends where
    a cell would repeat, so a malformed cyclic chain prints every cell
    once instead of looping.
    """
    node = cell
    seen = {node}
    while True:
        back = [a.src for _, a in g.in_arrows(node, kinds=(TAPE,)) if a.label == ""]
        if not back or back[0] in seen:
            break
        node = back[0]
        seen.add(node)
    labels = [g.node_label(node)]
    seen = {node}
    while True:
        step = [a.dst for _, a in g.out_arrows(node, kinds=(TAPE,)) if a.label == ""]
        if not step or step[0] in seen:
            break
        node = step[0]
        seen.add(node)
        labels.append(g.node_label(node))
    return " ".join(label if label else EMPTY_TOKEN for label in labels)
