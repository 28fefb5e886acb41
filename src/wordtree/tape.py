"""The word tape: external data for a program.

A tape is a finite chain of word-labeled nodes whose chain arrows are
labeled by the empty word. Cells hold whole words, not letters, and the
chain can grow at either end on demand. The text format is whitespace
separated tokens, with ``\"\"`` standing for a cell labeled by the empty
word (whitespace cannot carry an empty token).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import TAPE, WORD, LabeledGraph

EMPTY_TOKEN = '""'


@dataclass
class Tape:
    """A chain of cells stored as tape-kind arrows in a LabeledGraph."""

    graph: LabeledGraph = field(default_factory=LabeledGraph)
    root: int = 0  # leftmost cell

    def cells(self) -> list[int]:
        """Node ids left to right: ``LabeledGraph.chain`` along the tape arrows.

        The walk ends where a cell would repeat, and refuses a cell with
        several arrows to the right by raising ValueError.
        """
        return self.graph.chain(self.root, "+", "")

    def labels(self) -> list[str]:
        return [self.graph.node_label(n) for n in self.cells()]


def parse_tape(text: str) -> Tape:
    """Build a tape from whitespace-separated cell tokens, leftmost first."""
    tokens = text.split()
    if not tokens:
        raise ValueError("a tape needs at least one cell")
    for token in dict.fromkeys(tokens):  # each distinct token once, in order
        if token != EMPTY_TOKEN and not WORD.fullmatch(token):
            raise ValueError(f"illegal tape token {token!r}")
    g = LabeledGraph()
    previous = None
    root = None
    for token in tokens:
        node = g.add_node("" if token == EMPTY_TOKEN else token)
        if previous is None:
            root = node
        else:
            g.add_arrow(previous, "", node, kind=TAPE)
        previous = node
    assert root is not None
    return Tape(g, root)


def render_tape(t: Tape) -> str:
    """Inverse of parse_tape: left-to-right tokens, empty labels as ``\"\"``."""
    return " ".join(label if label else EMPTY_TOKEN for label in t.labels())


def chain_text(g: LabeledGraph, cell: int) -> str:
    """Render the chain containing ``cell`` inside a larger graph.

    Walks the empty-labeled arrows with ``LabeledGraph.chain`` from
    ``cell`` leftwards to the chain head and then rightwards to the end.
    Each walk ends where a cell would repeat, so a malformed cyclic
    chain prints every cell once instead of looping.
    """
    head = g.chain(cell, "-", "")[-1]
    labels = [g.node_label(node) for node in g.chain(head, "+", "")]
    return " ".join(label if label else EMPTY_TOKEN for label in labels)
