"""The word tape: external data for a program.

A tape is a finite chain of word-labeled cells. Cells hold whole words,
not letters. The text format is whitespace separated tokens, with
``\"\"`` standing for a cell labeled by the empty word (whitespace
cannot carry an empty token). ``parse_tape`` reads a text to its cell
words; ``LabeledGraph.mount`` builds the chain beside a program's graph,
in a run graph of its own, one node per cell and a tape-kind arrow
labeled by the empty word from each cell to the next, and refuses an
illegal tape word there; the chain can grow at either end on demand.
``chain_text`` renders it back.
"""

from __future__ import annotations

from typing import Sequence

from .graph import WORD, LabeledGraph

EMPTY_TOKEN = '""'


def parse_tape(text: str) -> tuple[str, ...]:
    """The cell words of whitespace-separated tokens, leftmost first.

    Refuses the first distinct token that is neither a ``WORD`` nor
    ``\"\"``, the rule ``LabeledGraph.mount`` holds each cell word to.
    """
    tokens = text.split()
    if not tokens:
        raise ValueError("a tape needs at least one cell")
    for token in dict.fromkeys(tokens):  # each distinct token once, in order
        if token != EMPTY_TOKEN and not WORD.fullmatch(token):
            raise ValueError(f"illegal tape token {token!r}")
    return tuple("" if token == EMPTY_TOKEN else token for token in tokens)


def render_tape(words: Sequence[str]) -> str:
    """Inverse of parse_tape: left-to-right tokens, empty words as ``\"\"``."""
    return " ".join(word if word else EMPTY_TOKEN for word in words)


def chain_text(g: LabeledGraph, cell: int) -> str:
    """Render the chain containing ``cell`` inside a larger graph.

    Walks the empty-labeled arrows with ``LabeledGraph.chain`` from
    ``cell`` leftwards to the chain head and then rightwards to the end.
    Each walk ends where a cell would repeat, so a malformed cyclic
    chain prints every cell once instead of looping.
    """
    head = g.chain(cell, "-", "")[-1]
    return render_tape([g.node_label(node) for node in g.chain(head, "+", "")])
