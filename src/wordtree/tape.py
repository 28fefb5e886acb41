"""The word tape: external data for a program.

A tape is a finite chain of word-labeled cells. Cells hold whole words,
not letters. The text format is whitespace separated tokens, with
``\"\"`` standing for a cell labeled by the empty word (whitespace
cannot carry an empty token). ``parse_tape`` reads a text to its cell
words; ``mount`` builds the chain beside a program's graph, in a run
graph of its own, one node per cell and a tape-kind arrow labeled by
the empty word from each cell to the next, and there the chain can grow
at either end on demand. ``chain_text`` renders it back.
"""

from __future__ import annotations

from typing import Sequence

from .graph import WORD, LabeledGraph, Tree

EMPTY_TOKEN = '""'


def _require_words(words: Sequence[str], what: str) -> None:
    """Refuse the first distinct word that is neither a ``WORD`` nor empty."""
    for word in dict.fromkeys(words):  # each distinct word once, in order
        if word != "" and not (isinstance(word, str) and WORD.fullmatch(word)):
            raise ValueError(f"illegal tape {what} {word!r}")


def parse_tape(text: str) -> tuple[str, ...]:
    """The cell words of whitespace-separated tokens, leftmost first."""
    tokens = text.split()
    if not tokens:
        raise ValueError("a tape needs at least one cell")
    words = tuple("" if token == EMPTY_TOKEN else token for token in tokens)
    _require_words(words, "token")  # an illegal token is its own word
    return words


def render_tape(words: Sequence[str]) -> str:
    """Inverse of parse_tape: left-to-right tokens, empty words as ``\"\"``."""
    return " ".join(word if word else EMPTY_TOKEN for word in words)


def mount(tree: Tree, words: Sequence[str], head: int, label: str) -> Tree:
    """The run tree of a tape of ``words`` beside the program ``tree``, which it does not write.

    Refuses a word that is neither a ``WORD`` nor empty first. The run
    graph is ``LabeledGraph.mount`` of the program: a cell per word
    after the program's nodes, a tape arrow labeled by the empty word
    from each cell to the next, and a semantic ``label`` arrow from the
    root to cell ``head``.
    """
    _require_words(words, "word")
    return Tree(tree.graph.mount(tree.root, label, words, head), tree.root)


def chain_text(g: LabeledGraph, cell: int) -> str:
    """Render the chain containing ``cell`` inside a larger graph.

    Walks the empty-labeled arrows with ``LabeledGraph.chain`` from
    ``cell`` leftwards to the chain head and then rightwards to the end.
    Each walk ends where a cell would repeat, so a malformed cyclic
    chain prints every cell once instead of looping.
    """
    head = g.chain(cell, "-", "")[-1]
    return render_tape([g.node_label(node) for node in g.chain(head, "+", "")])
