"""Reference tape mount: parse the tape into a graph of its own, then merge it.

The library adds a tape's cells straight to the program graph. This
module keeps the earlier two-stage mount: ``parse_tape`` built a
``Tape`` holding a separate LabeledGraph, ``merge`` copied that graph's
storage into the program graph behind the program's own nodes, and
``initialize`` walked the tape's cells to find the start cell. Tests
mount the same tape both ways and compare the results.

``snapshot_trace`` keeps the rule by which the executor once chose the
tape text of a trace entry, and by which ``wordtree run --trace json``
still chooses it: after every entry that is not a crash entry, render
the tape, and show the text when it differs from the text last shown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from wordtree.executor import CRASHED, TAPE_ARROW, ExecState, Instruction, TraceEntry, final_tape
from wordtree.graph import SEMANTIC, TAPE, WORD, LabeledGraph, Tree

EMPTY_TOKEN = '""'


@dataclass
class Tape:
    """A chain of cells stored as tape-kind arrows in a LabeledGraph."""

    graph: LabeledGraph = field(default_factory=LabeledGraph)
    root: int = 0  # leftmost cell

    def cells(self) -> list[int]:
        return self.graph.chain(self.root, "+", "")


def parse_tape(text: str) -> Tape:
    """Build a tape graph from whitespace-separated cell tokens, leftmost first."""
    tokens = text.split()
    if not tokens:
        raise ValueError("a tape needs at least one cell")
    for token in dict.fromkeys(tokens):
        if token != EMPTY_TOKEN and not WORD.fullmatch(token):
            raise ValueError(f"illegal tape token {token!r}")
    g = LabeledGraph()
    previous = None
    for token in tokens:
        node = g.add_node("" if token == EMPTY_TOKEN else token)
        if previous is not None:
            g.add_arrow(previous, "", node, kind=TAPE)
        previous = node
    return Tape(g, 0)


def merge(host: LabeledGraph, other: LabeledGraph) -> dict[int, int]:
    """Copy ``other``'s storage into ``host`` as mounted nodes; map old ids to new.

    Mounted nodes stay out of the host's node label index, as they do
    when ``LabeledGraph.extend`` adds them.
    """
    node_base = len(host._nodes)
    arrow_base = len(host._src)
    host_ins = host._ins()  # built before the host grows
    host._own_end = min(host._own_end, node_base)
    host._nodes += other._nodes
    host._out += [
        {label: arrow_base + arrow_id for label, arrow_id in firsts.items()}
        for firsts in other._out
    ]
    host_ins += [[arrow_base + arrow_id for arrow_id in ids] for ids in other._ins()]
    host._src += [node_base + src for src in other._src]
    host._label += other._label
    host._dst += [node_base + dst for dst in other._dst]
    host._kind += other._kind
    for label, ids in other._arrows_by_label.items():
        host._arrows_by_label.setdefault(label, []).extend(arrow_base + i for i in ids)
    for (src, label), ids in other._out_more.items():
        host._out_more[(node_base + src, label)] = [arrow_base + i for i in ids]
    return {node: node_base + node for node in range(len(other._nodes))}


def initialize(
    tree: Tree,
    tape: Tape,
    start: Union[str, int],
    instructions: dict[int, Instruction],
) -> ExecState:
    """Merge the tape graph into the program graph and aim 'tape' at the start cell."""
    g = tree.graph
    if g.arrows_labeled(TAPE_ARROW):
        raise ValueError("the graph already carries a 'tape' arrow")
    cells = tape.cells()
    if start == "first":
        index = 0
    elif start == "last":
        index = len(cells) - 1
    elif isinstance(start, int) and not isinstance(start, bool):
        index = start
    else:
        raise ValueError(f"unknown start position {start!r}")
    if not 0 <= index < len(cells):
        raise ValueError(f"start index {index} outside the {len(cells)}-cell tape")
    mapping = merge(g, tape.graph)
    g.add_arrow(tree.root, TAPE_ARROW, mapping[cells[index]], SEMANTIC)
    return ExecState(tree, dict(instructions), tree.root)


def snapshot_trace(
    state: ExecState, pairs: list[tuple[TraceEntry, Optional[str]]]
) -> Callable[[TraceEntry], None]:
    """An ``on_step`` that appends (entry, tape text shown with it or None) to ``pairs``.

    Make it right after the mount: the mounted tape is the first text shown.
    """
    shown = final_tape(state)

    def record(entry: TraceEntry) -> None:
        nonlocal shown
        text = None if state.status == CRASHED else final_tape(state)
        if text is not None and text != shown:
            shown = text
        else:
            text = None
        pairs.append((entry, text))

    return record
