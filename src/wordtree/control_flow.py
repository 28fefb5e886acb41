"""Control-flow link construction over canonical program trees.

Adds a stop node, 'back' arrows from statements that end a chain to the
statement they are subordinate to, and the flow arrows an executor
walks, each labeled as ``semantics.STATEMENTS`` has it. The builders
walk no tree; they read the chain table of ``semantics.classify``,
which took a uni-labeled tree, so they keep no fallback for a graph
that is none. Two checks inspect the finished flow graph: every
statement should be reachable from the root, and 'next' arrows alone
must not form a cycle, because a program caught in one could never
leave it. Their CW1 and C2 findings take their codes (``UNREACHED``,
``NEXT_CYCLE``) and their wording (``FINDINGS``) from ``semantics``;
``semantics.require`` refuses control arrows while the ``LABELS``
requirement is unmet.
"""

from __future__ import annotations

from .graph import CONTROL, SYNTACTIC, Tree, check_uni_labeled, display_word, functional_cycles
from .semantics import (
    LABELS, NEXT, NEXT_CYCLE, NO, STATEMENT, STATEMENTS, UNREACHED, YES, Diagnostic, Points, require,
)

BACK = "back"

FLOW_LABELS = (NEXT, YES, NO)


def _required_dst(g, node: int, label: str) -> int:
    dst = g.follow(node, "+", label)
    if dst is None:
        raise ValueError(
            f"{display_word(g.node_label(node))} node {node} lacks its "
            f"{display_word(label)} arrow"
        )
    return dst


def add_stop_node(tree: Tree) -> int:
    """Add the isolated stop node that run ends jump to, and return its id.

    A node labeled 'stop' without syntactic arrows can only be a stop
    node added earlier, so a second call fails. Statements may still
    mention the word stop as a label or tape word; those nodes sit in
    the syntactic tree and do not collide.
    """
    g = tree.graph
    for node in g.nodes_labeled("stop"):
        # The arrows are scanned for an in-arrow: a "-" step would build the in-arrow index.
        attached = g.ends_of_kind(node, "+", SYNTACTIC) or any(
            arrow.dst == node and arrow.kind == SYNTACTIC for _, arrow in g.arrows()
        )
        if not attached:
            raise ValueError("the tree already has a stop node")
    return g.add_node("stop")


def build_back_arrows(tree: Tree, stop: int, points: Points) -> int:
    """Give every statement without a ';' successor a 'back' arrow.

    The arrow points at the 'if' or '{' whose chain the statement ends,
    or at the stop node for the end of the program body, as the chain
    table has them. The arrows are added by one ``LabeledGraph.extend``
    call, and a refusal adds none. Returns the number of arrows added.
    """
    g = tree.graph
    if g.pairs_labeled(BACK):
        raise ValueError("'back' arrows are already built")
    ends = points.chains.ends
    srcs = sorted(ends)
    dsts = [stop if ends[node] is None else ends[node] for node in srcs]
    g.extend((), srcs, [BACK] * len(srcs), dsts, CONTROL)
    return len(srcs)


def build_control(tree: Tree, stop: int, points: Points) -> dict[str, int]:
    """Build the 'next', 'yes', and 'no' arrows and return counts per label.

    Requires 'back' arrows to be in place and the ``LABELS`` requirement
    to hold, since a goto can only be wired when exactly one statement
    carries the label it names; otherwise ``require`` refuses before any
    arrow is added. A goto's target rises along ':' arrows to its
    statement, as ``g.chain(target, "-", ":")[-1]`` would, through a map
    inverted from the ':' pairs, so no in-arrow index is built; in the
    uni-labeled tree ``classify`` took, no two ':' arrows share an end.
    Each statement gets the arrows its ``STATEMENTS`` entry names:
    ``branch``, its head read from one map of the arrow it branches
    along, and ``onward``, parallel to its ';' arrow. Then each chain
    end, innermost first and out along the owners that end chains too,
    sends its ``onward`` flow to the chain's continuation, or to stop.
    The arrows are staged and added by one ``LabeledGraph.extend`` call
    at the end, so a refusal adds none.
    """
    g = tree.graph
    targets = require(tree, points, LABELS, "build control arrows")
    overlap = [label for label in FLOW_LABELS if g.pairs_labeled(label)]
    if overlap:
        raise ValueError(f"flow arrows are already built: {sorted(overlap)}")
    first = g.follow(tree.root, "+", ";")
    if first is None:
        raise ValueError("the root has no ';' arrow to the first statement")
    # A goto jumps to the statement its label rises to along ':' arrows.
    up = {end: origin for origin, end in g.pairs_labeled(":")}  # a tree's ':' ends are distinct
    words, classes = g._nodes, points.classes
    target_statement = {}
    for word, target in targets.items():
        risen, seen = target, {target}
        while risen in up and up[risen] not in seen:  # ends where a node would repeat, as a chain
            risen = up[risen]
            seen.add(risen)
        target_statement[word] = risen
        if classes[risen] is not STATEMENT:
            raise ValueError(
                f"label node {target} does not rise to a statement; not a program tree"
            )

    successors, ends, after = points.chains
    view = {}  # by word: its labels, the arrow it branches along, that arrow's ends by node
    for word, s in STATEMENTS.items():
        along = s.data if s.inner is None else s.inner
        heads = g.ends_labeled(along) if s.branch is not None else {}
        view[word] = s.branch, s.onward, along, heads, s.inner is None
    arrows = [tree.root, NEXT, first]  # flat: origin, label, end of each arrow in turn
    for node in points.statements:
        branch, label, along, heads, rises = view[words[node]]
        if branch is not None:
            head = heads.get(node) or _required_dst(g, node, along)
            arrows += node, branch, target_statement[words[head]] if rises else head
        if label is not None and node in successors:
            arrows += node, label, successors[node]

    owners = set(ends.values())
    for member in sorted(node for node in ends if node not in owners):
        onward = stop if after[member] is None else after[member]
        while member in ends:
            label = STATEMENTS[words[member]].onward
            if label is not None:
                arrows += member, label, onward
            member = ends[member]
    srcs, labels, dsts = arrows[0::3], arrows[1::3], arrows[2::3]
    g.extend((), srcs, labels, dsts, CONTROL)
    return {label: labels.count(label) for label in (NEXT, YES, NO)}


def check_reachability(tree: Tree, points: Points) -> list[Diagnostic]:
    """Warn about statements no flow path from the root reaches, following every flow arrow."""
    g = tree.graph
    nexts, yeses, nos = map(g.ends_labeled, FLOW_LABELS)
    several = {v.node for v in check_uni_labeled(g) if v.label in FLOW_LABELS}
    reached = {tree.root}
    work = [tree.root]
    while work:
        node = work.pop()
        if node in several:
            onward = [dst for label in FLOW_LABELS for dst in g.ends(node, "+", label)]
        else:
            onward = (nexts.get(node), yeses.get(node), nos.get(node))
        for dst in onward:
            if dst not in reached and dst is not None:
                reached.add(dst)
                work.append(dst)
    words = g._nodes
    unreached = [node for node in points.statements if node not in reached]
    return [Diagnostic(UNREACHED, (node,), (words[node],)) for node in unreached]


def check_next_acyclic(tree: Tree) -> list[Diagnostic]:
    """Error on cycles of 'next' arrows; a run entering one cannot leave.

    Each node has at most one 'next' arrow, so the walk is linear in
    the number of nodes; a node with two raises ValueError.
    """
    g = tree.graph
    twice = sorted((v.arrow_ids[1], v.node) for v in check_uni_labeled(g) if v.label == NEXT)
    if twice:
        raise ValueError(f"node {twice[0][1]} has more than one 'next' arrow")
    successor = g.ends_labeled(NEXT)
    return [
        Diagnostic(NEXT_CYCLE, cycle, tuple(map(g.node_label, cycle)))
        for cycle in functional_cycles(successor)
    ]
