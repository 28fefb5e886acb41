"""Control-flow link construction over canonical program trees.

Adds a stop node, 'back' arrows from statements that end a chain to the
statement they are subordinate to, and the flow arrows an executor
walks: 'next' for unconditional succession, 'yes' and 'no' for the two
outcomes of an if. Two checks inspect the finished flow graph: every
statement should be reachable from the root, and 'next' arrows alone
must not form a cycle, because a program caught in one could never
leave it.
"""

from __future__ import annotations

from typing import Optional

from .graph import CONTROL, SYNTACTIC, Tree, display_word, functional_cycles
from .semantics import (
    LABEL_FINDINGS,
    STATEMENT,
    Diagnostic,
    NodeClass,
    _match,
    diagnostic,
    label_points,
)

BACK = "back"
NEXT = "next"
YES = "yes"
NO = "no"

FLOW_LABELS = (NEXT, YES, NO)


def _syntactic_dst(g, node: int, label: str) -> Optional[int]:
    hits = [a.dst for _, a in g.out_arrows(node, kinds=(SYNTACTIC,)) if a.label == label]
    if len(hits) > 1:
        raise ValueError(
            f"node {node} has several {display_word(label)} arrows; not a program tree"
        )
    return hits[0] if hits else None


def _required_dst(g, node: int, label: str) -> int:
    dst = _syntactic_dst(g, node, label)
    if dst is None:
        raise ValueError(
            f"{display_word(g.node_label(node))} node {node} lacks its "
            f"{display_word(label)} arrow"
        )
    return dst


def _control_arrows(g, label: str) -> list:
    return [a for _, a in g.arrows_labeled(label) if a.kind == CONTROL]


def add_stop_node(tree: Tree) -> int:
    """Add the isolated stop node that run ends jump to, and return its id.

    A node labeled 'stop' without syntactic arrows can only be a stop
    node added earlier, so a second call fails. Statements may still
    mention the word stop as a label or tape word; those nodes sit in
    the syntactic tree and do not collide.
    """
    g = tree.graph
    for node in g.nodes():
        if g.node_label(node) != "stop":
            continue
        attached = g.out_arrows(node, kinds=(SYNTACTIC,)) or g.in_arrows(
            node, kinds=(SYNTACTIC,)
        )
        if not attached:
            raise ValueError("the tree already has a stop node")
    return g.add_node("stop")


def _subordinator(g, root: int, node: int, stop: int) -> int:
    """The statement a chain-ending statement returns control to.

    Walks backwards along ';' arrows to the head of the statement chain
    ``node`` ends, then looks at what the head hangs off: a 'then' arrow
    means the chain refines an if, a '}' arrow means it fills a pair of
    braces, and anything else means the chain is the program body, whose
    end falls off into the stop node.
    """
    current = node
    for _ in range(g.node_count + 1):
        incoming = g.in_arrows(current, kinds=(SYNTACTIC,))
        semis = [a.src for _, a in incoming if a.label == ";"]
        if semis:
            current = semis[0]
            continue
        thens = [a.src for _, a in incoming if a.label == "then"]
        if thens:
            return thens[0]
        braces = [a.src for _, a in incoming if a.label == "}"]
        if braces:
            return braces[0]
        return stop
    raise ValueError("';' arrows loop; not a program tree")


def build_back_arrows(tree: Tree, stop: int, classes: dict[int, NodeClass]) -> int:
    """Give every statement without a ';' successor a 'back' arrow.

    The arrow points at the statement's subordinator, or at the stop
    node for the final statement of the program body. Returns the
    number of arrows added.
    """
    g = tree.graph
    if _control_arrows(g, BACK):
        raise ValueError("'back' arrows are already built")
    added = 0
    for node in g.nodes():
        if node not in classes or classes[node].kind != STATEMENT:
            continue
        if _syntactic_dst(g, node, ";") is not None:
            continue
        g.add_arrow(node, BACK, _subordinator(g, tree.root, node, stop), CONTROL)
        added += 1
    return added


def _rise(g, node: int) -> int:
    """From a label node, walk ':' arrows backwards to the labeled statement."""
    current = node
    for _ in range(g.node_count + 1):
        sources = [
            a.src for _, a in g.in_arrows(current, kinds=(SYNTACTIC,)) if a.label == ":"
        ]
        if not sources:
            return current
        current = sources[0]
    raise ValueError("':' arrows loop; not a program tree")


def build_control(
    tree: Tree, stop: int, classes: dict[int, NodeClass]
) -> dict[str, int]:
    """Build the 'next', 'yes', and 'no' arrows and return counts per label.

    Requires 'back' arrows to be in place and the label checks to be
    clean, since a goto can only be wired when exactly one statement
    carries the label it names; otherwise refuses with the L1 and L2
    findings before adding any arrow. Direct succession runs in
    parallel with ';' arrows, an if branches along 'yes' (parallel to
    'then') and 'no', a brace pair steps inside itself along '}', and a
    goto jumps to the statement risen to from its target label.
    Statements on a back chain send their outgoing flow to the
    continuation after the chain's subordinator, or to stop when the
    chain ends the program.
    """
    g = tree.graph
    targets, usages = label_points(tree, classes)
    problems = [
        d for d in _match(g, targets, usages, LABEL_FINDINGS) if d.severity == "error"
    ]
    if problems:
        raise ValueError(
            "cannot build control arrows: " + "; ".join(str(d) for d in problems)
        )
    overlap = [label for label in FLOW_LABELS if _control_arrows(g, label)]
    if overlap:
        raise ValueError(f"flow arrows are already built: {sorted(overlap)}")

    counts = {NEXT: 0, YES: 0, NO: 0}

    def put(src: int, label: str, dst: int) -> None:
        g.add_arrow(src, label, dst, CONTROL)
        counts[label] += 1

    first = _syntactic_dst(g, tree.root, ";")
    if first is None:
        raise ValueError("the root has no ';' arrow to the first statement")
    put(tree.root, NEXT, first)

    target_statement = {g.node_label(t): _rise(g, t) for t in targets}

    for node in g.nodes():
        if node not in classes or classes[node].kind != STATEMENT:
            continue
        word = g.node_label(node)
        semi = _syntactic_dst(g, node, ";")
        if word == "if":
            put(node, YES, _required_dst(g, node, "then"))
            if semi is not None:
                put(node, NO, semi)
        elif word == "{":
            put(node, NEXT, _required_dst(g, node, "}"))
        elif word == "go":
            target_word = g.node_label(_required_dst(g, node, "to"))
            put(node, NEXT, target_statement[target_word])
        else:
            if semi is not None:
                put(node, NEXT, semi)

    back_dst = {a.src: a.dst for a in _control_arrows(g, BACK)}
    back_targets = set(back_dst.values())
    for head in sorted(n for n in back_dst if n not in back_targets):
        members = []
        cursor = head
        while cursor in back_dst:
            members.append(cursor)
            cursor = back_dst[cursor]
        if cursor == stop:
            continuation = stop
        else:
            continuation = _syntactic_dst(g, cursor, ";")
            if continuation is None:
                raise ValueError(
                    f"back chain ends at node {cursor} which has no continuation"
                )
        for member in members:
            word = g.node_label(member)
            if word == "if":
                put(member, NO, continuation)
            elif word in ("go", "{"):
                continue
            else:
                put(member, NEXT, continuation)
    return counts


def check_reachability(tree: Tree, classes: dict[int, NodeClass]) -> list[Diagnostic]:
    """Warn about statements no flow path from the root reaches."""
    g = tree.graph
    reached = {tree.root}
    work = [tree.root]
    while work:
        node = work.pop()
        for _, arrow in g.out_arrows(node, kinds=(CONTROL,)):
            if arrow.label in FLOW_LABELS and arrow.dst not in reached:
                reached.add(arrow.dst)
                work.append(arrow.dst)
    diagnostics = []
    for node in g.nodes():
        if classes.get(node) and classes[node].kind == STATEMENT and node not in reached:
            word = display_word(g.node_label(node))
            diagnostics.append(
                diagnostic(
                    "CW1", (node,), f"no flow path reaches the {word} statement"
                )
            )
    return diagnostics


def check_next_acyclic(tree: Tree) -> list[Diagnostic]:
    """Error on cycles of 'next' arrows; a run entering one cannot leave.

    Each node has at most one 'next' arrow, so the walk is linear in
    the number of nodes; a node with two raises ValueError.
    """
    g = tree.graph
    successor: dict[int, int] = {}
    for arrow in _control_arrows(g, NEXT):
        if arrow.src in successor:
            raise ValueError(f"node {arrow.src} has more than one 'next' arrow")
        successor[arrow.src] = arrow.dst
    diagnostics = []
    for cycle in functional_cycles(successor):
        words = " ".join(display_word(g.node_label(n)) for n in cycle)
        diagnostics.append(
            diagnostic("C2", cycle, f"'next' arrows cycle through {words}")
        )
    return diagnostics
