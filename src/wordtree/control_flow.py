"""Control-flow link construction over canonical program trees.

Adds a stop node, 'back' arrows from statements that end a chain to the
statement they are subordinate to, and the flow arrows an executor
walks: 'next' for unconditional succession, 'yes' and 'no' for the two
outcomes of an if. Two checks inspect the finished flow graph: every
statement should be reachable from the root, and 'next' arrows alone
must not form a cycle, because a program caught in one could never
leave it. Their CW1 and C2 findings, like the L1 and L2 findings that
keep control arrows from being built, are worded by
``semantics.FINDINGS``.
"""

from __future__ import annotations

from .graph import CONTROL, SYNTACTIC, Tree, display_word, functional_cycles
from .semantics import Diagnostic, Points, _match

BACK = "back"
NEXT = "next"
YES = "yes"
NO = "no"

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
        attached = g.ends_of_kind(node, "+", SYNTACTIC) or g.ends_of_kind(node, "-", SYNTACTIC)
        if not attached:
            raise ValueError("the tree already has a stop node")
    return g.add_node("stop")


def _subordinator(g, node: int, stop: int) -> int:
    """The statement a chain-ending statement returns control to.

    Walks backwards along ';' arrows to the head of the statement chain
    ``node`` ends, then looks at what the head hangs off: a 'then' arrow
    means the chain refines an if, a '}' arrow means it fills a pair of
    braces, and anything else means the chain is the program body, whose
    end falls off into the stop node. A program tree has one body, so
    the test that the walk did not end on a loop runs once per tree.
    """
    head = g.chain(node, "-", ";")[-1]
    for word in ("then", "}"):
        owner = g.follow(head, "-", word)
        if owner is not None:
            return owner
    if g.follow(head, "-", ";") is not None:
        raise ValueError("';' arrows loop; not a program tree")
    return stop


def build_back_arrows(tree: Tree, stop: int, points: Points) -> int:
    """Give every statement without a ';' successor a 'back' arrow.

    The arrow points at the statement's subordinator, or at the stop
    node for the final statement of the program body. The arrows are
    added by one ``LabeledGraph.extend`` call once every subordinator is
    found, so a refusal adds none. Returns the number of arrows added.
    """
    g = tree.graph
    if g.pairs_labeled(BACK):
        raise ValueError("'back' arrows are already built")
    srcs = [node for node in points.statements if g.follow(node, "+", ";") is None]
    dsts = [_subordinator(g, node, stop) for node in srcs]
    g.extend((), srcs, [BACK] * len(srcs), dsts, CONTROL)
    return len(srcs)


def build_control(tree: Tree, stop: int, points: Points) -> dict[str, int]:
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
    chain ends the program. The arrows are staged and added by one
    ``LabeledGraph.extend`` call at the end, so a refusal adds none.
    """
    g = tree.graph
    problems = _match(g, points.targets, points.gotos, ("L1", "L2"))
    if problems:
        raise ValueError(
            "cannot build control arrows: " + "; ".join(str(d) for d in problems)
        )
    overlap = [label for label in FLOW_LABELS if g.pairs_labeled(label)]
    if overlap:
        raise ValueError(f"flow arrows are already built: {sorted(overlap)}")

    srcs: list[int] = []
    words: list[str] = []
    dsts: list[int] = []

    def put(src: int, label: str, dst: int) -> None:
        srcs.append(src)
        words.append(label)
        dsts.append(dst)

    first = g.follow(tree.root, "+", ";")
    if first is None:
        raise ValueError("the root has no ';' arrow to the first statement")
    put(tree.root, NEXT, first)

    # A goto jumps to the statement its label rises to along ':' arrows.
    statements = set(points.statements)
    target_statement = {}
    for target in points.targets:
        risen = g.chain(target, "-", ":")[-1]
        if risen not in statements:
            raise ValueError(
                f"label node {target} does not rise to a statement; not a program tree"
            )
        target_statement[g.node_label(target)] = risen

    for node in points.statements:
        word = g.node_label(node)
        semi = g.follow(node, "+", ";")
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

    back_dst = dict(g.pairs_labeled(BACK))
    back_targets = set(back_dst.values())
    for head in sorted(n for n in back_dst if n not in back_targets):
        *members, cursor = g.chain(head, "+", BACK)
        if cursor == stop:
            continuation = stop
        else:
            continuation = g.follow(cursor, "+", ";")
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
    g.extend((), srcs, words, dsts, CONTROL)
    return {label: words.count(label) for label in (NEXT, YES, NO)}


def check_reachability(tree: Tree, points: Points) -> list[Diagnostic]:
    """Warn about statements no flow path from the root reaches."""
    g = tree.graph
    reached = {tree.root}
    work = [tree.root]
    while work:
        node = work.pop()
        for label in FLOW_LABELS:
            for dst in g.ends(node, "+", label):
                if dst not in reached:
                    reached.add(dst)
                    work.append(dst)
    return [
        Diagnostic("CW1", (node,), (g.node_label(node),))
        for node in points.statements
        if node not in reached
    ]


def check_next_acyclic(tree: Tree) -> list[Diagnostic]:
    """Error on cycles of 'next' arrows; a run entering one cannot leave.

    Each node has at most one 'next' arrow, so the walk is linear in
    the number of nodes; a node with two raises ValueError.
    """
    g = tree.graph
    successor: dict[int, int] = {}
    for src, dst in g.pairs_labeled(NEXT):
        if src in successor:
            raise ValueError(f"node {src} has more than one 'next' arrow")
        successor[src] = dst
    return [
        Diagnostic("C2", cycle, tuple(map(g.node_label, cycle)))
        for cycle in functional_cycles(successor)
    ]
