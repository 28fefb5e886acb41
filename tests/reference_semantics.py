"""Reference stage forms, for tests that pin the one statement walk of ``classify``.

These are the stage-by-stage forms the walk replaced. Each walks the
tree again through the graph's navigation methods (``follow``,
``ends``, ``chain``, ``pairs_labeled``), so they are slow but each
reads as the rule it states:

- ``classify`` classes every node by the arrows it hangs off: label
  nodes are ':' destinations; data nodes lie below the root's 'is'
  arrow and below every syntactic 'to', quote and empty-labeled arrow;
  statements are the rest whose label is a statement word.
- ``find_points`` lists the statements, the declarations, the usages
  (one ``resolve`` per print or if) and the label targets and gotos,
  as the first five fields of ``wordtree.semantics.Points``.
- ``subordinator`` walks back along ';' arrows from a chain end to the
  chain's head and asks what the head hangs off.
- ``unmatched`` compares label targets with gotos by word on its own,
  and ``build_control`` refuses with what it finds, as the library's
  refuses with the ``LABELS`` requirement's refusals.
- ``build_back_arrows`` and ``build_control`` add the same arrows as
  the library's, in the same order: control reads the back arrows it
  finds in the graph, chains them from each head, and takes the
  continuation from the last member's ';' successor.

The builders take the statements (``find_points(...)[0]``) and the
label points in place of the library's ``Points``.
"""

from __future__ import annotations

from wordtree.control_flow import BACK, FLOW_LABELS, NEXT, NO, YES, _required_dst
from wordtree.graph import CONTROL, SYNTACTIC, Tree, resolve
from wordtree.semantics import (
    DATA,
    LABEL,
    OTHER,
    PRINT_WORD_PATH,
    STATEMENT,
    STATEMENT_WORDS,
    SYMBOL_PATH,
    Diagnostic,
    w_declaration_points,
)


def classify(tree: Tree) -> dict[int, str]:
    g = tree.graph
    label_nodes = {dst for _, dst in g.pairs_labeled(":")}
    work = g.ends(tree.root, "+", "is")
    for word in ("to", "'", ""):
        work.extend(arrow.dst for _, arrow in g.arrows_labeled(word) if arrow.kind == SYNTACTIC)

    data_nodes: set[int] = set()
    while work:
        node = work.pop()
        if node in data_nodes:
            continue
        data_nodes.add(node)
        work += g.ends_of_kind(node, "+", SYNTACTIC)

    classes = {}
    for node in g.nodes():
        if node in label_nodes:
            classes[node] = LABEL
        elif node in data_nodes:
            classes[node] = DATA
        elif g.node_label(node) in STATEMENT_WORDS:
            classes[node] = STATEMENT
        else:
            classes[node] = OTHER
    return classes


def _statements(g, classes: dict[int, str], words) -> list[int]:
    return sorted(
        node for word in words for node in g.nodes_labeled(word) if classes[node] == STATEMENT
    )


def w_usage_points(tree: Tree, classes: dict[int, str]) -> list[int]:
    g = tree.graph
    return [
        resolve(g, PRINT_WORD_PATH if g.node_label(node) == "print" else SYMBOL_PATH, current=node)
        for node in _statements(g, classes, ("print", "if"))
    ]


def label_points(tree: Tree, classes: dict[int, str]) -> tuple[list[int], list[int]]:
    g = tree.graph

    def points(word: str) -> list[int]:
        return [dst for src, dst in g.pairs_labeled(word) if classes[src] in (STATEMENT, LABEL)]

    return points(":"), points("to")


def find_points(tree: Tree, classes: dict[int, str]) -> tuple:
    """Statements, declarations, usages, targets and gotos, each a tuple."""
    targets, gotos = label_points(tree, classes)
    return (
        tuple(_statements(tree.graph, classes, STATEMENT_WORDS)),
        tuple(w_declaration_points(tree)),
        tuple(w_usage_points(tree, classes)),
        tuple(targets),
        tuple(gotos),
    )


def unmatched(g, targets, gotos) -> list[Diagnostic]:
    """Each label word on two targets (L1, with its first) and each goto to no target (L2)."""
    first: dict[str, int] = {}
    found = []
    for target in targets:
        word = g.node_label(target)
        if word in first:
            found.append(Diagnostic("L1", (first[word], target), (word,)))
        else:
            first[word] = target
    for goto in gotos:
        word = g.node_label(goto)
        if word not in first:
            found.append(Diagnostic("L2", (goto,), (word,)))
    return sorted(found)


def subordinator(g, node: int, stop: int) -> int:
    head = g.chain(node, "-", ";")[-1]
    for word in ("then", "}"):
        owner = g.follow(head, "-", word)
        if owner is not None:
            return owner
    if g.follow(head, "-", ";") is not None:
        raise ValueError("';' arrows loop; not a program tree")
    return stop


def build_back_arrows(tree: Tree, stop: int, statements) -> int:
    g = tree.graph
    if g.pairs_labeled(BACK):
        raise ValueError("'back' arrows are already built")
    srcs = [node for node in statements if g.follow(node, "+", ";") is None]
    dsts = [subordinator(g, node, stop) for node in srcs]
    g.extend((), srcs, [BACK] * len(srcs), dsts, CONTROL)
    return len(srcs)


def build_control(tree: Tree, stop: int, points: tuple) -> dict[str, int]:
    g = tree.graph
    statements, _, _, targets, gotos = points
    problems = unmatched(g, targets, gotos)
    if problems:
        raise ValueError("cannot build control arrows: " + "; ".join(str(d) for d in problems))
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

    statement_set = set(statements)
    target_statement = {}
    for target in targets:
        risen = g.chain(target, "-", ":")[-1]
        if risen not in statement_set:
            raise ValueError(
                f"label node {target} does not rise to a statement; not a program tree"
            )
        target_statement[g.node_label(target)] = risen

    for node in statements:
        word = g.node_label(node)
        semi = g.follow(node, "+", ";")
        if word == "if":
            put(node, YES, _required_dst(g, node, "then"))
            if semi is not None:
                put(node, NO, semi)
        elif word == "{":
            put(node, NEXT, _required_dst(g, node, "}"))
        elif word == "go":
            put(node, NEXT, target_statement[g.node_label(_required_dst(g, node, "to"))])
        elif semi is not None:
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
                raise ValueError(f"back chain ends at node {cursor} which has no continuation")
        for member in members:
            word = g.node_label(member)
            if word == "if":
                put(member, NO, continuation)
            elif word not in ("go", "{"):
                put(member, NEXT, continuation)
    g.extend((), srcs, words, dsts, CONTROL)
    return {label: words.count(label) for label in (NEXT, YES, NO)}
