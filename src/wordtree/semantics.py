"""Requirement checks over program trees.

Classifies the nodes of a canonical program tree into data, statement,
label, and other; checks that tape words are declared before use and
that goto labels name exactly one statement; and installs semantic
``is-declared-at`` arrows from each tape-word usage to its declaration.
All checks return Diagnostic records instead of raising, so callers can
collect every finding in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import (
    SEMANTIC,
    SYNTACTIC,
    Tree,
    display_word,
    parse_path,
    resolve,
)

DATA = "data"
STATEMENT = "statement"
LABEL = "label"
OTHER = "other"

STATEMENT_WORDS = frozenset({"go", "if", "print", "move", "", "{"})
CONTROL_WORDS = frozenset({"go", "if", "{"})

DECLARED_AT = "is-declared-at"


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a requirement check, tied to the nodes involved."""

    code: str
    severity: str
    nodes: tuple[int, ...]
    message: str

    def __str__(self) -> str:
        noun = "node" if len(self.nodes) == 1 else "nodes"
        where = ",".join(str(n) for n in self.nodes)
        return f"{self.code} {self.severity} {noun} {where}: {self.message}"

    def as_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "nodes": list(self.nodes),
            "message": self.message,
        }


def diagnostic(code: str, nodes, message: str) -> Diagnostic:
    """Build a Diagnostic; codes containing W are warnings, the rest errors."""
    severity = "warning" if "W" in code else "error"
    return Diagnostic(code, severity, tuple(nodes), message)


@dataclass(frozen=True)
class NodeClass:
    kind: str
    control: bool = False


def classify(tree: Tree) -> dict[int, NodeClass]:
    """Assign every node a class: data, statement, label, or other.

    Data nodes are those in syntactic subtrees hanging off the arrows
    that carry program data: the alphabet chain under the root's 'is'
    arrow, goto targets under 'to', printed words under ' (the quote
    arrow), and the empty-labeled arrows to the tape-symbol wrapper and
    the final '.' node. Label nodes are the destinations of ':' arrows
    and win over data when both apply. Statement nodes are the rest
    whose label is a statement word; 'go', 'if', and '{' are the ones
    that steer control.
    """
    g = tree.graph
    label_nodes = set()
    seeds = []
    for _, arrow in g.arrows():
        if arrow.kind != SYNTACTIC:
            continue
        if arrow.label == ":":
            label_nodes.add(arrow.dst)
        elif arrow.label in ("to", "'", ""):
            seeds.append(arrow.dst)
        elif arrow.label == "is" and arrow.src == tree.root:
            seeds.append(arrow.dst)

    data_nodes: set[int] = set()
    work = list(seeds)
    while work:
        node = work.pop()
        if node in data_nodes:
            continue
        data_nodes.add(node)
        for _, arrow in g.out_arrows(node, kinds=(SYNTACTIC,)):
            work.append(arrow.dst)

    classes = {}
    for node in g.nodes():
        if node in label_nodes:
            classes[node] = NodeClass(LABEL)
        elif node in data_nodes:
            classes[node] = NodeClass(DATA)
        elif g.node_label(node) in STATEMENT_WORDS:
            word = g.node_label(node)
            classes[node] = NodeClass(STATEMENT, control=word in CONTROL_WORDS)
        else:
            classes[node] = NodeClass(OTHER)
    return classes


def w_declaration_points(tree: Tree) -> list[int]:
    """Nodes declaring tape words: the ',' chain under the root's 'is' arrow."""
    g = tree.graph
    head = resolve(g, parse_path('"tape-alphabet"+is'), kinds=(SYNTACTIC,))
    points = [head]
    seen = {head}
    cursor = head
    while True:
        hits = [
            a.dst
            for _, a in g.out_arrows(cursor, kinds=(SYNTACTIC,))
            if a.label == ","
        ]
        if not hits:
            return points
        if len(hits) > 1 or hits[0] in seen:
            raise ValueError("the declaration chain does not run ',' by ',' to an end")
        cursor = hits[0]
        seen.add(cursor)
        points.append(cursor)


def w_usage_points(tree: Tree, classes: dict[int, NodeClass]) -> list[int]:
    """Nodes using tape words: print operands and if comparison words."""
    g = tree.graph
    points = []
    for node in g.nodes():
        if classes[node].kind != STATEMENT:
            continue
        word = g.node_label(node)
        if word == "print":
            points.append(
                resolve(g, parse_path("+\"'\""), current=node, kinds=(SYNTACTIC,))
            )
        elif word == "if":
            points.append(
                resolve(g, parse_path('+""+is'), current=node, kinds=(SYNTACTIC,))
            )
    return points


# Code and message of the duplicate, undefined and unused findings.
ALPHABET_FINDINGS = (
    ("AW1", "tape word {} is declared more than once"),
    ("AW2", "tape word {} is used but never declared"),
    ("AW3", "declared tape word {} is never used"),
)
LABEL_FINDINGS = (
    ("L1", "label {} marks more than one statement"),
    ("L2", "go to names {} but no statement is labeled so"),
    ("LW1", "label {} is never the target of a go to"),
)


def _match(g, definitions: list[int], usages: list[int], findings) -> list[Diagnostic]:
    """Compare defining nodes with using nodes by label.

    Reports each word defined twice (with its first definition), each
    usage of an undefined word, and each definition no usage names, as
    ``findings`` codes and words them, sorted by code and nodes.
    """
    (twice, twice_text), (undefined, undefined_text), (unused, unused_text) = findings
    diagnostics = []
    first_seen: dict[str, int] = {}
    for node in definitions:
        word = g.node_label(node)
        if word in first_seen:
            diagnostics.append(
                diagnostic(
                    twice,
                    (first_seen[word], node),
                    twice_text.format(display_word(word)),
                )
            )
        else:
            first_seen[word] = node

    for node in usages:
        word = g.node_label(node)
        if word not in first_seen:
            diagnostics.append(
                diagnostic(undefined, (node,), undefined_text.format(display_word(word)))
            )

    used = {g.node_label(n) for n in usages}
    for node in definitions:
        word = g.node_label(node)
        if word not in used:
            diagnostics.append(
                diagnostic(unused, (node,), unused_text.format(display_word(word)))
            )

    diagnostics.sort(key=lambda d: (d.code, d.nodes))
    return diagnostics


def check_alphabet(tree: Tree, classes: dict[int, NodeClass]) -> list[Diagnostic]:
    """Alphabet checks: duplicate declarations, undeclared uses, unused words."""
    return _match(
        tree.graph,
        w_declaration_points(tree),
        w_usage_points(tree, classes),
        ALPHABET_FINDINGS,
    )


def link_is_declared_at(tree: Tree, classes: dict[int, NodeClass]) -> int:
    """Add a semantic 'is-declared-at' arrow from each usage to its declaration.

    Points at the first declaration of the word, skips usages that are
    already linked, and returns the number of arrows added. Refuses,
    before adding any arrow, while some usage has no declaration at all.
    """
    g = tree.graph
    declarations = w_declaration_points(tree)
    usages = w_usage_points(tree, classes)
    undeclared = [
        d for d in _match(g, declarations, usages, ALPHABET_FINDINGS) if d.code == "AW2"
    ]
    if undeclared:
        raise ValueError(
            "cannot link usages to declarations: "
            + "; ".join(str(d) for d in undeclared)
        )

    first_decl: dict[str, int] = {}
    for node in declarations:
        first_decl.setdefault(g.node_label(node), node)

    added = 0
    for usage in usages:
        linked = any(
            a.label == DECLARED_AT
            for _, a in g.out_arrows(usage, kinds=(SEMANTIC,))
        )
        if linked:
            continue
        g.add_arrow(usage, DECLARED_AT, first_decl[g.node_label(usage)], SEMANTIC)
        added += 1
    return added


def label_points(
    tree: Tree, classes: dict[int, NodeClass]
) -> tuple[list[int], list[int]]:
    """Label targets (':' destinations) and label usages ('to' destinations).

    Both lists follow arrow insertion order. Arrows leaving data nodes
    are ignored, so words like 'to' inside the tape alphabet cannot
    produce false points.
    """
    g = tree.graph
    targets = []
    usages = []
    for _, arrow in g.arrows():
        if arrow.kind != SYNTACTIC:
            continue
        if classes[arrow.src].kind not in (STATEMENT, LABEL):
            continue
        if arrow.label == ":":
            targets.append(arrow.dst)
        elif arrow.label == "to":
            usages.append(arrow.dst)
    return targets, usages


def check_labels(tree: Tree, classes: dict[int, NodeClass]) -> list[Diagnostic]:
    """Label checks: duplicate targets, dangling gotos, unused labels."""
    return _match(tree.graph, *label_points(tree, classes), LABEL_FINDINGS)
