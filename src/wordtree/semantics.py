"""Requirement checks over program trees.

Classifies the nodes of a canonical program tree into data, statement,
label, and other; finds, once per tree, the statements and the
declaration and usage points of tape words and labels; checks that tape
words are declared before use and that goto labels name exactly one
statement; and installs semantic ``is-declared-at`` arrows from each
tape-word usage to its declaration. All checks return Diagnostic
records instead of raising, so callers can collect every finding in one
pass.
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

# The declaration chain's head from the root, and from a statement node
# the word a print writes and the word an if compares the tape symbol to.
DECLARATIONS_PATH = parse_path('"tape-alphabet"+is')
PRINT_WORD_PATH = parse_path("+\"'\"")
SYMBOL_PATH = parse_path('+""+is')


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


# The only classes a node can have; ``classify`` shares these instances.
LABEL_NODE = NodeClass(LABEL)
DATA_NODE = NodeClass(DATA)
STATEMENT_NODE = NodeClass(STATEMENT)
CONTROL_STATEMENT_NODE = NodeClass(STATEMENT, control=True)
OTHER_NODE = NodeClass(OTHER)


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
    label_nodes = {dst for _, dst in g.pairs_labeled(":")}
    work = g.ends(tree.root, "+", "is")
    for word in ("to", "'", ""):
        work.extend(dst for _, dst in g.pairs_labeled(word, SYNTACTIC))

    data_nodes: set[int] = set()
    while work:
        node = work.pop()
        if node in data_nodes:
            continue
        data_nodes.add(node)
        work += g.ends_of_kind(node, "+", SYNTACTIC)

    classes = {}
    for node in g.nodes():
        word = g.node_label(node)
        if node in label_nodes:
            classes[node] = LABEL_NODE
        elif node in data_nodes:
            classes[node] = DATA_NODE
        elif word in CONTROL_WORDS:
            classes[node] = CONTROL_STATEMENT_NODE
        elif word in STATEMENT_WORDS:
            classes[node] = STATEMENT_NODE
        else:
            classes[node] = OTHER_NODE
    return classes


def w_declaration_points(tree: Tree) -> list[int]:
    """Nodes declaring tape words: the ',' chain under the root's 'is' arrow."""
    g = tree.graph
    head = resolve(g, DECLARATIONS_PATH)
    points = g.chain(head, "+", ",")
    if g.follow(points[-1], "+", ",") is not None:
        raise ValueError("the declaration chain does not run ',' by ',' to an end")
    return points


def _statements(g, classes: dict[int, NodeClass], words) -> list[int]:
    """Statement nodes labeled by one of ``words``, in id order, read from the label index."""
    return sorted(
        node
        for word in words
        for node in g.nodes_labeled(word)
        if classes[node].kind == STATEMENT
    )


def w_usage_points(tree: Tree, classes: dict[int, NodeClass]) -> list[int]:
    """Nodes using tape words: print operands and if comparison words."""
    g = tree.graph
    points = []
    for node in _statements(g, classes, ("print", "if")):
        if g.node_label(node) == "print":
            points.append(resolve(g, PRINT_WORD_PATH, current=node))
        else:
            points.append(resolve(g, SYMBOL_PATH, current=node))
    return points


def label_points(
    tree: Tree, classes: dict[int, NodeClass]
) -> tuple[list[int], list[int]]:
    """Label targets (':' destinations) and label usages ('to' destinations).

    Both lists follow arrow insertion order. Arrows leaving data nodes
    are ignored, so words like 'to' inside the tape alphabet cannot
    produce false points.
    """
    g = tree.graph

    def points(word: str) -> list[int]:
        return [
            dst
            for src, dst in g.pairs_labeled(word)
            if classes[src].kind in (STATEMENT, LABEL)
        ]

    return points(":"), points("to")


@dataclass(frozen=True)
class Points:
    """What the checks and the control flow read of a classified tree.

    The statement nodes in id order, and the points ``w_declaration_points``,
    ``w_usage_points`` and ``label_points`` (targets, then gotos) list.
    """

    statements: tuple[int, ...]
    declarations: tuple[int, ...]
    usages: tuple[int, ...]
    targets: tuple[int, ...]
    gotos: tuple[int, ...]


def find_points(tree: Tree, classes: dict[int, NodeClass]) -> Points:
    """Find the statements and the points of tape words and labels, once per tree."""
    declarations = tuple(w_declaration_points(tree))
    usages = tuple(w_usage_points(tree, classes))
    targets, gotos = label_points(tree, classes)
    statements = tuple(_statements(tree.graph, classes, STATEMENT_WORDS))
    return Points(statements, declarations, usages, tuple(targets), tuple(gotos))


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


def _match(
    g, definitions: tuple[int, ...], usages: tuple[int, ...], findings
) -> list[Diagnostic]:
    """Compare defining nodes with using nodes by label.

    Reports each word defined twice (with its first definition), each
    usage of an undefined word, and, when ``findings`` has a third
    entry, each definition no usage names, as ``findings`` codes and
    words them, sorted by code and nodes. The first two are the ones
    that block control flow.
    """
    (twice, twice_text), (undefined, undefined_text), *unused_findings = findings
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

    for unused, unused_text in unused_findings:
        used = {g.node_label(n) for n in usages}
        for node in definitions:
            word = g.node_label(node)
            if word not in used:
                diagnostics.append(
                    diagnostic(unused, (node,), unused_text.format(display_word(word)))
                )

    diagnostics.sort(key=lambda d: (d.code, d.nodes))
    return diagnostics


def check_alphabet(tree: Tree, points: Points) -> list[Diagnostic]:
    """Alphabet checks: duplicate declarations, undeclared uses, unused words."""
    return _match(tree.graph, points.declarations, points.usages, ALPHABET_FINDINGS)


def link_is_declared_at(tree: Tree, points: Points) -> int:
    """Add a semantic 'is-declared-at' arrow from each usage to its declaration.

    Points at the first declaration of the word, skips usages that are
    already linked, adds the arrows with one ``LabeledGraph.extend``
    call, and returns the number of arrows added. Refuses,
    before adding any arrow, while some usage has no declaration at all,
    listing the AW2 findings ``check_alphabet`` reports.
    """
    g = tree.graph
    first_decl: dict[str, int] = {}
    for node in points.declarations:
        first_decl.setdefault(g.node_label(node), node)

    code, text = ALPHABET_FINDINGS[1]
    undeclared = [
        diagnostic(code, (usage,), text.format(display_word(g.node_label(usage))))
        for usage in sorted(points.usages)
        if g.node_label(usage) not in first_decl
    ]
    if undeclared:
        raise ValueError(
            "cannot link usages to declarations: "
            + "; ".join(str(d) for d in undeclared)
        )

    srcs = [
        usage for usage in dict.fromkeys(points.usages) if not g.ends(usage, "+", DECLARED_AT)
    ]
    dsts = [first_decl[g.node_label(usage)] for usage in srcs]
    g.extend((), srcs, [DECLARED_AT] * len(srcs), dsts, SEMANTIC)
    return len(srcs)


def check_labels(tree: Tree, points: Points) -> list[Diagnostic]:
    """Label checks: duplicate targets, dangling gotos, unused labels."""
    return _match(tree.graph, points.targets, points.gotos, LABEL_FINDINGS)
