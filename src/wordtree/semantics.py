"""Requirement checks over program trees.

Classifies the nodes of a canonical program tree into data, statement,
label, and other; finds, once per tree, the statements and the
declaration and usage points of tape words and labels; checks that tape
words are declared before use and that goto labels name exactly one
statement; and installs semantic ``is-declared-at`` arrows from each
tape-word usage to its declaration. All checks return Diagnostic
records instead of raising, so callers can collect every finding in one
pass. A record holds a finding's code, nodes and words; ``FINDINGS``
maps each code of this module and of ``control_flow`` to the text that
words it, and a record is worded only when its message is read.
"""

from __future__ import annotations

from typing import NamedTuple

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

DECLARED_AT = "is-declared-at"

# The declaration chain's head from the root, and from a statement node
# the word a print writes and the word an if compares the tape symbol to.
DECLARATIONS_PATH = parse_path('"tape-alphabet"+is')
PRINT_WORD_PATH = parse_path("+\"'\"")
SYMBOL_PATH = parse_path('+""+is')

# The text of each finding code; its {} takes the finding's words.
FINDINGS = {
    "AW1": "tape word {} is declared more than once",
    "AW2": "tape word {} is used but never declared",
    "AW3": "declared tape word {} is never used",
    "L1": "label {} marks more than one statement",
    "L2": "go to names {} but no statement is labeled so",
    "LW1": "label {} is never the target of a go to",
    "CW1": "no flow path reaches the {} statement",
    "C2": "'next' arrows cycle through {}",
}


class Diagnostic(NamedTuple):
    """One finding of a requirement check: its code, the nodes involved, the words it names.

    ``words`` is the one tape word, label or statement word of most
    findings, and the labels around the cycle of a C2. Codes containing
    W are warnings, the rest errors. The message fills the code's
    ``FINDINGS`` text with the words as ``display_word`` shows them.
    """

    code: str
    nodes: tuple[int, ...]
    words: tuple[str, ...]

    @property
    def severity(self) -> str:
        return "warning" if "W" in self.code else "error"

    @property
    def message(self) -> str:
        return FINDINGS[self.code].format(" ".join(map(display_word, self.words)))

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


def classify(tree: Tree) -> dict[int, str]:
    """Assign every node a class: DATA, STATEMENT, LABEL or OTHER.

    Data nodes are those in syntactic subtrees hanging off the arrows
    that carry program data: the alphabet chain under the root's 'is'
    arrow, goto targets under 'to', printed words under ' (the quote
    arrow), and the empty-labeled arrows to the tape-symbol wrapper and
    the final '.' node. Label nodes are the destinations of ':' arrows
    and win over data when both apply. Statement nodes are the rest
    whose label is a statement word.
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
        if node in label_nodes:
            classes[node] = LABEL
        elif node in data_nodes:
            classes[node] = DATA
        elif g.node_label(node) in STATEMENT_WORDS:
            classes[node] = STATEMENT
        else:
            classes[node] = OTHER
    return classes


def w_declaration_points(tree: Tree) -> list[int]:
    """Nodes declaring tape words: the ',' chain under the root's 'is' arrow."""
    g = tree.graph
    head = resolve(g, DECLARATIONS_PATH)
    points = g.chain(head, "+", ",")
    if g.follow(points[-1], "+", ",") is not None:
        raise ValueError("the declaration chain does not run ',' by ',' to an end")
    return points


def _statements(g, classes: dict[int, str], words) -> list[int]:
    """Statement nodes labeled by one of ``words``, in id order, read from the label index."""
    return sorted(
        node
        for word in words
        for node in g.nodes_labeled(word)
        if classes[node] == STATEMENT
    )


def w_usage_points(tree: Tree, classes: dict[int, str]) -> list[int]:
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
    tree: Tree, classes: dict[int, str]
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
            if classes[src] in (STATEMENT, LABEL)
        ]

    return points(":"), points("to")


class Points(NamedTuple):
    """What the checks and the control flow read of a classified tree.

    The statement nodes in id order, and the points ``w_declaration_points``,
    ``w_usage_points`` and ``label_points`` (targets, then gotos) list.
    """

    statements: tuple[int, ...]
    declarations: tuple[int, ...]
    usages: tuple[int, ...]
    targets: tuple[int, ...]
    gotos: tuple[int, ...]


def find_points(tree: Tree, classes: dict[int, str]) -> Points:
    """Find the statements and the points of tape words and labels, once per tree."""
    declarations = tuple(w_declaration_points(tree))
    usages = tuple(w_usage_points(tree, classes))
    targets, gotos = label_points(tree, classes)
    statements = tuple(_statements(tree.graph, classes, STATEMENT_WORDS))
    return Points(statements, declarations, usages, tuple(targets), tuple(gotos))


def _match(
    g, definitions: tuple[int, ...], usages: tuple[int, ...], codes: tuple[str, ...]
) -> list[Diagnostic]:
    """Compare defining nodes with using nodes by label.

    Reports each word defined twice (with its first definition), each
    usage of an undefined word, and, when ``codes`` has a third entry,
    each definition no usage names, under those ``codes`` and sorted by
    code and nodes. The first two are the ones that block control flow.
    """
    twice, undefined, *unused_codes = codes
    diagnostics = []
    first_seen: dict[str, int] = {}
    for node in definitions:
        word = g.node_label(node)
        if word in first_seen:
            diagnostics.append(Diagnostic(twice, (first_seen[word], node), (word,)))
        else:
            first_seen[word] = node

    for node in usages:
        word = g.node_label(node)
        if word not in first_seen:
            diagnostics.append(Diagnostic(undefined, (node,), (word,)))

    for unused in unused_codes:
        used = {g.node_label(n) for n in usages}
        for node in definitions:
            word = g.node_label(node)
            if word not in used:
                diagnostics.append(Diagnostic(unused, (node,), (word,)))

    diagnostics.sort()
    return diagnostics


def check_alphabet(tree: Tree, points: Points) -> list[Diagnostic]:
    """Alphabet checks: duplicate declarations, undeclared uses, unused words."""
    return _match(tree.graph, points.declarations, points.usages, ("AW1", "AW2", "AW3"))


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

    undeclared = [
        Diagnostic("AW2", (usage,), (g.node_label(usage),))
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
    return _match(tree.graph, points.targets, points.gotos, ("L1", "L2", "LW1"))
