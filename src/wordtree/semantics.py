"""Requirement checks over program trees.

``classify`` walks a program tree's statement chains once and returns
its ``Points``: each node's class (data, statement, label or other),
the points of tape words and labels, and the chain table the control
flow is built from. The checks read them: tape words are declared
before use, goto labels name exactly one statement, and semantic
``is-declared-at`` arrows join each usage to its declaration. Checks
return Diagnostic records instead of raising, so callers can collect
every finding in one pass. A record holds a finding's code, nodes and
words; ``FINDINGS`` maps each code of this module and of
``control_flow`` to its text, worded only when a message is read.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .graph import (
    SEMANTIC,
    SYNTACTIC,
    PathFormula,
    Tree,
    check_uni_labeled,
    display_word,
    parse_path,
    resolve,
)

DATA = "data"
STATEMENT = "statement"
LABEL = "label"
OTHER = "other"

NEXT = "next"
YES = "yes"
NO = "no"
DECLARED_AT = "is-declared-at"

DECLARATIONS_PATH = parse_path('"tape-alphabet"+is')
PRINT_WORD_PATH = parse_path("+\"'\"")
SYMBOL_PATH = parse_path('+""+is')


class Statement(NamedTuple):
    """A statement word's meaning to the walk, the flow and the instructions; None: no such part."""

    data: Optional[str]  # the arrow to the data the statement carries
    usage: Optional[PathFormula]  # the '+' path to the tape word it uses, first along ``data``
    inner: Optional[str]  # the arrow to its inner chain
    branch: Optional[str]  # the flow label along ``inner``, else to where the ``data`` label rises
    onward: Optional[str]  # the flow label to its successor, or at a chain end to the continuation
    shape: str  # the instruction: follow, compare, relabel or shift


STATEMENTS = {  # Turingol's statements by word, each entry its whole meaning
    "": Statement(None, None, None, None, NEXT, "follow"),
    "move": Statement(None, None, None, None, NEXT, "shift"),
    "print": Statement("'", PRINT_WORD_PATH, None, None, NEXT, "relabel"),
    "if": Statement("", SYMBOL_PATH, "then", YES, NO, "compare"),
    "{": Statement(None, None, "}", NEXT, None, "follow"),
    "go": Statement("to", None, None, NEXT, None, "follow"),
}
STATEMENT_WORDS = STATEMENTS.keys()

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


class Chains(NamedTuple):
    """The statement chains as ``classify`` walked them, for the control flow.

    ``successors`` maps a node to its ';' successor. ``ends`` maps a
    statement without one to the 'if' or '{' whose chain it ends (None:
    the body), ``continuations`` to where flow goes after that chain:
    the owner's successor, else the owner's continuation (None: stop).
    ``defect`` is why the chains are no program tree, or None.
    """

    successors: dict[int, int]
    ends: dict[int, Optional[int]]
    continuations: dict[int, Optional[int]]
    defect: Optional[str]


class Points(NamedTuple):
    """What the checks and the control flow read of a tree, found in one walk.

    The statements in id order; the ',' chain of declarations; the tape
    word each statement's ``usage`` leads to, in statement order; the label
    targets (':' ends) and goto words ('to' ends) of statements and
    labels, in arrow order. ``classes`` holds every node's class by node
    id; ``check_program`` drops the ``chains`` once control flow is built.
    The order of the usages fixes only the order of the 'is-declared-at'
    arrows ``link_is_declared_at`` adds: the findings are sorted, and
    ``install_instructions`` settles each word path from its statement.
    """

    statements: tuple[int, ...]
    declarations: tuple[int, ...]
    usages: tuple[int, ...]
    targets: tuple[int, ...]
    gotos: tuple[int, ...]
    classes: Optional[tuple[str, ...]] = None
    chains: Optional[Chains] = None


def classify(tree: Tree) -> Points:
    """Class every node and find the points and chains, in one walk of the statement chains.

    The walk starts at the root's ';' arrow and keeps the chains it has
    still to finish on a stack. A statement is a node on a chain, reached
    along ';' or an ``inner`` arrow of ``STATEMENTS``, labeled by a word
    of that table; label nodes (':' destinations) win over every other
    class. Data is the alphabet under the root's 'is', the final '.' and
    each statement's ``data`` end, with whatever hangs below them along
    syntactic arrows; the rest is other. The walk reads each arrow label
    as one map, not node by node; a usage the maps do not give is
    resolved, which names the missing arrow. A statement with several
    ';' arrows, or a ';' arrow into the root, is the chain table's
    ``defect``; a chain that meets a walked statement ends. The root
    test reads the ';' pairs, so the walk takes no "-" step and builds
    no in-arrow index.
    """
    g = tree.graph
    words, repeats = g._nodes, check_uni_labeled(g)
    successors = g.ends_labeled(";")
    view = {}  # by word: its data ends, used words and inner heads by statement node; its usage
    for word, s in STATEMENTS.items():
        carried = used = None if s.data is None else g.ends_labeled(s.data)
        for _, label in () if s.usage is None else s.usage.steps[1:]:  # the first is ``data``
            step = g.ends_labeled(label)
            used = {node: step.get(end) for node, end in used.items()}
        view[word] = carried, used, s.usage, None if s.inner is None else g.ends_labeled(s.inner)
    colons = g.pairs_labeled(":")
    classes = [OTHER] * len(words)
    for _, label in colons:
        classes[label] = LABEL
    declarations = w_declaration_points(tree)
    data = g.ends(tree.root, "+", "is") + g.ends(tree.root, "+", "")

    statements: list[int] = []
    usage_of: dict[int, int] = {}
    ends: dict[int, Optional[int]] = {}
    continuations: dict[int, Optional[int]] = {}
    stack = [(successors[tree.root], None, None)] if tree.root in successors else []
    while stack:
        node, owner, after = stack.pop()
        while classes[node] is OTHER and words[node] in view:
            carried, used_of, usage, inners = view[words[node]]
            classes[node] = STATEMENT
            statements.append(node)
            nxt = successors.get(node)
            if nxt is None:
                ends[node], continuations[node] = owner, after
            if carried is not None:
                end = carried.get(node)
                if usage is not None:
                    used = used_of.get(node)
                    if used is None or repeats:
                        used = resolve(g, usage, node)
                    usage_of[node] = used
                if end is not None:
                    data.append(end)
            inner = None if inners is None else inners.get(node)
            if inner is not None:  # the inner chain first, then the rest of this one
                if nxt is not None:
                    stack.append((nxt, owner, after))
                    after = nxt
                owner, nxt = node, inner
            elif nxt is None:
                break
            node = nxt

    while data:
        node = data.pop()
        if classes[node] is OTHER:
            classes[node] = DATA
            data += g.ends_of_kind(node, "+", SYNTACTIC) if g._out[node] else ()

    forks = [v.node for v in repeats if v.label == ";" and classes[v.node] is STATEMENT]
    if forks:
        defect = f"node {forks[0]} has several {display_word(';')} arrows leaving it"
    else:
        into_root = any(end == tree.root for _, end in g.pairs_labeled(";"))
        defect = "';' arrows loop; not a program tree" if into_root else None
    statements.sort()
    usages = tuple(usage_of[node] for node in statements if node in usage_of)
    targets, gotos = (
        tuple(end for origin, end in pairs if classes[origin] in (STATEMENT, LABEL))
        for pairs in (colons, g.pairs_labeled("to"))
    )
    chains = Chains(successors, ends, continuations, defect)
    classes = tuple(classes)
    return Points(tuple(statements), tuple(declarations), usages, targets, gotos, classes, chains)


def w_declaration_points(tree: Tree) -> list[int]:
    """Nodes declaring tape words: the ',' chain under the root's 'is' arrow."""
    g = tree.graph
    head = resolve(g, DECLARATIONS_PATH)
    points = g.chain(head, "+", ",")
    if g.follow(points[-1], "+", ",") is not None:
        raise ValueError("the declaration chain does not run ',' by ',' to an end")
    return points


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
    words = g._nodes
    diagnostics = []
    first_seen: dict[str, int] = {}
    for node in definitions:
        word = words[node]
        if word in first_seen:
            diagnostics.append(Diagnostic(twice, (first_seen[word], node), (word,)))
        else:
            first_seen[word] = node

    for node in usages:
        word = words[node]
        if word not in first_seen:
            diagnostics.append(Diagnostic(undefined, (node,), (word,)))

    for unused in unused_codes:
        used = {words[n] for n in usages}
        for node in definitions:
            word = words[node]
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
    already linked (none are while the graph has no such arrow), adds
    the arrows with one ``LabeledGraph.extend`` call, and returns the
    number of arrows added. Refuses, before adding any arrow, while
    some usage has no declaration at all, listing the AW2 findings
    that ``check_alphabet`` reports, from the same ``_match``.
    """
    g = tree.graph
    findings = _match(g, points.declarations, points.usages, ("AW1", "AW2"))
    undeclared = [d for d in findings if d.code == "AW2"]
    if undeclared:
        raise ValueError(
            "cannot link usages to declarations: "
            + "; ".join(str(d) for d in undeclared)
        )

    words = g._nodes
    first_decl = {words[node]: node for node in reversed(points.declarations)}  # the first wins
    srcs = list(dict.fromkeys(points.usages))
    if g.pairs_labeled(DECLARED_AT):
        srcs = [usage for usage in srcs if not g.ends(usage, "+", DECLARED_AT)]
    dsts = [first_decl[words[usage]] for usage in srcs]
    g.extend((), srcs, [DECLARED_AT] * len(srcs), dsts, SEMANTIC)
    return len(srcs)


def check_labels(tree: Tree, points: Points) -> list[Diagnostic]:
    """Label checks: duplicate targets, dangling gotos, unused labels."""
    return _match(tree.graph, points.targets, points.gotos, ("L1", "L2", "LW1"))
