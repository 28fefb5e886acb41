"""Reference graph code for the kernel tests.

``canonical_form``, a fingerprint of a labeled tree, once lived in
``wordtree.graph``; nothing in the library calls it, so it is kept
here, where the tests that compare trees up to isomorphism use it.

``PerCallGraph`` keeps the validated one-element ``add_node`` and
``add_arrow`` that ``LabeledGraph.extend`` replaced, as the oracle the
bulk build is compared with. Like ``extend``, they keep the in-arrow
index current once a read has built it, and clear the memo of own
nodes by label whenever they add an own node; they refuse none of a
run graph's writes, so the tests build plain graphs with them.

``uni_label_violations`` keeps the uni-labeledness check that grouped
every node's listed out-arrows by label, as the oracle
``check_uni_labeled`` is compared with, and ``tree_defect`` states the
kernel's tree test over the same listings.
"""

from __future__ import annotations

from wordtree.graph import (
    ARROW_KINDS,
    SYNTACTIC,
    LabeledGraph,
    UniLabelViolation,
    display_word,
    is_mla_word,
    is_pla_word,
)


class PerCallGraph(LabeledGraph):
    """A labeled graph built one validated node or arrow per call."""

    def add_node(self, label: str) -> int:
        if label not in self._validated and not (is_pla_word(label) or is_mla_word(label)):
            raise ValueError(f"node label {label!r} is neither a PLA word nor an MLA word")
        node = len(self._nodes)
        self._nodes.append(label)
        self._validated.add(label)
        self._out.append({})
        if self._in is not None:
            self._in.append([])
        if not self._frozen:  # a run graph's cells stay out of the label memo
            self._by_label.clear()
        return node

    def add_arrow(self, src: int, label: str, dst: int, kind: str = SYNTACTIC) -> int:
        nodes = len(self._nodes)
        if not 0 <= src < nodes:
            raise ValueError(f"arrow origin {src} is not a node of this graph")
        if not 0 <= dst < nodes:
            raise ValueError(f"arrow destination {dst} is not a node of this graph")
        same_label = self._arrows_by_label.get(label)
        if same_label is None and not is_pla_word(label):
            raise ValueError(f"arrow label {label!r} is not a PLA word")
        if kind not in ARROW_KINDS:
            raise ValueError(f"unknown arrow kind {kind!r}")
        if same_label is None:
            same_label = self._arrows_by_label[label] = []
        arrow_id = len(self._src)
        self._src.append(src)
        self._label.append(label)
        self._dst.append(dst)
        self._kind.append(kind)
        if self._in is not None:
            self._in[dst].append(arrow_id)
        same_label.append(arrow_id)
        if not self._out[src]:  # a deep copy's arrowless nodes share the library's empty dict
            self._out[src] = {}
        if self._out[src].setdefault(label, arrow_id) != arrow_id:
            self._out_more.setdefault((src, label), []).append(arrow_id)
        return arrow_id

    def extend(self, labels, srcs=(), words=(), dsts=(), kind=SYNTACTIC) -> None:
        for label in labels:
            self.add_node(label)
        for src, word, dst in zip(srcs, words, dsts):
            self.add_arrow(src, word, dst, kind)


def canonical_form(g: LabeledGraph, root: int):
    """Order-independent fingerprint of a tree: nested (label, children) tuples.

    Children are sorted by (arrow label, child form), so two trees get
    equal forms exactly when they are isomorphic as labeled trees.
    Raises ValueError if the reachable subgraph is not a tree.
    """
    seen: set[int] = set()

    def walk(node: int):
        if node in seen:
            raise ValueError(f"node {node} reached twice; not a tree")
        seen.add(node)
        children = []
        for _, arrow in g.out_arrows(node):
            children.append((arrow.label, walk(arrow.dst)))
        return (g.node_label(node), tuple(sorted(children)))

    return walk(root)


def forms_equal(first, second) -> bool:
    """``first == second`` for two ``canonical_form`` results, compared without recursion.

    A tree level nests three tuples, so ``==`` on the forms of a tree a few
    hundred levels deep exceeds the interpreter's recursion limit.
    """
    pending = [(first, second)]
    while pending:
        (label, children), (other_label, other_children) = pending.pop()
        if label != other_label or len(children) != len(other_children):
            return False
        for (word, child), (other_word, other_child) in zip(children, other_children):
            if word != other_word:
                return False
            pending.append((child, other_child))
    return True


def uni_label_violations(g: LabeledGraph) -> list[UniLabelViolation]:
    """Group each node's listed out-arrows by label."""
    violations = []
    for node in g.nodes():
        groups: dict[str, list[int]] = {}
        for arrow_id, arrow in g.out_arrows(node):
            groups.setdefault(arrow.label, []).append(arrow_id)
        for label in sorted(groups):
            ids = groups[label]
            if len(ids) > 1:
                violations.append(UniLabelViolation(node, label, tuple(ids)))
    return violations


def tree_defect(g: LabeledGraph, root: int):
    """The first repeated out-arrow word, else the first node a syntactic arrow enters again,
    else a syntactic arrow into ``root``, each from the listings; None for a uni-labeled tree."""
    violations = uni_label_violations(g)
    if violations:
        node, label, _ = violations[0]
        return f"node {node} has several {display_word(label)} arrows leaving it"
    entered = set()
    for _, arrow in g.arrows():
        if arrow.kind == SYNTACTIC:
            if arrow.dst in entered:
                return f"node {arrow.dst} has several syntactic arrows entering it"
            entered.add(arrow.dst)
    return f"a syntactic arrow enters the root, node {root}" if root in entered else None
