"""Reference fingerprint of a labeled tree, for tests that compare trees.

``canonical_form`` once lived in ``wordtree.graph``; nothing in the
library calls it, so it is kept here, where the tests that compare
trees up to isomorphism use it.
"""

from __future__ import annotations

from wordtree.graph import LabeledGraph


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
