"""Reference tree generator, for tests that pin ``generate_sytr``'s draws.

This is the listing generator ``wordtree.schema.generate_sytr`` replaced:
per name it lists every OR choice times every subset of the optional
AND arrows (``_choices``), with the nodes each adds at least, filters
the list against the budget at every pending node and draws with
``rng.choice``. A node is added under its schema name and relabeled
when it is expanded. One name with k optional AND arrows costs 2**k, so
keep k small here. The library generator must grow the same tree from
the same seed, leave the generator in the same state, and refuse with
the same text.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Optional

from wordtree.graph import LabeledGraph, Tree
from wordtree.schema import BudgetExceeded, Schema, _choices, analyze


def generate_sytr(
    schema: Schema,
    root_name: str,
    word_source: Optional[random.Random] = None,
    node_budget: int = 500,
) -> Tree:
    report = analyze(schema)
    if not report.uni_labeled:
        raise ValueError("schema is not guaranteed uni-labeled; refusing to generate")
    rng = word_source if word_source is not None else random.Random(0)
    sizes = report.structure.sizes
    g = LabeledGraph()
    root = g.add_node(schema.node(root_name).name)
    pending: deque[int] = deque([root])
    reserve = sizes[root_name] - 1
    growths: dict[str, list] = {}  # per name: each choice and the nodes it adds at least
    while pending:
        current = pending.popleft()
        name = g.node_label(current)
        reserve -= sizes[name] - 1
        if name not in growths:
            growths[name] = [
                ((root_label, taken), sum(sizes[a.dst] for a in taken)
                 + (sizes[root_label] - 1 if root_label is not None else 0))
                for root_label, taken in _choices(schema, name)
            ]
        candidates = [
            choice for choice, growth in growths[name]
            if g.node_count + reserve + growth <= node_budget
        ]
        if not candidates:
            raise BudgetExceeded(
                f"no expansion of {name} fits within {node_budget} nodes"
            )
        root_label, taken = rng.choice(candidates)
        if root_label is None:
            g.set_node_label(current, schema.node(name).label.sample(rng))
        else:
            g.set_node_label(current, root_label)
            pending.append(current)
            reserve += sizes[root_label] - 1
        for arrow in taken:
            child = g.add_node(arrow.dst)
            g.add_arrow(current, arrow.label.sample(rng), child)
            pending.append(child)
            reserve += sizes[arrow.dst] - 1
    return Tree(g, root)
