"""Reference schema algorithms, for tests that pin the library's polynomial ones.

- ``elementary_cycles`` lists every elementary cycle of a successor map
  or a schema with networkx's ``simple_cycles`` (Johnson, "Finding all
  the elementary circuits of a directed graph", 1975), each rotated to
  its least node, in sorted order; ``or_bearing_cycles`` keeps those
  that take an OR arrow. Tests check ``functional_cycles`` and the
  witnesses of ``check_and_cycle_condition`` against them.
- ``_choices`` lists each one-step expansion of a name in the order
  ``CountTable`` ranks them: OR choices in declaration order, and per
  choice the masks over the optional AND arrows counted up from 0.
  ``expansions`` builds each of them as a tree, its open label patterns
  filled by ``placeholder`` words unless a word source is given.
- ``generate_sytr`` is the listing generator ``wordtree.schema.generate_sytr``
  replaced: per name it lists every OR choice times every subset of the
  optional AND arrows (``_choices``), with the nodes each adds at least,
  filters the list against the budget at every pending node and draws
  with ``rng.choice``. A node is added under its schema name and
  relabeled when it is expanded. The library generator must grow the
  same tree from the same seed, leave the generator in the same state,
  and refuse with the same text.
- ``min_sizes`` is the round-by-round fixed point that
  ``wordtree.schema._min_sizes`` replaced: each round recomputes every
  name's least tree size from the others' until no size falls, so a
  mandatory chain declared in forward order takes a round per name.
  The library's worklist must give the same sizes.
- ``disjoint`` is the six-case table over pattern kinds that
  ``wordtree.schema.disjoint`` replaced with one rule on ``matches``.
  The library must answer alike on every pair of patterns.

Listing the cycles or the expansions is exponential, and one name with
k optional AND arrows costs 2**k here, so keep the inputs small.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Iterator, Optional

import networkx as nx

from wordtree.graph import LabeledGraph, Tree
from wordtree.schema import (
    Alternation,
    AndArrow,
    BudgetExceeded,
    Literal,
    LowerWord,
    RegexSpec,
    Schema,
    analyze,
)


def rotate_min(cycle):
    k = cycle.index(min(cycle))
    return tuple(cycle[k:] + cycle[:k])


def cycle_steps(cycle):
    return {(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))}


def elementary_cycles(successors) -> list[tuple]:
    """All elementary cycles of a successor map, or of a schema's arrows,
    each rotated to start at its least node, in sorted order."""
    if isinstance(successors, Schema):
        schema, successors = successors, {name: set() for name in successors.names()}
        for arrow in schema.and_arrows() + schema.or_arrows():
            successors[arrow.src].add(arrow.dst)
    g = nx.DiGraph()
    g.add_nodes_from(successors)
    g.add_edges_from((n, m) for n, dsts in successors.items() for m in dsts)
    return sorted(rotate_min(cycle) for cycle in nx.simple_cycles(g))


def or_bearing_cycles(schema: Schema) -> list[tuple[str, ...]]:
    """Elementary cycles that traverse at least one OR arrow."""
    or_pairs = {(o.src, o.dst) for o in schema.or_arrows()}
    return [c for c in elementary_cycles(schema) if cycle_steps(c) & or_pairs]


def placeholder(spec: RegexSpec) -> str:
    """A fixed word ``spec`` matches: a literal's word, an alternation's least word, else 'x'."""
    match spec:
        case Literal(word):
            return word
        case Alternation(words):
            return min(words)
    return "x"


def _instantiate(spec: RegexSpec, rng: Optional[random.Random]) -> str:
    return placeholder(spec) if rng is None else spec.sample(rng)


def _choices(schema: Schema, name: str) -> Iterator[tuple[Optional[str], list[AndArrow]]]:
    """Each one-step expansion of ``name`` as (OR choice or None, AND arrows taken),
    in ``CountTable``'s rank order."""
    ands = schema.and_arrows(src=name)
    optional = [i for i, a in enumerate(ands) if a.optional]
    for root_label in schema.or_targets(name) or [None]:
        for mask in range(1 << len(optional)):
            dropped = {i for bit, i in enumerate(optional) if not mask >> bit & 1}
            yield root_label, [a for i, a in enumerate(ands) if i not in dropped]


def expansions(schema: Schema, name: str, word_source: Optional[random.Random] = None) -> list[Tree]:
    """All one-step expansions of ``name``: each OR choice crossed with
    each subset of optional AND arrows. Open label patterns are filled by
    ``word_source`` when given and by fixed placeholder words otherwise,
    so the list's length counts structure, not wordings."""
    node = schema.node(name)
    result = []
    for root_label, taken in _choices(schema, name):
        root_word = root_label or _instantiate(node.label, word_source)
        words = [_instantiate(arrow.label, word_source) for arrow in taken]
        g = LabeledGraph()
        g.extend(
            [root_word] + [arrow.dst for arrow in taken],
            [0] * len(taken),
            words,
            range(1, len(taken) + 1),
        )
        result.append(Tree(g, 0))
    return result


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


def min_sizes(schema: Schema) -> dict[str, float]:
    """Smallest node count of a fully expanded tree rooted at each name, by rounds."""
    size: dict[str, float] = {name: math.inf for name in schema.names()}
    for _ in range(len(size) + 1):
        changed = False
        for name in schema.names():
            mandatory = sum(
                size[a.dst] for a in schema.and_arrows(src=name) if not a.optional
            )
            targets = schema.or_targets(name)
            if targets:
                candidate = mandatory + min(size[t] for t in targets)
            else:
                candidate = mandatory + 1
            if candidate < size[name]:
                size[name] = candidate
                changed = True
        if not changed:
            break
    return size


def disjoint(a: RegexSpec, b: RegexSpec) -> bool:
    """Whether two label patterns denote non-overlapping word sets, case by case."""
    match (a, b):
        case (Literal(wa), Literal(wb)):
            return wa != wb
        case (Literal(w), Alternation(ws)) | (Alternation(ws), Literal(w)):
            return w not in ws
        case (Literal(w), LowerWord()) | (LowerWord(), Literal(w)):
            return not LowerWord().matches(w)
        case (Alternation(wa), Alternation(wb)):
            return not (wa & wb)
        case (Alternation(ws), LowerWord()) | (LowerWord(), Alternation(ws)):
            return not any(LowerWord().matches(w) for w in ws)
        case (LowerWord(), LowerWord()):
            return False
    raise TypeError(f"not label patterns: {a!r}, {b!r}")
