"""Syntactic schemas: tree families, uni-labeledness analysis, grammar export.

A schema is a small digraph over named nodes. AND arrows prescribe
mandatory or optional children whose labels are drawn from closed-form
regular expressions; OR arrows offer alternative refinements of a node.
Repeatedly expanding nodes that still carry schema names yields the
family of trees the schema denotes. The checks in this module decide,
without generating anything, whether every member of that family is
uni-labeled, and the exporter prints the schema as EBNF productions.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional, Union

from .graph import LabeledGraph, Tree, _Record, is_mla_word, is_pla_word

if TYPE_CHECKING:
    import random

ATOMIC = "atomic"
AND_NODE = "and"
OR_NODE = "or"
MIXED = "mixed"

_LOWER = "abcdefghijklmnopqrstuvwxyz"


class BudgetExceeded(Exception):
    """Tree generation ran out of node budget with schema names remaining."""


class Literal(_Record):
    """Pattern matching exactly one word (possibly the empty word)."""

    __slots__ = ("word",)
    _defaults = {"word": ""}

    def matches(self, word: str) -> bool:
        return word == self.word

    def sample(self, rng: random.Random) -> str:
        return self.word

    def to_text(self) -> str:
        return f"'{self.word}'"


class Alternation(_Record):
    """Pattern matching any one of a finite set of words; samples come from the sorted words."""

    __slots__ = ("words", "_sorted")  # a frozenset, and the cache of its sorted words

    def __init__(self, words: Iterable[str]) -> None:
        words = frozenset(words)
        if not words:
            raise ValueError("alternation needs at least one word")
        super().__init__(words)
        object.__setattr__(self, "_sorted", tuple(sorted(words)))

    def matches(self, word: str) -> bool:
        return word in self.words

    def sample(self, rng: random.Random) -> str:
        return rng.choice(self._sorted)

    def to_text(self) -> str:
        return "(" + " | ".join(f"'{w}'" for w in self._sorted) + ")"


class LowerWord(_Record):
    """Pattern matching any non-empty word of lowercase letters."""

    __slots__ = ()

    def matches(self, word: str) -> bool:
        return bool(word) and all(c in _LOWER for c in word)

    def sample(self, rng: random.Random) -> str:
        return "".join(rng.choice(_LOWER) for _ in range(rng.randint(1, 6)))

    def to_text(self) -> str:
        return "[a-z]+"


RegexSpec = Union[Literal, Alternation, LowerWord]


def _pattern_words(spec: RegexSpec) -> tuple[str, ...]:
    """The words a literal or one-of pattern names, sorted; none for ``LowerWord``."""
    match spec:
        case Literal(word):
            return (word,)
        case Alternation():
            return spec._sorted
    return ()


def disjoint(a: RegexSpec, b: RegexSpec) -> bool:
    """Whether two label patterns denote non-overlapping word sets.

    A literal or one-of pattern names its words, so it meets another
    pattern exactly when that pattern matches one of them. Two
    ``LowerWord``s always meet, and when only one side is a
    ``LowerWord`` it is put second, as the one asked to match.
    """
    if not (isinstance(a, RegexSpec) and isinstance(b, RegexSpec)):
        raise TypeError(f"not label patterns: {a!r}, {b!r}")
    if isinstance(a, LowerWord):
        a, b = b, a
    if isinstance(a, LowerWord):
        return False
    return not any(map(b.matches, _pattern_words(a)))


class SchemaNode(_Record):
    """A named node. ``number`` is its own slot in the node's word order."""

    __slots__ = ("name", "label", "number")
    _defaults = {"label": Literal(""), "number": None}


class AndArrow(_Record):
    """A child prescription: label pattern, optionality, word-order slot.

    ``suffix`` marks arrows whose label is written after the child in the
    linear word order (closing quotes, closing braces, label colons).
    """

    __slots__ = ("src", "dst", "label", "optional", "order", "suffix")
    _defaults = {"label": Literal(""), "optional": False, "order": None, "suffix": False}


class OrArrow(_Record):
    """An alternative refinement of the source node."""

    __slots__ = ("src", "dst")


class Schema:
    """Named nodes plus AND/OR arrows. Declaration order is significant:
    it fixes production order in exports and choice order in generation.

    ``_and`` and ``_or`` hold every arrow in declaration order, for the
    whole-schema listings and ``schema_to_json``. ``_and_from[name]`` and
    ``_or_from[name]`` hold the arrows that leave ``name``, appended as
    they are added, so they keep declaration order too; every per-name
    query reads the name's own lists and scans no other arrow.
    """

    def __init__(self) -> None:
        self._nodes: dict[str, SchemaNode] = {}
        self._and: list[AndArrow] = []
        self._or: list[OrArrow] = []
        self._and_from: dict[str, list[AndArrow]] = {}
        self._or_from: dict[str, list[OrArrow]] = {}
        self._report: Optional[SchemaReport] = None

    def add_node(self, name: str, label: RegexSpec = Literal(""), number: Optional[int] = None) -> SchemaNode:
        """Add a named node; its literal or one-of words must be able to label a graph node."""
        if not is_mla_word(name):
            raise ValueError(f"schema name {name!r} must be uppercase letters and digits")
        if name in self._nodes:
            raise ValueError(f"duplicate schema name {name!r}")
        for word in _pattern_words(label):
            if not (is_pla_word(word) or is_mla_word(word)):
                raise ValueError(f"node label {word!r} is neither a PLA word nor an MLA word")
        node = SchemaNode(name, label, number)
        self._nodes[name] = node
        self._and_from[name] = []
        self._or_from[name] = []
        self._report = None
        return node

    def add_and_arrow(
        self,
        src: str,
        dst: str,
        label: RegexSpec = Literal(""),
        optional: bool = False,
        order: Optional[int] = None,
        suffix: bool = False,
    ) -> AndArrow:
        """Add a child prescription; its literal or one-of words must be PLA words."""
        self._require(src)
        self._require(dst)
        for word in _pattern_words(label):
            if not is_pla_word(word):
                raise ValueError(f"arrow label {word!r} is not a PLA word")
        arrow = AndArrow(src, dst, label, optional, order, suffix)
        self._and.append(arrow)
        self._and_from[src].append(arrow)
        self._report = None
        return arrow

    def add_or_arrow(self, src: str, dst: str) -> OrArrow:
        self._require(src)
        self._require(dst)
        arrow = OrArrow(src, dst)
        self._or.append(arrow)
        self._or_from[src].append(arrow)
        self._report = None
        return arrow

    def _require(self, name: str) -> None:
        if name not in self._nodes:
            raise ValueError(f"unknown schema node {name!r}")

    def names(self) -> list[str]:
        return list(self._nodes)

    def node(self, name: str) -> SchemaNode:
        self._require(name)
        return self._nodes[name]

    def and_arrows(self, src: Optional[str] = None) -> list[AndArrow]:
        return list(self._and if src is None else self._and_from.get(src, ()))

    def or_arrows(self, src: Optional[str] = None) -> list[OrArrow]:
        return list(self._or if src is None else self._or_from.get(src, ()))

    def or_targets(self, name: str) -> list[str]:
        return [a.dst for a in self._or_from.get(name, ())]

    def node_class(self, name: str) -> str:
        self._require(name)
        has_and, has_or = bool(self._and_from[name]), bool(self._or_from[name])
        if has_and and has_or:
            return MIXED
        if has_and:
            return AND_NODE
        if has_or:
            return OR_NODE
        return ATOMIC


class ValidationReport(_Record):
    __slots__ = ("errors", "classes", "sizes")

    @property
    def ok(self) -> bool:
        return not self.errors


def _min_sizes(schema: Schema) -> dict[str, float]:
    """Smallest node count of a fully expanded tree rooted at each name.

    Infinity means the name admits no finite tree at all. With a graft
    expansion the expanded node and the root of the chosen alternative
    are one and the same node, so an OR choice adds no node of its own.

    A name's size is the sum of its mandatory AND children's sizes,
    plus the least size among its OR targets, or plus 1 when it has
    none. That is never less than any size it is made of, so the names
    can be settled in order of size, as in Knuth's generalization of
    Dijkstra's algorithm ("A generalization of Dijkstra's algorithm",
    1977): a heap holds each name whose parts are settled, keyed by its
    size, and the least is settled next. A name enters the heap once,
    when its last mandatory child is settled and it has an OR target
    settled or none; the first OR target settled is its least. So each
    name and arrow is handled once.
    """
    import heapq  # only this search uses it, so importing the schema module loads none

    size: dict[str, float] = {name: math.inf for name in schema.names()}
    waiting = dict.fromkeys(size, 0)  # mandatory AND arrows to names not settled yet
    mandatory = dict.fromkeys(size, 0)  # the sizes of those settled, summed
    choice: dict[str, float] = {}  # the least OR target size, once one is settled
    parents: dict[str, list[str]] = {name: [] for name in size}
    choosers: dict[str, list[str]] = {name: [] for name in size}
    for arrow in schema.and_arrows():
        if not arrow.optional:
            waiting[arrow.src] += 1
            parents[arrow.dst].append(arrow.src)
    for arrow in schema.or_arrows():
        choosers[arrow.dst].append(arrow.src)
    heap = [(1, name) for name in size if not waiting[name] and not schema.or_targets(name)]
    heapq.heapify(heap)

    def ready(name: str) -> None:
        if not waiting[name] and (name in choice or not schema.or_targets(name)):
            heapq.heappush(heap, (mandatory[name] + choice.get(name, 1), name))

    while heap:
        value, name = heapq.heappop(heap)
        size[name] = value
        for parent in parents[name]:
            mandatory[parent] += value
            waiting[parent] -= 1
            if not waiting[parent]:
                ready(parent)
        for chooser in choosers[name]:
            if chooser not in choice:
                choice[chooser] = value
                ready(chooser)
    return size


def validate(schema: Schema) -> ValidationReport:
    """Structural sanity: classify every node and report defects.

    Defects: an OR-bearing node with a non-empty own label (the label
    would be overwritten by every choice), parallel OR arrows, and nodes
    that admit no finite tree (for example a mandatory AND loop).
    """
    errors: list[str] = []
    classes = {name: schema.node_class(name) for name in schema.names()}
    for name in schema.names():
        node = schema.node(name)
        if schema.or_targets(name) and node.label != Literal(""):
            errors.append(
                f"node {name}: a node with OR arrows must carry the empty label,"
                f" not {node.label.to_text()}"
            )
    seen: set[tuple[str, str]] = set()
    for arrow in schema.or_arrows():
        pair = (arrow.src, arrow.dst)
        if pair in seen:
            errors.append(f"parallel OR arrows {arrow.src} -> {arrow.dst}")
        seen.add(pair)
    sizes = _min_sizes(schema)
    for name in schema.names():
        if math.isinf(sizes[name]):
            errors.append(f"node {name} is useless for finite trees")
    return ValidationReport(errors, classes, sizes)


class AndConflict(_Record):
    """Two AND arrows from one node whose label patterns overlap."""

    __slots__ = ("node", "first", "second")


def check_and_condition(schema: Schema) -> list[AndConflict]:
    """AND condition: per node, AND-arrow label patterns are pairwise disjoint."""
    conflicts = []
    for name in schema.names():
        for a, b in itertools.combinations(schema.and_arrows(src=name), 2):
            if not disjoint(a.label, b.label):
                conflicts.append(AndConflict(name, a, b))
    return conflicts


def check_and_cycle_condition(schema: Schema) -> list[tuple[str, ...]]:
    """AND-cycle condition: every OR-bearing cycle passes through an AND node.

    Pairs pushed along OR arrows stop at AND nodes (no OR arrows leave
    them), so an empty result guarantees that pair propagation cannot
    circulate forever. Each offending OR arrow ``u -> v`` gets one witness:
    a shortest path from ``v`` back to ``u`` avoiding AND nodes, closed by
    the arrow and rotated to its least name. Witnesses are distinct and
    sorted; one breadth-first search per OR target keeps this polynomial.
    """
    free = {name for name in schema.names() if schema.node_class(name) != AND_NODE}
    succ = {
        name: sorted(free.intersection(
            [a.dst for a in schema.and_arrows(name)] + schema.or_targets(name)
        ))
        for name in free
    }
    witnesses: set[tuple[str, ...]] = set()
    for target in sorted({o.dst for o in schema.or_arrows()} & free):
        parent: dict[str, Optional[str]] = {target: None}
        queue = [target]
        for node in queue:
            for nxt in succ[node]:
                if nxt not in parent:
                    parent[nxt] = node
                    queue.append(nxt)
        for src in queue:
            if target in schema.or_targets(src):
                back = [src]
                while back[-1] != target:
                    back.append(parent[back[-1]])
                cycle = back[::-1]
                least = cycle.index(min(cycle))
                witnesses.add(tuple(cycle[least:] + cycle[:least]))
    return sorted(witnesses)


Pair = tuple[str, RegexSpec]


class PairConflict(_Record):
    """Two label pairs meeting at one node with overlapping patterns."""

    __slots__ = ("node", "first", "second")


class PairReport(_Record):
    __slots__ = ("pairs", "conflicts")

    @property
    def ok(self) -> bool:
        return not self.conflicts


class StuckCycles(ValueError):
    """Pair propagation refused: these OR-bearing cycles avoid every AND node."""

    def __init__(self, cycles: list[tuple[str, ...]]) -> None:
        self.cycles = cycles
        pretty = ", ".join("-".join(cycle) for cycle in cycles)
        super().__init__(f"pair propagation would circulate forever around: {pretty}")


def propagate_pairs(schema: Schema) -> PairReport:
    """Push (origin, label pattern) pairs along OR arrows and look for clashes.

    Every AND arrow seeds a pair at its origin; OR arrows carry pairs
    onward because a graft merges the refined node with the alternative's
    root, so both nodes' arrows end up on one tree node. A node where two
    accumulated pairs overlap could receive two equally labeled arrows.
    Raises StuckCycles when the AND-cycle condition fails.
    """
    stuck = check_and_cycle_condition(schema)
    if stuck:
        raise StuckCycles(stuck)
    pairs: dict[str, set[Pair]] = {name: set() for name in schema.names()}
    work: deque[tuple[str, Pair]] = deque()
    for arrow in schema.and_arrows():
        pair = (arrow.src, arrow.label)
        if pair not in pairs[arrow.src]:
            pairs[arrow.src].add(pair)
            work.append((arrow.src, pair))
    while work:
        name, pair = work.popleft()
        for arrow in schema.or_arrows(src=name):
            if pair not in pairs[arrow.dst]:
                pairs[arrow.dst].add(pair)
                work.append((arrow.dst, pair))
    conflicts = []
    for name in schema.names():
        settled = sorted(pairs[name], key=lambda p: (p[0], p[1].to_text()))
        for p, q in itertools.combinations(settled, 2):
            if not disjoint(p[1], q[1]):
                conflicts.append(PairConflict(name, p, q))
    return PairReport(pairs, conflicts)


class CountTable:
    """How many one-step expansions of one name fit a budget, for drawing one by rank.

    The expansions are ranked in a fixed order: OR choices in declaration
    order, and per choice the masks over the optional AND arrows counted
    up from 0. ``_choices`` in ``tests/reference_schema.py`` lists them in
    that order. ``roots`` lists the OR choices, or None for a name
    without one, and ``growths`` the nodes each choice and the mandatory
    AND arrows add at least. ``ands`` holds each AND arrow's target, label
    pattern and the nodes it reserves beyond the child itself, and ``bits``
    its optional arrow's mask bit, or -1 when it is mandatory. ``weights``
    holds the least growth of each optional AND arrow, in declaration
    order. ``rows[j][b]`` counts the
    subsets of the first j optional arrows that add at most b nodes: 0
    below 0, and 2**j from the row's total on. A row ends at its total or
    at ``limit``, whichever is smaller, so it holds O(min(total, budget))
    counts however large the least sizes are; ``cover`` extends the rows
    when a larger budget asks for more.
    """

    def __init__(self, schema: Schema, name: str, sizes: dict[str, float]) -> None:
        ands = schema.and_arrows(src=name)
        mandatory = sum(sizes[a.dst] for a in ands if not a.optional)
        self.label = schema.node(name).label
        self.roots = schema.or_targets(name) or [None]
        self.growths = [mandatory + (sizes[r] - 1 if r is not None else 0) for r in self.roots]
        self.ands = [(a.dst, a.label, sizes[a.dst] - 1) for a in ands]
        optional = itertools.count()
        self.bits = [next(optional) if a.optional else -1 for a in ands]
        self.weights = [sizes[a.dst] for a in ands if a.optional]
        self.rows: list[list[int]] = []
        self.limit = -1  # rows are exact up to this growth

    def cover(self, budget: int) -> None:
        """Make the rows exact for every growth up to ``budget``."""
        if budget > self.limit:
            self.rows = _subset_counts(self.weights, budget)
            self.limit = budget if budget < sum(self.weights) else math.inf

    def draw(self, rng: random.Random, room: int):
        """The drawn expansion, with at most ``room`` nodes of growth, as (OR choice
        or None, AND arrows taken); None when no expansion fits. The draw is one
        ``rng.randrange`` over the fitting expansions in the rank order: the
        choice is found by subtracting per-choice counts, and the optional arrows
        taken by unranking the mask from its highest bit down."""
        rows, weights = self.rows, self.weights
        k = len(weights)
        top, full = rows[k], 1 << k
        counts = []
        for growth in self.growths:
            b = room - growth
            counts.append(0 if b < 0 else top[b] if b < len(top) else full)
        total = sum(counts)
        if not total:
            return None
        rank = rng.randrange(total)
        choice = 0
        while rank >= counts[choice]:
            rank -= counts[choice]
            choice += 1
        if not k:
            return self.roots[choice], self.ands
        b = room - self.growths[choice]
        mask = 0
        for j in range(k - 1, -1, -1):
            row = rows[j]
            below = row[b] if b < len(row) else 1 << j
            if rank >= below:
                rank -= below
                mask |= 1 << j
                b -= weights[j]
        taken = [entry for entry, bit in zip(self.ands, self.bits) if bit < 0 or mask >> bit & 1]
        return self.roots[choice], taken


def _subset_counts(weights: list[int], limit: int) -> list[list[int]]:
    """``rows[j][b]``: the subsets of ``weights[:j]`` summing to at most b, for b
    from 0 to the smaller of ``sum(weights[:j])`` and ``limit``."""
    limit = max(limit, 0)
    rows = [[1]]
    total = 0
    for j, weight in enumerate(weights):
        prev, full = rows[-1], 1 << j
        total += weight
        rows.append([
            (prev[b] if b < len(prev) else full)
            + (0 if b < weight else prev[b - weight] if b - weight < len(prev) else full)
            for b in range(min(total, limit) + 1)
        ])
    return rows


class SchemaReport(NamedTuple):
    """Every check's result for one schema state; ``pairs`` is None when
    stuck cycles block pair propagation. ``counts`` holds each name's
    count table when every name admits a finite tree, and is empty
    otherwise."""

    structure: ValidationReport
    and_conflicts: list[AndConflict]
    stuck_cycles: list[tuple[str, ...]]
    pairs: Optional[PairReport]
    counts: dict[str, CountTable]

    @property
    def uni_labeled(self) -> bool:
        """Whether the checks guarantee that every generated tree is uni-labeled."""
        return (
            self.structure.ok and not self.and_conflicts
            and self.pairs is not None and self.pairs.ok
        )

    def summary(self) -> list[str]:
        """The findings ``wordtree schema check`` prints, the verdict last."""
        lines = [f"structure: {problem}" for problem in self.structure.errors]
        if self.structure.ok:
            lines += [
                f"AND condition violated at {c.node}: "
                f"{c.first.label.to_text()} overlaps {c.second.label.to_text()}"
                for c in self.and_conflicts
            ] or ["AND condition: OK"]
            lines += [
                "AND-cycle condition violated on cycle: " + " -> ".join(cycle)
                for cycle in self.stuck_cycles
            ] or ["AND-cycle condition: OK"]
            if self.pairs is None:
                lines.append("sufficient condition: not checked (cycle condition failed)")
            else:
                lines += [
                    f"sufficient condition violated at {c.node}: "
                    f"({c.first[0]}, {c.first[1].to_text()}) overlaps "
                    f"({c.second[0]}, {c.second[1].to_text()})"
                    for c in self.pairs.conflicts
                ] or ["sufficient condition: OK"]
        verdict = "uni-labeled family" if self.uni_labeled else "not guaranteed uni-labeled"
        return lines + [f"verdict: {verdict}"]


def analyze(schema: Schema) -> SchemaReport:
    """Every check's result for the schema, computed once per schema state.

    The schema keeps the report until its next ``add_*`` call; callers
    share it and treat it as read-only, except that ``generate_sytr``
    extends the count tables' rows when a call's budget reaches past them.
    """
    if schema._report is None:
        try:
            pairs, stuck = propagate_pairs(schema), []
        except StuckCycles as refusal:
            pairs, stuck = None, refusal.cycles
        structure = validate(schema)
        counts = (
            {name: CountTable(schema, name, structure.sizes) for name in schema.names()}
            if structure.ok else {}
        )
        schema._report = SchemaReport(structure, check_and_condition(schema), stuck, pairs, counts)
    return schema._report


def uni_labeled_family(schema: Schema) -> bool:
    """Whether the checks guarantee that every generated tree is uni-labeled."""
    return analyze(schema).uni_labeled


def generate_sytr(
    schema: Schema,
    root_name: str,
    word_source: Optional[random.Random] = None,
    node_budget: int = 500,
) -> Tree:
    """Grow a tree from ``root_name`` until no node carries a schema name.

    Each step grafts a random one-step expansion onto a pending node: the
    node is relabeled with the chosen alternative (or an instance of its
    own label pattern) and prescribed children are attached. Choices that
    could not be finished within ``node_budget`` nodes are never taken;
    if no choice fits, BudgetExceeded is raised. A schema whose family is
    not guaranteed uni-labeled is refused with ValueError.

    The expansion is drawn by rank from the name's count table in the
    schema's report, so a name with k optional AND arrows costs O(k) per
    draw, not 2**k; the draws are those of picking uniformly from the
    list of fitting expansions in the order of ``CountTable``, which the
    reference generator in ``tests/reference_schema.py`` lists. Labels and the
    arrow columns are recorded in id order as they are drawn, and one
    ``LabeledGraph.extend`` call builds the graph, validating each
    distinct word once, when the tree is complete.
    """
    report = analyze(schema)
    if not report.uni_labeled:
        raise ValueError("schema is not guaranteed uni-labeled; refusing to generate")
    rng = word_source
    if rng is None:
        import random  # only the default source needs it

        rng = random.Random(0)
    sizes = report.structure.sizes
    tables = report.counts
    for table in tables.values():
        table.cover(node_budget)
    labels = [schema.node(root_name).name]  # by node id; a schema name until expanded
    srcs: list[int] = []
    words: list[str] = []
    dsts: list[int] = []
    pending: deque[int] = deque([0])
    reserve = sizes[root_name] - 1
    while pending:
        current = pending.popleft()
        name = labels[current]
        reserve -= sizes[name] - 1
        table = tables[name]
        drawn = table.draw(rng, node_budget - len(labels) - reserve)
        if drawn is None:
            raise BudgetExceeded(
                f"no expansion of {name} fits within {node_budget} nodes"
            )
        root_label, taken = drawn
        if root_label is None:
            labels[current] = table.label.sample(rng)
        else:
            labels[current] = root_label
            pending.append(current)
            reserve += sizes[root_label] - 1
        for dst, label, reserved in taken:
            child = len(labels)
            labels.append(dst)
            srcs.append(current)
            words.append(label.sample(rng))
            dsts.append(child)
            pending.append(child)
            reserve += reserved
    g = LabeledGraph()
    g.extend(labels, srcs, words, dsts)
    return Tree(g, 0)


def _production(schema: Schema, name: str) -> str:
    node = schema.node(name)
    ands = schema.and_arrows(src=name)
    targets = schema.or_targets(name)
    own = "" if node.label == Literal("") else node.label.to_text()
    if targets:
        group = targets[0] if len(targets) == 1 else "(" + " | ".join(targets) + ")"
        own = f"{own} {group}".strip()
    number = node.number
    if number is None:
        if ands:
            raise ValueError(f"node {name}: missing numbering")
        number = 1
    parts = [(number, own)]
    for arrow in ands:
        if arrow.order is None:
            raise ValueError(f"arrow {arrow.src} -> {arrow.dst}: missing numbering")
        label = "" if arrow.label == Literal("") else arrow.label.to_text()
        if arrow.suffix:
            text = f"{arrow.dst} {label}".strip()
        else:
            text = f"{label} {arrow.dst}".strip()
        if arrow.optional:
            text = f"({text})?"
        parts.append((arrow.order, text))
    parts.sort(key=lambda item: item[0])
    right = " ".join(text for _, text in parts if text)
    return f"{name} ::= {right or chr(39) * 2}"


def export_grammar(schema: Schema) -> str:
    """One EBNF production per node, in declaration order.

    Parts are laid out by their numbers; suffix arrow labels follow the
    child name; optional parts are wrapped in (...)?; empty literals are
    omitted except for an otherwise empty right-hand side.
    """
    return "\n".join(_production(schema, name) for name in schema.names())


def _spec_to_obj(spec: RegexSpec) -> object:
    match spec:
        case Literal(word):
            return {"kind": "literal", "word": word}
        case Alternation(words):
            return {"kind": "one-of", "words": sorted(words)}
        case LowerWord():
            return {"kind": "lower-word"}
    raise TypeError(f"not a label pattern: {spec!r}")


class SchemaFileError(ValueError):
    """A stored schema ``schema_from_json`` refuses; the message starts with the JSON path."""


# What a field of a stored schema must hold: how to say it, and the test.
_OBJECT = ("an object", lambda value: isinstance(value, dict))
_LIST = ("a list", lambda value: isinstance(value, list))
_STRING = ("a string", lambda value: isinstance(value, str))
_BOOLEAN = ("true or false", lambda value: isinstance(value, bool))
_INTEGER_OR_NULL = (
    "an integer or null",
    lambda value: value is None or (isinstance(value, int) and not isinstance(value, bool)),
)
_REQUIRED = object()


def _described(value: object) -> str:
    import json  # here and in the two converters below, so importing the module loads none

    if isinstance(value, list):
        return "a list"
    if isinstance(value, dict):
        return "an object"
    return json.dumps(value)


def _checked(value: object, path: str, shape) -> object:
    expected, fits = shape
    if not fits(value):
        raise SchemaFileError(
            f"{path or 'top level'}: expected {expected}, got {_described(value)}"
        )
    return value


def _field(obj: dict, path: str, key: str, shape, default=_REQUIRED) -> object:
    """``obj[key]`` checked against ``shape``; ``default`` when the key is absent."""
    path = f"{path}.{key}" if path else key
    if key not in obj:
        if default is _REQUIRED:
            raise SchemaFileError(f"{path}: missing")
        return default
    return _checked(obj[key], path, shape)


def _objects(payload: dict, key: str, default=_REQUIRED) -> Iterator[tuple[str, dict]]:
    """Each object of the top-level list ``key``, with its path."""
    for index, item in enumerate(_field(payload, "", key, _LIST, default)):
        path = f"{key}[{index}]"
        yield path, _checked(item, path, _OBJECT)


def _built(path: str, build, *args, **options):
    """Call a pattern class or a ``Schema.add_*`` method; its refusal names the JSON path."""
    try:
        return build(*args, **options)
    except ValueError as failure:
        raise SchemaFileError(f"{path}: {failure}") from None


def _word_from_obj(word: object, path: str) -> str:
    """A literal or one-of word of a stored pattern, refused unless it can label a node."""
    if not isinstance(word, str) or not (is_pla_word(word) or is_mla_word(word)):
        raise SchemaFileError(
            f"{path}: pattern word {word!r} is neither a PLA word nor an MLA word"
        )
    return word


def _spec_from_obj(obj: dict, path: str) -> RegexSpec:
    kind = _field(obj, path, "kind", _STRING)
    if kind == "literal":
        return Literal(_word_from_obj(obj.get("word"), f"{path}.word"))
    if kind == "one-of":
        words = obj.get("words")
        if not isinstance(words, list):
            raise SchemaFileError(
                f"{path}.words: one-of words must be a list, not {_described(words)}"
            )
        words = frozenset(_word_from_obj(w, f"{path}.words[{i}]") for i, w in enumerate(words))
        return _built(f"{path}.words", Alternation, words)
    if kind == "lower-word":
        return LowerWord()
    raise SchemaFileError(f"{path}.kind: bad label pattern kind {kind!r}")


def schema_to_json(schema: Schema) -> str:
    """Serialize a schema so it can be stored and reloaded."""
    import json

    payload = {
        "nodes": [
            {
                "name": node.name,
                "label": _spec_to_obj(node.label),
                "number": node.number,
            }
            for node in (schema.node(n) for n in schema.names())
        ],
        "and_arrows": [
            {
                "from": a.src,
                "to": a.dst,
                "label": _spec_to_obj(a.label),
                "optional": a.optional,
                "order": a.order,
                "suffix": a.suffix,
            }
            for a in schema.and_arrows()
        ],
        "or_arrows": [{"from": o.src, "to": o.dst} for o in schema.or_arrows()],
    }
    return json.dumps(payload, indent=2)


def schema_from_json(text: str) -> Schema:
    """Inverse of :func:`schema_to_json`.

    Raises SchemaFileError for text that is not JSON, is nested too
    deeply to read, or does not have the shape ``schema_to_json``
    writes, and for a schema ``Schema`` refuses to build; the message
    names the JSON path of the fault.
    """
    import json

    try:
        payload = json.loads(text)
    except RecursionError:
        raise SchemaFileError("schema JSON is nested too deeply") from None
    except json.JSONDecodeError as failure:
        raise SchemaFileError(f"not JSON: {failure}") from None
    _checked(payload, "", _OBJECT)
    schema = Schema()
    for path, node in _objects(payload, "nodes"):
        name = _field(node, path, "name", _STRING)
        label = _spec_from_obj(_field(node, path, "label", _OBJECT), f"{path}.label")
        number = _field(node, path, "number", _INTEGER_OR_NULL, None)
        _built(path, schema.add_node, name, label, number)
    for path, a in _objects(payload, "and_arrows", ()):
        _built(
            path,
            schema.add_and_arrow,
            _field(a, path, "from", _STRING),
            _field(a, path, "to", _STRING),
            _spec_from_obj(_field(a, path, "label", _OBJECT), f"{path}.label"),
            optional=_field(a, path, "optional", _BOOLEAN, False),
            order=_field(a, path, "order", _INTEGER_OR_NULL, None),
            suffix=_field(a, path, "suffix", _BOOLEAN, False),
        )
    for path, o in _objects(payload, "or_arrows", ()):
        src, dst = _field(o, path, "from", _STRING), _field(o, path, "to", _STRING)
        _built(path, schema.add_or_arrow, src, dst)
    return schema


def turingol_schema() -> Schema:
    """The built-in schema for the Turingol surface language."""
    s = Schema()
    s.add_node("I", LowerWord(), number=1)
    s.add_node("OS", Literal("one-square"), number=1)
    s.add_node("DOT", Literal("."), number=1)
    s.add_node("LD", LowerWord(), number=1)
    s.add_node("DL", LowerWord(), number=1)
    s.add_node("STR", Literal("'"), number=1)
    s.add_node("A", Literal("the-tape-symbol"), number=1)
    s.add_node("SG", Literal("go"), number=1)
    s.add_node("SI", Literal("if"), number=1)
    s.add_node("SP", Literal("print"), number=1)
    s.add_node("SM", Literal("move"), number=1)
    s.add_node("SE", Literal(""), number=1)
    s.add_node("SC", Literal("{"), number=1)
    s.add_node("S", Literal(""), number=2)
    s.add_node("L", Literal(""), number=1)
    s.add_node("P", Literal("tape-alphabet"), number=1)
    s.add_and_arrow("LD", "LD", Literal(":"), optional=True, order=2)
    s.add_and_arrow("DL", "DL", Literal(","), optional=True, order=2)
    s.add_and_arrow("STR", "I", Literal("'"), order=2, suffix=True)
    s.add_and_arrow("A", "STR", Literal("is"), order=2)
    s.add_and_arrow("SG", "I", Literal("to"), order=2)
    s.add_and_arrow("SI", "A", Literal(""), order=2)
    s.add_and_arrow("SI", "S", Literal("then"), order=3)
    s.add_and_arrow("SP", "STR", Literal(""), order=2)
    s.add_and_arrow("SM", "OS", Alternation(frozenset({"left", "right"})), order=2)
    s.add_and_arrow("SC", "L", Literal("}"), order=2, suffix=True)
    s.add_and_arrow("S", "LD", Literal(":"), optional=True, order=1, suffix=True)
    s.add_and_arrow("L", "L", Literal(";"), optional=True, order=2)
    s.add_and_arrow("P", "DL", Literal("is"), order=2)
    s.add_and_arrow("P", "L", Literal(";"), order=3)
    s.add_and_arrow("P", "DOT", Literal(""), order=4)
    for target in ("SG", "SI", "SP", "SM", "SE", "SC"):
        s.add_or_arrow("S", target)
    s.add_or_arrow("L", "S")
    return s
