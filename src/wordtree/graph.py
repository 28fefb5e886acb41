"""Finite oriented labeled graph kernel.

Nodes and arrows both carry word labels. Words are drawn from the
program alphabet PLA (lowercase letters, the hyphen, and the punctuation
set ``; { } . : , '``); node labels may instead be metalanguage words
over MLA (uppercase letters and digits), which marks auxiliary nodes in
sentential trees. On top of the storage layer this module provides path
formulas (textual navigation expressions with crash-on-ambiguity
semantics), a small algebra of propositions and guarded actions, the
uni-labeledness check, and deterministic JSON/DOT export.
"""

from __future__ import annotations

import json
import math
import re
from bisect import insort
from dataclasses import dataclass
from typing import Iterable, Optional, Union

PLA_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz-;{}.:,'")
MLA_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789")

SYNTACTIC = "syntactic"
SEMANTIC = "semantic"
CONTROL = "control"
TAPE = "tape"
ARROW_KINDS = (SYNTACTIC, SEMANTIC, CONTROL, TAPE)

# A word of program text or of a tape: lowercase letters, joined by single
# hyphens. The frontend's scanner and ``parse_tape`` both use this pattern.
WORD = re.compile(r"[a-z]+(?:-[a-z]+)*")
# A word with no hyphen: bare in a path formula, a plain identifier in a program.
BARE_WORD = re.compile(r"[a-z]+")


def is_pla_word(text: str) -> bool:
    """True if every character of ``text`` is in PLA (the empty word counts)."""
    return PLA_CHARS.issuperset(text)


def is_mla_word(text: str) -> bool:
    """True if ``text`` is a non-empty word over MLA."""
    return bool(text) and MLA_CHARS.issuperset(text)


class GraphError(Exception):
    """Base class for kernel errors."""


class StartAmbiguous(GraphError):
    """The absolute start label of a path formula names zero or many nodes."""

    def __init__(self, word: str, count: int):
        super().__init__(f"start label {display_word(word)} names {count} nodes")
        self.word = word
        self.count = count


class Inapplicable(GraphError):
    """A path formula step has no arrow to follow, or more than one."""

    def __init__(self, formula: "PathFormula", at_step: int, reason: str):
        super().__init__(f"formula {formula} inapplicable at step {at_step}: {reason} arrows")
        self.formula = formula
        self.at_step = at_step
        self.reason = reason  # "none" | "multiple"


class NormalConditionViolated(GraphError):
    """A proposition or action was used outside its normal-execution condition."""

    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail


@dataclass(slots=True)
class Arrow:
    """One labeled arrow. ``kind`` partitions arrows for filtered checks."""

    src: int
    label: str
    dst: int
    kind: str


@dataclass
class Tree:
    """A labeled graph together with a distinguished root node."""

    graph: "LabeledGraph"
    root: int


class LabeledGraph:
    """Mutable finite graph of word-labeled nodes and arrows.

    Identifiers are small integers handed out sequentially and never
    reused, and nothing is deleted, so insertion order is id order:
    ``nodes()`` and ``arrows()`` list it without sorting. A label is
    validated when it first enters the graph, that is, when the label
    index (nodes by label, arrows by label) has no key for it yet; later
    uses of the same word are not checked again. Duplicate arrows (same
    endpoints, same label) are allowed at this level; uni-labeledness is
    a separate check so that violating graphs can be constructed and
    reported.

    Out-arrows are indexed by (origin, label): the key holds the first
    such arrow's id, and the overflow map holds the ids of any later
    ones, which only a graph that is not uni-labeled has. Origins and
    labels never change, so only ``add_arrow`` and ``merge`` update the
    index. A node's out-arrows and in-arrows are both listed in id
    order, also after ``set_arrow_dst`` moves an arrow.

    The nodes a graph has before anything is merged into it are its
    own; ``merge`` mounts the other graph's nodes after them, and nodes
    added later grow what was mounted. An absolute path start names
    one of the graph's own nodes, so a mounted tape never shadows a
    program word.
    """

    def __init__(self) -> None:
        self._nodes: dict[int, str] = {}
        self._arrows: dict[int, Arrow] = {}
        self._out: dict[int, list[int]] = {}
        self._in: dict[int, list[int]] = {}
        self._by_label: dict[str, set[int]] = {}
        self._arrows_by_label: dict[str, list[int]] = {}
        self._out_first: dict[tuple[int, str], int] = {}
        self._out_more: dict[tuple[int, str], list[int]] = {}
        self._next_node = 0
        self._next_arrow = 0
        self._own_end = math.inf  # ids below it are the graph's own nodes

    # -- construction ------------------------------------------------

    def add_node(self, label: str) -> int:
        """Add a node labeled by a PLA word, or by an MLA word (auxiliary node)."""
        same_label = self._by_label.get(label)
        if same_label is None:
            if not (is_pla_word(label) or is_mla_word(label)):
                raise ValueError(f"node label {label!r} is neither a PLA word nor an MLA word")
            same_label = self._by_label[label] = set()
        node = self._next_node
        self._next_node += 1
        self._nodes[node] = label
        self._out[node] = []
        self._in[node] = []
        same_label.add(node)
        return node

    def add_arrow(self, src: int, label: str, dst: int, kind: str = SYNTACTIC) -> int:
        """Add an arrow from ``src`` to ``dst``. The label must be a PLA word."""
        if src not in self._nodes:
            raise ValueError(f"arrow origin {src} is not a node of this graph")
        if dst not in self._nodes:
            raise ValueError(f"arrow destination {dst} is not a node of this graph")
        same_label = self._arrows_by_label.get(label)
        if same_label is None and not is_pla_word(label):
            raise ValueError(f"arrow label {label!r} is not a PLA word")
        if kind not in ARROW_KINDS:
            raise ValueError(f"unknown arrow kind {kind!r}")
        if same_label is None:
            same_label = self._arrows_by_label[label] = []
        arrow_id = self._next_arrow
        self._next_arrow += 1
        self._arrows[arrow_id] = Arrow(src, label, dst, kind)
        self._out[src].append(arrow_id)
        self._in[dst].append(arrow_id)
        same_label.append(arrow_id)
        if self._out_first.setdefault((src, label), arrow_id) != arrow_id:
            self._out_more.setdefault((src, label), []).append(arrow_id)
        return arrow_id

    # -- mutation ----------------------------------------------------

    def set_node_label(self, node: int, label: str) -> None:
        if label not in self._by_label and not (is_pla_word(label) or is_mla_word(label)):
            raise ValueError(f"node label {label!r} is neither a PLA word nor an MLA word")
        old = self._nodes[node]
        self._by_label[old].discard(node)
        if not self._by_label[old]:
            del self._by_label[old]
        self._nodes[node] = label
        self._by_label.setdefault(label, set()).add(node)

    def set_arrow_dst(self, arrow_id: int, dst: int) -> None:
        if dst not in self._nodes:
            raise ValueError(f"arrow destination {dst} is not a node of this graph")
        arrow = self._arrows[arrow_id]
        self._in[arrow.dst].remove(arrow_id)
        arrow.dst = dst
        insort(self._in[dst], arrow_id)

    # -- queries -----------------------------------------------------

    def node_label(self, node: int) -> str:
        return self._nodes[node]

    def nodes(self) -> list[int]:
        return list(self._nodes)

    def arrow(self, arrow_id: int) -> Arrow:
        return self._arrows[arrow_id]

    def arrows(self) -> list[tuple[int, Arrow]]:
        return list(self._arrows.items())

    def out_arrows(self, node: int, kinds: Optional[Iterable[str]] = None) -> list[tuple[int, Arrow]]:
        return self._adjacent(self._out, node, kinds)

    def in_arrows(self, node: int, kinds: Optional[Iterable[str]] = None) -> list[tuple[int, Arrow]]:
        return self._adjacent(self._in, node, kinds)

    def ends(self, node: int, sign: str, word: str, kinds: Optional[Iterable[str]] = None) -> list[int]:
        """Far ends of the ``word`` arrows leaving ``node`` ("+") or entering it ("-").

        Arrows of all kinds count unless ``kinds`` narrows them; ends come
        in the order ``out_arrows`` or ``in_arrows`` lists the arrows. This
        is the one place an arrow is followed by its label; ``follow`` and
        ``chain`` build on it. "+" is answered from the (node, label) index
        in constant time; "-" scans the node's in-arrow ids in place, and
        tape cells have at most two of them.
        """
        if sign == "+":
            key = (node, word)
            first = self._out_first.get(key)
            if first is None:
                if node not in self._nodes:
                    raise ValueError(f"{node} is not a node of this graph")
                return []
            more = self._out_more.get(key) if self._out_more else None
            if more is None:
                arrow = self._arrows[first]
                return [arrow.dst] if kinds is None or arrow.kind in kinds else []
            wanted = None if kinds is None else set(kinds)
            arrows = [self._arrows[arrow_id] for arrow_id in (first, *more)]
            return [a.dst for a in arrows if wanted is None or a.kind in wanted]
        if sign == "-":
            ids = self._in.get(node)
            if ids is None:
                raise ValueError(f"{node} is not a node of this graph")
            srcs = []
            for arrow_id in ids:
                arrow = self._arrows[arrow_id]
                if arrow.label == word and (kinds is None or arrow.kind in kinds):
                    srcs.append(arrow.src)
            return srcs
        raise ValueError(f"arrow sign must be '+' or '-', not {sign!r}")

    def follow(self, node: int, sign: str, word: str, kinds: Optional[Iterable[str]] = None) -> Optional[int]:
        """The one far end of a ``word`` arrow at ``node``, or None when there is none.

        ``sign`` and ``kinds`` are as for ``ends``. Raises ValueError
        when several such arrows leave (or enter) the node.
        """
        hits = self.ends(node, sign, word, kinds)
        if len(hits) == 1:
            return hits[0]
        if hits:
            direction = "leaving" if sign == "+" else "entering"
            raise ValueError(f"node {node} has several {display_word(word)} arrows {direction} it")
        return None

    def chain(self, node: int, sign: str, word: str, kinds: Optional[Iterable[str]] = None) -> list[int]:
        """``node``, then what ``follow`` reaches from the last node, again and again.

        The walk ends at a node with no such arrow, or where a node would
        repeat; a caller that must refuse a loop follows the last node
        once more. This is the one walk along a label chain: the ','
        alphabet chain, the ';' statement chain, the ':' label chain and
        the tape.
        """
        nodes = [node]
        seen = {node}
        step = self.follow(node, sign, word, kinds)
        while step is not None and step not in seen:
            nodes.append(step)
            seen.add(step)
            step = self.follow(step, sign, word, kinds)
        return nodes

    def _adjacent(self, table, node, kinds):
        if node not in self._nodes:
            raise ValueError(f"{node} is not a node of this graph")
        wanted = None if kinds is None else set(kinds)
        pairs = []
        for arrow_id in table[node]:
            arrow = self._arrows[arrow_id]
            if wanted is None or arrow.kind in wanted:
                pairs.append((arrow_id, arrow))
        return pairs

    def nodes_labeled(self, word: str) -> list[int]:
        return sorted(self._by_label.get(word, ()))

    def arrows_labeled(self, word: str) -> list[tuple[int, Arrow]]:
        # Ids are handed out in increasing order and labels never change,
        # so each index list is already sorted.
        ids = self._arrows_by_label.get(word, ())
        return [(arrow_id, self._arrows[arrow_id]) for arrow_id in ids]

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def arrow_count(self) -> int:
        return len(self._arrows)

    def copy(self) -> "LabeledGraph":
        dup = LabeledGraph()
        dup._nodes = dict(self._nodes)
        dup._arrows = {a: Arrow(v.src, v.label, v.dst, v.kind) for a, v in self._arrows.items()}
        dup._out = {n: list(ids) for n, ids in self._out.items()}
        dup._in = {n: list(ids) for n, ids in self._in.items()}
        dup._by_label = {w: set(ns) for w, ns in self._by_label.items()}
        dup._arrows_by_label = {w: list(ids) for w, ids in self._arrows_by_label.items()}
        dup._out_first = dict(self._out_first)
        dup._out_more = {key: list(ids) for key, ids in self._out_more.items()}
        dup._next_node = self._next_node
        dup._next_arrow = self._next_arrow
        dup._own_end = self._own_end
        return dup

    def merge(self, other: "LabeledGraph") -> dict[int, int]:
        """Copy every node and arrow of ``other``, another graph, into this graph.

        Returns the mapping from node ids of ``other`` to the new ids. The
        copies get the ids that adding ``other``'s nodes and then its arrows
        one by one, in id order, would hand out: since ids run from 0 with
        no gaps, that is each id plus this graph's next id. Labels and
        kinds were validated when ``other`` got them, so the storage is
        copied as it is. The copies are mounted, not this graph's own
        nodes: no absolute path start names them.
        """
        node_base = self._next_node
        arrow_base = self._next_arrow
        self._own_end = min(self._own_end, node_base)
        mapping = {}
        for node, label in other._nodes.items():
            new = mapping[node] = node_base + node
            self._nodes[new] = label
            self._out[new] = [arrow_base + arrow_id for arrow_id in other._out[node]]
            self._in[new] = [arrow_base + arrow_id for arrow_id in other._in[node]]
        for label, nodes in other._by_label.items():
            self._by_label.setdefault(label, set()).update(node_base + node for node in nodes)
        for arrow_id, a in other._arrows.items():
            self._arrows[arrow_base + arrow_id] = Arrow(
                node_base + a.src, a.label, node_base + a.dst, a.kind
            )
        for label, ids in other._arrows_by_label.items():
            same_label = self._arrows_by_label.setdefault(label, [])
            same_label.extend(arrow_base + arrow_id for arrow_id in ids)
        for (src, label), arrow_id in other._out_first.items():
            self._out_first[(node_base + src, label)] = arrow_base + arrow_id
        for (src, label), ids in other._out_more.items():
            self._out_more[(node_base + src, label)] = [arrow_base + arrow_id for arrow_id in ids]
        self._next_node += other._next_node
        self._next_arrow += other._next_arrow
        return mapping


# -- path formulas ---------------------------------------------------


def word_token(word: str) -> str:
    """Serialize one word of a path formula.

    Bare tokens are lowercase-letter words only; anything else (hyphens,
    punctuation, the empty word) is double-quoted, with backslash escapes
    for the quote and the backslash itself.
    """
    if BARE_WORD.fullmatch(word):
        return word
    return '"' + word.replace("\\", "\\\\").replace('"', '\\"') + '"'


def display_word(word: str) -> str:
    """Render a word for diagnostic and instruction phrases."""
    if BARE_WORD.fullmatch(word):
        return f"'{word}'"
    return word_token(word)


@dataclass(frozen=True)
class PathFormula:
    """Navigation expression: a start plus forward/backward label steps.

    ``start`` is either a word (the label that must identify exactly one
    node of the graph) or None, meaning the resolver's current node.
    Each step is a pair ("+" or "-", word): follow the unique outgoing
    arrow with that label, or walk the unique incoming one backwards.
    """

    start: Optional[str]
    steps: tuple[tuple[str, str], ...] = ()

    def __str__(self) -> str:
        head = "" if self.start is None else word_token(self.start)
        return head + "".join(sign + word_token(word) for sign, word in self.steps)


def parse_path(text: str) -> PathFormula:
    """Parse the serialized form produced by ``str(PathFormula)``."""
    pos = 0

    def take_token() -> str:
        nonlocal pos
        if pos < len(text) and text[pos] == '"':
            pos += 1
            out = []
            while pos < len(text) and text[pos] != '"':
                if text[pos] == "\\" and pos + 1 < len(text):
                    pos += 1
                out.append(text[pos])
                pos += 1
            if pos >= len(text):
                raise ValueError(f"unterminated quote in path formula {text!r}")
            pos += 1
            return "".join(out)
        match = BARE_WORD.match(text, pos)
        if not match:
            raise ValueError(f"expected a token at position {pos} in path formula {text!r}")
        pos = match.end()
        return match.group()

    start: Optional[str]
    if not text:
        raise ValueError("empty path formula")
    if text[0] in "+-":
        start = None
    else:
        start = take_token()
    steps = []
    while pos < len(text):
        sign = text[pos]
        if sign not in "+-":
            raise ValueError(f"expected + or - at position {pos} in path formula {text!r}")
        pos += 1
        steps.append((sign, take_token()))
    return PathFormula(start, tuple(steps))


def resolve(
    g: LabeledGraph,
    formula: PathFormula,
    current: Optional[int] = None,
    kinds: Optional[Iterable[str]] = None,
) -> int:
    """Resolve a path formula to a node id.

    Raises StartAmbiguous when an absolute start label names zero or
    several of the graph's own nodes (mounted ones do not count), and
    Inapplicable when a step has no arrow to follow or more than one.
    Arrows of all kinds are eligible unless ``kinds`` narrows them.
    """
    if formula.start is None:
        if current is None:
            raise ValueError("formula starts at the current node but no current node was given")
        node = current
    else:
        candidates = g._by_label.get(formula.start, ())
        if len(candidates) != 1 or max(candidates) >= g._own_end:
            candidates = [n for n in candidates if n < g._own_end]
        if len(candidates) != 1:
            raise StartAmbiguous(formula.start, len(candidates))
        (node,) = candidates
    for index, (sign, word) in enumerate(formula.steps):
        hits = g.ends(node, sign, word, kinds)
        if not hits:
            raise Inapplicable(formula, index, "none")
        if len(hits) > 1:
            raise Inapplicable(formula, index, "multiple")
        node = hits[0]
    return node


def locate(g: LabeledGraph, formula: PathFormula, current: Optional[int] = None) -> int:
    """Resolve a path formula as an executing direction does.

    Returns the node, or raises NormalConditionViolated saying why the
    path is not passable. This is the only way propositions and
    actions navigate.
    """
    try:
        return resolve(g, formula, current)
    except (StartAmbiguous, Inapplicable) as exc:
        raise NormalConditionViolated(f"path {formula} is not passable: {exc}") from exc


# -- propositions ----------------------------------------------------


@dataclass(frozen=True)
class LabelsEqual:
    p1: PathFormula
    p2: PathFormula

    def phrase(self) -> str:
        return f"the {self.p1} node label equals the {self.p2} node label"


@dataclass(frozen=True)
class NoArrowTo:
    word: str
    path: PathFormula

    def phrase(self) -> str:
        return f"no {display_word(self.word)} arrow exists to the {self.path} node"


@dataclass(frozen=True)
class NoArrowFrom:
    word: str
    path: PathFormula

    def phrase(self) -> str:
        return f"no {display_word(self.word)} arrow exists from the {self.path} node"


@dataclass(frozen=True)
class UniqueArrowExists:
    word: str

    def phrase(self) -> str:
        return f"there exists a unique {display_word(self.word)} arrow"


@dataclass(frozen=True)
class PathPassable:
    path: PathFormula

    def phrase(self) -> str:
        return f"the {self.path} path is passable"


Proposition = Union[LabelsEqual, NoArrowTo, NoArrowFrom, UniqueArrowExists, PathPassable]


def eval_proposition(g: LabeledGraph, prop: Proposition, current: Optional[int] = None) -> bool:
    """Evaluate a proposition.

    Evaluation crashes with NormalConditionViolated, rather than
    returning False, when a referenced path is impassable. PathPassable
    and UniqueArrowExists are total and never crash.
    """
    operands = _operands(g, prop, current)
    match prop:
        case LabelsEqual():
            n1, n2 = operands
            return g.node_label(n1) == g.node_label(n2)
        case NoArrowTo(word):
            return not g.ends(operands[0], "-", word)
        case NoArrowFrom(word):
            return not g.ends(operands[0], "+", word)
        case UniqueArrowExists(word):
            return len(g.arrows_labeled(word)) == 1
        case PathPassable(path):
            try:
                locate(g, path, current)
            except (NormalConditionViolated, ValueError):
                return False
            return True
    raise TypeError(f"not a proposition: {prop!r}")


# -- actions ---------------------------------------------------------


@dataclass(frozen=True)
class RelabelNode:
    target: PathFormula
    source: PathFormula

    def phrase(self) -> str:
        return f"label the {self.target} node by the {self.source} node label"


@dataclass(frozen=True)
class ReassignArrow:
    word: str
    target: PathFormula

    def phrase(self) -> str:
        return f"reassign the {display_word(self.word)} arrow to the {self.target} node"


@dataclass(frozen=True)
class CreateNodeWithArrowToTarget:
    target: PathFormula

    def phrase(self) -> str:
        return f"create a node and an arrow from it to the {self.target} node"


@dataclass(frozen=True)
class CreateNodeWithArrowFromSource:
    source: PathFormula

    def phrase(self) -> str:
        return f"create a node and an arrow from the {self.source} node to it"


@dataclass(frozen=True)
class FollowArrow:
    word: str

    def phrase(self) -> str:
        return f"follow the {display_word(self.word)} arrow"


@dataclass(frozen=True)
class Stop:
    def phrase(self) -> str:
        return "stop"


Action = Union[
    RelabelNode,
    ReassignArrow,
    CreateNodeWithArrowToTarget,
    CreateNodeWithArrowFromSource,
    FollowArrow,
    Stop,
]


def _operands(g, item, current) -> tuple:
    """Resolve what a proposition or action works on, or raise why it cannot.

    Paths come first, in field order, then arrow counts. These are all
    the normal-execution conditions of the algebra, so once this step
    succeeds, evaluating or applying the item cannot violate one.
    """
    find = _OPERANDS.get(type(item))
    if find is None:
        raise TypeError(f"not a proposition or action: {item!r}")
    return find(g, item, current)


def _unique_arrow(g, action, current) -> tuple:
    node = locate(g, action.target, current)
    hits = g.arrows_labeled(action.word)
    if len(hits) != 1:
        raise NormalConditionViolated(
            f"there exist {len(hits)} {display_word(action.word)} arrows, not a unique one"
        )
    return node, hits[0][0]


def _arrow_from_current(g, action, current) -> tuple:
    if current is None:
        raise ValueError("follow requires a current node")
    hits = g.ends(current, "+", action.word)
    if len(hits) == 1:
        return (hits[0],)
    if not hits:
        raise NormalConditionViolated(
            f"there exists no {display_word(action.word)} arrow from the current node"
        )
    raise NormalConditionViolated(
        f"there exist several {display_word(action.word)} arrows from the current node"
    )


# What each proposition and action works on: one lookup by type.
_OPERANDS = {
    FollowArrow: _arrow_from_current,
    LabelsEqual: lambda g, item, current: (locate(g, item.p1, current), locate(g, item.p2, current)),
    RelabelNode: lambda g, item, current: (
        locate(g, item.target, current),
        locate(g, item.source, current),
    ),
    NoArrowTo: lambda g, item, current: (locate(g, item.path, current),),
    NoArrowFrom: lambda g, item, current: (locate(g, item.path, current),),
    CreateNodeWithArrowToTarget: lambda g, item, current: (locate(g, item.target, current),),
    CreateNodeWithArrowFromSource: lambda g, item, current: (locate(g, item.source, current),),
    ReassignArrow: _unique_arrow,
    UniqueArrowExists: lambda g, item, current: (),
    PathPassable: lambda g, item, current: (),
    Stop: lambda g, item, current: (),
}


def apply_action(g: LabeledGraph, action: Action, current: Optional[int] = None) -> Optional[int]:
    """Apply an action and return the new current node (None after Stop).

    Created nodes and arrows are labeled by the empty word; created
    arrows are tape arrows, since the only creating instructions in the
    system expand the tape. Raises
    NormalConditionViolated outside the action's normal-execution
    condition.
    """
    operands = _operands(g, action, current)
    match action:
        case FollowArrow():
            return operands[0]
        case RelabelNode():
            target, source = operands
            g.set_node_label(target, g.node_label(source))
            return current
        case ReassignArrow():
            target, arrow_id = operands
            g.set_arrow_dst(arrow_id, target)
            return current
        case CreateNodeWithArrowToTarget():
            g.add_arrow(g.add_node(""), "", operands[0], TAPE)
            return current
        case CreateNodeWithArrowFromSource():
            g.add_arrow(operands[0], "", g.add_node(""), TAPE)
            return current
        case Stop():
            return None
    raise TypeError(f"not an action: {action!r}")


def normal_violation(
    g: LabeledGraph, item: Union[Proposition, Action], current: Optional[int] = None
) -> Optional[str]:
    """Describe the violated normal-execution condition, if any.

    Returns the detail that evaluating or applying ``item`` would raise
    as NormalConditionViolated, or None when it would raise none. This
    is the verification step of a cautious executor.
    """
    try:
        _operands(g, item, current)
    except NormalConditionViolated as violation:
        return violation.detail
    return None


# -- checks ----------------------------------------------------------


@dataclass(frozen=True)
class UniLabelViolation:
    node: int
    label: str
    arrow_ids: tuple[int, ...]


def check_uni_labeled(
    g: LabeledGraph, kinds: Optional[Iterable[str]] = None
) -> list[UniLabelViolation]:
    """Find nodes whose outgoing arrows (of the given kinds) share a label."""
    violations = []
    for node in g.nodes():
        groups: dict[str, list[int]] = {}
        for arrow_id, arrow in g.out_arrows(node, kinds):
            groups.setdefault(arrow.label, []).append(arrow_id)
        for label in sorted(groups):
            ids = groups[label]
            if len(ids) > 1:
                violations.append(UniLabelViolation(node, label, tuple(ids)))
    return violations


def elementary_cycles(successors: dict) -> list[tuple]:
    """All elementary directed cycles of a finite successor map.

    Nodes must be mutually comparable; each cycle is emitted exactly
    once, rotated to start at its least node, in lexicographic order.
    """
    nodes = set(successors)
    for dsts in successors.values():
        nodes.update(dsts)
    order = sorted(nodes)
    rank = {node: i for i, node in enumerate(order)}
    cycles: list[tuple] = []

    def search(start, node, path: list, on_path: set) -> None:
        for nxt in sorted(successors.get(node, ())):
            if rank[nxt] < rank[start] or nxt in on_path:
                continue
            if nxt == start:
                cycles.append(tuple(path))
                continue
            on_path.add(nxt)
            path.append(nxt)
            search(start, nxt, path, on_path)
            path.pop()
            on_path.remove(nxt)

    for start in order:
        search(start, start, [start], set())
    return cycles


def functional_cycles(successor: dict) -> list[tuple]:
    """The cycles of a successor map in which each node has at most one successor.

    Gives what ``elementary_cycles`` gives for ``{n: {successor[n]}}``,
    in time linear in the map's size, since each node is walked once:
    cycles rotated to start at their least node, in sorted order.
    """
    walk_of: dict = {}
    cycles: list[tuple] = []
    for walk, node in enumerate(sorted(successor)):
        path = []
        while node in successor and node not in walk_of:
            walk_of[node] = walk
            path.append(node)
            node = successor[node]
        if walk_of.get(node) == walk:
            cycle = path[path.index(node):]
            least = cycle.index(min(cycle))
            cycles.append(tuple(cycle[least:] + cycle[:least]))
    return sorted(cycles)


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


# -- export ----------------------------------------------------------

_DOT_STYLE = {SYNTACTIC: "solid", CONTROL: "bold", SEMANTIC: "dashed", TAPE: "dotted"}


def export_json(g: LabeledGraph) -> str:
    node_index = {node: i for i, node in enumerate(g.nodes())}
    payload = {
        "nodes": [{"id": node_index[n], "label": g.node_label(n)} for n in g.nodes()],
        "arrows": [
            {
                "from": node_index[a.src],
                "label": a.label,
                "to": node_index[a.dst],
                "kind": a.kind,
            }
            for _, a in g.arrows()
        ],
    }
    return json.dumps(payload)


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g: LabeledGraph) -> str:
    node_index = {node: i for i, node in enumerate(g.nodes())}
    lines = ["digraph G {"]
    for node in g.nodes():
        lines.append(f"  n{node_index[node]} [label={_dot_quote(g.node_label(node))}];")
    for _, arrow in g.arrows():
        style = _DOT_STYLE[arrow.kind]
        lines.append(
            f"  n{node_index[arrow.src]} -> n{node_index[arrow.dst]} "
            f"[label={_dot_quote(arrow.label)}, style={style}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def export(g: LabeledGraph, format: str) -> str:
    """Serialize the graph to ``dot`` or ``json`` text."""
    if format == "json":
        return export_json(g)
    if format == "dot":
        return export_dot(g)
    raise ValueError(f"unknown export format {format!r}")
