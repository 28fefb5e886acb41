"""Finite oriented labeled graph kernel.

Nodes and arrows both carry word labels. Words are drawn from the
program alphabet PLA (lowercase letters, the hyphen, and the punctuation
set ``; { } . : , '``); node labels may instead be metalanguage words
over MLA (uppercase letters and digits), which marks auxiliary nodes in
sentential trees. On top of the storage layer this module provides path
formulas (textual navigation expressions with crash-on-ambiguity
semantics), a small algebra of propositions and guarded actions, the
uni-labeledness check, and deterministic JSON/DOT export.

A graph is built by ``LabeledGraph.extend``, which takes a whole build
as parallel columns: node labels, then the origins, labels and
destinations of the arrows. It validates each distinct word once per
build, refuses a bad build before touching the graph, and then fills
each index in one loop. ``add_node`` and ``add_arrow`` are its
one-element calls; the builders that know their graph up front (the
parser, ``to_canonical``, the schema generator, the control-flow and
declaration links, the tape) stage columns and call it once.

Navigation goes by label alone: ``LabeledGraph.follow`` is the one step
along a labeled arrow, whatever its kind, and a "+" step reads the
(origin, label) index once. ``resolve`` walks a path formula's steps
through it; kinds serve listing and export. Each proposition and action
class resolves its own ``operands``, which are its normal-execution
conditions, and gives them meaning in its ``holds`` or ``apply``;
``eval_proposition`` and ``apply_action`` call those methods, which
resolve every operand before the first write, so a violation leaves the
graph as it was; ``normal_violation`` predicts it without acting.
"""

from __future__ import annotations

import json
import math
import re
from bisect import insort
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Optional, Sequence, Union

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

# The out-arrow index of every node that no arrow leaves; never written.
_NO_OUT: dict[str, int] = {}


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


class SeveralArrows(ValueError):
    """``LabeledGraph.follow`` found more than one arrow it could follow."""


class NormalConditionViolated(GraphError):
    """A proposition or action was used outside its normal-execution condition."""

    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail


@dataclass(slots=True)
class Arrow:
    """One labeled arrow. ``kind`` partitions arrows for listing and export."""

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

    Identifiers are small integers handed out sequentially from 0 and
    never reused, and nothing is deleted, so insertion order is id order:
    ``nodes()`` and ``arrows()`` list it without sorting, and labels,
    arrows and each node's arrow ids are kept in lists indexed by id.
    A label is validated when it first enters the graph, that is, when
    the label index (nodes by label, arrows by label) has no key for it
    yet; later uses of the same word are not checked again, and within
    one ``extend`` each distinct word is checked once. A refused build
    leaves the graph untouched. Duplicate arrows (same endpoints, same
    label) are allowed at this level; uni-labeledness is a separate
    check so that violating graphs can be constructed and reported.

    Navigation (``follow``, ``ends``, ``chain``, ``resolve``) goes by label
    alone, so a label a node repeats always means several arrows. Kinds
    serve the listing calls ``out_arrows``, ``in_arrows`` and
    ``check_uni_labeled``, and export.

    Out-arrows are indexed by (origin, label): each node keeps a dict
    from label to the id of its first out-arrow with that label, and
    the overflow map holds the ids of any later ones, which only a
    graph that is not uni-labeled has. Each dict lists the node's
    first arrows in id order, since labels enter it as their first
    arrows are added; all nodes that no arrow leaves share one empty
    dict, which is never written. Origins and labels never change, so
    only ``extend`` updates the index. A node's out-arrows and in-arrows
    are both listed in id order, also after ``set_arrow_dst`` moves an
    arrow.

    The nodes a graph has before ``end_own_nodes`` is called are its
    own; nodes added after that call are mounted, as a tape's cells
    and the cells it grows are. An absolute path start names one of
    the graph's own nodes, so a mounted tape never shadows a program
    word.
    """

    def __init__(self) -> None:
        self._nodes: list[str] = []  # label by node id
        self._arrows: list[Arrow] = []  # arrow by arrow id
        self._out: list[dict[str, int]] = []  # by node id: label -> first out-arrow id
        self._in: list[list[int]] = []  # in-arrow ids by node id
        self._by_label: dict[str, set[int]] = {}
        self._arrows_by_label: dict[str, list[int]] = {}
        self._out_more: dict[tuple[int, str], list[int]] = {}
        self._own_end = math.inf  # ids below it are the graph's own nodes

    # -- construction ------------------------------------------------

    def extend(
        self,
        labels: Sequence[str],
        srcs: Sequence[int] = (),
        words: Sequence[str] = (),
        dsts: Sequence[int] = (),
        kind: str = SYNTACTIC,
    ) -> None:
        """Add a node per label, then an arrow per column entry, all of ``kind``.

        The arrow columns ``srcs``, ``words`` and ``dsts`` are parallel.
        Nodes get the next ids in the order of ``labels``, then arrows
        in column order, so an arrow may end at a node of the same call.
        Each distinct word the label index does not hold yet is
        validated once, and the end ranges are checked by their least
        and greatest ids. A refused build raises the ValueError that
        adding its elements one at a time would raise first, nodes
        before arrows, and leaves the graph untouched.
        """
        if not len(srcs) == len(words) == len(dsts):
            raise ValueError("the arrow columns differ in length")
        nodes = self._nodes
        first_node = len(nodes)
        node_count = first_node + len(labels)
        if labels:
            by_label = self._by_label
            new_labels = set(labels).difference(by_label)
            bad = [w for w in new_labels if not (is_pla_word(w) or is_mla_word(w))]
            if bad:
                first_bad = next(w for w in labels if w in bad)
                raise ValueError(
                    f"node label {first_bad!r} is neither a PLA word nor an MLA word"
                )
        if words:
            new_words = set(words).difference(self._arrows_by_label)
            bad = [w for w in new_words if not is_pla_word(w)]
            if (
                bad
                or kind not in ARROW_KINDS
                or not 0 <= min(srcs) <= max(srcs) < node_count
                or not 0 <= min(dsts) <= max(dsts) < node_count
            ):
                for src, word, dst in zip(srcs, words, dsts):
                    if not 0 <= src < node_count:
                        raise ValueError(f"arrow origin {src} is not a node of this graph")
                    if not 0 <= dst < node_count:
                        raise ValueError(f"arrow destination {dst} is not a node of this graph")
                    if word in bad:
                        raise ValueError(f"arrow label {word!r} is not a PLA word")
                    if kind not in ARROW_KINDS:
                        raise ValueError(f"unknown arrow kind {kind!r}")

        if labels:
            nodes += labels
            self._in += [[] for _ in labels]
            self._out += [_NO_OUT] * len(labels)
            for word in new_labels:
                by_label[word] = set()
            for node, label in zip(range(first_node, node_count), labels):
                by_label[label].add(node)
        if words:
            arrows = self._arrows
            # One int object per id, shared by every index that holds the id.
            arrow_ids = list(range(len(arrows), len(arrows) + len(words)))
            arrows += map(Arrow, srcs, words, dsts, repeat(kind))
            ins = self._in
            outs = self._out
            by_word = self._arrows_by_label
            for word in new_words:
                by_word[word] = []
            more = self._out_more
            for arrow_id, src, word, dst in zip(arrow_ids, srcs, words, dsts):
                ins[dst].append(arrow_id)
                by_word[word].append(arrow_id)
                firsts = outs[src]
                if firsts is _NO_OUT:
                    firsts = outs[src] = {}
                if firsts.setdefault(word, arrow_id) != arrow_id:
                    more.setdefault((src, word), []).append(arrow_id)

    def add_node(self, label: str) -> int:
        """Add a node labeled by a PLA word, or by an MLA word (auxiliary node)."""
        node = len(self._nodes)
        self.extend((label,))
        return node

    def add_arrow(self, src: int, label: str, dst: int, kind: str = SYNTACTIC) -> int:
        """Add an arrow from ``src`` to ``dst``. The label must be a PLA word."""
        arrow_id = len(self._arrows)
        self.extend((), (src,), (label,), (dst,), kind)
        return arrow_id

    # -- mutation ----------------------------------------------------

    def set_node_label(self, node: int, label: str) -> None:
        if label not in self._by_label and not (is_pla_word(label) or is_mla_word(label)):
            raise ValueError(f"node label {label!r} is neither a PLA word nor an MLA word")
        old = self.node_label(node)
        self._by_label[old].discard(node)
        if not self._by_label[old]:
            del self._by_label[old]
        self._nodes[node] = label
        self._by_label.setdefault(label, set()).add(node)

    def set_arrow_dst(self, arrow_id: int, dst: int) -> None:
        if not 0 <= dst < len(self._nodes):
            raise ValueError(f"arrow destination {dst} is not a node of this graph")
        arrow = self.arrow(arrow_id)
        self._in[arrow.dst].remove(arrow_id)
        arrow.dst = dst
        insort(self._in[dst], arrow_id)

    # -- queries -----------------------------------------------------

    def node_label(self, node: int) -> str:
        if node < 0:
            raise IndexError(f"{node} is not a node of this graph")
        return self._nodes[node]

    def nodes(self) -> list[int]:
        return list(range(len(self._nodes)))

    def arrow(self, arrow_id: int) -> Arrow:
        if arrow_id < 0:
            raise IndexError(f"{arrow_id} is not an arrow of this graph")
        return self._arrows[arrow_id]

    def arrows(self) -> list[tuple[int, Arrow]]:
        return list(enumerate(self._arrows))

    def out_arrows(self, node: int, kinds: Optional[Iterable[str]] = None) -> list[tuple[int, Arrow]]:
        return self._adjacent(node, self._out_ids, kinds)

    def in_arrows(self, node: int, kinds: Optional[Iterable[str]] = None) -> list[tuple[int, Arrow]]:
        return self._adjacent(node, self._in.__getitem__, kinds)

    def _out_ids(self, node: int):
        """The ids of the arrows leaving ``node``, in id order."""
        firsts = self._out[node]
        if not self._out_more:
            return firsts.values()
        ids = list(firsts.values())
        for label in firsts:
            ids += self._out_more.get((node, label), ())
        return sorted(ids)

    def ends(self, node: int, sign: str, word: str) -> list[int]:
        """Far ends of the ``word`` arrows leaving ``node`` ("+") or entering it ("-").

        Arrows of every kind count; ends come in the order ``out_arrows``
        or ``in_arrows`` lists the arrows. This and ``follow`` are the
        places an arrow is followed by its label; ``chain`` and
        ``resolve`` build on ``follow``. "+" reads the (node, label)
        index: the first arrow, then any the node repeats the label on.
        "-" scans the node's in-arrow ids in place, and tape cells have
        at most two of them.
        """
        if not 0 <= node < len(self._nodes):
            raise ValueError(f"{node} is not a node of this graph")
        if sign == "+":
            first = self._out[node].get(word)
            if first is None:
                return []
            dsts = [self._arrows[first].dst]
            if self._out_more:
                dsts += [self._arrows[i].dst for i in self._out_more.get((node, word), ())]
            return dsts
        if sign == "-":
            srcs = []
            for arrow_id in self._in[node]:
                arrow = self._arrows[arrow_id]
                if arrow.label == word:
                    srcs.append(arrow.src)
            return srcs
        raise ValueError(f"arrow sign must be '+' or '-', not {sign!r}")

    def follow(self, node: int, sign: str, word: str) -> Optional[int]:
        """The one far end of a ``word`` arrow at ``node``, or None when there is none.

        ``sign`` is as for ``ends``. Raises SeveralArrows, a ValueError,
        when several such arrows leave (or enter) the node: a repeated
        label always means several arrows. "+" reads the (node, label)
        index once and builds no list.
        """
        if sign == "+":
            if not 0 <= node < len(self._nodes):
                raise ValueError(f"{node} is not a node of this graph")
            first = self._out[node].get(word)
            if first is None:
                return None
            if not self._out_more or (node, word) not in self._out_more:
                return self._arrows[first].dst
            direction = "leaving"
        else:
            hits = self.ends(node, sign, word)
            if len(hits) < 2:
                return hits[0] if hits else None
            direction = "entering"
        raise SeveralArrows(f"node {node} has several {display_word(word)} arrows {direction} it")

    def chain(self, node: int, sign: str, word: str) -> list[int]:
        """``node``, then what ``follow`` reaches from the last node, again and again.

        The walk ends at a node with no such arrow, or where a node would
        repeat; a caller that must refuse a loop follows the last node
        once more. This is the one walk along a label chain: the ','
        alphabet chain, the ';' statement chain, the ':' label chain and
        the tape.
        """
        nodes = [node]
        seen = {node}
        step = self.follow(node, sign, word)
        while step is not None and step not in seen:
            nodes.append(step)
            seen.add(step)
            step = self.follow(step, sign, word)
        return nodes

    def _adjacent(self, node, ids_of, kinds):
        if not 0 <= node < len(self._nodes):
            raise ValueError(f"{node} is not a node of this graph")
        wanted = None if kinds is None else set(kinds)
        pairs = []
        for arrow_id in ids_of(node):
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
        dup._nodes = list(self._nodes)
        dup._arrows = [Arrow(a.src, a.label, a.dst, a.kind) for a in self._arrows]
        dup._out = [dict(firsts) if firsts else _NO_OUT for firsts in self._out]
        dup._in = [list(ids) for ids in self._in]
        dup._by_label = {w: set(ns) for w, ns in self._by_label.items()}
        dup._arrows_by_label = {w: list(ids) for w, ids in self._arrows_by_label.items()}
        dup._out_more = {key: list(ids) for key, ids in self._out_more.items()}
        dup._own_end = self._own_end
        return dup

    def end_own_nodes(self) -> None:
        """Count the nodes added from now on as mounted, not as this graph's own."""
        self._own_end = min(self._own_end, len(self._nodes))


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


def resolve(g: LabeledGraph, formula: PathFormula, current: Optional[int] = None) -> int:
    """Resolve a path formula to a node id.

    Raises StartAmbiguous when an absolute start label names zero or
    several of the graph's own nodes (mounted ones do not count), and
    Inapplicable when a step has no arrow to follow or more than one.
    Arrows of every kind are eligible: labels alone navigate.
    """
    if formula.start is None:
        if current is None:
            raise ValueError("formula starts at the current node but no current node was given")
        node = current
    else:
        candidates = g._by_label.get(formula.start, ())
        if len(candidates) == 1:
            (node,) = candidates
            if node >= g._own_end:
                raise StartAmbiguous(formula.start, 0)
        else:
            own = [n for n in candidates if n < g._own_end]
            if len(own) != 1:
                raise StartAmbiguous(formula.start, len(own))
            (node,) = own
    follow = g.follow
    index = 0
    for sign, word in formula.steps:
        try:
            node = follow(node, sign, word)
        except SeveralArrows:
            raise Inapplicable(formula, index, "multiple") from None
        if node is None:
            raise Inapplicable(formula, index, "none")
        index += 1
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


# -- propositions and actions ---------------------------------------


class _Item:
    """What every proposition and action of the algebra has.

    ``operands`` resolves what the item works on, paths first in field
    order and then arrow counts, or raises NormalConditionViolated
    saying why it cannot. These are all the normal-execution conditions
    of the algebra. ``holds`` and ``apply`` start from the same
    operands, so once they resolve, evaluating or applying the item
    cannot violate one. ``holds`` writes nothing and ``apply`` writes
    only after they resolve, so a violation leaves the graph untouched.
    An action whose ``ends_step`` is true ends an executor step when it
    is performed.
    """

    ends_step = False

    def operands(self, g: "LabeledGraph", current: Optional[int]) -> tuple:
        return ()

    def holds(self, g: "LabeledGraph", current: Optional[int]) -> bool:
        self.operands(g, current)
        raise TypeError(f"not a proposition: {self!r}")

    def apply(self, g: "LabeledGraph", current: Optional[int]) -> Optional[int]:
        self.operands(g, current)
        raise TypeError(f"not an action: {self!r}")


def _no_arrow(g: LabeledGraph, node: int, sign: str, word: str) -> bool:
    try:
        return g.follow(node, sign, word) is None
    except SeveralArrows:
        return False


@dataclass(frozen=True)
class LabelsEqual(_Item):
    p1: PathFormula
    p2: PathFormula

    def phrase(self) -> str:
        return f"the {self.p1} node label equals the {self.p2} node label"

    def operands(self, g, current):
        return locate(g, self.p1, current), locate(g, self.p2, current)

    def holds(self, g, current):
        n1, n2 = self.operands(g, current)
        return g.node_label(n1) == g.node_label(n2)


@dataclass(frozen=True)
class NoArrowTo(_Item):
    word: str
    path: PathFormula

    def phrase(self) -> str:
        return f"no {display_word(self.word)} arrow exists to the {self.path} node"

    def operands(self, g, current):
        return (locate(g, self.path, current),)

    def holds(self, g, current):
        return _no_arrow(g, self.operands(g, current)[0], "-", self.word)


@dataclass(frozen=True)
class NoArrowFrom(_Item):
    word: str
    path: PathFormula

    def phrase(self) -> str:
        return f"no {display_word(self.word)} arrow exists from the {self.path} node"

    def operands(self, g, current):
        return (locate(g, self.path, current),)

    def holds(self, g, current):
        return _no_arrow(g, self.operands(g, current)[0], "+", self.word)


@dataclass(frozen=True)
class UniqueArrowExists(_Item):
    word: str

    def phrase(self) -> str:
        return f"there exists a unique {display_word(self.word)} arrow"

    def holds(self, g, current):
        return len(g.arrows_labeled(self.word)) == 1


@dataclass(frozen=True)
class PathPassable(_Item):
    path: PathFormula

    def phrase(self) -> str:
        return f"the {self.path} path is passable"

    def holds(self, g, current):
        try:
            locate(g, self.path, current)
        except (NormalConditionViolated, ValueError):
            return False
        return True


Proposition = Union[LabelsEqual, NoArrowTo, NoArrowFrom, UniqueArrowExists, PathPassable]


@dataclass(frozen=True)
class RelabelNode(_Item):
    target: PathFormula
    source: PathFormula

    def phrase(self) -> str:
        return f"label the {self.target} node by the {self.source} node label"

    def operands(self, g, current):
        return locate(g, self.target, current), locate(g, self.source, current)

    def apply(self, g, current):
        target, source = self.operands(g, current)
        g.set_node_label(target, g.node_label(source))
        return current


@dataclass(frozen=True)
class ReassignArrow(_Item):
    word: str
    target: PathFormula

    def phrase(self) -> str:
        return f"reassign the {display_word(self.word)} arrow to the {self.target} node"

    def operands(self, g, current):
        node = locate(g, self.target, current)
        hits = g.arrows_labeled(self.word)
        if len(hits) != 1:
            raise NormalConditionViolated(
                f"there exist {len(hits)} {display_word(self.word)} arrows, not a unique one"
            )
        return node, hits[0][0]

    def apply(self, g, current):
        target, arrow_id = self.operands(g, current)
        g.set_arrow_dst(arrow_id, target)
        return current


@dataclass(frozen=True)
class CreateNodeWithArrowToTarget(_Item):
    target: PathFormula

    def phrase(self) -> str:
        return f"create a node and an arrow from it to the {self.target} node"

    def operands(self, g, current):
        return (locate(g, self.target, current),)

    def apply(self, g, current):
        target = self.operands(g, current)[0]
        g.add_arrow(g.add_node(""), "", target, TAPE)
        return current


@dataclass(frozen=True)
class CreateNodeWithArrowFromSource(_Item):
    source: PathFormula

    def phrase(self) -> str:
        return f"create a node and an arrow from the {self.source} node to it"

    def operands(self, g, current):
        return (locate(g, self.source, current),)

    def apply(self, g, current):
        source = self.operands(g, current)[0]
        g.add_arrow(source, "", g.add_node(""), TAPE)
        return current


@dataclass(frozen=True)
class FollowArrow(_Item):
    word: str
    ends_step = True

    def phrase(self) -> str:
        return f"follow the {display_word(self.word)} arrow"

    def operands(self, g, current):
        if current is None:
            raise ValueError("follow requires a current node")
        try:
            node = g.follow(current, "+", self.word)
        except SeveralArrows:
            raise NormalConditionViolated(
                f"there exist several {display_word(self.word)} arrows from the current node"
            ) from None
        if node is None:
            raise NormalConditionViolated(
                f"there exists no {display_word(self.word)} arrow from the current node"
            )
        return (node,)

    def apply(self, g, current):
        return self.operands(g, current)[0]


@dataclass(frozen=True)
class Stop(_Item):
    ends_step = True

    def phrase(self) -> str:
        return "stop"

    def apply(self, g, current):
        return None


Action = Union[
    RelabelNode,
    ReassignArrow,
    CreateNodeWithArrowToTarget,
    CreateNodeWithArrowFromSource,
    FollowArrow,
    Stop,
]


def _refuse_foreign(item) -> None:
    """Raise TypeError unless ``item`` belongs to the algebra."""
    if not isinstance(item, _Item):
        raise TypeError(f"not a proposition or action: {item!r}") from None


def eval_proposition(g: LabeledGraph, prop: Proposition, current: Optional[int] = None) -> bool:
    """Evaluate a proposition.

    Evaluation crashes with NormalConditionViolated, rather than
    returning False, when a referenced path is impassable. PathPassable
    and UniqueArrowExists are total and never crash.
    """
    try:
        return prop.holds(g, current)
    except AttributeError:
        _refuse_foreign(prop)
        raise


def apply_action(g: LabeledGraph, action: Action, current: Optional[int] = None) -> Optional[int]:
    """Apply an action and return the new current node (None after Stop).

    Created nodes and arrows are labeled by the empty word; created
    arrows are tape arrows, since the only creating instructions in the
    system expand the tape. Raises
    NormalConditionViolated outside the action's normal-execution
    condition.
    """
    try:
        return action.apply(g, current)
    except AttributeError:
        _refuse_foreign(action)
        raise


def normal_violation(
    g: LabeledGraph, item: Union[Proposition, Action], current: Optional[int] = None
) -> Optional[str]:
    """Describe the violated normal-execution condition, if any.

    Returns the detail that evaluating or applying ``item`` would raise
    as NormalConditionViolated, or None when it would raise none. It
    resolves the item's operands as evaluating or applying it would,
    without acting; the executor needs no such check, since the item
    resolves them itself before its first write.
    """
    try:
        item.operands(g, current)
    except NormalConditionViolated as violation:
        return violation.detail
    except AttributeError:
        _refuse_foreign(item)
        raise
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


def functional_cycles(successor: dict) -> list[tuple]:
    """The cycles of a successor map in which each node has at most one successor.

    Each node is walked once, so this takes time linear in the map's size.
    The cycles come rotated to start at their least node, in sorted order:
    the elementary cycles of ``{n: {successor[n]}}``.
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


# -- export ----------------------------------------------------------

_DOT_STYLE = {SYNTACTIC: "solid", CONTROL: "bold", SEMANTIC: "dashed", TAPE: "dotted"}


def export_json(g: LabeledGraph) -> str:
    payload = {
        "nodes": [{"id": n, "label": g.node_label(n)} for n in g.nodes()],
        "arrows": [
            {
                "from": a.src,
                "label": a.label,
                "to": a.dst,
                "kind": a.kind,
            }
            for _, a in g.arrows()
        ],
    }
    return json.dumps(payload)


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g: LabeledGraph) -> str:
    lines = ["digraph G {"]
    for node in g.nodes():
        lines.append(f"  n{node} [label={_dot_quote(g.node_label(node))}];")
    for _, arrow in g.arrows():
        style = _DOT_STYLE[arrow.kind]
        lines.append(
            f"  n{arrow.src} -> n{arrow.dst} [label={_dot_quote(arrow.label)}, style={style}];"
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
