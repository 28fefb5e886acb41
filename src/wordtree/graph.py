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
destinations of the arrows. It validates each distinct word it has not
validated before, refuses a bad build before touching the graph,
appends the arrows to the graph's own columns and then fills the
out-arrow and arrow label indexes in one loop. ``add_node`` and
``add_arrow`` are its one-element calls; the builders that know their
graph up front (the parser, ``to_canonical``, the schema generator, the
control-flow and declaration links, the tape) stage columns and call it
once. Two indexes are built only when first read: the in-arrow ids of
every node, on the first "-" step or in-arrow listing, which a check
never takes, and the own nodes of a word, when a path start, ``settle``
or ``nodes_labeled`` names it. ``extend`` keeps the in-arrow index
current once built; the label index is a memo, which ``extend`` and
``set_node_label`` drop whenever they add or relabel an own node.

Arrows are stored as four parallel columns (origin, label, destination,
kind), not as one object each: an arrow adds list entries, but no
object the cyclic garbage collector has to track. The listings (``arrow``,
``arrows``, ``out_arrows``, ``in_arrows``, ``arrows_labeled``) build
read-only ``Arrow`` records on demand. The check path builds none: it
reads the columns through ``ends_labeled``, ``pairs_labeled``,
``ends_of_kind`` and the navigation calls.

Navigation goes by label alone: ``LabeledGraph.follow`` is the one step
along a labeled arrow, whatever its kind. ``_walk`` takes a path's steps
where each has one arrow, reading the (origin, label) index for a "+"
step and the node's in-arrow ids in place for a "-" one; ``resolve``,
``settle``, the readers and ``FollowArrow`` step through it, and where
it fails, ``_failed_step`` takes the steps again through ``follow`` to
name the failing one. Kinds serve the column readers and export.

An item's one bound form, ``bind_holds`` or ``bind_apply``, is a
function (g, current) built once from its fields, each path read
through its ``reader``. It is the one statement of the item's
normal-execution conditions, raising NormalConditionViolated where one
fails; ``eval_proposition`` and ``apply_action`` call it, and the
executor folds it into one function per instruction. A reader of a
``Settled`` path reads a single remaining "+" step from the index in
place, walks longer rests through ``_walk``, and defers to ``locate``
where a step has no arrow or several, so every failure reads as it
would through ``resolve``. A bound form resolves every path before its
first write, so a violation leaves the graph as it was;
``normal_violation`` reports one by evaluating a proposition, or by
applying an action to a copy. ``settle`` resolves the program side of a
path formula once, into a ``Settled`` record, and ``FollowArrowTo`` is
a follow bound to its target: the executor builds both at install,
for the parts of a step a run never changes.
"""

from __future__ import annotations

import math
import re
from bisect import insort
from itertools import compress, repeat
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Sequence, Union

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


class Arrow(tuple):
    """One labeled arrow, ``Arrow((src, label, dst, kind))``, as a listing reads it.

    The graph keeps no arrow objects: each listing builds its records
    from the graph's columns, so a record is a snapshot. It is a tuple
    and cannot be changed, and a record fetched before ``set_arrow_dst``
    keeps the old destination. Building one is a single call into the
    tuple type, which keeps listings cheap. ``kind`` partitions arrows
    for listing and export.
    """

    __slots__ = ()

    src = property(itemgetter(0), doc="The origin node.")
    label = property(itemgetter(1), doc="The arrow's word.")
    dst = property(itemgetter(2), doc="The destination node.")
    kind = property(itemgetter(3), doc="One of ARROW_KINDS.")

    def __repr__(self) -> str:
        return "Arrow(src=%r, label=%r, dst=%r, kind=%r)" % self


class Tree(NamedTuple):
    """A labeled graph together with a distinguished root node."""

    graph: "LabeledGraph"
    root: int


class LabeledGraph:
    """Mutable finite graph of word-labeled nodes and arrows.

    Identifiers are small integers handed out sequentially from 0 and
    never reused, and nothing is deleted, so insertion order is id order:
    ``nodes()`` and ``arrows()`` list it without sorting, and node
    labels, arrows and each node's arrow ids are kept in lists indexed
    by id. An arrow is stored as one entry in each of four parallel
    columns, its origin, label, destination and kind; no object stands
    for it. ``arrow``, ``arrows``, ``out_arrows``, ``in_arrows`` and
    ``arrows_labeled`` build ``Arrow`` records from the columns when
    they are called. ``pairs_labeled``, ``ends_labeled`` and
    ``ends_of_kind`` read the columns and build none, and so do
    ``follow``, ``ends``, ``chain`` and ``resolve``.

    A node label is validated once per graph: the graph keeps the set of
    node labels it has validated, whether or not a node still carries
    one. An arrow label is validated when the arrow label index has no
    key for it yet. Within one ``extend`` each distinct word is checked
    once. A refused build leaves the graph untouched. Duplicate arrows
    (same endpoints, same label) are allowed at this level;
    uni-labeledness is a separate check so that violating graphs can be
    constructed and reported.

    Navigation (``follow``, ``ends``, ``chain``, and ``_walk`` for paths)
    goes by label alone, so a label a node repeats always means several
    arrows, and ``check_uni_labeled`` counts every arrow too. Kinds serve
    the listing calls, ``ends_of_kind`` and export.

    Out-arrows are indexed by (origin, label): each node keeps a dict
    from label to the id of its first out-arrow with that label, and
    the overflow map holds the ids of any later ones, which only a
    graph that is not uni-labeled has. Each dict lists the node's
    first arrows in id order, since labels enter it as their first
    arrows are added; all nodes that no arrow leaves share one empty
    dict, which is never written and which a deep copy or unpickled
    graph shares again. Origins and labels never change, so only
    ``extend`` updates the index. A node's out-arrows and in-arrows are
    both listed in id order, also after ``set_arrow_dst`` moves an
    arrow.

    In-arrows are indexed by destination, once something reads them:
    ``_in`` is None until a "-" step (``ends``, ``ends_of_kind``,
    ``follow``, a path's walk) or ``in_arrows``, ``set_arrow_dst`` or a
    deep copy asks for it, and ``_ins`` then builds it in one pass over
    the destinations. From then on ``extend`` and ``set_arrow_dst`` keep
    it current. A check takes no "-" step, so a checked program has none.

    ``copy.deepcopy`` copies the columns and indexes list by list
    (``__deepcopy__``) and shares the words and ids they hold, so a
    copy costs a few list copies per node rather than a walk over
    every object; ``execute_program`` mounts each tape on one. It
    builds the original's in-arrow index first, so a kept program
    builds it once and each copy copies it.

    The nodes a graph has before ``end_own_nodes`` is called are its
    own; nodes added after that call are mounted, as a tape's cells
    and the cells it grows are. An absolute path start names one of
    the graph's own nodes, so a mounted tape never shadows a program
    word. The node label index is a memo of own nodes, for the words
    asked for: a ``nodes_labeled``, ``resolve`` or ``settle`` that
    names a word it lacks scans the own nodes once for it
    (``_labeled``), and ``extend`` and ``set_node_label`` clear it
    whenever they add or relabel an own node. A mounted node never
    enters or clears it, so ``resolve`` finds an absolute start in one
    lookup whatever words the cells carry, and ``nodes_labeled`` lists
    no mounted node.
    """

    def __init__(self) -> None:
        self._nodes: list[str] = []  # label by node id
        # The arrow columns, by arrow id.
        self._src: list[int] = []
        self._label: list[str] = []
        self._dst: list[int] = []
        self._kind: list[str] = []
        self._out: list[dict[str, int]] = []  # by node id: label -> first out-arrow id
        self._in: Optional[list[list[int]]] = None  # in-arrow ids by node id, once read
        self._by_label: dict[str, set[int]] = {}  # own nodes by label, for each word asked
        self._validated: set[str] = set()  # the node labels validated so far
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
        Each distinct node label the graph has not validated yet, and
        each distinct arrow label the arrow label index does not hold
        yet, is validated once, and the end ranges are checked by their
        least and greatest ids. A refused build raises the ValueError that
        adding its elements one at a time would raise first, nodes
        before arrows, and leaves the graph untouched.
        """
        arrow_count = len(words)
        if not len(srcs) == arrow_count == len(dsts):
            raise ValueError("the arrow columns differ in length")
        nodes = self._nodes
        first_node = len(nodes)
        node_count = first_node + len(labels)
        if labels:
            validated = self._validated
            new_labels = set(labels).difference(validated)
            bad = new_labels and {w for w in new_labels if not (is_pla_word(w) or is_mla_word(w))}
            if bad:
                first_bad = next(w for w in labels if w in bad)
                raise ValueError(
                    f"node label {first_bad!r} is neither a PLA word nor an MLA word"
                )
        if arrow_count:
            by_word = self._arrows_by_label
            new_words = set(words).difference(by_word)
            bad = new_words and {w for w in new_words if not is_pla_word(w)}
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

        ins = self._in
        if labels:
            nodes += labels
            if ins is not None:
                ins += [[] for _ in labels]
            self._out += [_NO_OUT] * len(labels)
            if new_labels:
                validated |= new_labels
            if first_node < self._own_end:  # mounted nodes stay out of the index
                self._by_label.clear()
        if arrow_count:
            first_arrow = len(self._src)
            # One int object per id, shared by every index that holds the id.
            arrow_ids = range(first_arrow, first_arrow + arrow_count)
            self._src += srcs
            self._label += words
            self._dst += dsts
            self._kind += repeat(kind, arrow_count)
            outs = self._out
            for word in new_words:
                by_word[word] = []
            more = self._out_more
            for arrow_id, src, word in zip(arrow_ids, srcs, words):
                by_word[word].append(arrow_id)
                firsts = outs[src]
                if firsts is _NO_OUT:
                    firsts = outs[src] = {}
                if firsts.setdefault(word, arrow_id) != arrow_id:
                    more.setdefault((src, word), []).append(arrow_id)
            if ins is not None:
                for arrow_id, dst in zip(arrow_ids, dsts):
                    ins[dst].append(arrow_id)

    def add_node(self, label: str) -> int:
        """Add a node labeled by a PLA word, or by an MLA word (auxiliary node)."""
        node = len(self._nodes)
        self.extend((label,))
        return node

    def add_arrow(self, src: int, label: str, dst: int, kind: str = SYNTACTIC) -> int:
        """Add an arrow from ``src`` to ``dst``. The label must be a PLA word."""
        arrow_id = len(self._src)
        self.extend((), (src,), (label,), (dst,), kind)
        return arrow_id

    # -- mutation ----------------------------------------------------

    def set_node_label(self, node: int, label: str) -> None:
        new = label not in self._validated
        if new and not (is_pla_word(label) or is_mla_word(label)):
            raise ValueError(f"node label {label!r} is neither a PLA word nor an MLA word")
        self.node_label(node)  # refuses a negative id
        self._nodes[node] = label
        if new:
            self._validated.add(label)
        if node < self._own_end:  # mounted nodes stay out of the index
            self._by_label.clear()

    def set_arrow_dst(self, arrow_id: int, dst: int) -> None:
        if not 0 <= dst < len(self._nodes):
            raise ValueError(f"arrow destination {dst} is not a node of this graph")
        if arrow_id < 0:
            raise IndexError(f"{arrow_id} is not an arrow of this graph")
        ins = self._ins()
        ins[self._dst[arrow_id]].remove(arrow_id)
        self._dst[arrow_id] = dst
        insort(ins[dst], arrow_id)

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
        return Arrow(
            (self._src[arrow_id], self._label[arrow_id], self._dst[arrow_id], self._kind[arrow_id])
        )

    def arrows(self) -> list[tuple[int, Arrow]]:
        return list(enumerate(map(Arrow, zip(self._src, self._label, self._dst, self._kind))))

    def out_arrows(self, node: int) -> list[tuple[int, Arrow]]:
        if not 0 <= node < len(self._nodes):
            raise ValueError(f"{node} is not a node of this graph")
        return self._records(self._out_ids(node))

    def in_arrows(self, node: int) -> list[tuple[int, Arrow]]:
        if not 0 <= node < len(self._nodes):
            raise ValueError(f"{node} is not a node of this graph")
        return self._records(self._ins()[node])

    def _ins(self) -> list[list[int]]:
        """Each node's in-arrow ids, in id order: built in one pass over the destinations
        on the first call, and kept current from then on by ``extend`` and ``set_arrow_dst``."""
        ins = self._in
        if ins is None:
            ins = self._in = [[] for _ in self._nodes]
            for arrow_id, dst in enumerate(self._dst):
                ins[dst].append(arrow_id)
        return ins

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
        or ``in_arrows`` lists the arrows. This, ``follow``, ``_walk``
        and the one-step ``reader`` are the places an arrow is followed
        by its label; ``chain`` and ``_failed_step`` build on ``follow``.
        "+" reads the (node, label) index: the first arrow, then any the
        node repeats the label on.
        "-" scans the node's in-arrow ids in place, and tape cells have
        at most two of them.
        """
        if not 0 <= node < len(self._nodes):
            raise ValueError(f"{node} is not a node of this graph")
        if sign == "+":
            first = self._out[node].get(word)
            if first is None:
                return []
            dst = self._dst
            dsts = [dst[first]]
            if self._out_more:
                dsts += [dst[i] for i in self._out_more.get((node, word), ())]
            return dsts
        if sign == "-":
            labels, srcs = self._label, self._src
            ends = []
            for arrow_id in self._ins()[node]:
                if labels[arrow_id] == word:
                    ends.append(srcs[arrow_id])
            return ends
        raise ValueError(f"arrow sign must be '+' or '-', not {sign!r}")

    def ends_of_kind(self, node: int, sign: str, kind: str) -> list[int]:
        """Far ends of the ``kind`` arrows leaving ``node`` ("+") or entering it ("-").

        Whatever their labels; ends come in the order ``out_arrows`` or
        ``in_arrows`` lists the arrows. Reads the columns and builds no
        Arrow record.
        """
        if not 0 <= node < len(self._nodes):
            raise ValueError(f"{node} is not a node of this graph")
        if sign == "+":
            ids, far = self._out_ids(node), self._dst
        elif sign == "-":
            ids, far = self._ins()[node], self._src
        else:
            raise ValueError(f"arrow sign must be '+' or '-', not {sign!r}")
        kinds = self._kind
        ends = []
        for arrow_id in ids:
            if kinds[arrow_id] == kind:
                ends.append(far[arrow_id])
        return ends

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
                return self._dst[first]
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

    def _records(self, ids) -> list[tuple[int, Arrow]]:
        """An (id, Arrow) pair per id in ``ids``, each record read from the columns."""
        src, label, dst, kind = self._src, self._label, self._dst, self._kind
        pairs = []  # a loop, since most lists are a node's one or two arrows
        for i in ids:
            pairs.append((i, Arrow((src[i], label[i], dst[i], kind[i]))))
        return pairs

    def nodes_labeled(self, word: str) -> list[int]:
        """The graph's own nodes labeled ``word``, in id order; mounted nodes are not listed."""
        return sorted(self._labeled(word))

    def _labeled(self, word: str) -> set[int]:
        """The own nodes labeled ``word``: found by one scan of the own nodes, and kept
        until ``extend`` or ``set_node_label`` adds or relabels an own node."""
        members = self._by_label.get(word)
        if members is None:
            nodes = self._nodes
            own = range(min(self._own_end, len(nodes)))  # the scan stops at the mounted nodes
            members = self._by_label[word] = set(compress(own, map(word.__eq__, nodes)))
        return members

    def arrows_labeled(self, word: str) -> list[tuple[int, Arrow]]:
        # Ids are handed out in increasing order and labels never change,
        # so each index list is already sorted.
        return self._records(self._arrows_by_label.get(word, ()))

    def pairs_labeled(self, word: str) -> list[tuple[int, int]]:
        """The (origin, destination) of each ``word`` arrow, in id order.

        As ``arrows_labeled`` lists the arrows, read from the label
        index and the columns without building an Arrow record.
        """
        src, dst = self._src, self._dst
        return [(src[i], dst[i]) for i in self._arrows_by_label.get(word, ())]

    def ends_labeled(self, word: str) -> dict[int, int]:
        """The end of each node's first ``word`` arrow, by node: where ``follow`` goes."""
        src, dst = self._src, self._dst
        return {src[i]: dst[i] for i in reversed(self._arrows_by_label.get(word, ()))}

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def arrow_count(self) -> int:
        return len(self._src)

    def __deepcopy__(self, memo: dict) -> "LabeledGraph":
        """A graph of the same class that shares no column or index with this one.

        Each column and index is copied one level down; the words and
        ids in them are immutable and stay shared, and so does
        ``_NO_OUT``. Attributes a subclass adds are not copied.
        """
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        # Set in ``__init__``'s order, never through ``__dict__``, so the
        # copy keeps the attribute layout that makes reading it fast.
        clone._nodes = self._nodes[:]
        clone._src = self._src[:]
        clone._label = self._label[:]
        clone._dst = self._dst[:]
        clone._kind = self._kind[:]
        clone._out = [firsts.copy() if firsts else _NO_OUT for firsts in self._out]
        clone._in = list(map(list.copy, self._ins()))
        clone._by_label = {word: nodes.copy() for word, nodes in self._by_label.items()}
        clone._validated = self._validated.copy()
        clone._arrows_by_label = {word: ids[:] for word, ids in self._arrows_by_label.items()}
        clone._out_more = {key: ids[:] for key, ids in self._out_more.items()}
        clone._own_end = self._own_end
        return clone

    def __setstate__(self, state: dict) -> None:
        """Rebuild from ``pickle``, sharing ``_NO_OUT`` again.

        The pickled state holds one ordinary empty dict in place of the
        sentinel; left shared, an arrow added from one arrowless node
        would show up on all of them. Each attribute is set on its own,
        as in ``__deepcopy__``, so the graph reads as fast as a built one.
        """
        for name, value in state.items():
            setattr(self, name, value)
        self._out = [firsts or _NO_OUT for firsts in self._out]

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


class PathFormula(NamedTuple):
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


class Settled(NamedTuple):
    """A path formula whose program-side prefix ``settle`` resolved once.

    The first ``taken`` steps of ``formula`` lead to ``node`` (its start
    node when ``taken`` is 0); ``rest`` holds the steps after them,
    which ``resolve`` and its ``reader`` take from ``node`` through
    ``_walk`` on every call. Its text is the formula's, so a phrase or
    a report that shows it reads as the formula's does.
    """

    formula: PathFormula
    node: int
    taken: int
    rest: tuple[tuple[str, str], ...]

    def __str__(self) -> str:
        return str(self.formula)


def settle(
    g: LabeledGraph, formula: PathFormula, current: Optional[int] = None
) -> Union[PathFormula, Settled]:
    """Resolve the program side of ``formula`` once: its start and its steps among own nodes.

    Walks from the start (the own node an absolute start names, else
    ``current``) a step at a time through ``_walk``, while each reaches
    an own node, and returns the ``Settled`` record of where it stopped.
    It stops before a step that reaches a mounted node, so "+tape" is
    never settled, and before one ``_walk`` cannot take, which each call
    then takes again. It returns ``formula`` itself when
    nothing settles: an absolute start that names no own node or
    several, or a relative one not at an own node or taking no step. A
    settled relative formula resolves from ``current`` wherever it is
    resolved, so it serves the item of that node alone.

    This is sound because a run writes only the tape: an own node keeps
    its label and its arrows, apart from the root's one 'tape' arrow
    that the mount adds, so a settled step reaches at every call the
    node it reached here (``test_a_run_writes_only_the_tape`` pins it).
    """
    own_end = min(g._own_end, len(g._nodes))
    if formula.start is None:
        if current is None or not 0 <= current < own_end:
            return formula
        node = current
    else:
        candidates = g._labeled(formula.start)  # own nodes only
        if len(candidates) != 1:
            return formula
        (node,) = candidates
    taken = 0
    for step in formula.steps:
        reached = _walk(g, node, (step,))
        if reached is None or reached >= own_end:
            break
        node = reached
        taken += 1
    if formula.start is None and not taken:
        return formula
    return Settled(formula, node, taken, formula.steps[taken:])


def _walk(g: LabeledGraph, node: int, steps) -> Optional[int]:
    """Where ``steps`` lead from ``node`` when each has one arrow; None when one has not.

    Every path read steps here: ``resolve``, ``settle``, ``FollowArrow``
    and each ``reader`` whose rest is not a single "+" step. A "+" step
    reads the (origin, label) index: the first arrow, and the overflow
    map for a repeat. A "-" step scans the node's in-arrow ids in place,
    and tape cells have at most two. A step with no arrow, several arrows
    or no sign gives None, and ``_failed_step`` names it. ``node`` must
    be a node of ``g``.
    """
    outs, dsts, more = g._out, g._dst, g._out_more
    for sign, word in steps:
        if sign == "+":
            first = outs[node].get(word)
            if first is None or (more and (node, word) in more):
                return None
            node = dsts[first]
        elif sign == "-":
            labels = g._label
            found = None
            for arrow_id in (g._in or g._ins())[node]:  # a run's graph has it built
                if labels[arrow_id] == word:
                    if found is not None:
                        return None
                    found = arrow_id
            if found is None:
                return None
            node = g._src[found]
        else:
            return None
    return node


def _failed_step(g: LabeledGraph, node: int, steps) -> tuple[int, str]:
    """Where and why ``_walk`` failed: the step's index, and "none" or "multiple" arrows.

    The one path-layer call of ``follow``, which refuses an id that is no node.
    """
    for index, (sign, word) in enumerate(steps):
        try:
            node = g.follow(node, sign, word)
        except SeveralArrows:
            return index, "multiple"
        if node is None:
            return index, "none"
    raise AssertionError("_walk failed where every step has one arrow")


def resolve(
    g: LabeledGraph, formula: Union[PathFormula, Settled], current: Optional[int] = None
) -> int:
    """Resolve a path formula to a node id.

    Raises StartAmbiguous when an absolute start label names zero or
    several of the graph's own nodes (mounted ones do not count), and
    Inapplicable when a step has no arrow to follow or more than one.
    Arrows of every kind are eligible: labels alone navigate.

    A ``Settled`` formula starts at its settled node and takes only
    the steps left, and a failure names the whole formula and the
    step's index in it; one with no step left is its node.

    The steps go through ``_walk``. When it finds no single arrow for a
    step, or the start is an id that is no node, ``_failed_step`` names
    the step that failed or refuses the id.
    """
    if type(formula) is Settled:
        node, index, steps = formula.node, formula.taken, formula.rest
        formula = formula.formula
    else:
        if formula.start is None:
            if current is None:
                raise ValueError(
                    "formula starts at the current node but no current node was given"
                )
            node = current
        else:
            candidates = g._labeled(formula.start)  # own nodes only
            if len(candidates) != 1:
                raise StartAmbiguous(formula.start, len(candidates))
            (node,) = candidates
        index, steps = 0, formula.steps
    if not steps:
        return node
    if 0 <= node < len(g._nodes):
        reached = _walk(g, node, steps)
        if reached is not None:
            return reached
    failed, reason = _failed_step(g, node, steps)
    raise Inapplicable(formula, index + failed, reason)


def locate(
    g: LabeledGraph, formula: Union[PathFormula, Settled], current: Optional[int] = None
) -> int:
    """Resolve a path formula, or a ``Settled`` one, as an executing direction does.

    Returns the node, or raises NormalConditionViolated saying why the
    path is not passable. Propositions and actions navigate through it,
    and through the readers that defer to it.
    """
    try:
        return resolve(g, formula, current)
    except (StartAmbiguous, Inapplicable) as exc:
        raise NormalConditionViolated(f"path {formula} is not passable: {exc}") from exc


def reader(path: Union[PathFormula, Settled]) -> Callable[[LabeledGraph, Optional[int]], int]:
    """``locate`` of ``path`` as a function (g, current), built once for the path.

    A ``Settled`` path's reader takes the path's ``rest`` from its
    settled node: one with no step left is its node, one whose rest is
    a single "+" step reads the (node, label) index in place, as the
    tape path's '+tape' does, and any other walks through ``_walk``.
    Where a step has no arrow or several, and for a formula that is not
    settled, the reader calls ``locate``, so it returns what ``locate``
    returns and raises what ``locate`` raises, with the same text.
    """
    if type(path) is not Settled:
        return lambda g, current: locate(g, path, current)
    node, rest = path.node, path.rest
    if not rest:
        return lambda g, current: node
    if len(rest) == 1 and rest[0][0] == "+":
        word = rest[0][1]

        def read_one(g: LabeledGraph, current: Optional[int]) -> int:
            first = g._out[node].get(word)
            if first is None or (g._out_more and (node, word) in g._out_more):
                return locate(g, path, current)
            return g._dst[first]

        return read_one

    def read(g: LabeledGraph, current: Optional[int]) -> int:
        reached = _walk(g, node, rest)
        return locate(g, path, current) if reached is None else reached

    return read


# -- propositions and actions ---------------------------------------


class _Record:
    """An immutable value: an item of the algebra below, or a schema record.

    Each class names the fields it adds in ``__slots__`` (a slot with a
    leading underscore is a cache, no field); its ``_fields`` are its
    base's followed by those. They are taken by position or keyword, a
    field left out from ``_defaults``. A record refuses assignment,
    matches class patterns by position, and compares and hashes as its
    class and fields, so records of different classes are never equal.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        cls._fields += tuple(name for name in cls.__dict__.get("__slots__", ()) if name[0] != "_")
        cls.__match_args__ = cls._fields

    def __init__(self, *values, **named) -> None:
        fields = self._fields
        if named or len(values) != len(fields):
            rest = fields[len(values):]
            given = {**self._defaults, **named}
            if len(values) > len(fields) or not set(named) <= set(rest) <= given.keys():
                raise TypeError(f"{type(self).__name__} takes the fields ({', '.join(fields)})")
            values += tuple(map(given.__getitem__, rest))
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash((type(self), self._values()))

    def __repr__(self) -> str:
        shown = (f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({', '.join(shown)})"

    def __reduce__(self):
        return type(self), self._values()


class _Item(_Record):
    """What every proposition and action of the algebra has.

    A proposition's meaning is its ``bind_holds``, an action's its
    ``bind_apply``: a function (g, current) built once from the item's
    fields, which resolves what the item works on, each path through
    its ``reader``, and then evaluates or applies the item. Resolving
    is where it raises NormalConditionViolated, so that is the one
    statement of its normal-execution conditions; an action resolves
    everything before its first write, so a violation leaves the graph
    untouched. ``eval_proposition`` and ``apply_action`` call it; an
    item asked for the form it does not have raises TypeError at once.
    An action whose ``ends_step`` is true ends an executor step when it
    is performed. A bound form is not kept on the item. A ``word`` field
    is an arrow label; a path field, a PathFormula or its ``Settled`` form.
    """

    __slots__ = ()
    ends_step = False

    def bind_holds(self) -> Callable[[LabeledGraph, Optional[int]], bool]:
        raise TypeError(f"not a proposition: {self!r}")

    def bind_apply(self) -> Callable[[LabeledGraph, Optional[int]], Optional[int]]:
        raise TypeError(f"not an action: {self!r}")


def _no_arrow(g: LabeledGraph, node: int, sign: str, word: str) -> bool:
    """True when no ``word`` arrow leaves ``node`` ("+") or enters it ("-"); reads in place."""
    if not 0 <= node < len(g._nodes):
        raise ValueError(f"{node} is not a node of this graph")
    if sign == "+":
        return word not in g._out[node]
    labels = g._label
    for arrow_id in (g._in or g._ins())[node]:
        if labels[arrow_id] == word:
            return False
    return True


def _unique_arrow(g: LabeledGraph, word: str) -> int:
    """The id of the one ``word`` arrow of ``g``, or NormalConditionViolated."""
    ids = g._arrows_by_label.get(word, ())
    if len(ids) != 1:
        raise NormalConditionViolated(
            f"there exist {len(ids)} {display_word(word)} arrows, not a unique one"
        )
    return ids[0]


class LabelsEqual(_Item):
    __slots__ = ("p1", "p2")

    def phrase(self) -> str:
        return f"the {self.p1} node label equals the {self.p2} node label"

    def bind_holds(self):
        first, second = reader(self.p1), reader(self.p2)

        def holds(g, current):
            n1, n2 = first(g, current), second(g, current)
            return g.node_label(n1) == g.node_label(n2)

        return holds


class NoArrowTo(_Item):
    __slots__ = ("word", "path")

    def phrase(self) -> str:
        return f"no {display_word(self.word)} arrow exists to the {self.path} node"

    def bind_holds(self):
        read, word = reader(self.path), self.word
        return lambda g, current: _no_arrow(g, read(g, current), "-", word)


class NoArrowFrom(_Item):
    __slots__ = ("word", "path")

    def phrase(self) -> str:
        return f"no {display_word(self.word)} arrow exists from the {self.path} node"

    def bind_holds(self):
        read, word = reader(self.path), self.word
        return lambda g, current: _no_arrow(g, read(g, current), "+", word)


class UniqueArrowExists(_Item):
    __slots__ = ("word",)

    def phrase(self) -> str:
        return f"there exists a unique {display_word(self.word)} arrow"

    def bind_holds(self):
        word = self.word
        return lambda g, current: len(g._arrows_by_label.get(word, ())) == 1


class PathPassable(_Item):
    __slots__ = ("path",)

    def phrase(self) -> str:
        return f"the {self.path} path is passable"

    def bind_holds(self):
        read = reader(self.path)

        def holds(g, current):
            try:
                read(g, current)
            except (NormalConditionViolated, ValueError):
                return False
            return True

        return holds


Proposition = Union[LabelsEqual, NoArrowTo, NoArrowFrom, UniqueArrowExists, PathPassable]


class RelabelNode(_Item):
    __slots__ = ("target", "source")

    def phrase(self) -> str:
        return f"label the {self.target} node by the {self.source} node label"

    def bind_apply(self):
        target, source = reader(self.target), reader(self.source)

        def apply(g, current):
            node, origin = target(g, current), source(g, current)
            g.set_node_label(node, g.node_label(origin))
            return current

        return apply


class ReassignArrow(_Item):
    __slots__ = ("word", "target")

    def phrase(self) -> str:
        return f"reassign the {display_word(self.word)} arrow to the {self.target} node"

    def bind_apply(self):
        target, word = reader(self.target), self.word

        def apply(g, current):
            node = target(g, current)
            g.set_arrow_dst(_unique_arrow(g, word), node)
            return current

        return apply


class CreateNodeWithArrowToTarget(_Item):
    __slots__ = ("target",)

    def phrase(self) -> str:
        return f"create a node and an arrow from it to the {self.target} node"

    def bind_apply(self):
        target = reader(self.target)

        def apply(g, current):
            node = target(g, current)
            g.add_arrow(g.add_node(""), "", node, TAPE)
            return current

        return apply


class CreateNodeWithArrowFromSource(_Item):
    __slots__ = ("source",)

    def phrase(self) -> str:
        return f"create a node and an arrow from the {self.source} node to it"

    def bind_apply(self):
        source = reader(self.source)

        def apply(g, current):
            node = source(g, current)
            g.add_arrow(node, "", g.add_node(""), TAPE)
            return current

        return apply


class FollowArrow(_Item):
    """Follow the current node's one ``word`` arrow: a "+" step through ``_walk``.

    A refusal says "no" or "several" as ``_failed_step`` found.
    """

    __slots__ = ("word",)
    ends_step = True

    def phrase(self) -> str:
        return f"follow the {display_word(self.word)} arrow"

    def bind_apply(self):
        steps = (("+", self.word),)

        def apply(g, current):
            if current is None:
                raise ValueError("follow requires a current node")
            if 0 <= current < len(g._nodes):
                node = _walk(g, current, steps)
                if node is not None:
                    return node
            _, reason = _failed_step(g, current, steps)
            word = display_word(self.word)
            there = (f"exists no {word} arrow" if reason == "none"
                     else f"exist several {word} arrows")
            raise NormalConditionViolated(f"there {there} from the current node")

        return apply


class FollowArrowTo(FollowArrow):
    """``FollowArrow`` bound to one node: its one ``word`` arrow goes to ``target``.

    ``install_instructions`` builds one for each flow arrow of a node,
    from the one end it found for the arrow's word. A run leaves the
    program's arrows as they are (see ``settle``), so at that node the
    item goes to ``target`` without reading the graph. Its phrase is
    ``FollowArrow``'s, and it is never equal to a ``FollowArrow``.
    """

    __slots__ = ("target",)

    def bind_apply(self):
        target = self.target
        return lambda g, current: target


class Stop(_Item):
    __slots__ = ()
    ends_step = True

    def phrase(self) -> str:
        return "stop"

    def bind_apply(self):
        return lambda g, current: None


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
        raise TypeError(f"not a proposition or action: {item!r}")


def eval_proposition(g: LabeledGraph, prop: Proposition, current: Optional[int] = None) -> bool:
    """Evaluate a proposition.

    Evaluation crashes with NormalConditionViolated, rather than
    returning False, when a referenced path is impassable. PathPassable
    and UniqueArrowExists are total and never crash.
    """
    _refuse_foreign(prop)
    return prop.bind_holds()(g, current)


def apply_action(g: LabeledGraph, action: Action, current: Optional[int] = None) -> Optional[int]:
    """Apply an action and return the new current node (None after Stop).

    Created nodes and arrows are labeled by the empty word; created
    arrows are tape arrows, since the only creating instructions in the
    system expand the tape. Raises
    NormalConditionViolated outside the action's normal-execution
    condition.
    """
    _refuse_foreign(action)
    return action.bind_apply()(g, current)


def normal_violation(
    g: LabeledGraph, item: Union[Proposition, Action], current: Optional[int] = None
) -> Optional[str]:
    """Describe the violated normal-execution condition, if any.

    Returns the detail that evaluating or applying ``item`` raises as
    NormalConditionViolated, or None when it raises none; any other
    exception it raises propagates. A proposition is evaluated on ``g``;
    an action is applied to a deep copy of ``g``, so ``g`` is left as
    it was, though the copy may build ``g``'s in-arrow index. The
    executor needs no such check, since an item resolves everything
    before its first write.
    """
    _refuse_foreign(item)
    try:
        if isinstance(item, Proposition):
            item.bind_holds()(g, current)
        else:
            import copy

            item.bind_apply()(copy.deepcopy(g), current)
    except NormalConditionViolated as violation:
        return violation.detail
    return None


# -- checks ----------------------------------------------------------


class UniLabelViolation(NamedTuple):
    node: int
    label: str
    arrow_ids: tuple[int, ...]


def check_uni_labeled(g: LabeledGraph) -> list[UniLabelViolation]:
    """Find nodes whose outgoing arrows share a label, whatever their kinds.

    Reads the overflow map of the (origin, label) index, which holds each
    (node, label) a node repeats, so it builds no Arrow record. The
    violations come in (node, label) order, each with its arrow ids in
    id order.
    """
    return [
        UniLabelViolation(node, label, (g._out[node][label], *more))
        for (node, label), more in sorted(g._out_more.items())
    ]


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
    import json  # only an export needs it, so ``import wordtree`` does not load it

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
