"""Reference dispatch of the proposition and action algebra, for the oracle tests.

This is how ``wordtree.graph`` evaluated and applied items before each
item class resolved its own operands: a table keyed by the item's type
finds the operands, and a ``match`` over the item's class gives their
meaning. Paths are resolved step by step through ``LabeledGraph.ends``,
from a start ``LabeledGraph.nodes_labeled`` names.
It is kept only as an oracle: the kernel must agree with it on every
graph, item and current node, in result, in the graph left behind, and
in exception type and text. As in the kernel, an item given to the
entry point for the other kind is refused before anything is resolved,
and ``normal_violation`` evaluates a proposition, or applies an action
to a copy of the graph, and reports the violation that raises.
"""

from __future__ import annotations

import copy
from typing import Optional

from wordtree.graph import (
    TAPE,
    CreateNodeWithArrowFromSource,
    CreateNodeWithArrowToTarget,
    FollowArrow,
    Inapplicable,
    LabeledGraph,
    LabelsEqual,
    NoArrowFrom,
    NoArrowTo,
    NormalConditionViolated,
    PathFormula,
    PathPassable,
    ReassignArrow,
    RelabelNode,
    StartAmbiguous,
    Stop,
    UniqueArrowExists,
    display_word,
)


def resolve(g: LabeledGraph, formula: PathFormula, current: Optional[int] = None) -> int:
    if formula.start is None:
        if current is None:
            raise ValueError("formula starts at the current node but no current node was given")
        node = current
    else:
        candidates = g.nodes_labeled(formula.start)  # own nodes only
        if len(candidates) != 1:
            raise StartAmbiguous(formula.start, len(candidates))
        (node,) = candidates
    for index, (sign, word) in enumerate(formula.steps):
        hits = g.ends(node, sign, word)
        if not hits:
            raise Inapplicable(formula, index, "none")
        if len(hits) > 1:
            raise Inapplicable(formula, index, "multiple")
        node = hits[0]
    return node


def locate(g: LabeledGraph, formula: PathFormula, current: Optional[int] = None) -> int:
    try:
        return resolve(g, formula, current)
    except (StartAmbiguous, Inapplicable) as exc:
        raise NormalConditionViolated(f"path {formula} is not passable: {exc}") from exc


def _operands(g, item, current, kinds: tuple, kind: str) -> tuple:
    """The item's operands, once it is known to be one of ``kinds``, which are ``kind``."""
    find = _OPERANDS.get(type(item))
    if find is None:
        raise TypeError(f"not a proposition or action: {item!r}")
    if type(item) not in kinds:
        raise TypeError(f"not {kind}: {item!r}")
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


PROPOSITIONS = (LabelsEqual, NoArrowTo, NoArrowFrom, UniqueArrowExists, PathPassable)
ACTIONS = (
    FollowArrow,
    RelabelNode,
    ReassignArrow,
    CreateNodeWithArrowToTarget,
    CreateNodeWithArrowFromSource,
    Stop,
)


def eval_proposition(g: LabeledGraph, prop, current: Optional[int] = None) -> bool:
    operands = _operands(g, prop, current, PROPOSITIONS, "a proposition")
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


def apply_action(g: LabeledGraph, action, current: Optional[int] = None) -> Optional[int]:
    operands = _operands(g, action, current, ACTIONS, "an action")
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


def normal_violation(g: LabeledGraph, item, current: Optional[int] = None) -> Optional[str]:
    try:
        if type(item) in PROPOSITIONS:
            eval_proposition(g, item, current)
        else:
            apply_action(copy.deepcopy(g), item, current)
    except NormalConditionViolated as violation:
        return violation.detail
    return None
