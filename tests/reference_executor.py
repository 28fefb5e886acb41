"""The unspecialised instructions: one shared object per shape, nothing settled.

Before ``install_instructions`` settled each flow node's program side,
every node of a shape held the same instruction: its paths resolved from
their start at every step, and its follows read the graph at every
step. Those six shapes and that install are kept here as the reference
the bound instructions are compared against, together with
``unsettled``, which turns a bound instruction back into its shape.
"""

from __future__ import annotations

from typing import Iterable

from wordtree.control_flow import NEXT, NO, YES
from wordtree.executor import (
    LEFT_CELL_PATH,
    PRINT_WORD_PATH,
    RIGHT_CELL_PATH,
    SYMBOL_PATH,
    TAPE_ARROW,
    TAPE_PATH,
    Act,
    Guarded,
    Instruction,
)
from wordtree.graph import (
    CreateNodeWithArrowFromSource,
    CreateNodeWithArrowToTarget,
    FollowArrow,
    FollowArrowTo,
    LabelsEqual,
    NoArrowFrom,
    NoArrowTo,
    ReassignArrow,
    RelabelNode,
    Settled,
    Stop,
    Tree,
    display_word,
)

FOLLOW_NEXT = Instruction((Act(FollowArrow(NEXT)),))
STOP = Instruction((Act(Stop()),))
IF_SYMBOL = Instruction(
    (Guarded(LabelsEqual(TAPE_PATH, SYMBOL_PATH), FollowArrow(YES)), Act(FollowArrow(NO)))
)
PRINT_WORD = Instruction((Act(RelabelNode(TAPE_PATH, PRINT_WORD_PATH)), Act(FollowArrow(NEXT))))
MOVE_LEFT = Instruction(
    (
        Guarded(NoArrowTo("", TAPE_PATH), CreateNodeWithArrowToTarget(TAPE_PATH)),
        Act(ReassignArrow(TAPE_ARROW, LEFT_CELL_PATH)),
        Act(FollowArrow(NEXT)),
    )
)
MOVE_RIGHT = Instruction(
    (
        Guarded(NoArrowFrom("", TAPE_PATH), CreateNodeWithArrowFromSource(TAPE_PATH)),
        Act(ReassignArrow(TAPE_ARROW, RIGHT_CELL_PATH)),
        Act(FollowArrow(NEXT)),
    )
)
SHAPES = (FOLLOW_NEXT, STOP, IF_SYMBOL, PRINT_WORD, MOVE_LEFT, MOVE_RIGHT)


def install_instructions(
    tree: Tree, stop: int, statements: Iterable[int]
) -> dict[int, Instruction]:
    """The shared-shape map, with the refusals the executor's install makes."""
    g = tree.graph

    def require_flow(node: int, *labels: str) -> None:
        for label in labels:
            count = len(g.ends(node, "+", label))
            if count != 1:
                raise ValueError(
                    f"node {node} needs exactly one {display_word(label)} "
                    f"arrow but has {count}; build control flow first"
                )

    instructions: dict[int, Instruction] = {}
    require_flow(tree.root, NEXT)
    instructions[tree.root] = FOLLOW_NEXT
    instructions[stop] = STOP
    for node in statements:
        word = g.node_label(node)
        if word == "if":
            require_flow(node, YES, NO)
            instructions[node] = IF_SYMBOL
        elif word == "print":
            require_flow(node, NEXT)
            instructions[node] = PRINT_WORD
        elif word == "move":
            require_flow(node, NEXT)
            sideways = [w for w in ("left", "right") for _ in g.ends(node, "+", w)]
            if len(sideways) != 1:
                raise ValueError(f"move node {node} needs exactly one left or right arrow")
            instructions[node] = MOVE_LEFT if sideways[0] == "left" else MOVE_RIGHT
        else:
            require_flow(node, NEXT)
            instructions[node] = FOLLOW_NEXT
    return instructions


def _unbound(item):
    if isinstance(item, FollowArrowTo):
        return FollowArrow(item.word)
    return type(item)(*(v.formula if isinstance(v, Settled) else v for v in item._values()))


def unsettled(instruction: Instruction) -> Instruction:
    """``instruction`` with each settled path back to its formula and each follow unbound."""
    return Instruction(
        tuple(
            Act(_unbound(d.action))
            if d.condition is None
            else Guarded(_unbound(d.condition), _unbound(d.action))
            for d in instruction.directions
        )
    )
