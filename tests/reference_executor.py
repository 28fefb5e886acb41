"""The unspecialised instructions and the unfolded step loop.

Before ``install_instructions`` settled each flow node's program side,
every node of a shape held the same instruction: its paths resolved from
their start at every step, and its follows read the graph at every
step. Those six shapes and that install are kept here as the reference
the bound instructions are compared against, together with
``unsettled``, which turns a bound instruction back into its shape.

Before each instruction was folded into one function, a step ran its
directions one by one. ``run_directions`` keeps that loop, through the
unbound dispatch of ``eval_proposition`` and ``apply_action``, as the
reference the folded runs are compared against.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from wordtree.control_flow import NEXT, NO, YES
from wordtree.executor import (
    BUDGET_EXHAUSTED,
    CRASHED,
    DIRECTIONS_EXHAUSTED,
    LEFT_CELL_PATH,
    NO_INSTRUCTION,
    NORMAL_CONDITION_VIOLATED,
    RIGHT_CELL_PATH,
    RUNNING,
    STOPPED,
    TAPE_ARROW,
    TAPE_PATH,
    Act,
    CrashReport,
    ExecState,
    Guarded,
    Instruction,
    TraceEntry,
)
from wordtree.graph import (
    CreateNodeWithArrowFromSource,
    CreateNodeWithArrowToTarget,
    FollowArrow,
    FollowArrowTo,
    LabelsEqual,
    NoArrowFrom,
    NoArrowTo,
    NormalConditionViolated,
    ReassignArrow,
    RelabelNode,
    Settled,
    Stop,
    Tree,
    apply_action,
    display_word,
    eval_proposition,
)
from wordtree.semantics import PRINT_WORD_PATH, SYMBOL_PATH

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


def run_directions(
    state: ExecState, max_steps: int, on_step: Optional[Callable[[TraceEntry], None]] = None
) -> tuple[str, int]:
    """Run ``state`` as ``executor.run`` does, one direction at a time; the outcome and steps.

    Each step reads the current node's instruction and runs its
    directions in order: a guard that does not hold passes to the next
    direction, and the first action performed that ends the step ends
    it. The state and the trace entries come out as ``executor.run``
    leaves and reports them, crashes and refusals included.
    """
    g = state.tree.graph
    node, steps = state.current, state.steps

    def crash(situation: str, detail: str) -> None:
        state.status = CRASHED
        state.situation = CrashReport(situation, node, detail)
        if on_step is not None:
            on_step(TraceEntry(steps, node, label, f"crash {situation}: {detail}"))

    try:
        while state.status == RUNNING and steps < max_steps:
            label = g.node_label(node) if on_step is not None else None
            steps += 1
            state.steps = steps
            instruction = state.instructions.get(node)
            if instruction is None:
                word = display_word(g.node_label(node))
                crash(NO_INSTRUCTION, f"the {word} node holds no instruction")
                break
            destination = ended = None
            try:
                for direction in instruction.directions:
                    if direction.condition is None or eval_proposition(g, direction.condition, node):
                        destination = apply_action(g, direction.action, node)
                        if getattr(direction.action, "ends_step", False):
                            ended = direction
                            break
            except NormalConditionViolated as failure:
                crash(NORMAL_CONDITION_VIOLATED, failure.detail)
                break
            if ended is None:
                crash(
                    DIRECTIONS_EXHAUSTED,
                    "the instruction ran out of directions without following an arrow",
                )
                break
            here = node
            if destination is None:
                state.status = STOPPED
            else:
                node = state.current = destination
            if on_step is not None:
                on_step(TraceEntry(steps, here, label, ended.phrase()))
    finally:
        state.steps, state.current = steps, node
    outcome = state.status if state.status in (STOPPED, CRASHED) else BUDGET_EXHAUSTED
    return outcome, steps
