"""Graph-walking executor: instructions in nodes, tape attachment, runs.

Instructions are data, not host code: each is a sequence of directions
over the path-formula proposition and action algebra, stored in a map
keyed by node id. Execution walks the flow graph from the root node and
performs the instruction found at every node reached. Crashes are
states, not exceptions: reaching a node without an instruction, running
an instruction out of directions without following an arrow, and
violating an action's normal-execution condition all mark the state
crashed with a structured report. In cautious mode each direction is
verified before it runs, and a violation crashes with the same report
a normal run gives, before the direction can touch the graph.

A run keeps no trace. A caller that wants one passes ``on_step`` and
receives each entry as it is produced; only then is the tape rendered.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .control_flow import NEXT, NO, YES
from .graph import (
    CONTROL,
    SEMANTIC,
    SYNTACTIC,
    Action,
    CreateNodeWithArrowFromSource,
    CreateNodeWithArrowToTarget,
    FollowArrow,
    LabelsEqual,
    NoArrowFrom,
    NoArrowTo,
    NormalConditionViolated,
    Proposition,
    ReassignArrow,
    RelabelNode,
    Stop,
    Tree,
    apply_action,
    display_word,
    eval_proposition,
    normal_violation,
    parse_path,
)
from .semantics import STATEMENT, NodeClass
from .tape import Tape, chain_text

RUNNING = "running"
STOPPED = "stopped"
CRASHED = "crashed"
BUDGET_EXHAUSTED = "budget_exhausted"

NO_INSTRUCTION = "NoInstruction"
DIRECTIONS_EXHAUSTED = "DirectionsExhausted"
NORMAL_CONDITION_VIOLATED = "NormalConditionViolated"

TAPE_ARROW = "tape"

TAPE_PATH = parse_path('"tape-alphabet"+tape')
LEFT_CELL_PATH = parse_path('"tape-alphabet"+tape-""')
RIGHT_CELL_PATH = parse_path('"tape-alphabet"+tape+""')
SYMBOL_PATH = parse_path('+""+is')
PRINT_WORD_PATH = parse_path("+\"'\"")


@dataclass(frozen=True)
class Act:
    """A direction that performs its action unconditionally."""

    action: Action

    def phrase(self) -> str:
        return self.action.phrase()


@dataclass(frozen=True)
class Guarded:
    """A direction that performs its action only when the condition holds."""

    condition: Proposition
    then: Action

    def phrase(self) -> str:
        return f"if {self.condition.phrase()}, then {self.then.phrase()}"


Direction = Union[Act, Guarded]


@dataclass(frozen=True)
class Instruction:
    directions: tuple[Direction, ...]

    def phrases(self) -> list[str]:
        return [d.phrase() for d in self.directions]


@dataclass(frozen=True)
class CrashReport:
    situation: str
    node: int
    detail: str

    def __str__(self) -> str:
        return f"{self.situation} at node {self.node}: {self.detail}"

    def as_dict(self) -> dict:
        return {"situation": self.situation, "node": self.node, "detail": self.detail}


@dataclass(frozen=True)
class TraceEntry:
    step: int
    node: int
    label: str
    direction: str
    tape: Optional[str] = None


_STALE = object()


@dataclass
class ExecState:
    tree: Tree
    instructions: dict[int, Instruction]
    current: int
    cautious: bool = False
    steps: int = 0
    status: str = RUNNING
    situation: Optional[CrashReport] = None
    # The tape text a trace last showed, or _STALE once an untraced step
    # has run since; last_tape renders it again on demand.
    _shown: object = field(default=_STALE, init=False, repr=False, compare=False)

    @property
    def last_tape(self) -> Optional[str]:
        """The tape text the next traced step compares its tape against."""
        if self._shown is _STALE:
            self._shown = _tape_text(self.tree.graph)
        return self._shown


@dataclass
class RunResult:
    """How a run ended.

    ``trace`` is always empty: a run keeps no trace. Pass ``on_step`` to
    ``run`` to receive each trace entry as it is produced.
    """

    outcome: str
    steps: int
    trace: list[TraceEntry]
    state: ExecState


OnStep = Optional[Callable[[TraceEntry], None]]


def install_instructions(
    tree: Tree, stop: int, classes: dict[int, NodeClass]
) -> dict[int, Instruction]:
    """Build the node-to-instruction map for an executable program tree.

    Exactly the root, the stop node, and the statement nodes carry
    instructions.
    """
    g = tree.graph

    def flow_arrows(node: int, label: str) -> int:
        return sum(
            1
            for _, a in g.out_arrows(node, kinds=(CONTROL,))
            if a.label == label
        )

    def require_flow(node: int, *labels: str) -> None:
        for label in labels:
            count = flow_arrows(node, label)
            if count != 1:
                raise ValueError(
                    f"node {node} needs exactly one {display_word(label)} "
                    f"arrow but has {count}; build control flow first"
                )

    follow_next = Instruction((Act(FollowArrow(NEXT)),))
    instructions: dict[int, Instruction] = {}
    require_flow(tree.root, NEXT)
    instructions[tree.root] = follow_next
    instructions[stop] = Instruction((Act(Stop()),))

    for node in g.nodes():
        if classes.get(node, NodeClass("other")).kind != STATEMENT:
            continue
        word = g.node_label(node)
        if word == "if":
            require_flow(node, YES, NO)
            instructions[node] = Instruction(
                (
                    Guarded(LabelsEqual(TAPE_PATH, SYMBOL_PATH), FollowArrow(YES)),
                    Act(FollowArrow(NO)),
                )
            )
        elif word == "print":
            require_flow(node, NEXT)
            instructions[node] = Instruction(
                (Act(RelabelNode(TAPE_PATH, PRINT_WORD_PATH)), Act(FollowArrow(NEXT)))
            )
        elif word == "move":
            require_flow(node, NEXT)
            sideways = [
                a.label
                for _, a in g.out_arrows(node, kinds=(SYNTACTIC,))
                if a.label in ("left", "right")
            ]
            if len(sideways) != 1:
                raise ValueError(
                    f"move node {node} needs exactly one left or right arrow"
                )
            if sideways[0] == "left":
                expand = Guarded(
                    NoArrowTo("", TAPE_PATH),
                    CreateNodeWithArrowToTarget(TAPE_PATH),
                )
                reassign = ReassignArrow(TAPE_ARROW, LEFT_CELL_PATH)
            else:
                expand = Guarded(
                    NoArrowFrom("", TAPE_PATH),
                    CreateNodeWithArrowFromSource(TAPE_PATH),
                )
                reassign = ReassignArrow(TAPE_ARROW, RIGHT_CELL_PATH)
            instructions[node] = Instruction(
                (expand, Act(reassign), Act(FollowArrow(NEXT)))
            )
        else:
            require_flow(node, NEXT)
            instructions[node] = follow_next
    return instructions


def initialize(
    tree: Tree,
    tape: Tape,
    start: Union[str, int],
    instructions: dict[int, Instruction],
    cautious: bool = False,
) -> ExecState:
    """Attach a tape to the program tree and return the starting state.

    Copies the tape chain into the program graph, points a single
    semantic 'tape' arrow from the root at the chosen cell, and places
    the executor at the root. ``start`` is 'first', 'last', or a
    zero-based cell index. Refuses graphs that already carry a 'tape'
    arrow and start positions off the tape. Whether the program may run
    is decided before ``instructions`` exist, by ``make_executable``.
    """
    g = tree.graph
    if g.arrows_labeled(TAPE_ARROW):
        raise ValueError("the graph already carries a 'tape' arrow")

    cells = tape.cells()
    if start == "first":
        index = 0
    elif start == "last":
        index = len(cells) - 1
    elif isinstance(start, int) and not isinstance(start, bool):
        index = start
    else:
        raise ValueError(f"unknown start position {start!r}")
    if not 0 <= index < len(cells):
        raise ValueError(f"start index {index} outside the {len(cells)}-cell tape")

    mapping = g.merge(tape.graph)
    g.add_arrow(tree.root, TAPE_ARROW, mapping[cells[index]], SEMANTIC)
    return ExecState(tree, dict(instructions), tree.root, cautious)


def _tape_text(g) -> Optional[str]:
    hits = g.arrows_labeled(TAPE_ARROW)
    if len(hits) != 1:
        return None
    return chain_text(g, hits[0][1].dst)


def _record(state: ExecState, node: int, label: str, phrase: str, on_step) -> None:
    """Hand the step's entry over, with the tape text if the step changed it."""
    snapshot = None
    text = _tape_text(state.tree.graph)
    if text is not None and text != state.last_tape:
        snapshot = text
        state._shown = text
    on_step(TraceEntry(state.steps, node, label, phrase, snapshot))


def _crash(
    state: ExecState, situation: str, node: int, label: str, detail: str, on_step
) -> ExecState:
    state.status = CRASHED
    state.situation = CrashReport(situation, node, detail)
    if on_step is not None:
        on_step(TraceEntry(state.steps, node, label, f"crash {situation}: {detail}"))
    return state


def _verify(state: ExecState, item: Union[Proposition, Action]) -> None:
    """In cautious mode, crash on a violated condition before acting on it."""
    if state.cautious:
        problem = normal_violation(state.tree.graph, item, state.current)
        if problem is not None:
            raise NormalConditionViolated(problem)


def step(state: ExecState, on_step: OnStep = None) -> ExecState:
    """Execute the instruction at the current node; one step of a run.

    Directions run in order. A guard that evaluates false falls through
    to the next direction; a guard that evaluates true performs its
    action. The first FollowArrow or Stop performed ends the step, and
    an instruction must end that way or the state crashes.

    ``on_step``, when given, receives the step's trace entry, carrying
    the tape text when the step changed it; rendering that text costs
    time proportional to the tape. Without it the step renders nothing
    and its cost does not depend on the tape's length.
    """
    if state.status != RUNNING:
        raise ValueError(f"cannot step a {state.status} state")
    if on_step is None:
        state._shown = _STALE
    else:
        _ = state.last_tape  # render the text this step is compared against
    g = state.tree.graph
    node = state.current
    label = g.node_label(node)
    state.steps += 1

    instruction = state.instructions.get(node)
    if instruction is None:
        return _crash(
            state,
            NO_INSTRUCTION,
            node,
            label,
            f"the {display_word(label)} node holds no instruction",
            on_step,
        )

    for direction in instruction.directions:
        condition = direction.condition if isinstance(direction, Guarded) else None
        action = direction.then if isinstance(direction, Guarded) else direction.action
        try:
            if condition is not None:
                _verify(state, condition)
                if not eval_proposition(g, condition, node):
                    continue
            _verify(state, action)
            destination = apply_action(g, action, node)
        except NormalConditionViolated as failure:
            return _crash(
                state, NORMAL_CONDITION_VIOLATED, node, label, failure.detail, on_step
            )
        if isinstance(action, (FollowArrow, Stop)):
            if destination is None:
                state.status = STOPPED
            else:
                state.current = destination
            if on_step is not None:
                _record(state, node, label, direction.phrase(), on_step)
            return state
    return _crash(
        state,
        DIRECTIONS_EXHAUSTED,
        node,
        label,
        "the instruction ran out of directions without following an arrow",
        on_step,
    )


def run(state: ExecState, max_steps: int = 10_000, on_step: OnStep = None) -> RunResult:
    """Step until the state stops, crashes, or exhausts the step budget.

    ``on_step`` receives every trace entry as it is produced, the crash
    entry included; the run itself keeps none.
    """
    while state.status == RUNNING and state.steps < max_steps:
        step(state, on_step)
    if state.status == STOPPED:
        outcome = STOPPED
    elif state.status == CRASHED:
        outcome = CRASHED
    else:
        outcome = BUDGET_EXHAUSTED
    return RunResult(outcome, state.steps, [], state)


def final_tape(state: ExecState) -> Optional[str]:
    """The tape text after a run, or None if no tape arrow survives."""
    return _tape_text(state.tree.graph)


def trace_line(entry: TraceEntry) -> str:
    """One line of the text trace: step number, node label, direction phrase."""
    return f"{entry.step} {display_word(entry.label)} {entry.direction}"


def trace_row(entry: TraceEntry) -> dict:
    """One element of the JSON trace."""
    return {
        "step": entry.step,
        "node": entry.node,
        "label": entry.label,
        "direction": entry.direction,
        "tape": entry.tape,
    }


def trace_text(trace: list[TraceEntry]) -> str:
    """Line-oriented trace: step number, node label, direction phrase."""
    return "\n".join(trace_line(entry) for entry in trace)


def trace_json(trace: list[TraceEntry]) -> str:
    return json.dumps([trace_row(entry) for entry in trace])
