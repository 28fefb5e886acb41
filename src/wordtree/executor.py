"""Graph-walking executor: instructions in nodes, tape attachment, runs.

Instructions are data, not host code: each is a sequence of directions
over the path-formula proposition and action algebra, stored in a map
keyed by node id. Execution walks the flow graph from the root node and
performs the instruction found at every node reached. Crashes are
states, not exceptions: reaching a node without an instruction, running
an instruction out of directions without following an arrow, and
violating an action's normal-execution condition all mark the state
crashed with a structured report. Every run is cautious: an item of the
algebra resolves all its operands before its first graph write, so a
violation crashes before the direction touches the graph. The
``cautious`` flag of ``initialize`` and ``ExecState`` selects nothing.

Every direction exposes a ``condition`` (None for ``Act``) and an
``action``, and each item of the algebra resolves its own operands, so
a step dispatches once per direction: through the item's own method,
with no table or type test in between. Whether an action ends the step
is its class's ``ends_step``. An untraced step reads the current node's
label only to report a crash.

A run keeps no trace. A caller that wants one passes ``on_step`` and
receives each entry as it is produced; only then is the tape rendered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, Union

from .control_flow import NEXT, NO, YES
from .graph import (
    SEMANTIC,
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
    parse_path,
)
from .semantics import PRINT_WORD_PATH, SYMBOL_PATH
from .tape import add_cells, chain_text

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


@dataclass(frozen=True)
class Act:
    """A direction that performs its action unconditionally."""

    action: Action
    condition = None  # like Guarded's, so a step reads every direction alike

    def phrase(self) -> str:
        return self.action.phrase()


@dataclass(frozen=True)
class Guarded:
    """A direction that performs its action only when the condition holds."""

    condition: Proposition
    action: Action

    def phrase(self) -> str:
        return f"if {self.condition.phrase()}, then {self.action.phrase()}"


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
    cautious: bool = False  # selects nothing: every run is cautious
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
            self._shown = final_tape(self)
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
    tree: Tree, stop: int, statements: Iterable[int]
) -> dict[int, Instruction]:
    """Build the node-to-instruction map for an executable program tree.

    Exactly the root, the stop node, and the ``statements`` (the
    statement nodes ``find_points`` found, in id order) carry
    instructions.
    """
    g = tree.graph

    def require_flow(node: int, *labels: str) -> None:
        for label in labels:
            count = len(g.ends(node, "+", label))
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

    for node in statements:
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
            sideways = [w for w in ("left", "right") for _ in g.ends(node, "+", w)]
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
    tape: Sequence[str],
    start: Union[str, int],
    instructions: dict[int, Instruction],
    cautious: bool = False,
) -> ExecState:
    """Attach a tape to the program tree and return the starting state.

    ``tape`` holds the cell words, as ``parse_tape`` returns them; a
    plain string is refused, not mounted one letter per cell. ``start``
    is 'first', 'last', or a zero-based cell index. Refuses graphs that
    already carry a 'tape' arrow, start positions off the tape and
    illegal cell words before touching the graph. Then ``add_cells``
    adds the cells to the program graph after its own nodes, so no cell
    shadows a program word an absolute path starts from; a single
    semantic 'tape' arrow points from the root at the chosen cell, and
    the executor is placed at the root. Whether the program may run is
    decided before ``instructions`` exist, by ``make_executable``.
    ``cautious`` is accepted and selects nothing: every run verifies
    each direction before it writes.
    """
    if isinstance(tape, str):
        raise ValueError("a tape is a sequence of cell words, not a string")
    g = tree.graph
    if g.arrows_labeled(TAPE_ARROW):
        raise ValueError("the graph already carries a 'tape' arrow")

    if start == "first":
        index = 0
    elif start == "last":
        index = len(tape) - 1
    elif isinstance(start, int) and not isinstance(start, bool):
        index = start
    else:
        raise ValueError(f"unknown start position {start!r}")
    if not 0 <= index < len(tape):
        raise ValueError(f"start index {index} outside the {len(tape)}-cell tape")

    cells = add_cells(g, tape)
    g.add_arrow(tree.root, TAPE_ARROW, cells[index], SEMANTIC)
    return ExecState(tree, dict(instructions), tree.root, cautious)


def _record(state: ExecState, node: int, label: str, phrase: str, on_step) -> None:
    """Hand the step's entry over, with the tape text if the step changed it."""
    snapshot = None
    text = final_tape(state)
    if text is not None and text != state.last_tape:
        snapshot = text
        state._shown = text
    on_step(TraceEntry(state.steps, node, label, phrase, snapshot))


def _crash(
    state: ExecState, situation: str, node: int, label: Optional[str], detail: str, on_step
) -> ExecState:
    state.status = CRASHED
    state.situation = CrashReport(situation, node, detail)
    if on_step is not None:
        on_step(TraceEntry(state.steps, node, label, f"crash {situation}: {detail}"))
    return state


def step(state: ExecState, on_step: OnStep = None) -> ExecState:
    """Execute the instruction at the current node; one step of a run.

    Directions run in order. A guard that evaluates false falls through
    to the next direction; a guard that evaluates true performs its
    action. The first action performed whose ``ends_step`` is true
    (FollowArrow or Stop) ends the step, and an instruction must end
    that way or the state crashes.

    ``on_step``, when given, receives the step's trace entry, carrying
    the tape text when the step changed it; rendering that text costs
    time proportional to the tape. Without it the step renders nothing
    and its cost does not depend on the tape's length.
    """
    if state.status != RUNNING:
        raise ValueError(f"cannot step a {state.status} state")
    g = state.tree.graph
    node = state.current
    if on_step is None:
        state._shown = _STALE
        label = None  # read only for a trace entry or a crash report
    else:
        _ = state.last_tape  # render the text this step is compared against
        label = g.node_label(node)
    state.steps += 1

    instruction = state.instructions.get(node)
    if instruction is None:
        return _crash(
            state,
            NO_INSTRUCTION,
            node,
            label,
            f"the {display_word(g.node_label(node))} node holds no instruction",
            on_step,
        )

    for direction in instruction.directions:
        condition = direction.condition
        action = direction.action
        try:
            if condition is not None and not eval_proposition(g, condition, node):
                continue
            destination = apply_action(g, action, node)
        except NormalConditionViolated as failure:
            return _crash(
                state, NORMAL_CONDITION_VIOLATED, node, label, failure.detail, on_step
            )
        if action.ends_step:
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
    g = state.tree.graph
    hits = g.arrows_labeled(TAPE_ARROW)
    if len(hits) != 1:
        return None
    return chain_text(g, hits[0][1].dst)


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
