"""Graph-walking executor: instructions in nodes, tape attachment, runs.

Instructions are data, not host code: each is a sequence of directions
over the path-formula proposition and action algebra, stored in a map
keyed by node id. Execution walks the flow graph from the root node and
performs the instruction found at every node reached. Crashes are
states, not exceptions: a node without an instruction, an instruction
out of directions and a violated normal-execution condition each raise
in the step, and the loop marks the state crashed, named by the class.
Every run is cautious: an item of the algebra resolves all its paths
before its first graph write, so a violation crashes before the
direction touches the graph.

Each flow node holds an instruction of its own, built by
``install_instructions`` in the shape ``semantics.STATEMENTS`` names,
with the node's program side settled once: its follows carry their
targets (``FollowArrowTo``), and each of its paths, the word paths from
the node and the tape paths from the root, is ``settle``d up to the
tape, so a step resolves only the tape side of each path, '+tape' and
the cells beyond it. That holds because a run writes only the tape,
which the run graph enforces: ``initialize`` mounts the tape beside the
program (``LabeledGraph.mount``), and a write at a program node raises
NormalConditionViolated, so it crashes the run. The moves to one side
share one grow and one reassign item, whose kinds keep their bound
forms (``graph._Kept``), so they are bound once per side.

Every direction exposes a ``condition`` (None for ``Act``) and an
``action``. An instruction is bound once, the first time a step reaches
it: its directions are folded, from the last to the first, into one
function (g, node) that returns the step's destination (``_fold``).
Each link of the fold calls the condition's bound ``holds`` and the
action's bound ``apply`` (see ``graph._Item``) and then, unless the
action ended the step, the links after it; a follow to a fixed target
is returned, not called. ``Instruction.bound`` keeps the fold on the
instruction object, so a step makes one call, with no loop over
directions, method lookup, operand tuple or ``resolve`` call in
between; a tape path's reader reads the graph's index in place and
calls ``locate`` only to report a path that is not passable. A traced
step runs ``Instruction.traced``, the same fold whose ending link also
returns the direction, for the trace entry's phrase; it is built only
when a traced step reaches the node. The kept program of
``execute_program`` binds each node once for all its runs, and a node
a run never reaches is never bound. ``run`` and ``step`` share one
loop, which keeps the node and the step count in locals and writes
them to the state whenever a caller can see it. An untraced step reads
the current node's label only to report that it holds no instruction.

A run keeps no trace and renders no tape. A caller that wants a trace
passes ``on_step`` and receives each entry as it is produced; a traced
step costs what an untraced one does. A caller that wants the tape at
some step renders it with ``final_tape``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .graph import (
    Action,
    CreateNodeWithArrowFromSource,
    CreateNodeWithArrowToTarget,
    FollowArrowTo,
    LabeledGraph,
    LabelsEqual,
    NoArrowFrom,
    NoArrowTo,
    NormalConditionViolated,
    Proposition,
    ReassignArrow,
    RelabelNode,
    Stop,
    Tree,
    _Item,
    _refuse_foreign,
    display_word,
    parse_path,
    settle,
)
from .semantics import NEXT, STATEMENTS, Points
from .tape import chain_text

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


class Act(NamedTuple):
    """A direction that performs its action unconditionally."""

    action: Action
    condition = None  # like Guarded's, so the fold reads every direction alike

    def phrase(self) -> str:
        return self.action.phrase()


class Guarded(NamedTuple):
    """A direction that performs its action only when the condition holds."""

    condition: Proposition
    action: Action

    def phrase(self) -> str:
        return f"if {self.condition.phrase()}, then {self.action.phrase()}"


Direction = Union[Act, Guarded]


class _Directions(NamedTuple):
    directions: tuple[Direction, ...]


class Instruction(_Directions):
    """The directions a flow node holds, in order.

    An instruction is data: it compares, hashes, prints, pickles and
    copies as the tuple of its directions. ``bound`` is what a step
    runs: the directions folded into one function (g, node) that
    returns the step's destination, None after a stop (see ``_fold``).
    ``traced`` is the same fold for a traced step, whose ending link
    returns the destination and the direction that ended the step, for
    its phrase. Each is built from the directions the first time a step
    of its kind reads it and kept on this object, so every run that
    reuses the object reuses it, a node a run never reaches is never
    bound, and an untraced run never builds ``traced``. Neither is
    state: both depend on the directions alone, and a pickled or copied
    instruction holds only its directions and binds afresh. A value
    that is no item of the algebra binds to a function that refuses it
    when the step reaches it; an item in the place of the other kind
    refuses to bind, with TypeError, at the first step that reads it.
    """

    def phrases(self) -> list[str]:
        return [d.phrase() for d in self.directions]

    @cached_property
    def bound(self) -> Callable[[LabeledGraph, int], Optional[int]]:
        return _fold(self.directions, traced=False)

    @cached_property
    def traced(self) -> Callable[[LabeledGraph, int], tuple[Optional[int], Direction]]:
        return _fold(self.directions, traced=True)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of an instruction")

    def __reduce__(self):
        return type(self), (self.directions,)


class DirectionsExhausted(Exception):
    """A folded instruction ran all its directions without ending the step."""

    detail = "the instruction ran out of directions without following an arrow"


class NoInstruction(Exception):
    """A step reached a node that holds no instruction."""

    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail


def _exhausted(g, node):
    raise DirectionsExhausted


def _no_instruction(g, node):
    raise NoInstruction(f"the {display_word(g.node_label(node))} node holds no instruction")


def _fold(directions: Sequence[Direction], traced: bool) -> Callable:
    """``directions`` as one function (g, node), folded from the last direction to the first.

    A guard is the condition's bound ``holds``, an action its bound
    ``apply`` (see ``graph._Item``), and ``rest`` the function folded
    from the directions after this one:

    - an ending ``Act`` is its ``apply``;
    - a non-ending ``Act`` applies, then calls the rest;
    - an ending ``Guarded`` applies when its guard holds and calls the
      rest otherwise;
    - a non-ending ``Guarded`` applies when its guard holds, then calls
      the rest;
    - the rest of the last direction raises DirectionsExhausted.

    A ``FollowArrowTo`` goes to its target whatever the graph holds, so
    its link returns the target without a call, and so does a link
    whose rest is such a follow: ``then`` is what the rest returns
    without reading the graph, or ``_CALL`` when it must be called.
    With ``traced``, an ending link returns its destination together
    with its direction.
    """
    rest, then = _exhausted, _CALL
    for direction in reversed(directions):
        condition, action = direction.condition, direction.action
        holds = None if condition is None else _bound(condition, "holds")
        ends_step = getattr(action, "ends_step", False)
        fixed = _CALL
        if type(action) is FollowArrowTo:
            fixed = (action.target, direction) if traced else action.target
            apply = _returning(fixed)
        else:
            apply = _bound(action, "apply")
            if ends_step and traced:
                apply = _with_direction(apply, direction)
        if ends_step and holds is None:
            rest, then = apply, fixed
        elif ends_step and fixed is not _CALL and then is not _CALL:
            rest, then = _choose(holds, fixed, then), _CALL
        elif ends_step:
            rest, then = _either(holds, apply, rest), _CALL
        elif holds is not None:
            rest, then = _guarded(holds, apply, rest), _CALL
        elif then is _CALL:
            rest = _act(apply, rest)
        else:
            rest, then = _act_then(apply, then), _CALL
    return rest


_CALL = object()  # the fixed value of a link that reads the graph: it must be called


def _returning(value):
    return lambda g, node: value


def _act(apply, rest):
    def link(g, node):
        apply(g, node)
        return rest(g, node)

    return link


def _act_then(apply, then):
    def link(g, node):
        apply(g, node)
        return then

    return link


def _guarded(holds, apply, rest):
    def link(g, node):
        if holds(g, node):
            apply(g, node)
        return rest(g, node)

    return link


def _either(holds, apply, rest):
    return lambda g, node: apply(g, node) if holds(g, node) else rest(g, node)


def _choose(holds, yes, no):
    return lambda g, node: yes if holds(g, node) else no


def _with_direction(apply, direction):
    return lambda g, node: (apply(g, node), direction)


def _bound(item, form: str) -> Callable:
    """``item.bound(form)``; for a value that is no item, a function refusing it."""
    if isinstance(item, _Item):
        return item.bound(form)

    def refuse(g, node):
        _refuse_foreign(item)

    return refuse


class CrashReport(NamedTuple):
    situation: str
    node: int
    detail: str

    def __str__(self) -> str:
        return f"{self.situation} at node {self.node}: {self.detail}"

    def as_dict(self) -> dict:
        return {"situation": self.situation, "node": self.node, "detail": self.detail}


class TraceEntry(NamedTuple):
    step: int
    node: int
    label: str
    direction: str


class ExecState:
    """Where a run is: the program, its instructions, the current node, steps and status.

    ``situation`` holds the crash report of a crashed run.
    """

    __slots__ = ("tree", "instructions", "current", "steps", "status", "situation")

    def __init__(
        self,
        tree: Tree,
        instructions: dict[int, Instruction],
        current: int,
        steps: int = 0,
        status: str = RUNNING,
        situation: Optional[CrashReport] = None,
    ) -> None:
        self.tree = tree
        self.instructions = instructions
        self.current = current
        self.steps = steps
        self.status = status
        self.situation = situation


class RunResult(NamedTuple):
    """How a run ended.

    ``trace`` is always empty: a run keeps no trace. Pass ``on_step`` to
    ``run`` to receive each trace entry as it is produced.
    """

    outcome: str
    steps: int
    trace: list[TraceEntry]
    state: ExecState


OnStep = Optional[Callable[[TraceEntry], None]]


def _move_directions(g, side: str, tape) -> tuple[Direction, Direction]:
    """What a move to ``side`` does before it follows 'next', with ``tape`` the settled tape path.

    Grow a cell on that side if the tape ends at the head, then put the
    head on the cell beside it. These depend on the tape alone, so the
    moves to one side share them, and their bound forms.
    """
    if side == "left":
        grow = Guarded(NoArrowTo("", tape), CreateNodeWithArrowToTarget(tape))
        beside = LEFT_CELL_PATH
    else:
        grow = Guarded(NoArrowFrom("", tape), CreateNodeWithArrowFromSource(tape))
        beside = RIGHT_CELL_PATH
    return grow, Act(ReassignArrow(TAPE_ARROW, settle(g, beside)))


def install_instructions(tree: Tree, stop: int, points: Points) -> dict[int, Instruction]:
    """Build the node-to-instruction map for an executable program tree.

    The root follows 'next', the stop node stops, and each statement of
    ``points``, what ``classify`` found for this tree, gets an instruction
    of its own, of the shape its ``STATEMENTS`` entry names; no other node
    gets one, and nothing else of ``points`` is read. Each node's program
    side is settled here once:

    - each follow is a ``FollowArrowTo`` of the one end the node's
      arrow of the entry's flow label has, which is checked here;
    - the entry's ``usage`` is ``settle``d from the statement to its word;
    - the tape paths start at the own node ``settle`` finds once for
      their start word.

    A settled path prints as its formula, so phrases and crash reports
    read as the unsettled shapes' do.
    """
    g = tree.graph

    def flow(node: int, label: str) -> FollowArrowTo:
        ends = g.ends(node, "+", label)
        if len(ends) != 1:
            raise ValueError(
                f"node {node} needs exactly one {display_word(label)} "
                f"arrow but has {len(ends)}; build control flow first"
            )
        return FollowArrowTo(label, ends[0])

    tape = settle(g, TAPE_PATH)
    moves: dict[str, tuple[Direction, Direction]] = {}  # by side, built at its first move
    instructions = {tree.root: Instruction((Act(flow(tree.root, NEXT)),))}
    instructions[stop] = Instruction((Act(Stop()),))

    for node in points.statements:
        entry = STATEMENTS[g.node_label(node)]
        if entry.shape == "compare":
            yes, no = flow(node, entry.branch), flow(node, entry.onward)
            compared = LabelsEqual(tape, settle(g, entry.usage, node))
            instructions[node] = Instruction((Guarded(compared, yes), Act(no)))
            continue
        onward = Act(flow(node, entry.onward or entry.branch))
        if entry.shape == "relabel":
            printed = settle(g, entry.usage, node)
            instructions[node] = Instruction((Act(RelabelNode(tape, printed)), onward))
        elif entry.shape == "shift":
            sideways = [w for w in ("left", "right") for _ in g.ends(node, "+", w)]
            if len(sideways) != 1:
                raise ValueError(f"move node {node} needs exactly one left or right arrow")
            side = sideways[0]
            if side not in moves:
                moves[side] = _move_directions(g, side, tape)
            instructions[node] = Instruction((*moves[side], onward))
        else:
            instructions[node] = Instruction((onward,))
    return instructions


def initialize(
    tree: Tree,
    tape: Sequence[str],
    start: Union[str, int],
    instructions: dict[int, Instruction],
    cautious: bool = False,
) -> ExecState:
    """Mount a tape beside the program tree and return the starting state of a run.

    ``tape`` holds the cell words, as ``parse_tape`` returns them; a
    plain string is refused, not mounted one letter per cell. ``start``
    is 'first', 'last', or a zero-based cell index. Refuses graphs that
    already carry a 'tape' arrow, a run graph among them, start
    positions off the tape and illegal cell words. ``tree`` is not
    written: the state's tree is a run graph of its own
    (``LabeledGraph.mount``, which checks the cell words), which shares
    the program's per-node containers, holds the cells after the
    program's nodes, so no cell shadows a program word an absolute path
    starts from, and has a single semantic 'tape' arrow from the root to
    the chosen cell. So one program serves any number of runs, and a
    write at a program node crashes its run. The executor is placed at
    the root. Whether the program may run is decided before
    ``instructions`` exist, by ``make_executable``. ``cautious`` is
    accepted and ignored, for callers that still pass it: every run
    verifies each direction before it writes.
    """
    if isinstance(tape, str):
        raise ValueError("a tape is a sequence of cell words, not a string")
    if tree.graph.pairs_labeled(TAPE_ARROW):
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

    graph = tree.graph.mount(tree.root, TAPE_ARROW, tape, index)
    return ExecState(Tree(graph, tree.root), dict(instructions), tree.root)


def _advance(state: ExecState, max_steps: int, on_step: OnStep) -> None:
    """Step a running ``state`` until it stops, crashes or has taken ``max_steps`` steps.

    The one step loop of ``step`` and ``run``. The graph, the
    instruction map, the node and the step count live in locals; the
    node and the count are written back to ``state`` before each call
    of ``on_step`` and when the loop ends, however it ends. The loop
    reads a node's instruction from the map the first time it reaches
    the node and keeps the instruction's fold in a local map, so a step
    at a node already reached makes one lookup and one call. A node with
    no instruction gets a fold that raises NoInstruction, so one
    ``except`` reports every crash, its situation the exception's class.
    """
    g = state.tree.graph
    instructions = state.instructions
    node = state.current
    steps = state.steps
    folds = {}  # by node: the fold of its instruction this loop runs, untraced or traced
    try:
        while steps < max_steps:
            label = None if on_step is None else g.node_label(node)  # for a trace entry
            steps += 1
            fold = folds.get(node)
            if fold is None:
                instruction = instructions.get(node)
                if instruction is None:
                    fold = _no_instruction
                else:
                    fold = instruction.bound if on_step is None else instruction.traced
                folds[node] = fold
            try:
                if on_step is None:
                    destination = fold(g, node)
                else:
                    destination, direction = fold(g, node)
            except (NoInstruction, DirectionsExhausted, NormalConditionViolated) as crash:
                situation, detail = type(crash).__name__, crash.detail
                state.status = CRASHED
                state.situation = CrashReport(situation, node, detail)
                if on_step is not None:
                    state.steps, state.current = steps, node
                    on_step(TraceEntry(steps, node, label, f"crash {situation}: {detail}"))
                return
            if destination is None:
                state.status = STOPPED
                if on_step is not None:
                    state.steps, state.current = steps, node
                    on_step(TraceEntry(steps, node, label, direction.phrase()))
                return
            here, node = node, destination
            if on_step is not None:
                state.steps, state.current = steps, node
                on_step(TraceEntry(steps, here, label, direction.phrase()))
    finally:
        state.steps, state.current = steps, node


def step(state: ExecState, on_step: OnStep = None) -> ExecState:
    """Execute the instruction at the current node; one step of a run.

    The step calls the instruction's fold (``Instruction.bound``), in
    which directions run in order, each calling its items' bound
    ``holds`` and ``apply``. A guard that evaluates false falls through
    to the next direction; a guard that evaluates true performs its
    action. The first action performed whose ``ends_step`` is true
    (FollowArrow or Stop) ends the step, and an instruction must end
    that way or the state crashes. A direction that holds no item of
    the algebra raises TypeError, as ``eval_proposition`` and
    ``apply_action`` do.

    This is ``run``'s loop, run for one step. ``on_step``, when given,
    receives the step's trace entry, and ``state`` is then already past
    the step. Traced or not, the step renders nothing, and its cost
    does not depend on the tape's length.
    """
    if state.status != RUNNING:
        raise ValueError(f"cannot step a {state.status} state")
    _advance(state, state.steps + 1, on_step)
    return state


def run(state: ExecState, max_steps: int = 10_000, on_step: OnStep = None) -> RunResult:
    """Step until the state stops, crashes, or exhausts the step budget.

    ``step`` runs the same loop for one step, so a run equals the
    ``step`` calls it stands for. ``on_step`` receives every trace entry
    as it is produced, the crash entry included, and sees ``state`` as
    of that entry's step; the run itself keeps none. A state that is
    not running, or has taken ``max_steps`` steps, is returned unstepped.
    """
    if state.status == RUNNING:
        _advance(state, max_steps, on_step)
    outcome = state.status if state.status in (STOPPED, CRASHED) else BUDGET_EXHAUSTED
    return RunResult(outcome, state.steps, [], state)


def final_tape(state: ExecState) -> Optional[str]:
    """The tape text after a run, or None if no tape arrow survives."""
    g = state.tree.graph
    hits = g.pairs_labeled(TAPE_ARROW)
    if len(hits) != 1:
        return None
    return chain_text(g, hits[0][1])


def trace_line(entry: TraceEntry) -> str:
    """One line of the text trace: step number, node label, direction phrase."""
    return f"{entry.step} {display_word(entry.label)} {entry.direction}"


def trace_row(entry: TraceEntry, tape: Optional[str]) -> dict:
    """One element of the JSON trace; ``tape`` is the snapshot it shows, or None."""
    return {
        "step": entry.step,
        "node": entry.node,
        "label": entry.label,
        "direction": entry.direction,
        "tape": tape,
    }
