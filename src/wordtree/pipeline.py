"""End-to-end composition: program text to a checked, runnable graph.

Each module owns one stage (parsing, classification, requirement
checks, control flow, execution). This one strings them together in the
order the stages depend on each other, so callers that just want "check
this program" or "run this program on that tape" have a single entry
point; ``semantics.REQUIREMENTS`` says which finding blocks which stage.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Union

from .control_flow import (
    add_stop_node,
    build_back_arrows,
    build_control,
    check_next_acyclic,
    check_reachability,
)
from .executor import (
    Instruction,
    OnStep,
    RunResult,
    initialize,
    install_instructions,
    run,
)
from .frontend import parse_text
from .graph import Tree
from .semantics import (
    ALPHABET,
    Diagnostic,
    Points,
    check_alphabet,
    check_labels,
    classify,
    link_is_declared_at,
)
from .tape import parse_tape


class CheckFailed(ValueError):
    """A program that may not run was asked to: it has ``blocking`` findings."""

    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


class CheckResult:
    """Everything one pass over a program text produced.

    ``points`` holds what ``classify`` found, less its chain table: the
    node classes (``points.classes``) and what the later stages and
    ``make_executable`` read. ``stop`` and ``flow_counts`` are filled
    only when the checks found no errors, and ``linked``, the count of
    declaration links, only when no tape word is used undeclared.
    """

    __slots__ = ("tree", "points", "diagnostics", "stop", "linked", "flow_counts")

    def __init__(
        self,
        tree: Tree,
        points: Points,
        diagnostics: list[Diagnostic],
        stop: Optional[int] = None,
        linked: int = 0,
        flow_counts: Optional[dict[str, int]] = None,
    ) -> None:
        self.tree = tree
        self.points = points
        self.diagnostics = diagnostics
        self.stop = stop
        self.linked = linked
        self.flow_counts = {} if flow_counts is None else flow_counts

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def blocking(self) -> list[Diagnostic]:
        """The findings that keep the program from running (``Diagnostic.blocking``)."""
        return [d for d in self.diagnostics if d.blocking]

    @property
    def runnable(self) -> bool:
        """True when ``make_executable`` accepts the result."""
        return not self.blocking


def check_program(text: str) -> CheckResult:
    """Parse a program and run every requirement check over it.

    Stages, in dependency order: parse to the canonical tree, walk its
    statement chains once (``classify``), alphabet checks, label checks,
    declaration links (unless an undefined usage of the ``ALPHABET``
    row blocks them), stop node and back arrows and control arrows
    read off the walk's chain table (unless an error blocks them), then
    reachability and next-cycle checks over the finished flow graph.

    Syntax problems raise (IllegalCharacter, ParseError); everything
    later is reported as diagnostics on the result.
    """
    tree = parse_text(text)
    points = classify(tree)
    diagnostics = check_alphabet(tree, points) + check_labels(tree, points)
    result = CheckResult(tree, points._replace(chains=None), diagnostics)
    if not any(d.code == ALPHABET.undefined for d in diagnostics):
        result.linked = link_is_declared_at(tree, points)
    if result.ok:
        stop = add_stop_node(tree)
        build_back_arrows(tree, stop, points)
        result.flow_counts = build_control(tree, stop, points)
        result.stop = stop
        del points  # frees the chain table before the checks that need none
        diagnostics += check_reachability(tree, result.points)
        diagnostics += check_next_acyclic(tree)
    return result


def make_executable(result: CheckResult) -> dict[int, Instruction]:
    """Store an instruction in every flow node of a runnable check result.

    This is the one gate between checking and running: it raises
    CheckFailed, listing the blocking findings, unless the result is
    ``runnable``.
    """
    if not result.runnable:
        raise CheckFailed(result.blocking)
    if result.stop is None:
        raise ValueError("control flow was not built")
    return install_instructions(result.tree, result.stop, result.points)


@lru_cache(maxsize=1)
def _executable(text: str) -> tuple[Tree, dict[int, Instruction]]:
    """The checked tree of ``text`` and its instructions, for the last text asked.

    The tree is never mounted or changed; each run gets a copy. A
    refusal is raised, not kept, so it is raised again on every call.
    """
    result = check_program(text)
    return result.tree, make_executable(result)


def execute_program(
    text: str,
    tape_text: str,
    start: Union[str, int] = "last",
    max_steps: int = 10_000,
    on_step: OnStep = None,
) -> RunResult:
    """Check a program, mount a tape, and run it to an outcome.

    The last program checked is kept, so calls that run one text on
    many tapes check it on the first call only; a text is checked
    again after a call with another text. The kept program costs the
    memory of one checked tree. Each run mounts its tape on a deep
    copy of that tree, so the result's ``state`` holds a graph of its
    own.

    ``on_step`` receives each trace entry as the run produces it; the
    run renders no tape for it. Raises CheckFailed when the program may
    not run (see ``make_executable``), and IllegalCharacter or ParseError
    on bad syntax, on every call; tape or start problems raise
    ValueError from initialization.
    """
    import copy  # only a run needs it, so ``import wordtree`` does not load it

    tree, instructions = _executable(text)
    tape = parse_tape(tape_text)
    tree = Tree(copy.deepcopy(tree.graph), tree.root)
    state = initialize(tree, tape, start, instructions)
    return run(state, max_steps, on_step)
