"""End-to-end composition: program text to a checked, runnable graph.

The individual modules each own one stage (parsing, classification,
requirement checks, control flow, execution). This module strings them
together in the order the stages depend on each other, so callers that
just want "check this program" or "run this program on that tape" have
a single entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    Diagnostic,
    NodeClass,
    check_alphabet,
    check_labels,
    classify,
    link_is_declared_at,
)
from .tape import parse_tape


class CheckFailed(ValueError):
    """A program that may not run was asked to: it has errors or an AW2 finding."""

    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


@dataclass
class CheckResult:
    """Everything one pass over a program text produced.

    ``stop`` and ``flow_counts`` are filled only when the label checks
    found no errors, since control flow cannot be built over ambiguous
    or dangling go to statements. ``linked`` counts declaration links,
    added only when every used tape word is declared somewhere.
    """

    tree: Tree
    classes: dict[int, NodeClass]
    diagnostics: list[Diagnostic]
    stop: Optional[int] = None
    linked: int = 0
    flow_counts: dict[str, int] = field(default_factory=dict)

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
        """The findings that keep the program from running: errors and AW2."""
        return [d for d in self.diagnostics if d.severity == "error" or d.code == "AW2"]

    @property
    def runnable(self) -> bool:
        """True when ``make_executable`` accepts the result."""
        return not self.blocking


def check_program(text: str) -> CheckResult:
    """Parse a program and run every requirement check over it.

    Stages, in dependency order: parse to the canonical tree, classify
    nodes, alphabet checks, label checks, declaration links (when no
    AW2 finding blocks them), stop node and back arrows and control
    arrows (when no label error blocks them), then reachability and
    next-cycle checks over the finished flow graph.

    Syntax problems raise (IllegalCharacter, ParseError); everything
    later is reported as diagnostics on the result.
    """
    tree = parse_text(text)
    classes = classify(tree)
    diagnostics = list(check_alphabet(tree, classes))
    diagnostics.extend(check_labels(tree, classes))
    result = CheckResult(tree, classes, diagnostics)
    if not any(d.code == "AW2" for d in diagnostics):
        result.linked = link_is_declared_at(tree, classes)
    if not any(d.severity == "error" for d in diagnostics):
        stop = add_stop_node(tree)
        build_back_arrows(tree, stop, classes)
        result.flow_counts = build_control(tree, stop, classes)
        result.stop = stop
        diagnostics.extend(check_reachability(tree, classes))
        diagnostics.extend(check_next_acyclic(tree))
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
    return install_instructions(result.tree, result.stop, result.classes)


def execute_program(
    text: str,
    tape_text: str,
    start: Union[str, int] = "last",
    max_steps: int = 10_000,
    cautious: bool = False,
    on_step: OnStep = None,
) -> RunResult:
    """Check a program, mount a tape, and run it to an outcome.

    ``on_step`` receives each trace entry as the run produces it.
    Raises CheckFailed when the program may not run (see
    ``make_executable``); tape or start problems raise ValueError from
    initialization.
    """
    result = check_program(text)
    instructions = make_executable(result)
    tape = parse_tape(tape_text)
    state = initialize(result.tree, tape, start, instructions, cautious)
    return run(state, max_steps, on_step)
