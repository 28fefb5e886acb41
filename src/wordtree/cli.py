"""Command line front door.

Four commands: ``check`` runs every requirement check over a program,
``run`` executes one on a tape, ``graph`` exports a program graph at a
chosen construction stage, and ``schema`` analyzes the schema itself,
prints its grammar, or generates a random program from it. Only the
schema commands import ``wordtree.schema``, so the others start without it.

Exit codes: 0 on success, 1 for check errors and usage or file
problems; ``run`` additionally uses 2 for a crashed execution and 3
for an exhausted step budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .executor import CRASHED, STOPPED, final_tape, initialize, run, trace_line, trace_row
from .frontend import IllegalCharacter, ParseError, parse_text, render_program, to_canonical
from .graph import export
from .pipeline import check_program, make_executable
from .semantics import classify, link_is_declared_at
from .tape import parse_tape

if TYPE_CHECKING:
    from .schema import Schema


class Refusal(Exception):
    """A problem with the input; ``main`` prints it to stderr and exits with 1.

    ``main`` treats syntax errors in the program text the same way, and
    ``scripts/schema_report.py`` prints the refusals of ``load_schema``
    and ``grammar_text`` as ``main`` does.
    """


def _read(path_text: str) -> str:
    try:
        return Path(path_text).read_text(encoding="utf-8")
    except OSError as failure:
        raise Refusal(failure) from failure
    except UnicodeDecodeError as failure:
        raise Refusal(
            f"{path_text}: not UTF-8 text ({failure.reason} at byte {failure.start})"
        ) from failure


def cmd_check(args: argparse.Namespace) -> int:
    result = check_program(_read(args.program))
    for finding in result.diagnostics:
        print(finding)
    print(f"{len(result.errors)} errors, {len(result.warnings)} warnings")
    return 0 if result.ok else 1


def cmd_run(args: argparse.Namespace) -> int:
    text = _read(args.program)
    if (args.tape is None) == (args.tape_file is None):
        raise Refusal("provide exactly one of --tape or --tape-file")
    tape_text = args.tape if args.tape is not None else _read(args.tape_file)

    result = check_program(text)
    for warning in result.warnings:
        print(warning, file=sys.stderr)
    if not result.runnable:
        for error in result.errors:
            print(error, file=sys.stderr)
        return 1

    instructions = make_executable(result)
    try:
        tape = parse_tape(tape_text)
        state = initialize(result.tree, tape, args.start, instructions)
    except ValueError as failure:
        raise Refusal(failure) from failure

    if args.trace == "text":
        outcome = run(state, args.max_steps, lambda entry: print(trace_line(entry)))
    elif args.trace == "json":
        # Rows stream out as they come and form one JSON list;
        # tests/test_cli.py TestRun.test_streamed_trace_matches_collected pins it.
        # A row shows the tape after a step that is not a crash, when
        # that text differs from the text last shown (at first, the mount's).
        opening = "["
        shown = final_tape(state)

        def print_row(entry) -> None:
            nonlocal opening, shown
            snapshot = None
            if state.status != CRASHED:
                text = final_tape(state)
                if text is not None and text != shown:
                    snapshot = shown = text
            sys.stdout.write(opening + json.dumps(trace_row(entry, snapshot)))
            opening = ", "

        outcome = run(state, args.max_steps, print_row)
        print("]" if opening == ", " else "[]")
    else:
        outcome = run(state, args.max_steps)
    tape_line = final_tape(state)
    if tape_line is not None:
        print(tape_line)
    print(outcome.outcome)
    if outcome.outcome == STOPPED:
        return 0
    if outcome.outcome == CRASHED:
        print(state.situation, file=sys.stderr)
        return 2
    return 3


def cmd_graph(args: argparse.Namespace) -> int:
    text = _read(args.program)
    if args.stage == "flow":
        result = check_program(text)
        if not result.ok:
            for error in result.errors:
                print(error, file=sys.stderr)
            return 1
        tree = result.tree
    else:
        tree = parse_text(text)
        if args.stage == "linked":
            try:
                link_is_declared_at(tree, classify(tree))
            except ValueError as failure:
                raise Refusal(failure) from failure
    out = export(tree.graph, args.format)
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return 0


def load_schema(path_text: Optional[str]) -> Schema:
    """The schema stored at ``path_text``, or the built-in one when it is None.

    An unreadable or refused file raises Refusal with its one-line reason.
    """
    from .schema import SchemaFileError, schema_from_json, turingol_schema

    if path_text is None:
        return turingol_schema()
    try:
        return schema_from_json(_read(path_text))
    except SchemaFileError as failure:
        raise Refusal(f"bad schema file: {failure}") from failure


def grammar_text(schema: Schema) -> str:
    """The schema's EBNF productions; a schema without numbering raises Refusal."""
    from .schema import export_grammar

    try:
        return export_grammar(schema)
    except ValueError as failure:
        raise Refusal(failure) from failure


def cmd_schema(args: argparse.Namespace) -> int:
    import random

    from .schema import BudgetExceeded, analyze, generate_sytr

    schema = load_schema(args.schema)
    if args.action == "grammar":
        print(grammar_text(schema))
        return 0
    if args.action == "check":
        report = analyze(schema)
        print("\n".join(report.summary()))
        return 0 if report.uni_labeled else 1
    rng = random.Random(args.seed)
    try:
        grown = generate_sytr(schema, args.root, word_source=rng, node_budget=args.budget)
        program = render_program(to_canonical(grown))
    except (BudgetExceeded, ValueError) as failure:
        raise Refusal(failure) from failure
    print(program)
    return 0


def _start_position(text: str):
    if text in ("first", "last"):
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected first, last, or a cell index, got {text!r}"
        )


def positive_int(text: str) -> int:
    """An argparse type: ``text`` as an integer of at least 1; the experiment scripts share it."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordtree",
        description="Check, run, and export Turingol programs as uni-labeled word trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check_p = sub.add_parser("check", help="parse a program and run every requirement check")
    check_p.add_argument("program", help="path to a program file")
    check_p.set_defaults(handler=cmd_check)

    run_p = sub.add_parser("run", help="check a program, mount a tape, and execute it")
    run_p.add_argument("program", help="path to a program file")
    run_p.add_argument("--tape", help="tape text, cells separated by whitespace")
    run_p.add_argument("--tape-file", help="path to a file holding the tape text")
    run_p.add_argument(
        "--start",
        type=_start_position,
        default="last",
        help="scanned cell: first, last, or a zero-based index (default last)",
    )
    run_p.add_argument(
        "--max-steps",
        type=positive_int,
        default=10_000,
        help="step budget before the run is cut off (default 10000)",
    )
    run_p.add_argument(
        "--trace",
        choices=("off", "text", "json"),
        default="off",
        help="print the step trace before the result (default off)",
    )
    run_p.set_defaults(handler=cmd_run)

    graph_p = sub.add_parser("graph", help="export a program graph")
    graph_p.add_argument("program", help="path to a program file")
    graph_p.add_argument(
        "--stage",
        choices=("sytr", "linked", "flow"),
        default="flow",
        help="construction stage to export (default flow)",
    )
    graph_p.add_argument("--format", choices=("dot", "json"), default="dot")
    graph_p.set_defaults(handler=cmd_graph)

    schema_p = sub.add_parser(
        "schema",
        help="analyze the schema, print its grammar, or generate a program",
    )
    schema_p.add_argument("action", choices=("check", "grammar", "gen"))
    schema_p.add_argument(
        "--schema",
        help="path to a schema JSON file (default: the built-in Turingol schema)",
    )
    schema_p.add_argument(
        "--root",
        default="P",
        help="schema name to generate from (default P)",
    )
    schema_p.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    schema_p.add_argument(
        "--budget",
        type=positive_int,
        default=500,
        help="node budget for generation (default 500)",
    )
    schema_p.set_defaults(handler=cmd_schema)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (IllegalCharacter, ParseError) as failure:
        refusal = f"syntax error: {failure}"
    except Refusal as failure:
        refusal = failure
    print(refusal, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
