"""Exit codes and output shape of the command line interface."""

import json
from pathlib import Path

import pytest

from wordtree.cli import main
from wordtree.executor import final_tape, initialize, run, trace_json, trace_text
from wordtree.frontend import parse_text
from wordtree.graph import SYNTACTIC
from wordtree.pipeline import check_program, make_executable
from wordtree.schema import Literal, Schema, schema_to_json, turingol_schema
from wordtree.tape import parse_tape


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


LOOPER = "tape-alphabet is one;\ntest: if the-tape-symbol is 'one' then go to test.\n"

ORACLE = json.loads((Path(__file__).parent / "data" / "expected_runs.json").read_text())
# Every oracle run, plus a tape whose first cell crashes the run.
TRACED_RUNS = [(c["tape"], c["start"]) for c in ORACLE["cases"]] + [
    ("tape-alphabet one", "last")
]


def collected_output(program_text, tape, start, cautious, trace_format) -> str:
    """What ``run --trace`` prints, rendered from the whole collected trace."""
    result = check_program(program_text)
    state = initialize(
        result.tree, parse_tape(tape), start, make_executable(result), cautious
    )
    entries = []
    outcome = run(state, on_step=entries.append)
    render = trace_text if trace_format == "text" else trace_json
    lines = [render(entries)]
    tape_line = final_tape(state)
    if tape_line is not None:
        lines.append(tape_line)
    lines.append(outcome.outcome)
    return "\n".join(lines) + "\n"


class TestCheck:
    def test_clean_program_exits_zero(self, capsys, program_path):
        code, out, err = invoke(capsys, "check", str(program_path("increment.tgl")))
        assert code == 0
        assert out.count("AW3") == 1
        assert out.splitlines()[-1] == "0 errors, 1 warnings"

    def test_duplicate_label_fails(self, capsys, program_path):
        code, out, _ = invoke(capsys, "check", str(program_path("duplicate_label.tgl")))
        assert code == 1
        assert "L1" in out
        assert out.splitlines()[-1].startswith("1 errors")

    def test_next_cycle_fails(self, capsys, program_path):
        code, out, _ = invoke(capsys, "check", str(program_path("next_cycle.tgl")))
        assert code == 1
        assert "C2" in out

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = invoke(capsys, "check", str(tmp_path / "absent.tgl"))
        assert code == 1
        assert out == ""
        assert err != ""

    def test_syntax_error_reported(self, capsys, tmp_path):
        bad = tmp_path / "bad.tgl"
        bad.write_text("tape-alphabet is One.\n")
        code, out, err = invoke(capsys, "check", str(bad))
        assert code == 1
        assert "syntax error" in err


class TestRun:
    def test_increments_binary_number(self, capsys, program_path):
        code, out, _ = invoke(
            capsys, "run", str(program_path("increment.tgl")), "--tape", "one one"
        )
        assert code == 0
        assert out.splitlines() == ["one zero point", "stopped"]

    def test_tape_file(self, capsys, program_path, tmp_path):
        tape = tmp_path / "input.tape"
        tape.write_text("one one\n")
        code, out, _ = invoke(
            capsys, "run", str(program_path("increment.tgl")), "--tape-file", str(tape)
        )
        assert code == 0
        assert out.splitlines()[0] == "one zero point"

    def test_start_first(self, capsys, program_path):
        code, out, _ = invoke(
            capsys,
            "run", str(program_path("increment.tgl")),
            "--tape", "zero one", "--start", "first",
        )
        assert code == 0
        assert out.splitlines()[0] == "one point one"

    def test_start_index(self, capsys, program_path):
        code, out, _ = invoke(
            capsys,
            "run", str(program_path("increment.tgl")),
            "--tape", "zero one", "--start", "1",
        )
        assert code == 0
        assert out.splitlines()[0] == "one point"

    def test_trace_text_lines(self, capsys, program_path):
        code, out, _ = invoke(
            capsys,
            "run", str(program_path("increment.tgl")),
            "--tape", "one one", "--trace", "text",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 20
        assert lines[0] == "1 \"tape-alphabet\" follow the 'next' arrow"
        assert lines[17] == "18 'stop' stop"
        assert lines[18:] == ["one zero point", "stopped"]

    def test_trace_json_parses(self, capsys, program_path):
        code, out, _ = invoke(
            capsys,
            "run", str(program_path("increment.tgl")),
            "--tape", "zero", "--trace", "json",
        )
        assert code == 0
        entries = json.loads(out.splitlines()[0])
        assert len(entries) == 10
        assert entries[0]["step"] == 1
        assert {"step", "node", "label", "direction", "tape"} <= entries[0].keys()

    @pytest.mark.parametrize("trace_format", ["text", "json"])
    @pytest.mark.parametrize("cautious", [False, True], ids=["normal", "cautious"])
    @pytest.mark.parametrize("tape,start", TRACED_RUNS, ids=lambda v: str(v))
    def test_streamed_trace_matches_collected(
        self, capsys, program_path, tape, start, cautious, trace_format
    ):
        path = program_path("increment.tgl")
        mode = ["--cautious"] if cautious else []
        _, out, _ = invoke(
            capsys,
            "run", str(path), "--tape", tape, "--start", str(start),
            "--trace", trace_format, *mode,
        )
        assert out == collected_output(
            path.read_text(), tape, start, cautious, trace_format
        )

    def test_long_tape_is_printed_whole(self, capsys, program_path):
        tape = " ".join(["zero"] * 1499 + ["blank"])
        code, out, _ = invoke(
            capsys, "run", str(program_path("increment.tgl")), "--tape", tape
        )
        assert code == 0
        assert out.splitlines() == [
            " ".join(["zero"] * 1498 + ["one", "point"]),
            "stopped",
        ]

    def test_warnings_on_stderr(self, capsys, program_path):
        _, out, err = invoke(
            capsys, "run", str(program_path("increment.tgl")), "--tape", "zero"
        )
        assert "AW3" in err
        assert "AW3" not in out

    def test_error_program_refused(self, capsys, program_path):
        code, out, err = invoke(
            capsys, "run", str(program_path("duplicate_label.tgl")), "--tape", "one"
        )
        assert code == 1
        assert "L1" in err
        assert out == ""

    def test_undeclared_word_refused(self, capsys, tmp_path):
        program = tmp_path / "undeclared.tgl"
        program.write_text("tape-alphabet is one;\nprint 'two'.")
        code, out, err = invoke(capsys, "run", str(program), "--tape", "one")
        assert code == 1
        assert out == ""
        assert "AW2 warning node 3: tape word 'two' is used but never declared" in err

    def test_requires_exactly_one_tape(self, capsys, program_path, tmp_path):
        program = str(program_path("increment.tgl"))
        code, _, err = invoke(capsys, "run", program)
        assert code == 1 and "--tape" in err
        tape = tmp_path / "input.tape"
        tape.write_text("one\n")
        code, _, err = invoke(
            capsys, "run", program, "--tape", "one", "--tape-file", str(tape)
        )
        assert code == 1 and "--tape" in err

    def test_budget_exhaustion_exit_code(self, capsys, tmp_path):
        looper = tmp_path / "looper.tgl"
        looper.write_text(LOOPER)
        code, out, _ = invoke(
            capsys, "run", str(looper), "--tape", "one", "--max-steps", "60"
        )
        assert code == 3
        assert out.splitlines()[-1] == "budget_exhausted"

    def test_crash_exit_code(self, capsys, program_path):
        # A cell labeled with the program root's own word makes the
        # scanned-cell path ambiguous, which is a crash, not an exception.
        code, out, err = invoke(
            capsys,
            "run", str(program_path("increment.tgl")),
            "--tape", "tape-alphabet one",
        )
        assert code == 2
        assert out.splitlines()[-1] == "crashed"
        assert "NormalConditionViolated" in err

    def test_start_out_of_range(self, capsys, program_path):
        code, _, err = invoke(
            capsys,
            "run", str(program_path("increment.tgl")),
            "--tape", "one", "--start", "9",
        )
        assert code == 1
        assert err != ""

    def test_illegal_tape_word(self, capsys, program_path):
        code, _, err = invoke(
            capsys, "run", str(program_path("increment.tgl")), "--tape", "One"
        )
        assert code == 1
        assert "tape token" in err


class TestGraph:
    def test_sytr_json_is_purely_syntactic(self, capsys, program_path):
        code, out, _ = invoke(
            capsys,
            "graph", str(program_path("increment.tgl")),
            "--stage", "sytr", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert {a["kind"] for a in payload["arrows"]} == {SYNTACTIC}
        assert len(payload["nodes"]) == 32

    def test_flow_dot_has_control_styling(self, capsys, program_path):
        code, out, _ = invoke(capsys, "graph", str(program_path("increment.tgl")))
        assert code == 0
        assert out.startswith("digraph")
        assert "bold" in out and "next" in out
        assert "dashed" in out and "is-declared-at" in out

    def test_linked_stage_has_no_control_arrows(self, capsys, program_path):
        code, out, _ = invoke(
            capsys, "graph", str(program_path("increment.tgl")), "--stage", "linked"
        )
        assert code == 0
        assert "is-declared-at" in out
        assert "bold" not in out

    def test_flow_refuses_error_program(self, capsys, program_path):
        code, out, err = invoke(
            capsys, "graph", str(program_path("duplicate_label.tgl"))
        )
        assert code == 1
        assert out == ""
        assert "L1" in err


class TestSchema:
    def test_grammar_lists_productions(self, capsys):
        code, out, _ = invoke(capsys, "schema", "grammar")
        assert code == 0
        lines = out.splitlines()
        assert "L ::= S (';' L)?" in lines
        assert "S ::= (LD ':')? (SG | SI | SP | SM | SE | SC)" in lines

    def test_check_verdict_lines(self, capsys):
        code, out, _ = invoke(capsys, "schema", "check")
        assert code == 0
        assert out.splitlines() == [
            "AND condition: OK",
            "AND-cycle condition: OK",
            "sufficient condition: OK",
            "verdict: uni-labeled family",
        ]

    def test_gen_seed_reparses(self, capsys):
        code, out, _ = invoke(capsys, "schema", "gen", "--seed", "7")
        assert code == 0
        parse_text(out)

    def test_gen_every_seed_reparses(self, capsys):
        for seed in range(500):
            code, out, _ = invoke(capsys, "schema", "gen", "--seed", str(seed))
            assert code == 0
            parse_text(out)

    def test_gen_budget_too_small(self, capsys):
        code, _, err = invoke(capsys, "schema", "gen", "--budget", "2")
        assert code == 1
        assert err != ""

    def test_custom_schema_file(self, capsys, tmp_path):
        stored = tmp_path / "schema.json"
        stored.write_text(schema_to_json(turingol_schema()))
        code, out, _ = invoke(capsys, "schema", "grammar", "--schema", str(stored))
        assert code == 0
        _, default_out, _ = invoke(capsys, "schema", "grammar")
        assert out == default_out

    def test_conflicting_schema_fails_check(self, capsys, tmp_path):
        clash = Schema()
        clash.add_node("A", Literal("a"))
        clash.add_node("B", Literal("b"))
        clash.add_node("C", Literal("c"))
        clash.add_and_arrow("A", "B", Literal("x"))
        clash.add_and_arrow("A", "C", Literal("x"))
        stored = tmp_path / "clash.json"
        stored.write_text(schema_to_json(clash))
        code, out, _ = invoke(capsys, "schema", "check", "--schema", str(stored))
        assert code == 1
        assert "AND condition violated" in out
        assert out.splitlines()[-1] == "verdict: not guaranteed uni-labeled"

    def test_unreadable_schema_file(self, capsys, tmp_path):
        stored = tmp_path / "broken.json"
        stored.write_text("{]")
        code, _, err = invoke(capsys, "schema", "check", "--schema", str(stored))
        assert code == 1
        assert err != ""
