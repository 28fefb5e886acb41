"""Exit codes and output shape of the command line interface."""

import io
import json
import random
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordtree import cli as cli_module
from wordtree import executor as executor_module
from wordtree import schema as schema_module
from wordtree.cli import main
from wordtree.executor import final_tape, initialize, run, trace_line, trace_row
from wordtree.frontend import parse_text, render_program, to_canonical
from wordtree.graph import SYNTACTIC
from wordtree.pipeline import check_program, make_executable
from wordtree.schema import (
    Literal,
    Schema,
    SchemaFileError,
    generate_sytr,
    schema_from_json,
    schema_to_json,
    turingol_schema,
)
from wordtree.tape import parse_tape

import fail_safety
import generate_corpus
import reference_tape
from conftest import two_tape_arrows
from fail_safety import random_start, random_tape, tape_vocabulary


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


LOOPER = "tape-alphabet is one;\ntest: if the-tape-symbol is 'one' then go to test.\n"

ORACLE = json.loads((Path(__file__).parent / "data" / "expected_runs.json").read_text())
# Every oracle run, plus a tape whose first cell carries the program
# root's word; the cell must not shadow the root, so the run stops.
TRACED_RUNS = [(c["tape"], c["start"]) for c in ORACLE["cases"]] + [
    ("tape-alphabet one", "last")
]


def collected_output(program_text, tape, start, trace_format, cautious=False) -> str:
    """What ``run --trace`` prints, rendered from the whole collected trace.

    The JSON rows carry the tape texts ``reference_tape.snapshot_trace``
    chooses. ``cautious`` goes to ``initialize``, which ignores it.
    """
    result = check_program(program_text)
    state = initialize(
        result.tree, parse_tape(tape), start, make_executable(result), cautious=cautious
    )
    pairs = []
    outcome = run(state, on_step=reference_tape.snapshot_trace(state, pairs))
    if trace_format == "text":
        lines = ["\n".join(trace_line(entry) for entry, _ in pairs)]
    else:
        lines = [json.dumps([trace_row(entry, text) for entry, text in pairs])]
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
        """The CLI takes no --cautious; the 'cautious' cases collect the
        expected output through ``initialize(..., cautious=True)``, which
        is accepted and ignored."""
        path = program_path("increment.tgl")
        _, out, _ = invoke(
            capsys,
            "run", str(path), "--tape", tape, "--start", str(start),
            "--trace", trace_format,
        )
        assert out == collected_output(path.read_text(), tape, start, trace_format, cautious)

    @pytest.mark.parametrize("cells", [301, 1500])
    def test_json_trace_on_long_tapes_matches_reference(self, capsys, program_path, cells):
        path = program_path("increment.tgl")
        tape = " ".join(["zero"] * (cells - 51) + ["one"] * 50 + ["blank"])
        _, out, _ = invoke(capsys, "run", str(path), "--tape", tape, "--trace", "json")
        assert out == collected_output(path.read_text(), tape, "last", "json")

    def test_json_trace_on_grown_programs_matches_reference(self, capsys, tmp_path):
        """Every runnable program ``generate_sytr`` grows for seeds 0-99, on one random tape."""
        runnable = 0
        for seed in range(100):
            rng = random.Random(seed)
            text = render_program(to_canonical(generate_sytr(turingol_schema(), "P", rng)))
            result = check_program(text)
            if not result.runnable:
                continue
            runnable += 1
            tape = random_tape(rng, tape_vocabulary(result))
            start = random_start(rng, tape)
            path = tmp_path / f"grown{seed}.tgl"
            path.write_text(text)
            _, out, _ = invoke(
                capsys,
                "run", str(path), "--tape", tape, "--start", str(start), "--trace", "json",
            )
            assert out == collected_output(text, tape, start, "json"), seed
        assert runnable == 15

    def test_cautious_option_refused(self, capsys, program_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", str(program_path("increment.tgl")), "--tape", "one", "--cautious"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --cautious" in captured.err

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

    def test_crash_exit_code(self, capsys, program_path, monkeypatch):
        # A second 'tape' arrow from the root makes the scanned-cell path
        # ambiguous, which is a crash, not an exception. ``run`` imports
        # ``initialize`` from the executor when it starts.
        monkeypatch.setattr(executor_module, "initialize", two_tape_arrows)
        code, out, err = invoke(
            capsys, "run", str(program_path("increment.tgl")), "--tape", "one"
        )
        assert code == 2
        assert out.splitlines()[-1] == "crashed"
        assert "NormalConditionViolated" in err

    def test_tape_may_hold_the_root_word(self, capsys, program_path):
        code, out, _ = invoke(
            capsys,
            "run", str(program_path("increment.tgl")),
            "--tape", "tape-alphabet one",
        )
        assert code == 0
        assert out.splitlines()[-2:] == ["one point", "stopped"]

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


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "{file}"],
        ["graph", "{file}"],
        ["run", "{program}", "--tape-file", "{file}"],
        ["schema", "check", "--schema", "{file}"],
    ],
    ids=["check", "graph", "run-tape-file", "schema-check"],
)
def test_non_utf8_file_refused_naming_its_path(capsys, tmp_path, program_path, argv):
    stored = tmp_path / "latin.txt"
    stored.write_bytes(b"\xff\xfe bad")
    paths = {"file": str(stored), "program": str(program_path("increment.tgl"))}
    code, out, err = invoke(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, out) == (1, "")
    assert err == f"{stored}: not UTF-8 text (invalid start byte at byte 0)\n"
    assert "Traceback" not in err


def relabeled_schema_json(old, new) -> str:
    """The built-in schema's JSON, with the label pattern ``old`` replaced by ``new``."""
    payload = json.loads(schema_to_json(turingol_schema()))
    for item in payload["nodes"] + payload["and_arrows"]:
        if item["label"] == old:
            item["label"] = new
    return json.dumps(payload)


# Schema files that once passed a schema action unchecked or made it
# print a traceback, and the reason each is refused with now.
BAD_SCHEMA_FILES = [
    pytest.param(
        relabeled_schema_json({"kind": "literal", "word": "go"}, {"kind": "literal", "word": 7}),
        "pattern word 7 is neither a PLA word nor an MLA word",
        id="number-word",
    ),
    pytest.param(
        relabeled_schema_json(
            {"kind": "literal", "word": "go"}, {"kind": "literal", "word": "A B"}
        ),
        "pattern word 'A B' is neither a PLA word nor an MLA word",
        id="spaced-word",
    ),
    pytest.param(
        relabeled_schema_json(
            {"kind": "one-of", "words": ["left", "right"]},
            {"kind": "one-of", "words": ["left", "Right"]},
        ),
        "pattern word 'Right' is neither a PLA word nor an MLA word",
        id="mixed-case-one-of-word",
    ),
    pytest.param("[" * 100_000, "schema JSON is nested too deeply", id="deep-nesting"),
]


def changed_schema_json(change) -> str:
    """The built-in schema's JSON after ``change`` edits its payload in place."""
    payload = json.loads(schema_to_json(turingol_schema()))
    change(payload)
    return json.dumps(payload)


# Schema files of the wrong shape, and the whole refusal each gets: the
# JSON path of the fault first.
MISSHAPEN_SCHEMA_FILES = [
    pytest.param(
        json.dumps(
            {
                "nodes": [
                    {"name": "X", "label": {"kind": "literal", "word": "x"}, "number": "x"},
                    {"name": "Y", "label": {"kind": "literal", "word": "y"}, "number": 1},
                ],
                "and_arrows": [
                    {"from": "X", "to": "Y", "label": {"kind": "literal", "word": "a"}}
                ],
            }
        ),
        'nodes[0].number: expected an integer or null, got "x"',
        id="number-string",
    ),
    pytest.param(
        changed_schema_json(lambda payload: payload["and_arrows"][0].update(optional="no")),
        'and_arrows[0].optional: expected true or false, got "no"',
        id="optional-string",
    ),
    pytest.param('{"nodes": [1]}', "nodes[0]: expected an object, got 1", id="node-number"),
    pytest.param("[]", "top level: expected an object, got a list", id="top-level-list"),
    pytest.param(
        changed_schema_json(lambda payload: payload["and_arrows"][3].pop("to")),
        "and_arrows[3].to: missing",
        id="missing-to",
    ),
    pytest.param(
        changed_schema_json(lambda payload: payload["or_arrows"][1].update({"from": "Q"})),
        "or_arrows[1]: unknown schema node 'Q'",
        id="unknown-node",
    ),
    pytest.param(
        changed_schema_json(lambda payload: payload["nodes"][2].update(number=True)),
        "nodes[2].number: expected an integer or null, got true",
        id="number-boolean",
    ),
    pytest.param(
        changed_schema_json(
            lambda payload: payload["and_arrows"][5].update(label={"kind": "one-of", "words": []})
        ),
        "and_arrows[5].label.words: alternation needs at least one word",
        id="no-one-of-words",
    ),
    pytest.param(
        changed_schema_json(
            lambda payload: payload["and_arrows"][0].update(label={"kind": "literal", "word": "AB"})
        ),
        "and_arrows[0]: arrow label 'AB' is not a PLA word",
        id="metalanguage-arrow-word",
    ),
]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def schema_files(draw):
    """Any JSON value, or the built-in schema's JSON with fields deleted or retyped."""
    if draw(st.integers(0, 3)) == 0:
        return json.dumps(draw(json_values))
    payload = json.loads(schema_to_json(turingol_schema()))
    for _ in range(draw(st.integers(1, 3))):
        item = draw(st.sampled_from(payload[draw(st.sampled_from(sorted(payload)))]))
        if not item:
            continue
        key = draw(st.sampled_from(sorted(item)))
        label = item[key]
        if key == "label" and isinstance(label, dict) and label and draw(st.booleans()):
            item, key = label, draw(st.sampled_from(sorted(label)))
        if draw(st.booleans()):
            del item[key]
        else:
            item[key] = draw(json_values | st.sampled_from(["A B", "Q", "LD", "Right", "-"]))
    return json.dumps(payload)


@given(schema_files())
@settings(deadline=None, max_examples=150)
def test_any_schema_file_is_read_or_refused_without_a_traceback(text):
    try:
        schema_from_json(text)
        refused = False
    except SchemaFileError:
        refused = True
    with tempfile.TemporaryDirectory() as folder:
        stored = Path(folder) / "schema.json"
        stored.write_text(text)
        for action in ("check", "grammar", "gen"):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
                code = main(["schema", action, "--schema", str(stored)])
            assert code in (0, 1)
            assert err.getvalue().startswith("bad schema file: ") == refused


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

    def test_check_decides_cycles_once(self, capsys, monkeypatch):
        calls = Counter()
        original = schema_module.check_and_cycle_condition

        def counted(schema):
            calls["check_and_cycle_condition"] += 1
            return original(schema)

        for module in (schema_module, cli_module):
            if getattr(module, "check_and_cycle_condition", None) is original:
                monkeypatch.setattr(module, "check_and_cycle_condition", counted)
        code, _, _ = invoke(capsys, "schema", "check")
        assert code == 0
        assert calls == {"check_and_cycle_condition": 1}

    def test_gen_refuses_schema_not_uni_labeled(self, capsys, tmp_path):
        merged = Schema()
        merged.add_node("X", Literal("x"), number=1)
        merged.add_node("Y", Literal("y"), number=1)
        merged.add_node("Z", Literal("z"), number=1)
        merged.add_and_arrow("X", "Y", Literal("a"), order=2)
        merged.add_and_arrow("X", "Z", Literal("a"), order=3)
        stored = tmp_path / "merged.json"
        stored.write_text(schema_to_json(merged))
        code, out, err = invoke(capsys, "schema", "gen", "--root", "X", "--schema", str(stored))
        assert code == 1
        assert out == ""
        assert "not guaranteed uni-labeled" in err

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

    @pytest.mark.parametrize("action", ["check", "grammar", "gen"])
    def test_one_of_words_given_as_a_string_refused(self, capsys, tmp_path, action):
        stored = tmp_path / "letters.json"
        payload = json.loads(schema_to_json(turingol_schema()))
        (arrow,) = [a for a in payload["and_arrows"] if a["label"]["kind"] == "one-of"]
        arrow["label"]["words"] = "abc"
        stored.write_text(json.dumps(payload))
        code, out, err = invoke(capsys, "schema", action, "--schema", str(stored))
        assert (code, out) == (1, "")
        assert "bad schema file" in err and "one-of words must be a list" in err

    @pytest.mark.parametrize("action", ["check", "grammar", "gen"])
    @pytest.mark.parametrize("text, reason", BAD_SCHEMA_FILES)
    def test_bad_words_and_deep_nesting_refused(self, capsys, tmp_path, text, reason, action):
        stored = tmp_path / "bad.json"
        stored.write_text(text)
        code, out, err = invoke(capsys, "schema", action, "--schema", str(stored))
        assert (code, out) == (1, "")
        assert "bad schema file" in err and reason in err

    @pytest.mark.parametrize("action", ["check", "grammar", "gen"])
    @pytest.mark.parametrize("text, reason", MISSHAPEN_SCHEMA_FILES)
    def test_misshapen_schema_refused_at_its_path(self, capsys, tmp_path, text, reason, action):
        stored = tmp_path / "bad.json"
        stored.write_text(text)
        code, out, err = invoke(capsys, "schema", action, "--schema", str(stored))
        assert (code, out, err) == (1, "", f"bad schema file: {reason}\n")

    def test_unnumbered_node_refused_by_grammar(self, capsys, tmp_path):
        stored = tmp_path / "unnumbered.json"
        unnumbered = changed_schema_json(lambda payload: payload["nodes"][4].update(number=None))
        stored.write_text(unnumbered)
        code, out, err = invoke(capsys, "schema", "grammar", "--schema", str(stored))
        assert (code, out, err) == (1, "", "node DL: missing numbering\n")

    def test_unreadable_schema_file(self, capsys, tmp_path):
        stored = tmp_path / "broken.json"
        stored.write_text("{]")
        code, _, err = invoke(capsys, "schema", "check", "--schema", str(stored))
        assert code == 1
        assert err != ""


class TestExperimentScripts:
    """The corpus and fail-safety scripts refuse what they cannot grow, in one line, with no traceback."""

    def run_script(self, capsys, monkeypatch, module, *argv):
        monkeypatch.setattr(sys, "argv", [f"{module.__name__}.py", *argv])
        try:
            code = module.main()
        except SystemExit as usage:
            code = usage.code
        return (code, *capsys.readouterr())

    @pytest.mark.parametrize(
        "script, argv",
        [
            (generate_corpus, ("--count", "0")),
            (generate_corpus, ("--count", "-3")),
            (generate_corpus, ("--budget", "0")),
            (fail_safety, ("--budget", "0")),
        ],
        ids=["corpus-count-0", "corpus-count-negative", "corpus-budget-0", "fail-safety-budget-0"],
    )
    def test_count_or_budget_below_one_is_a_usage_error(self, capsys, monkeypatch, script, argv):
        code, out, err = self.run_script(capsys, monkeypatch, script, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            f"{script.__name__}.py: error: argument {argv[0]}: "
            f"expected a positive integer, got {argv[1]!r}"
        )
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "script, argv",
        [
            (generate_corpus, ("--count", "2", "--budget", "1")),
            (fail_safety, ("--program-runs", "1", "--generated", "1", "--budget", "1")),
            (fail_safety, ("--program-runs", "1", "--generated", "1", "--budget", "3")),
        ],
        ids=["corpus", "fail-safety", "fail-safety-3"],
    )
    def test_budget_no_program_fits_is_one_line(self, capsys, monkeypatch, script, argv):
        """Refused before any run: the fail-safety script prints no increment line first.

        3 is the largest budget the built-in schema's least program exceeds."""
        code, out, err = self.run_script(capsys, monkeypatch, script, *argv)
        budget = argv[-1]
        command = invoke(capsys, "schema", "gen", "--budget", budget)
        assert command == (1, "", f"no expansion of P fits within {budget} nodes\n")
        assert (code, out, err) == (1, "", command[2])
