"""Instruction installation, tape attachment, and graph-walking runs."""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from wordtree import executor as executor_module
from wordtree import semantics
from wordtree import tape as tape_module
from wordtree.control_flow import (
    NEXT,
    add_stop_node,
    build_back_arrows,
    build_control,
)
from wordtree.executor import (
    BUDGET_EXHAUSTED,
    CRASHED,
    DIRECTIONS_EXHAUSTED,
    LEFT_CELL_PATH,
    NO_INSTRUCTION,
    NORMAL_CONDITION_VIOLATED,
    PRINT_WORD_PATH,
    RIGHT_CELL_PATH,
    RUNNING,
    STOPPED,
    SYMBOL_PATH,
    TAPE_PATH,
    Act,
    Guarded,
    Instruction,
    final_tape,
    initialize,
    install_instructions,
    run,
    step,
    trace_json,
    trace_text,
)
from wordtree.frontend import parse_text
from wordtree.graph import (
    CONTROL,
    SEMANTIC,
    SYNTACTIC,
    TAPE,
    CreateNodeWithArrowFromSource,
    CreateNodeWithArrowToTarget,
    FollowArrow,
    LabelsEqual,
    NoArrowFrom,
    NoArrowTo,
    ReassignArrow,
    RelabelNode,
    LabeledGraph,
    Stop,
    check_uni_labeled,
)
from wordtree.pipeline import CheckFailed, execute_program
from wordtree.semantics import STATEMENT, classify
from wordtree.tape import parse_tape

EXPECTED_RUNS = json.loads(
    (Path(__file__).parent / "data" / "expected_runs.json").read_text()
)


def prepare(text: str):
    tree = parse_text(text)
    classes = classify(tree)
    stop = add_stop_node(tree)
    build_back_arrows(tree, stop, classes)
    build_control(tree, stop, classes)
    instructions = install_instructions(tree, stop, classes)
    return tree, stop, instructions


def statements(tree) -> list[int]:
    classes = classify(tree)
    return [n for n in tree.graph.nodes() if classes[n].kind == STATEMENT]


def execute(text: str, tape_text: str, start):
    """Full pipeline run; statement ids are taken before the tape merges in.

    Returns the result, the trace entries the run streamed, the tree,
    the stop node and the statement ids.
    """
    tree, stop, instructions = prepare(text)
    s_nodes = statements(tree)
    state = initialize(tree, parse_tape(tape_text), start, instructions)
    trace = []
    return run(state, on_step=trace.append), trace, tree, stop, s_nodes


@pytest.fixture
def increment_parts(increment_text):
    return prepare(increment_text)


class TestInstall:
    def test_instructed_nodes(self, increment_parts):
        tree, stop, instructions = increment_parts
        assert set(instructions) == set(statements(tree)) | {tree.root, stop}
        assert len(instructions) == 13

    def test_if_instruction(self, increment_parts):
        tree, _, instructions = increment_parts
        if1 = statements(tree)[2]
        assert instructions[if1].directions == (
            Guarded(LabelsEqual(TAPE_PATH, SYMBOL_PATH), FollowArrow("yes")),
            Act(FollowArrow("no")),
        )
        assert instructions[if1].phrases() == [
            'if the "tape-alphabet"+tape node label equals the +""+is '
            "node label, then follow the 'yes' arrow",
            "follow the 'no' arrow",
        ]

    def test_print_instruction(self, increment_parts):
        tree, _, instructions = increment_parts
        p1 = statements(tree)[0]
        assert instructions[p1].directions == (
            Act(RelabelNode(TAPE_PATH, PRINT_WORD_PATH)),
            Act(FollowArrow(NEXT)),
        )

    def test_move_instructions_mirror(self, increment_parts):
        tree, _, instructions = increment_parts
        m1, m2 = statements(tree)[5], statements(tree)[8]
        left = instructions[m1].directions
        assert left[0] == Guarded(
            NoArrowTo("", TAPE_PATH), CreateNodeWithArrowToTarget(TAPE_PATH)
        )
        assert left[1] == Act(ReassignArrow("tape", LEFT_CELL_PATH))
        assert left[2] == Act(FollowArrow(NEXT))
        right = instructions[m2].directions
        assert right[0] == Guarded(
            NoArrowFrom("", TAPE_PATH), CreateNodeWithArrowFromSource(TAPE_PATH)
        )
        assert right[1] == Act(ReassignArrow("tape", RIGHT_CELL_PATH))

    def test_plain_nodes_follow_next(self, increment_parts):
        tree, stop, instructions = increment_parts
        follow = Instruction((Act(FollowArrow(NEXT)),))
        names = statements(tree)
        for node in (tree.root, names[1], names[3], names[6], names[10]):
            assert instructions[node] == follow
        assert instructions[stop] == Instruction((Act(Stop()),))

    def test_empty_statement_follows_next(self):
        tree, stop, instructions = prepare("tape-alphabet is a;\n.")
        empty = statements(tree)[0]
        assert tree.graph.node_label(empty) == ""
        assert instructions[empty] == Instruction((Act(FollowArrow(NEXT)),))

    def test_requires_control_arrows(self, increment_text):
        tree = parse_text(increment_text)
        stop = add_stop_node(tree)
        with pytest.raises(ValueError, match="control"):
            install_instructions(tree, stop, classify(tree))


class TestInitialize:
    def test_tape_arrow_to_last_cell(self, increment_parts):
        tree, _, instructions = increment_parts
        initialize(tree, parse_tape("one one"), "last", instructions)
        g = tree.graph
        tapes = [a for _, a in g.arrows() if a.label == "tape"]
        assert len(tapes) == 1
        arrow = tapes[0]
        assert arrow.src == tree.root and arrow.kind == SEMANTIC
        assert g.out_arrows(arrow.dst, kinds=(TAPE,)) == []

    def test_state_starts_at_root(self, increment_parts):
        tree, _, instructions = increment_parts
        state = initialize(tree, parse_tape("one"), "first", instructions)
        assert state.current == tree.root
        assert state.steps == 0
        assert state.status == RUNNING
        assert state.last_tape == "one"

    def test_index_zero_is_first(self, increment_text):
        for start in ("first", 0):
            tree, _, instructions = prepare(increment_text)
            initialize(tree, parse_tape("one zero"), start, instructions)
            g = tree.graph
            cell = [a.dst for _, a in g.arrows() if a.label == "tape"][0]
            assert g.in_arrows(cell, kinds=(TAPE,)) == []

    def test_bad_start_positions(self, increment_parts):
        tree, _, instructions = increment_parts
        tape = parse_tape("one zero")
        with pytest.raises(ValueError, match="outside"):
            initialize(tree, tape, 5, instructions)
        with pytest.raises(ValueError, match="outside"):
            initialize(tree, tape, -1, instructions)
        with pytest.raises(ValueError, match="start"):
            initialize(tree, tape, "middle", instructions)

    def test_refuses_second_tape(self, increment_parts):
        tree, _, instructions = increment_parts
        initialize(tree, parse_tape("one"), "first", instructions)
        with pytest.raises(ValueError, match="tape"):
            initialize(tree, parse_tape("one"), "first", instructions)


class TestGate:
    def test_label_errors_raise_check_failed(self, program_path):
        with pytest.raises(CheckFailed, match="L1"):
            execute_program(program_path("duplicate_label.tgl").read_text(), "one")

    def test_undeclared_words_raise_check_failed(self):
        with pytest.raises(CheckFailed, match="AW2") as failure:
            execute_program("tape-alphabet is one;\nprint 'two'.", "one")
        assert isinstance(failure.value, ValueError)
        assert [d.code for d in failure.value.diagnostics] == ["AW2"]

    def test_each_check_runs_once(self, increment_text, monkeypatch):
        calls = Counter()
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "wordtree"]
        for name in ("classify", "check_alphabet", "check_labels"):
            original = getattr(semantics, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        execute_program(increment_text, "one one")
        assert calls == {"classify": 1, "check_alphabet": 1, "check_labels": 1}


class TestStep:
    def test_root_step_follows_next(self, increment_parts):
        tree, _, instructions = increment_parts
        state = initialize(tree, parse_tape("one"), "first", instructions)
        step(state)
        assert state.steps == 1
        assert tree.graph.node_label(state.current) == "print"

    def test_if_follows_yes_on_match(self):
        text = (
            "tape-alphabet is one, two;\n"
            "if the-tape-symbol is 'one' then go to x;\nx: print 'two'."
        )
        result, trace, _, _, _ = execute(text, "one", "first")
        assert [e.label for e in trace] == [
            "tape-alphabet", "if", "go", "print", "stop",
        ]
        assert "'yes'" in trace[1].direction
        assert result.outcome == STOPPED
        assert final_tape(result.state) == "two"

    def test_if_follows_no_on_mismatch(self):
        text = (
            "tape-alphabet is one, two;\n"
            "if the-tape-symbol is 'one' then go to x;\nx: print 'two'."
        )
        result, trace, _, _, _ = execute(text, "two", "first")
        assert [e.label for e in trace] == [
            "tape-alphabet", "if", "print", "stop",
        ]
        assert trace[1].direction == "follow the 'no' arrow"

    def test_empty_instruction_exhausts(self, increment_parts):
        tree, _, instructions = increment_parts
        first = statements(tree)[0]
        instructions = dict(instructions)
        instructions[first] = Instruction(())
        state = initialize(tree, parse_tape("one"), "first", instructions)
        result = run(state)
        assert result.outcome == CRASHED
        assert state.situation.situation == DIRECTIONS_EXHAUSTED
        assert state.situation.node == first

    def test_missing_instruction_crashes(self, increment_parts):
        tree, _, instructions = increment_parts
        first = statements(tree)[0]
        instructions = dict(instructions)
        del instructions[first]
        state = initialize(tree, parse_tape("one"), "first", instructions)
        result = run(state)
        assert result.outcome == CRASHED
        assert state.situation.situation == NO_INSTRUCTION
        assert "holds no instruction" in str(state.situation)

    def test_finished_state_cannot_step(self, increment_text):
        result, _, _, _, _ = execute(increment_text, "one", "last")
        assert result.outcome == STOPPED
        with pytest.raises(ValueError, match="stopped"):
            step(result.state)


class TestRuns:
    @pytest.mark.parametrize("case", EXPECTED_RUNS["cases"], ids=lambda c: c["tape"])
    def test_expected_runs(self, increment_text, case):
        result, trace, _, _, _ = execute(increment_text, case["tape"], case["start"])
        assert result.outcome == case["outcome"]
        assert result.steps == case["steps"]
        assert final_tape(result.state) == case["final_tape"]
        assert [e.label for e in trace] == case["trace_labels"]
        if "snapshots" in case:
            changes = [[e.step, e.tape] for e in trace if e.tape is not None]
            assert changes == case["snapshots"]

    def test_trace_steps_count_up(self, increment_text):
        _, trace, _, _, _ = execute(increment_text, "one one", "last")
        assert [e.step for e in trace] == list(range(1, 19))

    def test_case_one_node_sequence(self, increment_text):
        _, trace, tree, stop, s_nodes = execute(increment_text, "one one", "last")
        p1, g1, if1, sc1, p3, m1, g2, p2, m2, if2, g3 = s_nodes
        assert [e.node for e in trace] == [
            tree.root, p1, g1, m1, g2, if1, sc1, p3, m1, g2,
            if1, p2, m2, if2, g3, m2, if2, stop,
        ]

    def test_steps_land_on_statements_or_stop(self, increment_text):
        for case in EXPECTED_RUNS["cases"]:
            _, trace, tree, stop, s_nodes = execute(
                increment_text, case["tape"], case["start"]
            )
            allowed = set(s_nodes) | {tree.root, stop}
            assert all(e.node in allowed for e in trace)
            assert all(e.node != tree.root for e in trace[1:])

    def test_budget_exhaustion(self, program_path):
        text = program_path("next_cycle.tgl").read_text()
        result, _, _, _, _ = execute(text, "one", "first")
        assert result.outcome == BUDGET_EXHAUSTED
        assert result.steps == 10_000

    def test_budget_parameter(self, program_path):
        text = program_path("next_cycle.tgl").read_text()
        tree, stop, instructions = prepare(text)
        state = initialize(tree, parse_tape("one"), "first", instructions)
        result = run(state, max_steps=50)
        assert result.outcome == BUDGET_EXHAUSTED
        assert result.steps == 50

    def test_identical_runs_trace_identically(self, increment_text):
        _, first_trace, _, _, _ = execute(increment_text, "one one one", "last")
        _, second_trace, _, _, _ = execute(increment_text, "one one one", "last")
        assert first_trace == second_trace

    def test_long_tape_is_not_truncated(self, increment_text):
        tape = " ".join(["zero"] * 1499 + ["blank"])
        result = execute_program(increment_text, tape)
        assert result.outcome == STOPPED
        assert final_tape(result.state) == " ".join(["zero"] * 1498 + ["one", "point"])

    def test_uni_labeled_after_runs(self, increment_text):
        for case in EXPECTED_RUNS["cases"]:
            _, _, tree, _, _ = execute(increment_text, case["tape"], case["start"])
            assert check_uni_labeled(tree.graph) == []


class TestRunDiscipline:
    def test_program_nodes_never_relabeled(self, increment_text):
        tree, stop, instructions = prepare(increment_text)
        program_nodes = list(tree.graph.nodes())
        before = {n: tree.graph.node_label(n) for n in program_nodes}
        state = initialize(tree, parse_tape("one one"), "last", instructions)
        run(state)
        after = {n: tree.graph.node_label(n) for n in program_nodes}
        assert before == after

    def test_only_tape_structure_changes(self, increment_text):
        tree, stop, instructions = prepare(increment_text)
        state = initialize(tree, parse_tape("one one"), "last", instructions)
        g = tree.graph

        def arrows_of(kind):
            return sorted(
                (a.src, a.label, a.dst) for _, a in g.arrows() if a.kind == kind
            )

        fixed_before = {k: arrows_of(k) for k in (SYNTACTIC, CONTROL)}
        tape_before = arrows_of(TAPE)
        run(state)
        fixed_after = {k: arrows_of(k) for k in (SYNTACTIC, CONTROL)}
        assert fixed_before == fixed_after
        assert set(tape_before).issubset(set(arrows_of(TAPE)))

    def test_growth_only_on_move_steps(self, increment_text):
        tree, stop, instructions = prepare(increment_text)
        state = initialize(tree, parse_tape("one one"), "last", instructions)
        g = tree.graph
        trace = []
        while state.status == RUNNING:
            before = g.node_count
            step(state, trace.append)
            grew = g.node_count - before
            assert grew in (0, 1)
            if grew:
                assert trace[-1].label == "move"


# Runs that crash: a tape cell that shadows the root's label, and a
# second 'tape' arrow added after the tape is mounted.
CRASHING_RUNS = [
    {"tape": "tape-alphabet one", "start": "last"},
    {"tape": "one", "start": "first", "second_tape_arrow": True, "id": "two tape arrows"},
]


class TestModes:
    @pytest.mark.parametrize(
        "case",
        EXPECTED_RUNS["cases"][:3] + CRASHING_RUNS,
        ids=lambda c: c.get("id", c["tape"]),
    )
    def test_cautious_runs_agree(self, increment_text, case):
        results, traces = [], []
        for cautious in (False, True):
            tree, _, instructions = prepare(increment_text)
            state = initialize(
                tree, parse_tape(case["tape"]), case["start"], instructions, cautious
            )
            if case.get("second_tape_arrow"):
                tree.graph.add_arrow(tree.root, "tape", tree.root, SEMANTIC)
            traces.append([])
            results.append(run(state, on_step=traces[-1].append))
        plain, careful = results
        plain_trace, careful_trace = traces
        assert careful.outcome == plain.outcome
        assert careful.steps == plain.steps
        assert careful_trace == plain_trace
        assert careful.state.situation == plain.state.situation

    def test_crashes_are_states_not_exceptions(self, increment_parts):
        tree, _, instructions = increment_parts
        state = initialize(tree, parse_tape("one"), "first", instructions)
        tree.graph.add_arrow(tree.root, "tape", tree.root, SEMANTIC)
        result = run(state)
        assert result.outcome == CRASHED
        assert state.situation.situation == NORMAL_CONDITION_VIOLATED

    def test_cautious_crash_is_structured(self, increment_parts):
        tree, _, instructions = increment_parts
        state = initialize(tree, parse_tape("one"), "first", instructions)
        state.cautious = True
        tree.graph.add_arrow(tree.root, "tape", tree.root, SEMANTIC)
        result = run(state)
        assert result.outcome == CRASHED
        report = state.situation
        assert report.situation == NORMAL_CONDITION_VIOLATED
        assert "not passable" in report.detail
        assert report.as_dict()["node"] == report.node


class TestTracing:
    def test_trace_is_streamed_not_kept(self, increment_parts):
        tree, _, instructions = increment_parts
        state = initialize(tree, parse_tape("tape-alphabet one"), "last", instructions)
        entries = []
        result = run(state, on_step=entries.append)
        assert result.outcome == CRASHED
        assert result.trace == []
        assert [e.step for e in entries] == list(range(1, result.steps + 1))
        assert entries[-1].direction.startswith(f"crash {NORMAL_CONDITION_VIOLATED}: ")

    def test_tracing_can_start_mid_run(self, increment_text):
        _, full, _, _, _ = execute(increment_text, "one one", "last")
        tree, _, instructions = prepare(increment_text)
        state = initialize(tree, parse_tape("one one"), "last", instructions)
        for _ in range(5):
            step(state)
        late = []
        run(state, on_step=late.append)
        assert late == full[5:]

    def test_untraced_step_cost_does_not_grow_with_the_tape(
        self, increment_text, monkeypatch
    ):
        """No step renders the tape or lists every arrow, and each program
        node's step scans as many arrows on a 1 000-cell tape as on a
        10-cell one."""
        calls = {"arrows": 0, "chain_text": 0}
        scanned = [0]
        arrows, chain_text = LabeledGraph.arrows, tape_module.chain_text

        def counted_arrows(self):
            calls["arrows"] += 1
            return arrows(self)

        def counted_chain_text(g, cell):
            calls["chain_text"] += 1
            return chain_text(g, cell)

        monkeypatch.setattr(LabeledGraph, "arrows", counted_arrows)
        monkeypatch.setattr(tape_module, "chain_text", counted_chain_text)
        monkeypatch.setattr(executor_module, "chain_text", counted_chain_text)
        for name in ("out_arrows", "in_arrows"):

            def counted(self, *args, _adjacent=getattr(LabeledGraph, name), **kwargs):
                pairs = _adjacent(self, *args, **kwargs)
                scanned[0] += len(pairs)
                return pairs

            monkeypatch.setattr(LabeledGraph, name, counted)

        def scans_by_node(cells: int) -> dict[int, set[int]]:
            tree, _, instructions = prepare(increment_text)
            tape = parse_tape(" ".join(["one"] * cells))
            state = initialize(tree, tape, "last", instructions)
            calls.update(arrows=0, chain_text=0)
            by_node: dict[int, set[int]] = {}
            while state.status == RUNNING:
                node = state.current
                scanned[0] = 0
                step(state)
                by_node.setdefault(node, set()).add(scanned[0])
            assert calls == {"arrows": 0, "chain_text": 0}
            assert state.status == STOPPED
            assert state.steps == 8 * cells + 2
            return by_node

        assert scans_by_node(10) == scans_by_node(1000)


class TestTraceFormats:
    def test_text_lines(self, increment_text):
        _, trace, _, _, _ = execute(increment_text, "one one", "last")
        lines = trace_text(trace).split("\n")
        assert len(lines) == 18
        assert lines[0] == "1 \"tape-alphabet\" follow the 'next' arrow"
        assert lines[-1] == "18 'stop' stop"

    def test_json_round_trip(self, increment_text):
        result, trace, _, _, _ = execute(increment_text, "zero", "last")
        rows = json.loads(trace_json(trace))
        assert len(rows) == result.steps
        assert rows[0]["label"] == "tape-alphabet"
        assert rows[0]["tape"] is None
        changed = [r for r in rows if r["tape"] is not None]
        assert changed[0]["step"] == 2
