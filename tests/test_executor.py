"""Instruction installation, tape attachment, and graph-walking runs."""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordtree import executor as executor_module
from wordtree import graph as graph_module
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
    trace_line,
    trace_row,
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
    Inapplicable,
    LabelsEqual,
    NoArrowFrom,
    NoArrowTo,
    ReassignArrow,
    RelabelNode,
    LabeledGraph,
    StartAmbiguous,
    Stop,
    Tree,
    check_uni_labeled,
    export_json,
    resolve,
)
from wordtree.pipeline import CheckFailed, execute_program
from wordtree.semantics import STATEMENT, classify, find_points
from wordtree.tape import parse_tape, render_tape

import reference_tape

EXPECTED_RUNS = json.loads(
    (Path(__file__).parent / "data" / "expected_runs.json").read_text()
)


def prepare(text: str):
    tree = parse_text(text)
    classes = classify(tree)
    points = find_points(tree, classes)
    stop = add_stop_node(tree)
    build_back_arrows(tree, stop, points)
    build_control(tree, stop, points)
    instructions = install_instructions(tree, stop, points.statements)
    return tree, stop, instructions


def resolved(state, path):
    """Where ``path`` resolves in the state's graph, or why it does not."""
    try:
        return resolve(state.tree.graph, path)
    except (Inapplicable, StartAmbiguous) as failure:
        return type(failure), str(failure)


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
            install_instructions(tree, stop, find_points(tree, classify(tree)).statements)


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
        before = export_json(tree.graph)
        with pytest.raises(ValueError, match="outside"):
            initialize(tree, tape, 5, instructions)
        with pytest.raises(ValueError, match="outside"):
            initialize(tree, tape, -1, instructions)
        with pytest.raises(ValueError, match="start"):
            initialize(tree, tape, "middle", instructions)
        assert export_json(tree.graph) == before

    def test_refuses_second_tape(self, increment_parts):
        tree, _, instructions = increment_parts
        initialize(tree, parse_tape("one"), "first", instructions)
        with pytest.raises(ValueError, match="tape"):
            initialize(tree, parse_tape("one"), "first", instructions)

    @pytest.mark.parametrize(
        "tape, message",
        [
            (("one", "One"), "illegal tape word 'One'"),
            (("one", ";"), "illegal tape word ';'"),
            ("one", "a tape is a sequence of cell words, not a string"),
        ],
    )
    def test_illegal_words_refused_before_the_mount(self, increment_text, tape, message):
        """The refused mount leaves no trace: a later mount matches one on a fresh copy."""
        tree, _, instructions = prepare(increment_text)
        fresh = Tree(tree.graph.copy(), tree.root)
        before = export_json(tree.graph)
        with pytest.raises(ValueError) as refusal:
            initialize(tree, tape, "last", instructions)
        assert str(refusal.value) == message
        assert export_json(tree.graph) == before
        assert tree.graph.arrows_labeled("tape") == []
        state = initialize(tree, parse_tape("tape-alphabet one"), "first", instructions)
        expected = initialize(fresh, parse_tape("tape-alphabet one"), "first", instructions)
        assert export_json(state.tree.graph) == export_json(expected.tree.graph)
        for path in (TAPE_PATH, LEFT_CELL_PATH, RIGHT_CELL_PATH):
            assert resolved(state, path) == resolved(expected, path)
        assert run(state).outcome == run(expected).outcome == STOPPED

    @pytest.mark.parametrize("cells", [1, 2, 7, 300])
    def test_mount_adds_each_cell_and_arrow_once(self, monkeypatch, increment_parts, cells):
        """n cells add n nodes and n arrows, n - 1 chain arrows plus 'tape', and walk nothing.

        Every node and arrow enters a graph through ``extend``; the cells
        and their chain take one call and the 'tape' arrow another.
        """
        tree, _, instructions = increment_parts
        calls = Counter()
        for name in ("chain", "follow", "ends"):

            def counted(self, *args, _name=name, _original=getattr(LabeledGraph, name)):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(LabeledGraph, name, counted)
        extend = LabeledGraph.extend

        def counted_extend(self, labels, srcs=(), words=(), dsts=(), kind=SYNTACTIC):
            calls["extend"] += 1
            calls["nodes"] += len(labels)
            calls["arrows"] += len(words)
            return extend(self, labels, srcs, words, dsts, kind)

        monkeypatch.setattr(LabeledGraph, "extend", counted_extend)
        initialize(tree, parse_tape(" ".join(["one"] * cells)), "last", instructions)
        monkeypatch.undo()
        assert calls == Counter(extend=2, nodes=cells, arrows=cells)

    @given(st.data())
    @settings(deadline=None)
    def test_mount_matches_the_merged_mount(self, increment_text, data):
        """Cells added straight to the program graph match the parse-then-merge mount."""
        template, _, instructions = prepare(increment_text)
        g = template.graph
        declared = [g.node_label(n) for n in semantics.w_declaration_points(template)]
        cell_words = st.one_of(
            st.sampled_from(["", "tape-alphabet", "stop", *declared]),
            st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=4),
        )
        words = data.draw(st.lists(cell_words, min_size=1, max_size=12))
        start = data.draw(st.sampled_from(["first", "last", *range(len(words))]))
        text = render_tape(words)
        state = initialize(
            Tree(g.copy(), template.root), parse_tape(text), start, instructions
        )
        expected = reference_tape.initialize(
            Tree(g.copy(), template.root), reference_tape.parse_tape(text), start, instructions
        )
        assert export_json(state.tree.graph) == export_json(expected.tree.graph)
        assert final_tape(state) == final_tape(expected) == text
        for path in (TAPE_PATH, LEFT_CELL_PATH, RIGHT_CELL_PATH):
            assert resolved(state, path) == resolved(expected, path)


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


# Runs at the edge of a crash: a tape cell labeled with the program
# root's word, which must not shadow the root (the run stops), and a
# second 'tape' arrow added after the tape is mounted (the run crashes).
EDGE_RUNS = [
    {"tape": "tape-alphabet one", "start": "last"},
    {"tape": "one", "start": "first", "second_tape_arrow": True, "id": "two tape arrows"},
]


class TestModes:
    @pytest.mark.parametrize(
        "case",
        EXPECTED_RUNS["cases"][:3] + EDGE_RUNS,
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

    def test_cautious_runs_resolve_as_often_as_normal_ones(self, increment_text, monkeypatch):
        """increment.tgl on 'one' x 50 'blank' from the last cell: 410 steps, 513 resolves each."""
        calls = Counter()
        original = graph_module.resolve

        def counted(*args, **kwargs):
            calls[cautious] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(graph_module, "resolve", counted)
        for cautious in (False, True):
            tree, _, instructions = prepare(increment_text)
            tape = parse_tape(" ".join(["one"] * 50 + ["blank"]))
            state = initialize(tree, tape, "last", instructions, cautious)
            assert run(state).steps == 410
        assert calls == {False: 513, True: 513}

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
        state = initialize(tree, parse_tape("one"), "first", instructions)
        tree.graph.add_arrow(tree.root, "tape", tree.root, SEMANTIC)
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
        lines = [trace_line(entry) for entry in trace]
        assert len(lines) == 18
        assert lines[0] == "1 \"tape-alphabet\" follow the 'next' arrow"
        assert lines[-1] == "18 'stop' stop"

    def test_json_round_trip(self, increment_text):
        result, trace, _, _, _ = execute(increment_text, "zero", "last")
        rows = json.loads(json.dumps(list(map(trace_row, trace))))
        assert len(rows) == result.steps
        assert rows[0]["label"] == "tape-alphabet"
        assert rows[0]["tape"] is None
        changed = [r for r in rows if r["tape"] is not None]
        assert changed[0]["step"] == 2
