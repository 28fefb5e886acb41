"""Instruction installation, tape attachment, and graph-walking runs."""

import copy
import functools
import itertools
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordtree import executor as executor_module
from wordtree import graph as graph_module
from wordtree import pipeline, semantics
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
    RIGHT_CELL_PATH,
    RUNNING,
    STOPPED,
    TAPE_ARROW,
    TAPE_PATH,
    Act,
    DirectionsExhausted,
    Guarded,
    Instruction,
    NoInstruction,
    final_tape,
    initialize,
    install_instructions,
    run,
    step,
    trace_line,
    trace_row,
)
from wordtree.frontend import ParseError, parse_text, render_program, to_canonical
from wordtree.graph import (
    CONTROL,
    SEMANTIC,
    SYNTACTIC,
    TAPE,
    CreateNodeWithArrowFromSource,
    CreateNodeWithArrowToTarget,
    FollowArrow,
    FollowArrowTo,
    Inapplicable,
    LabelsEqual,
    NoArrowFrom,
    NoArrowTo,
    NormalConditionViolated,
    ReassignArrow,
    RelabelNode,
    LabeledGraph,
    Settled,
    StartAmbiguous,
    Tree,
    UniqueArrowExists,
    check_uni_labeled,
    export_json,
    resolve,
)
from wordtree.pipeline import CheckFailed, check_program, execute_program, make_executable
from wordtree.schema import generate_sytr, turingol_schema
from wordtree.semantics import PRINT_WORD_PATH, STATEMENT, SYMBOL_PATH, classify
from wordtree.tape import parse_tape, render_tape

from conftest import count_graph_reads
from fail_safety import repair
import reference_executor as reference
import reference_tape
from reference_executor import unsettled

EXPECTED_RUNS = json.loads(
    (Path(__file__).parent / "data" / "expected_runs.json").read_text()
)


def prepare(text: str):
    tree = parse_text(text)
    points = classify(tree)
    stop = add_stop_node(tree)
    build_back_arrows(tree, stop, points)
    build_control(tree, stop, points)
    instructions = install_instructions(tree, stop, points)
    return tree, stop, instructions


def resolved(state, path):
    """Where ``path`` resolves in the state's graph, or why it does not."""
    try:
        return resolve(state.tree.graph, path)
    except (Inapplicable, StartAmbiguous) as failure:
        return type(failure), str(failure)


def statements(tree) -> list[int]:
    classes = classify(tree).classes
    return [n for n in tree.graph.nodes() if classes[n] == STATEMENT]


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


def snapshot_run(text: str, tape_text: str, start):
    """Run with ``reference_tape.snapshot_trace``; the result and its (entry, snapshot) pairs."""
    tree, _, instructions = prepare(text)
    state = initialize(tree, parse_tape(tape_text), start, instructions)
    pairs = []
    return run(state, on_step=reference_tape.snapshot_trace(state, pairs)), pairs


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
        g = tree.graph
        if1 = statements(tree)[2]
        assert unsettled(instructions[if1]) == reference.IF_SYMBOL
        assert instructions[if1].phrases() == [
            'if the "tape-alphabet"+tape node label equals the +""+is '
            "node label, then follow the 'yes' arrow",
            "follow the 'no' arrow",
        ]
        guarded, otherwise = instructions[if1].directions
        assert guarded.condition == LabelsEqual(
            Settled(TAPE_PATH, tree.root, 0, TAPE_PATH.steps),
            Settled(SYMBOL_PATH, resolve(g, SYMBOL_PATH, if1), 2, ()),
        )
        assert guarded.action == FollowArrowTo("yes", g.follow(if1, "+", "yes"))
        assert otherwise.action == FollowArrowTo("no", g.follow(if1, "+", "no"))

    def test_print_instruction(self, increment_parts):
        tree, _, instructions = increment_parts
        g = tree.graph
        p1 = statements(tree)[0]
        assert unsettled(instructions[p1]) == reference.PRINT_WORD
        assert instructions[p1].directions == (
            Act(
                RelabelNode(
                    Settled(TAPE_PATH, tree.root, 0, TAPE_PATH.steps),
                    Settled(PRINT_WORD_PATH, resolve(g, PRINT_WORD_PATH, p1), 1, ()),
                )
            ),
            Act(FollowArrowTo(NEXT, g.follow(p1, "+", NEXT))),
        )

    def test_move_instructions_mirror(self, increment_parts):
        tree, _, instructions = increment_parts
        m1, m2 = statements(tree)[5], statements(tree)[8]
        left = unsettled(instructions[m1]).directions
        assert left[0] == Guarded(
            NoArrowTo("", TAPE_PATH), CreateNodeWithArrowToTarget(TAPE_PATH)
        )
        assert left[1] == Act(ReassignArrow("tape", LEFT_CELL_PATH))
        assert left[2] == Act(FollowArrow(NEXT))
        right = unsettled(instructions[m2]).directions
        assert right[0] == Guarded(
            NoArrowFrom("", TAPE_PATH), CreateNodeWithArrowFromSource(TAPE_PATH)
        )
        assert right[1] == Act(ReassignArrow("tape", RIGHT_CELL_PATH))
        # Only the start of a cell path is program side.
        for node, path in ((m1, LEFT_CELL_PATH), (m2, RIGHT_CELL_PATH)):
            shift = instructions[node].directions[1].action
            assert shift.target == Settled(path, tree.root, 0, path.steps)

    def test_plain_nodes_follow_next(self, increment_parts):
        tree, stop, instructions = increment_parts
        names = statements(tree)
        for node in (tree.root, names[1], names[3], names[6], names[10]):
            assert unsettled(instructions[node]) == reference.FOLLOW_NEXT
            (direction,) = instructions[node].directions
            assert direction == Act(FollowArrowTo(NEXT, tree.graph.follow(node, "+", NEXT)))
        assert instructions[stop] == reference.STOP

    def test_each_nodes_phrases_equal_its_shapes(self, increment_text):
        """Each flow node holds an instruction of its own, worded as its shape is."""
        tree, stop, instructions = prepare(increment_text)
        shapes = reference.install_instructions(tree, stop, statements(tree))
        assert instructions.keys() == shapes.keys()
        for node, instruction in instructions.items():
            assert instruction.phrases() == shapes[node].phrases()
            assert unsettled(instruction) == shapes[node]
        assert Counter(reference.SHAPES.index(shape) for shape in shapes.values()) == {
            0: 5,  # follow 'next'
            1: 1,  # stop
            2: 2,  # if
            3: 3,  # print
            4: 1,  # move left
            5: 1,  # move right
        }
        assert len(set(map(id, instructions.values()))) == len(instructions)

    def test_empty_statement_follows_next(self):
        tree, stop, instructions = prepare("tape-alphabet is a;\n.")
        empty = statements(tree)[0]
        assert tree.graph.node_label(empty) == ""
        assert unsettled(instructions[empty]) == reference.FOLLOW_NEXT

    def test_word_paths_are_settled_from_the_tree_not_the_usages(self, increment_text):
        """The map is the same when the points hold no usage: each word is found along its path.

        The grown programs are repaired as the fail-safety experiment
        repairs them, so that their ifs and prints name declared words.
        """
        texts = [increment_text]
        for seed in range(60):
            tree = to_canonical(
                generate_sytr(turingol_schema(), "P", random.Random(seed), node_budget=120)
            )
            repair(tree, random.Random(seed))
            texts.append(render_program(tree))
        worded = 0
        for text in texts:
            result = check_program(text)
            g, points = result.tree.graph, result.points
            if not result.runnable:
                continue
            worded += any(g.node_label(n) in ("if", "print") for n in points.statements)
            instructions = install_instructions(result.tree, result.stop, points)
            bare = points._replace(usages=())
            assert install_instructions(result.tree, result.stop, bare) == instructions
        assert worded >= 20

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
        assert [a for _, a in g.out_arrows(arrow.dst) if a.kind == TAPE] == []

    def test_state_starts_at_root(self, increment_parts):
        tree, _, instructions = increment_parts
        state = initialize(tree, parse_tape("one"), "first", instructions)
        assert state.current == tree.root
        assert state.steps == 0
        assert state.status == RUNNING
        assert final_tape(state) == "one"

    def test_index_zero_is_first(self, increment_text):
        for start in ("first", 0):
            tree, _, instructions = prepare(increment_text)
            initialize(tree, parse_tape("one zero"), start, instructions)
            g = tree.graph
            cell = [a.dst for _, a in g.arrows() if a.label == "tape"][0]
            assert [a for _, a in g.in_arrows(cell) if a.kind == TAPE] == []

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
        fresh = Tree(copy.deepcopy(tree.graph), tree.root)
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

    def test_cells_stay_out_of_the_node_label_index(self, increment_text):
        """Cells carrying the root's word leave one node under it in the index.

        So ``resolve`` finds the absolute start of the tape paths in one
        lookup, however many cells say ``tape-alphabet``, and the run ends
        as it ends with any other cell words there.
        """
        cells = 100_000
        filler = ["tape-alphabet"] * cells
        result = check_program(increment_text)
        root = result.tree.root
        state = initialize(
            result.tree, filler + ["one", "zero", "one", "one", "blank"], "last",
            make_executable(result),
        )
        g = state.tree.graph
        assert g._by_label["tape-alphabet"] == {root}
        g.set_node_label(g.node_count - 2, "tape-alphabet")
        g.set_node_label(g.node_count - 2, "one")
        assert g._by_label["tape-alphabet"] == {root}
        assert g.nodes_labeled("tape-alphabet") == [root]
        outcome = run(state)
        assert (outcome.outcome, outcome.steps) == (STOPPED, 26)
        assert final_tape(state) == " ".join(filler + ["one", "one", "zero", "zero", "point"])
        assert g._by_label["tape-alphabet"] == {root}

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
            Tree(copy.deepcopy(g), template.root), parse_tape(text), start, instructions
        )
        expected = reference_tape.initialize(
            Tree(copy.deepcopy(g), template.root), reference_tape.parse_tape(text), start, instructions
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
        """Each check runs once per distinct text, however many tapes it runs on."""
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
        pipeline._executable.cache_clear()
        for tape in ("one one", "one", "blank one"):
            execute_program(increment_text, tape)
        assert calls == {"classify": 1, "check_alphabet": 1, "check_labels": 1}
        execute_program("tape-alphabet is one;\nprint 'one'.", "one")
        assert calls == {"classify": 2, "check_alphabet": 2, "check_labels": 2}


class TestKeptProgram:
    """``execute_program`` keeps the last checked program and runs each tape on a copy."""

    def test_runs_leave_the_kept_program_as_checked(self, increment_text):
        pipeline._executable.cache_clear()
        printing = "tape-alphabet is one, two;\nprint 'two'."
        growing = (
            "tape-alphabet is one;\n"
            "move left one-square; move right one-square; move right one-square."
        )
        looping = (
            "tape-alphabet is one;\nx: print 'one'; move right one-square;\n"
            "move left one-square; if the-tape-symbol is 'one' then go to x."
        )
        for text, tape, start, max_steps, outcome in [
            (increment_text, "one one blank", "last", 10_000, STOPPED),
            (increment_text, "one one one", "last", 5, BUDGET_EXHAUSTED),
            (printing, "one one", "first", 10_000, STOPPED),
            (growing, "one", "first", 10_000, STOPPED),
            (looping, '""', "first", 50, BUDGET_EXHAUSTED),
        ]:
            for _ in range(2):
                result = execute_program(text, tape, start, max_steps)
                assert result.outcome == outcome
            kept, _ = pipeline._executable(text)
            assert export_json(kept.graph) == export_json(check_program(text).tree.graph)

    def test_runs_of_one_text_hold_their_own_graphs(self, increment_text):
        first = execute_program(increment_text, "one one blank")
        second = execute_program(increment_text, "blank")
        kept, _ = pipeline._executable(increment_text)
        graphs = [first.state.tree.graph, second.state.tree.graph, kept.graph]
        assert len({id(g) for g in graphs}) == 3
        assert first.state.tree.root == second.state.tree.root == kept.root
        assert final_tape(first.state) == "one zero zero point"
        assert final_tape(second.state) == "one point"
        assert kept.graph.pairs_labeled("tape") == []

    def test_refusals_are_raised_on_every_call(self, increment_text, program_path):
        duplicate = program_path("duplicate_label.tgl").read_text()
        for _ in range(2):
            with pytest.raises(CheckFailed, match="L1"):
                execute_program(duplicate, "one")
            with pytest.raises(ParseError):
                execute_program("tape-alphabet is one;\nprint", "one")
        execute_program(increment_text, "one")
        for bad_tape, start in [("one Two", "first"), ("one", 3), ("  ", "last")]:
            with pytest.raises(ValueError):
                execute_program(increment_text, bad_tape, start)
            result = execute_program(increment_text, "one one blank")
            assert result.outcome == STOPPED
            assert final_tape(result.state) == "one zero zero point"


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

    def test_each_crash_situation_is_the_name_of_its_exception(self):
        """The step loop reports a crash by the class of the exception the step raised."""
        raised = (NoInstruction, DirectionsExhausted, NormalConditionViolated)
        situations = (NO_INSTRUCTION, DIRECTIONS_EXHAUSTED, NORMAL_CONDITION_VIOLATED)
        assert tuple(crash.__name__ for crash in raised) == situations

    def test_finished_state_cannot_step(self, increment_text):
        result, _, _, _, _ = execute(increment_text, "one", "last")
        assert result.outcome == STOPPED
        with pytest.raises(ValueError, match="stopped"):
            step(result.state)


@functools.cache
def grown_runnable_texts() -> tuple[str, ...]:
    """The first 40 runnable programs ``generate_sytr`` grows, seed 0 onward, as criterion 10 grows them.

    About one seed in six grows a runnable program: the 40 take seeds 0-234.
    """
    texts = []
    for seed in itertools.count():
        grown = generate_sytr(turingol_schema(), "P", random.Random(seed))
        text = render_program(to_canonical(grown))
        if check_program(text).runnable:
            texts.append(text)
            if len(texts) == 40:
                return tuple(texts)


# A fault planted in the mounted state, so that runs end in each kind of crash too.
FAULTS = (None, "two tape arrows", NO_INSTRUCTION, DIRECTIONS_EXHAUSTED)
# And three that meet the kinds of link an instruction folds into: a direction after
# an ending one, which must never run; a last direction whose guard never holds, so the
# step runs out of directions; and a value that is no item of the algebra, refused.
AFTER_THE_END = "a direction after the end"
FALSE_LAST_GUARD = "a false last guard"
FOREIGN = "a foreign item"
FOLD_FAULTS = FAULTS + (AFTER_THE_END, FALSE_LAST_GUARD, FOREIGN)


def plant(state, fault, faulty: int) -> None:
    """Plant ``fault`` in a mounted state; an instruction fault goes in node ``faulty``."""
    instructions = state.instructions
    if fault == "two tape arrows":
        state.tree.graph.add_arrow(state.tree.root, "tape", state.tree.root, SEMANTIC)
    elif fault == NO_INSTRUCTION:
        del instructions[faulty]
    elif fault == DIRECTIONS_EXHAUSTED:
        instructions[faulty] = Instruction(())
    elif fault is not None:
        *first, (last,) = instructions[faulty].directions  # every last direction is an Act
        planted = {
            AFTER_THE_END: (*first, Act(last), Act("never run")),
            FALSE_LAST_GUARD: (*first, Guarded(UniqueArrowExists("never"), last)),
            FOREIGN: (Act("x"), *first, Act(last)),
        }
        instructions[faulty] = Instruction(planted[fault])


class TestOneLoop:
    """``run`` and ``step`` share one loop: stepping equals running."""

    @given(st.data())
    @settings(deadline=None, max_examples=80)
    def test_stepping_equals_running(self, data):
        text = data.draw(st.sampled_from(grown_runnable_texts()))
        result = check_program(text)
        instructions = make_executable(result)
        g = result.tree.graph
        declared = sorted({g.node_label(node) for node in result.points.declarations})
        cells = data.draw(
            st.lists(st.sampled_from(declared + ["", "tape-alphabet"]), min_size=1, max_size=8)
        )
        start = data.draw(st.sampled_from(["first", "last"]) | st.integers(0, len(cells) - 1))
        budget = data.draw(st.integers(0, 60))
        fault = data.draw(st.sampled_from(FAULTS))
        faulty = data.draw(st.sampled_from(sorted(instructions)))

        def mounted():
            """A fresh state, its ``on_step``, and the entries and states that callback saw."""
            state = initialize(copy.deepcopy(result.tree), cells, start, instructions)
            if fault == "two tape arrows":
                state.tree.graph.add_arrow(state.tree.root, "tape", state.tree.root, SEMANTIC)
            elif fault == NO_INSTRUCTION:
                del state.instructions[faulty]
            elif fault == DIRECTIONS_EXHAUSTED:
                state.instructions[faulty] = Instruction(())
            entries, seen = [], []

            def on_step(entry):
                entries.append(entry)
                seen.append((state.steps, state.current, state.status))

            return state, on_step, entries, seen

        def ending(state) -> tuple:
            return state.steps, state.current, state.status, state.situation, final_tape(state)

        stepped, on_step, stepped_entries, stepped_seen = mounted()
        while stepped.status == RUNNING and stepped.steps < budget:
            step(stepped, on_step)
        ran, on_step, ran_entries, ran_seen = mounted()
        outcome = run(ran, budget, on_step)
        assert ending(stepped) == ending(ran)
        assert stepped_entries == ran_entries
        assert stepped_seen == ran_seen
        assert [steps for steps, _, _ in ran_seen] == [e.step for e in ran_entries]
        quiet, _, _, _ = mounted()
        assert run(quiet, budget)[:3] == outcome[:3]
        assert ending(quiet) == ending(ran)

        # A finished state, or one at its budget, is returned unstepped.
        before = ending(stepped)
        again = run(stepped, budget, on_step=stepped_entries.append)
        assert again[:3] == outcome[:3] and again.state is stepped
        assert ending(stepped) == before
        assert stepped_entries == ran_entries

    def test_shared_instructions_carry_no_run_state(self, increment_text):
        """Two runs of one instruction map, stepped in turn, trace as each run alone does.

        The map's instruction objects are shared by both runs, as the
        kept program's are by every run of ``execute_program``. An
        untraced run binds each instruction it reaches and never builds
        its traced form.
        """
        result = check_program(increment_text)
        instructions = make_executable(result)
        tapes = [["one", "one", "zero", "blank"], ["zero", "one", "one", "one", "blank"]]

        def mounted(cells):
            return initialize(copy.deepcopy(result.tree), cells, "last", instructions)

        for cells in tapes:
            assert run(mounted(cells)).outcome == STOPPED
        assert all("traced" not in vars(instruction) for instruction in instructions.values())
        bound = [node for node, instruction in instructions.items() if "bound" in vars(instruction)]
        assert sorted(bound) == sorted(instructions)  # both runs reach every node

        alone = []
        for cells in tapes:
            entries = []
            run(mounted(cells), on_step=entries.append)
            alone.append(entries)
        states = [mounted(cells) for cells in tapes]
        together = [[] for _ in tapes]
        while any(state.status == RUNNING for state in states):
            for state, entries in zip(states, together):
                if state.status == RUNNING:
                    step(state, entries.append)
        assert together == alone
        assert len(alone[0]) != len(alone[1])

    @pytest.mark.parametrize(
        "direction", [Act("x"), Guarded("x", FollowArrow(NEXT))], ids=["act", "guarded"]
    )
    @pytest.mark.parametrize("advance", [step, run])
    def test_a_foreign_item_is_refused(self, increment_parts, direction, advance):
        tree, _, instructions = increment_parts
        state = initialize(tree, parse_tape("one"), "first", instructions)
        state.instructions[tree.root] = Instruction((direction,))
        with pytest.raises(TypeError, match="not a proposition or action: 'x'"):
            advance(state)


class TestRuns:
    @pytest.mark.parametrize("case", EXPECTED_RUNS["cases"], ids=lambda c: c["tape"])
    def test_expected_runs(self, increment_text, case):
        result, pairs = snapshot_run(increment_text, case["tape"], case["start"])
        assert result.outcome == case["outcome"]
        assert result.steps == case["steps"]
        assert final_tape(result.state) == case["final_tape"]
        assert [e.label for e, _ in pairs] == case["trace_labels"]
        if "snapshots" in case:
            changes = [[e.step, text] for e, text in pairs if text is not None]
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


def own_parts(g, nodes: int, arrows: int) -> dict:
    """What a run may not write: the first ``nodes`` nodes' labels and index entries,
    the label index, and the columns of the first ``arrows`` arrows."""
    return {
        "labels": g._nodes[:nodes],
        "by_label": {word: set(members) for word, members in g._by_label.items()},
        "columns": (g._src[:arrows], g._label[:arrows], g._dst[:arrows], g._kind[:arrows]),
        "out": [dict(firsts) for firsts in g._out[:nodes]],
        "out_more": {key: ids[:] for key, ids in g._out_more.items() if key[0] < nodes},
        "in": [ids[:] for ids in g._in[:nodes]],
    }


@st.composite
def mounted_runs(draw):
    """A checked runnable program, cells over its words, a start and a budget.

    Half the programs are increment.tgl, whose compared and printed words
    differ from statement to statement; the rest are grown.
    """
    increment = (Path(__file__).resolve().parent.parent / "programs" / "increment.tgl").read_text()
    result = check_program(draw(st.just(increment) | st.sampled_from(grown_runnable_texts())))
    g = result.tree.graph
    declared = sorted({g.node_label(node) for node in result.points.declarations})
    cells = draw(
        st.lists(
            st.sampled_from(declared + ["", "tape-alphabet", "stop", "fresh"]),
            min_size=1,
            max_size=8,
        )
    )
    start = draw(st.sampled_from(["first", "last"]) | st.integers(0, len(cells) - 1))
    return result, cells, start, draw(st.integers(0, 200))


class TestSettled:
    """Each flow node's program side is settled at install; a run resolves the tape side."""

    @given(mounted_runs())
    @settings(deadline=None, max_examples=80)
    def test_a_run_writes_only_the_tape(self, drawn):
        """What the settled prefixes rest on: a run leaves the program as the mount found it.

        The own nodes keep their labels, their out- and in-arrow entries
        and their place in the label index, and every arrow the program
        had keeps its origin, label, destination and kind. The one entry
        the mount adds among them is the root's 'tape' arrow.
        """
        result, cells, start, budget = drawn
        tree = copy.deepcopy(result.tree)
        g = tree.graph
        nodes, arrows = g.node_count, g.arrow_count
        before = own_parts(g, nodes, arrows)
        state = initialize(tree, cells, start, make_executable(result))
        run(state, budget)
        after = own_parts(g, nodes, arrows)
        assert after["out"][tree.root].pop(TAPE_ARROW) >= arrows
        assert after == before

    @given(mounted_runs(), st.sampled_from(FOLD_FAULTS), st.data())
    @settings(deadline=None, max_examples=80)
    def test_bound_runs_equal_shared_shape_runs(self, drawn, fault, data):
        """Bound instructions run as the unspecialised shapes do, faults planted or not.

        Each map runs untraced and traced, and traced through the
        reference loop, which runs each direction in turn instead of
        the fold. Compared across the six runs: the outcome and the
        steps, or the refusal, the final tape, and the state's node,
        status and crash report; and between the traced runs, every
        trace entry. A direction after an ending one never runs, so it
        leaves every run as it was without it.
        """
        result, cells, start, budget = drawn
        bound = make_executable(result)
        shared = reference.install_instructions(result.tree, result.stop, result.points.statements)
        faulty = data.draw(st.sampled_from(sorted(bound)))

        def runs(fault, faulty) -> list:
            return [
                ran(result.tree, instructions, cells, start, budget, fault, faulty, traced, runner)
                for instructions in (bound, shared)
                for traced, runner in ((False, run), (True, run), (True, reference.run_directions))
            ]

        shown = runs(fault, faulty)
        assert all(each[:2] + each[3:] == shown[0][:2] + shown[0][3:] for each in shown)
        assert all(each[2] == shown[1][2] for each in shown if each[2] is not None)
        if fault == AFTER_THE_END:
            assert shown == runs(None, None)

    @pytest.mark.parametrize("start_word", ["named twice", "named by none"])
    def test_a_start_that_names_no_single_node_is_left_unsettled(self, increment_text, start_word):
        """The tape paths keep their formulas, and the run crashes as the shared shapes' does."""
        result = check_program(increment_text)
        tree = copy.deepcopy(result.tree)
        if start_word == "named twice":
            tree.graph.add_node("tape-alphabet")
        else:
            tree.graph.set_node_label(tree.root, "tape-alphabets")
        bound = install_instructions(tree, result.stop, result.points)
        first_print = result.points.statements[0]
        relabel = bound[first_print].directions[0].action
        assert relabel.target is TAPE_PATH
        assert isinstance(relabel.source, Settled)
        shared = reference.install_instructions(tree, result.stop, result.points.statements)
        outcomes = [
            ran(tree, instructions, ["one", "blank"], "last", 100, None, None)
            for instructions in (bound, shared)
        ]
        assert outcomes[0] == outcomes[1]
        (outcome, _), _, entries, (_, status, situation) = outcomes[0]
        assert (outcome, status) == (CRASHED, CRASHED)
        assert situation.situation == NORMAL_CONDITION_VIOLATED
        count = 2 if start_word == "named twice" else 0
        assert situation.detail == (
            'path "tape-alphabet"+tape is not passable: '
            f'start label "tape-alphabet" names {count} nodes'
        )
        assert entries[-1].direction == f"crash {NORMAL_CONDITION_VIOLATED}: {situation.detail}"


def ran(tree, instructions, cells, start, budget, fault, faulty, traced=True, runner=run) -> tuple:
    """Run ``instructions`` on a copy of ``tree`` with ``fault`` planted; what the run showed.

    That is the outcome and the steps, or the text of the TypeError that
    refused the run, the final tape, the trace entries (None for an
    untraced run), and the state's node, status and crash report.
    ``runner`` is ``run`` or the reference loop.
    """
    state = initialize(copy.deepcopy(tree), cells, start, instructions)
    plant(state, fault, faulty)
    entries = [] if traced else None
    try:
        shown = runner(state, budget, entries.append if traced else None)[:2]
    except TypeError as refused:
        shown = str(refused)
    return shown, final_tape(state), entries, (state.current, state.status, state.situation)


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
    """``initialize`` accepts ``cautious`` and ignores it: every run is cautious."""

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
                tree, parse_tape(case["tape"]), case["start"], instructions, cautious=cautious
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
        """Bound steps walk their paths as often, and defer to ``locate`` as often, either way.

        increment.tgl on 'one' x 50 'blank' from the last cell takes 410
        steps, whose readers take 359 regular reads and defer to
        ``locate`` (and so to ``resolve``) never. 257 of the reads are
        of '"tape-alphabet"+tape', whose one-step reader reads the index
        in place; the 102 reads of a cell beside the head walk through
        ``_walk``. Run on 'one' with a second 'tape' arrow, it crashes
        at its first print: that step's one-step reader finds two 'tape'
        arrows and defers once, and ``resolve`` walks to say which step
        failed.
        """
        calls = Counter()
        running = []  # the (cautious, run) being counted, while ``run`` runs
        for name in ("_walk", "locate", "resolve"):

            def counted(*args, _name=name, _original=getattr(graph_module, name)):
                if running:
                    calls[(*running[0], _name)] += 1
                return _original(*args)

            monkeypatch.setattr(graph_module, name, counted)
        for cautious in (False, True):
            for run_name, cells, second_tape_arrow in [
                ("410 steps", ["one"] * 50 + ["blank"], False),
                ("two tape arrows", ["one"], True),
            ]:
                tree, _, instructions = prepare(increment_text)
                state = initialize(tree, cells, "last", instructions, cautious=cautious)
                if second_tape_arrow:
                    tree.graph.add_arrow(tree.root, "tape", tree.root, SEMANTIC)
                running.append((cautious, run_name))
                outcome = run(state)
                running.clear()
                assert (outcome.outcome, outcome.steps) == (
                    (CRASHED, 2) if second_tape_arrow else (STOPPED, 410)
                )
        for cautious in (False, True):
            assert calls[cautious, "410 steps", "_walk"] == 102
            assert calls[cautious, "410 steps", "locate"] == 0
            assert calls[cautious, "410 steps", "resolve"] == 0
            assert calls[cautious, "two tape arrows", "_walk"] == 1
            assert calls[cautious, "two tape arrows", "locate"] == 1
            assert calls[cautious, "two tape arrows", "resolve"] == 1

    def test_crashes_are_states_not_exceptions(self, increment_parts):
        tree, _, instructions = increment_parts
        state = initialize(tree, parse_tape("one"), "first", instructions)
        tree.graph.add_arrow(tree.root, "tape", tree.root, SEMANTIC)
        result = run(state)
        assert result.outcome == CRASHED
        assert state.situation.situation == NORMAL_CONDITION_VIOLATED

    def test_cautious_crash_is_structured(self, increment_parts):
        tree, _, instructions = increment_parts
        state = initialize(tree, parse_tape("one"), "first", instructions, cautious=True)
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
        node's step reads as many arrow ids on a 1 000-cell tape as on a
        10-cell one."""
        assert_step_cost_is_flat(increment_text, monkeypatch, on_step=None)

    def test_traced_step_cost_does_not_grow_with_the_tape(self, increment_text, monkeypatch):
        """A traced step renders nothing either: the entry is the node, its
        label and the direction taken, whatever the tape's length."""
        entries = []
        assert_step_cost_is_flat(increment_text, monkeypatch, on_step=entries.append)
        assert len(entries) == (8 * 10 + 2) + (8 * 1000 + 2)


def assert_step_cost_is_flat(increment_text, monkeypatch, on_step) -> None:
    """Run increment.tgl on 10 and 1 000 'one' cells, stepping with ``on_step``.

    No step may render the tape or list every arrow, and each program
    node's step must read as much on the long tape as on the short:
    what the bound steps read of the graph's columns and per-node
    indexes, which are swapped for counting ones after the mount, and
    the entries of every list a listing or navigation call returns.
    """
    calls = {"arrows": 0, "chain_text": 0}
    read = [0]
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
    listings = (
        "out_arrows",
        "in_arrows",
        "ends",
        "ends_of_kind",
        "pairs_labeled",
        "arrows_labeled",
        "nodes_labeled",
    )
    for name in listings:

        def counted(self, *args, listing=getattr(LabeledGraph, name), **kwargs):
            found = listing(self, *args, **kwargs)
            read[0] += len(found)
            return found

        monkeypatch.setattr(LabeledGraph, name, counted)

    def reads_by_node(cells: int) -> dict[int, set[int]]:
        tree, _, instructions = prepare(increment_text)
        tape = parse_tape(" ".join(["one"] * cells))
        state = initialize(tree, tape, "last", instructions)
        count_graph_reads(tree.graph, read)
        calls.update(arrows=0, chain_text=0)
        by_node: dict[int, set[int]] = {}
        while state.status == RUNNING:
            node = state.current
            read[0] = 0
            step(state, on_step)
            by_node.setdefault(node, set()).add(read[0])
        assert calls == {"arrows": 0, "chain_text": 0}
        assert state.status == STOPPED
        assert state.steps == 8 * cells + 2
        return by_node

    short = reads_by_node(10)
    assert short == reads_by_node(1000)
    assert any(count for counts in short.values() for count in counts)


class TestTraceFormats:
    def test_text_lines(self, increment_text):
        _, trace, _, _, _ = execute(increment_text, "one one", "last")
        lines = [trace_line(entry) for entry in trace]
        assert len(lines) == 18
        assert lines[0] == "1 \"tape-alphabet\" follow the 'next' arrow"
        assert lines[-1] == "18 'stop' stop"

    def test_json_round_trip(self, increment_text):
        result, pairs = snapshot_run(increment_text, "zero", "last")
        rows = json.loads(json.dumps([trace_row(entry, text) for entry, text in pairs]))
        assert len(rows) == result.steps
        assert rows[0]["label"] == "tape-alphabet"
        assert rows[0]["tape"] is None
        changed = [r for r in rows if r["tape"] is not None]
        assert changed[0]["step"] == 2
