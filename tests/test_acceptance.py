"""The ten gate checks, one test per numbered criterion, and a
fail-safety property beside criterion 8.

Each criterion test's name carries its number; the terminal summary hook
in conftest prints one PASS or FAIL line per number after the run.
"""

import copy
import json
import pathlib
import random
import re
import time
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from wordtree.control_flow import NEXT, NO, YES
from wordtree.executor import (
    BUDGET_EXHAUSTED,
    CRASHED,
    RUNNING,
    STOPPED,
    final_tape,
    initialize,
    run,
    step,
)
from wordtree.frontend import parse_text, render_program, to_canonical
from wordtree.graph import CONTROL, SYNTACTIC, TAPE, check_uni_labeled
from wordtree.pipeline import check_program, execute_program, make_executable
from wordtree.schema import (
    Literal,
    check_and_condition,
    export_grammar,
    generate_sytr,
    propagate_pairs,
    turingol_schema,
    uni_labeled_family,
)
from wordtree.semantics import STATEMENT
from wordtree.tape import parse_tape

from fail_safety import random_start, random_tape, repair, tape_vocabulary
from reference_schema import expansions, or_bearing_cycles

ORACLE = json.loads(
    (pathlib.Path(__file__).parent / "data" / "expected_runs.json").read_text()
)

FLOW = (NEXT, YES, NO)


def test_criterion_01_program_round_trip(increment_text):
    t0 = time.monotonic()
    sytr = parse_text(increment_text)
    assert check_uni_labeled(sytr.graph) == []
    result = check_program(increment_text)
    elapsed = time.monotonic() - t0
    assert result.ok
    assert len(result.warnings) == 1
    (warning,) = result.warnings
    assert warning.code == "AW3"
    assert "'blank'" in warning.message
    assert check_uni_labeled(result.tree.graph) == []
    assert elapsed < 1.0


def test_criterion_02_schema_analysis():
    schema = turingol_schema()
    assert check_and_condition(schema) == []
    assert set(or_bearing_cycles(schema)) == {("L", "S", "SC"), ("S", "SI")}
    report = propagate_pairs(schema)
    assert report.ok
    carried = {("L", Literal(";")), ("S", Literal(":"))}
    for name in ("SG", "SI", "SP", "SM", "SE", "SC"):
        assert carried <= report.pairs[name]
    assert uni_labeled_family(schema)


def test_criterion_03_expansion_counts():
    schema = turingol_schema()
    assert len(expansions(schema, "L")) == 2
    assert len(expansions(schema, "S")) == 12


def normalized(production: str):
    """Production text with each multi-part OR group replaced by a set."""
    groups = []

    def swap(match):
        groups.append(frozenset(p.strip() for p in match.group(1).split("|")))
        return "<OR>"

    residue = re.sub(r"\(([^()|]+\|[^()]+)\)", swap, production)
    return re.sub(r"\s+", " ", residue).strip(), groups


def test_criterion_04_grammar_export():
    lines = export_grammar(turingol_schema()).splitlines()
    by_name = dict(line.split(" ::= ", 1) for line in lines)
    assert by_name["L"] == "S (';' L)?"
    assert normalized(by_name["S"]) == (
        "(LD ':')? <OR>",
        [frozenset({"SG", "SI", "SP", "SM", "SE", "SC"})],
    )
    expected = {
        "I": "[a-z]+",
        "OS": "'one-square'",
        "DOT": "'.'",
        "LD": "[a-z]+ (':' LD)?",
        "DL": "[a-z]+ (',' DL)?",
        "STR": "''' I '''",
        "A": "'the-tape-symbol' 'is' STR",
        "SG": "'go' 'to' I",
        "SI": "'if' A 'then' S",
        "SP": "'print' STR",
        "SM": "'move' ('left' | 'right') OS",
        "SE": "''",
        "SC": "'{' L '}'",
        "S": "(LD ':')? (SG | SI | SP | SM | SE | SC)",
        "L": "S (';' L)?",
        "P": "'tape-alphabet' 'is' DL ';' L DOT",
    }
    assert set(by_name) == set(expected)
    for name in expected:
        assert normalized(by_name[name]) == normalized(expected[name]), name


def flow_out(g, node):
    """Labels of outgoing control arrows, with multiplicities."""
    counts = Counter()
    for _, arrow in g.out_arrows(node):
        if arrow.kind == CONTROL and arrow.label in FLOW:
            counts[arrow.label] += 1
    return counts


def test_criterion_05_control_flow_contract(increment_text):
    result = check_program(increment_text)
    assert result.ok
    g = result.tree.graph

    statements = [n for n, c in enumerate(result.points.classes) if c == STATEMENT]
    assert flow_out(g, result.tree.root) == {NEXT: 1}
    for node in statements:
        if g.node_label(node) == "if":
            assert flow_out(g, node) == {YES: 1, NO: 1}, node
        else:
            assert flow_out(g, node) == {NEXT: 1}, node
    assert flow_out(g, result.stop) == {}

    # The first 'if' is followed by a ';' arrow in the source; its 'no'
    # arrow must point at the very same destination.
    first = min(n for n in statements if g.node_label(n) == "if")
    semicolon = [
        a.dst for _, a in g.out_arrows(first) if a.kind == SYNTACTIC and a.label == ";"
    ]
    no = [a.dst for _, a in g.out_arrows(first) if a.kind == CONTROL and a.label == NO]
    assert semicolon and semicolon == no

    codes = {d.code for d in result.diagnostics}
    assert "CW1" not in codes and "C2" not in codes


def test_criterion_06_negative_fixtures(program_path):
    duplicated = check_program(program_path("duplicate_label.tgl").read_text())
    assert "L1" in {d.code for d in duplicated.errors}

    dangling = check_program(program_path("missing_target.tgl").read_text())
    assert "L2" in {d.code for d in dangling.errors}

    looping = check_program("tape-alphabet is one;\nx: go to x.")
    assert "C2" in {d.code for d in looping.errors}

    fixture = check_program(program_path("next_cycle.tgl").read_text())
    assert "C2" in {d.code for d in fixture.errors}


def test_criterion_07_execution_oracle(increment_text):
    cases = ORACLE["cases"]
    assert len(cases) >= 5
    for case in cases:
        t0 = time.monotonic()
        outcome = execute_program(increment_text, case["tape"], start=case["start"])
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, case
        assert outcome.outcome == case["outcome"] == STOPPED, case
        assert outcome.steps == case["steps"], case
        assert outcome.steps < 10_000
        assert final_tape(outcome.state) == case["final_tape"], case


def clean_generated_programs(count, rng):
    """Schema-generated program texts that pass every check without errors."""
    texts = []
    seed = 0
    while len(texts) < count:
        seed += 1
        grown = generate_sytr(
            turingol_schema(), "P", random.Random(seed), node_budget=120
        )
        tree = to_canonical(grown)
        repair(tree, rng)
        text = render_program(tree)
        result = check_program(text)
        if result.runnable:
            texts.append(text)
    return texts


def test_criterion_08_fail_safety(increment_text):
    rng = random.Random(20260818)
    outcomes = Counter()

    template = check_program(increment_text)
    instructions = make_executable(template)
    vocabulary = tape_vocabulary(template)
    for _ in range(1000):
        tape_text = random_tape(rng, vocabulary)
        tree = copy.deepcopy(template.tree)
        state = initialize(
            tree, parse_tape(tape_text), random_start(rng, tape_text), instructions
        )
        outcomes[run(state).outcome] += 1

    for text in clean_generated_programs(200, rng):
        result = check_program(text)
        program_instructions = make_executable(result)
        tape_text = random_tape(rng, tape_vocabulary(result))
        state = initialize(
            result.tree,
            parse_tape(tape_text),
            random_start(rng, tape_text),
            program_instructions,
        )
        outcomes[run(state).outcome] += 1

    assert outcomes[CRASHED] == 0, outcomes
    assert set(outcomes) <= {STOPPED, BUDGET_EXHAUSTED}
    assert outcomes[STOPPED] > 0


def clean_generated_program(seed):
    """The first schema-grown program, from ``seed`` on, that is check-clean after repair."""
    while True:
        grown = generate_sytr(turingol_schema(), "P", random.Random(seed), node_budget=120)
        tree = to_canonical(grown)
        repair(tree, random.Random(seed))
        text = render_program(tree)
        if check_program(text).runnable:
            return text
        seed += 1


# Any word the tape grammar allows (hyphen-joined runs of letters), or a blank.
TAPE_TOKENS = st.lists(
    st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=4), min_size=1, max_size=3
).map("-".join) | st.just('""')


@given(st.integers(0, 10**6), st.data())
@settings(deadline=None, max_examples=50)
def test_check_clean_programs_run_on_every_tape(seed, data):
    """Fail-safety on any tape of legal tokens, from any start."""
    text = clean_generated_program(seed)
    result = check_program(text)
    words = st.sampled_from(tape_vocabulary(result)) | TAPE_TOKENS
    cells = data.draw(st.lists(words, min_size=1, max_size=8))
    start = data.draw(st.sampled_from(["first", "last"]) | st.integers(0, len(cells) - 1))
    state = initialize(
        result.tree, parse_tape(" ".join(cells)), start, make_executable(result)
    )
    outcome = run(state, 1_000).outcome
    assert outcome in (STOPPED, BUDGET_EXHAUSTED), state.situation


def snapshot(g):
    return (
        frozenset(g.nodes()),
        {n: g.node_label(n) for n in g.nodes()},
        {i: (a.src, a.label, a.dst, a.kind) for i, a in g.arrows()},
    )


def test_criterion_09_structure_and_labeling_discipline(increment_text):
    for case in ORACLE["cases"]:
        template = check_program(increment_text)
        instructions = make_executable(template)
        program_nodes = frozenset(template.tree.graph.nodes())
        state = initialize(
            template.tree, parse_tape(case["tape"]), case["start"], instructions
        )
        g = state.tree.graph
        while state.status == RUNNING:
            word = g.node_label(state.current)
            nodes_before, labels_before, arrows_before = snapshot(g)
            step(state)
            nodes_after, labels_after, arrows_after = snapshot(g)

            assert nodes_before <= nodes_after
            assert set(arrows_before) <= set(arrows_after)
            grown = nodes_after - nodes_before
            added = {i: arrows_after[i] for i in arrows_after if i not in arrows_before}
            changed = {
                i: (arrows_before[i], arrows_after[i])
                for i in arrows_before
                if arrows_after[i] != arrows_before[i]
            }
            relabeled = {n for n in nodes_before if labels_after[n] != labels_before[n]}

            if word == "move":
                assert len(grown) <= 1
                assert len(added) == len(grown)
                for src, label, dst, kind in added.values():
                    assert label == "" and kind == TAPE
                assert len(changed) == 1
                ((before, after),) = changed.values()
                assert before[1] == after[1] == "tape"
                assert before[0] == after[0] and before[3] == after[3]
                assert relabeled == set()
            elif word == "print":
                assert not grown and not added and not changed
                # Printing the word the cell already holds changes nothing.
                assert len(relabeled) <= 1
                for cell in relabeled:
                    assert cell not in program_nodes
            else:
                assert not grown and not added and not changed
                assert relabeled == set()
        assert state.status == STOPPED


def test_criterion_10_generated_trees_stay_uni_labeled():
    schema = turingol_schema()
    for seed in range(1000):
        tree = generate_sytr(schema, "P", random.Random(seed))
        assert check_uni_labeled(tree.graph) == [], seed
