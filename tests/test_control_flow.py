"""Stop node, back arrows, flow arrow construction, and flow checks."""

import hashlib
import json
import pathlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference_schema import elementary_cycles
from wordtree.control_flow import (
    BACK,
    FLOW_LABELS,
    NEXT,
    NO,
    YES,
    add_stop_node,
    build_back_arrows,
    build_control,
    check_next_acyclic,
    check_reachability,
)
from wordtree.frontend import parse_text, render_program, to_canonical
from wordtree.graph import (
    CONTROL,
    LabeledGraph,
    Tree,
    export_json,
    functional_cycles,
)
from wordtree.pipeline import CheckResult, check_program, make_executable
from wordtree.schema import generate_sytr, turingol_schema
from wordtree.semantics import (
    STATEMENT,
    Points,
    check_alphabet,
    check_labels,
    classify,
    find_points,
    link_is_declared_at,
)


def points_of(tree: Tree) -> Points:
    return find_points(tree, classify(tree))


def build_all(text: str):
    tree = parse_text(text)
    points = points_of(tree)
    stop = add_stop_node(tree)
    build_back_arrows(tree, stop, points)
    counts = build_control(tree, stop, points)
    return tree, stop, counts


def statements(tree: Tree) -> list[int]:
    classes = classify(tree)
    return [n for n in tree.graph.nodes() if classes[n].kind == STATEMENT]


def control_pairs(tree: Tree, label: str) -> set[tuple[int, int]]:
    return {
        (a.src, a.dst)
        for _, a in tree.graph.arrows()
        if a.kind == CONTROL and a.label == label
    }


@pytest.fixture
def built_increment(increment_text):
    return build_all(increment_text)


PROGRAMS = pathlib.Path(__file__).resolve().parent.parent / "programs"
DATA = pathlib.Path(__file__).parent / "data"


def checked(text: str) -> dict:
    """The diagnostics and the graph ``check_program`` leaves behind."""
    result = check_program(text)
    return {
        "diagnostics": [d.as_dict() for d in result.diagnostics],
        "graph": json.loads(export_json(result.tree.graph)),
    }


@pytest.mark.parametrize("path", sorted(PROGRAMS.glob("*.tgl")), ids=lambda p: p.name)
def test_check_path_is_pinned(path):
    """Each shipped program's findings, links and flow arrows, ids included."""
    golden = json.loads((DATA / f"{path.stem}.flow.json").read_text())
    assert checked(path.read_text()) == golden


def test_stages_after_classify_list_no_nodes(monkeypatch, increment_text):
    """The points carry the statements; no later stage lists every node.

    That holds through ``make_executable``, which installs the
    instructions in the statements the points carry.
    """
    tree = parse_text(increment_text)
    classes = classify(tree)

    def scan(*args, **kwargs):
        raise AssertionError("listed every node")

    monkeypatch.setattr(LabeledGraph, "nodes", scan)
    points = find_points(tree, classes)
    diagnostics = check_alphabet(tree, points) + check_labels(tree, points)
    link_is_declared_at(tree, points)
    stop = add_stop_node(tree)
    build_back_arrows(tree, stop, points)
    build_control(tree, stop, points)
    diagnostics += check_reachability(tree, points) + check_next_acyclic(tree)
    instructions = make_executable(CheckResult(tree, classes, points, diagnostics, stop))
    monkeypatch.undo()
    assert {"diagnostics": [d.as_dict() for d in diagnostics],
            "graph": json.loads(export_json(tree.graph))} == checked(increment_text)
    assert instructions == make_executable(check_program(increment_text))


class TestStopNode:
    def test_adds_an_isolated_stop(self, increment_text):
        tree = parse_text(increment_text)
        stop = add_stop_node(tree)
        g = tree.graph
        assert g.node_label(stop) == "stop"
        assert not g.out_arrows(stop) and not g.in_arrows(stop)

    def test_refuses_a_second_stop(self, increment_text):
        tree = parse_text(increment_text)
        add_stop_node(tree)
        with pytest.raises(ValueError):
            add_stop_node(tree)

    def test_program_words_named_stop_do_not_collide(self):
        tree = parse_text(
            "tape-alphabet is stop;\nstop: print 'stop';\ngo to stop."
        )
        add_stop_node(tree)
        with pytest.raises(ValueError):
            add_stop_node(tree)

    def test_finds_stop_nodes_through_the_label_index(self, increment_text, monkeypatch):
        tree = parse_text(increment_text)
        add_stop_node(tree)

        def no_scan():
            raise AssertionError("scanned every node")

        monkeypatch.setattr(tree.graph, "nodes", no_scan)
        with pytest.raises(ValueError, match="already has a stop node"):
            add_stop_node(tree)


class TestBackArrows:
    def test_increment_back_arrows(self, increment_text):
        tree = parse_text(increment_text)
        stop = add_stop_node(tree)
        assert build_back_arrows(tree, stop, points_of(tree)) == 4
        p1, g1, if1, sc1, p3, m1, g2, p2, m2, if2, g3 = statements(tree)
        assert control_pairs(tree, BACK) == {
            (sc1, if1),
            (g2, sc1),
            (g3, if2),
            (if2, stop),
        }

    def test_nested_ifs_chain_back(self):
        tree = parse_text(
            "tape-alphabet is a;\n"
            "if the-tape-symbol is 'a' then if the-tape-symbol is 'a' "
            "then print 'a';\nprint 'a'."
        )
        stop = add_stop_node(tree)
        build_back_arrows(tree, stop, points_of(tree))
        outer_if, inner_if, inner_print, last_print = statements(tree)
        assert control_pairs(tree, BACK) == {
            (inner_print, inner_if),
            (inner_if, outer_if),
            (last_print, stop),
        }

    def test_refuses_to_build_twice(self, increment_text):
        tree = parse_text(increment_text)
        stop = add_stop_node(tree)
        build_back_arrows(tree, stop, points_of(tree))
        with pytest.raises(ValueError):
            build_back_arrows(tree, stop, points_of(tree))

    def test_refuses_a_semicolon_loop(self):
        tree = parse_text("tape-alphabet is a;\nprint 'a';\nprint 'a'.")
        g = tree.graph
        other = g.add_node("x")
        g.add_arrow(other, ";", tree.root)
        g.add_arrow(tree.root, ";", other)
        stop = add_stop_node(tree)
        with pytest.raises(ValueError, match="';' arrows loop"):
            build_back_arrows(tree, stop, points_of(tree))


class TestBuildControl:
    def test_increment_flow_arrows(self, built_increment):
        tree, stop, counts = built_increment
        root = tree.root
        p1, g1, if1, sc1, p3, m1, g2, p2, m2, if2, g3 = statements(tree)
        assert control_pairs(tree, NEXT) == {
            (root, p1),
            (p1, g1),
            (g1, m1),
            (sc1, p3),
            (p3, m1),
            (m1, g2),
            (g2, if1),
            (p2, m2),
            (m2, if2),
            (g3, m2),
        }
        assert control_pairs(tree, YES) == {(if1, sc1), (if2, g3)}
        assert control_pairs(tree, NO) == {(if1, p2), (if2, stop)}
        assert counts == {NEXT: 10, YES: 2, NO: 2}

    def test_out_degrees(self, built_increment):
        tree, stop, _ = built_increment
        g = tree.graph
        flow_out = {
            node: sorted(
                a.label
                for _, a in g.out_arrows(node, kinds=(CONTROL,))
                if a.label in FLOW_LABELS
            )
            for node in g.nodes()
        }
        for node in statements(tree):
            if g.node_label(node) == "if":
                assert flow_out[node] == [NO, YES]
            else:
                assert flow_out[node] == [NEXT]
        assert flow_out[tree.root] == [NEXT]
        assert flow_out[stop] == []

    def test_flow_touches_only_statements(self, built_increment):
        tree, stop, _ = built_increment
        allowed = set(statements(tree)) | {tree.root, stop}
        for _, arrow in tree.graph.arrows():
            if arrow.kind == CONTROL:
                assert arrow.src in allowed and arrow.dst in allowed

    def test_no_arrow_parallels_semicolon(self, built_increment):
        tree, _, _ = built_increment
        g = tree.graph
        if1 = statements(tree)[2]
        semi = [a.dst for _, a in g.out_arrows(if1) if a.label == ";"]
        no = [a.dst for _, a in g.out_arrows(if1) if a.label == NO]
        assert semi == no

    def test_goto_rises_over_label_chains(self):
        tree, _, _ = build_all("tape-alphabet is one;\ngo to b;\na: b: print 'one'.")
        goto, target = statements(tree)
        assert (goto, target) in control_pairs(tree, NEXT)

    def test_refuses_a_label_that_rises_to_no_statement(self):
        tree = parse_text("tape-alphabet is one;\ngo to a;\na: print 'one'.")
        g = tree.graph
        (statement,) = g.nodes_labeled("print")
        (label,) = g.ends(statement, "+", ":")
        loop = g.add_node("b")
        g.add_arrow(label, ":", loop)
        g.add_arrow(loop, ":", statement)
        points = points_of(tree)
        stop = add_stop_node(tree)
        build_back_arrows(tree, stop, points)
        with pytest.raises(ValueError, match="does not rise to a statement"):
            build_control(tree, stop, points)

    def test_inner_chain_continues_after_braces(self):
        tree, stop, _ = build_all(
            "tape-alphabet is a;\n{print 'a'; print 'a'};\nprint 'a'."
        )
        braces, first, second, last = statements(tree)
        assert control_pairs(tree, NEXT) == {
            (tree.root, braces),
            (braces, first),
            (first, second),
            (second, last),
            (last, stop),
        }

    def test_then_subordinates_continue_after_the_if(self):
        tree, _, _ = build_all(
            "tape-alphabet is a;\n"
            "if the-tape-symbol is 'a' then if the-tape-symbol is 'a' "
            "then print 'a';\nprint 'a'."
        )
        outer_if, inner_if, inner_print, last_print = statements(tree)
        assert (inner_print, last_print) in control_pairs(tree, NEXT)
        assert control_pairs(tree, NO) == {
            (outer_if, last_print),
            (inner_if, last_print),
        }

    def test_refuses_duplicate_labels(self, program_path):
        tree = parse_text(program_path("duplicate_label.tgl").read_text())
        stop = add_stop_node(tree)
        build_back_arrows(tree, stop, points_of(tree))
        arrows = tree.graph.arrow_count
        with pytest.raises(ValueError, match="L1 error nodes"):
            build_control(tree, stop, points_of(tree))
        assert tree.graph.arrow_count == arrows

    def test_refuses_dangling_gotos(self, program_path):
        tree = parse_text(program_path("missing_target.tgl").read_text())
        stop = add_stop_node(tree)
        build_back_arrows(tree, stop, points_of(tree))
        arrows = tree.graph.arrow_count
        with pytest.raises(ValueError, match="L2 error node"):
            build_control(tree, stop, points_of(tree))
        assert tree.graph.arrow_count == arrows

    def test_refusal_lists_the_label_errors_check_labels_reports(self):
        # Out of order along ':' arrows: b at 4 and 10, a at 7 and 13, b again at 18.
        text = (
            "tape-alphabet is one;\nb: print 'one';\na: print 'one';\nb: go to q;\n"
            "a: go to z;\ngo to y;\nb: print 'one'."
        )
        tree = parse_text(text)
        points = points_of(tree)
        errors = [d for d in check_labels(tree, points) if d.severity == "error"]
        assert [(d.code, d.nodes) for d in errors] == [
            ("L1", (4, 10)), ("L1", (4, 18)), ("L1", (7, 13)),
            ("L2", (9,)), ("L2", (12,)), ("L2", (15,)),
        ]
        stop = add_stop_node(tree)
        build_back_arrows(tree, stop, points)
        with pytest.raises(ValueError) as refusal:
            build_control(tree, stop, points)
        assert str(refusal.value) == "cannot build control arrows: " + "; ".join(map(str, errors))

    def test_refuses_to_build_twice(self, built_increment):
        tree, stop, _ = built_increment
        arrows = tree.graph.arrow_count
        with pytest.raises(ValueError, match="already built"):
            build_control(tree, stop, points_of(tree))
        assert tree.graph.arrow_count == arrows

    def test_deterministic_rebuild(self, increment_text):
        first, _, _ = build_all(increment_text)
        second, _, _ = build_all(increment_text)

        def picture(tree):
            return sorted(
                (a.src, a.label, a.dst)
                for _, a in tree.graph.arrows()
                if a.kind == CONTROL
            )

        assert picture(first) == picture(second)


class TestReachability:
    def test_increment_is_fully_reachable(self, built_increment):
        tree, _, _ = built_increment
        assert check_reachability(tree, points_of(tree)) == []

    def test_statement_after_goto_is_unreachable(self):
        tree, _, _ = build_all(
            "tape-alphabet is a;\ngo to x;\nprint 'a';\nx: print 'a'."
        )
        findings = check_reachability(tree, points_of(tree))
        assert len(findings) == 1
        finding = findings[0]
        assert finding.code == "CW1"
        assert finding.severity == "warning"
        assert finding.nodes == (statements(tree)[1],)


class TestNextCycles:
    def test_increment_has_none(self, built_increment):
        tree, _, _ = built_increment
        assert check_next_acyclic(tree) == []

    def test_self_goto_cycles(self, program_path):
        tree, _, _ = build_all(program_path("next_cycle.tgl").read_text())
        goto = statements(tree)[0]
        assert (goto, goto) in control_pairs(tree, NEXT)
        findings = check_next_acyclic(tree)
        assert len(findings) == 1
        assert findings[0].code == "C2"
        assert findings[0].severity == "error"
        assert findings[0].nodes == (goto,)
        assert findings[0].message == "'next' arrows cycle through 'go'"

    def test_two_gotos_cycling(self):
        tree, _, _ = build_all(
            "tape-alphabet is a;\na: go to b;\nb: go to a."
        )
        first, second = statements(tree)
        findings = check_next_acyclic(tree)
        assert [f.nodes for f in findings] == [(first, second)]

    def test_long_straight_line_checks_clean(self):
        text = "tape-alphabet is a;\n" + ";\n".join(["print 'a'"] * 3000) + "."
        assert check_program(text).diagnostics == []

    def test_refuses_two_next_arrows(self, built_increment):
        tree, _, _ = built_increment
        first = statements(tree)[0]
        tree.graph.add_arrow(first, NEXT, first, CONTROL)
        with pytest.raises(ValueError, match="more than one 'next' arrow"):
            check_next_acyclic(tree)

    @given(st.dictionaries(st.integers(0, 12), st.integers(0, 12)))
    def test_walk_equals_elementary_cycles(self, successor):
        expected = elementary_cycles({n: {m} for n, m in successor.items()})
        assert functional_cycles(successor) == expected


class TestGeneratedPrograms:
    def test_label_clean_generations_build(self):
        schema = turingol_schema()
        built = 0
        for seed in range(30):
            tree = to_canonical(
                generate_sytr(
                    schema, "P", word_source=random.Random(seed), node_budget=60
                )
            )
            points = points_of(tree)
            if any(f.severity == "error" for f in check_labels(tree, points)):
                continue
            stop = add_stop_node(tree)
            build_back_arrows(tree, stop, points)
            build_control(tree, stop, points)
            g = tree.graph
            for node in statements(tree):
                flow = [
                    a.label
                    for _, a in g.out_arrows(node, kinds=(CONTROL,))
                    if a.label in FLOW_LABELS
                ]
                if g.node_label(node) == "if":
                    assert sorted(flow) == [NO, YES]
                else:
                    assert flow == [NEXT]
            built += 1
        assert built >= 10


# For seeds 0 to 49, the program ``generate_sytr`` grows from P, rendered
# to text: the node and arrow counts of its checked graph and the sha256
# of that graph's ``export_json``, as the builders that added one node
# or arrow per call produced them.
SCHEMA_FLOWS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "schema_flows.json").read_text()
)


def test_checked_schema_programs_match_their_golden_graphs():
    schema = turingol_schema()
    found = {}
    for seed in range(50):
        text = render_program(to_canonical(generate_sytr(schema, "P", random.Random(seed))))
        g = check_program(text).tree.graph
        found[str(seed)] = {
            "nodes": g.node_count,
            "arrows": g.arrow_count,
            "sha256": hashlib.sha256(export_json(g).encode()).hexdigest(),
        }
    assert found == SCHEMA_FLOWS
