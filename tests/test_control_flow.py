"""Stop node, back arrows, flow arrow construction, and flow checks."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from wordtree.frontend import parse_text, to_canonical
from wordtree.graph import CONTROL, Tree, elementary_cycles, functional_cycles
from wordtree.pipeline import check_program
from wordtree.schema import generate_sytr, turingol_schema
from wordtree.semantics import STATEMENT, check_labels, classify


def build_all(text: str):
    tree = parse_text(text)
    classes = classify(tree)
    stop = add_stop_node(tree)
    build_back_arrows(tree, stop, classes)
    counts = build_control(tree, stop, classes)
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


class TestBackArrows:
    def test_increment_back_arrows(self, increment_text):
        tree = parse_text(increment_text)
        stop = add_stop_node(tree)
        assert build_back_arrows(tree, stop, classify(tree)) == 4
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
        build_back_arrows(tree, stop, classify(tree))
        outer_if, inner_if, inner_print, last_print = statements(tree)
        assert control_pairs(tree, BACK) == {
            (inner_print, inner_if),
            (inner_if, outer_if),
            (last_print, stop),
        }

    def test_refuses_to_build_twice(self, increment_text):
        tree = parse_text(increment_text)
        stop = add_stop_node(tree)
        build_back_arrows(tree, stop, classify(tree))
        with pytest.raises(ValueError):
            build_back_arrows(tree, stop, classify(tree))


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
        build_back_arrows(tree, stop, classify(tree))
        arrows = tree.graph.arrow_count
        with pytest.raises(ValueError, match="L1 error nodes"):
            build_control(tree, stop, classify(tree))
        assert tree.graph.arrow_count == arrows

    def test_refuses_dangling_gotos(self, program_path):
        tree = parse_text(program_path("missing_target.tgl").read_text())
        stop = add_stop_node(tree)
        build_back_arrows(tree, stop, classify(tree))
        arrows = tree.graph.arrow_count
        with pytest.raises(ValueError, match="L2 error node"):
            build_control(tree, stop, classify(tree))
        assert tree.graph.arrow_count == arrows

    def test_refuses_to_build_twice(self, built_increment):
        tree, stop, _ = built_increment
        arrows = tree.graph.arrow_count
        with pytest.raises(ValueError, match="already built"):
            build_control(tree, stop, classify(tree))
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
        assert check_reachability(tree, classify(tree)) == []

    def test_statement_after_goto_is_unreachable(self):
        tree, _, _ = build_all(
            "tape-alphabet is a;\ngo to x;\nprint 'a';\nx: print 'a'."
        )
        findings = check_reachability(tree, classify(tree))
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
            classes = classify(tree)
            if any(f.severity == "error" for f in check_labels(tree, classes)):
                continue
            stop = add_stop_node(tree)
            build_back_arrows(tree, stop, classes)
            build_control(tree, stop, classes)
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
