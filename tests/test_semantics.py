"""Node classification, alphabet checks, declaration links, label checks."""

import random

import pytest

from wordtree.frontend import parse_text, to_canonical
from wordtree.graph import (
    SEMANTIC,
    LabeledGraph,
    StartAmbiguous,
    Tree,
    check_uni_labeled,
)
from wordtree.schema import generate_sytr, turingol_schema
from wordtree.semantics import (
    DATA,
    DECLARED_AT,
    LABEL,
    OTHER,
    STATEMENT,
    check_alphabet,
    check_labels,
    classify,
    diagnostic,
    label_points,
    link_is_declared_at,
    w_declaration_points,
    w_usage_points,
)


def words(tree: Tree, nodes) -> list[str]:
    return [tree.graph.node_label(n) for n in nodes]


def nodes_of_kind(tree: Tree, kind: str) -> list[int]:
    classes = classify(tree)
    return [n for n in tree.graph.nodes() if classes[n].kind == kind]


@pytest.fixture
def increment(increment_text):
    return parse_text(increment_text)


class TestClassify:
    def test_increment_counts(self, increment):
        classes = classify(increment)
        counts = {}
        for cls in classes.values():
            counts[cls.kind] = counts.get(cls.kind, 0) + 1
        assert counts == {STATEMENT: 11, DATA: 15, LABEL: 3, OTHER: 3}

    def test_increment_statement_sequence(self, increment):
        sequence = words(increment, nodes_of_kind(increment, STATEMENT))
        assert sequence == [
            "print", "go", "if", "{", "print", "move",
            "go", "print", "move", "if", "go",
        ]

    def test_control_statements(self, increment):
        classes = classify(increment)
        for node in nodes_of_kind(increment, STATEMENT):
            word = increment.graph.node_label(node)
            assert classes[node].control == (word in ("go", "if", "{"))

    def test_root_and_squares_are_other(self, increment):
        other = words(increment, nodes_of_kind(increment, OTHER))
        assert other == ["tape-alphabet", "one-square", "one-square"]

    def test_statement_words_as_data(self):
        tree = parse_text(
            "tape-alphabet is go, if, print;\n"
            "print 'go';\n"
            "if the-tape-symbol is 'if' then print 'print'."
        )
        classes = classify(tree)
        for node in w_declaration_points(tree) + w_usage_points(tree, classes):
            assert classes[node].kind == DATA

    def test_label_class_wins_over_data(self):
        tree = parse_text("tape-alphabet is one;\nx: go to x.")
        classes = classify(tree)
        kinds = sorted(
            classes[n].kind
            for n in tree.graph.nodes()
            if tree.graph.node_label(n) == "x"
        )
        assert kinds == [DATA, LABEL]

    def test_every_node_is_classified(self, increment):
        classes = classify(increment)
        assert set(classes) == set(increment.graph.nodes())


class TestWordPoints:
    def test_declaration_points(self, increment):
        assert words(increment, w_declaration_points(increment)) == [
            "blank", "one", "zero", "point",
        ]

    def test_usage_points(self, increment):
        assert words(increment, w_usage_points(increment, classify(increment))) == [
            "point", "one", "zero", "one", "zero",
        ]

    def test_points_are_data_nodes(self, increment):
        classes = classify(increment)
        for node in w_declaration_points(increment) + w_usage_points(increment, classes):
            assert classes[node].kind == DATA

    def test_declaration_points_need_the_root(self):
        g = LabeledGraph()
        node = g.add_node("print")
        with pytest.raises(StartAmbiguous):
            w_declaration_points(Tree(g, node))

    def test_declaration_points_reject_forked_chain(self):
        g = LabeledGraph()
        root = g.add_node("tape-alphabet")
        a = g.add_node("a")
        g.add_arrow(root, "is", a)
        g.add_arrow(a, ",", g.add_node("b"))
        g.add_arrow(a, ",", g.add_node("c"))
        with pytest.raises(ValueError):
            w_declaration_points(Tree(g, root))


class TestCheckAlphabet:
    def test_increment_has_one_unused_word(self, increment):
        findings = check_alphabet(increment, classify(increment))
        assert len(findings) == 1
        finding = findings[0]
        assert finding.code == "AW3"
        assert finding.severity == "warning"
        assert finding.nodes == (w_declaration_points(increment)[0],)
        assert "blank" in finding.message

    def test_duplicate_declaration(self):
        tree = parse_text("tape-alphabet is one, one;\nprint 'one'.")
        findings = check_alphabet(tree, classify(tree))
        assert [f.code for f in findings] == ["AW1"]
        assert findings[0].nodes == tuple(w_declaration_points(tree))

    def test_undeclared_usage(self):
        tree = parse_text("tape-alphabet is one;\nprint 'two'.")
        assert [f.code for f in check_alphabet(tree, classify(tree))] == ["AW2", "AW3"]

    def test_clean_program(self):
        tree = parse_text("tape-alphabet is one;\nprint 'one'.")
        assert check_alphabet(tree, classify(tree)) == []


class TestDiagnostics:
    def test_severity_follows_code(self):
        assert diagnostic("AW1", (1,), "m").severity == "warning"
        assert diagnostic("LW1", (1,), "m").severity == "warning"
        assert diagnostic("CW1", (1,), "m").severity == "warning"
        assert diagnostic("L1", (1, 2), "m").severity == "error"
        assert diagnostic("C2", (1,), "m").severity == "error"

    def test_text_form(self):
        d = diagnostic("L1", (3, 7), "label 'x' marks more than one statement")
        assert str(d) == "L1 error nodes 3,7: label 'x' marks more than one statement"
        single = diagnostic("AW3", (1,), "declared tape word 'blank' is never used")
        assert str(single).startswith("AW3 warning node 1:")

    def test_dict_form(self):
        d = diagnostic("AW2", (4,), "m")
        assert d.as_dict() == {
            "code": "AW2",
            "severity": "warning",
            "nodes": [4],
            "message": "m",
        }


class TestDeclarationLinks:
    def test_increment_gets_five_links(self, increment):
        assert link_is_declared_at(increment, classify(increment)) == 5
        g = increment.graph
        links = [a for _, a in g.arrows() if a.kind == SEMANTIC]
        assert len(links) == 5
        assert all(a.label == DECLARED_AT for a in links)

    def test_links_join_equal_labels(self, increment):
        link_is_declared_at(increment, classify(increment))
        g = increment.graph
        declarations = set(w_declaration_points(increment))
        for _, arrow in g.arrows():
            if arrow.kind != SEMANTIC:
                continue
            assert g.node_label(arrow.src) == g.node_label(arrow.dst)
            assert arrow.dst in declarations

    def test_linking_twice_adds_nothing(self, increment):
        classes = classify(increment)
        assert link_is_declared_at(increment, classes) == 5
        assert link_is_declared_at(increment, classes) == 0

    def test_links_preserve_uni_labeledness(self, increment):
        link_is_declared_at(increment, classify(increment))
        assert check_uni_labeled(increment.graph) == []

    def test_syntactic_functions_ignore_links(self, increment):
        classes = classify(increment)
        before = w_usage_points(increment, classes)
        link_is_declared_at(increment, classes)
        assert w_usage_points(increment, classes) == before

    def test_refuses_undeclared_words(self):
        tree = parse_text("tape-alphabet is one;\nprint 'two'.")
        arrows = tree.graph.arrow_count
        with pytest.raises(ValueError, match="AW2 warning node"):
            link_is_declared_at(tree, classify(tree))
        assert tree.graph.arrow_count == arrows

    def test_links_point_at_first_declaration(self):
        tree = parse_text("tape-alphabet is one, one;\nprint 'one'.")
        link_is_declared_at(tree, classify(tree))
        first = w_declaration_points(tree)[0]
        semantic = [a for _, a in tree.graph.arrows() if a.kind == SEMANTIC]
        assert [a.dst for a in semantic] == [first]


class TestLabelPoints:
    def test_increment_points(self, increment):
        targets, usages = label_points(increment, classify(increment))
        assert words(increment, targets) == ["carry", "test", "realign"]
        assert words(increment, usages) == ["carry", "test", "realign"]

    def test_targets_are_label_class(self, increment):
        classes = classify(increment)
        targets, usages = label_points(increment, classes)
        assert all(classes[n].kind == LABEL for n in targets)
        assert all(classes[n].kind == DATA for n in usages)

    def test_arrows_from_data_nodes_are_ignored(self):
        g = LabeledGraph()
        root = g.add_node("tape-alphabet")
        word = g.add_node("go")
        g.add_arrow(root, "is", word)
        stray = g.add_node("x")
        g.add_arrow(word, "to", stray)
        tree = Tree(g, root)
        targets, usages = label_points(tree, classify(tree))
        assert targets == [] and usages == []


class TestCheckLabels:
    def test_increment_is_clean(self, increment):
        assert check_labels(increment, classify(increment)) == []

    def test_duplicate_label(self, program_path):
        tree = parse_text(program_path("duplicate_label.tgl").read_text())
        findings = check_labels(tree, classify(tree))
        assert [f.code for f in findings] == ["L1", "LW1", "LW1"]
        first = findings[0]
        assert first.severity == "error"
        assert first.nodes == tuple(label_points(tree, classify(tree))[0])
        assert "'x'" in first.message

    def test_missing_target(self, program_path):
        tree = parse_text(program_path("missing_target.tgl").read_text())
        findings = check_labels(tree, classify(tree))
        assert [f.code for f in findings] == ["L2"]
        assert "nowhere" in findings[0].message

    def test_unused_label(self):
        tree = parse_text("tape-alphabet is one;\nx: print 'one'.")
        findings = check_labels(tree, classify(tree))
        assert [f.code for f in findings] == ["LW1"]
        assert findings[0].severity == "warning"


class TestGeneratedPrograms:
    def test_checks_cover_generated_trees(self):
        schema = turingol_schema()
        for seed in range(20):
            tree = to_canonical(
                generate_sytr(
                    schema, "P", word_source=random.Random(seed), node_budget=60
                )
            )
            classes = classify(tree)
            assert set(classes) == set(tree.graph.nodes())
            for node in w_declaration_points(tree) + w_usage_points(tree, classes):
                assert classes[node].kind == DATA
            targets, _ = label_points(tree, classes)
            assert all(classes[n].kind == LABEL for n in targets)
            for finding in check_alphabet(tree, classes) + check_labels(tree, classes):
                assert finding.severity in ("warning", "error")
