"""Node classification, alphabet checks, declaration links, label checks, the statement table."""

import ast
import random
from collections import Counter
from pathlib import Path

import pytest

from wordtree import control_flow, frontend, graph, pipeline, semantics

from wordtree.executor import install_instructions
from wordtree.frontend import parse_text, to_canonical
from wordtree.graph import (
    CONTROL,
    SEMANTIC,
    LabeledGraph,
    StartAmbiguous,
    Tree,
    check_uni_labeled,
)
from wordtree.pipeline import check_program
from wordtree.schema import generate_sytr, turingol_schema
from wordtree.semantics import (
    ALPHABET,
    DATA,
    FINDINGS,
    LABEL,
    LABELS,
    OTHER,
    STATEMENT,
    STATEMENTS,
    Diagnostic,
    check_alphabet,
    check_labels,
    classify,
    link_is_declared_at,
    require,
    w_declaration_points,
)

from conftest import bench_workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wordtree"


def words(tree: Tree, nodes) -> list[str]:
    return [tree.graph.node_label(n) for n in nodes]


def points_of(tree: Tree):
    return classify(tree)


def classes_of(tree: Tree) -> tuple[str, ...]:
    return classify(tree).classes


def usages_of(tree: Tree) -> list[int]:
    return list(classify(tree).usages)


def label_points(tree: Tree) -> tuple[list[int], list[int]]:
    points = classify(tree)
    return list(points.targets), list(points.gotos)


def nodes_of_kind(tree: Tree, kind: str) -> list[int]:
    classes = classes_of(tree)
    return [n for n in tree.graph.nodes() if classes[n] == kind]


@pytest.fixture
def increment(increment_text):
    return parse_text(increment_text)


class TestClassify:
    def test_increment_counts(self, increment):
        counts = Counter(classes_of(increment))
        assert counts == {STATEMENT: 11, DATA: 15, LABEL: 3, OTHER: 3}

    def test_increment_statement_sequence(self, increment):
        sequence = words(increment, nodes_of_kind(increment, STATEMENT))
        assert sequence == [
            "print", "go", "if", "{", "print", "move",
            "go", "print", "move", "if", "go",
        ]

    def test_root_and_squares_are_other(self, increment):
        other = words(increment, nodes_of_kind(increment, OTHER))
        assert other == ["tape-alphabet", "one-square", "one-square"]

    def test_statement_words_as_data(self):
        tree = parse_text(
            "tape-alphabet is go, if, print;\n"
            "print 'go';\n"
            "if the-tape-symbol is 'if' then print 'print'."
        )
        classes = classes_of(tree)
        for node in w_declaration_points(tree) + usages_of(tree):
            assert classes[node] == DATA

    def test_label_class_wins_over_data(self):
        tree = parse_text("tape-alphabet is one;\nx: go to x.")
        classes = classes_of(tree)
        kinds = sorted(
            classes[n]
            for n in tree.graph.nodes()
            if tree.graph.node_label(n) == "x"
        )
        assert kinds == [DATA, LABEL]

    def test_every_node_is_classified(self, increment):
        classes = classes_of(increment)
        assert len(classes) == increment.graph.node_count


class TestWordPoints:
    def test_declaration_points(self, increment):
        assert words(increment, w_declaration_points(increment)) == [
            "blank", "one", "zero", "point",
        ]

    def test_usage_points(self, increment):
        assert words(increment, usages_of(increment)) == [
            "point", "one", "zero", "one", "zero",
        ]

    def test_points_are_data_nodes(self, increment):
        classes = classes_of(increment)
        for node in w_declaration_points(increment) + usages_of(increment):
            assert classes[node] == DATA

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
        findings = check_alphabet(increment, points_of(increment))
        assert len(findings) == 1
        finding = findings[0]
        assert finding.code == "AW3"
        assert finding.severity == "warning"
        assert finding.nodes == (w_declaration_points(increment)[0],)
        assert "blank" in finding.message

    def test_duplicate_declaration(self):
        tree = parse_text("tape-alphabet is one, one;\nprint 'one'.")
        findings = check_alphabet(tree, points_of(tree))
        assert [f.code for f in findings] == ["AW1"]
        assert findings[0].nodes == tuple(w_declaration_points(tree))

    def test_undeclared_usage(self):
        tree = parse_text("tape-alphabet is one;\nprint 'two'.")
        assert [f.code for f in check_alphabet(tree, points_of(tree))] == ["AW2", "AW3"]

    def test_clean_program(self):
        tree = parse_text("tape-alphabet is one;\nprint 'one'.")
        assert check_alphabet(tree, points_of(tree)) == []


class TestDiagnostics:
    def test_severity_follows_code(self):
        assert Diagnostic("AW1", (1,), ("m",)).severity == "warning"
        assert Diagnostic("LW1", (1,), ("m",)).severity == "warning"
        assert Diagnostic("CW1", (1,), ("m",)).severity == "warning"
        assert Diagnostic("L1", (1, 2), ("m",)).severity == "error"
        assert Diagnostic("C2", (1,), ("m",)).severity == "error"

    def test_text_form(self):
        d = Diagnostic("L1", (3, 7), ("x",))
        assert str(d) == "L1 error nodes 3,7: label 'x' marks more than one statement"
        single = Diagnostic("AW3", (1,), ("blank",))
        assert str(single).startswith("AW3 warning node 1:")

    def test_dict_form(self):
        d = Diagnostic("AW2", (4,), ("m",))
        assert d.as_dict() == {
            "code": "AW2",
            "severity": "warning",
            "nodes": [4],
            "message": "tape word 'm' is used but never declared",
        }

    def test_cycle_names_every_word(self):
        d = Diagnostic("C2", (2, 5), ("go", ""))
        assert d.message == "'next' arrows cycle through 'go' \"\""

    def test_every_text_takes_the_words_once(self):
        for code, text in FINDINGS.items():
            assert text.count("{") == text.count("}") == text.count("{}") == 1, code

    def test_findings_are_worded_only_when_read(self, monkeypatch):
        """``check_program`` words no finding; reading one words each of its words once."""
        workloads = bench_workloads()
        rng = random.Random(1)
        texts = [
            workloads.make_program(rng, 60, defect).text
            for defect in (None, *workloads.DEFECT_CODES)
        ]
        calls = [0]

        def counted(word, _display_word=graph.display_word):
            calls[0] += 1
            return _display_word(word)

        for module in (graph, frontend, semantics, control_flow):
            monkeypatch.setattr(module, "display_word", counted)
        diagnostics = [d for text in texts for d in check_program(text).diagnostics]
        assert calls[0] == 0
        assert {d.code for d in diagnostics} >= set(workloads.DEFECT_CODES)
        for d in diagnostics:
            str(d)
        assert calls[0] == sum(len(d.words) for d in diagnostics)


class TestDeclarationLinks:
    def test_increment_gets_five_links(self, increment):
        assert link_is_declared_at(increment, points_of(increment)) == 5
        g = increment.graph
        links = [a for _, a in g.arrows() if a.kind == SEMANTIC]
        assert len(links) == 5
        assert all(a.label == ALPHABET.link == "is-declared-at" for a in links)

    def test_links_join_equal_labels(self, increment):
        link_is_declared_at(increment, points_of(increment))
        g = increment.graph
        declarations = set(w_declaration_points(increment))
        for _, arrow in g.arrows():
            if arrow.kind != SEMANTIC:
                continue
            assert g.node_label(arrow.src) == g.node_label(arrow.dst)
            assert arrow.dst in declarations

    def test_linking_twice_adds_nothing(self, increment):
        points = points_of(increment)
        assert link_is_declared_at(increment, points) == 5
        assert link_is_declared_at(increment, points) == 0

    def test_links_preserve_uni_labeledness(self, increment):
        link_is_declared_at(increment, points_of(increment))
        assert check_uni_labeled(increment.graph) == []

    def test_syntactic_functions_ignore_links(self, increment):
        before = usages_of(increment)
        link_is_declared_at(increment, points_of(increment))
        assert usages_of(increment) == before

    def test_refuses_undeclared_words(self):
        tree = parse_text("tape-alphabet is one;\nprint 'two'.")
        arrows = tree.graph.arrow_count
        with pytest.raises(ValueError, match="AW2 warning node"):
            link_is_declared_at(tree, points_of(tree))
        assert tree.graph.arrow_count == arrows

    def test_refusal_lists_the_aw2_findings_check_alphabet_reports(self):
        text = (
            "tape-alphabet is one, one;\nprint 'two';\n"
            "if the-tape-symbol is 'three' then print 'two';\nprint 'four'."
        )
        tree = parse_text(text)
        points = points_of(tree)
        undeclared = [d for d in check_alphabet(tree, points) if d.code == "AW2"]
        assert len(undeclared) == 4
        with pytest.raises(ValueError) as refusal:
            link_is_declared_at(tree, points)
        assert str(refusal.value) == "cannot link usages to declarations: " + "; ".join(
            map(str, undeclared)
        )

    def test_refusal_of_two_undeclared_words_is_the_aw2_lines_check_alphabet_reports(self):
        tree = parse_text("tape-alphabet is one;\nprint 'two';\nif the-tape-symbol is 'three' then print 'one'.")
        points = points_of(tree)
        aw2 = [d for d in check_alphabet(tree, points) if d.code == "AW2"]
        assert [d.words for d in aw2] == [("two",), ("three",)]
        with pytest.raises(ValueError) as refusal:
            link_is_declared_at(tree, points)
        assert str(refusal.value) == "cannot link usages to declarations: " + "; ".join(map(str, aw2))

    def test_links_point_at_first_declaration(self):
        tree = parse_text("tape-alphabet is one, one;\nprint 'one'.")
        link_is_declared_at(tree, points_of(tree))
        first = w_declaration_points(tree)[0]
        semantic = [a for _, a in tree.graph.arrows() if a.kind == SEMANTIC]
        assert [a.dst for a in semantic] == [first]


class TestRequire:
    def test_returns_each_words_first_definition(self):
        tree = parse_text("tape-alphabet is one, two, one;\nprint 'one'; x: go to x; y: go to x.")
        points = points_of(tree)
        declarations, targets = points.declarations, points.targets
        assert require(tree, points, ALPHABET, "link") == {"one": declarations[0], "two": declarations[1]}
        assert require(tree, points, LABELS, "wire") == {"x": targets[0], "y": targets[1]}

    def test_a_word_defined_twice_refuses_only_a_row_without_a_link(self):
        tree = parse_text("tape-alphabet is one, one;\nx: print 'one'; x: go to x.")
        points = points_of(tree)
        assert [d.code for d in check_alphabet(tree, points)] == [ALPHABET.twice]
        assert list(require(tree, points, ALPHABET, "link")) == ["one"]
        with pytest.raises(ValueError, match=r"^cannot wire: L1 error nodes"):
            require(tree, points, LABELS, "wire")

    def test_blocking_is_an_error_or_an_undefined_usage(self):
        assert [Diagnostic(code, (1,), ("w",)).blocking for code in sorted(FINDINGS)] == [
            False, True, False, True, False, True, True, False
        ]


class TestLabelPoints:
    def test_increment_points(self, increment):
        targets, usages = label_points(increment)
        assert words(increment, targets) == ["carry", "test", "realign"]
        assert words(increment, usages) == ["carry", "test", "realign"]

    def test_targets_are_label_class(self, increment):
        classes = classes_of(increment)
        targets, usages = label_points(increment)
        assert all(classes[n] == LABEL for n in targets)
        assert all(classes[n] == DATA for n in usages)

    def test_arrows_from_data_nodes_are_ignored(self):
        g = LabeledGraph()
        root = g.add_node("tape-alphabet")
        word = g.add_node("go")
        g.add_arrow(root, "is", word)
        stray = g.add_node("x")
        g.add_arrow(word, "to", stray)
        tree = Tree(g, root)
        targets, usages = label_points(tree)
        assert targets == [] and usages == []


class TestCheckLabels:
    def test_increment_is_clean(self, increment):
        assert check_labels(increment, points_of(increment)) == []

    def test_duplicate_label(self, program_path):
        tree = parse_text(program_path("duplicate_label.tgl").read_text())
        findings = check_labels(tree, points_of(tree))
        assert [f.code for f in findings] == ["L1", "LW1", "LW1"]
        first = findings[0]
        assert first.severity == "error"
        assert first.nodes == tuple(label_points(tree)[0])
        assert "'x'" in first.message

    def test_missing_target(self, program_path):
        tree = parse_text(program_path("missing_target.tgl").read_text())
        findings = check_labels(tree, points_of(tree))
        assert [f.code for f in findings] == ["L2"]
        assert "nowhere" in findings[0].message

    def test_unused_label(self):
        tree = parse_text("tape-alphabet is one;\nx: print 'one'.")
        findings = check_labels(tree, points_of(tree))
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
            points = classify(tree)
            classes = points.classes
            assert len(classes) == tree.graph.node_count
            for node in w_declaration_points(tree) + list(points.usages):
                assert classes[node] == DATA
            targets = points.targets
            assert all(classes[n] == LABEL for n in targets)
            for finding in check_alphabet(tree, points) + check_labels(tree, points):
                assert finding.severity in ("warning", "error")


def test_one_check_walks_the_tree_once(monkeypatch, increment_text):
    """``check_program`` walks the tree once and resolves one path, the declarations' head."""
    calls = Counter()
    for module, name in ((semantics, "classify"), (semantics, "w_declaration_points"), (graph, "resolve")):
        original = getattr(module, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        for holder in (graph, semantics, control_flow, pipeline):
            if getattr(holder, name, None) is original:
                monkeypatch.setattr(holder, name, counted)
    check_program(increment_text)
    assert calls == {"classify": 1, "w_declaration_points": 1, "resolve": 1}


# The statement words a stage could compare a label with; the empty word is
# every other kind of word too, so it is left out.
STATEMENT_WORD_LITERALS = frozenset({"go", "if", "print", "move", "{"})


def statement_word_comparisons(source: str) -> list[int]:
    """The line of each comparison in ``source`` of a value with a statement-word literal.

    An ``==``, ``!=``, ``in`` or ``not in`` comparison, or a ``case``
    pattern, counts when an operand is such a literal or a tuple, list
    or set display holding one. The ``STATEMENTS`` table and
    ``turingol_schema`` are skipped.
    """
    module = ast.parse(source)
    skipped = set()
    for node in ast.walk(module):
        table = isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "STATEMENTS" for t in node.targets
        )
        if table or isinstance(node, ast.FunctionDef) and node.name == "turingol_schema":
            skipped.update(map(id, ast.walk(node)))

    def literals(operand) -> set:
        items = operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set)) else [operand]
        return {item.value for item in items if isinstance(item, ast.Constant)}

    lines = []
    for node in ast.walk(module):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Compare):
            ops = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)
            if any(isinstance(op, ops) for op in node.ops):
                operands = [node.left, *node.comparators]
                if set().union(*map(literals, operands)) & STATEMENT_WORD_LITERALS:
                    lines.append(node.lineno)
        elif isinstance(node, ast.MatchValue) and literals(node.value) & STATEMENT_WORD_LITERALS:
            lines.append(node.lineno)
    return sorted(lines)


REQUIREMENT_CODES = frozenset({"AW1", "AW2", "AW3", "L1", "L2", "LW1"})


def requirement_leaks(source: str) -> tuple[list[int], list[int]]:
    """The lines in ``source`` of a requirement code literal, and of a use of ``_match``.

    A code literal is a string constant equal to a finding code of a
    ``semantics.REQUIREMENTS`` row; a use is a ``from`` import naming
    ``_match`` or an attribute read ``x._match``.
    """
    codes, uses = [], []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and node.value in REQUIREMENT_CODES:
            codes.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(a.name == "_match" for a in node.names):
            uses.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "_match":
            uses.append(node.lineno)
    return sorted(codes), sorted(uses)


class TestStatementTable:
    def test_no_stage_compares_a_label_with_a_statement_word(self):
        planted = """
if word == "go": pass
ok = word in ("if", "x") or "print" != word or word not in {"{"}
fine = word == "" or word in STATEMENTS
match word:
    case "move": pass
STATEMENTS = {"go": word == "go"}
def turingol_schema(): return word == "if"
"""
        assert statement_word_comparisons(planted) == [2, 3, 3, 3, 6]
        found = {
            path.name: statement_word_comparisons(path.read_text())
            for path in sorted(SRC.glob("*.py"))
            if path.name != "frontend.py"
        }
        assert {name: lines for name, lines in found.items() if lines} == {}

    def test_only_semantics_names_a_requirement_code_or_matches(self):
        """The requirement rows alone state their codes, and ``_match`` stays inside."""
        planted = """
from wordtree.semantics import ALPHABET, _match
if d.code == "AW2": pass
blocked = {"L1", "L2"}
found = semantics._match(g, points, LABELS)
fine = d.code == ALPHABET.undefined or "LW12" or "AW2 warning"
"""
        assert requirement_leaks(planted) == ([3, 4, 4], [2, 5])
        rows = semantics.REQUIREMENTS
        assert {code for row in rows for code in (row.twice, row.undefined, row.unused)} == (
            REQUIREMENT_CODES
        )
        paths = [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py")]
        paths += (ROOT / "tests").glob("reference_*.py")
        leaks = {path: requirement_leaks(path.read_text()) for path in paths}
        del leaks[SRC / "semantics.py"]
        assert len(leaks) > 10
        assert {path.name: uses for path, (_, uses) in leaks.items() if uses} == {}
        in_src = {path.name: codes for path, (codes, _) in leaks.items() if path.parent == SRC}
        assert {name: codes for name, codes in in_src.items() if codes} == {}

    def test_table_keys_are_the_statement_words(self):
        assert set(semantics.STATEMENT_WORDS) == {"", "move", "print", "if", "{", "go"}
        assert set(semantics.STATEMENT_WORDS) == set(STATEMENTS)
        for statement in STATEMENTS.values():
            if statement.usage is not None:  # a usage starts along the data arrow
                assert statement.usage.start is None
                assert statement.usage.steps[0] == ("+", statement.data)

    def test_one_entry_adds_a_statement_kind(self, monkeypatch):
        """A ``skip`` word that copies the empty statement's entry is classed, wired
        and installed as the empty statement is, with no code edit."""
        text = (
            "tape-alphabet is a, b;\nprint 'a';\n;\nhere: ;\n"
            "if the-tape-symbol is 'b' then { move left one-square; };\ngo to here.\n"
        )
        monkeypatch.setitem(STATEMENTS, "skip", STATEMENTS[""])
        built = []
        for relabel in (False, True):
            tree = parse_text(text)
            g = tree.graph
            empty = [n for n in classify(tree).statements if g.node_label(n) == ""]
            if relabel:
                for node in empty:
                    g.set_node_label(node, "skip")
            points = classify(tree)
            stop = control_flow.add_stop_node(tree)
            control_flow.build_back_arrows(tree, stop, points)
            control_flow.build_control(tree, stop, points)
            flow = [(a.src, a.label, a.dst) for _, a in g.arrows() if a.kind == CONTROL]
            built.append((empty, points, flow, install_instructions(tree, stop, points)))
        (empty, plain, plain_flow, plain_map), (_, skip, skip_flow, skip_map) = built
        assert len(empty) == 3  # mid-chain, labeled, and ending a brace's chain
        assert all(skip.classes[node] == STATEMENT for node in empty)
        assert skip.classes == plain.classes and skip[:5] == plain[:5]
        assert skip_flow == plain_flow
        assert any(src in empty for src, _, _ in skip_flow)
        assert skip_map == plain_map
