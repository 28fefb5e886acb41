"""Schema analysis tests: label patterns, checks, expansion, generation, export."""

import json
import random
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schema_report
from reference_schema import (
    cycle_steps,
    elementary_cycles,
    expansions,
    or_bearing_cycles,
    placeholder,
    rotate_min,
)
from wordtree import schema as schema_module
from wordtree.cli import main as cli_main
from wordtree.graph import check_uni_labeled
from wordtree.schema import (
    AND_NODE,
    ATOMIC,
    MIXED,
    Alternation,
    BudgetExceeded,
    Literal,
    LowerWord,
    Schema,
    analyze,
    check_and_condition,
    check_and_cycle_condition,
    disjoint,
    export_grammar,
    generate_sytr,
    propagate_pairs,
    schema_from_json,
    schema_to_json,
    turingol_schema,
    uni_labeled_family,
    validate,
)


class TestLabelPatterns:
    def test_matching(self):
        assert Literal("go").matches("go")
        assert not Literal("go").matches("goto")
        assert Literal("").matches("")
        assert Alternation({"left", "right"}).matches("left")
        assert not Alternation({"left", "right"}).matches("up")
        assert LowerWord().matches("carry")
        assert not LowerWord().matches("")
        assert not LowerWord().matches("one-square")

    def test_disjointness(self):
        assert disjoint(Literal("left"), Literal("right"))
        assert not disjoint(Literal("go"), Literal("go"))
        assert not disjoint(Literal("go"), LowerWord())
        assert disjoint(Literal("one-square"), LowerWord())
        assert disjoint(Literal(""), LowerWord())
        assert not disjoint(Alternation({"left", "right"}), Literal("left"))
        assert disjoint(Alternation({"left", "right"}), Alternation({"up", "down"}))
        assert not disjoint(Alternation({"left", "right"}), LowerWord())
        assert disjoint(Alternation({"one-square"}), LowerWord())
        assert not disjoint(LowerWord(), LowerWord())

    def test_disjoint_symmetry(self):
        specs = [Literal(""), Literal("go"), Literal("{"), Alternation({"go", "to"}),
                 Alternation({"one-square"}), LowerWord()]
        for a in specs:
            for b in specs:
                assert disjoint(a, b) == disjoint(b, a)

    def test_text_forms(self):
        assert Literal("go").to_text() == "'go'"
        assert Literal("").to_text() == "''"
        assert Alternation({"right", "left"}).to_text() == "('left' | 'right')"
        assert LowerWord().to_text() == "[a-z]+"

    def test_alternation_draws_from_its_sorted_words(self):
        words = {"right", "left", "up", "down", "stay"}
        pattern = Alternation(words)
        drawn, listed = random.Random(3), random.Random(3)
        assert [pattern.sample(drawn) for _ in range(50)] == [
            listed.choice(sorted(words)) for _ in range(50)
        ]
        assert pattern == Alternation(frozenset(sorted(words))) and pattern != Alternation({"up"})
        assert hash(pattern) == hash(Alternation(set(words)))
        assert Alternation.__match_args__ == ("words",)  # the sorted words are no field
        assert repr(Alternation({"up"})) == "Alternation(words=frozenset({'up'}))"
        assert placeholder(pattern) == "down"
        assert pattern.to_text() == "('down' | 'left' | 'right' | 'stay' | 'up')"

    def test_samples_match_their_pattern(self):
        rng = random.Random(5)
        for spec in [Literal("go"), Alternation({"left", "right"}), LowerWord()]:
            for _ in range(20):
                assert spec.matches(spec.sample(rng))
            assert spec.matches(placeholder(spec))


class TestSchemaStructure:
    def test_duplicate_name_rejected(self):
        s = Schema()
        s.add_node("X")
        with pytest.raises(ValueError):
            s.add_node("X")

    def test_lowercase_name_rejected(self):
        s = Schema()
        with pytest.raises(ValueError):
            s.add_node("x")

    def test_dangling_arrow_rejected(self):
        s = Schema()
        s.add_node("X")
        with pytest.raises(ValueError):
            s.add_and_arrow("X", "Y")

    def test_words_the_graph_refuses_are_refused_when_built(self):
        """A node's pattern words must be PLA or MLA words, an AND arrow's PLA words."""
        s = Schema()
        s.add_node("X", Literal("AB"))  # an auxiliary node's metalanguage word
        s.add_node("Y", Alternation({"go", "to"}))
        for label, word in ((Literal("w1"), "w1"), (Alternation({"go", "w1"}), "w1"), (Literal("a b"), "a b")):
            with pytest.raises(ValueError) as refusal:
                s.add_node("L", label)
            assert str(refusal.value) == f"node label {word!r} is neither a PLA word nor an MLA word"
        for label, word in ((Literal("AB"), "AB"), (Alternation({"left", "Right"}), "Right")):
            with pytest.raises(ValueError) as refusal:
                s.add_and_arrow("X", "Y", label)
            assert str(refusal.value) == f"arrow label {word!r} is not a PLA word"
        assert s.names() == ["X", "Y"] and s.and_arrows() == []
        s.add_and_arrow("X", "Y", LowerWord())
        s.add_and_arrow("X", "Y", Alternation({"left", "right"}))
        assert len(s.and_arrows()) == 2

    def test_per_name_queries_scan_no_other_arrow(self):
        """Per-name questions read the name's own arrows, so the lists of every
        arrow may refuse iteration and each answer stays the same."""
        s = turingol_schema()

        def answers():
            return [
                (s.and_arrows(name), s.or_arrows(name), s.or_targets(name), s.node_class(name))
                for name in s.names()
            ], export_grammar(s)

        before = answers()

        class Unlisted(list):
            def __iter__(self):
                raise AssertionError("a per-name query scanned every arrow of the schema")

        s._and, s._or = Unlisted(s._and), Unlisted(s._or)
        assert answers() == before
        assert s.and_arrows("Q") == s.or_arrows("Q") == s.or_targets("Q") == []
        with pytest.raises(ValueError, match="unknown schema node 'Q'"):
            s.node_class("Q")

    def test_turingol_inventory(self):
        s = turingol_schema()
        assert len(s.names()) == 16
        report = validate(s)
        assert report.ok
        assert {n for n, c in report.classes.items() if c == ATOMIC} == {"I", "OS", "DOT", "SE"}
        assert {n for n, c in report.classes.items() if c == MIXED} == {"L", "S"}
        assert {n for n, c in report.classes.items() if c == AND_NODE} == {
            "LD", "DL", "STR", "A", "SG", "SI", "SP", "SM", "SC", "P"}


class TestValidate:
    def test_mandatory_loop_is_useless(self):
        s = Schema()
        s.add_node("L")
        s.add_and_arrow("L", "L", Literal(";"))
        report = validate(s)
        assert any("useless for finite trees" in e for e in report.errors)

    def test_optional_loop_is_fine(self):
        s = Schema()
        s.add_node("L", Literal("x"))
        s.add_and_arrow("L", "L", Literal(";"), optional=True)
        assert validate(s).ok

    def test_parallel_or_arrows(self):
        s = Schema()
        s.add_node("A")
        s.add_node("B", Literal("b"))
        s.add_or_arrow("A", "B")
        s.add_or_arrow("A", "B")
        assert any("parallel OR" in e for e in validate(s).errors)

    def test_labeled_or_node(self):
        s = Schema()
        s.add_node("A", Literal("word"))
        s.add_node("B", Literal("b"))
        s.add_or_arrow("A", "B")
        assert any("empty label" in e for e in validate(s).errors)

    def test_single_atomic_node(self):
        s = Schema()
        s.add_node("X", Literal("stop"))
        report = validate(s)
        assert report.ok
        assert report.classes == {"X": ATOMIC}


class TestAndCondition:
    def test_turingol_clean(self):
        assert check_and_condition(turingol_schema()) == []

    def test_literal_inside_lower_word(self):
        s = Schema()
        s.add_node("X", Literal("x"))
        s.add_node("A", Literal("a"))
        s.add_node("B", Literal("b"))
        s.add_and_arrow("X", "A", Literal("go"))
        s.add_and_arrow("X", "B", LowerWord())
        conflicts = check_and_condition(s)
        assert len(conflicts) == 1
        assert conflicts[0].node == "X"

    def test_distinct_literals_clean(self):
        s = Schema()
        s.add_node("X", Literal("x"))
        s.add_node("A", Literal("a"))
        s.add_node("B", Literal("b"))
        s.add_and_arrow("X", "A", Literal("left"))
        s.add_and_arrow("X", "B", Literal("right"))
        assert check_and_condition(s) == []


def complete_or_schema(n):
    """n empty-labeled nodes, each with an OR arrow to every other one and to a leaf."""
    s = Schema()
    s.add_node("LEAF", Literal("leaf"))
    names = [f"N{i}" for i in range(n)]
    for name in names:
        s.add_node(name)
    for src in names:
        for dst in names:
            if src != dst:
                s.add_or_arrow(src, dst)
        s.add_or_arrow(src, "LEAF")
    return s


def merged_label_schema():
    """Two AND arrows from X with the same label: their pairs merge into one."""
    s = Schema()
    s.add_node("X", Literal("x"), number=1)
    s.add_node("Y", Literal("y"), number=1)
    s.add_node("Z", Literal("z"), number=1)
    s.add_and_arrow("X", "Y", Literal("a"), order=2)
    s.add_and_arrow("X", "Z", Literal("a"), order=3)
    return s


def count_calls(monkeypatch, module, names):
    """Replace each named function of ``module`` by a wrapper that counts its calls."""
    calls = Counter()
    for name in names:
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


class TestCycles:
    def test_turingol_elementary_cycles(self):
        found = set(elementary_cycles(turingol_schema()))
        assert found == {("LD",), ("DL",), ("L",), ("L", "S", "SC"), ("S", "SI")}

    def test_turingol_or_bearing_cycles(self):
        found = set(or_bearing_cycles(turingol_schema()))
        assert found == {("L", "S", "SC"), ("S", "SI")}

    def test_turingol_cycle_condition_clean(self):
        assert check_and_cycle_condition(turingol_schema()) == []

    def test_or_loop_without_and_node_reported(self):
        s = Schema()
        s.add_node("X")
        s.add_node("Y", Literal("y"))
        s.add_node("Z", Literal("z"))
        s.add_and_arrow("X", "Y", Literal("a"), optional=True)
        s.add_or_arrow("X", "X")
        s.add_or_arrow("X", "Z")
        assert check_and_cycle_condition(s) == [("X",)]

    def test_acyclic_schema_clean(self):
        s = Schema()
        s.add_node("A")
        s.add_node("B", Literal("b"))
        s.add_or_arrow("A", "B")
        assert check_and_cycle_condition(s) == []

    def test_mixed_node_cycle_through_and_arrow_reported(self):
        s = Schema()
        s.add_node("M")
        s.add_node("N")
        s.add_node("Z", Literal("z"))
        s.add_and_arrow("M", "N", Literal("k"), optional=True)
        s.add_or_arrow("M", "Z")
        s.add_or_arrow("N", "M")
        s.add_or_arrow("N", "Z")
        assert check_and_cycle_condition(s) == [("M", "N")]

    def test_complete_schema_gets_one_witness_per_or_arrow_pair(self):
        s = complete_or_schema(12)
        start = time.perf_counter()
        report = analyze(s)
        elapsed = time.perf_counter() - start
        assert not report.uni_labeled
        assert report.pairs is None
        assert report.stuck_cycles == sorted(
            rotate_min((f"N{i}", f"N{j}")) for i in range(12) for j in range(i + 1, 12)
        )
        assert elapsed < 1.0

    @given(
        st.integers(1, 6),
        st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=10),
        st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=10),
    )
    @settings(deadline=None, max_examples=150)
    def test_witnesses_match_elementary_cycle_definition(self, n, and_edges, or_edges):
        s = Schema()
        for i in range(n):
            s.add_node(f"N{i}")
        for a, b in sorted(and_edges):
            if a < n and b < n:
                s.add_and_arrow(f"N{a}", f"N{b}", Literal("e"), optional=True)
        for a, b in sorted(or_edges):
            if a < n and b < n:
                s.add_or_arrow(f"N{a}", f"N{b}")
        reference = [
            cycle
            for cycle in or_bearing_cycles(s)
            if not any(s.node_class(name) == AND_NODE for name in cycle)
        ]
        witnesses = check_and_cycle_condition(s)
        assert bool(witnesses) == bool(reference)
        assert witnesses == sorted(set(witnesses))
        assert set(witnesses) <= set(reference)
        or_pairs = {(o.src, o.dst) for o in s.or_arrows()}
        witnessed = set().union(*map(cycle_steps, witnesses))
        for cycle in reference:
            assert cycle_steps(cycle) & or_pairs <= witnessed


class TestPairPropagation:
    def test_turingol_settled_pairs(self):
        report = propagate_pairs(turingol_schema())
        assert report.ok
        carried = {("L", Literal(";")), ("S", Literal(":"))}
        for name in ("SG", "SI", "SP", "SM", "SE", "SC"):
            assert carried <= report.pairs[name]
        assert ("L", Literal(";")) in report.pairs["S"]
        assert ("S", Literal(":")) not in report.pairs["L"]

    def test_turingol_family_verdict(self):
        assert uni_labeled_family(turingol_schema())

    def test_native_clash_with_arriving_pair(self):
        s = Schema()
        s.add_node("X")
        s.add_node("Y", Literal("y"))
        s.add_node("T", Literal("t"))
        s.add_and_arrow("X", "T", Literal("to"), optional=True)
        s.add_and_arrow("Y", "T", Literal("to"))
        s.add_or_arrow("X", "Y")
        report = propagate_pairs(s)
        assert not report.ok
        assert report.conflicts[0].node == "Y"
        assert not uni_labeled_family(s)

    def test_no_or_arrows_keeps_pairs_native(self):
        s = Schema()
        s.add_node("X", Literal("x"))
        s.add_node("Y", Literal("y"))
        s.add_and_arrow("X", "Y", Literal("a"))
        report = propagate_pairs(s)
        assert report.pairs == {"X": {("X", Literal("a"))}, "Y": set()}

    def test_refuses_undecidable_propagation(self):
        s = Schema()
        s.add_node("X")
        s.add_node("Y", Literal("y"))
        s.add_and_arrow("X", "Y", Literal("a"), optional=True)
        s.add_or_arrow("X", "X")
        with pytest.raises(ValueError):
            propagate_pairs(s)


class TestExpansions:
    def test_counts(self):
        s = turingol_schema()
        assert len(expansions(s, "L")) == 2
        assert len(expansions(s, "S")) == 12
        assert len(expansions(s, "OS")) == 1

    def test_count_formula_across_schema(self):
        s = turingol_schema()
        for name in s.names():
            choices = max(len(s.or_targets(name)), 1)
            optionals = sum(1 for a in s.and_arrows(src=name) if a.optional)
            assert len(expansions(s, name)) == choices * (2 ** optionals)

    def test_atomic_expansion_is_isolated_node(self):
        s = turingol_schema()
        (tree,) = expansions(s, "OS")
        assert tree.graph.node_count == 1
        assert tree.graph.node_label(tree.root) == "one-square"

    def test_and_node_expansion_children(self):
        s = turingol_schema()
        (tree,) = expansions(s, "P")
        assert tree.graph.node_label(tree.root) == "tape-alphabet"
        children = {
            (arrow.label, tree.graph.node_label(arrow.dst))
            for _, arrow in tree.graph.out_arrows(tree.root)
        }
        assert children == {("is", "DL"), (";", "L"), ("", "DOT")}

    def test_or_choices_relabel_root(self):
        s = turingol_schema()
        labels = {t.graph.node_label(t.root) for t in expansions(s, "S")}
        assert labels == {"SG", "SI", "SP", "SM", "SE", "SC"}


class TestGeneration:
    def test_root_label(self):
        tree = generate_sytr(turingol_schema(), "P", random.Random(1))
        assert tree.graph.node_label(tree.root) == "tape-alphabet"

    def test_atomic_generation(self):
        tree = generate_sytr(turingol_schema(), "OS", random.Random(1))
        assert tree.graph.node_count == 1
        assert tree.graph.node_label(tree.root) == "one-square"

    def test_budget_respected_and_exceeded(self):
        s = turingol_schema()
        tree = generate_sytr(s, "P", random.Random(3), node_budget=40)
        assert tree.graph.node_count <= 40
        with pytest.raises(BudgetExceeded):
            generate_sytr(s, "P", random.Random(3), node_budget=3)

    def test_minimal_budget_program(self):
        tree = generate_sytr(turingol_schema(), "P", random.Random(9), node_budget=4)
        assert tree.graph.node_count == 4

    def test_deterministic_per_seed(self):
        s = turingol_schema()
        first = generate_sytr(s, "P", random.Random(7))
        second = generate_sytr(s, "P", random.Random(7))
        from reference_graph import canonical_form
        assert canonical_form(first.graph, first.root) == canonical_form(second.graph, second.root)

    def test_no_schema_names_remain(self):
        from wordtree.graph import is_mla_word
        for seed in range(10):
            tree = generate_sytr(turingol_schema(), "P", random.Random(seed))
            for node in tree.graph.nodes():
                assert not is_mla_word(tree.graph.node_label(node))

    def test_generated_trees_uni_labeled(self):
        for seed in range(50):
            tree = generate_sytr(turingol_schema(), "P", random.Random(seed))
            assert check_uni_labeled(tree.graph) == []

    def test_refuses_merged_and_labels(self):
        s = merged_label_schema()
        assert propagate_pairs(s).ok
        assert not uni_labeled_family(s)
        with pytest.raises(ValueError, match="not guaranteed uni-labeled"):
            generate_sytr(s, "X", random.Random(0))

    def test_refuses_clashing_schema(self):
        s = Schema()
        s.add_node("X")
        s.add_node("Y", Literal("y"))
        s.add_node("T", Literal("t"))
        s.add_and_arrow("X", "T", Literal("to"), optional=True)
        s.add_and_arrow("Y", "T", Literal("to"))
        s.add_or_arrow("X", "Y")
        with pytest.raises(ValueError):
            generate_sytr(s, "X", random.Random(0))


class TestAnalysis:
    def test_report_matches_fresh_checks(self):
        for s in (turingol_schema(), merged_label_schema(), complete_or_schema(3)):
            report = analyze(s)
            assert report.structure == validate(s)
            assert report.and_conflicts == check_and_condition(s)
            assert report.stuck_cycles == check_and_cycle_condition(s)
            assert report.uni_labeled == uni_labeled_family(s)
        assert analyze(turingol_schema()).pairs == propagate_pairs(turingol_schema())

    def test_report_kept_until_the_schema_changes(self):
        s = turingol_schema()
        report = analyze(s)
        assert analyze(s) is report and report.uni_labeled
        s.add_node("T", Literal("t"), number=1)
        assert analyze(s) is not report and analyze(s).uni_labeled
        s.add_and_arrow("P", "T", Literal("is"), order=5)
        assert analyze(s).and_conflicts and not uni_labeled_family(s)
        fresh = turingol_schema()
        uni_labeled_family(fresh)
        fresh.add_or_arrow("S", "L")
        assert analyze(fresh).stuck_cycles == [("L", "S")]

    def test_analysis_runs_once_per_schema_state(self, monkeypatch):
        calls = count_calls(
            monkeypatch, schema_module, ("_min_sizes", "propagate_pairs", "CountTable", "_subset_counts")
        )
        s = turingol_schema()
        names = len(s.names())
        for seed in range(100):
            generate_sytr(s, "P", random.Random(seed))
        assert calls == {"_min_sizes": 1, "propagate_pairs": 1, "CountTable": names, "_subset_counts": names}
        # Every turingol row reaches its total within 500 nodes, so a larger budget adds nothing.
        generate_sytr(s, "P", random.Random(0), node_budget=5000)
        assert calls == {"_min_sizes": 1, "propagate_pairs": 1, "CountTable": names, "_subset_counts": names}
        s.add_node("T", Literal("t"), number=1)
        generate_sytr(s, "P", random.Random(0))
        assert calls == {
            "_min_sizes": 2, "propagate_pairs": 2, "CountTable": 2 * names + 1, "_subset_counts": 2 * names + 1
        }

    def test_count_rows_grow_only_for_a_larger_budget(self, monkeypatch):
        calls = count_calls(monkeypatch, schema_module, ("_subset_counts",))
        s = Schema()
        s.add_node("P", Literal("p"), number=1)
        s.add_node("N", Literal("n"), number=1)
        for word in ("a", "b", "c", "d", "e"):
            s.add_and_arrow("P", "N", Literal(word), optional=True)
        generate_sytr(s, "P", random.Random(0), node_budget=3)
        generate_sytr(s, "P", random.Random(1), node_budget=2)
        assert calls == {"_subset_counts": 2}
        assert [len(row) for row in analyze(s).counts["P"].rows] == [1, 2, 3, 4, 4, 4]
        generate_sytr(s, "P", random.Random(0), node_budget=40)
        assert calls == {"_subset_counts": 3}
        assert [len(row) for row in analyze(s).counts["P"].rows] == [1, 2, 3, 4, 5, 6]
        generate_sytr(s, "P", random.Random(0), node_budget=400)
        assert calls == {"_subset_counts": 3}


class TestReportScript:
    def run_script(self, capsys, monkeypatch, *argv):
        monkeypatch.setattr(sys, "argv", ["schema_report.py", *argv])
        code = schema_report.main()
        return code, capsys.readouterr().out

    def test_builtin_schema_is_uni_labeled(self, capsys, monkeypatch):
        code, out = self.run_script(capsys, monkeypatch)
        assert code == 0
        assert "  AND-cycle condition: OK" in out.splitlines()
        assert out.splitlines()[-1] == "verdict: uni-labeled family"

    def test_dense_cycles_report_fast_with_exact_counts(self, capsys, monkeypatch, tmp_path):
        stored = tmp_path / "complete.json"
        stored.write_text(schema_to_json(complete_or_schema(9)))
        began = time.perf_counter()
        code, out = self.run_script(capsys, monkeypatch, "--schema", str(stored))
        assert time.perf_counter() - began < 1.0
        assert code == 1
        assert len(out.splitlines()) < 200
        assert "  N0: 9" in out.splitlines()

        code, out = self.run_script(capsys, monkeypatch)
        lines = out.splitlines()
        counts = lines[lines.index("expansion counts") + 2 : lines.index("verdict: uni-labeled family") - 1]
        s = turingol_schema()
        assert counts == [f"  {name}: {len(expansions(s, name))}" for name in s.names()]

    def test_and_conflict_schema_fails(self, capsys, monkeypatch, tmp_path):
        stored = tmp_path / "clash.json"
        stored.write_text(schema_to_json(merged_label_schema()))
        code, out = self.run_script(capsys, monkeypatch, "--schema", str(stored))
        assert code == 1
        assert "  AND condition violated at X: 'a' overlaps 'a'" in out.splitlines()
        assert out.splitlines()[-1] == "verdict: not guaranteed uni-labeled"

    @pytest.mark.parametrize(
        "text, refusal",
        [
            pytest.param(None, "node DL: missing numbering", id="unnumbered"),
            pytest.param('{"nodes": [1]}', "bad schema file: nodes[0]: ", id="misshapen"),
            pytest.param("{]", "bad schema file: ", id="unreadable-json"),
            pytest.param(b"\xff", "not UTF-8 text", id="not-utf8"),
        ],
    )
    def test_bad_schema_file_gets_the_grammar_refusal(
        self, capsys, monkeypatch, tmp_path, text, refusal
    ):
        """The script prints what ``wordtree schema grammar`` prints, with no traceback."""
        if text is None:
            payload = json.loads(schema_to_json(turingol_schema()))
            payload["nodes"][4]["number"] = None
            text = json.dumps(payload)
        stored = tmp_path / "bad.json"
        if isinstance(text, bytes):
            stored.write_bytes(text)
        else:
            stored.write_text(text)
        monkeypatch.setattr(sys, "argv", ["schema_report.py", "--schema", str(stored)])
        script = (schema_report.main(), *capsys.readouterr())
        command = (cli_main(["schema", "grammar", "--schema", str(stored)]), *capsys.readouterr())
        assert script == command
        code, out, err = script
        assert (code, out) == (1, "")
        assert refusal in err and len(err.splitlines()) == 1

    def test_missing_schema_file_gets_the_grammar_refusal(self, capsys, monkeypatch, tmp_path):
        absent = str(tmp_path / "absent.json")
        monkeypatch.setattr(sys, "argv", ["schema_report.py", "--schema", absent])
        script = (schema_report.main(), *capsys.readouterr())
        command = (cli_main(["schema", "grammar", "--schema", absent]), *capsys.readouterr())
        assert script == command
        assert script[:2] == (1, "") and "No such file or directory" in script[2]


class TestGrammarExport:
    def test_worked_productions(self):
        lines = export_grammar(turingol_schema()).splitlines()
        by_name = dict(line.split(" ::= ", 1) for line in lines)
        assert by_name["L"] == "S (';' L)?"
        assert by_name["S"] == "(LD ':')? (SG | SI | SP | SM | SE | SC)"
        assert by_name["P"] == "'tape-alphabet' 'is' DL ';' L DOT"
        assert by_name["STR"] == "''' I '''"
        assert by_name["SM"] == "'move' ('left' | 'right') OS"
        assert by_name["SE"] == "''"
        assert by_name["SC"] == "'{' L '}'"
        assert by_name["LD"] == "[a-z]+ (':' LD)?"
        assert by_name["DL"] == "[a-z]+ (',' DL)?"
        assert by_name["I"] == "[a-z]+"

    def test_declaration_order_preserved(self):
        names = [line.split(" ::= ")[0] for line in export_grammar(turingol_schema()).splitlines()]
        assert names == ["I", "OS", "DOT", "LD", "DL", "STR", "A", "SG", "SI",
                         "SP", "SM", "SE", "SC", "S", "L", "P"]

    def test_stable_across_runs(self):
        assert export_grammar(turingol_schema()) == export_grammar(turingol_schema())

    def test_missing_numbering_rejected(self):
        s = Schema()
        s.add_node("X", Literal("x"))
        s.add_node("Y", Literal("y"))
        s.add_and_arrow("X", "Y", Literal("a"))
        with pytest.raises(ValueError):
            export_grammar(s)


class TestSerialization:
    def test_round_trip(self):
        s = turingol_schema()
        restored = schema_from_json(schema_to_json(s))
        assert restored.names() == s.names()
        assert export_grammar(restored) == export_grammar(s)
        assert set(elementary_cycles(restored)) == set(elementary_cycles(s))

    def test_round_trip_keeps_every_field(self):
        for s in (turingol_schema(), merged_label_schema(), complete_or_schema(3)):
            restored = schema_from_json(schema_to_json(s))
            assert [restored.node(n) for n in restored.names()] == [s.node(n) for n in s.names()]
            assert restored.and_arrows() == s.and_arrows()
            assert restored.or_arrows() == s.or_arrows()

    def test_one_of_words_must_be_a_list(self):
        stored = json.loads(schema_to_json(turingol_schema()))
        assert {"kind": "one-of", "words": ["left", "right"]} in [a["label"] for a in stored["and_arrows"]]
        text = '{"nodes": [{"name": "X", "label": {"kind": "one-of", "words": %s}, "number": 1}]}'
        assert schema_from_json(text % '["abc"]').node("X").label == Alternation({"abc"})
        for words in ('"abc"', '{"a": 1}', "7", "null"):
            with pytest.raises(ValueError, match="one-of words must be a list"):
                schema_from_json(text % words)

    def test_bad_pattern_rejected(self):
        with pytest.raises(ValueError):
            schema_from_json('{"nodes": [{"name": "X", "label": {"kind": "star"}, "number": 1}]}')
