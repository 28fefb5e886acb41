"""Frontend tests: lexing, parsing, canonical encoding, rendering."""

import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordtree import graph as G
from wordtree.frontend import (
    IllegalCharacter,
    ParseError,
    Sytr,
    lex,
    parse_text,
    render_program,
    to_canonical,
)
from wordtree.graph import LabeledGraph, check_uni_labeled
from wordtree.schema import generate_sytr, turingol_schema

from conftest import PROGRAMS, corpus_texts
from reference_graph import canonical_form, forms_equal


def build_increment_tree() -> Sytr:
    """The expected tree for programs/increment.tgl, written out by hand."""
    g = LabeledGraph()
    root = g.add_node("tape-alphabet")
    blank = g.add_node("blank")
    one = g.add_node("one")
    zero = g.add_node("zero")
    point = g.add_node("point")
    dot = g.add_node(".")
    g.add_arrow(root, "is", blank)
    g.add_arrow(blank, ",", one)
    g.add_arrow(one, ",", zero)
    g.add_arrow(zero, ",", point)
    g.add_arrow(root, "", dot)

    print1 = g.add_node("print")
    g.add_arrow(print1, "'", g.add_node("point"))
    go1 = g.add_node("go")
    g.add_arrow(go1, "to", g.add_node("carry"))
    if1 = g.add_node("if")
    g.add_arrow(if1, ":", g.add_node("test"))
    symbol1 = g.add_node("the-tape-symbol")
    g.add_arrow(if1, "", symbol1)
    g.add_arrow(symbol1, "is", g.add_node("one"))
    block = g.add_node("{")
    g.add_arrow(if1, "then", block)

    print3 = g.add_node("print")
    g.add_arrow(print3, "'", g.add_node("zero"))
    move1 = g.add_node("move")
    g.add_arrow(move1, ":", g.add_node("carry"))
    g.add_arrow(move1, "left", g.add_node("one-square"))
    go2 = g.add_node("go")
    g.add_arrow(go2, "to", g.add_node("test"))
    g.add_arrow(block, "}", print3)
    g.add_arrow(print3, ";", move1)
    g.add_arrow(move1, ";", go2)

    print2 = g.add_node("print")
    g.add_arrow(print2, "'", g.add_node("one"))
    move2 = g.add_node("move")
    g.add_arrow(move2, ":", g.add_node("realign"))
    g.add_arrow(move2, "right", g.add_node("one-square"))
    if2 = g.add_node("if")
    symbol2 = g.add_node("the-tape-symbol")
    g.add_arrow(if2, "", symbol2)
    g.add_arrow(symbol2, "is", g.add_node("zero"))
    go3 = g.add_node("go")
    g.add_arrow(go3, "to", g.add_node("realign"))
    g.add_arrow(if2, "then", go3)

    g.add_arrow(root, ";", print1)
    g.add_arrow(print1, ";", go1)
    g.add_arrow(go1, ";", if1)
    g.add_arrow(if1, ";", print2)
    g.add_arrow(print2, ";", move2)
    g.add_arrow(move2, ";", if2)
    return Sytr(g, root)


class TestLexer:
    def test_words_and_punctuation(self):
        tokens = lex("go to carry;")
        assert [(t.kind, t.text) for t in tokens] == [
            ("word", "go"), ("word", "to"), ("word", "carry"), ("punct", ";")]

    def test_composite_word(self):
        tokens = lex("the-tape-symbol")
        assert len(tokens) == 1
        assert tokens[0].text == "the-tape-symbol"

    def test_positions(self):
        tokens = lex("go to\n  carry;")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[2].line, tokens[2].column) == (2, 3)
        assert (tokens[3].line, tokens[3].column) == (2, 8)

    def test_uppercase_rejected(self):
        with pytest.raises(IllegalCharacter) as exc:
            lex("Go")
        assert exc.value.char == "G"

    def test_stray_hyphen_rejected(self):
        with pytest.raises(IllegalCharacter):
            lex("a--b")
        with pytest.raises(IllegalCharacter):
            lex("-x")

    def test_quotes_are_single_tokens(self):
        tokens = lex("print 'point'")
        assert [(t.kind, t.text) for t in tokens] == [
            ("word", "print"), ("punct", "'"), ("word", "point"), ("punct", "'")]


class TestParser:
    def test_increment_matches_hand_built_tree(self, increment_text):
        parsed = parse_text(increment_text)
        expected = build_increment_tree()
        assert canonical_form(parsed.graph, parsed.root) == canonical_form(
            expected.graph, expected.root)

    def test_increment_counts(self, increment_text):
        parsed = parse_text(increment_text)
        assert parsed.graph.node_count == 32
        assert parsed.graph.arrow_count == 31

    def test_increment_root_arrows(self, increment_text):
        parsed = parse_text(increment_text)
        labels = {a.label for _, a in parsed.graph.out_arrows(parsed.root)}
        assert labels == {"is", ";", ""}

    def test_increment_statement_chain(self, increment_text):
        parsed = parse_text(increment_text)
        g = parsed.graph
        chain = []
        cursor = next(a.dst for _, a in g.out_arrows(parsed.root) if a.label == ";")
        while cursor is not None:
            chain.append(g.node_label(cursor))
            following = [a.dst for _, a in g.out_arrows(cursor) if a.label == ";"]
            cursor = following[0] if following else None
        assert chain == ["print", "go", "if", "print", "move", "if"]

    def test_increment_uni_labeled(self, increment_text):
        parsed = parse_text(increment_text)
        assert check_uni_labeled(parsed.graph) == []

    def test_every_word_becomes_a_label(self, increment_text):
        parsed = parse_text(increment_text)
        g = parsed.graph
        labeled = sum(1 for n in g.nodes() if g.node_label(n) != "")
        labeled += sum(1 for _, a in g.arrows() if a.label != "")
        assert len(lex(increment_text)) == 67
        prints = sum(1 for n in g.nodes() if g.node_label(n) == "print")
        ifs = sum(1 for n in g.nodes() if g.node_label(n) == "if")
        assert labeled == 67 - prints - 2 * ifs

    def test_empty_statement_list(self):
        parsed = parse_text("tape-alphabet is a; .")
        g = parsed.graph
        first = next(a.dst for _, a in g.out_arrows(parsed.root) if a.label == ";")
        assert g.node_label(first) == ""

    def test_label_chains(self):
        parsed = parse_text("tape-alphabet is a; x: y: go to z.")
        g = parsed.graph
        go = next(n for n in g.nodes() if g.node_label(n) == "go")
        first = next(a.dst for _, a in g.out_arrows(go) if a.label == ":")
        assert g.node_label(first) == "x"
        second = next(a.dst for _, a in g.out_arrows(first) if a.label == ":")
        assert g.node_label(second) == "y"

    def test_keyword_usable_as_identifier(self):
        parsed = parse_text("tape-alphabet is a; go: go to go.")
        assert check_uni_labeled(parsed.graph) == []

    def test_empty_statements_between_separators(self):
        parsed = parse_text("tape-alphabet is a; ; go to x; .")
        labels = sorted(parsed.graph.node_label(n) for n in parsed.graph.nodes())
        assert labels.count("") == 2

    @pytest.mark.parametrize(
        "text, expected_part",
        [
            ("tape-alphabet is a. .", 'expected ";"'),
            ("tape-alphabet is a; go carry.", "expected 'to'"),
            ("tape-alphabet is a; print point.", 'expected "\'"'),
            ("tape-alphabet is a; move up one-square.", "'left' or 'right'"),
            ("tape-alphabet is a; if the-tape-symbol is 'x' go to y.", "expected 'then'"),
            ("tape-alphabet is a; {go to x.", 'expected "}"'),
            ("tape-alphabet is a; go to one-square.", "without hyphens"),
            ("tape-alphabet is one-square; .", "without hyphens"),
            ("tape-alphabet is a; go to x. extra", "expected end of program"),
            ("tape-alphabet is a; go to x", "found end of program"),
            ("go to x.", 'expected "tape-alphabet"'),
        ],
    )
    def test_syntax_errors(self, text, expected_part):
        with pytest.raises(ParseError) as exc:
            parse_text(text)
        assert expected_part in str(exc.value)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_text("tape-alphabet is a;\ngo carry.")
        assert "line 2" in str(exc.value)


class TestRenderer:
    def test_round_trip_increment(self, increment_text):
        first = parse_text(increment_text)
        text = render_program(first)
        second = parse_text(text)
        assert canonical_form(first.graph, first.root) == canonical_form(
            second.graph, second.root)

    def test_minimal_program(self):
        parsed = parse_text("tape-alphabet is a; .")
        assert render_program(parsed) == "tape-alphabet is a;\n."

    def test_render_normalizes(self, increment_text):
        parsed = parse_text(increment_text)
        once = render_program(parsed)
        twice = render_program(parse_text(once))
        assert once == twice

    def test_rejects_control_arrows(self):
        parsed = parse_text("tape-alphabet is a; .")
        nodes = parsed.graph.nodes()
        parsed.graph.add_arrow(nodes[0], "next", nodes[1], kind=G.CONTROL)
        with pytest.raises(ValueError):
            render_program(parsed)

    def test_rejects_wrong_root(self):
        g = LabeledGraph()
        root = g.add_node("print")
        with pytest.raises(ValueError):
            render_program(Sytr(g, root))

    def test_rejects_unknown_statement(self):
        parsed = parse_text("tape-alphabet is a; go to x.")
        go = next(n for n in parsed.graph.nodes()
                  if parsed.graph.node_label(n) == "go")
        parsed.graph.set_node_label(go, "halt")
        with pytest.raises(ValueError):
            render_program(parsed)

    def test_refuses_a_move_in_both_directions(self):
        parsed = parse_text("tape-alphabet is a; move left one-square.")
        (move,) = parsed.graph.nodes_labeled("move")
        parsed.graph.add_arrow(move, "right", parsed.graph.add_node("one-square"))
        with pytest.raises(ValueError, match="not a canonical program tree: the 'right' arrow"):
            render_program(parsed)

    def test_refuses_an_arrow_of_no_statement_shape(self):
        parsed = parse_text("tape-alphabet is a; x: go to x.")
        (go,) = parsed.graph.nodes_labeled("go")
        parsed.graph.add_arrow(go, "foo", parsed.graph.add_node("a"))
        with pytest.raises(ValueError, match="not a canonical program tree: the 'foo' arrow"):
            render_program(parsed)

    @pytest.mark.parametrize("label", ["'", ";"])  # a step the renderer follows, a chain it walks
    def test_refuses_a_repeated_arrow_label(self, label):
        parsed = parse_text("tape-alphabet is a; print 'a'; go to x; x: .")
        (printed,) = parsed.graph.nodes_labeled("print")
        parsed.graph.add_arrow(printed, label, parsed.graph.add_node("a"))
        with pytest.raises(ValueError) as refusal:
            render_program(parsed)
        assert type(refusal.value) is ValueError
        assert str(refusal.value) == (
            f'not a canonical program tree: node 2 has several "{label}" arrows leaving it'
        )

    def test_canonical_trees_render_as_before(self):
        """A canonical tree renders as the parsed program normalizes: ``programs/*.tgl``
        and two seed-1 corpus rounds, each rendered once more from its rendering."""
        texts = [path.read_text() for path in sorted(PROGRAMS.glob("*.tgl"))]
        for text in texts + list(corpus_texts()):
            once = render_program(parse_text(text))
            assert render_program(parse_text(once)) == once


def grown_or_corpus_tree(choice: int) -> Sytr:
    """A grown tree for an even ``choice``, a corpus program's tree for an odd one."""
    if choice % 2 == 0:
        return to_canonical(generate_sytr(turingol_schema(), "P", random.Random(choice)))
    texts = corpus_texts()
    return parse_text(texts[choice // 2 % len(texts)])


EXTRA_WORDS = ["", ";", ":", ",", "'", "is", "to", "then", "}", "left", "right", "foo"]
EXTRA_LABELS = ["", "a", "one-square", "go", "print", "the-tape-symbol", "{"]


@given(
    st.integers(0, 399),
    st.integers(0, 10**6),
    st.sampled_from(EXTRA_WORDS),
    st.sampled_from(EXTRA_LABELS),
)
@settings(deadline=None, max_examples=200)
def test_an_extra_arrow_is_refused_or_reparses_alike(choice, at, word, label):
    """A grown or corpus tree with one more node and an arrow into it: ``render_program``
    refuses it, or its text reparses to the same tree.

    The same up to node ids: the extra node is numbered last, where a
    parse may number it earlier, so the trees are compared by
    ``canonical_form``.
    """
    tree = grown_or_corpus_tree(choice)
    g = tree.graph
    g.add_arrow(at % g.node_count, word, g.add_node(label))
    try:
        text = render_program(tree)
    except ValueError:
        return
    reparsed = parse_text(text)
    assert forms_equal(canonical_form(reparsed.graph, reparsed.root), canonical_form(g, tree.root))


@pytest.fixture
def one_second():
    """Turn a render that never returns into a failure after one second."""

    def expire(signum, frame):
        raise TimeoutError("did not return within one second")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(1)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class TestRendererRefusesNonTrees:
    """A chain that loops, or a node reached twice, is not a program tree."""

    def test_statement_chain(self, one_second):
        tree = parse_text("tape-alphabet is one; print 'one'; go to a; a: .")
        g = tree.graph
        (last,) = g.nodes_labeled("")
        g.add_arrow(last, ";", g.ends(tree.root, "+", ";")[0])
        with pytest.raises(ValueError, match="reached twice"):
            render_program(tree)

    def test_label_chain(self, one_second):
        tree = parse_text("tape-alphabet is one; a: print 'one'.")
        (label,) = tree.graph.nodes_labeled("a")
        tree.graph.add_arrow(label, ":", label)
        with pytest.raises(ValueError, match="reached twice"):
            render_program(tree)

    def test_declaration_chain(self, one_second):
        tree = parse_text("tape-alphabet is one, two; print 'one'.")
        g = tree.graph
        (first,) = g.ends(tree.root, "+", "is")
        (second,) = g.ends(first, "+", ",")
        g.add_arrow(second, ",", first)
        with pytest.raises(ValueError, match="reached twice"):
            render_program(tree)

    def test_shared_node(self):
        tree = parse_text("tape-alphabet is one; a: print 'one'; go to a.")
        g = tree.graph
        (go,) = g.nodes_labeled("go")
        ((to_arrow, _),) = g.out_arrows(go)
        (statement,) = g.nodes_labeled("print")
        g.set_arrow_dst(to_arrow, g.ends(statement, "+", ":")[0])
        with pytest.raises(ValueError, match="reached twice"):
            render_program(tree)


class TestCanonicalizer:
    def test_collapses_print_wrapper(self):
        g = LabeledGraph()
        root = g.add_node("print")
        quote = g.add_node("'")
        word = g.add_node("point")
        g.add_arrow(root, "", quote)
        g.add_arrow(quote, "'", word)
        out = to_canonical(Sytr(g, root))
        arrows = out.graph.out_arrows(out.root)
        assert len(arrows) == 1
        assert arrows[0][1].label == "'"
        assert out.graph.node_label(arrows[0][1].dst) == "point"

    def test_collapses_comparison_wrapper(self):
        g = LabeledGraph()
        symbol = g.add_node("the-tape-symbol")
        quote = g.add_node("'")
        word = g.add_node("one")
        g.add_arrow(symbol, "is", quote)
        g.add_arrow(quote, "'", word)
        out = to_canonical(Sytr(g, symbol))
        arrows = out.graph.out_arrows(out.root)
        assert arrows[0][1].label == "is"
        assert out.graph.node_label(arrows[0][1].dst) == "one"

    def test_refuses_a_cycle(self):
        g = LabeledGraph()
        root = g.add_node("tape-alphabet")
        body = g.add_node("print")
        quote = g.add_node("'")
        g.add_arrow(root, ";", body)
        g.add_arrow(body, "", quote)
        g.add_arrow(quote, "'", body)
        with pytest.raises(ValueError, match=f"node {body} lies on a cycle; not a tree"):
            to_canonical(Sytr(g, root))
        loop = LabeledGraph()
        alone = loop.add_node("tape-alphabet")
        loop.add_arrow(alone, "", alone)
        with pytest.raises(ValueError, match=f"node {alone} lies on a cycle; not a tree"):
            to_canonical(Sytr(loop, alone))

    def test_copies_a_shared_subtree_once_per_parent(self):
        g = LabeledGraph()
        root = g.add_node("if")
        shared = g.add_node("stop")
        g.add_arrow(root, "yes", shared)
        g.add_arrow(root, "no", shared)
        out = to_canonical(Sytr(g, root))
        assert out.graph.node_count == 3
        assert [a.label for _, a in out.graph.out_arrows(out.root)] == ["yes", "no"]

    def test_fixed_point_on_parsed_trees(self, increment_text):
        parsed = parse_text(increment_text)
        again = to_canonical(parsed)
        assert canonical_form(parsed.graph, parsed.root) == canonical_form(
            again.graph, again.root)


class TestGeneratedPrograms:
    def test_generated_trees_render_and_reparse(self):
        schema = turingol_schema()
        for seed in range(40):
            raw = generate_sytr(schema, "P", random.Random(seed), node_budget=60)
            canonical = to_canonical(raw)
            text = render_program(canonical)
            reparsed = parse_text(text)
            assert canonical_form(reparsed.graph, reparsed.root) == canonical_form(
                canonical.graph, canonical.root), f"seed {seed}:\n{text}"
