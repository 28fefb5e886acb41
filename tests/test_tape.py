"""Tape parsing, growth, and rendering tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordtree import graph as G
from wordtree.executor import STOPPED, final_tape
from wordtree.pipeline import execute_program
from wordtree.tape import add_cells, chain_text, parse_tape, render_tape


def test_parse_single_cell():
    g = G.LabeledGraph()
    assert add_cells(g, parse_tape("one")) == [0]
    assert g.node_count == 1
    assert g.arrow_count == 0


def test_parse_chain():
    g = G.LabeledGraph()
    assert add_cells(g, parse_tape("one zero point")) == [0, 1, 2]
    assert [g.node_label(n) for n in g.nodes()] == ["one", "zero", "point"]
    assert g.arrow_count == 2
    for _, arrow in g.arrows():
        assert arrow.label == ""
        assert arrow.kind == G.TAPE


def test_parse_empty_cell_token():
    assert parse_tape('one "" zero') == ("one", "", "zero")


def test_parse_whitespace_flexible():
    assert parse_tape("  one\t zero \n point ") == ("one", "zero", "point")


def test_parse_rejects_empty_input():
    with pytest.raises(ValueError):
        parse_tape("")
    with pytest.raises(ValueError):
        parse_tape("   ")


def test_parse_rejects_bad_tokens():
    for bad in ["One", "a_b", "-leading", "trailing-", "a--b", "'"]:
        with pytest.raises(ValueError):
            parse_tape(bad)


def test_parse_refusal_texts():
    for text, message in [
        ("", "a tape needs at least one cell"),
        ('one "" One a_b One', "illegal tape token 'One'"),
        ("one '", "illegal tape token \"'\""),
    ]:
        with pytest.raises(ValueError) as refusal:
            parse_tape(text)
        assert str(refusal.value) == message


def test_add_cells_checks_every_word_before_adding_any():
    g = G.LabeledGraph()
    g.add_node("tape-alphabet")
    for words in (("one", "One"), ("one", ";"), ("", "Zero"), ("one", None)):
        with pytest.raises(ValueError, match="illegal tape word"):
            add_cells(g, words)
        assert (g.node_count, g.arrow_count) == (1, 0)
    own = g.add_node("stop")  # no refused mount ended the graph's own nodes
    assert G.resolve(g, G.parse_path("stop")) == own


def test_hyphenated_cells_allowed():
    assert parse_tape("tape-alphabet one-square") == ("tape-alphabet", "one-square")


def test_chain_text_renders_long_chains_whole():
    text = " ".join(["zero"] * 1499 + ["blank"])
    g = G.LabeledGraph()
    cells = add_cells(g, parse_tape(text))
    assert chain_text(g, cells[700]) == text


def test_chain_text_ends_on_a_cycle():
    g = G.LabeledGraph()
    first, second, third = g.add_node("one"), g.add_node("two"), g.add_node("three")
    for left, right in ((first, second), (second, third), (third, first)):
        g.add_arrow(left, "", right, kind=G.TAPE)
    assert chain_text(g, second) == "three one two"


def test_render_round_trip():
    for text in ["one", "one zero point", 'blank "" one']:
        assert render_tape(parse_tape(text)) == text


# Words of the grammar [a-z]+(-[a-z]+)*, built directly: 1-3 segments of 1-3 letters.
segments = st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=3)
cell_words = st.one_of(
    st.just(""),
    st.lists(segments, min_size=1, max_size=3).map("-".join),
)


@given(st.lists(cell_words, min_size=1, max_size=8))
@settings(deadline=None)
def test_parse_render_inverse(labels):
    text = " ".join('""' if w == "" else w for w in labels)
    words = parse_tape(text)
    assert words == tuple(labels)
    assert render_tape(words) == text


@given(
    st.lists(cell_words, min_size=1, max_size=6),
    st.lists(st.booleans(), min_size=1, max_size=6),
    st.data(),
)
@settings(deadline=None)
def test_chain_stays_linear_under_expansion(labels, sides, data):
    """A program of moves grows the tape one empty cell per step off either end."""
    text = " ".join('""' if w == "" else w for w in labels)
    start = data.draw(st.integers(0, len(labels) - 1))
    moves = ";\n".join(f"move {'left' if left else 'right'} one-square" for left in sides)
    result = execute_program(f"tape-alphabet is one;\n{moves}.", text, start)
    assert result.outcome == STOPPED

    size, head, grown_left, grown_right = len(labels), start, 0, 0
    for left in sides:
        if left and head == 0:
            grown_left += 1
        elif not left and head == size - 1:
            grown_right += 1
            head += 1
        else:
            head += -1 if left else 1
        size = len(labels) + grown_left + grown_right
    assert final_tape(result.state) == " ".join(
        ['""'] * grown_left + [text] + ['""'] * grown_right
    )

    g = result.state.tree.graph
    tape_arrows = [a for _, a in g.arrows() if a.kind == G.TAPE]
    assert len(tape_arrows) == size - 1
    for node in g.nodes():
        assert sum(a.kind == G.TAPE for _, a in g.out_arrows(node)) <= 1
        assert sum(a.kind == G.TAPE for _, a in g.in_arrows(node)) <= 1
