"""Tape parsing, expansion, and rendering tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordtree import graph as G
from wordtree.tape import chain_text, expand_left, expand_right, parse_tape, render_tape


def test_parse_single_cell():
    t = parse_tape("one")
    assert t.labels() == ["one"]
    assert t.graph.node_count == 1
    assert t.graph.arrow_count == 0


def test_parse_chain():
    t = parse_tape("one zero point")
    assert t.labels() == ["one", "zero", "point"]
    assert t.graph.arrow_count == 2
    for _, arrow in t.graph.arrows():
        assert arrow.label == ""
        assert arrow.kind == G.TAPE


def test_parse_empty_cell_token():
    t = parse_tape('one "" zero')
    assert t.labels() == ["one", "", "zero"]


def test_parse_whitespace_flexible():
    t = parse_tape("  one\t zero \n point ")
    assert t.labels() == ["one", "zero", "point"]


def test_parse_rejects_empty_input():
    with pytest.raises(ValueError):
        parse_tape("")
    with pytest.raises(ValueError):
        parse_tape("   ")


def test_parse_rejects_bad_tokens():
    for bad in ["One", "a_b", "-leading", "trailing-", "a--b", "'"]:
        with pytest.raises(ValueError):
            parse_tape(bad)


def test_hyphenated_cells_allowed():
    t = parse_tape("tape-alphabet one-square")
    assert t.labels() == ["tape-alphabet", "one-square"]


def test_last_property():
    t = parse_tape("one zero")
    assert t.graph.node_label(t.last) == "zero"
    assert t.graph.node_label(t.root) == "one"


def test_expand_left():
    t = parse_tape("one")
    fresh = expand_left(t)
    assert t.root == fresh
    assert t.labels() == ["", "one"]


def test_expand_right():
    t = parse_tape("one")
    fresh = expand_right(t)
    assert t.last == fresh
    assert t.labels() == ["one", ""]


def test_chain_text_renders_long_chains_whole():
    text = " ".join(["zero"] * 1499 + ["blank"])
    t = parse_tape(text)
    assert chain_text(t.graph, t.cells()[700]) == text


def test_chain_text_ends_on_a_cycle():
    t = parse_tape("one two three")
    first, second, third = t.cells()
    t.graph.add_arrow(third, "", first, kind=G.TAPE)
    assert chain_text(t.graph, second) == "three one two"


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
    t = parse_tape(text)
    assert t.labels() == labels
    assert render_tape(t) == text


@given(st.lists(cell_words, min_size=1, max_size=6), st.lists(st.booleans(), max_size=6))
@settings(deadline=None)
def test_chain_stays_linear_under_expansion(labels, sides):
    text = " ".join('""' if w == "" else w for w in labels)
    t = parse_tape(text)
    for left in sides:
        if left:
            expand_left(t)
        else:
            expand_right(t)
    assert len(t.labels()) == len(labels) + len(sides)
    assert t.graph.arrow_count == t.graph.node_count - 1
    for node in t.graph.nodes():
        assert len(t.graph.out_arrows(node, kinds=(G.TAPE,))) <= 1
        assert len(t.graph.in_arrows(node, kinds=(G.TAPE,))) <= 1
