"""Kernel tests: storage, path formulas, propositions, actions, checks, export."""

import ast
import contextlib
import copy
import gc
import json
import pickle
import random
import re
import sys
import tracemalloc
import typing
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wordtree import graph as G
from wordtree import pipeline
from wordtree.graph import (
    CreateNodeWithArrowFromSource,
    CreateNodeWithArrowToTarget,
    FollowArrow,
    Inapplicable,
    LabeledGraph,
    LabelsEqual,
    NoArrowFrom,
    NoArrowTo,
    NormalConditionViolated,
    PathFormula,
    PathPassable,
    ReassignArrow,
    RelabelNode,
    StartAmbiguous,
    Stop,
    UniqueArrowExists,
    apply_action,
    check_uni_labeled,
    eval_proposition,
    export,
    normal_violation,
    parse_path,
    resolve,
    settle,
)
from wordtree.executor import LEFT_CELL_PATH, RIGHT_CELL_PATH, TAPE_PATH, initialize, run
from wordtree.frontend import parse_text, render_program, to_canonical
from wordtree.pipeline import check_program, execute_program, make_executable
from wordtree.schema import generate_sytr, turingol_schema
from wordtree.semantics import FINDINGS, PRINT_WORD_PATH, SYMBOL_PATH
from wordtree.tape import add_cells, parse_tape

import reference_algebra
from conftest import corpus_texts
from fail_safety import repair
from reference_graph import PerCallGraph, canonical_form, forms_equal, uni_label_violations

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


def small_tape(labels):
    """Chain of cells linked by empty-labeled tape arrows; returns (g, cells)."""
    g = LabeledGraph()
    cells = [g.add_node(label) for label in labels]
    for a, b in zip(cells, cells[1:]):
        g.add_arrow(a, "", b, kind=G.TAPE)
    return g, cells


def program_with_tape(labels, current_index):
    """A 'tape-alphabet' root wired to a small tape via a 'tape' arrow."""
    g, cells = small_tape(labels)
    root = g.add_node("tape-alphabet")
    g.add_arrow(root, "tape", cells[current_index], kind=G.SEMANTIC)
    return g, root, cells


class TestStorage:
    def test_add_node(self):
        g = LabeledGraph()
        n = g.add_node("print")
        assert g.node_label(n) == "print"
        assert g.node_count == 1

    def test_add_node_empty_label(self):
        g = LabeledGraph()
        n = g.add_node("")
        assert g.node_label(n) == ""

    def test_add_node_rejects_mixed_case(self):
        g = LabeledGraph()
        with pytest.raises(ValueError):
            g.add_node("Print")

    def test_add_node_accepts_auxiliary(self):
        g = LabeledGraph()
        n = g.add_node("LD")
        assert g.node_label(n) == "LD"

    def test_add_arrow(self):
        g = LabeledGraph()
        root = g.add_node("tape-alphabet")
        head = g.add_node("blank")
        a = g.add_arrow(root, "is", head)
        assert g.arrow(a).label == "is"
        assert g.arrow(a).kind == G.SYNTACTIC

    def test_add_arrow_empty_label(self):
        g = LabeledGraph()
        n, m = g.add_node("a"), g.add_node("b")
        a = g.add_arrow(n, "", m, kind=G.TAPE)
        assert g.arrow(a).label == ""

    def test_add_arrow_dangling(self):
        g = LabeledGraph()
        n = g.add_node("a")
        with pytest.raises(ValueError):
            g.add_arrow(n, "x", n + 999)

    def test_add_arrow_rejects_mla_label(self):
        g = LabeledGraph()
        n, m = g.add_node("a"), g.add_node("b")
        with pytest.raises(ValueError):
            g.add_arrow(n, "LD", m)

    def test_ids_outside_the_graph_are_refused(self):
        g = LabeledGraph()
        n, m = g.add_node("a"), g.add_node("b")
        g.add_arrow(n, "x", m)
        # A negative id must not index from the end of the storage lists.
        for bad in (-1, 2):
            with pytest.raises(IndexError):
                g.node_label(bad)
        for bad in (-1, 1):
            with pytest.raises(IndexError):
                g.arrow(bad)
        for bad in (-1, 2):
            for sign in ("+", "-"):
                with pytest.raises(ValueError, match=f"{bad} is not a node of this graph"):
                    g.follow(bad, sign, "x")
                with pytest.raises(ValueError, match=f"{bad} is not a node of this graph"):
                    g.ends(bad, sign, "x")
                with pytest.raises(ValueError, match=f"{bad} is not a node of this graph"):
                    g.ends_of_kind(bad, sign, G.SYNTACTIC)
            with pytest.raises(ValueError, match=f"{bad} is not a node of this graph"):
                g.out_arrows(bad)
            with pytest.raises(ValueError, match=f"{bad} is not a node of this graph"):
                g.in_arrows(bad)

    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))], ids=["deepcopy", "pickle"]
    )
    def test_copies_keep_arrowless_nodes_apart(self, clone):
        """A copied graph's arrowless nodes do not share the out-arrow dict the first arrow fills."""
        g = LabeledGraph()
        a, b = g.add_node("a"), g.add_node("b")
        dup = clone(g)
        dup.add_arrow(a, "x", b)
        assert [arrow.dst for _, arrow in dup.out_arrows(a)] == [b]
        assert dup.out_arrows(b) == [] and dup.ends(b, "+", "x") == []
        assert g.out_arrows(a) == g.out_arrows(b) == []

    def test_node_ids_that_are_not_integers_are_refused(self):
        g = LabeledGraph()
        n = g.add_node("a")
        with pytest.raises(TypeError):
            g.follow("a", "+", "x")
        with pytest.raises(TypeError):
            g.add_arrow("a", "x", n)


class TestPathFormulas:
    def test_str_quoting(self):
        f = PathFormula("tape-alphabet", (("+", "tape"), ("-", "")))
        assert str(f) == '"tape-alphabet"+tape-""'

    def test_parse_round_trip(self):
        for text in ['"tape-alphabet"+tape', '+""+is', '+"\'"', "stop", '"tape-alphabet"+tape-""']:
            assert str(parse_path(text)) == text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_path("")
        with pytest.raises(ValueError):
            parse_path('"unterminated')
        with pytest.raises(ValueError):
            parse_path("foo++bar")

    def test_resolve_zero_steps(self):
        g = LabeledGraph()
        stop = g.add_node("stop")
        assert resolve(g, parse_path("stop")) == stop

    def test_resolve_forward(self):
        g, root, cells = program_with_tape(["one", "one"], 1)
        assert resolve(g, parse_path('"tape-alphabet"+tape')) == cells[1]

    def test_resolve_backward(self):
        g, cells = small_tape(["one", "zero"])
        assert resolve(g, parse_path('-""'), current=cells[1]) == cells[0]

    def test_resolve_start_ambiguous(self):
        g, _ = small_tape(["one", "one"])
        with pytest.raises(StartAmbiguous):
            resolve(g, parse_path("one"))
        with pytest.raises(StartAmbiguous):
            resolve(g, parse_path("missing"))

    def test_resolve_start_names_own_nodes_only(self):
        g, root, (one,) = program_with_tape(["one"], 0)
        g.add_node("four")
        g.add_node("four")
        g.end_own_nodes()
        cells = add_cells(g, ["tape-alphabet", "two", "one"])
        grown = g.add_node("three")
        g.end_own_nodes()  # a second boundary does not move the first
        assert resolve(g, parse_path('"tape-alphabet"')) == root
        assert resolve(copy.deepcopy(g), parse_path('"tape-alphabet"')) == root
        assert resolve(g, parse_path("one")) == one
        for word, own in (("two", 0), ("three", 0), ("four", 2)):
            with pytest.raises(StartAmbiguous, match=f"names {own} nodes"):
                resolve(g, parse_path(word))
        assert resolve(g, parse_path('+""'), current=cells[0]) == cells[1]
        # The label index lists own nodes only.
        assert g.nodes_labeled("three") == []
        assert g.nodes_labeled("one") == [one]
        assert g.node_label(grown) == "three"

    def test_resolve_inapplicable_none(self):
        g, root, cells = program_with_tape(["one"], 0)
        with pytest.raises(Inapplicable) as exc:
            resolve(g, parse_path('"tape-alphabet"+tape+""'))
        assert exc.value.reason == "none"

    def test_resolve_inapplicable_multiple(self):
        g = LabeledGraph()
        a, b, c = g.add_node("a"), g.add_node("b"), g.add_node("c")
        g.add_arrow(a, "x", b)
        g.add_arrow(a, "x", c)
        with pytest.raises(Inapplicable) as exc:
            resolve(g, parse_path("a+x"))
        assert exc.value.reason == "multiple"

    def test_resolve_current_required(self):
        g = LabeledGraph()
        g.add_node("a")
        with pytest.raises(ValueError):
            resolve(g, parse_path("+x"))

    def test_ends_rejects_unknown_sign(self):
        g = LabeledGraph()
        a = g.add_node("a")
        with pytest.raises(ValueError):
            g.ends(a, "*", "x")

    def test_follow_finds_one_end_or_none(self):
        g, cells = small_tape(["one", "zero"])
        assert g.follow(cells[0], "+", "") == cells[1]
        assert g.follow(cells[1], "-", "") == cells[0]
        assert g.follow(cells[1], "+", "") is None

    def test_follow_refuses_several(self):
        g = LabeledGraph()
        a, b, c = (g.add_node(w) for w in "abc")
        g.add_arrow(a, "x", b)
        g.add_arrow(a, "x", c)
        g.add_arrow(b, "y", c)
        g.add_arrow(a, "y", c)
        with pytest.raises(ValueError, match="several 'x' arrows leaving"):
            g.follow(a, "+", "x")
        with pytest.raises(ValueError, match="several 'y' arrows entering"):
            g.follow(c, "-", "y")

    def test_chain_ends_where_a_node_would_repeat(self):
        g = LabeledGraph()
        a, b, c = (g.add_node(w) for w in "abc")
        g.add_arrow(a, ",", b)
        g.add_arrow(b, ",", c)
        g.add_arrow(c, ",", b)
        g.add_arrow(a, ":", a)
        assert g.chain(a, "+", ",") == [a, b, c]
        assert g.chain(a, "+", ":") == [a]
        assert g.follow(c, "+", ",") == b  # how a caller tells a loop


@st.composite
def labeled_trees(draw):
    """Uni-labeled random trees with a root-to-leaf witness path."""
    pool = ["go", "to", "is", "then", "left", "next", "back", "tape", "'", ";", ""]
    size = draw(st.integers(min_value=2, max_value=10))
    g = LabeledGraph()
    nodes = [g.add_node("root")]
    parents = {}
    child_count = {0: 0}
    for i in range(1, size):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        label = pool[child_count[parent] % len(pool)]
        child_count[parent] += 1
        node = g.add_node(draw(st.sampled_from(["a", "b", ""])))
        g.add_arrow(nodes[parent], label, node)
        nodes.append(node)
        parents[node] = (nodes[parent], label)
        child_count[node] = 0
    target = draw(st.sampled_from(nodes))
    steps = []
    walk = target
    while walk in parents:
        origin, label = parents[walk]
        steps.append(("+", label))
        walk = origin
    steps.reverse()
    return g, nodes[0], target, tuple(steps)


@given(labeled_trees())
@settings(deadline=None)
def test_resolve_round_trip(data):
    g, root, target, steps = data
    forward = PathFormula(None, steps)
    assert resolve(g, forward, current=root) == target
    backward = PathFormula(None, tuple(("-" if s == "+" else "+", w) for s, w in reversed(steps)))
    assert resolve(g, backward, current=target) == root


class TestPropositions:
    def test_labels_equal(self):
        g, root, cells = program_with_tape(["one", "one"], 0)
        probe = g.add_node("one")
        anchor = g.add_node("anchor")
        g.add_arrow(anchor, "x", probe)
        prop = LabelsEqual(parse_path('"tape-alphabet"+tape'), parse_path("anchor+x"))
        assert eval_proposition(g, prop) is True
        g.set_node_label(probe, "zero")
        assert eval_proposition(g, prop) is False

    def test_no_arrow_from_fresh_end(self):
        g, root, cells = program_with_tape(["one", "zero"], 1)
        assert eval_proposition(g, NoArrowFrom("", parse_path('"tape-alphabet"+tape'))) is True
        assert eval_proposition(g, NoArrowTo("", parse_path('"tape-alphabet"+tape'))) is False

    def test_labels_equal_impassable_crashes(self):
        g = LabeledGraph()
        g.add_node("a")
        prop = LabelsEqual(parse_path("a+x"), parse_path("a"))
        with pytest.raises(NormalConditionViolated):
            eval_proposition(g, prop)

    def test_unique_arrow_exists(self):
        g, root, cells = program_with_tape(["one"], 0)
        assert eval_proposition(g, UniqueArrowExists("tape")) is True
        assert eval_proposition(g, UniqueArrowExists("missing")) is False
        other = g.add_node("x")
        g.add_arrow(root, "tape", other, kind=G.SEMANTIC)
        assert eval_proposition(g, UniqueArrowExists("tape")) is False

    def test_path_passable_never_crashes(self):
        g = LabeledGraph()
        g.add_node("a")
        assert eval_proposition(g, PathPassable(parse_path("a"))) is True
        assert eval_proposition(g, PathPassable(parse_path("a+x"))) is False
        assert eval_proposition(g, PathPassable(parse_path("zz"))) is False

    def test_purity(self):
        g, root, cells = program_with_tape(["one", "zero"], 0)
        before = export(g, "json")
        eval_proposition(g, NoArrowFrom("", parse_path('"tape-alphabet"+tape')))
        resolve(g, parse_path('"tape-alphabet"+tape'))
        check_uni_labeled(g)
        assert export(g, "json") == before


class TestActions:
    def test_relabel_node(self):
        g, root, cells = program_with_tape(["one"], 0)
        source = g.add_node("point")
        anchor = g.add_node("anchor")
        g.add_arrow(anchor, "x", source)
        action = RelabelNode(parse_path('"tape-alphabet"+tape'), parse_path("anchor+x"))
        result = apply_action(g, action, current=root)
        assert result == root
        assert g.node_label(cells[0]) == "point"

    def test_reassign_arrow(self):
        g, root, cells = program_with_tape(["one", "zero"], 1)
        action = ReassignArrow("tape", parse_path('"tape-alphabet"+tape-""'))
        apply_action(g, action)
        assert resolve(g, parse_path('"tape-alphabet"+tape')) == cells[0]

    def test_reassign_requires_unique_arrow(self):
        g, root, cells = program_with_tape(["one"], 0)
        with pytest.raises(NormalConditionViolated):
            apply_action(g, ReassignArrow("missing", parse_path('"tape-alphabet"')))

    def test_create_to_target(self):
        g, root, cells = program_with_tape(["one"], 0)
        nodes, arrows = g.node_count, g.arrow_count
        apply_action(g, CreateNodeWithArrowToTarget(parse_path('"tape-alphabet"+tape')))
        assert (g.node_count, g.arrow_count) == (nodes + 1, arrows + 1)
        previous = resolve(g, parse_path('"tape-alphabet"+tape-""'))
        assert g.node_label(previous) == ""

    def test_create_from_source(self):
        g, root, cells = program_with_tape(["one"], 0)
        apply_action(g, CreateNodeWithArrowFromSource(parse_path('"tape-alphabet"+tape')))
        fresh = resolve(g, parse_path('"tape-alphabet"+tape+""'))
        assert g.node_label(fresh) == ""

    def test_follow_arrow(self):
        g = LabeledGraph()
        a, b = g.add_node("a"), g.add_node("b")
        g.add_arrow(a, "next", b, kind=G.CONTROL)
        assert apply_action(g, FollowArrow("next"), current=a) == b

    def test_follow_arrow_multiple_crashes(self):
        g = LabeledGraph()
        a, b, c = g.add_node("a"), g.add_node("b"), g.add_node("c")
        g.add_arrow(a, "next", b, kind=G.CONTROL)
        g.add_arrow(a, "next", c, kind=G.CONTROL)
        with pytest.raises(NormalConditionViolated):
            apply_action(g, FollowArrow("next"), current=a)

    def test_follow_arrow_missing_crashes(self):
        g = LabeledGraph()
        a = g.add_node("a")
        with pytest.raises(NormalConditionViolated):
            apply_action(g, FollowArrow("next"), current=a)

    def test_stop(self):
        g = LabeledGraph()
        a = g.add_node("a")
        assert apply_action(g, Stop(), current=a) is None

    def test_count_invariants(self):
        g, root, cells = program_with_tape(["one", "zero"], 1)
        probe = g.add_node("zero")
        anchor = g.add_node("anchor")
        g.add_arrow(anchor, "x", probe)
        preserving = [
            RelabelNode(parse_path('"tape-alphabet"+tape'), parse_path("anchor+x")),
            ReassignArrow("tape", parse_path('"tape-alphabet"+tape-""')),
            FollowArrow("x"),
            Stop(),
        ]
        for action in preserving:
            nodes, arrows = g.node_count, g.arrow_count
            apply_action(g, action, current=anchor)
            assert (g.node_count, g.arrow_count) == (nodes, arrows)
        growing = [
            CreateNodeWithArrowToTarget(parse_path("anchor")),
            CreateNodeWithArrowFromSource(parse_path("anchor")),
        ]
        for action in growing:
            nodes, arrows = g.node_count, g.arrow_count
            apply_action(g, action)
            assert (g.node_count, g.arrow_count) == (nodes + 1, arrows + 1)


class TestNormalViolation:
    def test_ok_cases_return_none(self):
        g, root, cells = program_with_tape(["one"], 0)
        assert normal_violation(g, NoArrowTo("", parse_path('"tape-alphabet"+tape'))) is None
        assert normal_violation(g, ReassignArrow("tape", parse_path('"tape-alphabet"'))) is None
        assert normal_violation(g, FollowArrow("tape"), current=root) is None
        assert normal_violation(g, Stop()) is None
        assert normal_violation(g, PathPassable(parse_path("zz+x"))) is None

    def test_impassable_path_described(self):
        g = LabeledGraph()
        g.add_node("a")
        problem = normal_violation(g, LabelsEqual(parse_path("a+x"), parse_path("a")))
        assert problem is not None and "not passable" in problem

    def test_follow_cases_described(self):
        g = LabeledGraph()
        a, b, c = g.add_node("a"), g.add_node("b"), g.add_node("c")
        assert "no 'next' arrow" in normal_violation(g, FollowArrow("next"), current=a)
        g.add_arrow(a, "next", b, kind=G.CONTROL)
        g.add_arrow(a, "next", c, kind=G.CONTROL)
        assert "several" in normal_violation(g, FollowArrow("next"), current=a)

    def test_an_item_of_the_other_kind_is_refused_before_its_paths_resolve(self):
        g = LabeledGraph()
        g.add_node("a")
        with pytest.raises(TypeError, match="not a proposition"):
            eval_proposition(g, ReassignArrow("y", parse_path("a+x")))
        with pytest.raises(TypeError, match="not an action"):
            apply_action(g, LabelsEqual(parse_path("a+x"), parse_path("a")))

    def test_a_stepless_relative_path_at_no_node_raises_what_evaluating_raises(self):
        g = LabeledGraph()
        g.add_node("a")
        item = NoArrowTo("x", PathFormula(None, ()))
        with pytest.raises(ValueError) as evaluated:
            eval_proposition(g, item, 8)
        with pytest.raises(ValueError) as predicted:
            normal_violation(g, item, 8)
        assert str(predicted.value) == str(evaluated.value)


words = st.sampled_from(["x", "y", ""])


@st.composite
def graphs_with_current(draw):
    """Small graphs whose labels collide often, plus a current node."""
    g = LabeledGraph()
    labels = draw(st.lists(st.sampled_from(["a", "b", ""]), min_size=1, max_size=5))
    nodes = [g.add_node(label) for label in labels]
    for _ in range(draw(st.integers(0, 8))):
        g.add_arrow(
            draw(st.sampled_from(nodes)),
            draw(words),
            draw(st.sampled_from(nodes)),
            draw(st.sampled_from(G.ARROW_KINDS)),
        )
    return g, draw(st.sampled_from(nodes))


def add_after_own_nodes(host: LabeledGraph, other: LabeledGraph) -> dict[int, int]:
    """End ``host``'s own nodes, then add ``other``'s nodes and arrows one by one in id order."""
    host.end_own_nodes()
    mapping = {}
    for node in sorted(other.nodes()):
        mapping[node] = host.add_node(other.node_label(node))
    for _, arrow in sorted(other.arrows(), key=lambda pair: pair[0]):
        host.add_arrow(mapping[arrow.src], arrow.label, mapping[arrow.dst], arrow.kind)
    return mapping


@st.composite
def indexed_graphs(draw):
    """Graphs built every way the out-arrow index is kept, plus a node.

    Arrows repeat a (node, label) pair that already has one, arrows are
    moved by ``set_arrow_dst``, nodes are relabeled by
    ``set_node_label``, and the graph is used as built, as a
    deep copy whose original then grows, or added node by node and
    arrow by arrow to another graph after its own nodes end.
    """
    g, node = draw(graphs_with_current())
    nodes = g.nodes()

    def some_arrows():
        ids = range(g.arrow_count)
        return draw(st.lists(st.sampled_from(ids), max_size=3)) if ids else []

    for arrow_id in some_arrows():
        arrow = g.arrow(arrow_id)
        g.add_arrow(
            arrow.src,
            arrow.label,
            draw(st.sampled_from(nodes)),
            draw(st.sampled_from(G.ARROW_KINDS)),
        )
    for arrow_id in some_arrows():
        g.set_arrow_dst(arrow_id, draw(st.sampled_from(nodes)))
    for relabeled in draw(st.lists(st.sampled_from(nodes), max_size=3)):
        g.set_node_label(relabeled, draw(st.sampled_from(["a", "b", "", "c"])))
    how = draw(st.sampled_from(["built", "copy", "mounted"]))
    if how == "copy":
        original, g = g, copy.deepcopy(g)
        original.add_arrow(node, draw(words), node)
    elif how == "mounted":
        host, _ = draw(graphs_with_current())
        node = add_after_own_nodes(host, g)[node]
        g = host
    return g, node


@given(indexed_graphs(), st.sampled_from("+-"), words)
@settings(deadline=None)
def test_ends_equals_brute_force(graph_and_node, sign, word):
    g, node = graph_and_node
    near, far = ("src", "dst") if sign == "+" else ("dst", "src")
    expected = [
        getattr(a, far) for _, a in g.arrows() if getattr(a, near) == node and a.label == word
    ]
    assert g.ends(node, sign, word) == expected


path_formulas = st.builds(
    PathFormula,
    st.none() | st.sampled_from(["a", "b", "", "c"]),
    st.lists(st.tuples(st.sampled_from("+-"), words), max_size=3).map(tuple),
)


def looped_node() -> tuple[LabeledGraph, int]:
    """A graph of one node with an 'x' arrow to itself, and that node."""
    g = LabeledGraph()
    node = g.add_node("a")
    g.add_arrow(node, "x", node)
    return g, node


@given(indexed_graphs(), path_formulas, st.sampled_from(["in range", "negative", "foreign", None]))
@example(looped_node(), PathFormula(None, (("+", "x"),)), "negative")
@example(looped_node(), PathFormula(None, (("+", "x"),)), "foreign")
@settings(deadline=None)
def test_resolve_equals_reference(graph_and_node, formula, where):
    """``resolve`` reaches the reference's node, or raises its exception with its text.

    The current node is the drawn one, a negative id, an id past the
    last node, or none at all.
    """
    g, node = graph_and_node
    current = {
        "in range": node,
        "negative": -1 - node,
        "foreign": g.node_count + node,
        None: None,
    }[where]

    def outcome(resolver):
        try:
            return resolver(g, formula, current)
        except (G.GraphError, ValueError) as failure:
            return type(failure), str(failure)

    assert outcome(resolve) == outcome(reference_algebra.resolve)


@given(
    indexed_graphs(),
    path_formulas,
    st.lists(st.sampled_from(["a", "b", ""]), max_size=3),
    words,
    st.booleans(),
)
@example(looped_node(), PathFormula(None, (("+", "y"),)), ["a"], "y", True)
@settings(deadline=None)
def test_a_settled_formula_resolves_as_its_formula(
    graph_and_node, formula, cells, word, mount_first
):
    """``settle`` changes nothing ``resolve`` gives: the node, or the exception and its text.

    A tape of ``cells`` is mounted before or after settling, as a run
    mounts one: its cells are mounted nodes, and its one arrow from an
    own node leaves the drawn node by a ``word`` that node had no arrow
    for. No settled step reaches a mounted node, and a settled formula
    prints as the formula.
    """
    g, node = graph_and_node

    def mount() -> None:
        if cells and node < min(g._own_end, g.node_count) and not g.ends(node, "+", word):
            g.add_arrow(node, word, add_cells(g, cells)[0], G.SEMANTIC)

    def outcome(path):
        try:
            return resolve(g, path, node)
        except (G.GraphError, ValueError) as failure:
            return type(failure), str(failure)

    if mount_first:
        mount()
    settled = settle(g, formula, node)
    if not mount_first:
        mount()
    assert str(settled) == str(formula)
    if settled is not formula:
        assert settled.formula is formula
        assert settled.rest == formula.steps[settled.taken:]
        assert 0 <= settled.node < min(g._own_end, g.node_count)
        assert settled.taken or formula.start is not None
    assert outcome(settled) == outcome(formula)


def test_settle_stops_before_a_mounted_node_and_a_missing_arrow():
    g = LabeledGraph()
    root, word = g.add_node("tape-alphabet"), g.add_node("a")
    g.add_arrow(root, "is", word)
    path = parse_path('"tape-alphabet"+is+x')
    assert settle(g, path) == G.Settled(path, word, 1, (("+", "x"),))
    (cell,) = add_cells(g, ["a"])
    g.add_arrow(word, "x", cell, G.SEMANTIC)
    assert resolve(g, settle(g, path)) == cell
    assert settle(g, path) == G.Settled(path, word, 1, (("+", "x"),))
    for unsettled, current in [
        (parse_path("+x"), cell),  # not at an own node
        (parse_path("+y"), word),  # takes no step
        (parse_path('"b"+is'), None),  # names no node
    ]:
        assert settle(g, unsettled, current) is unsettled


def test_follow_arrow_reads_the_index(monkeypatch):
    """An unbound follow reads the (node, label) index; it calls no ``follow`` to get there."""
    g = LabeledGraph()
    a, b = g.add_node("a"), g.add_node("b")
    g.add_arrow(a, "next", b)

    def refuse(*args):
        raise AssertionError("follow was called")

    monkeypatch.setattr(LabeledGraph, "follow", refuse)
    assert apply_action(g, FollowArrow("next"), a) == b
    assert apply_action(g, G.FollowArrowTo("next", b), a) == b
    monkeypatch.undo()
    g.add_arrow(a, "next", a)
    with pytest.raises(NormalConditionViolated, match="several 'next' arrows"):
        apply_action(g, FollowArrow("next"), a)
    with pytest.raises(NormalConditionViolated, match="no 'next' arrow"):
        apply_action(g, FollowArrow("next"), b)


def test_path_reads_call_follow_only_to_name_a_failed_step(monkeypatch, increment_text):
    """Settling, resolving and following step through ``_walk``; ``follow`` only names a failure.

    On a checked ``increment.tgl`` with a tape mounted, and then with a
    second 'tape' arrow, every read from every own node that succeeds
    calls no ``follow``, and one that fails reaches it from
    ``_failed_step`` alone and raises the reference's exception and text.
    """
    result = check_program(increment_text)
    state = initialize(result.tree, parse_tape("one zero one"), 1, make_executable(result))
    g, root = state.tree.graph, state.tree.root
    formulas = [TAPE_PATH, LEFT_CELL_PATH, RIGHT_CELL_PATH, SYMBOL_PATH, PRINT_WORD_PATH]
    formulas += map(parse_path, ['"tape-alphabet"+tape+""+""', "+next+next", "-next", '-";"'])
    follow, calls = LabeledGraph.follow, []

    def from_the_helper_only(self, *args):
        caller = sys._getframe(1).f_code.co_name
        if caller != "_failed_step":
            raise AssertionError(f"{caller} called follow")
        calls.append(args)
        return follow(self, *args)

    def outcome(read, *args):
        try:
            return read(*args)
        except (G.GraphError, ValueError) as failure:
            return type(failure), str(failure)

    def checked(read, *args):
        """``outcome``, having called ``follow`` exactly when the read failed."""
        calls.clear()
        got = outcome(read, *args)
        assert bool(calls) == (type(got) is tuple), (read, args, calls)
        return got

    monkeypatch.setattr(LabeledGraph, "follow", from_the_helper_only)
    for node in range(g._own_end):
        for formula in formulas:
            settled = settle(g, formula, node)
            expected = outcome(reference_algebra.resolve, g, formula, node)
            assert checked(resolve, g, formula, node) == expected
            assert checked(resolve, g, settled, node) == expected
            expected = outcome(reference_algebra.locate, g, formula, node)
            assert checked(G.reader(settled), g, node) == expected
        expected = outcome(reference_algebra.apply_action, g, FollowArrow("next"), node)
        assert checked(apply_action, g, FollowArrow("next"), node) == expected
    tapes = [settle(g, path) for path in (TAPE_PATH, LEFT_CELL_PATH, RIGHT_CELL_PATH)]
    assert [(path.node, path.taken) for path in tapes] == [(root, 0)] * 3
    head = g._own_end + 1  # the second of the three cells
    assert [checked(resolve, g, path) for path in tapes] == [head, head - 1, head + 1]
    g.add_arrow(root, "tape", root, G.SEMANTIC)
    for path in tapes:
        expected = outcome(reference_algebra.resolve, g, path.formula)
        assert checked(resolve, g, path) == expected
        assert expected[0] is Inapplicable
    expected = outcome(reference_algebra.apply_action, g, FollowArrow("tape"), root)
    assert checked(apply_action, g, FollowArrow("tape"), root) == expected
    assert "several" in expected[1]


def containers(g: LabeledGraph) -> dict[int, object]:
    """Every list, dict and set in ``vars(g)`` and one level into them, by id."""
    found = {}
    for value in vars(g).values():
        if isinstance(value, (list, dict, set)):
            found[id(value)] = value
            for item in value.values() if isinstance(value, dict) else value:
                if isinstance(item, (list, dict, set)):
                    found[id(item)] = item
    return found


@given(
    indexed_graphs(),
    st.booleans(),
    st.sampled_from(["add_arrow", "set_node_label", "set_arrow_dst", "add_cells"]),
    words,
)
@settings(deadline=None)
def test_deep_copy_equals_the_graph_and_changes_apart_from_it(graph_and_node, per_call, change, word):
    """A copy has the same state, its own class, and no list, dict or set but ``_NO_OUT`` in common.

    Copying builds the original's in-arrow index, if no read has built
    it yet, and changes nothing else of the original.
    """
    g, node = graph_and_node
    if per_call:
        oracle = PerCallGraph()
        oracle.extend([g.node_label(n) for n in g.nodes()])
        for _, arrow in g.arrows():
            oracle.add_arrow(*arrow)
        g = oracle
    before = copy.deepcopy(vars(g))
    dup = copy.deepcopy(g)
    dsts = g._dst
    assert g._in == [[i for i in range(g.arrow_count) if dsts[i] == n] for n in g.nodes()]
    before["_in"] = copy.deepcopy(g._in)
    assert vars(g) == before
    assert type(dup) is type(g)
    assert vars(dup) == vars(g)
    assert all(firsts is G._NO_OUT for firsts in dup._out if not firsts)
    assert set(containers(dup)) & set(containers(g)) <= {id(G._NO_OUT)}
    if change == "add_arrow":
        dup.add_arrow(node, word, node)
        assert dup.ends(node, "+", word)[-1] == node
    elif change == "set_node_label":
        dup.set_node_label(node, "c")
        assert dup.node_label(node) == "c"
    elif change == "set_arrow_dst" and dup.arrow_count:
        dup.set_arrow_dst(0, node)
        assert dup.arrow(0).dst == node
    else:
        cells = add_cells(dup, ["a", ""])
        assert dup.node_count == g.node_count + len(cells)
    assert vars(g) == before
    assert G._NO_OUT == {}


@given(indexed_graphs(), st.sampled_from("+-"), words)
@settings(deadline=None)
def test_chain_follows_the_one_arrow_until_it_ends_or_repeats(graph_and_node, sign, word):
    g, node = graph_and_node
    walked = [node]
    try:
        nodes = g.chain(node, sign, word)
    except ValueError:
        # Some node reached along the way has several such arrows.
        while len(g.ends(walked[-1], sign, word)) == 1:
            step = g.ends(walked[-1], sign, word)[0]
            assert step not in walked
            walked.append(step)
        assert len(g.ends(walked[-1], sign, word)) > 1
        return
    assert len(set(nodes)) == len(nodes) and nodes[0] == node
    for here, there in zip(nodes, nodes[1:]):
        assert g.ends(here, sign, word) == [there]
    assert g.ends(nodes[-1], sign, word) in ([], *([n] for n in nodes))


@given(indexed_graphs())
@settings(deadline=None)
def test_ids_are_in_order(graph_and_node):
    """Ids run from 0 with no gaps, in the order nodes and arrows were added."""
    g, _ = graph_and_node
    assert g.nodes() == list(range(g.node_count))
    assert [arrow_id for arrow_id, _ in g.arrows()] == list(range(g.arrow_count))
    assert g.add_node("a") == g.node_count - 1
    assert g.add_arrow(0, "x", 0) == g.arrow_count - 1


# One program per finding code that blocks or ends a check, and a clean one.
FINDING_PROGRAMS = {
    "L1": "tape-alphabet is one;\nx: print 'one';\nx: go to x.",
    "L2": "tape-alphabet is one;\nprint 'one';\ngo to nowhere.",
    "AW2": "tape-alphabet is one;\nprint 'two';\nif the-tape-symbol is 'one' then print 'one'.",
    "C2": "tape-alphabet is one;\nprint 'one';\nx: go to x.",
    None: "tape-alphabet is one;\nx: print 'one';\nif the-tape-symbol is 'one' then go to x.",
}


@pytest.mark.parametrize(
    "text",
    [pytest.param(p.read_text(), id=p.stem) for p in sorted(PROGRAMS.glob("*.tgl"))]
    + [pytest.param(text, id=code or "clean") for code, text in FINDING_PROGRAMS.items()],
)
def test_check_program_scans_no_arrow_list(monkeypatch, text):
    """``check_program`` reads the label index, never the list of every arrow."""
    expected = check_program(text)

    def scan(*args, **kwargs):
        raise AssertionError("check_program listed every arrow")

    monkeypatch.setattr(LabeledGraph, "arrows", scan)
    result = check_program(text)
    assert [str(d) for d in result.diagnostics] == [str(d) for d in expected.diagnostics]
    assert result.flow_counts == expected.flow_counts


def counted_arrows(monkeypatch) -> list:
    """Swap ``Arrow`` for a subclass that records each record built; return the record list."""
    made = []

    class CountedArrow(G.Arrow):
        __slots__ = ()

        def __new__(cls, fields):
            made.append(fields)
            return super().__new__(cls, fields)

    monkeypatch.setattr(G, "Arrow", CountedArrow)
    return made


@pytest.mark.parametrize("copies", [1, 50], ids=["increment", "550-statements"])
def test_check_program_builds_no_arrow_record(monkeypatch, increment_text, copies):
    """The check path reads the arrow columns; only listings build ``Arrow`` records.

    ``increment.tgl`` itself, and 50 copies of its body with their own labels.
    """
    text = increment_text if copies == 1 else increment_copies(increment_text, copies)
    made = counted_arrows(monkeypatch)
    result = check_program(text)
    assert len(result.points.statements) == 11 * copies
    assert result.runnable and result.flow_counts
    assert made == []
    g = result.tree.graph
    assert len(g.arrows()) == len(made) == g.arrow_count  # the count sees listings


def test_arrow_records_are_read_only_snapshots():
    g = LabeledGraph()
    a, b, c = g.add_node("a"), g.add_node("b"), g.add_node("c")
    arrow_id = g.add_arrow(a, "x", b)
    before = g.arrow(arrow_id)
    (listed,) = [arrow for _, arrow in g.arrows()]
    for field, value in (("src", c), ("label", "y"), ("dst", c), ("kind", G.TAPE)):
        with pytest.raises(AttributeError):
            setattr(before, field, value)
    g.set_arrow_dst(arrow_id, c)
    assert (before.dst, listed.dst) == (b, b)
    assert g.arrow(arrow_id) == G.Arrow((a, "x", c, G.SYNTACTIC))
    assert (g.arrow(arrow_id).dst, g.ends(a, "+", "x"), g.in_arrows(b)) == (c, [c], [])
    assert repr(g.arrow(arrow_id)) == "Arrow(src=0, label='x', dst=2, kind='syntactic')"


def test_finding_programs_carry_their_finding():
    for code, text in FINDING_PROGRAMS.items():
        codes = {d.code for d in check_program(text).diagnostics}
        blocking = codes & {"L1", "L2", "AW2", "C2"}
        assert blocking == ({code} if code else set())


def test_every_emitted_code_has_a_findings_text():
    """Each finding reported on the programs and the finding programs is worded by the table."""
    texts = [p.read_text() for p in sorted(PROGRAMS.glob("*.tgl"))] + list(FINDING_PROGRAMS.values())
    texts.append("tape-alphabet is one;\nx: print 'one';\ngo to x;\nprint 'one'.")  # CW1
    diagnostics = [d for text in texts for d in check_program(text).diagnostics]
    assert {d.code for d in diagnostics} >= {"L1", "L2", "AW2", "C2", "CW1", "LW1", "AW3"}
    for d in diagnostics:
        assert d.code in FINDINGS, d
        assert d.words and all(G.display_word(word) in d.message for word in d.words), d


def test_parsing_validates_each_word_once_per_role(monkeypatch, increment_text):
    """A word is checked once as a node label and once as an arrow label, then indexed.

    The parser builds its tree with one ``extend`` call, which checks
    the distinct node labels first and then the distinct arrow labels.
    """
    checked = []
    real = G.is_pla_word

    def counting(text):
        caller = sys._getframe(1)
        while caller.f_code.co_name.startswith("<"):  # a comprehension's own frame
            caller = caller.f_back
        checked.append((caller.f_code.co_name, text))
        return real(text)

    monkeypatch.setattr(G, "is_pla_word", counting)
    g = parse_text(increment_text).graph
    node_words = {g.node_label(n) for n in g.nodes()}
    arrow_words = {a.label for _, a in g.arrows()}
    texts = [text for _, text in checked]
    assert sorted(texts[: len(node_words)]) == sorted(node_words)
    assert sorted(texts[len(node_words):]) == sorted(arrow_words)
    assert {caller for caller, _ in checked} == {"extend"}


def index_snapshot(g: LabeledGraph, words) -> tuple:
    return (
        g.node_count,
        g.arrow_count,
        [g.nodes_labeled(word) for word in words],
        [g.arrows_labeled(word) for word in words],
        G.export_json(g),
        copy.deepcopy(vars(g)),
    )


@pytest.mark.parametrize("relabel_first", [False, True])
def test_refusals_keep_their_text_and_change_nothing(monkeypatch, relabel_first):
    g = LabeledGraph()
    a, b = g.add_node("a"), g.add_node("b")
    g.add_arrow(a, "x", b)
    if relabel_first:
        # The last node labeled "b" takes another label, so no node carries "b".
        g.set_node_label(b, "a")
        assert g.nodes_labeled("b") == []
    words = ["a", "b", "x", "fresh", "Print", "LD"]
    before = index_snapshot(g, words)
    refusals = [
        (lambda: g.add_node("Print"), "node label 'Print' is neither a PLA word nor an MLA word"),
        (lambda: g.set_node_label(a, "Print"), "node label 'Print' is neither a PLA word nor an MLA word"),
        (lambda: g.add_arrow(a, "LD", b), "arrow label 'LD' is not a PLA word"),
        (lambda: g.add_arrow(a, "x", b, "bogus"), "unknown arrow kind 'bogus'"),
        (lambda: g.add_arrow(a, "fresh", b, "bogus"), "unknown arrow kind 'bogus'"),
        (lambda: g.add_arrow(a, "x", 99), "arrow destination 99 is not a node of this graph"),
        (lambda: g.extend(["c"], [a, b], ["x"], [b]), "the arrow columns differ in length"),
    ]
    for refuse, message in refusals:
        with pytest.raises(ValueError) as refusal:
            refuse()
        assert str(refusal.value) == message
        assert index_snapshot(g, words) == before
    # A node label is validated once per graph, also when no node carries it
    # any longer; an arrow label the index does not hold is validated again.
    checked = []
    real = G.is_pla_word
    monkeypatch.setattr(G, "is_pla_word", lambda text: checked.append(text) or real(text))
    g.add_node("b")
    g.add_arrow(a, "fresh", b)
    assert checked == ["fresh"]


# Words of every sort a build may carry: PLA words with and without
# hyphens or punctuation, the empty word, and MLA words, which only a
# node may carry. ``FAULTY`` words are no label at all.
BUILD_WORDS = ["a", "b", "", "x-y", ";", "'", "LD", "P1"]
FAULTY = ["Ab", "a b", "\u00e9", "-\n"]
PLA_BUILD_WORDS = [w for w in BUILD_WORDS if G.is_pla_word(w)]


@st.composite
def builds(draw):
    """Several ``extend`` calls, as (labels, srcs, words, dsts, kind), each perhaps faulty.

    Arrows draw their ends from few nodes and their words from few
    labels, so nodes often repeat an out-label. A faulty call carries
    up to three faults at random places: an illegal node label, an
    illegal or MLA arrow label, one or both ends of an arrow out of
    range, or an unknown kind.
    """
    nodes = 0  # in the graph once every call before this one succeeded
    calls = []
    for _ in range(draw(st.integers(1, 4))):
        labels = draw(st.lists(st.sampled_from(BUILD_WORDS), max_size=6))
        count = nodes + len(labels)
        arrows = []
        if count:
            ends = st.integers(0, count - 1)
            pla = st.sampled_from(PLA_BUILD_WORDS)
            arrows = draw(st.lists(st.tuples(ends, pla, ends), max_size=8))
        srcs, words, dsts = (list(column) for column in zip(*arrows)) if arrows else ([], [], [])
        kind = draw(st.sampled_from(G.ARROW_KINDS))
        faults = draw(st.lists(
            st.sampled_from(["node", "word", "mla", "src", "dst", "ends", "kind"]), max_size=3
        ))
        for fault in faults:
            if fault == "node" and labels:
                labels[draw(st.integers(0, len(labels) - 1))] = draw(st.sampled_from(FAULTY))
            elif fault == "kind" and words:
                kind = "bogus"
            elif words:
                at = draw(st.integers(0, len(words) - 1))
                if fault == "word":
                    words[at] = draw(st.sampled_from(FAULTY))
                elif fault == "mla":
                    words[at] = draw(st.sampled_from(["LD", "P1"]))
                else:
                    for column in {"src": [srcs], "dst": [dsts]}.get(fault, [srcs, dsts]):
                        column[at] = draw(st.sampled_from([-1, count, count + 5]))
        legal = (
            not set(labels) & set(FAULTY)
            and set(words) <= set(PLA_BUILD_WORDS)
            and kind != "bogus"
            and all(0 <= end < count for end in srcs + dsts)
        )
        if legal:
            nodes = count
        calls.append((labels, srcs, words, dsts, kind))
    return calls


def followed(g: LabeledGraph, node: int, sign: str, word: str):
    try:
        return g.follow(node, sign, word)
    except G.SeveralArrows as several:
        return ("SeveralArrows", str(several))


def primed(g: LabeledGraph, prime: bool) -> LabeledGraph:
    """``g``, with its first-read indexes built when ``prime`` holds: the in-arrow
    ids, and the own nodes of each of ``BUILD_WORDS``."""
    if prime:
        g._ins()
        for word in BUILD_WORDS:
            g.nodes_labeled(word)
    return g


@given(builds(), st.booleans())
@settings(deadline=None, max_examples=300)
@example([(["a", "Ab", "b", "a b", "\u00e9", "-\n"], [], [], [], G.SYNTACTIC)], False)
@example([(["a", "b"], [0, 5, 1], ["x", "Ab", "a b"], [1, 7, 9], G.CONTROL)], True)
@example([(["a", "b"], [0, 1], ["LD", "x"], [1, 3], "bogus")], False)
def test_extend_builds_what_adding_one_element_at_a_time_builds(calls, prime):
    """``extend`` against the per-call oracle: same graph, or the same refusal and no change.

    With ``prime``, both graphs build their first-read indexes before the
    first call, so every call after it must keep them current. The
    oracle is rebuilt from the calls that succeeded after each refusal.
    """
    g, oracle, done = primed(LabeledGraph(), prime), primed(PerCallGraph(), prime), []
    for labels, srcs, words, dsts, kind in calls:
        before = (G.export_json(g), copy.deepcopy(vars(g)))
        try:
            oracle.extend(labels, srcs, words, dsts, kind)
        except ValueError as refusal:
            with pytest.raises(ValueError) as refused:
                g.extend(labels, srcs, words, dsts, kind)
            assert str(refused.value) == str(refusal)
            assert (G.export_json(g), vars(g)) == before
            oracle = primed(PerCallGraph(), prime)
            for call in done:
                oracle.extend(*call)
        else:
            g.extend(labels, srcs, words, dsts, kind)
            done.append((labels, srcs, words, dsts, kind))
    assert vars(g) == vars(oracle)
    assert G.export_json(g) == G.export_json(oracle)
    for word in BUILD_WORDS:
        assert g.nodes_labeled(word) == oracle.nodes_labeled(word)
        assert g.arrows_labeled(word) == oracle.arrows_labeled(word)
    for node in g.nodes():
        assert g.out_arrows(node) == oracle.out_arrows(node)
        assert g.in_arrows(node) == oracle.in_arrows(node)
        for sign in "+-":
            for word in BUILD_WORDS:
                assert followed(g, node, sign, word) == followed(oracle, node, sign, word)
    assert G._NO_OUT == {}


def test_forward_ends_scan_no_arrows(monkeypatch):
    g = LabeledGraph()
    a, b, c = g.add_node("a"), g.add_node("b"), g.add_node("c")
    g.add_arrow(a, "x", b)
    g.add_arrow(a, "", c, kind=G.TAPE)
    g.add_arrow(b, "x", c, kind=G.CONTROL)
    assert check_uni_labeled(g) == []

    def scan(*args, **kwargs):
        raise AssertionError("ends scanned the arrows or asked follow")

    monkeypatch.setattr(LabeledGraph, "out_arrows", scan)
    monkeypatch.setattr(LabeledGraph, "arrows", scan)
    assert resolve(g, parse_path("a+x+x")) == c
    monkeypatch.setattr(LabeledGraph, "follow", scan)  # ends reads the index itself
    assert g.ends(a, "+", "x") == [b]
    assert g.ends(a, "+", "") == [c]
    assert g.ends(b, "+", "x") == [c]
    assert g.ends(c, "+", "x") == []


def test_backward_ends_build_no_adjacency_list(monkeypatch):
    g = LabeledGraph()
    a, b, c = g.add_node("a"), g.add_node("b"), g.add_node("c")
    g.add_arrow(a, "x", b)
    g.add_arrow(a, "", c, kind=G.TAPE)
    g.add_arrow(b, "x", c, kind=G.CONTROL)
    g.add_arrow(b, "y", c)
    g.add_arrow(a, "y", c)

    def scan(*args, **kwargs):
        raise AssertionError("ends built an adjacency list")

    for listing in ("out_arrows", "in_arrows", "arrows", "arrows_labeled"):
        monkeypatch.setattr(LabeledGraph, listing, scan)
    assert g.ends(b, "-", "x") == [a]
    assert g.ends(c, "-", "") == [a]
    assert g.ends(c, "-", "x") == [b]
    assert g.ends(c, "-", "y") == [b, a]  # arrow id order
    assert g.ends(a, "-", "x") == []
    assert resolve(g, parse_path("c-x-x")) == a
    with pytest.raises(ValueError):
        g.ends(7, "-", "x")


paths = st.builds(
    PathFormula,
    st.sampled_from([None, "a", "b", "zz"]),
    st.lists(st.tuples(st.sampled_from("+-"), words), max_size=2).map(tuple),
)
items = st.one_of(
    st.builds(LabelsEqual, paths, paths),
    st.builds(NoArrowTo, words, paths),
    st.builds(NoArrowFrom, words, paths),
    st.builds(UniqueArrowExists, words),
    st.builds(PathPassable, paths),
    st.builds(RelabelNode, paths, paths),
    st.builds(ReassignArrow, words, paths),
    st.builds(CreateNodeWithArrowToTarget, paths),
    st.builds(CreateNodeWithArrowFromSource, paths),
    st.builds(FollowArrow, words),
    st.just(Stop()),
)


@given(graphs_with_current(), items)
@example(looped_node(), CreateNodeWithArrowToTarget(PathFormula(None)))
@settings(deadline=None)
def test_normal_violation_predicts_execution(graph_and_current, item):
    g, current = graph_and_current
    before = export(g, "json")
    predicted = normal_violation(g, item, current)
    assert export(g, "json") == before
    try:
        if isinstance(item, typing.get_args(G.Proposition)):
            eval_proposition(g, item, current)
        else:
            apply_action(g, item, current)
    except NormalConditionViolated as violation:
        assert predicted == violation.detail
        assert export(g, "json") == before  # the violation was found before any write
    else:
        assert predicted is None


@given(
    indexed_graphs(),
    st.one_of(items, st.sampled_from([None, 42, "x", parse_path("a")])),
    st.sampled_from(["node", "none", "foreign"]),
)
@example(looped_node(), ReassignArrow("y", PathFormula(None)), "node")
@settings(deadline=None)
def test_algebra_agrees_with_the_reference_dispatch(graph_and_node, item, where):
    """Each entry point gives what the type-table-and-match dispatch gave.

    Compared: the return value, or the exception's type and text, and
    the graph the call leaves behind, for every item type, for values
    that are no item, and with the current node in the graph, absent,
    or foreign to it.
    """
    g, node = graph_and_node
    current = {"node": node, "none": None, "foreign": g.node_count + 7}[where]
    for name, kernel, reference in (
        ("eval_proposition", G.eval_proposition, reference_algebra.eval_proposition),
        ("apply_action", G.apply_action, reference_algebra.apply_action),
        ("normal_violation", G.normal_violation, reference_algebra.normal_violation),
    ):
        results = []
        for call in (kernel, reference):
            graph = copy.deepcopy(g)
            try:
                value = call(graph, item, current)
            except Exception as exc:  # the type and text are what is compared
                value = (type(exc), str(exc))
            results.append((value, export(graph, "json")))
        assert results[0] == results[1], name


# The irregular tape reads a mounted program can meet, each planted at the mount.
IRREGULAR_TAPES = (
    None,
    "two tape arrows",
    "two in-arrows",
    "two out-arrows",
    "root relabelled",
    "root named twice",
)
TAPE_PATHS = [
    parse_path(text)
    for text in (
        '"tape-alphabet"+tape',
        '"tape-alphabet"+tape-""',
        '"tape-alphabet"+tape+""',
        '"tape-alphabet"+tape+""+""',
        '"tape-alphabet"+tape-""-""',
        '"tape-alphabet"+is',
        '"tape-alphabet"+is+tape',
        '"tape-alphabet"+is+is',
        '"tape-alphabet"-tape',
        "+is",
        "-is",
        "+is-is",
        '"one"-is+tape',
    )
]


@st.composite
def mounted_programs(draw):
    """A 'tape-alphabet' root with word nodes, a mounted tape, and one irregularity or none.

    The root has an 'is' arrow to each word node. The tape's cells are
    mounted after the program's own nodes, with a 'tape' arrow from the
    root to one cell. The irregularity is a second 'tape' arrow, a cell
    with two '""' in-arrows or two '""' out-arrows, or a root that
    "tape-alphabet" no longer names or names with another node; the
    relabelling is a change to the program, so it precedes settling.
    Returns the graph, a function that mounts the tape, a current own
    node, and the irregularity.
    """
    g = LabeledGraph()
    root = g.add_node("tape-alphabet")
    for word in draw(st.lists(st.sampled_from(["one", "zero", ""]), max_size=3)):
        g.add_arrow(root, "is", g.add_node(word))
    irregular = draw(st.sampled_from(IRREGULAR_TAPES))
    if irregular == "root relabelled":
        g.set_node_label(root, "point")
    elif irregular == "root named twice":
        g.add_node("tape-alphabet")
    own = g.node_count
    cells = draw(st.lists(st.sampled_from(["one", "zero", "", "tape-alphabet"]), min_size=1, max_size=4))
    head = draw(st.integers(0, len(cells) - 1))
    twice = draw(st.integers(0, len(cells) - 1))

    def mount() -> None:
        placed = add_cells(g, cells)
        g.add_arrow(root, "tape", placed[head], G.SEMANTIC)
        if irregular == "two tape arrows":
            g.add_arrow(root, "tape", placed[twice], G.SEMANTIC)
        elif irregular == "two in-arrows":
            g.add_arrow(g.add_node(""), "", placed[twice], G.TAPE)
        elif irregular == "two out-arrows":
            g.add_arrow(placed[twice], "", g.add_node(""), G.TAPE)

    return g, mount, draw(st.integers(0, own - 1)), irregular


def unsettled(item):
    """``item`` with each ``Settled`` field given back as its formula."""
    return type(item)(*(v.formula if isinstance(v, G.Settled) else v for v in item._values()))


@given(mounted_programs(), st.booleans(), st.data())
@settings(deadline=None, max_examples=300)
def test_bound_items_on_settled_paths_agree_with_the_reference_dispatch(drawn, mount_first, data):
    """The bound form of an item whose paths are settled gives what the reference gives unsettled.

    The paths are settled at the drawn current node, before or after
    the tape is mounted, and the items are evaluated or applied there.
    Some settle with one step left, which their readers take in place
    or defer to ``locate``: '+tape' or '-tape' at the root, and '+is'
    at a word node, which has none. Compared, as in the property above: the return value, or the
    exception's type and text, and the graph the call leaves behind. A
    refusal's text shows the item it was given, so the two items'
    reprs are left out of it.
    """
    g, mount, current, _ = drawn
    if mount_first:
        mount()
    settled = {path: settle(g, path, current) for path in TAPE_PATHS}
    if not mount_first:
        mount()
    paths = st.sampled_from(TAPE_PATHS).map(settled.get)
    item = data.draw(
        st.one_of(
            st.builds(LabelsEqual, paths, paths),
            st.builds(NoArrowTo, words, paths),
            st.builds(NoArrowFrom, words, paths),
            st.builds(PathPassable, paths),
            st.builds(RelabelNode, paths, paths),
            st.builds(ReassignArrow, st.sampled_from(["tape", ""]), paths),
            st.builds(CreateNodeWithArrowToTarget, paths),
            st.builds(CreateNodeWithArrowFromSource, paths),
            st.builds(FollowArrow, st.sampled_from(["is", "tape", ""])),
        )
    )
    for name in ("eval_proposition", "apply_action", "normal_violation"):
        results = []
        for module, given_item in ((G, item), (reference_algebra, unsettled(item))):
            graph = copy.deepcopy(g)
            try:
                value = getattr(module, name)(graph, given_item, current)
            except Exception as exc:  # the type and text, up to the item's repr
                value = (type(exc), str(exc).replace(repr(given_item), "<item>"))
            results.append((value, export(graph, "json")))
        assert results[0] == results[1], name


def test_each_irregular_tape_read_crashes_as_the_reference_does():
    """Each irregularity makes a settled tape read defer to ``locate``, which names the failure."""
    for irregular, detail in [
        ("two tape arrows", 'inapplicable at step 0: multiple arrows'),
        ("two in-arrows", 'inapplicable at step 2: multiple arrows'),
        ("two out-arrows", 'inapplicable at step 1: multiple arrows'),
        ("root relabelled", 'start label "tape-alphabet" names 0 nodes'),
        ("root named twice", 'start label "tape-alphabet" names 2 nodes'),
    ]:
        g = LabeledGraph()
        root = g.add_node("tape-alphabet")
        if irregular == "root relabelled":
            g.set_node_label(root, "point")
        elif irregular == "root named twice":
            g.add_node("tape-alphabet")
        cells = add_cells(g, ["one", "zero"])
        g.add_arrow(root, "tape", cells[0], G.SEMANTIC)
        if irregular == "two tape arrows":
            g.add_arrow(root, "tape", cells[1], G.SEMANTIC)
        elif irregular == "two in-arrows":
            g.add_arrow(g.add_node(""), "", cells[1], G.TAPE)
        elif irregular == "two out-arrows":
            g.add_arrow(cells[0], "", g.add_node(""), G.TAPE)
        path = parse_path('"tape-alphabet"+tape+""-""' if "in" in irregular else '"tape-alphabet"+tape+""')
        item = LabelsEqual(settle(g, path), settle(g, path))
        expected = f"path {path} is not passable: "
        expected += detail if "root" in irregular else f"formula {path} {detail}"
        with pytest.raises(NormalConditionViolated) as bound:
            eval_proposition(g, item, None)
        with pytest.raises(NormalConditionViolated) as oracle:
            reference_algebra.eval_proposition(g, unsettled(item), None)
        assert str(bound.value) == str(oracle.value) == expected, irregular


@pytest.mark.parametrize(
    "tape_arrows, expected",
    [
        (0, "inapplicable at step 0: none arrows"),
        (1, None),
        (2, "inapplicable at step 0: multiple arrows"),
    ],
    ids=["none", "one", "two"],
)
def test_a_one_step_settled_read_is_what_locate_gives(monkeypatch, tape_arrows, expected):
    """'"tape-alphabet"+tape' settles at its root with one "+" step left, read in place.

    With one 'tape' arrow the reader returns its cell and walks nothing
    through ``_walk``. With none, or two (the overflow map's case), it
    defers to ``locate``, and raises what ``locate`` raises, with the
    same text, for the settled path and for its formula.
    """
    g = LabeledGraph()
    root = g.add_node("tape-alphabet")
    formula = parse_path('"tape-alphabet"+tape')
    settled = settle(g, formula)
    assert (settled.node, settled.rest) == (root, (("+", "tape"),))
    read = G.reader(settled)
    cells = add_cells(g, ["one", "zero"])
    for cell in cells[:tape_arrows]:
        g.add_arrow(root, "tape", cell, G.SEMANTIC)
    walks = []
    walk = G._walk
    monkeypatch.setattr(G, "_walk", lambda *args: walks.append(args) or walk(*args))

    outcomes = []
    for call in (read, lambda g, current: G.locate(g, settled, current), G.reader(formula)):
        try:
            outcomes.append(call(g, None))
        except NormalConditionViolated as failure:
            outcomes.append(str(failure))
    if expected is None:
        assert outcomes == [cells[0]] * 3
        # The two ``locate`` calls walk; the reader reads the index in place.
        assert walks == [(g, root, settled.rest), (g, root, formula.steps)]
    else:
        text = f"path {formula} is not passable: formula {formula} {expected}"
        assert outcomes == [text] * 3


@pytest.mark.parametrize("cautious", [False, True])
def test_untraced_run_follows_no_arrow_through_a_list(monkeypatch, increment_text, cautious):
    """A run's path steps and follow directions read the (node, label) index.

    ``LabeledGraph.ends`` builds a list; a step never asks it for the
    arrows leaving a node. ``initialize`` ignores ``cautious``.
    """
    result = check_program(increment_text)
    state = initialize(
        result.tree,
        parse_tape("one zero one one blank"),
        "last",
        make_executable(result),
        cautious=cautious,
    )
    plus_lookups = []
    ends = LabeledGraph.ends

    def counted(self, node, sign, word):
        if sign == "+":
            plus_lookups.append((node, word))
        return ends(self, node, sign, word)

    monkeypatch.setattr(LabeledGraph, "ends", counted)
    outcome = run(state)
    monkeypatch.undo()
    assert (outcome.outcome, outcome.steps) == ("stopped", 26)
    assert plus_lookups == []


# The labels a check or a run walks backwards along, and the one kind
# each label looked up by label alone may carry.
BACKWARD_LABELS = frozenset({";", ":", "then", "}", "", "to"})
LABEL_KIND = {":": G.SYNTACTIC, "to": G.SYNTACTIC, "'": G.SYNTACTIC}
LABEL_KIND.update(dict.fromkeys(("back", "next", "yes", "no"), G.CONTROL))


def assert_labels_alone_navigate(g):
    """What lets ``follow``, ``ends``, ``chain`` and ``resolve`` ignore arrow kinds."""
    assert check_uni_labeled(g) == []
    for node in g.nodes():
        entering = [a.label for _, a in g.in_arrows(node) if a.label in BACKWARD_LABELS]
        assert len(entering) == len(set(entering)), (node, entering)
    for label, kind in LABEL_KIND.items():
        assert {a.kind for _, a in g.arrows_labeled(label)} <= {kind}, label


def test_labels_alone_navigate_checked_and_run_programs():
    """Every shipped program and 300 schema-grown ones, after the check and after a run.

    The grown programs are repaired as the fail-safety experiment repairs
    them; the runnable ones run on a tape holding the root's word, the
    stop node's and the empty word, from each cell in turn.
    """
    texts = [path.read_text() for path in sorted(PROGRAMS.glob("*.tgl"))]
    for seed in range(300):
        tree = to_canonical(
            generate_sytr(turingol_schema(), "P", random.Random(seed), node_budget=120)
        )
        repair(tree, random.Random(seed))
        texts.append(render_program(tree))
    runs = 0
    for index, text in enumerate(texts):
        result = check_program(text)
        assert_labels_alone_navigate(result.tree.graph)
        if result.runnable:
            tape = parse_tape('tape-alphabet stop ""')
            state = initialize(result.tree, tape, index % 3, make_executable(result))
            run(state, 1_000)
            assert_labels_alone_navigate(state.tree.graph)
            runs += 1
    assert runs > 150


# Bytes a checked program keeps alive per graph arrow with the arrows kept
# as columns and no in-arrow or node label index built by the check
# (CPython 3.11.7, 64-bit), on the program below: 197.5.
RETAINED_BYTES_PER_ARROW = 198


def increment_copies(increment_text: str, copies: int) -> str:
    """One alphabet line, then ``copies`` increment bodies with their own labels."""
    alphabet, body = increment_text.rstrip().rstrip(".").split("\n", 1)
    bodies = [
        re.sub(r"\b(carry|test|realign)\b", lambda m: m.group() + "x" * (i + 1), body)
        for i in range(copies)
    ]
    return alphabet + "\n" + ";\n".join(bodies) + ".\n"


def test_checked_program_memory_per_arrow(increment_text):
    """An index that grows a checked program by more than a tenth fails here."""
    text = increment_copies(increment_text, 50)
    check_program(text)  # fill every cache before measuring
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = check_program(text)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.runnable
    arrows = result.tree.graph.arrow_count
    assert arrows > 2000
    assert retained / arrows <= RETAINED_BYTES_PER_ARROW * 1.10



# -- indexes built on first read ---------------------------------------

SCHEMA_FLOW_SEEDS = sorted(
    map(int, json.loads((Path(__file__).parent / "data" / "schema_flows.json").read_text()))
)


def test_checking_builds_no_in_arrow_index():
    """No stage of a check takes a "-" step: ``programs/*.tgl``, the programs grown
    from the ``schema_flows.json`` seeds, two seed-1 corpus rounds, and a program
    whose nodes labeled 'stop' are leaves, which the stop node's check asks after."""
    schema = turingol_schema()
    texts = [path.read_text() for path in sorted(PROGRAMS.glob("*.tgl"))]
    texts += [
        render_program(to_canonical(generate_sytr(schema, "P", random.Random(seed))))
        for seed in SCHEMA_FLOW_SEEDS
    ]
    texts += corpus_texts()
    texts.append("tape-alphabet is one, stop;\nprint 'stop'.")  # two leaves labeled 'stop'
    built = [i for i, text in enumerate(texts) if check_program(text).tree.graph._in is not None]
    assert built == []


def test_a_kept_program_builds_its_in_arrow_index_once(monkeypatch, increment_text):
    """The first run's copy builds the kept program's index; the second copies it."""
    built = []
    real = LabeledGraph._ins

    def counted(self):
        if self._in is None:
            built.append(self)
        return real(self)

    monkeypatch.setattr(LabeledGraph, "_ins", counted)
    pipeline._executable.cache_clear()
    first = execute_program(increment_text, "one one", "last")
    kept = pipeline._executable(increment_text)[0].graph
    second = execute_program(increment_text, "zero one", "last")
    assert built == [kept]
    assert (first.outcome, second.outcome) == ("stopped", "stopped")
    assert second.state.tree.graph._in is not None
    pipeline._executable.cache_clear()


INDEX_WORDS = ["a", "b", "", "c"]


@st.composite
def index_scripts(draw):
    """Writes of every kind, with reads among them, as (operation, raw arguments) pairs.

    The raw ids are taken modulo the graph's size when the step runs, so
    each write lands whatever the graph holds. Reads build the first-read
    indexes, so some writes come before an index exists and some after.
    """
    raw = st.integers(0, 10**6)
    word = st.sampled_from(INDEX_WORDS)
    steps = st.one_of(
        st.tuples(st.just("extend"), st.lists(word, max_size=4),
                  st.lists(st.tuples(raw, word, raw), max_size=5), st.sampled_from(G.ARROW_KINDS)),
        st.tuples(st.just("relabel"), raw, word),
        st.tuples(st.just("move"), raw, raw),
        st.tuples(st.just("mount"), st.lists(word, min_size=1, max_size=3)),
        st.tuples(st.just("copy")),
        st.tuples(st.just("read"), st.sampled_from(["labeled", "resolve", "ends", "in"]), word, raw),
    )
    return draw(st.lists(steps, min_size=1, max_size=20))


def assert_indexes_equal_a_scan(g: LabeledGraph) -> None:
    """Every first-read index reads as a brute-force scan of the columns."""
    count = g.node_count
    own_end = min(g._own_end, count)
    for word in INDEX_WORDS:
        own = [n for n in range(own_end) if g._nodes[n] == word]
        assert g.nodes_labeled(word) == own
        try:
            reached = resolve(g, PathFormula(word))
        except StartAmbiguous as refusal:
            reached = ("StartAmbiguous", refusal.count)
        assert reached == (own[0] if len(own) == 1 else ("StartAmbiguous", len(own)))
    for node in range(count):
        entering = [i for i in range(g.arrow_count) if g._dst[i] == node]
        assert g.in_arrows(node) == [(i, g.arrow(i)) for i in entering]
        for word in INDEX_WORDS:
            assert g.ends(node, "-", word) == [g._src[i] for i in entering if g._label[i] == word]


@given(index_scripts())
@example([("read", "labeled", "a", 0), ("extend", ["a"], [], G.SYNTACTIC)])
@settings(deadline=None, max_examples=200)
def test_first_read_indexes_read_as_a_scan_of_the_columns(script):
    """``extend``, ``set_node_label``, ``set_arrow_dst``, mounts and deep copies keep
    the in-arrow index and the label index equal to a scan, built or not."""
    g = LabeledGraph()
    g.add_node("a")
    for step, *args in script:
        count = g.node_count
        if step == "extend":
            labels, arrows, kind = args
            ends = count + len(labels)
            g.extend(
                labels,
                [src % ends for src, _, _ in arrows],
                [word for _, word, _ in arrows],
                [dst % ends for _, _, dst in arrows],
                kind,
            )
        elif step == "relabel":
            g.set_node_label(args[0] % count, args[1])
        elif step == "move" and g.arrow_count:
            g.set_arrow_dst(args[0] % g.arrow_count, args[1] % count)
        elif step == "mount":
            add_cells(g, args[0])
        elif step == "copy":
            original, g = g, copy.deepcopy(g)
            assert original._in is not None  # the copy built the original's index
            assert_indexes_equal_a_scan(original)
        elif step == "read":
            read, word, node = args
            node %= count
            if read == "labeled":
                g.nodes_labeled(word)
            elif read == "resolve":
                with contextlib.suppress(StartAmbiguous):
                    resolve(g, PathFormula(word))
            elif read == "ends":
                g.ends(node, "-", word)
            else:
                g.in_arrows(node)
    assert_indexes_equal_a_scan(g)


class TestUniLabeled:
    def test_single_node(self):
        g = LabeledGraph()
        g.add_node("a")
        assert check_uni_labeled(g) == []

    def test_duplicate_labels_reported(self):
        g = LabeledGraph()
        a, b, c = g.add_node("a"), g.add_node("b"), g.add_node("c")
        first = g.add_arrow(a, ";", b)
        second = g.add_arrow(a, ";", c)
        violations = check_uni_labeled(g)
        assert len(violations) == 1
        assert violations[0].node == a
        assert violations[0].label == ";"
        assert set(violations[0].arrow_ids) == {first, second}

    @given(st.permutations(range(6)))
    @settings(deadline=None)
    def test_order_independent(self, order):
        edges = [("a", ";", "b"), ("a", ";", "c"), ("a", "x", "b"),
                 ("b", "x", "c"), ("b", "x", "a"), ("c", "", "a")]
        g = LabeledGraph()
        ids = {name: g.add_node(name) for name in "abc"}
        for index in order:
            src, label, dst = edges[index]
            g.add_arrow(ids[src], label, ids[dst])
        found = {(v.node, v.label) for v in check_uni_labeled(g)}
        assert found == {(ids["a"], ";"), (ids["b"], "x")}

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.sampled_from(["", "x", ";"]),
                st.integers(0, 3),
                st.sampled_from(G.ARROW_KINDS),
            ),
            max_size=24,
        ),
    )
    @settings(deadline=None)
    def test_matches_listing_reference(self, arrows):
        """The overflow map finds what grouping every node's listing finds, in the same order."""
        g = LabeledGraph()
        g.extend(("a", "b", "c", "d"))
        for src, label, dst, kind in arrows:
            g.add_arrow(src, label, dst, kind)
        assert check_uni_labeled(g) == uni_label_violations(g)

    def test_reads_no_listing(self, monkeypatch):
        g = LabeledGraph()
        a, b = g.add_node("a"), g.add_node("b")
        g.extend((), (a, a, b, a), ("x", "x", "y", "x"), (b, a, a, b), G.CONTROL)

        def scan(*args, **kwargs):
            raise AssertionError("check_uni_labeled built an Arrow record")

        monkeypatch.setattr(LabeledGraph, "out_arrows", scan)
        monkeypatch.setattr(LabeledGraph, "_records", scan)
        assert check_uni_labeled(g) == [G.UniLabelViolation(a, "x", (0, 1, 3))]


class TestCanonicalForm:
    def test_isomorphic_trees_match(self):
        g1 = LabeledGraph()
        r1 = g1.add_node("r")
        a1, b1 = g1.add_node("a"), g1.add_node("b")
        g1.add_arrow(r1, "x", a1)
        g1.add_arrow(r1, "y", b1)
        g2 = LabeledGraph()
        r2 = g2.add_node("r")
        b2, a2 = g2.add_node("b"), g2.add_node("a")
        g2.add_arrow(r2, "y", b2)
        g2.add_arrow(r2, "x", a2)
        assert canonical_form(g1, r1) == canonical_form(g2, r2)
        assert forms_equal(canonical_form(g1, r1), canonical_form(g2, r2))

    def test_label_difference_detected(self):
        g1 = LabeledGraph()
        r1 = g1.add_node("r")
        g1.add_arrow(r1, "x", g1.add_node("a"))
        g2 = LabeledGraph()
        r2 = g2.add_node("r")
        g2.add_arrow(r2, "x", g2.add_node("b"))
        assert canonical_form(g1, r1) != canonical_form(g2, r2)
        assert not forms_equal(canonical_form(g1, r1), canonical_form(g2, r2))

    def test_deep_forms_compare_without_recursion(self):
        """The forms of a 500-level chain, on which ``==`` exceeds CPython 3.11's recursion limit."""
        forms = []
        for last in ("end", "end", "other"):
            g = LabeledGraph()
            g.extend(["a"] * 500 + [last], list(range(500)), ["x"] * 500, list(range(1, 501)))
            forms.append(canonical_form(g, 0))
        assert forms_equal(forms[0], forms[1]) and not forms_equal(forms[0], forms[2])

    def test_non_tree_rejected(self):
        g = LabeledGraph()
        a, b = g.add_node("a"), g.add_node("b")
        g.add_arrow(a, "x", b)
        g.add_arrow(a, "y", b)
        with pytest.raises(ValueError):
            canonical_form(g, a)


class TestExport:
    def test_empty_json(self):
        g = LabeledGraph()
        assert export(g, "json") == '{"nodes": [], "arrows": []}'

    def test_stop_node_dot(self):
        g = LabeledGraph()
        g.add_node("stop")
        assert 'label="stop"' in export(g, "dot")

    def test_json_shape_and_kinds(self):
        g, root, cells = program_with_tape(["one", "zero"], 0)
        payload = json.loads(export(g, "json"))
        assert set(payload) == {"nodes", "arrows"}
        assert [n["id"] for n in payload["nodes"]] == list(range(g.node_count))
        kinds = {a["kind"] for a in payload["arrows"]}
        assert kinds == {"tape", "semantic"}
        for arrow in payload["arrows"]:
            assert set(arrow) == {"from", "label", "to", "kind"}

    def test_dot_styles_by_kind(self):
        g = LabeledGraph()
        a, b = g.add_node("a"), g.add_node("b")
        g.add_arrow(a, "x", b, kind=G.SYNTACTIC)
        g.add_arrow(a, "y", b, kind=G.CONTROL)
        g.add_arrow(a, "z", b, kind=G.SEMANTIC)
        g.add_arrow(a, "", b, kind=G.TAPE)
        dot = export(g, "dot")
        assert "style=solid" in dot
        assert "style=bold" in dot
        assert "style=dashed" in dot
        assert "style=dotted" in dot

    def test_unknown_format(self):
        g = LabeledGraph()
        with pytest.raises(ValueError):
            export(g, "xml")

    def test_deterministic(self):
        g, root, cells = program_with_tape(["one", "zero", "point"], 2)
        assert export(g, "json") == export(g, "json")
        assert export(g, "dot") == export(g, "dot")


class TestPhrases:
    def test_instruction_like_phrases(self):
        assert FollowArrow("next").phrase() == "follow the 'next' arrow"
        assert Stop().phrase() == "stop"
        prop = NoArrowTo("", parse_path('"tape-alphabet"+tape'))
        assert prop.phrase() == 'no "" arrow exists to the "tape-alphabet"+tape node'
        action = ReassignArrow("tape", parse_path('"tape-alphabet"+tape-""'))
        assert action.phrase() == "reassign the 'tape' arrow to the \"tape-alphabet\"+tape-\"\" node"


def _label_lookups(path: Path) -> list[str]:
    """Loops and comprehensions over ``out_arrows``/``in_arrows`` that test ``.label``.

    A ``for`` loop or a comprehension counts when it iterates such a
    call, or a name the module binds to one, and compares ``.label`` by
    ``==``, ``!=``, ``in`` or ``not in`` anywhere inside.
    """

    def adjacent_call(expr) -> bool:
        return (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in ("out_arrows", "in_arrows")
        )

    def adjacent(expr) -> bool:
        return adjacent_call(expr) or (isinstance(expr, ast.Name) and expr.id in bound)

    tree = ast.parse(path.read_text(), str(path))
    bound = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and adjacent_call(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    found = []
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    label_ops = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)
    for node in ast.walk(tree):
        if isinstance(node, comprehensions):
            loops = any(adjacent(gen.iter) for gen in node.generators)
        elif isinstance(node, ast.For):
            loops = adjacent(node.iter)
        else:
            continue
        label_test = any(
            isinstance(sub, ast.Compare)
            and isinstance(sub.left, ast.Attribute)
            and sub.left.attr == "label"
            and any(isinstance(op, label_ops) for op in sub.ops)
            for sub in ast.walk(node)
        )
        if loops and label_test:
            found.append(f"{path.name}:{node.lineno}")
    return found


def _hand_walks(path: Path) -> list[str]:
    """Hand-written "one arrow or refuse several" steps and chain walks.

    A step is an ``if`` whose test compares ``len(x) > 1``, where ``x``
    is an ``ends(…)`` call or a name the module binds to one, and whose
    body raises. A function holding such a step counts as a step of its
    own wherever it is called. A walk is a ``while`` or ``for`` loop that
    rebinds a name to (or appends to it) a step's result, or an element
    of one, and passes that name back into a step inside the loop.
    """
    tree = ast.parse(path.read_text(), str(path))
    steps = {"ends"}

    def is_step(expr) -> bool:
        if not isinstance(expr, ast.Call):
            return False
        func = expr.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name in steps

    def bound_to_steps() -> set:
        return {
            target.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and is_step(node.value)
            for target in node.targets
            if isinstance(target, ast.Name)
        }

    def from_step(expr, bound) -> bool:
        while isinstance(expr, ast.Subscript):
            expr = expr.value
        return is_step(expr) or (isinstance(expr, ast.Name) and expr.id in bound)

    def refusals(scope, bound) -> list:
        return [
            node
            for node in ast.walk(scope)
            if isinstance(node, ast.If)
            and any(isinstance(sub, ast.Raise) for sub in node.body)
            and any(
                isinstance(cmp, ast.Compare)
                and isinstance(cmp.left, ast.Call)
                and getattr(cmp.left.func, "id", None) == "len"
                and from_step(cmp.left.args[0], bound)
                and isinstance(cmp.ops[0], ast.Gt)
                and getattr(cmp.comparators[0], "value", None) == 1
                for cmp in ast.walk(node.test)
            )
        ]

    functions = [
        node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    steps |= {f.name for f in functions if refusals(f, bound_to_steps())}
    bound = bound_to_steps()
    found = [f"{path.name}:{node.lineno}" for node in refusals(tree, bound)]
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.While, ast.For)):
            continue
        cursors = set()
        for node in ast.walk(loop):
            if isinstance(node, ast.Assign) and from_step(node.value, bound):
                cursors |= {t.id for t in node.targets if isinstance(t, ast.Name)}
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
                and isinstance(node.func.value, ast.Name)
                and node.args
                and from_step(node.args[0], bound)
            ):
                cursors.add(node.func.value.id)
        fed_back = any(
            is_step(node)
            and node.args
            and any(
                isinstance(name, ast.Name) and name.id in cursors
                for name in ast.walk(node.args[0])
            )
            for node in ast.walk(loop)
        )
        if fed_back:
            found.append(f"{path.name}:{loop.lineno}")
    return sorted(found)


def test_no_item_states_its_conditions_beside_its_bound_form():
    """An item's bound form is the one statement of its normal-execution conditions:
    no item class, nor their base, keeps an ``operands`` method or a ``_paths`` list."""
    items = [
        value
        for value in vars(G).values()
        if isinstance(value, type) and issubclass(value, G._Item)
    ]
    assert len(items) == 13
    assert [item.__name__ for item in items if {"operands", "_paths"} & set(vars(item))] == []


def test_arrows_are_followed_by_label_only_in_the_kernel():
    root = Path(__file__).resolve().parent.parent
    modules = sorted((root / "src" / "wordtree").glob("*.py")) + sorted(
        (root / "scripts").glob("*.py")
    )
    assert len(modules) > 10
    outside = [path for path in modules if path.name != "graph.py"]
    found = [hit for path in outside for hit in _label_lookups(path)]
    assert found == [], f"use LabeledGraph.ends instead: {found}"
    walks = [hit for path in outside for hit in _hand_walks(path)]
    assert walks == [], f"use LabeledGraph.follow or LabeledGraph.chain instead: {walks}"
    columns = [
        f"{path.name}:{node.lineno}"
        for path in outside
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("_src", "_label", "_dst", "_kind")
    ]
    assert columns == [], f"use LabeledGraph.pairs_labeled or ends_of_kind instead: {columns}"
