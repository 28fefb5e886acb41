"""The one statement walk of ``classify`` against the stage-by-stage reference forms.

On every tree below, the walk must give the reference's classes and
points, and the back and flow arrows built from its chain table must
export as the reference builders' do: same arrows, same ids. A builder
that refuses must refuse with the same text at the same stage. A graph
that is no uni-labeled tree is refused by ``classify`` before it walks,
with the kernel's reason (``tree_defect``), where the reference refuses
it at some later stage or builds flow arrows that cycle.
"""

import copy
import json
import pathlib
import random

import pytest

import reference_semantics as reference
from conftest import corpus_texts
from wordtree.control_flow import (
    add_stop_node, build_back_arrows, build_control, check_next_acyclic,
)
from wordtree.frontend import parse_text, to_canonical
from wordtree.graph import LabeledGraph, Tree, export_json
from wordtree.schema import generate_sytr, turingol_schema
from wordtree.semantics import NEXT_CYCLE, classify

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = pathlib.Path(__file__).parent / "data"


def fixture_tree(path: pathlib.Path) -> Tree:
    """The syntactic tree a ``*.sytr.json`` fixture exports, rebuilt node by node."""
    exported = json.loads(path.read_text())
    g = LabeledGraph()
    g.extend([node["label"] for node in exported["nodes"]])
    arrows = exported["arrows"]
    g.extend((), [a["from"] for a in arrows], [a["label"] for a in arrows], [a["to"] for a in arrows])
    return Tree(g, 0)


def stages(tree: Tree, walk: bool) -> list:
    """What each stage gives on ``tree``, up to the first refusal, and the graph it leaves.

    The stages are the classes and points (0), the back arrows (1) and
    the flow arrows (2); a refusal stands at the index of its stage.
    """
    done = []
    try:
        if walk:
            points = classify(tree)
            found, statements = (dict(enumerate(points.classes)), points[:5]), points
        else:
            classes = reference.classify(tree)
            found = (classes, reference.find_points(tree, classes))
            points, statements = found[1], found[1][0]
        done.append(found)
        stop = add_stop_node(tree)
        back = build_back_arrows if walk else reference.build_back_arrows
        done.append(back(tree, stop, statements))
        control = build_control if walk else reference.build_control
        done.append(control(tree, stop, points))
    except ValueError as refusal:
        done.append(("refused", str(refusal)))
    return done + [export_json(tree.graph)]


def assert_walk_agrees(tree: Tree) -> None:
    twin = Tree(copy.deepcopy(tree.graph), tree.root)
    assert stages(tree, walk=True) == stages(twin, walk=False)


def test_walk_agrees_on_schema_grown_trees():
    schema = turingol_schema()
    for seed in range(1000):
        assert_walk_agrees(to_canonical(generate_sytr(schema, "P", random.Random(seed))))


def test_walk_agrees_on_the_corpus_programs():
    texts = corpus_texts()
    assert len(texts) == 96
    for text in texts:
        assert_walk_agrees(parse_text(text))


@pytest.mark.parametrize(
    "path",
    sorted(ROOT.glob("programs/*.tgl")) + sorted(DATA.glob("*.sytr.json")),
    ids=lambda p: p.name,
)
def test_walk_agrees_on_shipped_programs_and_fixtures(path):
    tree = fixture_tree(path) if path.suffix == ".json" else parse_text(path.read_text())
    assert_walk_agrees(tree)


def hand_built(labels: str, arrows: str) -> Tree:
    """A tree rooted at node 0, from node labels and "src label dst" arrows, ';'-separated."""
    g = LabeledGraph()
    g.extend(["" if word == "_" else word for word in labels.split()])
    for arrow in arrows.split(";"):
        src, word, dst = arrow.split()
        g.add_arrow(int(src), {"_": "", "semi": ";"}.get(word, word), int(dst))
    return Tree(g, 0)


ALPHABET = "0 is 1; 0 _ 2"  # tape-alphabet is a; ... .
PRINTS = "tape-alphabet a . print a print a"


@pytest.mark.parametrize(
    "labels, arrows, stage, refusal, kernel",
    [
        # The root has a second ';' arrow, to a node whose ';' arrow runs back to the root.
        (PRINTS + " x", ALPHABET + "; 0 semi 3; 3 ' 4; 3 semi 5; 5 ' 6; 0 semi 7; 7 semi 0",
         1, "';' arrows loop; not a program tree", 'node 0 has several ";" arrows leaving it'),
        (PRINTS, ALPHABET + "; 0 semi 3; 3 ' 4; 0 semi 5; 5 ' 6",
         2, 'node 0 has several ";" arrows leaving it', 'node 0 has several ";" arrows leaving it'),
        (PRINTS, ALPHABET + "; 0 semi 3; 3 ' 4; 3 semi 5; 3 semi 5; 5 ' 6",
         1, 'node 3 has several ";" arrows leaving it', 'node 3 has several ";" arrows leaving it'),
        ("tape-alphabet a . if the-tape-symbol a", ALPHABET + "; 0 semi 3; 3 _ 4; 4 is 5",
         2, "'if' node 3 lacks its 'then' arrow", None),
        ("tape-alphabet a . {", ALPHABET + "; 0 semi 3", 2, '"{" node 3 lacks its "}" arrow', None),
        ("tape-alphabet a . { print a print a", ALPHABET + "; 0 semi 3; 3 } 4; 4 ' 5; 3 } 6; 6 ' 7",
         2, 'node 3 has several "}" arrows leaving it', 'node 3 has several "}" arrows leaving it'),
        # A label chain that loops back to its statement rises to no statement.
        ("tape-alphabet a . go a print a a b", ALPHABET + "; 0 semi 3; 3 to 4; 3 semi 5; 5 ' 6; "
         "5 : 7; 7 : 8; 8 : 5", 2, "label node 7 does not rise to a statement; not a program tree",
         "node 5 has several syntactic arrows entering it"),
    ],
    ids=["semicolon-loop", "root-forks", "statement-forks", "if-without-then",
         "brace-without-close", "brace-forks", "label-rises-nowhere"],
)
def test_hand_built_graphs_are_refused_at_the_same_stage(labels, arrows, stage, refusal, kernel):
    """The reference runs each stage until ``stage`` refuses with ``refusal``; none loops.

    The walk refuses a tree at the same stage with the same text, and a
    graph that is no tree (``kernel``, its reason) in ``classify``.
    """
    tree = hand_built(labels, arrows)
    twin = Tree(copy.deepcopy(tree.graph), tree.root)
    ours, theirs = stages(tree, walk=True), stages(twin, walk=False)
    assert len(theirs) == stage + 2 and theirs[stage] == ("refused", refusal)
    if kernel is None:
        assert ours == theirs
    else:
        assert ours[:-1] == [("refused", kernel)]


def test_a_forward_semicolon_cycle_is_refused_by_classify():
    """A ';' cycle past the root enters a statement twice, so ``classify`` refuses it.

    The reference builds every stage of it; its flow arrows cycle, and
    C2 reports that.
    """
    tree = hand_built(PRINTS, ALPHABET + "; 0 semi 3; 3 ' 4; 3 semi 5; 5 ' 6; 5 semi 3")
    twin = Tree(copy.deepcopy(tree.graph), tree.root)
    assert stages(tree, walk=True)[:-1] == [
        ("refused", "node 3 has several syntactic arrows entering it")
    ]
    assert len(stages(twin, walk=False)) == 4  # three stages built, then the export
    assert [d.code for d in check_next_acyclic(twin)] == [NEXT_CYCLE]


@pytest.mark.parametrize("build", ["back", "control"])
def test_building_twice_is_refused_at_the_same_stage(increment_text, build):
    trees = [parse_text(increment_text) for _ in range(2)]
    for tree, walk in zip(trees, (True, False)):
        stages(tree, walk)
    refusals = []
    for tree, walk in zip(trees, (True, False)):
        points = classify(tree) if walk else reference.find_points(tree, reference.classify(tree))
        stop = tree.graph.nodes_labeled("stop")[0]
        try:
            if build == "back":
                (build_back_arrows if walk else reference.build_back_arrows)(
                    tree, stop, points if walk else points[0])
            else:
                (build_control if walk else reference.build_control)(tree, stop, points)
        except ValueError as refusal:
            refusals.append(str(refusal))
    assert len(refusals) == 2 and refusals[0] == refusals[1] and "already built" in refusals[0]
