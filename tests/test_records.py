"""The value semantics of the library's record classes.

Immutable records are ``NamedTuple``s, or slotted classes on
``graph._Record``: the items of the path-formula algebra (``graph._Item``)
and the schema's patterns, nodes, arrows, conflicts and reports.
``ExecState`` and ``CheckResult`` are the two records a check or a run
updates in place. Each is built by keyword and by position, read,
compared, hashed, printed and matched here, each immutable one refuses
assignment, and the schema records take their defaults as before.
"""

from __future__ import annotations

import copy

import pytest

from wordtree.executor import (
    Act,
    CrashReport,
    ExecState,
    Guarded,
    Instruction,
    RunResult,
    TraceEntry,
)
from wordtree.frontend import Token
from wordtree.graph import (
    CreateNodeWithArrowFromSource,
    CreateNodeWithArrowToTarget,
    FollowArrow,
    FollowArrowTo,
    LabeledGraph,
    LabelsEqual,
    NoArrowFrom,
    NoArrowTo,
    PathFormula,
    PathPassable,
    ReassignArrow,
    RelabelNode,
    Settled,
    Stop,
    Tree,
    UniLabelViolation,
    UniqueArrowExists,
    _Item,
    parse_path,
)
from wordtree.pipeline import CheckResult
from wordtree.schema import (
    Alternation,
    AndArrow,
    AndConflict,
    Literal,
    LowerWord,
    OrArrow,
    PairConflict,
    PairReport,
    SchemaNode,
    ValidationReport,
)
from wordtree.semantics import Chains, Points, Statement

P = parse_path('"tape-alphabet"+tape')
Q = parse_path('+""+is')
TREE = Tree(LabeledGraph(), 0)
STATE = ExecState(TREE, {}, 0)
WORD = Literal("is")
ONE_OF = Alternation(frozenset({"left", "right"}))
ARROW = AndArrow("P", "DL", WORD, False, 2, False)
TWIN = AndArrow("P", "L", LowerWord(), True, None, True)

# Each class with the fields of one record, in declaration order.
RECORDS = [
    (Tree, {"graph": TREE.graph, "root": 0}),
    (Token, {"kind": "word", "text": "go", "line": 1, "column": 2}),
    (PathFormula, {"start": "tape-alphabet", "steps": (("+", "tape"),)}),
    (Settled, {"formula": P, "node": 0, "taken": 0, "rest": P.steps}),
    (
        Points,
        {
            "statements": (1, 4),
            "declarations": (2,),
            "usages": (3,),
            "targets": (),
            "gotos": (),
            "classes": None,
            "chains": None,
        },
    ),
    (
        Chains,
        {"successors": {1: 4}, "ends": {4: None}, "continuations": {4: None}, "defect": None},
    ),
    (
        Statement,
        {"data": "", "usage": Q, "inner": "then", "branch": "yes", "onward": "no", "shape": "compare"},
    ),
    (UniLabelViolation, {"node": 0, "label": "x", "arrow_ids": (0, 1)}),
    (CrashReport, {"situation": "NoInstruction", "node": 3, "detail": "none"}),
    (TraceEntry, {"step": 1, "node": 2, "label": "if", "direction": "stop"}),
    (RunResult, {"outcome": "stopped", "steps": 3, "trace": [], "state": STATE}),
    (Act, {"action": Stop()}),
    (Guarded, {"condition": PathPassable(P), "action": FollowArrow("next")}),
    (Instruction, {"directions": (Act(Stop()),)}),
    (LabelsEqual, {"p1": P, "p2": Q}),
    (NoArrowTo, {"word": "", "path": P}),
    (NoArrowFrom, {"word": "", "path": P}),
    (UniqueArrowExists, {"word": "tape"}),
    (PathPassable, {"path": P}),
    (RelabelNode, {"target": P, "source": Q}),
    (ReassignArrow, {"word": "tape", "target": P}),
    (CreateNodeWithArrowToTarget, {"target": P}),
    (CreateNodeWithArrowFromSource, {"source": P}),
    (FollowArrow, {"word": "next"}),
    (FollowArrowTo, {"word": "next", "target": 3}),
    (Stop, {}),
    (Literal, {"word": "go"}),
    (Alternation, {"words": ONE_OF.words}),
    (LowerWord, {}),
    (SchemaNode, {"name": "S", "label": ONE_OF, "number": 2}),
    (AndArrow, {"src": "P", "dst": "DL", "label": WORD, "optional": True, "order": 2, "suffix": True}),
    (OrArrow, {"src": "S", "dst": "SG"}),
    (AndConflict, {"node": "P", "first": ARROW, "second": TWIN}),
    (PairConflict, {"node": "S", "first": ("P", WORD), "second": ("L", ONE_OF)}),
    (ValidationReport, {"errors": [], "classes": {"P": "and"}, "sizes": {"P": 5}}),
    (PairReport, {"pairs": {"P": {("P", WORD)}}, "conflicts": []}),
]
# Each schema record class with the fields a call may leave out, and their values.
DEFAULTS = [
    (Literal, (), {"word": ""}),
    (SchemaNode, ("S",), {"label": Literal(""), "number": None}),
    (AndArrow, ("P", "DL"), {"label": Literal(""), "optional": False, "order": None, "suffix": False}),
]
# A changed field value for a record that normalises its fields, where ``object()`` will not do.
OTHER = {Alternation: frozenset({"up"})}
MUTABLE = [
    (
        ExecState,
        {
            "tree": TREE,
            "instructions": {},
            "current": 0,
            "steps": 0,
            "status": "running",
            "situation": None,
        },
    ),
    (
        CheckResult,
        {
            "tree": TREE,
            "points": Points((), (), (), (), ()),
            "diagnostics": [],
            "stop": None,
            "linked": 0,
            "flow_counts": {},
        },
    ),
]


def names(table):
    return [cls.__name__ for cls, _ in table]


def shown_value(value) -> str:
    """A field's repr in a record's repr: a word set prints sorted, whatever the hash order."""
    if isinstance(value, frozenset):
        return "frozenset({" + ", ".join(map(repr, sorted(value))) + "})"
    return repr(value)


@pytest.mark.parametrize("cls, fields", RECORDS + MUTABLE, ids=names(RECORDS + MUTABLE))
def test_record_semantics(cls, fields):
    record = cls(**fields)
    assert record == record
    for name, value in fields.items():
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.not_a_field = 1  # no record grows attributes

    if cls in (ExecState, CheckResult):
        assert record != cls(**fields)  # identity, as for any mutable object
        first = next(iter(fields))
        setattr(record, first, fields[first])
        return

    assert record == cls(*fields.values())
    twin = copy.copy(record)
    assert twin == record and twin is not record
    if cls not in (RunResult, Chains, ValidationReport, PairReport):  # these hold lists or dicts
        assert hash(twin) == hash(record)
    for name in fields:
        assert cls(**{**fields, name: OTHER.get(cls, object())}) != record
        with pytest.raises(AttributeError):
            setattr(record, name, fields[name])
    shown = ", ".join(f"{name}={shown_value(value)}" for name, value in fields.items())
    assert repr(record) == f"{cls.__name__}({shown})"
    assert cls.__match_args__ == tuple(fields)


def test_items_of_different_classes_are_never_equal():
    items = [cls(**fields) for cls, fields in RECORDS if issubclass(cls, _Item)]
    assert len(items) == 12
    for i, one in enumerate(items):
        for other in items[i + 1:]:
            assert one != other
    assert NoArrowTo("", P) != NoArrowFrom("", P)
    assert hash(NoArrowTo("", P)) != hash(NoArrowFrom("", P))
    assert Act(Stop()) != Act(FollowArrow("next"))
    assert FollowArrowTo("next", 3) != FollowArrow("next")
    assert Stop() == Stop() and hash(Stop()) == hash(Stop())
    assert repr(Stop()) == "Stop()"


@pytest.mark.parametrize("cls, given, defaults", DEFAULTS, ids=[cls.__name__ for cls, *_ in DEFAULTS])
def test_schema_records_take_their_defaults(cls, given, defaults):
    record = cls(*given)
    assert record == cls(*given, *defaults.values())
    assert [getattr(record, name) for name in defaults] == list(defaults.values())
    for name, value in defaults.items():
        assert cls(*given, **{name: value}) == record


def test_schema_records_of_different_classes_are_never_equal():
    assert AndConflict("P", ARROW, TWIN) != PairConflict("P", ARROW, TWIN)
    assert Literal("left") != Alternation({"left"}) and LowerWord() != Literal("")
    assert OrArrow("S", "SG") != AndArrow("S", "SG")


def test_alternation_normalises_its_words():
    """A set of words becomes a frozenset; an empty one is refused; the sorted
    words the pattern samples from are no field."""
    pattern = Alternation(["right", "left", "right"])
    assert pattern.words == frozenset({"left", "right"}) and type(pattern.words) is frozenset
    assert pattern == ONE_OF and hash(pattern) == hash(ONE_OF)
    assert pattern._sorted == ("left", "right")
    with pytest.raises(ValueError, match="alternation needs at least one word"):
        Alternation(set())
    with pytest.raises(AttributeError):
        pattern._sorted = ()


def test_items_refuse_wrong_fields():
    with pytest.raises(TypeError, match=r"NoArrowTo takes the fields \(word, path\)"):
        NoArrowTo("")
    with pytest.raises(TypeError):
        NoArrowTo("", P, "extra")
    with pytest.raises(TypeError):
        NoArrowTo("", word="", path=P)  # word given twice
    with pytest.raises(TypeError):
        FollowArrow(label="next")
    with pytest.raises(AttributeError):
        del FollowArrow("next").word
    assert NoArrowTo("", path=P) == NoArrowTo(word="", path=P)


def match_word_or_path(item):
    """The positional class patterns the reference dispatch matches items with."""
    match item:
        case NoArrowTo(word, path):
            return "to", word, path
        case NoArrowFrom(word):
            return "from", word
        case UniqueArrowExists(word):
            return "unique", word
        case PathPassable(path):
            return "passable", path
        case RelabelNode(target, source):
            return "relabel", target, source
        case Stop():
            return "stop"
    return None


def test_class_patterns_bind_fields_in_order():
    assert match_word_or_path(NoArrowTo("", P)) == ("to", "", P)
    assert match_word_or_path(NoArrowFrom("x", P)) == ("from", "x")
    assert match_word_or_path(UniqueArrowExists("tape")) == ("unique", "tape")
    assert match_word_or_path(PathPassable(Q)) == ("passable", Q)
    assert match_word_or_path(RelabelNode(P, Q)) == ("relabel", P, Q)
    assert match_word_or_path(Stop()) == "stop"
    assert match_word_or_path(FollowArrow("next")) is None
