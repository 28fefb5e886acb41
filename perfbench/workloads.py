"""Seeded inputs, operations and independent references for each workload.

Every workload yields its inputs in *rounds*. A round is a small batch
whose sizes are stratified over the workload's size range, and the
offsets inside the strata step evenly from round to round, so any run
of a few rounds sees nearly the same mix of sizes whatever the seed.
Inputs are plain strings and numbers; the library receives only these.

Each operation returns an ``Outcome`` whose ``failure`` is the class it
ended in, or ``None`` when its output matched the reference:

- ``exception``: a library call raised (``RecursionError`` included);
- ``wrong_output``: a call returned, but its result disagrees with the
  reference;
- ``crashed``: the executor ended a run in the crashed state.

The references do not reuse the code under test: the expected
diagnostics come from the generator that injected the defect, the
expected tape from Python integer arithmetic, and uni-labeledness from
direct inspection of the grown tree's arrows. The schema round trip,
``render_program(parse_text(text)) == text``, is itself the property
checked, so it calls the library, outside the timed interval.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

EXCEPTION = "exception"
WRONG_OUTPUT = "wrong_output"
CRASHED = "crashed"
FAILURE_CLASSES = (EXCEPTION, WRONG_OUTPUT, CRASHED)

DEFECT_CODES = ("L1", "L2", "AW2", "C2")


@dataclass(frozen=True)
class Outcome:
    failure: Optional[str] = None  # one of FAILURE_CLASSES, or None when correct
    steps: int = 0  # executor steps taken
    runnable: bool = False  # schema-grow: the program was clean enough to run


GOLDEN = (math.sqrt(5) - 1) / 2


class Strata:
    """Draws of ``count`` points in [0, 1), one inside each of ``count`` equal strata.

    All points of a draw sit at the same offset inside their strata. The
    offset starts at a seeded value and steps by the golden ratio from
    one draw to the next, so successive draws fill every stratum evenly
    and runs with different seeds see nearly the same values.
    """

    def __init__(self, rng: random.Random, count: int):
        self.count = count
        self.offset = rng.random()

    def draw(self) -> list[float]:
        self.offset = (self.offset + GOLDEN) % 1.0
        return [(i + self.offset) / self.count for i in range(self.count)]


def log_uniform(u: float, low: float, high: float) -> float:
    return low * math.exp(u * math.log(high / low))


def _name(prefix: str, index: int) -> str:
    """``prefix`` followed by ``index`` in letters: a plain Turingol identifier."""
    letters = ""
    while True:
        index, digit = divmod(index, 26)
        letters = chr(ord("a") + digit) + letters
        if index == 0:
            return prefix + letters


# -- check-corpus: synthetic Turingol programs with injected defects -----


@dataclass
class _Stmt:
    kind: str  # print, move, go, if, block, empty, or raw (pre-rendered text)
    arg: str = ""  # printed or compared word, move direction, go target, raw text
    body: list["_Stmt"] = field(default_factory=list)  # if: [subordinate]; block: inner list
    labels: list[str] = field(default_factory=list)
    guarded: bool = False  # inside the subordinate of some if


_MAX_DEPTH = 6


class _ProgramGrower:
    """Grows one program; labels sit only on statements outside every if.

    With labels outside ifs and unconditional go-tos jumping forward
    only, every control path back to an earlier statement passes a
    'yes' arrow, so a clean program has no cycle of 'next' arrows.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.words = [_name("w", i) for i in range(rng.randint(2, 8))]
        self.label_count = 0

    def fresh_label(self) -> str:
        self.label_count += 1
        return _name("lb", self.label_count)

    def statements(self, budget: int, guarded: bool, depth: int) -> list[_Stmt]:
        out = []
        while budget > 0:
            stmt, used = self.statement(budget, guarded, depth)
            out.append(stmt)
            budget -= used
        return out

    def statement(self, budget: int, guarded: bool, depth: int) -> tuple[_Stmt, int]:
        rng = self.rng
        r = rng.random()
        if depth < _MAX_DEPTH and budget >= 3 and r < 0.10:
            inner = rng.randint(2, min(budget - 1, 12))
            body = self.statements(inner, guarded, depth + 1)
            return _Stmt("block", body=body, guarded=guarded), inner + 1
        if depth < _MAX_DEPTH and budget >= 2 and r < 0.30:
            if rng.random() < 0.5:
                sub, used = _Stmt("go", guarded=True), 1
            else:
                sub, used = self.statement(budget - 1, True, depth + 1)
            return _Stmt("if", rng.choice(self.words), [sub], guarded=guarded), used + 1
        if r < 0.55:
            return _Stmt("print", rng.choice(self.words), guarded=guarded), 1
        if r < 0.75:
            return _Stmt("move", rng.choice(("left", "right")), guarded=guarded), 1
        if r < 0.93:
            return _Stmt("go", guarded=guarded), 1
        return _Stmt("empty", guarded=guarded), 1

    def every_kind(self) -> list[_Stmt]:
        """Seven top-level statements, ten in all, covering every kind and both kinds of go to."""
        word = self.rng.choice
        return [
            _Stmt("print", word(self.words)),
            _Stmt("move", "left"),
            _Stmt("move", "right"),
            _Stmt("block", body=[_Stmt("print", word(self.words)), _Stmt("empty")]),
            _Stmt("if", word(self.words), [_Stmt("go", guarded=True)]),
            _Stmt("go"),
            _Stmt("empty"),
        ]


def _preorder(stmts: list[_Stmt]) -> list[_Stmt]:
    out = []
    work = list(reversed(stmts))
    while work:
        stmt = work.pop()
        out.append(stmt)
        work.extend(reversed(stmt.body))
    return out


def _render(stmt: _Stmt) -> str:
    head = "".join(f"{label}: " for label in stmt.labels)
    if stmt.kind == "print":
        return f"{head}print '{stmt.arg}'"
    if stmt.kind == "move":
        return f"{head}move {stmt.arg} one-square"
    if stmt.kind == "go":
        return f"{head}go to {stmt.arg}"
    if stmt.kind == "if":
        return f"{head}if the-tape-symbol is '{stmt.arg}' then {_render(stmt.body[0])}"
    if stmt.kind == "block":
        return head + "{" + "; ".join(_render(s) for s in stmt.body) + "}"
    if stmt.kind == "raw":
        return head + stmt.arg
    return head.rstrip()


@dataclass(frozen=True)
class Program:
    text: str
    statements: int
    defect: Optional[str]  # the injected code, or None
    nest_depth: int  # depth of the one deeply nested statement, 0 if none

    @property
    def expected_codes(self) -> frozenset:
        return frozenset([self.defect]) if self.defect else frozenset()


def make_program(
    rng: random.Random, statements: int, defect: Optional[str] = None, nest_depth: int = 0
) -> Program:
    """A Turingol program of about ``statements`` statements.

    ``defect`` injects exactly one finding: ``L1`` a second statement
    carrying an existing label, ``L2`` a go to naming no label, ``AW2``
    a print or if using an undeclared word, ``C2`` a labeled statement
    followed by an unconditional go to back to it. ``nest_depth`` adds
    one statement nesting that many blocks or ifs.
    """
    b = _ProgramGrower(rng)
    top = b.statements(max(statements - 10, 1), False, 0)
    for stmt in b.every_kind():
        top.insert(rng.randint(0, len(top)), stmt)
    if nest_depth:
        word = f"'{rng.choice(b.words)}'"
        if rng.random() < 0.5:
            raw = "{" * nest_depth + f"print {word}" + "}" * nest_depth
        else:
            raw = f"if the-tape-symbol is {word} then " * nest_depth + f"print {word}"
        top.insert(rng.randint(0, len(top)), _Stmt("raw", raw))
    top.append(_Stmt("empty"))

    order = _preorder(top)
    for stmt in order:  # parents come before their children
        if stmt.guarded or stmt.kind == "if":
            for inner in stmt.body:
                inner.guarded = True
    unguarded = [i for i, s in enumerate(order) if not s.guarded]
    label_at = []  # (position, label) in pre-order
    for i in unguarded:
        if rng.random() < 0.12 or i == len(order) - 1:
            order[i].labels.append(b.fresh_label())
            if rng.random() < 0.2:
                order[i].labels.append(b.fresh_label())
            label_at.extend((i, label) for label in order[i].labels)
    for i, stmt in enumerate(order):
        if stmt.kind != "go":
            continue
        if stmt.guarded:
            stmt.arg = rng.choice(label_at)[1]
        else:
            first_later = next(k for k, (pos, _) in enumerate(label_at) if pos > i)
            stmt.arg = label_at[rng.randrange(first_later, len(label_at))][1]

    if defect == "L1":
        _, word = rng.choice(label_at)
        rng.choice([order[i] for i in unguarded]).labels.append(word)
    elif defect == "L2":
        rng.choice([s for s in order if s.kind == "go"]).arg = _name("z", rng.randrange(1000))
    elif defect == "AW2":
        rng.choice([s for s in order if s.kind in ("print", "if")]).arg = _name("x", rng.randrange(1000))
    elif defect == "C2":
        label = b.fresh_label()
        kind = rng.choice(("print", "move", "empty"))
        arg = rng.choice(b.words) if kind == "print" else rng.choice(("left", "right"))
        at = rng.randint(0, len(top) - 1)
        top[at:at] = [_Stmt(kind, "" if kind == "empty" else arg, labels=[label]), _Stmt("go", label)]
    elif defect is not None:
        raise ValueError(f"unknown defect {defect!r}")

    body = ";\n".join(_render(s) for s in top)
    text = f"tape-alphabet is {', '.join(b.words)};\n{body}.\n"
    return Program(text, len(order), defect, nest_depth)


CHECK_ROUND = 48  # programs per round: 1 deeply nested, 4 per defect code, 31 clean


def check_corpus_rounds(seed: int):
    """Endless rounds of programs; 10 to 2 000 statements, log-uniform."""
    rng = random.Random(seed)
    size_strata, depth_strata = Strata(rng, CHECK_ROUND), Strata(rng, 1)
    while True:
        kinds = ["deep"] + [c for c in DEFECT_CODES for _ in range(4)]
        kinds += ["clean"] * (CHECK_ROUND - len(kinds))
        rng.shuffle(kinds)
        sizes = [round(log_uniform(u, 10, 2000)) for u in size_strata.draw()]
        batch = []
        for kind, size in zip(kinds, sizes):
            if kind == "deep":
                depth = 400 + int(depth_strata.draw()[0] * 1101)
                batch.append(make_program(rng, size, nest_depth=depth))
            else:
                batch.append(make_program(rng, size, None if kind == "clean" else kind))
        yield batch


def diagnostic_codes(diagnostics) -> frozenset:
    """The findings a check must report exactly: errors plus the defect codes."""
    return frozenset(
        d.code for d in diagnostics if d.severity == "error" or d.code in DEFECT_CODES
    )


def check_corpus_op(wordtree, program: Program, timed) -> Outcome:
    """Check one program; its diagnostics must name exactly the injected defect."""
    try:
        with timed:
            result = wordtree.check_program(program.text)
    except Exception:  # RecursionError from deep nesting included
        return Outcome(EXCEPTION)
    if diagnostic_codes(result.diagnostics) != program.expected_codes:
        return Outcome(WRONG_OUTPUT)
    return Outcome()


# -- increment-run: binary increment on a word tape -----------------------

INCREMENT_ROUND = 128  # tapes per round


@dataclass(frozen=True)
class IncrementCase:
    tape: str
    expected_tape: str
    expected_steps: int

    @property
    def length(self) -> int:
        return self.tape.count(" ") + 1


def increment_reference(cells: list[str], start: int) -> tuple[list[str], int]:
    """Final cells and step count of ``increment.tgl`` started at ``start``.

    The cells left of the start read as a binary number, 'one' a 1 and
    every other word a 0. The start cell becomes 'point'; the number
    gains 1, computed with Python integers. Cells whose bit changed take
    the new bit's word, a carry out of the leftmost cell adds a 'one'
    cell, and all other cells keep their words. The program takes ten
    steps plus eight for every 'one' the carry clears.
    """
    digits = cells[:start]
    value = sum(1 << i for i, word in enumerate(reversed(digits)) if word == "one")
    width = len(digits)
    bits = format(value + 1, "b").zfill(width)
    grown = len(bits) - width
    out = ["one"] * grown
    for word, bit in zip(digits, bits[grown:]):
        old = "1" if word == "one" else "0"
        out.append(word if bit == old else ("one" if bit == "1" else "zero"))
    cleared = (value ^ (value + 1)).bit_length() - 1
    return out + ["point"] + cells[start + 1 :], 10 + 8 * cleared


def increment_rounds(seed: int):
    """Endless rounds of tapes: n digits, k trailing ones, one terminator cell.

    n is log-uniform in 8..256 and k uniform in 0..n. The (n, k/n)
    pairs of a round form a shifted lattice: the i-th tape's n lies in
    the i-th of 128 strata and its k/n at i times the golden ratio, plus
    a shift. The pairs cover the plane evenly, so the heavy cases (long
    tape and long carry) appear at the same rate in every round.
    """
    rng = random.Random(seed)
    n_strata, k_shift = Strata(rng, INCREMENT_ROUND), Strata(rng, 1)
    while True:
        batch = []
        shift = k_shift.draw()[0]
        for i, u in enumerate(n_strata.draw()):
            n = round(log_uniform(u, 8, 256))
            k = min(int((shift + i * GOLDEN) % 1.0 * (n + 1)), n)
            head = [rng.choice(("one", "zero")) for _ in range(n - k - 1)]
            cells = head + (["zero"] if k < n else []) + ["one"] * k + ["blank"]
            final, steps = increment_reference(cells, len(cells) - 1)
            batch.append(IncrementCase(" ".join(cells), " ".join(final), steps))
        rng.shuffle(batch)
        yield batch


def increment_op(wordtree, program: str, case: IncrementCase, timed) -> Outcome:
    """Run the increment program; the final tape must read value+1 then 'point'."""
    try:
        with timed:
            result = wordtree.execute_program(program, case.tape, start="last")
        tape = wordtree.executor.final_tape(result.state)
    except Exception:
        return Outcome(EXCEPTION)
    if result.outcome == "crashed":
        return Outcome(CRASHED, result.steps)
    if (result.outcome, tape, result.steps) != ("stopped", case.expected_tape, case.expected_steps):
        return Outcome(WRONG_OUTPUT, result.steps)
    return Outcome(None, result.steps)


# -- schema-grow: schema-generated programs, checked and run cautiously ---

SCHEMA_ROUND = 64
SCHEMA_MAX_STEPS = 500
_EXTRA_TAPE_WORDS = ("tape-alphabet", "stop", "a", '""')


@dataclass(frozen=True)
class SchemaCase:
    seed: int
    tape_choices: tuple[float, ...]  # cell picks in [0, 1), one per cell
    start: float  # start cell pick in [0, 1)


def schema_rounds(seed: int):
    rng = random.Random(seed)
    while True:
        yield [
            SchemaCase(
                rng.getrandbits(32),
                tuple(rng.random() for _ in range(rng.randint(1, 8))),
                rng.random(),
            )
            for _ in range(SCHEMA_ROUND)
        ]


def declared_words(text: str) -> list[str]:
    """The tape words a program text declares, read from its first line."""
    header = text.split(";", 1)[0]
    return [w.strip() for w in header.split(" is ", 1)[1].split(",")]


def uni_labeled(graph) -> bool:
    """True when no node has two outgoing arrows with the same label."""
    for node in graph.nodes():
        labels = [arrow.label for _, arrow in graph.out_arrows(node)]
        if len(labels) != len(set(labels)):
            return False
    return True


def schema_tape(case: SchemaCase, text: str) -> tuple[str, int]:
    vocabulary = declared_words(text) + list(_EXTRA_TAPE_WORDS)
    cells = [vocabulary[int(u * len(vocabulary))] for u in case.tape_choices]
    return " ".join(cells), int(case.start * len(cells))


def schema_op(wordtree, schema, case: SchemaCase, timed) -> Outcome:
    """Grow, canonicalize, render and check one program; run it cautiously when clean.

    The grown tree must be uni-labeled, the text must survive a parse
    and render round trip, and a run must stop or exhaust its budget.
    """
    executor, pipeline, tape = wordtree.executor, wordtree.pipeline, wordtree.tape
    try:
        with timed:
            grown = wordtree.generate_sytr(schema, "P", random.Random(case.seed))
            text = wordtree.render_program(wordtree.frontend.to_canonical(grown))
            result = wordtree.check_program(text)
            runnable = result.ok and not any(d.code == "AW2" for d in result.diagnostics)
            outcome = None
            if runnable:
                cells, start = schema_tape(case, text)
                instructions = pipeline.make_executable(result)
                state = executor.initialize(
                    result.tree, tape.parse_tape(cells), start, instructions, cautious=True
                )
                outcome = executor.run(state, SCHEMA_MAX_STEPS)
        reparsed = wordtree.render_program(wordtree.parse_text(text))
    except Exception:
        return Outcome(EXCEPTION)
    steps = outcome.steps if outcome else 0
    if not uni_labeled(grown.graph) or reparsed != text:
        return Outcome(WRONG_OUTPUT, steps, runnable)
    if outcome is not None and outcome.outcome == "crashed":
        return Outcome(CRASHED, steps, runnable)
    if outcome is not None and outcome.outcome not in ("stopped", "budget_exhausted"):
        return Outcome(WRONG_OUTPUT, steps, runnable)
    return Outcome(None, steps, runnable)
