"""Turingol text frontend: lexer, parser, canonicalizer, and renderer.

Program text is turned into a word tree in a fixed canonical encoding:

- root 'tape-alphabet' with arrows `is` (alphabet chain, linked by `,`),
  `;` (first statement), and the empty word (the final '.');
- statements chained by `;` arrows, each node labeled by a word of
  `semantics.STATEMENTS`, whose entry names the arrows its data and
  inner chain hang off; labels hang off `:` arrows, moves off
  `left`/`right` to 'one-square', and an if's data is 'the-tape-symbol'.

Quote characters from the source survive only as the `'` arrow label of
print nodes; the compared word of an 'if' sits directly after `is`.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from typing import NamedTuple, NoReturn, Optional

from .graph import BARE_WORD, SYNTACTIC, WORD, LabeledGraph, SeveralArrows, Tree, display_word

Sytr = Tree

PUNCT_CHARS = ";{}.:,'"

# Each punctuation mark, and the text ``lex`` puts in its place to split on.
_SPACED_MARKS = tuple((mark, f" {mark} ") for mark in PUNCT_CHARS)


class IllegalCharacter(Exception):
    """A source character outside the program alphabet plus whitespace."""

    def __init__(self, char: str, line: int, column: int):
        super().__init__(f"illegal character {char!r} at line {line}, column {column}")
        self.char = char
        self.line = line
        self.column = column


class ParseError(Exception):
    """Token stream does not match the grammar; carries expected/found."""

    def __init__(self, expected: str, token: Optional["Token"]):
        if token is None:
            where, found = "at end of program", "end of program"
        else:
            where = f"at line {token.line}, column {token.column}"
            found = display_word(token.text)
        super().__init__(f"expected {expected}, found {found} {where}")
        self.expected = expected
        self.token = token


class Token(NamedTuple):
    kind: str  # "word" | "punct"
    text: str
    line: int
    column: int


class Tokens(Sequence[Token]):
    """The tokens of one source text, as ``lex`` returns them.

    ``texts`` holds each token's text; the parser reads it directly.
    ``starts``, each token's offset in ``source``, is found on the
    first request, so a text that parses finds no offsets at all. Only
    whitespace lies between two tokens, so each token starts where its
    text first occurs past the end of the one before.
    Indexing and iteration build each ``Token`` on demand. Its line and
    column come from a binary search over the offsets at which lines
    start, which are found once, on the first such request.
    """

    __slots__ = ("source", "texts", "_starts", "_line_starts")

    def __init__(self, source: str, texts: list[str]):
        self.source = source
        self.texts = texts
        self._starts: Optional[list[int]] = None
        self._line_starts: Optional[list[int]] = None

    @property
    def starts(self) -> list[int]:
        if self._starts is None:
            find, at, starts = self.source.find, 0, []
            for text in self.texts:
                at = find(text, at)
                starts.append(at)
                at += len(text)
            self._starts = starts
        return self._starts

    def __len__(self) -> int:
        return len(self.texts)

    def __getitem__(self, index: int) -> Token:
        text = self.texts[index]
        line, column = self.position(self.starts[index])
        return Token("punct" if text in PUNCT_CHARS else "word", text, line, column)

    def position(self, offset: int) -> tuple[int, int]:
        """Line and column, both counted from 1, of an offset into ``source``."""
        if self._line_starts is None:
            starts = [0]
            newline = self.source.find("\n")
            while newline >= 0:
                starts.append(newline + 1)
                newline = self.source.find("\n", newline + 1)
            self._line_starts = starts
        line = bisect_right(self._line_starts, offset)
        return line, offset - self._line_starts[line - 1] + 1


def lex(text: str) -> Tokens:
    """Tokenize source text into maximal-munch words and punctuation marks.

    Two string passes find the tokens: each punctuation mark is padded
    with spaces, and the result is split on whitespace. The text is
    legal exactly when each distinct token that is no mark fully
    matches ``WORD``. Otherwise the first token that does not holds
    the first illegal character, just past the longest prefix of it
    that ``WORD`` matches, and ``Tokens.starts`` gives its offset.
    """
    padded = text
    for mark, spaced in _SPACED_MARKS:
        padded = padded.replace(mark, spaced)
    texts = padded.split()
    if all(map(WORD.fullmatch, set(texts).difference(PUNCT_CHARS))):
        return Tokens(text, texts)
    tokens = Tokens(text, texts)
    for i, token in enumerate(texts):
        if token not in PUNCT_CHARS and not WORD.fullmatch(token):
            prefix = WORD.match(token)
            offset = tokens.starts[i] + (prefix.end() if prefix else 0)
            raise IllegalCharacter(text[offset], *tokens.position(offset))


# The free slot of a statement shape, named by what a refusal expects
# there, and the test of the text that fills it.
_ID = "an identifier"
_DIR = "'left' or 'right'"
_ADMITS = {_ID: str.isalpha, _DIR: ("left", "right").__contains__}

# Each statement a keyword starts: its token texts, one of them free; its
# nodes, in order; and the words of the arrows that chain those nodes. None
# stands for the text of the free slot.
_SHAPES = {
    "go": (("go", "to", _ID), ("go", None), ("to",)),
    "print": (("print", "'", _ID, "'"), ("print", None), ("'",)),
    "move": (("move", _DIR, "one-square"), ("move", "one-square"), (None,)),
    "if": (("if", "the-tape-symbol", "is", "'", _ID, "'", "then"),
           ("if", "the-tape-symbol", None), ("", "is")),
}


def _staged(slots: tuple, nodes: tuple, words: tuple) -> tuple:
    """A shape as the parser reads it: width, free slot, texts with None in that
    slot, the test of its text, nodes, arrow words, and whether its text labels a node."""
    free = next(i for i, slot in enumerate(slots) if slot in _ADMITS)
    fixed = [None if i == free else slot for i, slot in enumerate(slots)]
    return len(slots), free, fixed, _ADMITS[slots[free]], nodes, words, None in nodes


_STAGES = {keyword: _staged(*shape) for keyword, shape in _SHAPES.items()}
# Empty texts past the end: enough that a slice of the widest shape stays full.
_PAD = [""] * max(stage[0] for stage in _STAGES.values())

# What the parser still owes a statement whose last part it is parsing:
# its labels, the 'then' arrow of an 'if', or the '}' arrow of a block.
_LABELS, _IF, _BLOCK = range(3)


class _Parser:
    """Descent over the token texts, a statement at a time, with an explicit stack.

    Punctuation marks and words are disjoint, so comparing a text with
    a mark or a keyword also tests its kind, and a word is a text that
    starts with a letter. Empty texts past the end stand for the end of
    the program: no token is empty, so they match nothing.

    A statement that a keyword starts has a shape in ``_SHAPES``. The
    parser compares the statement's slice of texts with it at once,
    then stages its nodes and arrows in a few list operations. Where
    the texts do not fit, ``refuse`` walks the shape slot by slot and
    raises the ParseError for the first slot they leave unfilled, as a
    token-by-token descent would. It is the parser's only error path.

    Nodes and arrows are staged in the order a recursive descent adds
    them: a statement's nodes when it starts, an arrow to a statement
    or a statement list once that has been parsed. What a statement
    still owes waits on the ``pending`` stack, so nesting depth costs
    heap, not stack. A node's id is its index in ``labels``, and
    ``srcs``, ``words`` and ``dsts`` are the arrow columns that
    ``LabeledGraph.extend`` takes once the program has parsed.
    """

    def __init__(self, tokens: Tokens):
        self.tokens = tokens
        self.texts = tokens.texts + _PAD
        self.labels: list[str] = []
        self.srcs: list[int] = []
        self.words: list[str] = []
        self.dsts: list[int] = []

    def refuse(self, pos: int, slots: Sequence[str]) -> NoReturn:
        """Raise the ParseError for the first of ``slots`` the texts from ``pos`` leave unfilled.

        A slot is a token text, the empty text for the end of the program, or a free slot.
        """
        for pos, slot in enumerate(slots, pos):
            text = self.texts[pos]
            admits = _ADMITS.get(slot)
            if admits(text) if admits else text == slot:
                continue
            if not admits:
                expected = display_word(slot) if slot else "end of program"
            elif slot == _ID and text[:1].isalpha():  # scanned words hold only a-z and hyphens
                expected = "an identifier without hyphens"
            else:
                expected = slot
            raise ParseError(expected, self.tokens[pos] if text else None)

    def chain(self, src: int, names: list[str], words: list[str]) -> None:
        """Stage a node per name; ``src`` enters the first, and each node enters the next."""
        node = len(self.labels)
        self.labels += names
        self.srcs += [src, *range(node, node + len(names) - 1)]
        self.words += words
        self.dsts += range(node, node + len(names))

    def program(self) -> int:
        texts, labels, srcs, words, dsts = self.texts, self.labels, self.srcs, self.words, self.dsts
        end = 2  # the last declared word
        while texts[end + 1] == ",":
            end += 2
        declared = texts[2:end + 1:2]
        head = texts[:2] == ["tape-alphabet", "is"] and texts[end + 1] == ";"
        if not head or not all(map(str.isalpha, declared)):
            self.refuse(0, ["tape-alphabet", "is"] + [_ID, ","] * (len(declared) - 1) + [_ID, ";"])
        labels.append("tape-alphabet")
        self.chain(0, declared, ["is"] + [","] * (len(declared) - 1))
        first, pos = self.statement_list(end + 2)
        if texts[pos] != "." or texts[pos + 1]:
            self.refuse(pos, (".", ""))
        srcs += (0, 0)
        words += (";", "")
        dsts += (first, len(labels))
        labels.append(".")
        return 0

    def statement_list(self, pos: int) -> tuple[int, int]:
        """Parse the statement list at ``pos``; return its first statement and its end."""
        texts, labels, srcs, words, dsts = self.texts, self.labels, self.srcs, self.words, self.dsts
        stage_of = _STAGES.get
        first = last = None  # the first and last statement so far of the innermost list
        pending: list[tuple] = []
        while True:
            if texts[pos + 1] == ":":
                start = pos
                while texts[pos + 1] == ":" and texts[pos][:1].isalpha():
                    if not texts[pos].isalpha():
                        self.refuse(pos, (_ID,))
                    pos += 2
                if pos != start:
                    pending.append((_LABELS, texts[start:pos:2]))
            keyword = texts[pos]
            stage = stage_of(keyword)
            if stage is not None:
                width, free, fixed, admits, nodes, arrow_words, into_nodes = stage
                got = texts[pos:pos + width]
                text = got[free]
                got[free] = None
                if got != fixed or not admits(text):
                    self.refuse(pos, _SHAPES[keyword][0])
                done = len(labels)
                labels += nodes
                words += arrow_words
                (labels if into_nodes else words)[-1] = text  # the free text is last in either
                srcs.append(done)
                dsts.append(done + 1)
                pos += width
                if keyword == "if":  # a second arrow, and a subordinate statement to parse
                    srcs.append(done + 1)
                    dsts.append(done + 2)
                    pending.append((_IF, done))
                    continue
            elif keyword == "{":  # the block's frame keeps the list around it
                pending.append((_BLOCK, len(labels), first, last))
                first = last = None
                labels.append("{")
                pos += 1
                continue  # parse the inner statement list
            else:
                done = len(labels)
                labels.append("")
            # Hand the parsed node to what waits for it, until a list goes on.
            while True:
                while pending and pending[-1][0] != _BLOCK:
                    kind, owed = pending.pop()
                    if kind == _IF:
                        srcs.append(owed)
                        words.append("then")
                        dsts.append(done)
                        done = owed
                    else:
                        self.chain(done, owed, [":"] * len(owed))
                if last is None:
                    first = done
                else:
                    srcs.append(last)
                    words.append(";")
                    dsts.append(done)
                last = done
                if texts[pos] == ";":
                    pos += 1
                    break  # parse the list's next statement
                if not pending:
                    return first, pos
                _, block, outer_first, outer_last = pending.pop()
                if texts[pos] != "}":
                    self.refuse(pos, ("}",))
                pos += 1
                srcs.append(block)
                words.append("}")
                dsts.append(first)
                done, first, last = block, outer_first, outer_last


def parse_program(tokens: Tokens) -> Sytr:
    """Parse the tokens ``lex`` returns into a canonical program tree."""
    parser = _Parser(tokens)
    root = parser.program()
    g = LabeledGraph()
    g.extend(parser.labels, parser.srcs, parser.words, parser.dsts)
    return Sytr(g, root)


def parse_text(text: str) -> Sytr:
    """Convenience wrapper: lex then parse."""
    return parse_program(lex(text))


def to_canonical(tree: Tree) -> Sytr:
    """Rewrite a grammar-shaped tree into the canonical program encoding.

    Trees grown directly from the schema keep printed and compared words
    wrapped in a quote node; the canonical encoding drops the wrapper.
    The result is a fresh graph, built by one ``LabeledGraph.extend``
    call; the input is not modified. Nodes are numbered before their
    children and each arrow after its child's subtree, as a recursive
    walk would add them, but from an explicit stack, so depth is not
    limited. A cycle is refused with ValueError.
    """
    source = tree.graph
    labels: list[str] = []
    srcs: list[int] = []
    words: list[str] = []
    dsts: list[int] = []

    def quote_target(node: int) -> Optional[int]:
        if source.node_label(node) != "'":
            return None
        out = source.out_arrows(node)
        if len(out) != 1 or out[0][1].label != "'":
            return None
        return out[0][1].dst

    # Each frame: the old node and its copy, the old node's arrows not yet
    # copied, and the node and label of the arrow that will enter the copy.
    labels.append(source.node_label(tree.root))
    frames = [(tree.root, 0, iter(source.out_arrows(tree.root)), None, None)]
    on_path = {tree.root}
    while frames:
        old, new, arrows, parent, label = frames[-1]
        for _, arrow in arrows:
            if arrow.kind != SYNTACTIC:
                raise ValueError("canonical form covers syntactic arrows only")
            child, child_label = arrow.dst, arrow.label
            wrapped = quote_target(child)
            if wrapped is not None:
                child, child_label = wrapped, arrow.label if arrow.label else "'"
            if child in on_path:
                raise ValueError(f"node {child} lies on a cycle; not a tree")
            on_path.add(child)
            frames.append((child, len(labels), iter(source.out_arrows(child)), new, child_label))
            labels.append(source.node_label(child))
            break
        else:
            frames.pop()
            on_path.discard(old)
            if parent is not None:
                srcs.append(parent)
                words.append(label)
                dsts.append(new)
    g = LabeledGraph()
    g.extend(labels, srcs, words, dsts)
    return Sytr(g, 0)


class _Renderer:
    def __init__(self, tree: Sytr):
        self.g = tree.graph
        self.root = tree.root
        self.reached: list[int] = []  # the end of each arrow the renderer follows
        # A tree enters each node once and its root never, so no chain
        # the renderer walks can loop.
        entered = {self.root}
        for _, arrow in self.g.arrows():
            if arrow.kind != SYNTACTIC:
                raise ValueError(
                    f"cannot render a graph with {arrow.kind} arrows as program text"
                )
            if arrow.dst in entered:
                raise self.fail(f"node {arrow.dst} is reached twice")
            entered.add(arrow.dst)

    def fail(self, message: str) -> "ValueError":
        return ValueError(f"not a canonical program tree: {message}")

    def follow(self, node: int, label: str) -> Optional[int]:
        try:
            dst = self.g.follow(node, "+", label)
        except SeveralArrows as several:
            raise self.fail(str(several)) from None
        if dst is not None:
            self.reached.append(dst)
        return dst

    def chain(self, node: int, label: str) -> list[int]:
        nodes = [node]
        step = self.follow(node, label)
        while step is not None:
            nodes.append(step)
            step = self.follow(step, label)
        return nodes

    def need(self, node: int, label: str) -> int:
        dst = self.follow(node, label)
        if dst is None:
            raise self.fail(f"node {node} lacks a {display_word(label)} arrow")
        return dst

    def plain_word(self, node: int, role: str) -> str:
        word = self.g.node_label(node)
        if not BARE_WORD.fullmatch(word):
            raise self.fail(f"{role} {display_word(word)} is not a plain identifier")
        return word

    def render(self) -> str:
        if self.g.node_label(self.root) != "tape-alphabet":
            raise self.fail("root is not labeled 'tape-alphabet'")
        self.need(self.root, "")
        declared = self.chain(self.need(self.root, "is"), ",")
        words = [self.plain_word(node, "declared word") for node in declared]
        lines = ["tape-alphabet is " + ", ".join(words) + ";"]
        statements = self.chain(self.need(self.root, ";"), ";")
        for i, node in enumerate(statements):
            mark = "." if i == len(statements) - 1 else ";"
            lines.append(self.statement(node) + mark)
        if len(self.reached) < self.g.arrow_count:  # each arrow enters a node of its own
            reached = set(self.reached)
            missed = next(arrow for _, arrow in self.g.arrows() if arrow.dst not in reached)
            raise self.fail(
                f"the {display_word(missed.label)} arrow from node {missed.src}"
                f" to node {missed.dst} is not program text"
            )
        return "\n".join(lines)

    def statement(self, node: int) -> str:
        """A statement's text, nested statements included, walked from an explicit stack.

        ``todo`` holds the text still to write, last piece first: a
        string as it stands, a node as a statement to render. Each
        statement's labels are checked before its body, and a body's
        own parts before the statements inside it, as a recursive
        walk would check them.
        """
        g = self.g
        parts: list[str] = []
        todo: list = [node]
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            first = self.follow(item, ":")
            if first is not None:
                labels = [self.plain_word(n, "statement label") for n in self.chain(first, ":")]
                parts.append(": ".join(labels) + ": ")
            label = g.node_label(item)
            if label == "go":
                target = self.plain_word(self.need(item, "to"), "goto target")
                parts.append(f"go to {target}")
            elif label == "print":
                word = self.plain_word(self.need(item, "'"), "printed word")
                parts.append(f"print '{word}'")
            elif label == "if":
                symbol = self.need(item, "")
                if g.node_label(symbol) != "the-tape-symbol":
                    raise self.fail("'if' does not point at 'the-tape-symbol'")
                word = self.plain_word(self.need(symbol, "is"), "compared word")
                todo.append(self.need(item, "then"))
                parts.append(f"if the-tape-symbol is '{word}' then ")
            elif label == "move":
                parts.append(self.move(item))
            elif label == "{":
                inner = self.chain(self.need(item, "}"), ";")
                pieces: list = [inner[0]]
                for statement in inner[1:]:
                    pieces += ["; ", statement]
                todo.append("}")
                todo.extend(reversed(pieces))
                parts.append("{")
            elif label != "":
                raise self.fail(f"unknown statement label {display_word(label)}")
        return "".join(parts)

    def move(self, node: int) -> str:
        for direction in ("left", "right"):
            square = self.follow(node, direction)
            if square is not None:
                if self.g.node_label(square) != "one-square":
                    raise self.fail("'move' does not point at 'one-square'")
                return f"move {direction} one-square"
        raise self.fail("'move' lacks a 'left' or 'right' arrow")


def render_program(tree: Sytr) -> str:
    """Inverse of parsing: canonical tree back to program text.

    The text reparses to an isomorphic tree; whitespace and statement
    layout are normalized, one top-level statement per line. A graph in
    which some node is reached twice (a loop, or a shared node) is not
    a tree, and one with an arrow the text does not show (a 'move' with
    both directions, a statement with an arrow of no statement's shape)
    would not reparse to it; these and a repeated arrow label raise ValueError.
    """
    return _Renderer(tree).render()
