"""Turingol text frontend: lexer, parser, canonicalizer, and renderer.

Program text is turned into a word tree in a fixed canonical encoding:

- root 'tape-alphabet' with arrows `is` (alphabet chain, linked by `,`),
  `;` (first statement), and the empty word (the final '.');
- statements chained by `;` arrows, each node labeled by its keyword
  ('go', 'if', 'print', 'move', '{') or by the empty word;
- statement labels hang off `:` arrows, goto targets off `to`, printed
  words off `'`, moves off `left`/`right` to a 'one-square' node;
- 'if' points through the empty arrow to 'the-tape-symbol', whose `is`
  arrow carries the compared word; `then` points to the subordinate
  statement; '{' points through `}` to its inner chain.

Quote characters from the source survive only as the `'` arrow label of
print nodes; the compared word of an 'if' sits directly after `is`.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Sequence
from typing import NamedTuple, Optional

from .graph import BARE_WORD, SYNTACTIC, WORD, LabeledGraph, Tree, display_word

Sytr = Tree

PUNCT_CHARS = ";{}.:,'"

# One token: a punctuation mark or a maximal word.
_TOKEN = re.compile(r"[;{}.:,']|" + WORD.pattern)
# Whitespace, then one token, whose offset is the group's start.
_SCAN = re.compile(r"\s*(" + _TOKEN.pattern + ")")


def _scan(text: str) -> tuple[list[int], int]:
    """The offsets of the tokens that follow each other from the start of ``text``.

    Each match must start where the previous one ended, so the scan
    stops at the first character that is neither whitespace nor part of
    a token. Returns the offsets and the end of the last match.
    """
    starts: list[int] = []
    end = 0
    for match in _SCAN.finditer(text):
        if match.start() != end:
            break
        starts.append(match.start(1))
        end = match.end()
    return starts, end


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
    ``starts``, each token's offset in ``source``, is scanned on the
    first request, so a text that parses finds no offsets at all.
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
            self._starts = _scan(self.source)[0]
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

    One ``findall`` of one pattern finds the tokens. It skips what no
    token covers, so the text is legal exactly when the tokens' lengths
    add up to the number of its characters other than whitespace
    (tokens hold none, and ``str.split`` and the scan's ``\\s`` agree on
    what whitespace is). Otherwise the offset scan behind
    ``Tokens.starts`` finds the first character that is neither
    whitespace nor part of a token, which is illegal.
    """
    texts = _TOKEN.findall(text)
    if sum(map(len, texts)) != sum(map(len, text.split())):
        end = _scan(text)[1]
        offset = len(text) - len(text[end:].lstrip())
        raise IllegalCharacter(text[offset], *Tokens(text, texts).position(offset))
    return Tokens(text, texts)


# What the parser still owes a construct whose last statement or list it
# is parsing: its labels, the 'then' arrow of an 'if', the '}' arrow of
# a block, or the ';' arrows of a statement list.
_LABELS, _IF, _BLOCK, _LIST = range(4)


class _Parser:
    """Descent over the token texts, with an explicit stack instead of recursion.

    Punctuation marks and words are disjoint, so comparing a text with
    a mark or a keyword also tests its kind, and a word is a text that
    starts with a letter. Two empty texts past the end stand for the end
    of the program: no token is empty, so they match nothing, and the
    one-token lookahead for a statement label stays in range.

    Nodes and arrows are staged in the order a recursive descent adds
    them: a node when its construct starts, an arrow to a statement or
    a statement list once that has been parsed. So nesting depth costs
    heap, not stack. A node's id is its index in ``labels``, and
    ``srcs``, ``words`` and ``dsts`` are the arrow columns that
    ``LabeledGraph.extend`` takes once the program has parsed.
    """

    def __init__(self, tokens: Tokens):
        self.tokens = tokens
        self.texts = tokens.texts + ["", ""]
        self.pos = 0
        self.labels: list[str] = []
        self.srcs: list[int] = []
        self.words: list[str] = []
        self.dsts: list[int] = []

    def node(self, label: str) -> int:
        self.labels.append(label)
        return len(self.labels) - 1

    def arrow(self, src: int, word: str, dst: int) -> None:
        self.srcs.append(src)
        self.words.append(word)
        self.dsts.append(dst)

    def found(self) -> Optional[Token]:
        """The token at the parse position; None at the end of the program."""
        return self.tokens[self.pos] if self.texts[self.pos] else None

    def expect(self, text: str) -> None:
        if self.texts[self.pos] != text:
            raise ParseError(display_word(text), self.found())
        self.pos += 1

    def identifier(self) -> str:
        text = self.texts[self.pos]
        if not text.isalpha():  # scanned words hold only a-z and hyphens
            expected = "an identifier without hyphens" if text[:1].isalpha() else "an identifier"
            raise ParseError(expected, self.found())
        self.pos += 1
        return text

    def program(self) -> int:
        self.expect("tape-alphabet")
        root = self.node("tape-alphabet")
        self.expect("is")
        prev = self.node(self.identifier())
        self.arrow(root, "is", prev)
        while self.texts[self.pos] == ",":
            self.pos += 1
            node = self.node(self.identifier())
            self.arrow(prev, ",", node)
            prev = node
        self.expect(";")
        first = self.statement_list()
        self.arrow(root, ";", first)
        self.expect(".")
        dot = self.node(".")
        self.arrow(root, "", dot)
        if self.texts[self.pos]:
            raise ParseError("end of program", self.found())
        return root

    def statement_list(self) -> int:
        """Parse a statement list, nested ones included; return its first statement."""
        texts = self.texts
        pending: list[list] = [[_LIST, None, None]]  # a list: its first and last statement
        while True:
            labels: list[str] = []
            while texts[self.pos + 1] == ":" and texts[self.pos][:1].isalpha():
                labels.append(self.identifier())
                self.pos += 1
            pending.append([_LABELS, labels])
            keyword = texts[self.pos]
            if keyword == "if":
                self.pos += 1
                node = self.node("if")
                self.expect("the-tape-symbol")
                symbol = self.node("the-tape-symbol")
                self.arrow(node, "", symbol)
                self.expect("is")
                word = self.node(self.string())
                self.arrow(symbol, "is", word)
                self.expect("then")
                pending.append([_IF, node])
                continue  # parse the subordinate statement
            if keyword == "{":
                self.pos += 1
                pending.append([_BLOCK, self.node("{")])
                pending.append([_LIST, None, None])
                continue  # parse the inner statement list
            done = self.simple_statement(keyword)
            # Hand the parsed node to what waits for it, until a list goes on.
            while True:
                frame = pending.pop()
                kind = frame[0]
                if kind == _LABELS:
                    prev = done
                    for label in frame[1]:
                        target = self.node(label)
                        self.arrow(prev, ":", target)
                        prev = target
                elif kind == _IF:
                    self.arrow(frame[1], "then", done)
                    done = frame[1]
                elif kind == _BLOCK:
                    self.expect("}")
                    self.arrow(frame[1], "}", done)
                    done = frame[1]
                else:
                    if frame[1] is None:
                        frame[1] = done
                    else:
                        self.arrow(frame[2], ";", done)
                    frame[2] = done
                    if texts[self.pos] == ";":
                        self.pos += 1
                        pending.append(frame)
                        break  # parse the list's next statement
                    done = frame[1]
                    if not pending:
                        return done

    def simple_statement(self, keyword: str) -> int:
        """A statement with no statement inside: go, print, move, or the empty one."""
        if keyword == "go":
            self.pos += 1
            node = self.node("go")
            self.expect("to")
            target = self.node(self.identifier())
            self.arrow(node, "to", target)
            return node
        if keyword == "print":
            self.pos += 1
            node = self.node("print")
            word = self.node(self.string())
            self.arrow(node, "'", word)
            return node
        if keyword == "move":
            self.pos += 1
            node = self.node("move")
            direction = self.texts[self.pos]
            if direction != "left" and direction != "right":
                raise ParseError("'left' or 'right'", self.found())
            self.pos += 1
            self.expect("one-square")
            square = self.node("one-square")
            self.arrow(node, direction, square)
            return node
        return self.node("")

    def string(self) -> str:
        self.expect("'")
        word = self.identifier()
        self.expect("'")
        return word


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

    def need(self, node: int, label: str) -> int:
        dst = self.g.follow(node, "+", label)
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
        declared = self.g.chain(self.need(self.root, "is"), "+", ",")
        words = [self.plain_word(node, "declared word") for node in declared]
        lines = ["tape-alphabet is " + ", ".join(words) + ";"]
        statements = self.g.chain(self.need(self.root, ";"), "+", ";")
        for i, node in enumerate(statements):
            mark = "." if i == len(statements) - 1 else ";"
            lines.append(self.statement(node) + mark)
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
            first = g.follow(item, "+", ":")
            if first is not None:
                labels = [self.plain_word(n, "statement label") for n in g.chain(first, "+", ":")]
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
                inner = g.chain(self.need(item, "}"), "+", ";")
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
            square = self.g.follow(node, "+", direction)
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
    a tree and is refused with ValueError.
    """
    return _Renderer(tree).render()
