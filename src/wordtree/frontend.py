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
from dataclasses import dataclass
from typing import Optional

from .graph import SYNTACTIC, LabeledGraph, Tree, display_word

Sytr = Tree

PUNCT_CHARS = ";{}.:,'"
STATEMENT_KEYWORDS = ("go", "if", "print", "move")

_WORD = re.compile(r"[a-z]+(?:-[a-z]+)*")
_PLAIN = re.compile(r"[a-z]+\Z")


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


@dataclass(frozen=True)
class Token:
    kind: str  # "word" | "punct"
    text: str
    line: int
    column: int


def lex(text: str) -> list[Token]:
    """Tokenize source text into maximal-munch words and punctuation marks."""
    tokens: list[Token] = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        i = 0
        while i < len(line):
            c = line[i]
            if c.isspace():
                i += 1
                continue
            if c in PUNCT_CHARS:
                tokens.append(Token("punct", c, line_no, i + 1))
                i += 1
                continue
            m = _WORD.match(line, i)
            if m is None:
                raise IllegalCharacter(c, line_no, i + 1)
            tokens.append(Token("word", m.group(), line_no, i + 1))
            i = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.g = LabeledGraph()

    def peek(self, ahead: int = 0) -> Optional[Token]:
        index = self.pos + ahead
        return self.tokens[index] if index < len(self.tokens) else None

    def take(self) -> Token:
        token = self.peek()
        if token is None:
            raise ParseError("more program text", None)
        self.pos += 1
        return token

    def at_word(self, text: Optional[str] = None, ahead: int = 0) -> bool:
        token = self.peek(ahead)
        return (
            token is not None
            and token.kind == "word"
            and (text is None or token.text == text)
        )

    def at_punct(self, char: str, ahead: int = 0) -> bool:
        token = self.peek(ahead)
        return token is not None and token.kind == "punct" and token.text == char

    def expect_word(self, text: str) -> Token:
        if not self.at_word(text):
            raise ParseError(display_word(text), self.peek())
        return self.take()

    def expect_punct(self, char: str) -> Token:
        if not self.at_punct(char):
            raise ParseError(display_word(char), self.peek())
        return self.take()

    def identifier(self) -> str:
        token = self.peek()
        if token is None or token.kind != "word":
            raise ParseError("an identifier", token)
        if not _PLAIN.match(token.text):
            raise ParseError("an identifier without hyphens", token)
        self.take()
        return token.text

    def program(self) -> int:
        self.expect_word("tape-alphabet")
        root = self.g.add_node("tape-alphabet")
        self.expect_word("is")
        prev = self.g.add_node(self.identifier())
        self.g.add_arrow(root, "is", prev)
        while self.at_punct(","):
            self.take()
            node = self.g.add_node(self.identifier())
            self.g.add_arrow(prev, ",", node)
            prev = node
        self.expect_punct(";")
        first = self.statement_list()
        self.g.add_arrow(root, ";", first)
        self.expect_punct(".")
        dot = self.g.add_node(".")
        self.g.add_arrow(root, "", dot)
        if self.peek() is not None:
            raise ParseError("end of program", self.peek())
        return root

    def statement_list(self) -> int:
        first = self.statement()
        prev = first
        while self.at_punct(";"):
            self.take()
            node = self.statement()
            self.g.add_arrow(prev, ";", node)
            prev = node
        return first

    def statement(self) -> int:
        labels: list[str] = []
        while self.at_word() and self.at_punct(":", ahead=1):
            labels.append(self.identifier())
            self.take()
        node = self.simple_statement()
        prev = node
        for label in labels:
            target = self.g.add_node(label)
            self.g.add_arrow(prev, ":", target)
            prev = target
        return node

    def simple_statement(self) -> int:
        if self.at_word("go"):
            self.take()
            node = self.g.add_node("go")
            self.expect_word("to")
            target = self.g.add_node(self.identifier())
            self.g.add_arrow(node, "to", target)
            return node
        if self.at_word("print"):
            self.take()
            node = self.g.add_node("print")
            word = self.g.add_node(self.string())
            self.g.add_arrow(node, "'", word)
            return node
        if self.at_word("if"):
            self.take()
            node = self.g.add_node("if")
            self.expect_word("the-tape-symbol")
            symbol = self.g.add_node("the-tape-symbol")
            self.g.add_arrow(node, "", symbol)
            self.expect_word("is")
            word = self.g.add_node(self.string())
            self.g.add_arrow(symbol, "is", word)
            self.expect_word("then")
            subordinate = self.statement()
            self.g.add_arrow(node, "then", subordinate)
            return node
        if self.at_word("move"):
            self.take()
            node = self.g.add_node("move")
            if self.at_word("left") or self.at_word("right"):
                direction = self.take().text
            else:
                raise ParseError("'left' or 'right'", self.peek())
            self.expect_word("one-square")
            square = self.g.add_node("one-square")
            self.g.add_arrow(node, direction, square)
            return node
        if self.at_punct("{"):
            self.take()
            node = self.g.add_node("{")
            inner = self.statement_list()
            self.expect_punct("}")
            self.g.add_arrow(node, "}", inner)
            return node
        return self.g.add_node("")

    def string(self) -> str:
        self.expect_punct("'")
        word = self.identifier()
        self.expect_punct("'")
        return word


def parse_program(tokens: list[Token]) -> Sytr:
    """Parse a token stream into a canonical program tree."""
    parser = _Parser(tokens)
    root = parser.program()
    return Sytr(parser.g, root)


def parse_text(text: str) -> Sytr:
    """Convenience wrapper: lex then parse."""
    return parse_program(lex(text))


def to_canonical(tree: Tree) -> Sytr:
    """Rewrite a grammar-shaped tree into the canonical program encoding.

    Trees grown directly from the schema keep printed and compared words
    wrapped in a quote node; the canonical encoding drops the wrapper.
    The result is a fresh graph; the input is not modified.
    """
    source = tree.graph
    g = LabeledGraph()

    def quote_target(node: int) -> Optional[int]:
        if source.node_label(node) != "'":
            return None
        out = source.out_arrows(node)
        if len(out) != 1 or out[0][1].label != "'":
            return None
        return out[0][1].dst

    def walk(old: int) -> int:
        new = g.add_node(source.node_label(old))
        for _, arrow in source.out_arrows(old):
            if arrow.kind != SYNTACTIC:
                raise ValueError("canonical form covers syntactic arrows only")
            wrapped = quote_target(arrow.dst)
            if wrapped is not None:
                label = arrow.label if arrow.label else "'"
                g.add_arrow(new, label, walk(wrapped))
            else:
                g.add_arrow(new, arrow.label, walk(arrow.dst))
        return new

    return Sytr(g, walk(tree.root))


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
        if not _PLAIN.match(word):
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
        first = self.g.follow(node, "+", ":")
        if first is None:  # most statements carry no label: no chain to build
            return self.body(node)
        labels = [self.plain_word(n, "statement label") for n in self.g.chain(first, "+", ":")]
        return ": ".join(labels) + ": " + self.body(node)

    def body(self, node: int) -> str:
        label = self.g.node_label(node)
        if label == "go":
            target = self.plain_word(self.need(node, "to"), "goto target")
            return f"go to {target}"
        if label == "print":
            word = self.plain_word(self.need(node, "'"), "printed word")
            return f"print '{word}'"
        if label == "if":
            symbol = self.need(node, "")
            if self.g.node_label(symbol) != "the-tape-symbol":
                raise self.fail("'if' does not point at 'the-tape-symbol'")
            word = self.plain_word(self.need(symbol, "is"), "compared word")
            subordinate = self.statement(self.need(node, "then"))
            return f"if the-tape-symbol is '{word}' then {subordinate}"
        if label == "move":
            for direction in ("left", "right"):
                square = self.g.follow(node, "+", direction)
                if square is not None:
                    if self.g.node_label(square) != "one-square":
                        raise self.fail("'move' does not point at 'one-square'")
                    return f"move {direction} one-square"
            raise self.fail("'move' lacks a 'left' or 'right' arrow")
        if label == "{":
            inner = [self.statement(n) for n in self.g.chain(self.need(node, "}"), "+", ";")]
            return "{" + "; ".join(inner) + "}"
        if label == "":
            return ""
        raise self.fail(f"unknown statement label {display_word(label)}")


def render_program(tree: Sytr) -> str:
    """Inverse of parsing: canonical tree back to program text.

    The text reparses to an isomorphic tree; whitespace and statement
    layout are normalized, one top-level statement per line. A graph in
    which some node is reached twice (a loop, or a shared node) is not
    a tree and is refused with ValueError.
    """
    return _Renderer(tree).render()
