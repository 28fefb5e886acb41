"""Reference Turingol lexer and parser for the differential frontend tests.

These are the character-loop lexer and the token-object parser that
``wordtree.frontend`` used before its one-pass scanner. They are kept
only as oracles: ``lex`` walks each line one character at a time and
builds a ``Token`` per token, and ``parse_program`` reaches every token
through ``peek``. The fast frontend must agree with them on every input,
token for token, node id for node id and error for error.
"""

from __future__ import annotations

import re
from typing import Optional

from wordtree.frontend import PUNCT_CHARS, IllegalCharacter, ParseError, Sytr, Token
from wordtree.graph import LabeledGraph, display_word

_WORD = re.compile(r"[a-z]+(?:-[a-z]+)*")
_PLAIN = re.compile(r"[a-z]+\Z")


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
    return parse_program(lex(text))
